"""Reference Dynkin-component search for the tests.

A general graph search over the Dynkin diagram that knows nothing of the
classical node numbering: components by depth-first search over the
Cartan-matrix adjacency, types by root norms and branch nodes, and every
Bourbaki order of a component found by walking its arms.  It is the
oracle for `rootsys.components` and `strata.flag_descriptor`.
"""

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from parorbits.rootsys import RootSystem, pair
from parorbits.strata import FlagComponent


def subsets(nodes: Iterable[int]) -> List[FrozenSet[int]]:
    """Every subset of a node set, by size, then lexicographically."""
    nodes = sorted(nodes)
    return [frozenset(c) for r in range(len(nodes) + 1) for c in combinations(nodes, r)]


def cartan_matrix(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """The Cartan matrix, entry (i, j) the pairing <alpha_i, alpha_j^vee>
    of the simple roots with the simple coroots, nodes counted from 0."""
    return tuple(tuple(pair(a, c) for c in rs.simple_coroots) for a in rs.simple_roots)


def adjacency(rs: RootSystem) -> Dict[int, FrozenSet[int]]:
    """Dynkin-diagram adjacency from the Cartan matrix."""
    cartan = cartan_matrix(rs)
    return {
        i: frozenset(j for j in rs.nodes if j != i and cartan[i - 1][j - 1] != 0)
        for i in rs.nodes
    }


def component_nodes(rs: RootSystem, nodes: FrozenSet[int]) -> List[List[int]]:
    """Connected components of `nodes`, each sorted, ordered by least node."""
    adj = adjacency(rs)
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in adj[x] & remaining:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        remaining -= comp
        comps.append(sorted(comp))
    return comps


def _path_order(adj: Dict[int, List[int]], start: int) -> List[int]:
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [y for y in adj[cur] if y != prev]
        if not nxt:
            return order
        prev, cur = cur, nxt[0]
        order.append(cur)


def orderings(rs: RootSystem, comp: Sequence[int]) -> Tuple[str, List[List[int]]]:
    """Component type plus all valid Bourbaki orderings of its nodes."""
    comp = list(comp)
    r = len(comp)
    dynkin = adjacency(rs)
    adj = {x: sorted(dynkin[x].intersection(comp)) for x in comp}
    norm = {x: pair(rs.simple_root(x), rs.simple_root(x)) for x in comp}
    norms = sorted(set(norm.values()))
    if r == 1:
        t = {1: "B", 2: "A", 4: "C"}[norms[0]]
        return t, [comp]
    if len(norms) > 1:
        # one short end (type B, norms 2..2,1) or one long end (type C,
        # norms 2..2,4); the fixed realizations make this an absolute test
        special_norm = norms[0] if norms == [1, 2] else norms[-1]
        t = "B" if special_norm == norms[0] else "C"
        special = next(x for x in comp if norm[x] == special_norm)
        assert len(adj[special]) == 1, "non-terminal special root in component %s" % comp
        far = next(x for x in comp if len(adj[x]) == 1 and x != special)
        order = _path_order(adj, far)
        assert order[-1] == special, "component %s is not a B/C path" % comp
        return t, [order]
    branch = [x for x in comp if len(adj[x]) == 3]
    if not branch:
        leaves = [x for x in comp if len(adj[x]) <= 1]
        first = _path_order(adj, leaves[0])
        return "A", [first, list(reversed(first))]
    center = branch[0]
    pruned = {k: [z for z in v if z != center] for k, v in adj.items()}
    arms = [_path_order(pruned, y) for y in adj[center]]
    arms.sort(key=len)
    out = []
    tails = [a for a in arms if len(a) == len(arms[-1])]
    for tail in tails:
        short = [a for a in arms if a is not tail]
        if not all(len(a) == 1 for a in short) or len(short) != 2:
            continue
        f1, f2 = short[0][0], short[1][0]
        base = list(reversed(tail)) + [center]
        out.append(base + [f1, f2])
        out.append(base + [f2, f1])
    assert out, "component %s is not a D diagram" % comp
    return "D", out


def classify_component(
    rs: RootSystem, comp: Sequence[int], marked_ambient: FrozenSet[int]
) -> FlagComponent:
    """The flag component of `comp`: the ordering with the smallest marked
    positions, then the smallest order."""
    t, orders = orderings(rs, comp)
    best = None
    for order in orders:
        marked = tuple(sorted(order.index(x) + 1 for x in comp if x in marked_ambient))
        key = (marked, tuple(order))
        if best is None or key < best[0]:
            best = (key, order, marked)
    _, order, marked = best
    return FlagComponent(t, len(comp), tuple(order), marked)


def flag_components(
    rs: RootSystem, j_p: FrozenSet[int], marked: FrozenSet[int]
) -> Tuple[FlagComponent, ...]:
    """The flag components of J_P with the given marked nodes."""
    return tuple(
        classify_component(rs, comp, marked)
        for comp in component_nodes(rs, j_p)
        if marked & set(comp)
    )
