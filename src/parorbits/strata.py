"""Orbit strata of a classical Grassmannian under a cominuscule parabolic.

Each double coset of the quotient carries:

  * delta: the stratum exponent eta_Q(omega_i^vee - w^(-1) omega_i^vee),
    computed in integers from the doubled coweights, for every class of
    the quotient in one pass, and constant on the stratum;
  * d_geometric: the signed-permutation statistic recording the incidence
    dimension with the reference flag (the case-by-case window count),
    read for a list of windows in one pass that picks the case once;
  * K and a flag descriptor: the Levi flag variety the stratum fibres over,
    one factor per Dynkin component of J_P (`rootsys.components`);
  * the fiber dimension of the stratum's vector bundle over that flag,
    tested against the length of the minimal representative.

The paper's case analysis lives in one place, `orbit_table`: for each
case it lists the admissible d_geometric in decreasing order, each with
its stratum's fiber dimension.  Orientation convention: delta is 0 on the
closed stratum (the one through the base point) and maximal on the open
stratum; the position of d_geometric among the table's keys is the same
label.  d_geometric counts the window itself, so that `verify` checks
that label against delta on every class; `stratify` reads it for each
stratum's minimal representative.

`stratify` computes each class's stratum and delta once and returns them
with the strata as one `Stratification`, which every other module reads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import mul
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from . import cosets, rootsys, weyl
from .cosets import ParabolicQuotient
from .fixtures import Fixture, grassmannian_label
from .rootsys import RootSystem
from .weyl import Window


class StrataError(ValueError):
    """Stratification invariant violation."""


# ---------------------------------------------------------------------------
# delta and the combinatorial statistic d


@lru_cache(maxsize=None)
def coweight_table(rs: RootSystem, node: int) -> Tuple[Tuple[int, ...], bytes]:
    """2 omega_node^vee and its translation table (`weyl.signed_table`),
    built once per root system: a window w moves it to w^-1(2 omega_node^vee)
    by one `bytes.translate` through the table, for `delta` and `seidel.v_elt`."""
    omega2 = rs.double_coweight(node)
    return omega2, weyl.signed_table(weyl.encode(omega2, rs.dim))


def delta(fix: Fixture, pq: ParabolicQuotient) -> Tuple[int, ...]:
    """Stratum exponent of every class of `pq`, the quotient of X, in one
    pass: the q-power in the cominuscule quantum product, half of
    eta_Q(2 omega_p^vee - w^(-1) 2 omega_p^vee), the coefficient of the
    q-th simple coroot.  As the coweights are dual to the simple roots,
    eta_Q(v) = |alpha_q|^2 <v, 2 omega_q^vee> / 4, so each class costs one
    gather of w^(-1) 2 omega_p^vee from the signed table and one pairing
    with 2 omega_q^vee.  The gather is one `bytes.translate` of the
    window, so each moved entry carries the offset 128: the pairing and
    the type-A coordinate sum are compared against constants that carry
    it too, 128 times the sum of the weights and 128 times the dimension.

    Every class is certified: in type A the move lies in the span of the
    coroots (coordinate sum 0), its coefficient is an integer (the move
    lies in the coroot lattice), and twice the exponent is even and
    >= 0.  A failure raises StrataError naming the class by `weyl.name`."""
    rs, q = fix.rs, fix.q_node
    omega2, table = coweight_table(rs, fix.p_node)
    weights = rs.double_coweight(q)
    alpha = rs.simple_root(q)
    scale = rootsys.pair(alpha, alpha)
    top = rootsys.pair(omega2, weights) + weyl.OFFSET * sum(weights)
    span = sum(omega2) + weyl.OFFSET * rs.dim if rs.type_label == "A" else None
    out = []
    for x in pq.elements:
        moved = x.translate(table)  # w^-1(2 omega_p^vee), encoded
        if span is not None and sum(moved) != span:
            w = weyl.name(rs, x)
            raise StrataError("coweight move of %s is not in the span of the coroots" % w)
        twice, rem = divmod(scale * (top - sum(map(mul, moved, weights))), 4)
        if rem:
            w = weyl.name(rs, x)
            raise StrataError("coweight move of %s is outside the coroot lattice at node %d" % (w, q))
        if twice % 2 or twice < 0:
            w = weyl.name(rs, x)
            raise StrataError("stratum exponent %d/2 at %s is not a non-negative integer" % (twice, w))
        out.append(twice // 2)
    return tuple(out)


def d_geometric(fix: Fixture, windows: Sequence[Window]) -> List[int]:
    """Incidence dimension of each window's cell with the reference flag
    of P, dispatched on the fixture's case once.

    This is the window statistic of the double-coset case analysis, read
    off the first m = q_node entries of the window: #{j <= m : w(j) <= i}
    in type A, #{j <= m : w(j) > 0} in type C and at the spin node n of D,
    the same count corrected by the entries n and -n at node n-1 of D, and
    in type B and at node 1 of D whether 1 or -1 is among them.  The heads
    stay encoded, and are compared against encoded constants, x + 128.
    """
    t, n, m, i = fix.type_label, fix.rank, fix.q_node, fix.p_node
    heads = [b[:m] for b in windows]
    zero = weyl.OFFSET
    if t == "A":
        return [sum(map((zero + i).__ge__, h)) for h in heads]
    if t == "B" or (t == "D" and i == 1):
        top = 2 if m < n else 1
        return [top if zero + 1 in h else 0 if zero - 1 in h else 1 for h in heads]
    if t == "C" or (t == "D" and i == n):
        return [sum(map(zero.__lt__, h)) for h in heads]
    # D with i = n - 1
    return [sum(map(zero.__lt__, h)) - (zero + n in h) + (zero - n in h) for h in heads]


def orbit_table(fix: Fixture) -> Dict[int, int]:
    """The paper's case table: each admissible d_geometric, in decreasing
    order (the label order), mapped to its stratum's fiber dimension.

    With m = q_node, i = p_node and n the rank (type D has no m = n - 1):
    in A, G(m, n+1) against an i-plane, d runs from min(m, i) down to
    max(0, m+i-n-1) with fiber (m-d)(i-d).  In B, and D with i = 1, a line
    of the quadric in C^N (N = 2n+1 or 2n), d = 2, 1, 0 with fibers 0, m,
    N-1-m when m < n, else d = 1, 0.  In C, and D at a spin node, d runs
    from m down with fiber k(n-d) - k(k-1)/2, k = m-d (k(k+1)/2 in D);
    in D with m = n, d = i, i-2, ..., as two maximal isotropic subspaces
    of one family meet in a dimension of fixed parity.
    """
    t, n, m, i = fix.type_label, fix.rank, fix.q_node, fix.p_node
    if t == "A":
        return {d: (m - d) * (i - d) for d in range(min(m, i), max(0, m + i - n - 1) - 1, -1)}
    if t == "B" or (t == "D" and i == 1):
        top = 2 * n - m - (t == "D")  # N - 1 - m
        return {2: 0, 1: m, 0: top} if m < n else {1: 0, 0: top}
    spin = t == "D"
    ds = range(i, -1, -2) if spin and m == n else range(m, -1, -1)
    return {d: (m - d) * (n - d) - (m - d) * (m - d - 1 + 2 * spin) // 2 for d in ds}


# ---------------------------------------------------------------------------
# Levi flag descriptors


class FlagComponent(NamedTuple):
    type_label: str
    rank: int
    #: ambient node of each Bourbaki position (position k is node k+1)
    ambient_order: Tuple[int, ...]
    #: marked nodes in component numbering, sorted
    marked: Tuple[int, ...]

    @property
    def label(self) -> str:
        """`fixtures.grassmannian_label` for one marked node, else F(...) in
        type A, OG(r-1,2r) for both D spin nodes, or type, rank and nodes."""
        t, r, marked = self.type_label, self.rank, self.marked
        if len(marked) == 1:
            return grassmannian_label(t, r, marked[0])
        if t == "A":
            return "F(%s;%d)" % (",".join(str(k) for k in marked), r + 1)
        if t == "D" and marked == (r - 1, r):
            return "OG(%d,%d)" % (r - 1, 2 * r)
        return "%s%d/P{%s}" % (t, r, ",".join(str(k) for k in marked))


class FlagDescriptor(NamedTuple):
    components: Tuple[FlagComponent, ...]
    marked_ambient: Tuple[int, ...]
    dim: int

    @property
    def label(self) -> str:
        if not self.components:
            return "pt"
        return " x ".join(c.label for c in self.components)


def K_of(pq: ParabolicQuotient, j_p: FrozenSet[int], i: int) -> FrozenSet[int]:
    """Nodes s of `j_p`, Delta(P), whose simple root is carried onto
    Delta(Q) by w_min^-1, for w_min the class i of `pq`.  By Deodhar's
    lemma (Bjorner-Brenti Lemma 2.4.3), s*w_min leaves W^Q exactly when
    w_min^-1(alpha_s) lies in Delta(Q), and the quotient's left-action
    table records that as left[s][i] == i."""
    return frozenset(s for s in j_p if pq.left[s][i] == i)


def _symmetric_orders(type_label: str, order: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The Bourbaki orders of a component that its diagram's symmetries
    allow: reversal in A, the last two nodes swapped in D, triality in D_4."""
    if type_label == "A":
        return [order, order[::-1]]
    if type_label == "D" and len(order) == 4:
        centre = order[1]
        return [(x, centre, y, z) for x, y, z in permutations(order[:1] + order[2:])]
    if type_label == "D":
        return [order, order[:-2] + (order[-1], order[-2])]
    return [order]


def _root_count(comps: Sequence[Tuple[str, Tuple[int, ...]]]) -> int:
    """|Phi+| of a Levi from its Dynkin components: d - 1 over their degrees."""
    return sum(d - 1 for t, nodes in comps for d in rootsys.degrees(t, len(nodes)))


@lru_cache(maxsize=None)
def flag_descriptor(rs: RootSystem, j_p: FrozenSet[int], k_set: FrozenSet[int]) -> FlagDescriptor:
    """One factor per component of J_P that holds a node of J_P - K, in the
    allowed order with the smallest marked positions, then the smallest.
    It reads the root system and the two node sets alone, so it is built
    once per (rs, J_P, K), whichever fixture's stratum asks."""
    marked = frozenset(j_p) - k_set
    levi = rootsys.components(rs, j_p)
    dim = _root_count(levi) - _root_count(rootsys.components(rs, k_set))
    comps = []
    for t, nodes in levi:
        if not marked.isdisjoint(nodes):
            positions, order = min(
                (tuple(sorted(o.index(x) + 1 for x in marked.intersection(o))), o)
                for o in _symmetric_orders(t, nodes)
            )
            comps.append(FlagComponent(t, len(nodes), order, positions))
    return FlagDescriptor(tuple(comps), tuple(sorted(marked)), dim)


# ---------------------------------------------------------------------------
# strata


class OrbitStratum(NamedTuple):
    """One orbit stratum with its invariants: the double coset of X's
    quotient `pq` whose sorted member indices are `members`, so that
    members[0] is its w_min and members[-1] its w_max.  It compares and
    hashes by identity, as the quotient does."""

    fixture: Fixture
    pq: ParabolicQuotient
    members: Tuple[int, ...]
    delta: int
    d_geom: int
    K: FrozenSet[int]
    flag: FlagDescriptor
    fiber_dim: int
    doubling: bool

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def scale(self) -> int:
        """The factor on the flag multiplicities that X's within-stratum
        edges carry: 2 on the doubling stratum, else 1."""
        return 2 if self.doubling else 1


def h_prime_of(stratum: OrbitStratum) -> int:
    """The coefficient of h' on the stratum's flag, as a multiple of the
    flag's hyperplane class (1 on each marked ambient node).

    It is 1, with one degeneration: on the Lagrangian Grassmannian (type C
    with q_node = rank) the two isotropic flag steps of a stratum coincide,
    so the restricted divisor is twice the hyperplane class.
    """
    fix = stratum.fixture
    return 2 if fix.type_label == "C" and fix.q_node == fix.rank else 1


def _doubling(fix: Fixture, delta_value: int) -> bool:
    """The odd orthogonal doubling flag: the middle stratum of
    OG(n-1, 2n+1) compares against its (maximal orthogonal) flag diagram
    with every multiplicity doubled."""
    return (
        fix.type_label == "B"
        and fix.q_node == fix.rank - 1
        and fix.p_node == 1
        and delta_value == 1
    )


class Stratification(NamedTuple):
    """X's quotient with its orbit strata, sorted by increasing delta, and
    two labels on each class k of the quotient: `stratum_of[k]`, the index
    in `strata` of the stratum that holds k, and `delta[k]`, its stratum
    exponent.  It compares and hashes by identity, as the quotient does."""

    pq: ParabolicQuotient
    strata: Tuple[OrbitStratum, ...]
    stratum_of: Tuple[int, ...]
    delta: Tuple[int, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def stratify(fix: Fixture) -> Stratification:
    """The stratification of X: every reader of a stratum, of a class's
    stratum or of a class's delta reads it from here."""
    rs, j_p = fix.rs, fix.j_p
    pq = cosets.build_quotient(rs, fix.j_q)
    deltas = delta(fix, pq)
    orbits = cosets.double_cosets(pq, j_p)
    stats = d_geometric(fix, [pq.elements[members[0]] for members in orbits])
    strata = []
    for members, d_geom in zip(orbits, stats):
        values = {deltas[k] for k in members}
        if len(values) != 1:
            raise StrataError(
                "stratum exponent not constant on %s: %s" % (members, sorted(values))
            )
        dval = values.pop()
        k_set = K_of(pq, j_p, members[0])
        strata.append(
            OrbitStratum(
                fixture=fix,
                pq=pq,
                members=members,
                delta=dval,
                d_geom=d_geom,
                K=k_set,
                flag=flag_descriptor(rs, j_p, k_set),
                fiber_dim=pq.lengths[members[0]],
                doubling=_doubling(fix, dval),
            )
        )
    strata.sort(key=lambda st: (st.delta, pq.elements[st.members[0]]))
    stratum_of = [0] * len(pq.elements)
    for si, st in enumerate(strata):
        for k in st.members:
            stratum_of[k] = si
    return Stratification(pq, tuple(strata), tuple(stratum_of), deltas)


def stratum_json(st: OrbitStratum) -> dict:
    windows, members = st.pq.elements, st.members
    return {
        "delta": st.delta,
        "w_min": weyl.window_str(windows[members[0]]),
        "w_max": weyl.window_str(windows[members[-1]]),
        "size": st.size,
        "K": sorted(st.K),
        "flag": {
            "components": [
                {
                    "type": c.type_label,
                    "rank": c.rank,
                    "nodes": list(c.ambient_order),
                    "marked": list(c.marked),
                    "label": c.label,
                }
                for c in st.flag.components
            ],
            "marked": list(st.flag.marked_ambient),
            "dim": st.flag.dim,
        },
        "fiber_dim": st.fiber_dim,
        "doubling": st.doubling,
    }
