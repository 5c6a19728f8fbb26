"""Quantum product by cominuscule Seidel classes.

The Seidel element of a cominuscule node i is the shortest Weyl element
carrying the fundamental coweight of i to its image under the longest
element; it acts on Schubert classes by

    sigma_v * sigma_w = q^delta(w) sigma_[v w],

where [v w] is the class of v * w in W/W_Q.  A class is named by the head
of its window, the signed set of its first q entries, so the table maps
each class's head through v and looks the image up, with no window
product per class.  The q-exponent delta(w) is the label of the orbit
stratum that holds w: it is the per-class `delta` of `strata.stratify`,
which certifies it constant on each stratum.  The induced map on classes
is a bijection whose iterates accumulate q-exponents linearly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from . import rootsys, strata, weyl
from .fixtures import Fixture
from .rootsys import RootSystem
from .strata import Stratification
from .weyl import Window


class SeidelError(ValueError):
    """Invalid node or failed certification."""


@lru_cache(maxsize=None)
def v_elt(rs: RootSystem, i: int) -> Window:
    """Window of the Seidel element of node i, the shortest element of
    w_0 W_J, with J the nodes other than i, computed as
    `weyl.min_rep(rs, w_0, J)`; w_0 is `weyl.longest`, one pass over the
    blocks of positions, with no descent stripped.  The element depends
    on the root system and the node alone, so it is built and certified
    once per (rs, i) and shared by every fixture that acts by node i.

    Certified exactly at every rank.  The stabiliser of the dominant
    coweight omega_i^vee is W_J, so the solutions u of u * omega_i^vee =
    w_0 * omega_i^vee form the coset w_0 W_J; its shortest element is the
    unique one with no right descent in J.  Both conditions are checked,
    the first on 2 omega_i^vee, the second by `weyl.first_descent`.
    """
    if i not in rootsys.cominuscule_nodes(rs.type_label, rs.rank):
        raise SeidelError(
            "node %d is not cominuscule for %s_%d" % (i, rs.type_label, rs.rank)
        )
    j_set = [k for k in rs.nodes if k != i]
    w0 = weyl.longest(rs, rs.nodes)
    v = weyl.min_rep(rs, w0, j_set)
    omega2 = rs.double_coweight(i)
    if weyl.act(v, omega2) != weyl.act(w0, omega2):
        raise SeidelError("Seidel element fails its coweight equation at node %d" % i)
    if weyl.first_descent(rs, v, j_set):
        raise SeidelError(
            "Seidel element %s of node %d is not minimal in w_0 W_J" % (weyl.name(rs, v), i)
        )
    return v


def seidel_table(strat: Stratification, v: Window) -> Tuple[int, ...]:
    """The Seidel operator on the classes of X's quotient `strat.pq`, as
    the permutation perm: perm[k] is the index of the class of v * w_k.

    `strat` is `strata.stratify(fix)` for a fixture, and v is the window of
    its Seidel element, `v_elt(fix.rs, fix.p_node)`; the root system is
    `strat.pq.rs`.  The q-exponent of class k is `strat.delta[k]`.

    The head rule.  W_Q, for Q the nodes other than q, permutes positions
    1..q among themselves and re-signs or permutes the rest, so the class
    of a window in W/W_Q is its head, the signed set of its first q
    entries (the set, in type A; Bjorner-Brenti 8.1-8.2).  A minimal
    window holds its head in the key order 1 < ... < d < -d < ... < -1,
    not in byte order, as `weyl.min_rep` sorts that block of positions
    so.  So one dict maps each class's head to its index, and each class's
    head is carried through the signed table of v, sorted in the key order
    (`weyl.moved_heads`) and looked up: no window product and no left row
    per class.  Two classes that share a head, or an image head that names
    no class, raise SeidelError naming the window.
    """
    pq = strat.pq
    windows = pq.elements
    (m,) = set(pq.rs.nodes) - pq.j_q
    index = {w[:m]: k for k, w in enumerate(windows)}
    if len(index) < len(windows):
        w = next(w for k, w in enumerate(windows) if index[w[:m]] != k)
        raise SeidelError("%s shares its head with a later class of %r" % (weyl.name(pq.rs, w), pq))
    perm = tuple(map(index.get, weyl.moved_heads(v, windows, m)))
    if None in perm:
        w = windows[perm.index(None)]
        raise SeidelError("the head of v * %s names no class of %r" % (weyl.name(pq.rs, w), pq))
    return perm


def orbits(perm: Sequence[int]) -> List[List[int]]:
    """The orbits of k -> perm[k], each walked once from its least unseen
    index until the walk reaches a seen one.  On a bijection these are its
    cycles, and each closes: perm[c[-1]] == c[0].  Conversely, walks that
    all close are cycles that partition the indices, so perm is a
    bijection exactly when every orbit closes."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orbit = []
        k = start
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = perm[k]
        out.append(orbit)
    return out


@lru_cache(maxsize=None)
def quantum_q_degree(rs: RootSystem, q_node: int) -> int:
    """Degree of q on the quotient of node q_node: first Chern number on
    the basic curve, the pairing with alpha_q^vee summed over the positive
    roots outside Phi_Q, those with a nonzero coroot coordinate at q_node.
    It reads the root system and the node alone, so it is summed once
    per (rs, q_node)."""
    coroot = rs.simple_coroot(q_node)
    return sum(
        rootsys.pair(beta, coroot)
        for beta, coords in zip(rs.positive_roots, rs.coroot_coords)
        if coords[q_node - 1]
    )


def table_rows(fix: Fixture) -> List[Dict[str, object]]:
    """Serializable operator table: window, length, q_exp, image_window."""
    strat = strata.stratify(fix)
    pq, qexp = strat.pq, strat.delta
    perm = seidel_table(strat, v_elt(fix.rs, fix.p_node))
    return [
        {
            "window": weyl.window_str(x),
            "length": pq.lengths[k],
            "q_exp": qexp[k],
            "image_window": weyl.window_str(pq.elements[perm[k]]),
        }
        for k, x in enumerate(pq.elements)
    ]
