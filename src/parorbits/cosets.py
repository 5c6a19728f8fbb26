"""Parabolic quotients W^Q and double-coset strata.

A quotient may live in the full Weyl group or in any standard Levi
subgroup (node subset), which lets the flag varieties appearing inside
orbit strata reuse the same machinery.  Elements are minimal-length coset
representatives, graded by length; covers carry a positive-root witness
beta with w = u * s_beta.  `fixtures.Fixture` alone decides which
quotients belong to the supported family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from . import weyl
from .rootsys import RootSystem
from .weyl import WeylElement


class CosetError(ValueError):
    """Invalid quotient or double-coset request."""


class Cover(NamedTuple):
    u: int
    w: int
    root: int  # index into rs.positive_roots


@dataclass(frozen=True, eq=False)
class ParabolicQuotient:
    rs: RootSystem
    nodes: FrozenSet[int]
    j_q: FrozenSet[int]
    elements: Tuple[WeylElement, ...]
    covers: Tuple[Cover, ...]
    index: Dict[Tuple[int, ...], int]

    def __repr__(self) -> str:
        return "ParabolicQuotient(%s%d, nodes=%s, J_Q=%s, %d elements)" % (
            self.rs.type_label,
            self.rs.rank,
            sorted(self.nodes),
            sorted(self.j_q),
            len(self.elements),
        )

    def index_of(self, w: WeylElement) -> int:
        return self.index[w.window]

    def top_degree(self) -> int:
        return self.elements[-1].length

    def rank_counts(self) -> Tuple[int, ...]:
        counts = [0] * (self.top_degree() + 1)
        for w in self.elements:
            counts[w.length] += 1
        return tuple(counts)


@lru_cache(maxsize=None)
def reflection_by_index(rs: RootSystem, root_idx: int) -> WeylElement:
    return weyl.reflection(rs, rs.positive_roots[root_idx])


@lru_cache(maxsize=None)
def build_quotient(
    rs: RootSystem, j_q: FrozenSet[int], nodes: Optional[FrozenSet[int]] = None
) -> ParabolicQuotient:
    """Graded quotient W_L / W_J with cover relations and root witnesses."""
    if nodes is None:
        nodes = frozenset(rs.nodes)
    if not j_q <= nodes:
        raise CosetError("J_Q %s is not contained in the node set %s" % (sorted(j_q), sorted(nodes)))
    elements = weyl.enumerate_group(rs, nodes, j_q)
    index = {w.window: k for k, w in enumerate(elements)}
    lengths = [w.length for w in elements]

    ambient_roots = set(rs.positive_roots_of(nodes))
    q_roots = set(rs.positive_roots_of(j_q))
    candidates = [
        (root_idx, weyl.reflection_image(rs.positive_roots[root_idx]))
        for root_idx in sorted(ambient_roots - q_roots)
    ]
    covers: List[Cover] = []
    for u_idx, u in enumerate(elements):
        uw, up = u.window, lengths[u_idx] + 1
        for root_idx, image in candidates:
            # None when u inverts beta, i.e. l(u s_beta) < l(u) (Bjorner-Brenti Prop. 4.4.6)
            x = image(uw)
            if x is None:
                continue
            w_idx = index.get(x)
            if w_idx is not None and lengths[w_idx] == up:
                covers.append(Cover(u_idx, w_idx, root_idx))
    covers.sort()
    return ParabolicQuotient(rs, nodes, j_q, elements, tuple(covers), index)


@dataclass(frozen=True, eq=False)
class DoubleCoset:
    pq: ParabolicQuotient
    j_p: FrozenSet[int]
    members: Tuple[int, ...]  # sorted element indices
    w_min: WeylElement
    w_max: WeylElement

    @property
    def size(self) -> int:
        return len(self.members)


def double_cosets(pq: ParabolicQuotient, j_p: Iterable[int]) -> Tuple[DoubleCoset, ...]:
    """Partition of the quotient into orbits of the left W_P action, i.e. the
    double cosets W_P \\ W / W_Q, by closing under the generators of W_P."""
    j_p_set = frozenset(j_p)
    if not j_p_set <= pq.nodes:
        raise CosetError("J_P %s not contained in nodes %s" % (sorted(j_p_set), sorted(pq.nodes)))
    gens = [weyl.simple_reflection(pq.rs, p).window for p in sorted(j_p_set)]
    index = pq.index
    assigned = [-1] * len(pq.elements)
    classes: List[List[int]] = []
    for start in range(len(pq.elements)):
        if assigned[start] >= 0:
            continue
        cls_id = len(classes)
        stack = [start]
        assigned[start] = cls_id
        members = [start]
        while stack:
            k = stack.pop()
            w = pq.elements[k].window
            for s in gens:
                # Deodhar's lemma: s*w is in W^Q, or it lies in the coset of w
                m = index.get(weyl.compose(s, w), k)
                if assigned[m] < 0:
                    assigned[m] = cls_id
                    members.append(m)
                    stack.append(m)
        classes.append(sorted(members))

    out = []
    for members in classes:
        elems = [pq.elements[k] for k in members]
        min_len = min(e.length for e in elems)
        max_len = max(e.length for e in elems)
        mins = [e for e in elems if e.length == min_len]
        maxs = [e for e in elems if e.length == max_len]
        if len(mins) != 1 or len(maxs) != 1:
            raise CosetError(
                "double coset without unique length extremes: %s" % (elems,)
            )
        out.append(DoubleCoset(pq, j_p_set, tuple(members), mins[0], maxs[0]))
    return tuple(sorted(out, key=lambda dc: (dc.w_min.length, dc.w_min.window)))


def certify_interval(dc: DoubleCoset) -> bool:
    """Check members == Bruhat interval [w_min, w_max] of the quotient.

    Bruhat order on W^Q is graded by length and is the transitive closure
    of its covers (Bjorner-Brenti, Thm 2.5.5), so the interval is the
    up-set of w_min met with the down-set of w_max in the cover graph; one
    pass each way suffices, as covers are sorted by source and elements by
    length.  Trusts `pq.covers` (right multiplication by reflections), not
    how `double_cosets` built the stratum (the left W_P action).
    """
    pq = dc.pq
    up = {pq.index_of(dc.w_min)}
    for c in pq.covers:
        if c.u in up:
            up.add(c.w)
    down = {pq.index_of(dc.w_max)}
    for c in reversed(pq.covers):
        if c.w in down:
            down.add(c.u)
    return up & down == set(dc.members)
