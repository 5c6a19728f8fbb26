"""Parabolic quotients W^Q and double-coset strata.

A quotient may live in the full Weyl group or in any standard Levi
subgroup (node subset), which lets the flag varieties appearing inside
orbit strata reuse the same machinery.  A class is the window of its
minimal-length coset representative and its position among the
quotient's `elements`, which are graded by length; each quotient keeps
their lengths as one tuple, `lengths`, beside them.  Each quotient records
how every simple reflection of its node set acts on it from the left, as
a table of indices that the enumerator's breadth-first pass fills on the
way; the covers, with a positive-root witness beta such that
w = u * s_beta, and the W_P-orbits are both read from that table.  The
covers are three parallel tuples of ints, `sources`, `targets` and
`witnesses` (root indices), sorted by (source, target): a cover is a
position in them, and no object is made per cover.  An orbit is the
sorted tuple of its member indices and nothing more: each reader holds
the quotient beside it.
`fixtures.Fixture` alone decides which quotients belong to the supported
family.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from operator import sub
from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple

from . import weyl
from .rootsys import RootSystem
from .weyl import Window


class CosetError(ValueError):
    """Invalid quotient or double-coset request."""


class ParabolicQuotient(NamedTuple):
    """A graded quotient with its left action and covers.  Its `elements`
    are the windows of its classes, sorted by (length, window), and every
    other field names a class by its position there.  It compares and
    hashes by identity, as its dict fields cannot be hashed.  The `index`
    field, the window index, shadows the `tuple.index` method, as
    `weyl.Enumeration.index` does."""

    rs: RootSystem
    nodes: FrozenSet[int]
    j_q: FrozenSet[int]
    elements: Tuple[Window, ...]
    #: cover c is sources[c] -> targets[c], w = u * s_beta for the positive
    #: root beta = rs.positive_roots[witnesses[c]]; sorted by (source, target)
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]
    witnesses: Tuple[int, ...]
    index: Dict[Window, int]
    #: left[k][i] is the index of s_k * w_i, or i when it lies in w_i W_J
    left: Dict[int, Tuple[int, ...]]
    #: lengths[i] is the length of w_i
    lengths: Tuple[int, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __repr__(self) -> str:
        return "ParabolicQuotient(%s%d, nodes=%s, J_Q=%s, %d elements)" % (
            self.rs.type_label,
            self.rs.rank,
            sorted(self.nodes),
            sorted(self.j_q),
            len(self.elements),
        )

    def top_degree(self) -> int:
        return self.lengths[-1]

    def rank_counts(self) -> Tuple[int, ...]:
        counts = [0] * (self.top_degree() + 1)
        for length in self.lengths:
            counts[length] += 1
        return tuple(counts)


@lru_cache(maxsize=None)
def reflection_by_index(rs: RootSystem, root_idx: int) -> Window:
    return weyl.reflection(rs, rs.positive_roots[root_idx])


@lru_cache(maxsize=None)
def root_index(rs: RootSystem) -> Dict[bytes, int]:
    """The index of each positive root, keyed by its encoded bytes, built
    once per root system for the witnesses of `build_quotient`."""
    d = rs.dim
    return {weyl.encode(beta, d): r for r, beta in enumerate(rs.positive_roots)}


@lru_cache(maxsize=None)
def build_quotient(
    rs: RootSystem, j_q: FrozenSet[int], nodes: Optional[FrozenSet[int]] = None
) -> ParabolicQuotient:
    """Graded quotient W_L / W_J with its left action, covers and root
    witnesses.

    The elements, their index and the left action come from the one
    breadth-first pass of `weyl.enumerate_group`: `left[k][i]` is the
    index of s_k*w_i, or i when s_k*w_i lies in w_i W_J (Deodhar's lemma,
    Bjorner-Brenti Lemma 2.4.3).  The covers follow from it by du Cloux's
    coatom recursion, which rests on the lifting property (Bjorner-Brenti
    Prop. 2.2.7): with s = s_k the first left descent of w, which the pass
    recorded, and p = s*w, the lower covers of w are p itself, with
    witness beta = p^-1(alpha_k) (so w = p*s_beta), and s*y for every
    lower cover y of p with s*y in W^Q one longer than y, with y's witness
    (s*y*s_beta = s*p = w).  These sources are distinct: left
    multiplication is injective, and s*y = p would make y = w.  Elements
    come in order of length, so p's covers are known before w's.  The
    witness p^-1(alpha_k) is p's window translated through the table of
    alpha_k, read from `weyl.generator_tables` as Deodhar's test reads it,
    and looked up in `root_index`, where a miss raises CosetError naming
    node k, the class p and the vector; the lengths are the pass's levels.

    The lower covers are kept flat, in order of target: those of w are
    positions start[w] to start[w+1] of the lists of sources and
    witnesses, so the recursion reads p's covers by position and makes no
    list or tuple per class or per cover.  One stable sort of the positions
    by source then orders the covers by (source, target).
    """
    if nodes is None:
        nodes = frozenset(rs.nodes)
    if not j_q <= nodes:
        raise CosetError("J_Q %s is not contained in the node set %s" % (sorted(j_q), sorted(nodes)))
    enumeration = weyl.enumerate_group(rs, nodes, j_q)
    elements = tuple(enumeration)
    left, descent, lengths = enumeration.left, enumeration.descent, enumeration.lengths
    tables, roots = weyl.generator_tables(rs), root_index(rs)
    sources, witnesses = [], []
    start = [0, 0]  # the identity has no lower cover
    for i in range(1, len(elements)):
        k = descent[i]
        row = left[k]
        p = row[i]
        sources.append(p)
        beta = elements[p].translate(tables[k].root_table)
        r = roots.get(beta)
        if r is None:
            raise CosetError(
                "witness %s of node %d at %s is not a positive root"
                % (weyl.window_str(beta), k, weyl.name(rs, elements[p]))
            )
        witnesses.append(r)
        # every lower cover y of p is one shorter than p, so s*y is one
        # longer than y when it is as long as p
        length = lengths[p]
        for c in range(start[p], start[p + 1]):
            sy = row[sources[c]]
            if lengths[sy] == length:
                sources.append(sy)
                witnesses.append(witnesses[c])
        start.append(len(sources))
    counts = map(sub, start[1:], start)
    targets = list(chain.from_iterable(map(repeat, range(len(elements)), counts)))
    order = sorted(range(len(sources)), key=sources.__getitem__)
    columns = (tuple(map(column.__getitem__, order)) for column in (sources, targets, witnesses))
    return ParabolicQuotient(rs, nodes, j_q, elements, *columns, enumeration.index, left, lengths)


def double_cosets(pq: ParabolicQuotient, j_p: Iterable[int]) -> Tuple[Tuple[int, ...], ...]:
    """Partition of the quotient into orbits of the left W_P action, i.e. the
    double cosets W_P \\ W / W_Q, by closing under the generators of W_P,
    read from the quotient's left-action rows.  Each orbit is the sorted
    tuple of its members' indices in `pq.elements`; its length extremes are
    certified unique, so its first member is its least, w_min, and its
    last its greatest, w_max."""
    j_p_set = frozenset(j_p)
    if not j_p_set <= pq.nodes:
        raise CosetError("J_P %s not contained in nodes %s" % (sorted(j_p_set), sorted(pq.nodes)))
    rows = [pq.left[p] for p in sorted(j_p_set)]
    elements, lengths = pq.elements, pq.lengths
    seen = [False] * len(elements)
    out = []
    # each class is found from its least member, and elements are sorted by
    # (length, window), so the classes come in the order of their w_min and
    # each lists its length extremes first and last
    for start in range(len(elements)):
        if seen[start]:
            continue
        seen[start] = True
        members, stack = [start], [start]
        while stack:
            k = stack.pop()
            for row in rows:
                m = row[k]
                if not seen[m]:
                    seen[m] = True
                    members.append(m)
                    stack.append(m)
        members.sort()
        lo, hi = members[0], members[-1]
        if len(members) > 1 and (
            lengths[members[1]] == lengths[lo] or lengths[members[-2]] == lengths[hi]
        ):
            raise CosetError(
                "double coset without unique length extremes: [%s]"
                % ", ".join(weyl.name(pq.rs, elements[k]) for k in members)
            )
        out.append(tuple(members))
    return tuple(out)


def certify_interval(pq: ParabolicQuotient, orbits: Sequence[Sequence[int]]) -> bool:
    """Check that each orbit s of `pq`, a sorted tuple of member indices,
    is the Bruhat interval [w_min, w_max] of its members, w_min and w_max
    its first and last member.

    Bruhat order on W^Q is graded by length and is the transitive closure
    of its covers (Bjorner-Brenti, Thm 2.5.5), so an interval is the
    up-set of w_min met with the down-set of w_max in the cover graph.
    Bit s of up[x] (down[x]) says x lies above coset s's w_min (below its
    w_max), and of want[x] that x is a member of coset s; one pass each
    way over the covers, sorted by source, fills up and down for every
    coset at once.  The covers and the orbits are both read from the
    quotient's left-action table, so this check is not independent of
    that table; `verify._check_chevalley_witnesses` is, as it rebuilds
    every cover of the fixture's quotient as a window product u * s_beta.
    """
    if not orbits:
        raise CosetError("no double coset to certify")
    up = [0] * len(pq.elements)
    down, want = up[:], up[:]
    for s, members in enumerate(orbits):
        bit = 1 << s
        up[members[0]] |= bit
        down[members[-1]] |= bit
        for k in members:
            want[k] |= bit
    for u, w in zip(pq.sources, pq.targets):
        up[w] |= up[u]
    for u, w in zip(reversed(pq.sources), reversed(pq.targets)):
        down[u] |= down[w]
    return all(u & d == x for u, d, x in zip(up, down, want))
