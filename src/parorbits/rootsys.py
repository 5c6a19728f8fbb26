"""Exact root-system data for the classical series A, B, C, D.

All vectors live in a fixed integer ambient lattice (Z^(n+1) for A_n,
Z^n otherwise) so that the Weyl group acts by signed coordinate
permutations.  Every vector and every result is `int`; no floats.

The fundamental coweights, the dual basis of the simple roots, are
half-integral at node n of C_n and the spin nodes of D_n, so they are
stored doubled as the integer vectors 2 omega_j^vee (<alpha_i, 2
omega_j^vee> = 2 delta_ij, checked on every build).  The simple-root
coordinates of a root are half its pairings with them: root heights and
coroot coordinates both come from that one pairing, and
`strata.delta` reads the stratum exponent off it the same way.
A root has at most two nonzero entries, so its pairings are read from
those entries against the columns of the doubled coweights, and one pass
over them halves and checks them, rebuilds the root and reads its height
and coroot coordinates (nonzero exactly on its support): O(rank) per
root.  Every certificate of the build raises RootSystemError naming the
root or node at fault, so none is stripped by `python -O`.

Realizations (Bourbaki node numbering throughout):

    A_n : alpha_i = e_i - e_(i+1)                       in Z^(n+1)
    B_n : alpha_i = e_i - e_(i+1), alpha_n = e_n        in Z^n
    C_n : alpha_i = e_i - e_(i+1), alpha_n = 2 e_n      in Z^n
    D_n : alpha_i = e_i - e_(i+1), alpha_n = e_(n-1)+e_n in Z^n
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

Vector = Tuple[int, ...]

TYPE_LABELS = ("A", "B", "C", "D")

#: minimal rank per type; below these bounds the Dynkin diagram degenerates
RANK_BOUNDS: Dict[str, int] = {"A": 1, "B": 2, "C": 2, "D": 4}


class RootSystemError(ValueError):
    """Invalid root-system request (bad type label or rank out of range)."""


def _unit(dim: int, k: int, value: int = 1) -> Vector:
    return tuple(value if t == k else 0 for t in range(dim))


def _div(a: int, b: int, root: Vector) -> int:
    q, r = divmod(a, b)
    if r:
        raise RootSystemError("inexact division %d / %d at root %s" % (a, b, root))
    return q


class RootSystem(NamedTuple):
    """Immutable exact data of one classical root system.

    Nodes are numbered 1..rank (Bourbaki).  `positive_roots` is sorted by
    height, then lexicographically, and that order is frozen: other modules
    index roots by position in this tuple.  Equality and hashing read the
    type and rank alone, not the tuple of fields.
    """

    type_label: str
    rank: int
    dim: int
    simple_roots: Tuple[Vector, ...]
    simple_coroots: Tuple[Vector, ...]
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    #: the fundamental coweights doubled, 2 omega_j^vee, as integer vectors
    double_coweights: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    #: expansion of each positive coroot over the simple coroots (integers)
    coroot_coords: Tuple[Tuple[int, ...], ...]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.type_label == other.type_label
            and self.rank == other.rank
        )

    def __ne__(self, other) -> bool:  # tuple.__ne__ would compare every field
        return not self == other

    def __hash__(self) -> int:
        return hash((self.type_label, self.rank))

    def __repr__(self) -> str:
        return "RootSystem(%s%d)" % (self.type_label, self.rank)

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def simple_root(self, i: int) -> Vector:
        return self.simple_roots[i - 1]

    def simple_coroot(self, i: int) -> Vector:
        return self.simple_coroots[i - 1]

    def double_coweight(self, i: int) -> Vector:
        return self.double_coweights[i - 1]


def _simple_roots(type_label: str, rank: int) -> Tuple[Vector, ...]:
    n = rank
    dim = n + 1 if type_label == "A" else n
    chain = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(dim))
        for i in range(dim - 1)
    ]
    if type_label == "A":
        return tuple(chain)
    if type_label == "B":
        last = _unit(n, n - 1, 1)
    elif type_label == "C":
        last = _unit(n, n - 1, 2)
    else:  # D
        last = tuple(1 if k >= n - 2 else 0 for k in range(n))
    return tuple(chain + [last])


def _coroot(root: Vector) -> Vector:
    norm = pair(root, root)
    return tuple(_div(2 * x, norm, root) for x in root)


def _positive_roots(type_label: str, dim: int) -> Iterable[Vector]:
    """Positive roots of the fixed classical realization, unsorted."""
    signs = (-1,) if type_label == "A" else (-1, 1)
    for i in range(dim):
        for j in range(i + 1, dim):
            for sj in signs:
                v = [0] * dim
                v[i], v[j] = 1, sj
                yield tuple(v)
    if type_label in ("B", "C"):
        for i in range(dim):
            yield _unit(dim, i, 1 if type_label == "B" else 2)


def check_rank(type_label: str, rank: int) -> None:
    """Raise unless the type label is classical and the rank within its bound."""
    if type_label not in TYPE_LABELS:
        raise RootSystemError(
            "unknown type label %r: expected one of A, B, C, D" % (type_label,)
        )
    bound = RANK_BOUNDS[type_label]
    if rank < bound:
        raise RootSystemError(
            "rank %d is below the bound for type %s (need rank >= %d)"
            % (rank, type_label, bound)
        )


@lru_cache(maxsize=None)
def build(type_label: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given classical type."""
    check_rank(type_label, rank)
    simple = _simple_roots(type_label, rank)
    dim = len(simple[0])
    coroots = tuple(_coroot(a) for a in simple)
    cartan = tuple(tuple(pair(a, c) for c in coroots) for a in simple)
    dcw = _double_coweights(type_label, rank, dim)
    # columns[k] holds coordinate k of every doubled coweight, and
    # entries[i] the nonzero entries (k, alpha_i[k]) of simple root i
    columns = tuple(zip(*dcw))
    entries = tuple(tuple((k, x) for k, x in enumerate(a) if x) for a in simple)
    norms = tuple(pair(a, a) for a in simple)
    found = []
    for beta in _positive_roots(type_label, dim):
        # the doubled pairings of beta, from its (at most two) nonzero entries
        twice = None
        for x, column in zip(beta, columns):
            if x:
                scaled = [x * c for c in column]
                twice = scaled if twice is None else [t + c for t, c in zip(twice, scaled)]
        # in one pass: halve them, check the signs, rebuild beta from the
        # simple roots, and read the height and the coroot coordinates, as
        # beta^vee = 2 beta / |beta|^2 = sum_i c_i (|alpha_i|^2 / |beta|^2) alpha_i^vee
        square = pair(beta, beta)
        height, rebuilt, coroot = 0, [0] * dim, []
        for t, alpha, norm in zip(twice, entries, norms):
            if t & 1:
                raise RootSystemError("root %s pairs oddly with a doubled coweight" % (beta,))
            if t < 0:
                raise RootSystemError("root %s has a negative simple coordinate" % (beta,))
            if t:
                c = t >> 1
                height += c
                for k, a in alpha:
                    rebuilt[k] += c * a
                coroot.append(_div(c * norm, square, beta))
            else:
                coroot.append(0)
        if tuple(rebuilt) != beta:
            raise RootSystemError("root %s is outside the span of the simple roots" % (beta,))
        found.append((height, beta, tuple(coroot)))
    found.sort()
    rs = RootSystem(
        type_label=type_label,
        rank=rank,
        dim=dim,
        simple_roots=simple,
        simple_coroots=coroots,
        cartan_matrix=cartan,
        double_coweights=dcw,
        positive_roots=tuple(r[1] for r in found),
        coroot_coords=tuple(r[2] for r in found),
    )
    _check_invariants(rs)
    return rs


def _double_coweights(type_label: str, rank: int, dim: int) -> Tuple[Vector, ...]:
    n = rank
    # omega_i^vee = e_1 + ... + e_i except at the spin nodes of D and node n
    # of C (entries +-1/2).  In type A this is an integer lift: pairings with
    # the (sum-zero) roots are unaffected by the central direction (1,...,1).
    chain = {"A": n, "B": n, "C": n - 1, "D": n - 2}[type_label]
    out = [tuple(2 if k < i else 0 for k in range(dim)) for i in range(1, chain + 1)]
    if type_label == "D":
        out.append((1,) * (n - 1) + (-1,))
    if type_label in ("C", "D"):
        out.append((1,) * n)
    return tuple(out)


def _check_invariants(rs: RootSystem) -> None:
    n = rs.rank
    for i in range(n):
        if rs.cartan_matrix[i][i] != 2:
            raise RootSystemError("Cartan diagonal broken at node %d" % (i + 1))
        for j in range(n):
            pairing = pair(rs.simple_roots[i], rs.double_coweights[j])
            if pairing != (2 if i == j else 0):
                raise RootSystemError(
                    "coweight pairing broken: <alpha_%d, 2 omega_%d^vee> = %d"
                    % (i + 1, j + 1, pairing)
                )
    expected = sum(d - 1 for d in degrees(rs.type_label, n))
    if len(rs.positive_roots) != expected:
        raise RootSystemError(
            "%r has %d positive roots, expected %d" % (rs, len(rs.positive_roots), expected)
        )


def degrees(type_label: str, rank: int) -> Iterable[int]:
    """Degrees of the basic invariants of W(X_n), lazily (Humphreys,
    Reflection Groups and Coxeter Groups, 3.7): |W| is their product,
    |Phi+| the sum of d - 1, and W's Poincare polynomial prod [d]_t."""
    if type_label == "A":
        return range(2, rank + 2)
    if type_label == "D":
        return chain(range(2, 2 * rank - 1, 2), (rank,))
    return range(2, 2 * rank + 1, 2)


def cominuscule_nodes(type_label: str, rank: int) -> FrozenSet[int]:
    """Nodes whose fundamental coweight pairs with every root in {-1,0,1}."""
    n = rank
    if type_label == "A":
        return frozenset(range(1, n + 1))
    if type_label == "B":
        return frozenset({1})
    if type_label == "C":
        return frozenset({n})
    return frozenset({1, n - 1, n})


def components(rs: RootSystem, nodes: Iterable[int]) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Connected components of a node set of the Dynkin diagram, ordered by
    least node, each as (type, nodes in Bourbaki order); the rank is the
    number of nodes.  Nodes outside 1..rank raise before any is read.

    A component is a maximal run of consecutive nodes, except that node n
    of D_n is joined to n-2 and not to n-1.  Only the component holding n
    can be of type B, C or D: the run a..n of B_n or C_n, rank 1 included,
    and a component of D_n holding n-2, n-1 and n, from rank 4; at rank 3
    it is A_3 in the order (n-1, n-2, n) (Bjorner-Brenti 8.1-8.2).
    """
    n, t = rs.rank, rs.type_label
    ordered = sorted(nodes)
    for k in ordered:
        if not 1 <= k <= n:
            raise RootSystemError("node %d out of range 1..%d" % (k, n))
    runs: List[List[int]] = []
    for k in ordered:
        neighbour = n - 2 if t == "D" and k == n else k - 1
        home = next((run for run in runs if neighbour in run), None)
        if home is None:
            runs.append([k])
        else:
            home.append(k)
    out = []
    for run in runs:
        kind = t if run[-1] == n and (t != "D" or n - 1 in run) else "A"
        if kind == "D" and len(run) == 3:
            kind, run = "A", [n - 1, n - 2, n]
        out.append((kind, tuple(run)))
    return tuple(out)


def pair(u: Sequence[int], v: Sequence[int]) -> int:
    """Natural pairing of two integer vectors of the ambient lattice, such
    as a root with a coroot or a doubled coweight."""
    if len(u) != len(v):
        raise RootSystemError(
            "dimension mismatch: %d-vector paired with %d-vector" % (len(u), len(v))
        )
    return sum(map(mul, u, v))
