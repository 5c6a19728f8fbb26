"""Exact root-system data for the classical series A, B, C, D.

All vectors live in a fixed integer ambient lattice (Z^(n+1) for A_n,
Z^n otherwise) so that the Weyl group acts by signed coordinate
permutations.  Every quantity is exact: integers or `fractions.Fraction`,
never floats.

Realizations (Bourbaki node numbering throughout):

    A_n : alpha_i = e_i - e_(i+1)                       in Z^(n+1)
    B_n : alpha_i = e_i - e_(i+1), alpha_n = e_n        in Z^n
    C_n : alpha_i = e_i - e_(i+1), alpha_n = 2 e_n      in Z^n
    D_n : alpha_i = e_i - e_(i+1), alpha_n = e_(n-1)+e_n in Z^n
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]

TYPE_LABELS = ("A", "B", "C", "D")

#: minimal rank per type; below these bounds the Dynkin diagram degenerates
RANK_BOUNDS: Dict[str, int] = {"A": 1, "B": 2, "C": 2, "D": 4}


class RootSystemError(ValueError):
    """Invalid root-system request (bad type label or rank out of range)."""


def _vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise RootSystemError(
            "dimension mismatch: %d-vector paired with %d-vector" % (len(u), len(v))
        )
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _basis_vector(dim: int, k: int, value=1) -> Vector:
    v = [Fraction(0)] * dim
    v[k] = Fraction(value)
    return tuple(v)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable exact data of one classical root system.

    Nodes are numbered 1..rank (Bourbaki).  `positive_roots` is sorted by
    height, then lexicographically, and that order is frozen: other modules
    index roots by position in this tuple.
    """

    type_label: str
    rank: int
    dim: int
    simple_roots: Tuple[Vector, ...]
    simple_coroots: Tuple[Vector, ...]
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    fundamental_coweights: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    positive_coroots: Tuple[Vector, ...]
    #: expansion of each positive root over the simple roots (integers)
    root_coords: Tuple[Tuple[int, ...], ...]
    #: expansion of each positive coroot over the simple coroots (integers)
    coroot_coords: Tuple[Tuple[int, ...], ...]
    #: simple-root support of each positive root, as a frozenset of nodes
    root_support: Tuple[FrozenSet[int], ...]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.type_label == other.type_label
            and self.rank == other.rank
        )

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

    def fundamental_coweight(self, i: int) -> Vector:
        return self.fundamental_coweights[i - 1]

    def positive_roots_of(self, nodes: FrozenSet[int]) -> Tuple[int, ...]:
        """Indices of positive roots supported inside a node subset."""
        return tuple(
            k for k, supp in enumerate(self.root_support) if supp <= nodes
        )

    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        """Dynkin-diagram adjacency from the Cartan matrix."""
        adj = {}
        for i in self.nodes:
            adj[i] = frozenset(
                j
                for j in self.nodes
                if j != i and self.cartan_matrix[i - 1][j - 1] != 0
            )
        return adj


def _simple_roots(type_label: str, rank: int) -> Tuple[Vector, ...]:
    n = rank
    if type_label == "A":
        dim = n + 1
        return tuple(
            tuple(
                Fraction(1) if k == i else Fraction(-1) if k == i + 1 else Fraction(0)
                for k in range(dim)
            )
            for i in range(n)
        )
    chain = [
        tuple(
            Fraction(1) if k == i else Fraction(-1) if k == i + 1 else Fraction(0)
            for k in range(n)
        )
        for i in range(n - 1)
    ]
    if type_label == "B":
        last = _basis_vector(n, n - 1, 1)
    elif type_label == "C":
        last = _basis_vector(n, n - 1, 2)
    else:  # D
        v = [Fraction(0)] * n
        v[n - 2] = Fraction(1)
        v[n - 1] = Fraction(1)
        last = tuple(v)
    return tuple(chain + [last])


def _coroot(root: Vector) -> Vector:
    norm = _dot(root, root)
    return tuple(2 * x / norm for x in root)


def _positive_roots(
    type_label: str, rank: int, simple: Tuple[Vector, ...]
) -> Tuple[Vector, ...]:
    """Positive roots of the fixed classical realization, sorted by height."""
    n = rank
    roots = []
    if type_label == "A":
        dim = n + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                v = [Fraction(0)] * dim
                v[i], v[j] = Fraction(1), Fraction(-1)
                roots.append(tuple(v))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for sj in (-1, 1):
                    v = [Fraction(0)] * n
                    v[i], v[j] = Fraction(1), Fraction(sj)
                    roots.append(tuple(v))
        if type_label == "B":
            roots.extend(_basis_vector(n, i, 1) for i in range(n))
        elif type_label == "C":
            roots.extend(_basis_vector(n, i, 2) for i in range(n))

    def height_key(v: Vector):
        coords = solve_in_basis(simple, v)
        assert coords is not None and all(c >= 0 for c in coords)
        return (sum(coords), v)

    return tuple(sorted(roots, key=height_key))


def solve_in_basis(
    basis: Sequence[Vector], target: Sequence[Fraction]
) -> Optional[Tuple[Fraction, ...]]:
    """Exact coordinates of `target` over `basis`, or None if outside the span.

    Plain fraction-exact Gaussian elimination on the augmented system; the
    basis vectors may live in a higher-dimensional ambient space (type A).
    """
    m = len(basis)
    dim = len(target)
    rows = [[Fraction(basis[j][r]) for j in range(m)] + [Fraction(target[r])] for r in range(dim)]
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((k for k in range(r, dim) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(dim):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    # consistency: rows below the pivot block must have zero RHS
    for k in range(r, dim):
        if rows[k][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for row_idx, c in enumerate(pivots):
        sol[c] = rows[row_idx][m]
    return tuple(sol)


@lru_cache(maxsize=None)
def build(type_label: str, rank: int) -> RootSystem:
    """Construct (and cache) the root system of the given classical type."""
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
    simple = _simple_roots(type_label, rank)
    dim = rank + 1 if type_label == "A" else rank
    coroots = tuple(_coroot(a) for a in simple)
    cartan = tuple(
        tuple(int(_dot(simple[i], coroots[j])) for j in range(rank))
        for i in range(rank)
    )
    positive = _positive_roots(type_label, rank, simple)
    pos_coroots = tuple(_coroot(b) for b in positive)

    root_coords = []
    for beta in positive:
        coords = solve_in_basis(simple, beta)
        assert coords is not None and all(c.denominator == 1 for c in coords)
        root_coords.append(tuple(int(c) for c in coords))
    coroot_coords = []
    for betav in pos_coroots:
        coords = solve_in_basis(coroots, betav)
        assert coords is not None and all(c.denominator == 1 for c in coords)
        coroot_coords.append(tuple(int(c) for c in coords))
    support = tuple(
        frozenset(i + 1 for i, c in enumerate(cs) if c != 0) for cs in root_coords
    )

    fcw = _fundamental_coweights(type_label, rank, dim)
    rs = RootSystem(
        type_label=type_label,
        rank=rank,
        dim=dim,
        simple_roots=simple,
        simple_coroots=coroots,
        cartan_matrix=cartan,
        fundamental_coweights=fcw,
        positive_roots=positive,
        positive_coroots=pos_coroots,
        root_coords=tuple(root_coords),
        coroot_coords=tuple(coroot_coords),
        root_support=support,
    )
    _check_invariants(rs)
    return rs


def _fundamental_coweights(type_label: str, rank: int, dim: int) -> Tuple[Vector, ...]:
    n = rank
    out = []
    if type_label == "A":
        # integer lift e_1+...+e_i; pairings with the (sum-zero) roots are
        # unaffected by the central direction (1,...,1)
        for i in range(1, n + 1):
            out.append(_vec([1] * i + [0] * (dim - i)))
    elif type_label == "B":
        for i in range(1, n + 1):
            out.append(_vec([1] * i + [0] * (n - i)))
    elif type_label == "C":
        for i in range(1, n):
            out.append(_vec([1] * i + [0] * (n - i)))
        out.append(tuple(Fraction(1, 2) for _ in range(n)))
    else:  # D
        for i in range(1, n - 1):
            out.append(_vec([1] * i + [0] * (n - i)))
        out.append(tuple([Fraction(1, 2)] * (n - 1) + [Fraction(-1, 2)]))
        out.append(tuple(Fraction(1, 2) for _ in range(n)))
    return tuple(out)


def _check_invariants(rs: RootSystem) -> None:
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.cartan_matrix[i][i] == 2
            pairing = _dot(rs.simple_roots[i], rs.fundamental_coweights[j])
            assert pairing == (1 if i == j else 0), "coweight pairing broken"
    expected = {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
    }[rs.type_label]
    assert len(rs.positive_roots) == expected


def cominuscule_nodes(rs: RootSystem) -> FrozenSet[int]:
    """Nodes whose fundamental coweight pairs with every root in {-1,0,1}."""
    n = rs.rank
    if rs.type_label == "A":
        return frozenset(range(1, n + 1))
    if rs.type_label == "B":
        return frozenset({1})
    if rs.type_label == "C":
        return frozenset({n})
    return frozenset({1, n - 1, n})


def pair(root: Sequence[Fraction], coweight: Sequence[Fraction]) -> Fraction:
    """Natural pairing of a root (weight vector) with a coweight."""
    return _dot(tuple(Fraction(x) for x in root), tuple(Fraction(x) for x in coweight))


def coroot_coordinates(rs: RootSystem, v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Exact expansion of a coweight over the simple coroots.

    Raises if the vector is outside the rational span of the coroots
    (possible in type A, whose coroot span is the sum-zero sublattice).
    """
    coords = solve_in_basis(rs.simple_coroots, tuple(Fraction(x) for x in v))
    if coords is None:
        raise RootSystemError("vector is not in the span of the coroots")
    return coords


def eta(rs: RootSystem, v: Sequence[Fraction], j: int) -> Fraction:
    """Coefficient of the j-th simple coroot in the expansion of `v`.

    This is the image of `v` under the projection to the coroot lattice
    modulo the coroots of the maximal parabolic omitting node j.
    """
    if not 1 <= j <= rs.rank:
        raise RootSystemError("node %d out of range 1..%d" % (j, rs.rank))
    return coroot_coordinates(rs, v)[j - 1]
