"""Exact root-system data for the classical series A, B, C, D.

All vectors live in a fixed integer ambient lattice (Z^(n+1) for A_n,
Z^n otherwise) so that the Weyl group acts by signed coordinate
permutations.  Every vector and every result is `int`; no floats.

The fundamental coweights, the dual basis of the simple roots, are
half-integral at node n of C_n and the spin nodes of D_n, so they are
stored doubled as the integer vectors 2 omega_j^vee.  The simple-root
coordinates of a root are half its pairings with them, and
`strata.delta` reads the stratum exponent off that pairing the same way.

`build` sets and certifies the simple data that every Weyl-group routine
reads: the simple roots, their coroots and the doubled coweights.  The
Cartan diagonal <alpha_i, alpha_i^vee> = 2 and the duality
<alpha_i, 2 omega_j^vee> = 2 delta_ij are read from each simple root's
one or two nonzero entries against the columns of the coroots and of the
doubled coweights, and in type A each simple root must sum to 0, so the
build is O(rank^2).  The positive roots and their coroot coordinates
are filled once, when either is first read, by one pass over their closed
forms (Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IV; e_i
and e_j with i < j, nodes numbered from 1, runs of coordinates written
x^m):

    root              simple coordinates c          coroot coordinates d
    e_i - e_j         0^(i-1) 1^(j-i) 0^(n+1-j)     c             (all)
    e_i + e_j   (B)   0^(i-1) 1^(j-i) 2^(n+1-j)     0^(i-1) 1^(j-i) 2^(n-j) 1
    e_i         (B)   0^(i-1) 1^(n+1-i)             0^(i-1) 2^(n-i) 1
    e_i + e_j   (C)   0^(i-1) 1^(j-i) 2^(n-j) 1     0^(i-1) 1^(j-i) 2^(n+1-j)
    2 e_i       (C)   0^(i-1) 2^(n-i) 1             0^(i-1) 1^(n+1-i)
    e_i + e_n   (D)   0^(i-1) 1^(n-1-i) 0 1         c
    e_i + e_j   (D)   0^(i-1) 1^(j-i) 2^(n-1-j) 1 1 c             (j < n)

The pass certifies each root beta: its doubled pairings, read from its
nonzero entries against the coweight columns, are 2c, and c >= 0; in type
A its entries sum to 0; and d |beta|^2 = c |alpha_k|^2 entry by entry.
Given the duality, the pairings and the span (all of Z^n in B, C and D,
the sum-zero hyperplane in A) prove beta = sum_k c_k alpha_k, and the
norms prove d the coordinates of beta^vee = 2 beta / |beta|^2 over the
simple coroots.  Then the roots are sorted by (height, beta) and must be
distinct and number sum(d - 1) over the degrees of W.  Every certificate
raises RootSystemError naming the root or simple root at fault, so none
is stripped by `python -O`.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

Vector = Tuple[int, ...]
#: the nonzero entries (coordinate, value) of a vector, coordinates from 0
Entries = Tuple[Tuple[int, int], ...]

TYPE_LABELS = ("A", "B", "C", "D")

#: minimal rank per type; below these bounds the Dynkin diagram degenerates
RANK_BOUNDS: Dict[str, int] = {"A": 1, "B": 2, "C": 2, "D": 4}

#: the fields that `RootSystem` fills on their first read
_ROOT_FIELDS = ("positive_roots", "coroot_coords")


class RootSystemError(ValueError):
    """Invalid root-system request (bad type label or rank out of range)."""


class RootSystem:
    """Immutable exact data of one classical root system.

    Nodes are numbered 1..rank (Bourbaki).  The simple data, set at
    construction, is the simple roots, their coroots and
    `double_coweights`, the fundamental coweights doubled, 2 omega_j^vee,
    as integer vectors.  `positive_roots` and `coroot_coords`, the
    expansion of each positive coroot over the simple coroots, are filled
    together, certified, when either is first read, and are plain slot
    reads after that.  `positive_roots` is sorted by height, then
    lexicographically, and that order is frozen: other modules index roots
    by position in this tuple.  Equality and hashing read the type and
    rank alone.  Assignment and deletion raise AttributeError.
    """

    __slots__ = (
        "type_label",
        "rank",
        "dim",
        "simple_roots",
        "simple_coroots",
        "double_coweights",
    ) + _ROOT_FIELDS

    def __init__(
        self,
        type_label: str,
        rank: int,
        dim: int,
        simple_roots: Tuple[Vector, ...],
        simple_coroots: Tuple[Vector, ...],
        double_coweights: Tuple[Vector, ...],
    ) -> None:
        values = (type_label, rank, dim, simple_roots, simple_coroots, double_coweights)
        for name, value in zip(RootSystem.__slots__, values):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # reached only when the slot lookup fails: a root field not filled yet
        if name not in _ROOT_FIELDS:
            raise AttributeError("%r has no attribute %r" % (self, name))
        filled = _certified_roots(self)
        for field, value in zip(_ROOT_FIELDS, filled):
            object.__setattr__(self, field, value)
        return filled[_ROOT_FIELDS.index(name)]

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable: cannot assign %r" % name)

    def __delattr__(self, name):
        raise AttributeError("RootSystem is immutable: cannot delete %r" % name)

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

    def double_coweight(self, i: int) -> Vector:
        return self.double_coweights[i - 1]


def _vector(entries: Entries, dim: int) -> Vector:
    """The vector of dimension `dim` with the given nonzero entries."""
    v = [0] * dim
    for k, x in entries:
        v[k] = x
    return tuple(v)


def _pairings(entries: Entries, columns: Sequence[Sequence[int]]) -> List[int]:
    """The pairing of the vector with the given one or two nonzero entries
    with every vector u_j, where columns[k] holds coordinate k of every u_j."""
    if len(entries) == 1:
        ((k, x),) = entries
        return [x * u for u in columns[k]]
    (k, x), (m, y) = entries
    return [x * u + y * v for u, v in zip(columns[k], columns[m])]


def _simple_entries(type_label: str, rank: int) -> Tuple[Entries, ...]:
    """The nonzero entries of each simple root, in node order."""
    n = rank
    dim = n + 1 if type_label == "A" else n
    out = [((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if type_label == "B":
        out.append(((n - 1, 1),))
    elif type_label == "C":
        out.append(((n - 1, 2),))
    elif type_label == "D":
        out.append(((n - 2, 1), (n - 1, 1)))
    return tuple(out)


def _closed_forms(type_label: str, rank: int) -> Iterator[Tuple[Entries, List[int], List[int]]]:
    """Each positive root as (its nonzero entries, its simple coordinates
    c, its coroot coordinates d), unsorted, from the table of the module
    docstring; coordinates and nodes counted from 0 here."""
    n = rank
    dim = n + 1 if type_label == "A" else n
    for i in range(dim):
        for j in range(i + 1, dim):
            c = [0] * i + [1] * (j - i) + [0] * (n - j)
            yield ((i, 1), (j, -1)), c, c
    if type_label == "A":
        return
    for i in range(n):
        for j in range(i + 1, n):
            head = [0] * i + [1] * (j - i)
            if type_label == "B":
                yield ((i, 1), (j, 1)), head + [2] * (n - j), head + [2] * (n - 1 - j) + [1]
            elif type_label == "C":
                yield ((i, 1), (j, 1)), head + [2] * (n - 1 - j) + [1], head + [2] * (n - j)
            else:
                c = head[:-1] + [0, 1] if j == n - 1 else head + [2] * (n - 2 - j) + [1, 1]
                yield ((i, 1), (j, 1)), c, c
        if type_label == "B":
            yield ((i, 1),), [0] * i + [1] * (n - i), [0] * i + [2] * (n - 1 - i) + [1]
        elif type_label == "C":
            yield ((i, 2),), [0] * i + [2] * (n - 1 - i) + [1], [0] * i + [1] * (n - i)


def _certified_roots(rs: RootSystem) -> Tuple[Tuple[Vector, ...], Tuple[Tuple[int, ...], ...]]:
    """The positive roots of `rs`, sorted by (height, root), and the
    coroot coordinates of each, from `_closed_forms`, every root certified
    as the module docstring sets out."""
    columns = tuple(zip(*rs.double_coweights))
    norms = [pair(a, a) for a in rs.simple_roots]
    sum_zero = rs.type_label == "A"
    found = []
    for entries, c, d in _closed_forms(rs.type_label, rs.rank):
        beta = _vector(entries, rs.dim)
        twice = _pairings(entries, columns)
        if twice != [t + t for t in c]:
            raise RootSystemError(
                "root %s pairs with the doubled coweights as %s, not as twice its simple "
                "coordinates %s" % (beta, twice, c)
            )
        if min(c) < 0:
            raise RootSystemError("root %s has a negative simple coordinate" % (beta,))
        if sum_zero and sum(x for _, x in entries):
            raise RootSystemError("root %s is outside the span of the simple roots" % (beta,))
        square = sum(x * x for _, x in entries)
        if [t * square for t in d] != list(map(mul, c, norms)):
            raise RootSystemError("root %s has wrong coroot coordinates %s" % (beta, d))
        found.append((sum(c), beta, tuple(d)))
    found.sort()
    roots = tuple(r[1] for r in found)
    expected = sum(d - 1 for d in degrees(rs.type_label, rs.rank))
    if len(roots) != expected:
        raise RootSystemError("%r has %d positive roots, expected %d" % (rs, len(roots), expected))
    if len(set(roots)) != expected:
        raise RootSystemError("%r lists a positive root twice" % (rs,))
    return roots, tuple(r[2] for r in found)


def _div(a: int, b: int, root: Vector) -> int:
    q, r = divmod(a, b)
    if r:
        raise RootSystemError("inexact division %d / %d at root %s" % (a, b, root))
    return q


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
    """Construct (and cache) the root system of the given classical type,
    its simple data certified; the roots are certified when first read."""
    check_rank(type_label, rank)
    entries = _simple_entries(type_label, rank)
    dim = rank + 1 if type_label == "A" else rank
    simple = tuple(_vector(e, dim) for e in entries)
    norms = [sum(x * x for _, x in e) for e in entries]
    coroots = tuple(
        _vector(tuple((k, _div(2 * x, norm, alpha)) for k, x in e), dim)
        for e, norm, alpha in zip(entries, norms, simple)
    )
    coroot_columns = tuple(zip(*coroots))
    dcw = _double_coweights(type_label, rank, dim)
    columns = tuple(zip(*dcw))
    for i, e in enumerate(entries):
        if _pairings(e, coroot_columns)[i] != 2:  # row i of the Cartan matrix
            raise RootSystemError("Cartan diagonal broken at simple root alpha_%d" % (i + 1))
        if type_label == "A" and sum(x for _, x in e):
            raise RootSystemError(
                "simple root alpha_%d = %s does not sum to 0" % (i + 1, simple[i])
            )
        twice = _pairings(e, columns)
        dual = [0] * rank
        dual[i] = 2
        if twice != dual:
            j = next(j for j, (t, u) in enumerate(zip(twice, dual)) if t != u)
            raise RootSystemError(
                "coweight pairing broken: simple root <alpha_%d, 2 omega_%d^vee> = %d"
                % (i + 1, j + 1, twice[j])
            )
    return RootSystem(type_label, rank, dim, simple, coroots, dcw)


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
    run_of: Dict[int, List[int]] = {}  # each node read so far -> its run
    for k in ordered:
        neighbour = n - 2 if t == "D" and k == n else k - 1
        run = run_of.get(neighbour)
        if run is None:
            run = []
            runs.append(run)
        run.append(k)
        run_of[k] = run
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
