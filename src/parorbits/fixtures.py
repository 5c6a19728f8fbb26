"""Classical Grassmannian fixtures: a quotient node plus an acting node.

A fixture names X = G/Q for a maximal parabolic Q = P_(q_node) together
with a cominuscule node p_node defining the acting parabolic P.  Fixture
labels follow the convention "<Type><rank>/P<q_node>+P<p_node>".  The
family's Picard-rank-two exclusion, sweep and space names live only here.

Every set a fixture enumerates, X's quotient W^Q or a flag quotient inside
a stratum (a bijective image of part of W^Q), has at most |W^Q| elements,
so a fixture is refused by |W^Q| (`quotient_size`) and by its rank, before
its root system is built.
"""

from __future__ import annotations

from typing import List

from . import rootsys
from .rootsys import RANK_BOUNDS, TYPE_LABELS, RootSystem


class FixtureError(ValueError):
    """Fixture outside the supported classical families."""


#: Largest quotient W^Q a fixture may enumerate.  It admits every fixture of
#: rank <= 10 (the largest is C10/P7, 15,360 classes) and C11/P5.
MAX_QUOTIENT_SIZE = 16_384

#: Largest rank a fixture may have: the bound on |W^Q| alone would admit
#: C2000/P1, 4,000 classes, whose first read of the roots grows as rank^3.
MAX_RANK = 64

#: Default rank cap of each type in a sweep.
DEFAULT_MAX_RANK = 5


def quotient_size(type_label: str, rank: int, q_node: int) -> int:
    """|W^Q| for Q = P_(q_node), in closed form: C(n+1, m) in type A,
    2^(n-1) at the spin nodes m >= n-1 of D_n, and 2^m C(n, m) otherwise,
    with m = q_node.  It is a product stopped once past `MAX_QUOTIENT_SIZE`
    (then a lower bound), so that an absurd rank is refused at once."""
    n, m = rank, q_node
    if type_label == "A":
        top, doubling = n + 1, 0
    elif type_label == "D" and m >= n - 1:
        top, doubling, m = n, n - 1, 0
    else:
        top, doubling = n, m
    m = min(m, top - m)  # C(top, j) for j <= m doubles at least every step
    size = 1
    for j in range(1, m + 1):
        size = size * (top - m + j) // j
        if size > MAX_QUOTIENT_SIZE:
            return size
    for _ in range(doubling):
        size *= 2
        if size > MAX_QUOTIENT_SIZE:
            break
    return size


def _picard_rank_two(type_label: str, rank: int, q_node: int) -> bool:
    # G/P_(n-1) of D_n: the (n-1)-dimensional isotropic subspaces
    return type_label == "D" and q_node == rank - 1


def grassmannian_label(type_label: str, rank: int, node: int) -> str:
    """Conventional name of G/P_node, e.g. IG(2,8) for C4 and node 2; both
    spin nodes of D_n give OG(n,2n)."""
    n, m = rank, node
    if type_label == "A":
        return "G(%d,%d)" % (m, n + 1)
    if type_label == "B":
        return "OG(%d,%d)" % (m, 2 * n + 1)
    if type_label == "C":
        return "IG(%d,%d)" % (m, 2 * n)
    return "OG(%d,%d)" % (n if m == n - 1 else m, 2 * n)


class Fixture:
    """X = G/P_(q_node) under the acting node p_node, validated on every
    construction.  It compares, hashes and prints by its four fields; the
    root system `rs` and the node sets `j_q` and `j_p` are built once, at
    construction, and are left out of all three.  Immutable: `__setattr__`
    refuses every assignment."""

    __slots__ = ("type_label", "rank", "q_node", "p_node", "rs", "j_q", "j_p")

    def __init__(self, type_label: str, rank: int, q_node: int, p_node: int) -> None:
        rootsys.check_rank(type_label, rank)
        n = rank
        if n > MAX_RANK:
            raise FixtureError("%s%d: rank exceeds the bound %d" % (type_label, n, MAX_RANK))
        if not 1 <= q_node <= n:
            raise FixtureError("q_node %d out of range 1..%d" % (q_node, n))
        if _picard_rank_two(type_label, n, q_node):
            raise FixtureError("D_%d with q_node %d has Picard rank 2 -- excluded" % (n, n - 1))
        if quotient_size(type_label, n, q_node) > MAX_QUOTIENT_SIZE:
            raise FixtureError(
                "%s%d/P%d: |W^Q| exceeds the enumeration bound %d"
                % (type_label, n, q_node, MAX_QUOTIENT_SIZE)
            )
        allowed = rootsys.cominuscule_nodes(type_label, n)
        if p_node not in allowed:
            raise FixtureError(
                "node %d is not cominuscule for %s_%d (allowed: %s)"
                % (p_node, type_label, n, sorted(allowed))
            )
        rs = rootsys.build(type_label, rank)
        nodes = frozenset(rs.nodes)
        # in the order of __slots__
        values = (type_label, rank, q_node, p_node, rs, nodes - {q_node}, nodes - {p_node})
        for name, value in zip(Fixture.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Fixture is immutable: cannot assign %r" % name)

    def __delattr__(self, name):
        raise AttributeError("Fixture is immutable: cannot delete %r" % name)

    def _key(self):
        return (self.type_label, self.rank, self.q_node, self.p_node)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Fixture(type_label=%r, rank=%r, q_node=%r, p_node=%r)" % self._key()

    @property
    def label(self) -> str:
        return "%s%d/P%d+P%d" % (self.type_label, self.rank, self.q_node, self.p_node)

    @property
    def space_label(self) -> str:
        """Conventional name of X, e.g. IG(2,8) for C4/P2."""
        return grassmannian_label(self.type_label, self.rank, self.q_node)

    def __str__(self) -> str:
        return self.label


def decimal(text: str) -> int:
    """The int that `text` writes in ASCII decimal digits alone, for the
    numeric fields of a label and the CLI's numeric flags: int() would
    also take a sign, spaces, underscores and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("not ASCII decimal digits: %r" % text)
    return int(text)


def parse_fixture(text: str) -> Fixture:
    """Parse "C,4,2,4" or "C4/P2+P4" into a fixture."""
    text = text.strip()
    try:
        if "," in text:
            t, n, q, p = (part.strip() for part in text.split(","))
        else:
            head, tail = text.split("/")
            q, p = tail.split("+")
            if q[:1] != "P" or p[:1] != "P":
                raise ValueError("node fields must start with P")
            t, n, q, p = head[0], head[1:], q[1:], p[1:]
        fields = t, decimal(n), decimal(q), decimal(p)
    except (ValueError, IndexError) as exc:
        raise FixtureError(
            "cannot parse fixture %r: expected TYPE,RANK,Q_NODE,P_NODE or e.g. C4/P2+P4" % text
        ) from exc
    return Fixture(*fields)


def sweep_fixtures(
    max_a: int = DEFAULT_MAX_RANK,
    max_b: int = DEFAULT_MAX_RANK,
    max_c: int = DEFAULT_MAX_RANK,
    max_d: int = DEFAULT_MAX_RANK,
) -> List[Fixture]:
    """Every classical fixture (all maximal Q x all cominuscule P) up to caps;
    caps that admit none are refused, as an empty sweep is not a pass.

    The order is (type, rank, q_node, p_node): types in `TYPE_LABELS` order,
    the rest ascending, so each root system's fixtures are contiguous."""
    caps = dict(zip(TYPE_LABELS, (max_a, max_b, max_c, max_d)))
    fixtures = [
        Fixture(t, n, q, p)
        for t in TYPE_LABELS
        for n in range(RANK_BOUNDS[t], caps[t] + 1)
        for q in range(1, n + 1)
        if not _picard_rank_two(t, n, q)
        for p in sorted(rootsys.cominuscule_nodes(t, n))
    ]
    if not fixtures:
        raise FixtureError("empty sweep: the rank caps admit no fixture")
    return fixtures
