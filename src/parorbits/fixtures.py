"""Classical Grassmannian fixtures: a quotient node plus an acting node.

A fixture names X = G/Q for a maximal parabolic Q = P_(q_node) together
with a cominuscule node p_node defining the acting parabolic P.  Fixture
labels follow the convention "<Type><rank>/P<q_node>+P<p_node>".  The
family's Picard-rank-two exclusion, sweep and space names live only here.

A quotient is enumerated without its Weyl group, yet |W| > `MAX_GROUP_ORDER` is refused:
the covers and the interval certificates have no measured budget past rank 6.
"""

from __future__ import annotations

from typing import List

from . import rootsys
from .rootsys import RANK_BOUNDS, TYPE_LABELS, RootSystem


class FixtureError(ValueError):
    """Fixture outside the supported classical families."""


#: Largest Weyl group a fixture may enumerate: |W(B6)| = |W(C6)| = 46,080.
#: It admits every fixture of rank <= 6 and A7 (|W| = 40,320); A8 and every
#: B, C, D of rank >= 7 are refused.
MAX_GROUP_ORDER = 46_080

#: Default rank cap of each type in a sweep.
DEFAULT_MAX_RANK = 5


def group_order(type_label: str, rank: int) -> int:
    """|W|, the product of `rootsys.degrees`, stopped once past `MAX_GROUP_ORDER`
    (then a lower bound): an absurd rank is refused at once."""
    order = 1
    for k in rootsys.degrees(type_label, rank):
        order *= k
        if order > MAX_GROUP_ORDER:
            break
    return order


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
        if group_order(type_label, rank) > MAX_GROUP_ORDER:
            raise FixtureError(
                "%s%d: |W| exceeds the enumeration bound %d" % (type_label, rank, MAX_GROUP_ORDER)
            )
        rs = rootsys.build(type_label, rank)
        n = rank
        if not 1 <= q_node <= n:
            raise FixtureError("q_node %d out of range 1..%d" % (q_node, n))
        if _picard_rank_two(type_label, n, q_node):
            raise FixtureError("D_%d with q_node %d has Picard rank 2 -- excluded" % (n, n - 1))
        allowed = rootsys.cominuscule_nodes(type_label, n)
        if p_node not in allowed:
            raise FixtureError(
                "node %d is not cominuscule for %s_%d (allowed: %s)"
                % (p_node, type_label, n, sorted(allowed))
            )
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
