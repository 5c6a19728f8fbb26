"""Classical Grassmannian fixtures: a quotient node plus an acting node.

A fixture names X = G/Q for a maximal parabolic Q = P_(q_node) together
with a cominuscule node p_node defining the acting parabolic P.  Fixture
labels follow the convention "<Type><rank>/P<q_node>+P<p_node>".

A quotient is enumerated without its Weyl group, yet |W| > `MAX_GROUP_ORDER` is refused:
the covers and the interval certificates have no measured budget past rank 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List

from . import rootsys
from .rootsys import RootSystem


class FixtureError(ValueError):
    """Fixture outside the supported classical families."""


#: Largest Weyl group a fixture may enumerate: |W(B6)| = |W(C6)| = 46,080.
#: It admits every fixture of rank <= 6 and A7 (|W| = 40,320); A8 and every
#: B, C, D of rank >= 7 are refused.
MAX_GROUP_ORDER = 46_080


def group_order(type_label: str, rank: int) -> int:
    """|W| = (n+1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n, as a product that
    stops once past `MAX_GROUP_ORDER` (then a lower bound): an absurd rank is refused at once."""
    n = rank
    if type_label == "A":
        factors = range(2, n + 2)
    else:  # 2k for k = 1..n (B, C) or k = 2..n (D)
        factors = range(4 if type_label == "D" else 2, 2 * n + 1, 2)
    order = 1
    for k in factors:
        order *= k
        if order > MAX_GROUP_ORDER:
            break
    return order


@dataclass(frozen=True)
class Fixture:
    type_label: str
    rank: int
    q_node: int
    p_node: int
    #: the root system, built once; not part of equality, hashing or repr
    rs: RootSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rootsys.check_rank(self.type_label, self.rank)
        if group_order(self.type_label, self.rank) > MAX_GROUP_ORDER:
            raise FixtureError(
                "%s%d: |W| exceeds the enumeration bound %d"
                % (self.type_label, self.rank, MAX_GROUP_ORDER)
            )
        rs = rootsys.build(self.type_label, self.rank)
        object.__setattr__(self, "rs", rs)
        n = rs.rank
        if not 1 <= self.q_node <= n:
            raise FixtureError("q_node %d out of range 1..%d" % (self.q_node, n))
        if rs.type_label == "D" and self.q_node == n - 1:
            raise FixtureError(
                "D_%d with q_node %d has Picard rank 2 -- excluded" % (n, n - 1)
            )
        if self.p_node not in rootsys.cominuscule_nodes(rs):
            raise FixtureError(
                "node %d is not cominuscule for %s_%d (allowed: %s)"
                % (
                    self.p_node,
                    self.type_label,
                    n,
                    sorted(rootsys.cominuscule_nodes(rs)),
                )
            )

    @property
    def j_q(self) -> FrozenSet[int]:
        return frozenset(self.rs.nodes) - {self.q_node}

    @property
    def j_p(self) -> FrozenSet[int]:
        return frozenset(self.rs.nodes) - {self.p_node}

    @property
    def label(self) -> str:
        return "%s%d/P%d+P%d" % (self.type_label, self.rank, self.q_node, self.p_node)

    @property
    def space_label(self) -> str:
        """Conventional name of X, e.g. IG(2,8) for C4/P2."""
        n, m = self.rank, self.q_node
        if self.type_label == "A":
            return "G(%d,%d)" % (m, n + 1)
        if self.type_label == "B":
            return "OG(%d,%d)" % (m, 2 * n + 1)
        if self.type_label == "C":
            return "IG(%d,%d)" % (m, 2 * n)
        return "OG(%d,%d)" % (m, 2 * n)

    def __str__(self) -> str:
        return self.label


def parse_fixture(text: str) -> Fixture:
    """Parse "C,4,2,4" or "C4/P2+P4" into a fixture."""
    text = text.strip()
    try:
        if "," in text:
            t, n, q, p = (part.strip() for part in text.split(","))
        else:
            head, tail = text.split("/")
            q, p = tail.split("+")
            t, n, q, p = head[0], head[1:], q[1:], p[1:]
        fields = t, int(n), int(q), int(p)
    except (ValueError, IndexError) as exc:
        raise FixtureError(
            "cannot parse fixture %r: expected TYPE,RANK,Q_NODE,P_NODE or e.g. C4/P2+P4" % text
        ) from exc
    return Fixture(*fields)


def sweep_fixtures(
    max_a: int = 5, max_b: int = 5, max_c: int = 5, max_d: int = 5
) -> List[Fixture]:
    """Every classical fixture (all maximal Q x all cominuscule P) up to caps."""
    out: List[Fixture] = []
    for n in range(1, max_a + 1):
        for q in range(1, n + 1):
            for p in range(1, n + 1):
                out.append(Fixture("A", n, q, p))
    for n in range(2, max_b + 1):
        for q in range(1, n + 1):
            out.append(Fixture("B", n, q, 1))
    for n in range(2, max_c + 1):
        for q in range(1, n + 1):
            out.append(Fixture("C", n, q, n))
    for n in range(4, max_d + 1):
        for q in [q for q in range(1, n + 1) if q != n - 1]:
            for p in (1, n - 1, n):
                out.append(Fixture("D", n, q, p))
    return out
