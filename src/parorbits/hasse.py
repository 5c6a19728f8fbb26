"""Hasse diagrams: multiplication by a dominant divisor class.

The diagram of a quotient W^Q under a weight lambda (non-negative integer
coefficients on fundamental weights supported away from Delta(Q)) has an
edge u -> u*s_beta of multiplicity <lambda, beta^vee> for every cover with
positive-root witness beta and positive pairing.  The same rule runs
unchanged inside a Levi subsystem, where <omega_t, beta^vee> is read off
the coefficient of the t-th simple coroot in beta^vee.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Tuple

from .cosets import ParabolicQuotient


class HasseError(ValueError):
    """Invalid weight for the requested quotient."""


class Edge(NamedTuple):
    u: int
    w: int
    mult: int
    root: int  # witness index into rs.positive_roots


Weight = Tuple[Tuple[int, int], ...]  # sorted ((node, coefficient), ...)


def normalize_weight(weight: Mapping[int, int] | Iterable[Tuple[int, int]]) -> Weight:
    out = tuple(sorted((int(n), int(c)) for n, c in dict(weight).items() if c))
    if any(c < 0 for _, c in out):
        raise HasseError("weight coefficients must be non-negative")
    return out


class HasseDiagram(NamedTuple):
    """The edges of one weight on one quotient; compares and hashes by
    identity, as the quotient does."""

    quotient: ParabolicQuotient
    weight: Weight
    edges: Tuple[Edge, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _validate_weight(pq: ParabolicQuotient, weight: Weight) -> None:
    support = {n for n, _ in weight}
    if not support:
        raise HasseError("weight has empty support")
    if not support <= pq.nodes:
        raise HasseError(
            "weight support %s outside the node set %s" % (sorted(support), sorted(pq.nodes))
        )
    inside = support & pq.j_q
    if inside:
        raise HasseError(
            "weight supported on Delta(Q) nodes %s: the class vanishes on the quotient"
            % sorted(inside)
        )


def pairing_with_coroot(pq: ParabolicQuotient, weight: Weight, root_idx: int) -> int:
    """<lambda, beta^vee> as a sum of simple-coroot coefficients, for one
    root: the path that `verify` checks `build_hasse` against."""
    coords = pq.rs.coroot_coords[root_idx]
    return sum(c * coords[n - 1] for n, c in weight)


def build_hasse(pq: ParabolicQuotient, weight: Mapping[int, int] | Weight) -> HasseDiagram:
    """The diagram of `weight` on `pq`.  The multiplicities of all positive
    roots are summed one node of the weight at a time, each adding that
    node's column of the coroot coordinates.  The edges keep the order of
    `pq.covers`, which is sorted by (u, w) with one witness per pair."""
    wt = normalize_weight(weight)
    _validate_weight(pq, wt)
    coords = pq.rs.coroot_coords
    mults = [0] * len(coords)
    for n, c in wt:
        mults = [m + c * x[n - 1] for m, x in zip(mults, coords)]
    # made as `Edge._make` makes them, without the NamedTuple's Python-level __new__
    new = tuple.__new__
    edges = [new(Edge, (u, w, mults[r], r)) for u, w, r in pq.covers if mults[r] > 0]
    return HasseDiagram(pq, wt, tuple(edges))
