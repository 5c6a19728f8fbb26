"""Hasse diagrams: multiplication by a dominant divisor class.

The diagram of a quotient W^Q under a weight lambda (positive integer
coefficients on fundamental weights, on exactly the nodes outside
Delta(Q)) has an edge u -> u*s_beta of multiplicity <lambda, beta^vee> for
every cover with positive-root witness beta.  A diagram is therefore one
multiplicity per positive root, and its edges are the quotient's own
covers, each read with the multiplicity of its witness.  The same rule
runs unchanged inside a Levi subsystem, where <omega_t, beta^vee> is read
off the coefficient of the t-th simple coroot in beta^vee.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Tuple

from . import weyl
from .cosets import ParabolicQuotient


class HasseError(ValueError):
    """Invalid weight for the requested quotient."""


Weight = Tuple[Tuple[int, int], ...]  # sorted ((node, coefficient), ...)


def normalize_weight(weight: Mapping[int, int] | Iterable[Tuple[int, int]]) -> Weight:
    out = tuple(sorted((int(n), int(c)) for n, c in dict(weight).items() if c))
    if any(c < 0 for _, c in out):
        raise HasseError("weight coefficients must be non-negative")
    return out


class HasseDiagram(NamedTuple):
    """One weight on one quotient: its edges are the covers (u, w, r) of
    `quotient`, each of multiplicity mult[r].  It compares and hashes by
    identity, as the quotient does."""

    quotient: ParabolicQuotient
    weight: Weight
    #: mult[r] is <lambda, beta_r^vee> for each positive root beta_r
    mult: Tuple[int, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _validate_weight(pq: ParabolicQuotient, weight: Weight) -> None:
    """The weight's support must be the nodes outside Delta(Q): a node of
    Delta(Q) makes the class vanish on the quotient, and a node outside
    it with no weight leaves some cover without an edge."""
    support = {n for n, _ in weight}
    if not support:
        raise HasseError("weight has empty support")
    outside = pq.nodes - pq.j_q
    if support != outside:
        raise HasseError(
            "weight support %s is not the node set less Delta(Q), %s"
            % (sorted(support), sorted(outside))
        )


def pairing_with_coroot(pq: ParabolicQuotient, weight: Weight, root_idx: int) -> int:
    """<lambda, beta^vee> as a sum of simple-coroot coefficients, for one
    root: the path that `verify` checks `build_hasse` against."""
    coords = pq.rs.coroot_coords[root_idx]
    return sum(c * coords[n - 1] for n, c in weight)


def build_hasse(pq: ParabolicQuotient, weight: Mapping[int, int] | Weight) -> HasseDiagram:
    """The diagram of `weight` on `pq`.  The multiplicities of all positive
    roots are summed one node of the weight at a time, each adding that
    node's column of the coroot coordinates.

    Every cover is an edge: its witness beta lies outside Phi_Q, as
    w = u*s_beta differs from u in W^Q, so beta^vee has a positive
    coefficient at some node outside Delta(Q), all of which the weight
    holds.  That is certified: a cover whose multiplicity is not positive
    raises HasseError naming it."""
    wt = normalize_weight(weight)
    _validate_weight(pq, wt)
    coords = pq.rs.coroot_coords
    mult = [0] * len(coords)
    for n, c in wt:
        mult = [m + c * x[n - 1] for m, x in zip(mult, coords)]
    if min(map(mult.__getitem__, map(itemgetter(2), pq.covers))) < 1:
        u, w, r = next(c for c in pq.covers if mult[c.root] < 1)
        raise HasseError(
            "cover %s -> %s has multiplicity %d: its witness lies in Phi_Q"
            % (weyl.window_str(pq.elements[u]), weyl.window_str(pq.elements[w]), mult[r])
        )
    return HasseDiagram(pq, wt, tuple(mult))
