"""Hasse diagrams: cup product with the hyperplane class of a quotient.

The hyperplane class of a quotient W^Q has weight 1 on each node outside
Delta(Q): on a Grassmannian quotient that is omega_q, and on a Levi flag
quotient the sum of its marked nodes.  Its diagram has an edge
u -> u*s_beta of multiplicity <lambda, beta^vee> for every cover with
positive-root witness beta.  A diagram is therefore one multiplicity per
positive root, and its edges are the quotient's own covers, each read
with the multiplicity of its witness; `build_hasse` returns that tuple
alone.  The same rule runs unchanged inside a Levi subsystem, where
<omega_t, beta^vee> is read off the coefficient of the t-th simple
coroot in beta^vee.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from . import weyl
from .cosets import ParabolicQuotient


class HasseError(ValueError):
    """A cover of the quotient has no edge."""


def pairing_with_coroot(pq: ParabolicQuotient, root_idx: int) -> int:
    """<lambda, beta^vee> as a sum of simple-coroot coefficients, for one
    root: the path that `verify` checks `build_hasse` against."""
    coords = pq.rs.coroot_coords[root_idx]
    return sum(coords[n - 1] for n in pq.nodes - pq.j_q)


@lru_cache(maxsize=None)
def build_hasse(pq: ParabolicQuotient) -> Tuple[int, ...]:
    """The diagram of `pq`'s hyperplane class, as its multiplicities:
    mult[r] is <lambda, beta_r^vee> for each positive root beta_r, and
    the edges are the covers of `pq`, each cover u -> w with witness r of
    multiplicity mult[r].  The multiplicities of all positive roots are
    summed one node outside Delta(Q) at a time, each adding that node's
    column of the coroot coordinates.  It reads the quotient alone, so it is built
    once per quotient object: X's diagram and each stratum's flag
    diagram are shared by every fixture that reaches the same quotient.

    Every cover is an edge: its witness beta lies outside Phi_Q, as
    w = u*s_beta differs from u in W^Q, so beta^vee has a positive
    coefficient at some node outside Delta(Q).  That is certified: a
    cover whose multiplicity is not positive raises HasseError naming it;
    a point quotient has no cover and passes."""
    coords = pq.rs.coroot_coords
    mult = [0] * len(coords)
    for n in pq.nodes - pq.j_q:
        mult = [m + x[n - 1] for m, x in zip(mult, coords)]
    if min(map(mult.__getitem__, pq.witnesses), default=1) < 1:
        c = next(c for c, r in enumerate(pq.witnesses) if mult[r] < 1)
        u, w = pq.elements[pq.sources[c]], pq.elements[pq.targets[c]]
        raise HasseError(
            "cover %s -> %s has multiplicity %d: its witness lies in Phi_Q"
            % (weyl.window_str(u), weyl.window_str(w), mult[pq.witnesses[c]])
        )
    return tuple(mult)
