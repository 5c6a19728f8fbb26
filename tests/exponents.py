"""Test-only oracles for the stratum exponent and the window statistic:
the per-class paths that the library's one-pass functions replaced.

`strata.delta(fix, pq)` returns every class's delta in one pass, pairing
w^-1(2 omega_p^vee) with 2 omega_q^vee; here `eta` expands a vector's
coefficient on one simple coroot with its own checks, and `delta` calls
it once per class, gathering w^-1(2 omega_p^vee) from a tuple signed
table (`tuples.py`) built afresh, on the decoded window.
`strata.d_geometric(fix, windows)` dispatches on the fixture's case once
per call; here `d_geometric` reads it for one decoded window at a time.
"""

from operator import itemgetter, sub

from parorbits import strata, weyl
from parorbits.rootsys import RootSystemError, pair

import tuples
from windows import dec


def eta(rs, v, j):
    """Coefficient of the j-th simple coroot in the expansion of `v`.

    This is the image of `v` under the projection to the coroot lattice
    modulo the coroots of the maximal parabolic omitting node j.  As
    alpha_i^vee = 2 alpha_i / |alpha_i|^2 and the coweights are dual to the
    simple roots, it equals (|alpha_j|^2 / 2) <v, omega_j^vee>, computed as
    |alpha_j|^2 <v, 2 omega_j^vee> / 4.

    Raises if the vector is outside the rational span of the coroots
    (possible in type A, whose coroot span is the sum-zero sublattice), or
    outside the coroot lattice, where the coefficient is not an integer.
    """
    if not 1 <= j <= rs.rank:
        raise RootSystemError("node %d out of range 1..%d" % (j, rs.rank))
    if rs.type_label == "A" and sum(v) != 0:
        raise RootSystemError("vector is not in the span of the coroots")
    alpha = rs.simple_root(j)
    coeff, rem = divmod(pair(alpha, alpha) * pair(v, rs.double_coweight(j)), 4)
    if rem:
        raise RootSystemError("vector is outside the coroot lattice at node %d" % j)
    return coeff


def delta(fix, w):
    """Stratum exponent of one window w: half of
    eta(2 omega_p^vee - w^(-1) 2 omega_p^vee), certified even and >= 0."""
    omega2 = fix.rs.double_coweight(fix.p_node)
    moved = itemgetter(*dec(w))(tuples.signed_table(omega2))  # w^-1(2 omega_p^vee)
    twice = eta(fix.rs, tuple(map(sub, omega2, moved)), fix.q_node)
    if twice % 2 or twice < 0:
        name = weyl.name(fix.rs, w)
        raise strata.StrataError("stratum exponent %d/2 at %s is not a non-negative integer" % (twice, name))
    return twice // 2


def d_geometric(fix, w):
    """Incidence dimension of the cell of the window w with the reference
    flag of P.

    This is the window statistic of the double-coset case analysis: e.g.
    #{j <= m : w(j) <= i} in type A, #{j <= m : w(j) > 0} in type C.
    """
    t, n, m, i = fix.type_label, fix.rank, fix.q_node, fix.p_node
    head = dec(w)[:m]
    if t == "A":
        return sum(1 for v in head if v <= i)
    if t == "B" or (t == "D" and i == 1):
        if any(v == 1 for v in head):
            return 2 if m < n else 1
        if any(v == -1 for v in head):
            return 0
        return 1
    if t == "C" or (t == "D" and i == n):
        return sum(1 for v in head if v > 0)
    # D with i = n - 1
    pos = sum(1 for v in head if v > 0)
    return pos - (1 if n in head else 0) + (1 if -n in head else 0)



def bumped_delta(real, target):
    """`strata.delta` with the exponent of class `target` raised by 1, for
    negative controls: the pass stays `real`, one member is corrupted."""

    def bumped(fix, pq):
        out = list(real(fix, pq))
        out[target] += 1
        return tuple(out)

    return bumped


def reversed_delta(real):
    """`strata.delta` with each exponent d replaced by max - d, for
    negative controls: still constant on each stratum, so `stratify`
    accepts it, but every cross edge now lowers it."""

    def reversed_(fix, pq):
        out = real(fix, pq)
        top = max(out)
        return tuple(top - d for d in out)

    return reversed_


def offset_coweight_table(fix, twice):
    """A stand-in for `strata.coweight_table` under which the doubled
    exponent of every class of `fix` is shifted by `twice`, for negative
    controls on the checks of `strata.delta`: 2 omega_p^vee moves along a
    coordinate where 2 omega_q^vee is nonzero, and its signed table stays."""
    real = strata.coweight_table
    rs = fix.rs
    weights = rs.double_coweight(fix.q_node)
    alpha = rs.simple_root(fix.q_node)
    j = next(j for j, x in enumerate(weights) if x)
    step, rem = divmod(4 * twice, pair(alpha, alpha) * weights[j])
    assert rem == 0, (fix, twice)

    def table(rs, node):
        omega2, signed = real(rs, node)
        return tuple(x + step * (k == j) for k, x in enumerate(omega2)), signed

    return table
