"""Test-only oracle for `strata.orbit_table`: the paper's case analysis as
two separate ladders, the admissible range of d_geometric and the fiber
dimension of each stratum.

The library keeps one table per case, whose keys are the admissible d in
decreasing order and whose values are the fiber dimensions; the tests
check it against these ladders, which restate each case from (type, n, m,
i) on their own.  `stratum_count`, `d_of` and `expected_fiber_dim` read
the table afresh on every call, one class or stratum at a time, `d_of`
with the per-class window statistic of `exponents`; `verify` builds the
table once per fixture and reads the statistics of all classes in one
pass.
"""

from parorbits import strata

from exponents import d_geometric


def stratum_count(fix):
    return len(strata.orbit_table(fix))


def d_of(fix, w):
    """Stratum label of w from the window statistic, oriented to match
    delta: the position of d_geometric among the keys of `orbit_table`,
    so the closed stratum (through the base point) gets 0 and the open
    stratum gets the maximal label."""
    dg = d_geometric(fix, w)
    for label, d in enumerate(strata.orbit_table(fix)):
        if d == dg:
            return label
    raise strata.StrataError("window statistic %d is not admissible for %s" % (dg, fix))


def expected_fiber_dim(fix, d_geom):
    """Fiber dimension of the stratum's vector-bundle structure over its flag.

    `d_geom` is the geometric statistic (d_geometric), not the delta label.
    """
    table = strata.orbit_table(fix)
    if d_geom not in table:
        raise strata.StrataError("d=%d is not admissible for %s" % (d_geom, fix))
    return table[d_geom]


def three_orbits_max_m(fix):
    """Largest m with the three-orbit picture for P_(omega_1)."""
    return fix.rank - 1 if fix.type_label == "B" else fix.rank - 2


def d_range(fix):
    """Admissible (lo, hi, step) of d_geometric for the fixture's case."""
    t, n, m, i = fix.type_label, fix.rank, fix.q_node, fix.p_node
    if t == "A":
        return (max(0, i + m - n - 1), min(m, i), 1)
    if t == "B" or (t == "D" and i == 1):
        if m <= three_orbits_max_m(fix):
            return (0, 2, 1)
        return (0, 1, 1)
    if t == "C":
        return (0, m, 1)
    # D with i in (n - 1, n)
    if m <= n - 2:
        return (0, m, 1)
    top = n if i == n else n - 1
    return (top % 2, top, 2)


def fiber_dim(fix, d):
    """Fiber dimension of the stratum with d_geometric = d, d admissible."""
    t, n, m, i = fix.type_label, fix.rank, fix.q_node, fix.p_node
    if t == "A":
        return (m - d) * (i - d)
    if t == "B" and m < n:
        return {0: 2 * n - m, 1: m, 2: 0}[d]
    if t == "B":
        return {0: n, 1: 0}[d]
    if t == "C":
        k = m - d
        return k * (n - d) - k * (k - 1) // 2
    if t == "D" and i == 1:
        if m <= n - 2:
            return {0: 2 * n - 1 - m, 1: m, 2: 0}[d]
        return {0: n - 1, 1: 0}[d]
    # D with i in (n - 1, n)
    if m <= n - 2:
        k = m - d
        return k * (n - d) - k * (k + 1) // 2
    k = n - d
    return k * (k - 1) // 2


def ladder_table(fix):
    """The ladders above as an ordered table {d: fiber}, d decreasing."""
    lo, hi, step = d_range(fix)
    return {d: fiber_dim(fix, d) for d in range(hi, lo - 1, -step)}
