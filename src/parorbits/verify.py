"""Invariant suites over classical fixtures, with machine-readable reports.

Each fixture runs the full battery: interval certification, stratum
exponent laws (constancy, monotonicity, the window-statistic identity),
the dimension ledger, the flag-diagram decomposition, the Chevalley
self-checks of X's hyperplane-class diagram, and the Seidel operator
laws.  Reports are deterministic dictionaries; nothing here depends on
wall-clock or iteration order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import attrgetter
from typing import Dict, Optional, Sequence, Tuple

from . import cosets, decomp, hasse, rootsys, seidel, strata, weyl
from .cosets import ParabolicQuotient
from .decomp import DecomposedDiagram
from .fixtures import DEFAULT_MAX_RANK, Fixture, sweep_fixtures
from .weyl import Window


def _check_delta_laws(dec: DecomposedDiagram, table: Dict[int, int]) -> Dict[str, bool]:
    """The stratum-exponent laws; `table` is the fixture's `orbit_table`.

    Each class's label is read from its window statistic, oriented to
    match delta: the statistic's position among the keys of `table`, so
    the closed stratum gets 0 and the open stratum the maximal label.  A
    statistic missing from the table raises StrataError naming the window."""
    fix, pq, sts = dec.fixture, dec.strat.pq, dec.strat.strata
    deltas = sorted(st.delta for st in sts)
    stats = strata.d_geometric(fix, pq.elements)
    labels = list(map({d: label for label, d in enumerate(table)}.get, stats))
    if None in labels:
        k = labels.index(None)
        raise strata.StrataError(
            "window statistic %d of %s is not admissible for %s"
            % (stats[k], weyl.window_str(pq.elements[k]), fix)
        )
    return {
        # stratify raises StrataError when delta is not constant on a stratum
        "delta_constant": True,
        "delta_equals_d": list(dec.strat.delta) == labels,
        "delta_consecutive": deltas == list(range(len(sts))),
        "stratum_count": len(sts) == len(table),
        # delta is constant on each stratum, so only a cross edge can lower it
        "delta_monotone": dec.non_rising_cross_edge() is None,
    }


def _check_dimension_ledger(dec: DecomposedDiagram, table: Dict[int, int]) -> bool:
    """Each stratum's fiber dimension is the one `table`, the fixture's
    `orbit_table`, gives its window statistic, and its length span and
    class count are those of its flag variety (`decomp.flag_quotient`)."""
    lengths = dec.strat.pq.lengths
    for st in dec.strat.strata:
        if st.d_geom not in table:
            raise strata.StrataError("d=%d is not admissible for %s" % (st.d_geom, dec.fixture))
        if st.fiber_dim != table[st.d_geom]:
            return False
        if lengths[st.members[-1]] - lengths[st.members[0]] != st.flag.dim:
            return False
        if len(decomp.flag_quotient(st).elements) != st.size:
            return False
    return True


@lru_cache(maxsize=None)
def _check_chevalley_witnesses(pq: ParabolicQuotient, mult: Tuple[int, ...]) -> bool:
    """Each edge of X's diagram, a cover u -> w of its quotient `pq` with
    witness beta, is u * s_beta = w, and the diagram's multiplicity `mult`
    of each witness beta is <omega_q, beta^vee>; s_beta and the pairing
    are read once per root, not from the left table.  The window of
    u * s_beta is the window of s_beta translated through the table of u
    (`weyl.signed_table`): the covers come sorted by source, so each
    class's table is built once, when its first cover is read, and each
    cover costs one `bytes.translate`.

    The verdict is cached by the quotient, which hashes by identity, and
    its multiplicities: `hasse.build_hasse` gives every fixture on X the
    same ones, so X is certified once, and any other quotient object or
    other multiplicities get a verdict of their own."""
    roots = set(pq.witnesses)
    if any(mult[r] != hasse.pairing_with_coroot(pq, r) for r in roots):
        return False
    reflections = {r: cosets.reflection_by_index(pq.rs, r) for r in roots}
    windows = pq.elements
    source, table = -1, b""
    for u, w, r in zip(pq.sources, pq.targets, pq.witnesses):
        if u != source:
            source, table = u, weyl.signed_table(windows[u])
        if reflections[r].translate(table) != windows[w]:
            return False
    return True


#: The caches that hold a quotient, its enumeration, or a result keyed by a
#: quotient (which keeps the quotient alive).  They are bound here, at
#: import, not looked up through the module attributes: a wrapper rebound
#: over those (the benchmark's tracer) has no `cache_clear`.
_QUOTIENT_CACHES = (
    cosets.build_quotient,
    weyl.enumerate_group,
    hasse.build_hasse,
    _check_chevalley_witnesses,
)


def _release_quotients() -> None:
    """Empty the per-quotient caches.  An object already handed out stays
    valid; a later request only builds it again."""
    for cache in _QUOTIENT_CACHES:
        cache.cache_clear()


def _check_seidel(dec: DecomposedDiagram, v: Window, perm: Tuple[int, ...]) -> Dict[str, bool]:
    fix, pq, qexp = dec.fixture, dec.strat.pq, dec.strat.delta
    bijection = sorted(perm) == list(range(len(perm)))

    # two applications land on the class of the squared element; the
    # q-exponents of the two steps are qexp[k] and qexp[perm[k]] by definition.
    # perm looks each image head up in a dict of heads, and this compares
    # the heads of v^2 * w and of perm[perm[k]] as sets, so it is the check
    # on the table that does not go through its dict.  W_Q permutes
    # positions 1..m among themselves and re-signs or permutes the rest
    # (S_m x W(X_(n-m)), S_m x S_(n+1-m) in type A, the sign parity keeping
    # the second factor in W(D_(n-m)) in type D, S_n for m = n; D_n has no
    # fixture at m = n-1), so the signed set of a window's first m = q_node
    # entries is its class in W/W_Q (Bjorner-Brenti 8.1-8.2).  The head of
    # v^2 * w is the head of w translated through the table of v^2
    m = fix.q_node
    square = weyl.signed_table(weyl.multiply(v, v))
    windows = pq.elements
    compose_ok = all(
        set(x[:m].translate(square)) == set(windows[perm[perm[k]]][:m])
        for k, x in enumerate(windows)
    )

    # perm^order fixes every class, and the q-exponents summed over order
    # steps from any class are order/|c| rounds of the class's orbit c
    orbits = seidel.orbits(perm)
    order = lcm(*map(len, orbits))
    closed = all(perm[c[-1]] == c[0] for c in orbits)
    totals = {order // len(c) * sum(qexp[k] for k in c) for c in orbits}

    qdeg = seidel.quantum_q_degree(fix.rs, fix.q_node)
    lengths = pq.lengths
    v_length = lengths[perm[0]]  # class 0 is e, so perm[0] is [v]
    degree_ok = all(
        v_length + length == qexp[k] * qdeg + lengths[perm[k]]
        for k, length in enumerate(lengths)
    )
    return {
        "seidel_bijection": bijection,
        "seidel_composition": compose_ok,
        "seidel_finite_order": closed,
        "seidel_orbit_q_constant": len(totals) == 1,
        "seidel_degree_bookkeeping": degree_ok,
    }


def verify_fixture(fix: Fixture) -> dict:
    """Every invariant suite on one fixture; deterministic report.

    The decomposition, the Seidel element and the Seidel table are each
    built once, the table from the decomposition's stratification, and
    every check reads from them; the case table is built once, for the
    labels of all classes and the fiber dimensions of all strata.  What
    depends on one node only, or on X only, comes from the caches, shared
    with the other fixtures.
    """
    dec = decomp.build_decomposition(fix)
    pq, sts = dec.strat.pq, dec.strat.strata
    v = seidel.v_elt(fix.rs, fix.p_node)
    perm = seidel.seidel_table(dec.strat, v)
    table = strata.orbit_table(fix)
    decomposition = decomp.decomposition_report(dec)
    checks: Dict[str, object] = {}
    checks["interval"] = cosets.certify_interval(pq, [st.members for st in sts])
    checks.update(_check_delta_laws(dec, table))
    checks["dimension_ledger"] = _check_dimension_ledger(dec, table)
    checks["decomposition"] = decomposition["all_pass"]
    checks["chevalley_witnesses"] = _check_chevalley_witnesses(pq, dec.mult)
    checks.update(_check_seidel(dec, v, perm))
    ok = all(bool(value) for value in checks.values())
    return {
        "fixture": fix.label,
        "space": fix.space_label,
        "classes": len(pq.elements),
        "strata": [
            {"delta": st.delta, "size": st.size, "flag": st.flag.label, "scale": st.scale}
            for st in sts
        ],
        "checks": checks,
        "decomposition": decomposition,
        "pass": ok,
    }


def cyclic_law(velems: Sequence[Window]) -> bool:
    """Whether v_i * v_k = v_((i + k) mod (n + 1)) for all i, k in 1..n,
    where velems = (v_0, v_1, ..., v_n) and v_0 is the identity e.

    That law holds exactly when v_1 * v_(k-1) = v_k for k = 1..n+1, with
    v_(n+1) = v_0 = e: then v_k = v_1^k and v_1^(n+1) = e, and the law with
    i = 1 is these n + 1 equations.  So they are checked, with one signed
    table of v_1 and one `bytes.translate` each, in place of n^2 products."""
    table = weyl.signed_table(velems[1])
    following = velems[1:] + velems[:1]
    return all(v.translate(table) == w for v, w in zip(velems, following))


def type_a_composition_report(max_rank: int = 4) -> dict:
    """Cyclic composition of type A Seidel elements, exhaustively per rank,
    by `cyclic_law`."""
    results = {}
    for n in range(1, max_rank + 1):
        rs = rootsys.build("A", n)
        velems = (weyl.identity(rs),) + tuple(seidel.v_elt(rs, i) for i in range(1, n + 1))
        results["A%d" % n] = cyclic_law(velems)
    return {"cyclic_law": results, "pass": all(results.values())}


def run_verify(
    max_a: int = DEFAULT_MAX_RANK,
    max_b: int = DEFAULT_MAX_RANK,
    max_c: int = DEFAULT_MAX_RANK,
    max_d: int = DEFAULT_MAX_RANK,
    fixture: Optional[Fixture] = None,
) -> dict:
    """Verify `fixture`, or every fixture of the sweep up to the rank caps,
    then the type-A composition law up to rank min(`max_a`, 4).

    The sweep lists each root system's fixtures together, and they are
    verified one root system at a time, each after `_release_quotients`:
    no quotient is shared across root systems, so at most one root system's
    quotients are alive at once.  The caches keyed by a root system or a
    node (the Seidel elements, the flag descriptors) stay."""
    fixtures = [fixture] if fixture is not None else sweep_fixtures(max_a, max_b, max_c, max_d)
    reports = []
    for _, group in groupby(fixtures, key=attrgetter("rs")):
        _release_quotients()
        reports.extend(map(verify_fixture, group))
    type_a = type_a_composition_report(min(max_a, 4))
    all_pass = all(r["pass"] for r in reports) and type_a["pass"]
    return {
        "fixtures": reports,
        "type_a_composition": type_a,
        "count": len(reports),
        "all_pass": all_pass,
    }


def corrupted_oracle_selftest() -> dict:
    """Negative control: a deliberately damaged stratum must fail certification."""
    strat = strata.stratify(Fixture("A", 3, 2, 2))
    middle = next(st for st in strat.strata if st.size > 2)
    members = middle.members  # sorted, so the extremes come first and last
    detected = not cosets.certify_interval(strat.pq, [members[:1] + members[2:]])
    return {"self_test_corrupt": {"detected": detected}}
