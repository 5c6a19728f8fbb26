"""Acceptance criteria, one test per criterion, each printing a verdict line.

The sweep covers every classical fixture with rank caps A<=5, B<=5, C<=5,
D<=5 (all maximal quotient nodes times all cominuscule acting nodes).
Everything is exact; the only tolerances are the stated runtime budgets.
"""

import time

import graphiso
from parorbits import cli, decomp, verify, weyl
from parorbits.fixtures import Fixture
from parorbits.rootsys import build

from conftest import load_golden
from covers import cover_triples


def _verdict(num, label, ok):
    print("criterion %2d [%s]: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def _computed_graph(fix):
    dec = decomp.build_decomposition(fix)
    sts, vs, mult = dec.strat.strata, dec.strat.stratum_of, dec.mult
    vertices = tuple((length, sts[vs[k]].delta) for k, length in enumerate(dec.strat.pq.lengths))
    edges = tuple((u, w, mult[r]) for u, w, r in cover_triples(dec.strat.pq))
    return dec, graphiso.ColoredGraph(vertices, edges)


def test_criterion_01_figure1():
    start = time.monotonic()
    fix = Fixture("C", 4, 2, 4)
    dec, got = _computed_graph(fix)
    ok = len(dec.strat.pq.elements) == 24
    ok &= [st.size for st in dec.strat.strata] == [6, 12, 6]
    ok &= [st.delta for st in dec.strat.strata] == [0, 1, 2]
    ok &= not any(dec.mismatches)
    golden = graphiso.ColoredGraph.from_json(load_golden("figure1.json"))
    ok &= graphiso.isomorphic(got, golden, cross_mult_exact=True)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(1, "IG(2,8) reproduces the reference diagram (%.2fs)" % elapsed, ok)


def test_criterion_02_figure2():
    start = time.monotonic()
    fix = Fixture("B", 4, 3, 1)
    dec, got = _computed_graph(fix)
    ok = len(dec.strat.pq.elements) == 32
    ok &= [st.size for st in dec.strat.strata] == [12, 8, 12]
    ok &= [st.flag.label for st in dec.strat.strata] == ["OG(2,7)", "OG(3,7)", "OG(2,7)"]
    ok &= [st.scale for st in dec.strat.strata] == [1, 2, 1]
    ok &= not any(dec.mismatches)
    golden = graphiso.ColoredGraph.from_json(load_golden("figure2.json"))
    ok &= graphiso.isomorphic(got, golden, cross_mult_exact=False)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(2, "OG(3,9) reproduces the reference diagram (%.2fs)" % elapsed, ok)


def test_criterion_03_interval_theorem(sweep_reports):
    start = time.monotonic()
    ok = all(r["checks"]["interval"] for r in sweep_reports.values())
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _verdict(3, "double cosets are Bruhat intervals, full sweep", ok)


def test_criterion_04_delta_equals_d(sweep_reports):
    ok = all(r["checks"]["delta_equals_d"] for r in sweep_reports.values())
    _verdict(4, "stratum exponent equals the window statistic", ok)


def test_criterion_05_delta_stratification(sweep_reports):
    ok = all(
        r["checks"]["delta_constant"] and r["checks"]["delta_monotone"]
        for r in sweep_reports.values()
    )
    _verdict(5, "exponent constant on strata, increasing across covers", ok)


def test_criterion_06_dimension_ledger(sweep_reports):
    ok = all(r["checks"]["dimension_ledger"] for r in sweep_reports.values())
    _verdict(6, "fiber dimensions and flag dimensions balance", ok)


def test_criterion_07_orbit_counts(sweep_reports):
    ok = all(
        r["checks"]["stratum_count"] and r["checks"]["delta_consecutive"]
        for r in sweep_reports.values()
    )
    _verdict(7, "stratum counts match the case inventories", ok)


def test_criterion_08_seidel_laws(sweep_reports):
    keys = (
        "seidel_bijection",
        "seidel_composition",
        "seidel_finite_order",
        "seidel_orbit_q_constant",
        "seidel_degree_bookkeeping",
    )
    ok = all(r["checks"][k] for r in sweep_reports.values() for k in keys)
    ok &= verify.type_a_composition_report(4)["pass"]
    _verdict(8, "Seidel operator laws hold on every fixture", ok)


def test_criterion_09_oracle_redundancy(sweep_reports):
    ok = all(r["checks"]["chevalley_witnesses"] for r in sweep_reports.values())
    for t, n in (("C", 3), ("A", 4)):
        rs = build(t, n)
        group = sorted(
            weyl.enumerate_group(rs, frozenset(rs.nodes), frozenset()),
            key=lambda w: (weyl._length(rs, w), w),
        )
        index = {w: k for k, w in enumerate(group)}
        reflections = [weyl.reflection(rs, beta) for beta in rs.positive_roots]
        reach = [1 << k for k in range(len(group))]
        by_len = {}
        for k, w in enumerate(group):
            by_len.setdefault(weyl._length(rs, w), []).append(k)
        for ell in sorted(by_len, reverse=True):
            for k in by_len[ell]:
                for t_elt in reflections:
                    wt = weyl.multiply(group[k], t_elt)
                    if weyl._length(rs, wt) == ell + 1:
                        reach[k] |= reach[index[wt]]
        for i, u in enumerate(group):
            for j, w in enumerate(group):
                if weyl.bruhat_leq(rs, u, w) != bool(reach[i] >> j & 1):
                    ok = False
    _verdict(9, "independent Bruhat and multiplicity oracles agree", ok)


def test_criterion_10_determinism(capsys):
    argv_pairs = [
        ["diagram", "--type", "C", "--rank", "4", "--grassmannian", "2",
         "--cominuscule", "4", "--format", "dot"],
        ["verify", "--fixture", "B,4,3,1"],
    ]
    ok = True
    for argv in argv_pairs:
        assert cli.main(argv) in (0,)
        first = capsys.readouterr().out
        assert cli.main(argv) in (0,)
        second = capsys.readouterr().out
        ok &= first == second
    with capsys.disabled():
        _verdict(10, "byte-identical outputs across repeated runs", ok)
