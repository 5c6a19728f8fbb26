import functools
import hashlib
import json
import re
import sys
from collections import Counter
from itertools import groupby
from operator import attrgetter

import pytest

from parorbits import cli, cosets, decomp, hasse, rootsys, seidel, strata, verify, weyl
from parorbits.fixtures import Fixture, parse_fixture, sweep_fixtures
from parorbits.jsontext import indented
from parorbits.rootsys import RANK_BOUNDS, cominuscule_nodes

from caches import clear_caches
from covers import cover_triples
from cases import d_of, expected_fiber_dim
from exponents import bumped_delta, reversed_delta


#: size and SHA-256 of the stdout of `parorbits verify` at the default caps,
#: as `bench/expected.json` records it; an output change re-records both
VERIFY_STDOUT = (146875, "aaf37ca7607371757337498a1f26bb0276c74f487d09d653ec69764ea31543ce")


def test_verify_stdout_is_pinned(sweep_reports):
    data = (indented(verify.run_verify()) + "\n").encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == VERIFY_STDOUT


def test_perturbed_delta_on_one_member_fails(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    sts = strata.stratify(fix).strata
    target = next(st for st in sts if st.size > 1).members[-1]
    monkeypatch.setattr(strata, "delta", bumped_delta(strata.delta, target))
    with pytest.raises(strata.StrataError, match="not constant"):
        verify.verify_fixture(fix)


def test_reversed_delta_fails_monotonicity_on_a_cross_edge(monkeypatch, capsys):
    # max - delta passes stratify's constancy check, and only the cross
    # edges, which `_check_delta_laws` reads, can tell it from delta
    fix = parse_fixture("C4/P2+P4")
    monkeypatch.setattr(strata, "delta", reversed_delta(strata.delta))
    dec = decomp.build_decomposition(fix)
    assert dec.cross_edges
    assert not verify._check_delta_laws(dec, strata.orbit_table(fix))["delta_monotone"]
    assert re.fullmatch(r"cross edge \S+->\S+ does not raise delta: \d+ -> \d+", dec.witness())
    assert not verify.verify_fixture(fix)["checks"]["delta_monotone"]
    assert cli.main(["verify", "--fixture", "C4/P2+P4"]) == 2
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


def test_swapped_seidel_images_fail_composition(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    real_table = seidel.seidel_table

    def swapped(*args):
        perm = list(real_table(*args))
        perm[0], perm[1] = perm[1], perm[0]
        return tuple(perm)

    monkeypatch.setattr(seidel, "seidel_table", swapped)
    report = verify.verify_fixture(fix)
    assert report["checks"]["seidel_bijection"]
    assert not report["checks"]["seidel_composition"]
    assert not report["pass"]
    failed = [name for name, ok in report["checks"].items() if not ok]
    assert failed == ["seidel_composition", "seidel_degree_bookkeeping"]


def test_merged_seidel_images_fail_finite_order(monkeypatch):
    # two classes sent to one: no bijection, so some orbit never closes
    fix = Fixture("C", 4, 2, 4)
    real_table = seidel.seidel_table

    def merged(*args):
        perm = real_table(*args)
        return (perm[1],) + perm[1:]

    monkeypatch.setattr(seidel, "seidel_table", merged)
    checks = verify.verify_fixture(fix)["checks"]
    assert not checks["seidel_bijection"]
    assert not checks["seidel_finite_order"]


def test_bumped_q_exponent_fails_degree_bookkeeping(monkeypatch):
    # the q-exponents are the stratification's per-class delta
    fix = Fixture("C", 4, 2, 4)
    real_stratify = strata.stratify

    def bumped(*args):
        strat = real_stratify(*args)
        return strat._replace(delta=(strat.delta[0] + 1,) + strat.delta[1:])

    monkeypatch.setattr(strata, "stratify", bumped)
    report = verify.verify_fixture(fix)
    assert not report["checks"]["seidel_degree_bookkeeping"]
    assert not report["pass"]


def _count_stages(monkeypatch):
    """Count calls of strata.stratify, strata.delta, seidel.v_elt and seidel.seidel_table."""
    calls = {}
    stages = ((strata, "stratify"), (strata, "delta"), (seidel, "v_elt"), (seidel, "seidel_table"))
    for mod, name in stages:
        real = getattr(mod, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_stage_runs_once_per_fixture(monkeypatch):
    calls = _count_stages(monkeypatch)
    report = verify.verify_fixture(Fixture("C", 5, 2, 5))
    assert report["pass"] and report["classes"] == 40
    assert calls == {"stratify": 1, "delta": 1, "v_elt": 1, "seidel_table": 1}


def test_sweep_shares_what_one_node_or_one_quotient_fixes(cold, monkeypatch):
    # one cold sweep at caps 5: each shared result is built once per key,
    # the Seidel element per (rs, p_node), the flag descriptor per
    # (rs, J_P, K), X's Chevalley verdict and the q-degree per quotient
    # of X, one per (rs, q_node), and the quotient, its enumeration and its
    # diagram once per quotient: the 50 of X and the 144 flag quotients.
    # The per-quotient caches are released before each root system, and a
    # release resets their statistics, so their misses are summed across
    # the releases: no root system's quotient is built twice
    per_quotient = (
        cosets.build_quotient,
        weyl.enumerate_group,
        hasse.build_hasse,
        verify._check_chevalley_witnesses,
    )
    released = [0] * len(per_quotient)
    real_release, real_verify = verify._release_quotients, verify.verify_fixture
    held = []

    def release():
        for k, cache in enumerate(per_quotient):
            released[k] += cache.cache_info().misses
        real_release()

    def verify_fixture(fix):
        report = real_verify(fix)
        held.append((fix.rs, cosets.build_quotient.cache_info().currsize))
        return report

    monkeypatch.setattr(verify, "_release_quotients", release)
    monkeypatch.setattr(verify, "verify_fixture", verify_fixture)
    report = verify.run_verify(5, 5, 5, 5)
    assert report["all_pass"] and report["count"] == 104
    built = [k + cache.cache_info().misses for k, cache in zip(released, per_quotient)]
    assert built == [194, 194, 194, 50]
    fixtures = sweep_fixtures(5, 5, 5, 5)
    assert len({(fix.rs, fix.p_node) for fix in fixtures}) == 29
    assert len({(fix.rs, fix.q_node) for fix in fixtures}) == 50
    flags = {(fix.rs, fix.j_p, st.K) for fix in fixtures for st in strata.stratify(fix).strata}
    assert len(flags) == 144
    shared = (seidel.v_elt, strata.flag_descriptor)
    assert [cache.cache_info().misses for cache in shared] == [29, 144]
    assert seidel.quantum_q_degree.cache_info().misses == 50

    # one root system at a time: the sweep lists each root system's
    # fixtures together, and at every fixture the quotients cached are at
    # most its root system's, X for each q_node and each flag
    systems = [rs for rs, _ in groupby(fixtures, key=attrgetter("rs"))]
    assert len(systems) == len(set(systems))
    quotients = Counter(rs for rs, _ in {(fix.rs, fix.j_q) for fix in fixtures})
    quotients.update(rs for rs, _, _ in flags)
    assert [rs for rs, _ in held] == [fix.rs for fix in fixtures]
    assert all(size <= quotients[rs] for rs, size in held)


def test_release_finds_the_caches_behind_a_tracer(cold, monkeypatch):
    # a tracer rebinds each cached function, in every module that holds it,
    # to a plain wrapper without `cache_clear`; the sweep's release still
    # empties the real caches, so after A1, A2 and B2 they hold B2's
    # quotients alone: X for each q_node and each stratum's flag
    cached = (cosets.build_quotient, weyl.enumerate_group, hasse.build_hasse)
    for fn in cached:
        wrapper = functools.update_wrapper(lambda *args, _fn=fn: _fn(*args), fn)
        assert not hasattr(wrapper, "cache_clear")
        for name, module in list(sys.modules.items()):
            if name.startswith("parorbits."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    report = verify.run_verify(2, 2, 0, 0)
    assert report["all_pass"]
    assert {r["fixture"].split("/")[0] for r in report["fixtures"]} == {"A1", "A2", "B2"}
    b2 = [fix for fix in sweep_fixtures(2, 2, 0, 0) if fix.type_label == "B"]
    keys = {(fix.rs, fix.j_q) for fix in b2}
    keys |= {(fix.rs, st.K, fix.j_p) for fix in b2 for st in strata.stratify(fix).strata}
    build_quotient, enumerate_group, _ = cached
    misses = build_quotient.cache_info().misses
    for key in keys:
        build_quotient(*key)
    assert build_quotient.cache_info().misses == misses
    assert build_quotient.cache_info().currsize == len(keys)
    assert enumerate_group.cache_info().currsize == len(keys)


def test_quantum_runs_each_stage_once(monkeypatch, capsys):
    calls = _count_stages(monkeypatch)
    argv = ["quantum", "--type", "C", "--rank", "5", "--grassmannian", "2"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 40
    assert calls == {"stratify": 1, "delta": 1, "v_elt": 1, "seidel_table": 1}


def test_root_system_built_once_per_fixture(monkeypatch, capsys):
    # a fixture holds the root system its validation built; the type-A
    # composition report builds A1..A4 itself
    calls = {"build": 0, "fixtures": 0}
    real_build, real_init = rootsys.build, Fixture.__init__

    def build(*args):
        calls["build"] += 1
        return real_build(*args)

    def init(self, *args):
        calls["fixtures"] += 1
        real_init(self, *args)

    monkeypatch.setattr(rootsys, "build", build)
    monkeypatch.setattr(Fixture, "__init__", init)
    assert cli.main(["verify"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 104
    assert calls == {"build": calls["fixtures"] + 4, "fixtures": 104}


def _spy(monkeypatch, module, names):
    """Count the calls of each named function of `module` made through it."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _cold_pipeline(fix):
    clear_caches()
    dec = decomp.build_decomposition(fix)
    v = seidel.v_elt(fix.rs, fix.p_node)
    return dec, v, seidel.seidel_table(dec.strat, v)


def test_seidel_checks_build_no_product_per_class(monkeypatch):
    # cold C5/P2+P5: the composition check names the class of v^2 * w by
    # the signed set of its first q_node entries, with no block sort and no
    # element product per class
    fix = Fixture("C", 5, 2, 5)
    dec, v, perm = _cold_pipeline(fix)
    calls = _spy(monkeypatch, weyl, ("min_rep", "multiply"))
    checks = verify._check_seidel(dec, v, perm)
    assert all(checks.values())
    assert calls["min_rep"] == 0 and calls["multiply"] <= 1
    # the spies are live: the per-class path this replaced calls both
    before = dict(calls)
    weyl.min_rep(fix.rs, weyl.multiply(v, dec.strat.pq.elements[1]), fix.j_q)
    assert calls == {"min_rep": before["min_rep"] + 1, "multiply": before["multiply"] + 1}


def test_seidel_composition_reads_no_left_row_and_no_index():
    # the one check on the acting node's row that does not read the table:
    # with the quotient's left rows and index emptied it still passes, and
    # swapped images still fail it
    fix = Fixture("C", 5, 2, 5)
    dec, v, perm = _cold_pipeline(fix)
    bare = dec._replace(strat=dec.strat._replace(pq=dec.strat.pq._replace(left={}, index={})))
    assert verify._check_seidel(bare, v, perm)["seidel_composition"]
    swapped = list(perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not verify._check_seidel(bare, v, tuple(swapped))["seidel_composition"]


def test_delta_laws_read_the_case_table_once(monkeypatch):
    fix = Fixture("C", 5, 2, 5)
    dec = decomp.build_decomposition(fix)
    calls = _spy(monkeypatch, strata, ("orbit_table",))
    assert all(verify._check_delta_laws(dec, strata.orbit_table(fix)).values())
    assert calls == {"orbit_table": 1}
    # the spy is live: the per-class label this replaced reads the table
    # once per call
    d_of(fix, dec.strat.pq.elements[0])
    assert calls == {"orbit_table": 2}


@pytest.mark.parametrize("label", ["C5/P2+P5", "B6/P5+P1", "C4/P2+P4"])
def test_verify_fixture_builds_the_case_table_once(monkeypatch, label):
    # the labels of all classes and the fiber dimensions of all strata are
    # read from one table per fixture
    fix = parse_fixture(label)
    d_geom = next(iter(strata.orbit_table(fix)))
    calls = _spy(monkeypatch, strata, ("orbit_table",))
    report = verify.verify_fixture(fix)
    assert report["pass"] and report["checks"]["dimension_ledger"]
    assert calls == {"orbit_table": 1}
    # the spy is live: the per-stratum fiber dimension this replaced reads
    # the table once per call
    expected_fiber_dim(fix, d_geom)
    assert calls == {"orbit_table": 2}


def test_inadmissible_fiber_statistic_raises_in_the_ledger():
    # a stratum whose window statistic is missing from the case table is
    # refused by name, as the per-stratum lookup it replaced refused it
    fix = Fixture("C", 4, 2, 4)
    dec = decomp.build_decomposition(fix)
    table = dict(strata.orbit_table(fix))
    d_geom = dec.strat.strata[0].d_geom
    del table[d_geom]
    with pytest.raises(strata.StrataError, match="d=%d is not admissible" % d_geom):
        verify._check_dimension_ledger(dec, table)


@pytest.mark.parametrize("label", ["C8/P4+P8", "D8/P4+P8", "B8/P7+P1"])
def test_verify_fixture_passes_every_check_at_rank_8(label):
    # the full battery past rank 7, within the bound on |W^Q|; B8/P7+P1
    # carries the doubling stratum of the odd orthogonal family
    report = verify.verify_fixture(parse_fixture(label))
    assert report["pass"], [name for name, ok in report["checks"].items() if not ok]
    assert (2 in [st["scale"] for st in report["strata"]]) == (label == "B8/P7+P1")


def test_verify_sweep_passes_at_caps_8(capsys):
    # every fixture of rank <= 8 is within the bound on |W^Q|: the sweep
    # verifies all 349 and exits 0
    caps = ["--max-rank-a", "8", "--max-rank-b", "8", "--max-rank-c", "8", "--max-rank-d", "8"]
    code = cli.main(["verify"] + caps)
    report = json.loads(capsys.readouterr().out)
    assert (code, report["count"], report["all_pass"]) == (0, 349, True)


def test_inadmissible_window_statistic_names_the_window(monkeypatch):
    fix = Fixture("C", 4, 2, 4)
    dec = decomp.build_decomposition(fix)
    target = dec.strat.pq.elements[-1]
    real = strata.d_geometric

    def corrupted(f, windows):
        return [99 if b == target else d for b, d in zip(windows, real(f, windows))]

    monkeypatch.setattr(strata, "d_geometric", corrupted)
    text = "window statistic 99 of %s is not admissible" % weyl.window_str(target)
    with pytest.raises(strata.StrataError, match=re.escape(text)):
        verify._check_delta_laws(dec, strata.orbit_table(fix))


def test_signed_set_key_matches_min_rep_up_to_rank_8():
    # `_check_seidel` names the class of v^2 * w in W/W_Q by the signed set
    # of its first m = q_node window entries.  Oracle: min_rep of the
    # window product, the path it replaced, on every maximal quotient that
    # a fixture can have up to rank 8 (the largest has 1,792 classes), for
    # every cominuscule v; the keys of the classes are distinct
    products = 0
    for t in "ABCD":
        for n in range(RANK_BOUNDS[t], 9):
            rs = rootsys.build(t, n)
            squares = [
                weyl.multiply(v, v)
                for v in (seidel.v_elt(rs, i) for i in sorted(cominuscule_nodes(t, n)))
            ]
            for m in rs.nodes:
                if t == "D" and m == n - 1:
                    continue  # Picard rank 2: no fixture
                j_q = frozenset(rs.nodes) - {m}
                pq = cosets.build_quotient(rs, j_q)
                keys = {frozenset(x[:m]): k for k, x in enumerate(pq.elements)}
                assert len(keys) == len(pq.elements), (t, n, m)
                for vv in squares:
                    for w in pq.elements:
                        key = frozenset(weyl.multiply(vv, w[:m]))
                        expected = weyl.min_rep(rs, weyl.multiply(vv, w), j_q)
                        assert pq.elements[keys[key]] == expected, (t, n, m, w)
                        products += 1
    assert products == 50076


def _chevalley_by_compose(pq, mult):
    """`verify._check_chevalley_witnesses` by the path it replaced: one
    window product u * s_beta and one pairing per edge, each edge a cover
    of the quotient `pq` read with its multiplicity in `mult`."""
    return all(
        weyl.multiply(pq.elements[u], cosets.reflection_by_index(pq.rs, r)) == pq.elements[w]
        and hasse.pairing_with_coroot(pq, r) == mult[r]
        for u, w, r in cover_triples(pq)
    )


def test_shared_x_diagrams_and_chevalley_verdicts_match_fresh_ones():
    # every fixture of the rank <= 5 sweep, D6/P3+P6 and B6/P5+P1: X's
    # multiplicities are the ones cached per quotient, equal to ones built
    # afresh, and its cached verdict is a fresh one; a retargeted edge, on a
    # new quotient object, and a raised multiplicity, a new tuple, still
    # fail once X's verdict is cached
    fixtures = sweep_fixtures(5, 5, 5, 5) + [parse_fixture("D6/P3+P6"), parse_fixture("B6/P5+P1")]
    check, fresh_check = verify._check_chevalley_witnesses, verify._check_chevalley_witnesses.__wrapped__
    for fix in fixtures:
        dec = decomp.build_decomposition(fix)
        mult, pq = dec.mult, dec.strat.pq
        fresh = hasse.build_hasse.__wrapped__(pq)
        assert mult is hasse.build_hasse(pq) and mult == fresh, fix.label
        assert check(pq, mult) and fresh_check(pq, mult) and _chevalley_by_compose(pq, mult), fix.label

        retargeted = (pq._replace(targets=pq.sources[:1] + pq.targets[1:]), mult)
        r = pq.witnesses[0]
        raised = (pq, mult[:r] + (mult[r] + 1,) + mult[r + 1 :])
        for bad in (retargeted, raised):
            assert not check(*bad) and not fresh_check(*bad), fix.label


def _seidel_composition_by_compose(dec, v, perm):
    """The `seidel_composition` check by the path it replaced: the head of
    v^2 * w as a window product, one per class."""
    m = dec.fixture.q_node
    vv = weyl.multiply(v, v)
    windows = dec.strat.pq.elements
    return all(
        set(weyl.multiply(vv, x[:m])) == set(windows[perm[perm[k]]][:m])
        for k, x in enumerate(windows)
    )


def test_gather_checks_agree_with_the_compose_path_up_to_rank_6():
    # every fixture of rank <= 6, q_node = 1 among them: the same verdicts
    # on the pipeline's own data and on a copy with one damaged edge and
    # two Seidel images swapped
    fixtures = sweep_fixtures(6, 6, 6, 6)
    assert any(fix.q_node == 1 for fix in fixtures)
    damaged_seidel = []
    for fix in fixtures:
        dec = decomp.build_decomposition(fix)
        v = seidel.v_elt(fix.rs, fix.p_node)
        perm = seidel.seidel_table(dec.strat, v)
        pq, mult = dec.strat.pq, dec.mult
        assert verify._check_chevalley_witnesses(pq, mult) and _chevalley_by_compose(pq, mult), fix.label
        assert verify._check_seidel(dec, v, perm)["seidel_composition"], fix.label
        assert _seidel_composition_by_compose(dec, v, perm), fix.label

        bad = pq._replace(targets=pq.sources[:1] + pq.targets[1:])
        assert not verify._check_chevalley_witnesses(bad, mult) and not _chevalley_by_compose(bad, mult)

        swapped = list(perm)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        verdict = verify._check_seidel(dec, v, swapped)["seidel_composition"]
        assert verdict == _seidel_composition_by_compose(dec, v, swapped), fix.label
        damaged_seidel.append((fix.q_node == 1, verdict))
    # the swap is caught with q_node = 1 and without
    assert {single for single, ok in damaged_seidel if not ok} == {True, False}


def _products_law(velems):
    """The law v_i * v_k = v_((i + k) mod (n + 1)) by all n^2 window
    products: the loop that `verify.cyclic_law` replaced."""
    n = len(velems) - 1
    return all(
        weyl.multiply(velems[i], velems[k]) == velems[(i + k) % (n + 1)]
        for i in range(1, n + 1)
        for k in range(1, n + 1)
    )


def test_cyclic_law_matches_the_products_loop():
    # on the Seidel elements of A1-A8, and on every corruption that swaps
    # two of them or replaces one by e.  A swap keeps the law only where it
    # reverses v_1..v_n into the powers of v_1^-1, at n = 2 and n = 3
    for n in range(1, 9):
        rs = rootsys.build("A", n)
        velems = (weyl.identity(rs),) + tuple(seidel.v_elt(rs, i) for i in range(1, n + 1))
        assert verify.cyclic_law(velems) and _products_law(velems), n
        e = velems[0]
        for i in range(1, n + 1):
            replaced = velems[:i] + (e,) + velems[i + 1 :]
            assert verify.cyclic_law(replaced) == _products_law(replaced) == (n == 1), (n, i)
            for j in range(i + 1, n + 1):
                swapped = list(velems)
                swapped[i], swapped[j] = velems[j], velems[i]
                law = verify.cyclic_law(tuple(swapped))
                assert law == _products_law(tuple(swapped)) == (i + j == n + 1 and n <= 3), (n, i, j)
