import csv
import io
import json
import time

import pytest

from parorbits import cli, cosets, decomp, rootsys, seidel, strata, weyl
from parorbits.fixtures import Fixture, FixtureError, parse_fixture, sweep_fixtures

from corruptions import simple_root_tables_swapped
from exponents import bumped_delta, offset_coweight_table
from roots import roots_inside


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run_cli(
        capsys,
        ["list", "--max-rank-a", "2", "--max-rank-b", "2", "--max-rank-c", "2", "--max-rank-d", "4"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "A1/P1+P1  G(1,2)" in lines[0]
    assert any(line.startswith("D4/") for line in lines)
    assert not any("/P3+" in line for line in lines if line.startswith("D4"))


def test_diagram_plain_chain(capsys):
    code, out, _ = run_cli(
        capsys, ["diagram", "--type", "A", "--rank", "3", "--grassmannian", "1"]
    )
    assert code == 0
    assert out.count("->") == 3
    assert "fillcolor" not in out


def test_diagram_figure_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "diagram", "--type", "C", "--rank", "4", "--grassmannian", "2",
            "--cominuscule", "4", "--format", "dot",
        ],
    )
    assert code == 0
    assert 'class="stratum1"' in out
    assert sum(1 for line in out.splitlines() if line.startswith("  n23 [")) == 1
    assert out.count("penwidth=2") == 3


def test_diagram_tikz(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "diagram", "--type", "B", "--rank", "4", "--grassmannian", "3",
            "--cominuscule", "1", "--format", "tikz",
        ],
    )
    assert code == 0
    assert out.startswith("\\documentclass[tikz]{standalone}")


def test_strata_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["strata", "--type", "C", "--rank", "4", "--grassmannian", "2", "--cominuscule", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "IG(2,8)"
    assert [s["delta"] for s in payload["strata"]] == [0, 1, 2]
    assert [s["size"] for s in payload["strata"]] == [6, 12, 6]
    assert payload["interval_certified"]


def test_strata_og39(capsys):
    code, out, _ = run_cli(
        capsys,
        ["strata", "--type", "B", "--rank", "4", "--grassmannian", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    labels = [
        " x ".join(c["label"] for c in s["flag"]["components"]) or "pt"
        for s in payload["strata"]
    ]
    assert labels == ["OG(2,7)", "OG(3,7)", "OG(2,7)"]
    assert [s["doubling"] for s in payload["strata"]] == [False, True, False]


def test_quantum_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quantum", "--type", "A", "--rank", "3", "--grassmannian", "2", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert [int(r["q_exp"]) for r in rows] == [0, 1, 1, 1, 1, 2]


def test_quantum_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fixture"] == "C4/P2+P4" and len(payload["table"]) == 24
    images = {row["image_window"] for row in payload["table"]}
    assert len(images) == 24  # the operator permutes the classes


def test_verify_single_fixture(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--fixture", "C,4,2,4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] and payload["count"] == 1


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--max-rank-a", "2", "--max-rank-b", "2", "--max-rank-c", "2", "--max-rank-d", "4"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 18 and payload["all_pass"]
    assert payload["type_a_composition"]["pass"]


def test_verify_selftest(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--self-test-corrupt"])
    assert code == 0
    assert json.loads(out)["self_test_corrupt"]["detected"]


def test_validation_errors(capsys):
    code, _, err = run_cli(
        capsys, ["diagram", "--type", "D", "--rank", "4", "--grassmannian", "3", "--cominuscule", "1"]
    )
    assert code == 1
    assert "Picard rank 2" in err
    code, _, err = run_cli(capsys, ["diagram", "--type", "D", "--rank", "3", "--grassmannian", "1", "--cominuscule", "1"])
    assert code == 1
    code, _, err = run_cli(capsys, ["strata", "--type", "B", "--rank", "4", "--grassmannian", "3", "--cominuscule", "2"])
    assert code == 1
    assert "not cominuscule" in err


def test_determinism_across_runs(capsys):
    argv = [
        "diagram", "--type", "C", "--rank", "4", "--grassmannian", "2",
        "--cominuscule", "4", "--format", "json",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    vargv = ["verify", "--fixture", "B,4,3,1"]
    _, vfirst, _ = run_cli(capsys, vargv)
    _, vsecond, _ = run_cli(capsys, vargv)
    assert vfirst == vsecond


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "diagram.dot"
    code, out, _ = run_cli(
        capsys,
        [
            "diagram", "--type", "A", "--rank", "3", "--grassmannian", "2",
            "--cominuscule", "2", "--out", str(out_path),
        ],
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith('digraph "A3/P2+P2"')


FIGURE_ARGV = [
    "diagram", "--type", "C", "--rank", "4", "--grassmannian", "2", "--cominuscule", "4",
]


def test_failed_certificates_exit_2(monkeypatch, capsys, cold):
    # min_rep returning its argument leaves v = w_0, which has descents in J
    monkeypatch.setattr(weyl, "min_rep", lambda rs, window, j_set: window)
    code, out, err = run_cli(capsys, ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "not minimal" in err
    monkeypatch.undo()
    # a cell map without the w_min shift leaves the stratum
    monkeypatch.setattr(decomp, "phi", lambda stratum, u: u)
    code, out, err = run_cli(capsys, FIGURE_ARGV)
    assert (code, out) == (2, "")
    assert err.startswith("error: cell map") and err.count("\n") == 1
    monkeypatch.undo()
    # a failed decomposition is reported by its one witness
    monkeypatch.setattr(decomp.DecomposedDiagram, "witness", lambda self: "the witness")
    code, out, err = run_cli(capsys, FIGURE_ARGV)
    assert (code, out) == (2, "")
    assert err == "error: stratum/flag diagram mismatch in C4/P2+P4: the witness\n"
    monkeypatch.undo()
    # a failed interval certificate is reported, then exits 2
    monkeypatch.setattr(cosets, "certify_interval", lambda pq, orbits: False)
    code, out, err = run_cli(capsys, ["strata", "--type", "C", "--rank", "4", "--grassmannian", "2"])
    assert (code, err) == (2, "")
    assert json.loads(out)["interval_certified"] is False


def _refused_by_phi_map_and_diagram(capsys, message):
    """The middle stratum of C4/P2+P4 fails `phi_map` with `message`, and
    `parorbits diagram` on that fixture exits 2 naming it."""
    sts = strata.stratify(Fixture("C", 4, 2, 4)).strata
    with pytest.raises(decomp.DecompositionError, match="^" + message):
        decomp.phi_map(sts[1])
    code, out, err = run_cli(capsys, FIGURE_ARGV)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_non_injective_cell_map_refused(monkeypatch, capsys):
    # negative control: the flag quotient of the middle stratum with its
    # last element (and its length) listed twice maps 13 sources onto the
    # 12 members, each member hit, so only the count of images catches it
    real = decomp.flag_quotient

    def doubled(stratum):
        fq = real(stratum)
        if stratum.delta != 1:
            return fq
        return fq._replace(
            elements=fq.elements + fq.elements[-1:], lengths=fq.lengths + fq.lengths[-1:]
        )

    monkeypatch.setattr(decomp, "flag_quotient", doubled)
    sts = strata.stratify(Fixture("C", 4, 2, 4)).strata
    assert sts[1].delta == 1 and sts[1].size == 12
    assert len(decomp.flag_quotient(sts[1]).elements) == 13
    _refused_by_phi_map_and_diagram(capsys, "cell map is not a bijection")


def test_non_additive_cell_map_refused(monkeypatch, capsys):
    # negative control: the flag elements of lengths 0 and 1 of the middle
    # stratum swap their images, which stay members of the stratum
    real = decomp.phi

    def swapped(stratum, u):
        if stratum.delta == 1:
            fq = decomp.flag_quotient(stratum)
            a, b = fq.elements[:2]
            assert fq.lengths[:2] == (0, 1)
            u = {a: b, b: a}.get(u, u)
        return real(stratum, u)

    monkeypatch.setattr(decomp, "phi", swapped)
    _refused_by_phi_map_and_diagram(capsys, "cell map is not length-additive")


def test_witness_outside_the_positive_roots_exits_2(monkeypatch, capsys, cold):
    # a CosetError, so a failed verification: one error line, no traceback
    assert simple_root_tables_swapped(Fixture("C", 3, 3, 3), monkeypatch)
    argv = ["diagram", "--type", "C", "--rank", "3", "--grassmannian", "3", "--cominuscule", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: witness (-1,1,0) of node 2 at WC3(2,1,-3) is not a positive root\n"


def test_leaked_stop_iteration_exits_2(monkeypatch, capsys, cold):
    # a StopIteration out of a fixture's checks stops the run naming the
    # fixture; it no longer ends the type-C group as though it were done
    real = seidel.seidel_table

    def leaky(strat, v):
        if strat.pq.rs.type_label == "C":
            raise StopIteration
        return real(strat, v)

    monkeypatch.setattr(seidel, "seidel_table", leaky)
    for argv, label in ((["verify"], "C2/P1+P2"), (["verify", "--fixture", "C4/P2+P4"], "C4/P2+P4")):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: verification of %s stopped on StopIteration\n" % label, argv


def test_failed_build_certificate_exits_2(monkeypatch, capsys, cold):
    # a broken duality fails the build: a failed certificate, not bad input
    real = rootsys._double_coweights

    def perturbed(*args):
        first, *rest = real(*args)
        return ((first[0] + 2,) + first[1:], *rest)

    monkeypatch.setattr(rootsys, "_double_coweights", perturbed)
    argv = ["strata", "--type", "A", "--rank", "3", "--grassmannian", "1", "--cominuscule", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: coweight pairing broken: simple root <alpha_1, 2 omega_1^vee> = 4\n"


def test_failed_first_read_certificate_exits_2(monkeypatch, capsys, cold):
    # a dropped root fails the count of the first read of the roots
    real = rootsys._root_entries
    monkeypatch.setattr(rootsys, "_root_entries", lambda *args: list(real(*args))[1:])
    code, out, err = run_cli(capsys, ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2"])
    assert (code, out) == (2, "")
    assert err == "error: RootSystem(C4) has 15 positive roots, expected 16\n"


def test_failed_stratum_invariants_exit_2(monkeypatch, capsys):
    # a valid fixture reaches StrataError only as a failed invariant
    fix = Fixture("C", 4, 2, 4)
    sts = strata.stratify(fix).strata
    target = next(st for st in sts if st.size == 12).members[-1]
    monkeypatch.setattr(strata, "delta", bumped_delta(strata.delta, target))
    code, out, err = run_cli(capsys, ["strata"] + FIGURE_ARGV[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: stratum exponent not constant") and err.count("\n") == 1
    monkeypatch.undo()
    monkeypatch.setattr(strata, "coweight_table", offset_coweight_table(fix, 3))
    code, out, err = run_cli(capsys, ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: stratum exponent 3/2") and err.count("\n") == 1
    monkeypatch.undo()
    for argv in (
        ["verify", "--fixture", "D4/P3+P1"],
        ["strata", "--type", "C", "--rank", "2000", "--grassmannian", "1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_flag_cover_without_an_edge_exits_2(monkeypatch, capsys):
    # a flag quotient whose cover has its witness moved into Phi_J, where
    # the hyperplane class pairs to 0: the CLI builds every quotient
    # itself, so a cover with no edge is a failed certificate, not bad input
    real = decomp.flag_quotient

    def corrupted(stratum):
        fq = real(stratum)
        inside = roots_inside(fq.rs, fq.j_q)
        if not fq.witnesses or not inside:
            return fq
        return fq._replace(witnesses=(inside[0],) + fq.witnesses[1:])

    monkeypatch.setattr(decomp, "flag_quotient", corrupted)
    code, out, err = run_cli(capsys, FIGURE_ARGV)
    assert (code, out) == (2, "")
    assert err.startswith("error: cover ") and err.count("\n") == 1
    assert "has multiplicity 0: its witness lies in Phi_Q" in err


def test_diagram_fails_on_cross_edge_lowering_delta(monkeypatch, capsys):
    # within-stratum edges still match the flag diagrams, but every cross
    # edge now lowers delta; diagram and verify both reject it
    real_stratify = strata.stratify

    def reversed_deltas(fix):
        strat = real_stratify(fix)
        top = max(strat.delta)
        return strat._replace(
            strata=tuple(st._replace(delta=top - st.delta) for st in strat.strata),
            delta=tuple(top - d for d in strat.delta),
        )

    monkeypatch.setattr(strata, "stratify", reversed_deltas)
    code, out, err = run_cli(capsys, FIGURE_ARGV)
    assert (code, out) == (2, "")
    # the first cross edge is named by both windows and both deltas
    assert err == (
        "error: stratum/flag diagram mismatch in C4/P2+P4: "
        "cross edge (1,4,2,3)->(1,-4,2,3) does not raise delta: 2 -> 1\n"
    )
    code, out, _ = run_cli(capsys, ["verify", "--fixture", "C4/P2+P4"])
    assert code == 2 and json.loads(out)["fixtures"][0]["decomposition"]["all_pass"] is False


def test_parser_built_once(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run_cli(
        capsys,
        ["list", "--max-rank-a", "1", "--max-rank-b", "0", "--max-rank-c", "0", "--max-rank-d", "0"],
    )
    assert (code, out) == (0, "A1/P1+P1  G(1,2)\n")


def test_weyl_error_exits_1(monkeypatch, capsys):
    def fail(fix):
        raise weyl.WeylError("operands live in different Weyl groups")

    monkeypatch.setattr(seidel, "table_rows", fail)
    code, out, err = run_cli(capsys, ["quantum", "--type", "A", "--rank", "3", "--grassmannian", "2"])
    assert (code, out) == (1, "")
    assert err == "error: operands live in different Weyl groups\n"


def test_output_into_missing_directory_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "diagram.dot"
    code, out, err = run_cli(capsys, FIGURE_ARGV + ["--out", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.parent.exists()


def test_empty_sweep_is_not_a_pass(capsys):
    caps = ["--max-rank-a", "0", "--max-rank-b", "0", "--max-rank-c", "0", "--max-rank-d", "0"]
    for command in ("verify", "list"):
        code, out, err = run_cli(capsys, [command] + caps)
        assert (code, out) == (1, ""), command
        assert err == "error: empty sweep: the rank caps admit no fixture\n", command


def run_cli_exiting(capsys, argv):
    """Exit status, stdout and stderr of a command that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_usage_errors_exit_1_with_one_line(capsys):
    for argv in (
        ["diagram", "--type", "E", "--rank", "4", "--grassmannian", "2"],
        ["diagram", "--type", "C", "--rank", "x", "--grassmannian", "2"],
        ["verify", "--no-such-flag"],
        ["verify", "--self-test-corrupt", "--fixture", "A3/P1+P1"],
        ["verify", "--fixture", "A3/P1+P1", "--self-test-corrupt"],
        # a single fixture or the self-test sweeps nothing, so no rank cap applies
        ["verify", "--self-test-corrupt", "--max-rank-a", "1"],
        ["verify", "--fixture", "A3/P1+P1", "--max-rank-a", "1"],
        # a negative cap would sweep no fixture of its type and still pass
        ["verify", "--max-rank-b", "-1"],
        ["list", "--max-rank-a", "-5"],
        # a numeric flag holds ASCII digits only, as a label's fields do:
        # int() takes an Arabic-Indic digit, a sign, a space and an underscore
        ["strata", "--type", "C", "--rank", "\u0664", "--grassmannian", "2", "--cominuscule", "4"],
        ["strata", "--type", "C", "--rank", "+4", "--grassmannian", "2", "--cominuscule", "4"],
        ["diagram", "--type", "C", "--rank", "4", "--grassmannian", " 2", "--cominuscule", "4"],
        ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2", "--cominuscule", "0_4"],
        ["list", "--max-rank-a", "\u0662"],
        ["list", "--max-rank-c", "+2"],
        ["list", "--max-rank-b", " 3"],
        ["list", "--max-rank-d", "0_4"],
        ["strata", "--type", "C", "--rank", "4", "--grassmannian", "2", "--certify", "off"],
        [],
    ):
        code, out, err = run_cli_exiting(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # int() takes each of the last four (a space, a sign, an Arabic-Indic
    # four and an underscore), but a numeric field holds ASCII digits only
    for label in (
        "C,x,2,4", "", "C4/X2+Y4", "C4/22+34",
        "C4/P 2+P4", "C,+4,2,4", "B\u0664/P1+P1", "A3/P1_0+P1",
    ):
        code, out, err = run_cli(capsys, ["verify", "--fixture", label])
        assert (code, out) == (1, ""), label
        assert err.startswith("error: cannot parse fixture") and err.count("\n") == 1


def test_every_fixture_label_parses_in_both_forms():
    # the node fields of a label must start with P; every canonical label
    # of rank <= 6 and A7 (the benchmark's among them) and its comma form
    # still parse
    for fix in sweep_fixtures(7, 6, 6, 6):
        assert parse_fixture(fix.label) == fix
        comma = "%s,%d,%d,%d" % (fix.type_label, fix.rank, fix.q_node, fix.p_node)
        assert parse_fixture(comma) == fix
    for label in ("C4/X2+Y4", "C4/22+34", "C4/P2+Y4", "C4/X2+P4"):
        with pytest.raises(FixtureError, match="cannot parse fixture"):
            parse_fixture(label)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["diagram", "--help"]):
        code, out, _ = run_cli_exiting(capsys, argv)
        assert code == 0 and out.startswith("usage: parorbits")


def test_group_size_bound_refused_before_enumeration(monkeypatch, capsys):
    # a quotient past the bound on |W^Q|, or a rank past the cap, is refused
    # before its root system is built, let alone a quotient enumerated
    def unreachable(name):
        def refuse(*args):
            raise AssertionError("%s reached for %r" % (name, args))

        return refuse

    monkeypatch.setattr(rootsys, "build", unreachable("rootsys.build"))
    monkeypatch.setattr(weyl, "enumerate_group", unreachable("enumerate_group"))
    for argv, refusal in (
        (
            ["diagram", "--type", "C", "--rank", "11", "--grassmannian", "6", "--cominuscule", "11"],
            "C11/P6: |W^Q| exceeds the enumeration bound 16384",
        ),
        (
            ["strata", "--type", "A", "--rank", "16", "--grassmannian", "8"],
            "A16/P8: |W^Q| exceeds the enumeration bound 16384",
        ),
        (["verify", "--fixture", "B12/P6+P1"], "B12/P6: |W^Q| exceeds the enumeration bound 16384"),
        # |W^Q| = 4,000 is within the bound, but the rank is not
        (
            ["diagram", "--type", "C", "--rank", "2000", "--grassmannian", "1"],
            "C2000: rank exceeds the bound 64",
        ),
        (
            ["strata", "--type", "D", "--rank", str(10**6), "--grassmannian", "2", "--cominuscule", "1"],
            "D1000000: rank exceeds the bound 64",
        ),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out, err) == (1, "", "error: %s\n" % refusal), argv
    monkeypatch.undo()
    # a sweep is refused at its first fixture past the bound
    code, out, err = run_cli(capsys, ["list", "--max-rank-c", "11"])
    assert (code, out, err) == (1, "", "error: C11/P6: |W^Q| exceeds the enumeration bound 16384\n")
