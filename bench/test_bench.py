"""The benchmark's own tests:  python3 -m pytest bench -q"""

import json

import pytest

import compare
import ops
import run
import spans

CHEAP = ops.query_op("A2/P1+P1", ("strata", None))


@pytest.fixture(scope="module")
def cli():
    return ops.import_cli()


@pytest.fixture(scope="module")
def record():
    return ops.load_record()


def test_gate_passes_recorded_output_and_fails_one_altered_byte(cli, record):
    ops.make_cold()
    _, rc, out, error = ops.capture(cli, CHEAP)
    assert not error and rc == 0
    assert ops.gate(CHEAP.key, rc, out, record["outputs"]) == ""
    altered = out[:10] + bytes([out[10] ^ 1]) + out[11:]
    assert "differs" in ops.gate(CHEAP.key, rc, altered, record["outputs"])
    assert ops.gate(CHEAP.key, 2, out, record["outputs"]) == "exit code 2"
    assert ops.gate("not a recorded op", 0, out, record["outputs"]) == "no recorded output"


def test_run_op_counts_a_wrong_digest_and_an_exception_as_failed(cli, record):
    wrong = dict(record["outputs"])
    wrong[CHEAP.key] = "0" * 64
    assert not ops.run_op(cli, CHEAP, wrong).ok
    bad = ops.Op(("strata", "--type", "Z"), (), False)
    result = ops.run_op(cli, bad, record["outputs"])
    assert not result.ok and "SystemExit" in result.detail
    passed = run.run_pass(cli, "query-cold", [CHEAP, CHEAP], wrong)
    assert len(passed["failed"]) == 2


def test_empty_workload_is_an_error(monkeypatch):
    monkeypatch.setattr(ops, "workload_ops", lambda *args: [])
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "query-cold"])
    assert exc.value.code not in (0, None)


def test_generator_is_seeded_and_stays_inside_the_record(record):
    first = ops.query_ops(record, 7)
    assert first == ops.query_ops(record, 7)
    assert first != ops.query_ops(record, 8)
    expected_count = sum(c for _, _, c in ops.QUERY_GROUPS) + len(ops.REFERENCE)
    for seed in range(20):
        drawn = ops.query_ops(record, seed)
        assert len(drawn) == expected_count >= 100
        assert all(op.key in record["outputs"] for op in drawn)
        labels = {op.fixtures[0] for op in drawn}
        assert set(ops.REFERENCE) <= labels
    for workload in ops.WORKLOADS:
        assert all(op.key in record["outputs"] for op in ops.workload_ops(workload, record, 1))


def test_cold_guard_finds_and_empties_every_cache(cli, record):
    ops.run_op(cli, CHEAP, record["outputs"])
    caches = ops.lru_caches()
    assert set(run.CACHES) <= set(caches)
    assert any(c.cache_info().currsize for c in caches.values())
    stats = {}
    ops.make_cold(stats)
    assert all(c.cache_info().currsize == 0 for c in caches.values())
    assert sum(misses for _, misses in stats.values()) > 0


def test_tracer_spans_partition_the_top_level_and_uninstall(cli, record, monkeypatch):
    from parorbits import cli as cli_module, cosets, weyl

    monkeypatch.setattr(run, "SAMPLE_INTERVAL_S", 0.002)  # probes inside a short op
    op = ops.query_op("C3/P2+P3", ("diagram", "json"))
    original = (cli_module.main, weyl.multiply, cosets.build_quotient)
    tracer = spans.Tracer()
    tracer.install()
    assert set(run.CACHES) <= set(ops.lru_caches())  # found through the wrappers
    tracer.remove()
    assert (cli_module.main, weyl.multiply, cosets.build_quotient) == original
    ops.make_cold()
    passed = run.run_pass(cli, "query-cold", [op], record["outputs"], tracer)
    assert (cli_module.main, weyl.multiply, cosets.build_quotient) == original
    assert not passed["failed"] and not tracer.missing
    probes = [s for s in tracer.spans if tracer.layers[s[0]] == spans.PROBE]
    assert probes and all(s[3] >= 0 for s in probes)
    summary = tracer.summarize(*passed["spans"])
    assert summary["calls"]["cli.main"] == 1
    assert passed["counters"]["weyl.multiply.calls"] > 0
    assert passed["counters"]["group_elements"] > 0
    assert sum(summary["self_s"].values()) == pytest.approx(summary["top_s"], rel=1e-6)
    assert summary["top_s"] <= passed["raw_wall_s"]


def test_benchmark_json_names_every_metric_the_harness_prints():
    with open(ops.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(ops.WORKLOADS)


def test_compare_refuses_reports_of_different_sizes(tmp_path, capsys):
    report = {"workload": "rank6", "sizes": dict.fromkeys(compare.SIZE_KEYS, 1),
              "end_to_end": {"wall_s": 1.0}}
    other = json.loads(json.dumps(report))
    other["sizes"]["classes"] = 2
    paths = []
    for k, r in enumerate((report, report, other)):
        paths.append(tmp_path / ("r%d.json" % k))
        paths[-1].write_text(json.dumps(r))
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 0
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[2])]) == 1
    assert "refused" in capsys.readouterr().err


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.beyond(100, 0.9) == 10
    passes = [{"op_s": [1.0, 5.0]}, {"op_s": [3.0, 1.0]}, {"op_s": [2.0, 3.0]}]
    assert run.op_medians(passes) == [2.0, 3.0]
    assert run.speed_probe() > 0
