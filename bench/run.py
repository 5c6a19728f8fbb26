"""parorbits benchmark: times the CLI entry point from outside and gates every
output byte against the digests in ``expected.json``.

    python3 bench/run.py --workload sweep-r5|query-cold|rank6 \\
        [--seed N] [--seconds S] [--trace 0|1]

A run measures set-up in fresh interpreters, then runs passes of the
workload back to back, single-threaded, until ``--seconds`` have gone by
(at least one pass).  A pass is a fixed list of ``parorbits.cli.main`` argv
lists; ``wall_s`` of a pass is the sum of its calls' times, scaled to a
reference host speed measured by a probe around and during each call (see
README.md).  With ``--trace 1`` untraced and traced passes alternate, and
the per-layer metrics come from the traced ones.

The report (sizes, environment, every metric) is printed and written to
``.bench_out/``; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List

import ops
import spans

OUT = ops.ROOT / ".bench_out"
SETUP_REPEATS = 7
PROBE_REFERENCE_S = 0.015  # speed-probe time that defines the reference host speed
SAMPLE_INTERVAL_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

CACHES = (
    "rootsys.build",
    "weyl.simple_reflection",
    "weyl.enumerate_group",
    "cosets.reflection_by_index",
    "cosets.build_quotient",
)


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in spans.SPAN_LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
        units[layer + ".errors"] = "count"
    for layer in spans.COUNT_LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".errors"] = "count"
    for cache in CACHES:
        units[cache + ".hit_ratio"] = "ratio"
    units.update(
        {
            "weyl.enumerate_group.elements": "count",
            "cosets.quotient_yield": "ratio",
            "strata.stratify.calls_per_fixture": "ratio",
            "strata.delta.calls_per_class": "ratio",
            "seidel.seidel_table.calls_per_fixture": "ratio",
            "verify.verify_fixture.p50_ms": "ms",
            "verify.verify_fixture.p90_ms": "ms",
            "trace.overhead_frac": "ratio",
            "trace.top_span_coverage": "ratio",
        }
    )
    return units


PER_LAYER = per_layer_units()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank q-percentile of `count` samples."""
    return count - max(1, math.ceil(q * count))


# ---------------------------------------------------------------------------
# host speed


def speed_probe(rank: int = 4, reps: int = 3) -> float:
    """Seconds for a fixed pure-Python job shaped like the library's hot path
    (signed-permutation tuples, dict lookups, Fractions) but independent of
    it: breadth-first enumeration of the hyperoctahedral group of `rank`."""
    t0 = time.perf_counter()
    for _ in range(reps):
        gens = []
        for k in range(rank - 1):
            g = list(range(1, rank + 1))
            g[k], g[k + 1] = g[k + 1], g[k]
            gens.append(tuple(g))
        gens.append(tuple(range(1, rank)) + (-rank,))
        start = tuple(range(1, rank + 1))
        seen = {start: Fraction(0)}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    v = tuple(w[b - 1] if b > 0 else -w[-b - 1] for b in g)
                    if v not in seen:
                        seen[v] = sum((Fraction(x, 2) for x in v if x < 0), Fraction(0))
                        nxt.append(v)
            frontier = nxt
    if len(seen) != 2**rank * math.factorial(rank):
        raise RuntimeError("speed probe enumerated %d elements" % len(seen))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


# Runs in a fresh interpreter: time the import of parorbits and the building
# of the pass, then the host speed right after.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import ops
record = ops.load_record()
ops.import_cli()
ops.workload_ops(sys.argv[2], record, int(sys.argv[3]))
seconds = time.perf_counter() - t0
import run
probes = [run.speed_probe() for _ in range(5)]
print(seconds, run.PROBE_REFERENCE_S * len(probes) / sum(probes))
"""


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up seconds at reference speed, one per fresh interpreter."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ops.HERE), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ops.ROOT)
        if proc.returncode != 0:
            raise SystemExit("error: set-up probe failed: %s" % proc.stderr.strip())
        seconds, speed = proc.stdout.split()
        times.append(float(seconds) * float(speed))
    return times


# ---------------------------------------------------------------------------
# passes


class InOpProbes:
    """Context manager that runs the speed probe from a SIGALRM handler,
    between bytecodes of the code it surrounds, SAMPLE_INTERVAL_S after
    entry and after the end of each probe (a one-shot timer, re-armed by the
    handler, so probes never nest).  `samples` holds the probe times,
    `spent` the handlers' total time, which the caller takes out of the
    surrounding timing.  With a tracer, each probe is also recorded as a
    span."""

    def __init__(self, tracer=None):
        self.samples: List[float] = []
        self.spent = 0.0
        self.tracer = tracer
        self._armed = False

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(speed_probe())
        t1 = time.perf_counter()
        self.spent += t1 - t0
        if self.tracer is not None:
            self.tracer.record_probe(t0, t1)
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_pass(cli, workload: str, pass_ops, expected, tracer=None) -> dict:
    """One pass.  query-cold and rank6 clear every cache after each op,
    sweep-r5 only after the pass, so each op (pass) starts cold.

    Host speed is sampled by one probe before each op, one after it and one
    every SAMPLE_INTERVAL_S during it.  An op's time at reference speed is
    its time, less the in-op probes, times the reference probe time over the
    mean of its probes."""
    cold_each = workload != "sweep-r5"
    cache_stats: Dict[str, List[int]] = {}
    if tracer is not None:
        first, before = len(tracer.spans), tracer.counters()
        tracer.install()
    try:
        raw, op_s, failed = [], [], []
        probe_before = speed_probe()
        for op in pass_ops:
            in_op = InOpProbes(tracer)
            result = ops.run_op(cli, op, expected, in_op)
            if not result.ok:
                failed.append((op.key, result.detail))
            if cold_each:
                ops.make_cold(cache_stats)
            probe_after = speed_probe()
            probes = [probe_before] + in_op.samples + [probe_after]
            raw.append(result.seconds - in_op.spent)
            op_s.append(raw[-1] * PROBE_REFERENCE_S * len(probes) / sum(probes))
            probe_before = probe_after
    finally:
        if tracer is not None:
            tracer.remove()
    if not cold_each:
        ops.make_cold(cache_stats)
    out = {
        "traced": tracer is not None,
        "raw_wall_s": sum(raw),
        "wall_s": sum(op_s),
        "op_s": op_s,
        "failed": failed,
        "cache_stats": cache_stats,
    }
    if tracer is not None:
        after = tracer.counters()
        out["spans"] = (first, len(tracer.spans))
        out["counters"] = {k: after[k] - before[k] for k in after}
    return out


def run_passes(cli, workload, pass_ops, expected, seconds, tracer) -> List[dict]:
    """Passes until `seconds` have gone by; with a tracer, untraced and
    traced passes alternate and at least one of each runs."""
    passes: List[dict] = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, workload, pass_ops, expected, tracer if traced else None))
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - t0 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def op_medians(passes) -> List[float]:
    """Each op's median time over the passes; every pass runs the same ops."""
    return [statistics.median(times) for times in zip(*(p["op_s"] for p in passes))]


def end_to_end(passes, size, setup_times) -> Dict[str, float]:
    wall = statistics.median(p["wall_s"] for p in passes)
    per_op = op_medians(passes)
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "classes_per_s": size["classes"] / wall,
        "op_p50_ms": 1000 * percentile(per_op, 0.5),
        "op_p90_ms": 1000 * percentile(per_op, 0.9),
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer, p, size) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summary = tracer.summarize(*p["spans"])
    counters = p["counters"]
    values: Dict[str, float] = {}
    for layer in spans.SPAN_LAYERS:
        values[layer + ".self_s"] = summary["self_s"][layer]
        values[layer + ".calls"] = summary["calls"][layer]
        values[layer + ".errors"] = counters[layer + ".errors"]
    for layer in spans.COUNT_LAYERS:
        values[layer + ".calls"] = counters[layer + ".calls"]
        values[layer + ".errors"] = counters[layer + ".errors"]
    for cache in CACHES:
        hits, misses = p["cache_stats"].get(cache, (0, 0))
        values[cache + ".hit_ratio"] = _ratio(hits, hits + misses)
    elements = counters["group_elements"]
    values["weyl.enumerate_group.elements"] = elements
    values["cosets.quotient_yield"] = _ratio(counters["quotient_classes"], elements)
    values["strata.stratify.calls_per_fixture"] = summary["calls"]["strata.stratify"] / size["fixtures"]
    values["strata.delta.calls_per_class"] = summary["calls"]["strata.delta"] / size["classes"]
    values["seidel.seidel_table.calls_per_fixture"] = (
        summary["calls"]["seidel.seidel_table"] / size["fixtures"]
    )
    values["trace.top_span_coverage"] = _ratio(summary["top_s"], p["raw_wall_s"])
    return values


def per_layer(tracer, passes, size) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    each = [layer_values(tracer, p, size) for p in traced]
    metrics = {name: statistics.median(v[name] for v in each) for name in each[0]}
    verify_ms = [
        1000 * d
        for p in traced
        for d in tracer.summarize(*p["spans"])["durations"]["verify.verify_fixture"]
    ]
    metrics["verify.verify_fixture.p50_ms"] = percentile(verify_ms, 0.5)
    metrics["verify.verify_fixture.p90_ms"] = percentile(verify_ms, 0.9)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
        - 1
    )
    return metrics


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=ops.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = ops.import_cli()
    record = ops.load_record()
    pass_ops = ops.workload_ops(args.workload, record, args.seed)
    if not pass_ops:
        raise SystemExit("error: workload %s has no operations" % args.workload)
    size = ops.sizes(pass_ops, record)
    setup_times = measure_setup(args.workload, args.seed)

    tracer = spans.Tracer() if args.trace else None
    ops.make_cold()
    passes = run_passes(cli, args.workload, pass_ops, record["outputs"], args.seconds, tracer)

    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    e2e = end_to_end([p for p in passes if not p["traced"]], size, setup_times)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": size,
        "environment": environment(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "setup_s": setup_times,
        "op_p90_beyond": beyond(len(pass_ops), 0.9),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": e2e,
    }
    correct = not failures
    if tracer is not None:
        layers = per_layer(tracer, passes, size)
        report["per_layer"] = layers
        report["sizes"]["group_elements"] = layers["weyl.enumerate_group.elements"]
        report["missing_layers"] = tracer.missing
        coverage = layers["trace.top_span_coverage"]
        report["coverage_ok"] = abs(coverage - 1) <= 0.1
        correct = correct and report["coverage_ok"]
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / (stem + "-spans.json.gz"))

    print(
        "%s seed=%d: %d passes, %d ops (op p90 has %d beyond), fail_frac=%.4f; sizes %s"
        % (args.workload, args.seed, len(passes), attempted, report["op_p90_beyond"],
           report["fail_frac"], json.dumps(report["sizes"]))
    )
    print("environment %s" % json.dumps(report["environment"]))
    for failure in failures[:5]:
        print("FAILED %s: %s" % failure)
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
