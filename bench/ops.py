"""Workload inputs, the recorded-output gate and the cold-state guard.

Every operation is one argv list handed to ``parorbits.cli.main``; the
library sees nothing else.  ``expected.json`` holds, for every argv the
generators can produce, the SHA-256 of its stdout at the reference commit,
plus the size of every fixture (classes, covers, strata).  It is written by
``record.py``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("sweep-r5", "query-cold", "rank6")
DEFAULT_SEED = 1204

RANK6 = ("D6/P3+P6", "B6/P5+P1")
REFERENCE = ("C4/P2+P4", "B4/P3+P1")

# Requests per query-cold pass, per (type, rank); the reference fixtures add
# one request each.  The counts put the median inside the D4 cost cluster and
# the 90th percentile inside the D5 cluster, so that neither sits on a gap
# between clusters and moves with the seed.  D5 lists all 12 of its fixtures.
QUERY_GROUPS = (
    ("A", 2, 5), ("B", 2, 5), ("C", 2, 5),
    ("A", 3, 6), ("B", 3, 6), ("C", 3, 5),
    ("A", 4, 12), ("D", 4, 12), ("B", 4, 9), ("C", 4, 9),
    ("A", 5, 8), ("D", 5, 12), ("B", 5, 2), ("C", 5, 2),
)

# (subcommand, format); "plain" is a diagram without --cominuscule, which the
# CLI documents for types A, B and C only.
VARIANTS = (
    ("diagram", "dot"), ("diagram", "tikz"), ("diagram", "json"),
    ("plain", "dot"), ("plain", "tikz"), ("plain", "json"),
    ("strata", None), ("quantum", "csv"), ("quantum", "json"),
)


class Op(NamedTuple):
    argv: Tuple[str, ...]
    fixtures: Tuple[str, ...]  # fixture labels whose quotient the op computes
    stratified: bool  # whether the op names an acting node, hence strata

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def parse_label(label: str) -> Tuple[str, int, int, int]:
    """"C4/P2+P4" -> ("C", 4, 2, 4)."""
    head, tail = label.split("/")
    q, p = tail.split("+")
    return head[0], int(head[1:]), int(q[1:]), int(p[1:])


def query_op(label: str, variant: Tuple[str, Optional[str]]) -> Op:
    t, n, q, p = parse_label(label)
    kind, fmt = variant
    argv = ["diagram" if kind == "plain" else kind]
    argv += ["--type", t, "--rank", str(n), "--grassmannian", str(q)]
    if kind != "plain":
        argv += ["--cominuscule", str(p)]
    if fmt:
        argv += ["--format", fmt]
    return Op(tuple(argv), (label,), kind != "plain")


def _variants(type_label: str) -> List[Tuple[str, Optional[str]]]:
    return [v for v in VARIANTS if type_label != "D" or v[0] != "plain"]


def query_universe(labels) -> List[Op]:
    """Every request query-cold can draw over the given fixture labels."""
    ops = {}
    for label in labels:
        t, n, _, _ = parse_label(label)
        if 2 <= n <= 5:
            for variant in _variants(t):
                op = query_op(label, variant)
                ops.setdefault(op.key, op)
    return [ops[k] for k in sorted(ops)]


def query_ops(record: dict, seed: int) -> List[Op]:
    """One query-cold pass drawn from `seed`: fixed counts per group, seeded
    choice of fixture and request variant, seeded order."""
    rng = random.Random(seed)
    groups: Dict[Tuple[str, int], List[str]] = {}
    for label in sorted(record["fixtures"]):
        t, n, _, _ = parse_label(label)
        groups.setdefault((t, n), []).append(label)
    ops = []
    for t, n, count in QUERY_GROUPS:
        labels = list(groups[(t, n)])
        variants = _variants(t)
        rng.shuffle(labels)
        rng.shuffle(variants)
        for i in range(count):
            ops.append(query_op(labels[i % len(labels)], variants[i % len(variants)]))
    for label in REFERENCE:
        ops.append(query_op(label, rng.choice(_variants(label[0]))))
    rng.shuffle(ops)
    return ops


def workload_ops(workload: str, record: dict, seed: int) -> List[Op]:
    """The operations of one pass.  Only query-cold depends on the seed."""
    if workload == "sweep-r5":
        return [Op(("verify",), tuple(record["sweep"]), True)]
    if workload == "rank6":
        return [Op(("verify", "--fixture", label), (label,), True) for label in RANK6]
    if workload == "query-cold":
        return query_ops(record, seed)
    raise ValueError("unknown workload %r (expected one of %s)" % (workload, ", ".join(WORKLOADS)))


def load_record() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def sizes(ops: List[Op], record: dict) -> Dict[str, int]:
    """Input size of one pass; two results compare only if these agree."""
    fx = record["fixtures"]
    out = {"operations": len(ops), "fixtures": 0, "classes": 0, "covers": 0, "strata": 0}
    for op in ops:
        for label in op.fixtures:
            classes, covers, strata = fx[label]
            out["fixtures"] += 1
            out["classes"] += classes
            out["covers"] += covers
            out["strata"] += strata if op.stratified else 0
    return out


# ---------------------------------------------------------------------------
# running one operation


def import_cli():
    """Import parorbits from this checkout's src/, and refuse any other copy."""
    if not (SRC / "parorbits" / "__init__.py").is_file():
        raise SystemExit("error: no parorbits sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from parorbits import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit("error: imported parorbits from %s, not %s" % (cli.__file__, SRC))
    return cli


class Result(NamedTuple):
    seconds: float
    ok: bool
    detail: str  # why the gate failed, empty when ok


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate(key: str, rc, out: bytes, expected: Dict[str, str]) -> str:
    """Empty when the op exited 0 with the recorded stdout, else the reason."""
    if rc != 0:
        return "exit code %r" % (rc,)
    want = expected.get(key)
    if want is None:
        return "no recorded output"
    if digest(out) != want:
        return "stdout differs from the recorded digest (%d bytes)" % len(out)
    return ""


def capture(cli, op: Op, around=None) -> Tuple[float, object, bytes, str]:
    """One cli.main call, timed around the call (and the context manager
    `around`, if given) only: seconds, exit code, stdout bytes, and the
    exception that escaped (empty if none)."""
    buf = io.StringIO()
    rc, error = None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), around or contextlib.nullcontext():
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - every escape is a failure
        error = "raised %s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, rc, buf.getvalue().encode(), error


def run_op(cli, op: Op, expected: Dict[str, str], around=None) -> Result:
    seconds, rc, out, error = capture(cli, op, around)
    detail = error or gate(op.key, rc, out, expected)
    return Result(seconds, not detail, detail)


# ---------------------------------------------------------------------------
# cold-state guard


def _cache_candidates(value):
    seen = []
    while value is not None and not any(value is s for s in seen):
        seen.append(value)
        value = getattr(value, "__wrapped__", None)
    return seen


def lru_caches() -> Dict[str, object]:
    """Every functools cache reachable from a loaded parorbits.* module,
    through wrappers (``__wrapped__``) and class attributes."""
    found: Dict[str, object] = {}
    for name, mod in list(sys.modules.items()):
        if name != "parorbits" and not name.startswith("parorbits."):
            continue
        values = list(vars(mod).values())
        for value in list(values):
            if isinstance(value, type) and value.__module__ == name:
                values.extend(vars(value).values())
        for value in values:
            for obj in _cache_candidates(getattr(value, "__func__", value)):
                if callable(getattr(obj, "cache_info", None)) and callable(
                    getattr(obj, "cache_clear", None)
                ):
                    label = "%s.%s" % (obj.__module__.split(".", 1)[-1], obj.__qualname__)
                    found[label] = obj
    return found


def make_cold(stats: Optional[Dict[str, List[int]]] = None) -> None:
    """Clear every cache (adding its hits and misses to `stats`), collect
    garbage, and check that each cache is empty."""
    for label, cache in lru_caches().items():
        if stats is not None:
            info = cache.cache_info()
            entry = stats.setdefault(label, [0, 0])
            entry[0] += info.hits
            entry[1] += info.misses
        cache.cache_clear()
        if cache.cache_info().currsize != 0:
            raise RuntimeError("cache %s still holds entries after clearing" % label)
    gc.collect()
