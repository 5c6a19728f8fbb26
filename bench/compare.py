"""Compare benchmark reports of two commits, metric by metric.

    python3 bench/compare.py --base .bench_out/A*.json --new .bench_out/B*.json

Each side is one or more reports written by ``run.py`` for one workload;
every metric is summarised by its median and quartiles over that side's
reports.  Reports whose workload or input sizes differ are not compared:
the tool refuses and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List

# Input size of a pass.  The traced run also records group_elements, a count
# of work done, which an optimisation is expected to change.
SIZE_KEYS = ("operations", "fixtures", "classes", "covers", "strata")


def load(paths: List[str]) -> List[dict]:
    out = []
    for path in paths:
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def size_key(report: dict):
    return report["workload"], tuple(report["sizes"][k] for k in SIZE_KEYS)


def summary(values: List[float]) -> str:
    if len(values) < 2:
        return "%.6g" % values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    keys = {size_key(r) for r in base + new}
    if len(keys) != 1:
        print("refused: reports differ in workload or input size:", file=sys.stderr)
        for key in sorted(keys):
            print("  %s %s" % (key[0], dict(zip(SIZE_KEYS, key[1]))), file=sys.stderr)
        return 1
    section = "per_layer" if all("per_layer" in r for r in base + new) else "end_to_end"
    names = [n for n in base[0][section] if all(n in r[section] for r in base + new)]
    print("%s, sizes %s; %d base and %d new reports" % (
        base[0]["workload"], json.dumps(base[0]["sizes"]), len(base), len(new)))
    for name in names:
        b = [r[section][name] for r in base]
        n = [r[section][name] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        change = "%+.1f%%" % (100 * (mn / mb - 1)) if mb else "n/a"
        print("  %-40s base %-32s new %-32s %s" % (name, summary(b), summary(n), change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
