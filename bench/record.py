"""Record the reference outputs that the benchmark's gate compares against.

Run once, at the commit whose outputs are the reference:

    python3 bench/record.py

It writes ``bench/expected.json``: the SHA-256 of the stdout of every
operation any workload can run, and the size (classes, covers, strata) of
every fixture those operations touch.  Every operation runs cold.  An
operation that raises or exits non-zero stops the recording.
"""

from __future__ import annotations

import json
import sys

import ops


def main() -> int:
    cli = ops.import_cli()
    from parorbits import strata
    from parorbits.fixtures import parse_fixture, sweep_fixtures

    sweep = [fix.label for fix in sweep_fixtures()]
    fixtures = {}
    for label in sweep + list(ops.RANK6):
        pq, sts = strata.stratify(parse_fixture(label))
        fixtures[label] = [len(pq.elements), len(pq.covers), len(sts)]
    record = {"sweep": sweep, "fixtures": fixtures, "outputs": {}}

    all_ops = ops.query_universe(sweep)
    all_ops += ops.workload_ops("sweep-r5", record, 0) + ops.workload_ops("rank6", record, 0)
    for k, op in enumerate(all_ops):
        ops.make_cold()
        seconds, rc, out, error = ops.capture(cli, op)
        if error or rc != 0:
            print("error: %s: %s" % (op.key, error or "exit code %r" % (rc,)), file=sys.stderr)
            return 1
        record["outputs"][op.key] = ops.digest(out)
        print("%d/%d %.3fs %s" % (k + 1, len(all_ops), seconds, op.key), file=sys.stderr)

    with open(ops.EXPECTED, "w") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(record["outputs"]), ops.EXPECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
