"""Command-line driver.

Subcommands: diagram, strata, quantum, verify, list.  All mathematics
lives in the library modules; this file only parses flags, dispatches,
and formats.  Exit codes: 0 success, 1 validation error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import List, Optional

from . import cosets, decomp, hasse, rootsys, seidel, strata, verify
from .fixtures import DEFAULT_MAX_RANK, Fixture, FixtureError, decimal, parse_fixture, sweep_fixtures
from .jsontext import indented
from .rootsys import RootSystemError
from .weyl import WeylError

# Library errors by exit code: 1 for input the program cannot serve (including
# an --out path it cannot write), 2 for a failed certificate or invariant; a
# validated Fixture reaches CosetError and StrataError only as the latter, and
# HasseError too, as a cover of a quotient with no edge is a failed certificate.
# RootDataError is a RootSystemError, so `main` tests the second tuple first.
INPUT_ERRORS = (FixtureError, RootSystemError, WeylError, OSError)
VERIFICATION_ERRORS = (
    rootsys.RootDataError,
    verify.VerifyError,
    seidel.SeidelError,
    decomp.DecompositionError,
    cosets.CosetError,
    strata.StrataError,
    hasse.HasseError,
)


def _fixture_from_args(args) -> Fixture:
    missing = [
        name
        for name, value in (
            ("--type", args.type),
            ("--rank", args.rank),
            ("--grassmannian", args.grassmannian),
        )
        if value is None
    ]
    if missing:
        raise FixtureError("missing required flags: %s" % ", ".join(missing))
    p_node = args.cominuscule
    if p_node is None:
        if args.type == "A":
            p_node = args.grassmannian
        elif args.type == "D":
            raise FixtureError("type D needs --cominuscule (one of 1, rank-1, rank)")
        else:  # B and C have a single cominuscule node
            (p_node,) = rootsys.cominuscule_nodes(args.type, args.rank)
    return Fixture(args.type, args.rank, args.grassmannian, p_node)


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_diagram(args) -> int:
    fix = _fixture_from_args(args)
    if args.cominuscule is None:
        _write_output(decomp.emit_plain(fix, args.format), args.out)
        return 0
    dec = decomp.build_decomposition(fix)
    witness = dec.witness()
    if witness is not None:
        print("error: stratum/flag diagram mismatch in %s: %s" % (fix.label, witness), file=sys.stderr)
        return 2
    _write_output(decomp.emit(dec, args.format), args.out)
    return 0


def cmd_strata(args) -> int:
    fix = _fixture_from_args(args)
    strat = strata.stratify(fix)
    certified = cosets.certify_interval(strat.pq, [st.members for st in strat.strata])
    payload = {
        "fixture": fix.label,
        "space": fix.space_label,
        "classes": len(strat.pq.elements),
        "strata": [strata.stratum_json(st) for st in strat.strata],
        "interval_certified": certified,
    }
    _write_output(indented(payload) + "\n", args.out)
    return 0 if certified else 2


def cmd_quantum(args) -> int:
    fix = _fixture_from_args(args)
    rows = seidel.table_rows(fix)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["window", "length", "q_exp", "image_window"], lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = indented({"fixture": fix.label, "table": rows}) + "\n"
    _write_output(text, args.out)
    return 0


SWEEP_CAPS = ("max_rank_a", "max_rank_b", "max_rank_c", "max_rank_d")


def _caps(args) -> List[int]:
    """The sweep's rank caps, `DEFAULT_MAX_RANK` for each one not given."""
    caps = (getattr(args, c) for c in SWEEP_CAPS)
    return [DEFAULT_MAX_RANK if cap is None else cap for cap in caps]


def cmd_verify(args) -> int:
    # the self-test and a single fixture sweep nothing: a cap would be ignored
    # or would only cut the fixture's type A composition report short
    given = [c for c in SWEEP_CAPS if getattr(args, c) is not None]
    if given and (args.self_test_corrupt or args.fixture is not None):
        other = "--self-test-corrupt" if args.self_test_corrupt else "--fixture"
        _PARSER.error("argument --%s: not allowed with argument %s" % (given[0].replace("_", "-"), other))
    if args.self_test_corrupt:
        payload = verify.corrupted_oracle_selftest()
        _write_output(indented(payload) + "\n", args.out)
        return 0 if payload["self_test_corrupt"]["detected"] else 2
    fixture = parse_fixture(args.fixture) if args.fixture is not None else None
    report = verify.run_verify(*_caps(args), fixture=fixture)
    _write_output(indented(report) + "\n", args.out)
    return 0 if report["all_pass"] else 2


def cmd_list(args) -> int:
    fixtures = sweep_fixtures(*_caps(args))
    lines = ["%s  %s" % (fix.label, fix.space_label) for fix in fixtures]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse answers a malformed command line with a usage block and exit
    # 2; report it like any other bad input: one `error:` line, exit 1.
    # Subparsers are built from the same class, so they inherit this.
    def error(self, message):
        self.exit(1, "error: %s\n" % message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parorbits",
        description="Parabolic orbit strata, Seidel quantum tables and Hasse "
        "diagram decompositions of classical Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fixture_flags(p):
        p.add_argument("--type", choices=["A", "B", "C", "D"], help="Dynkin type")
        # numbers are ASCII digits, as in a fixture label
        p.add_argument("--rank", type=decimal, help="rank of the root system")
        p.add_argument(
            "--grassmannian", type=decimal, help="node of the maximal parabolic defining X"
        )
        p.add_argument(
            "--cominuscule", type=decimal, help="cominuscule node of the acting parabolic"
        )
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("diagram", help="emit the orbit-colored Hasse diagram")
    add_fixture_flags(p)
    p.add_argument("--format", choices=["dot", "tikz", "json"], default="dot")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("strata", help="stratification report (JSON)")
    add_fixture_flags(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("quantum", help="Seidel quantum product table")
    add_fixture_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_quantum)

    def add_sweep_flags(p):
        # no default here, so that cmd_verify can tell a cap given from none;
        # a cap of digits is never negative, which would sweep nothing and pass
        for cap in SWEEP_CAPS:
            p.add_argument("--" + cap.replace("_", "-"), type=decimal)
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("verify", help="run every invariant suite over a sweep")
    add_sweep_flags(p)
    # the self-test corrupts a fixed fixture of its own, so it takes no other
    only = p.add_mutually_exclusive_group()
    only.add_argument("--fixture", help="single fixture, e.g. C,4,2,4 or C4/P2+P4")
    only.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="negative control: corrupt a stratum and require detection",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list", help="enumerate supported fixtures")
    add_sweep_flags(p)
    p.set_defaults(func=cmd_list)

    return parser


# built once: a CLI process pays for it once, and so does an in-process caller
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except VERIFICATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
