"""The indented JSON writer against `json.dumps(obj, indent=2)`, on chosen
values and on every JSON output the benchmark records."""

import contextlib
import hashlib
import io
import json
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import pytest

from parorbits import cli
from parorbits.jsontext import indented

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


class Kind(IntEnum):
    ONE = 1


class Point(NamedTuple):
    x: int
    label: str


class Name(str):
    pass


class Items(list):
    pass


VALUES = [
    {},
    [],
    (),
    "",
    0,
    None,
    True,
    {"a": {}, "b": [], "c": [[]], "d": {"e": {}}, "f": [{}]},
    [[[]], [{}], ()],
    ("tuple", (1, 2), [3, (4,)]),
    {"quote\"d": "back\\slash", "ctl": "\x00\x01\t\n\r\x1f\x7f"},
    {"non-ascii": "é—ω\U0001d4aa", "é": [" "]},
    [True, 1, False, 0, None],
    {"flag": True, "one": 1, "zero": 0, "off": False},
    [-1, -(2**70), 2**100, 10**30 + 7],
    {"nested": [{"deep": [{"deeper": [1, "x", None, [True]]}]}], "tail": "z"},
    [1, (2, "p"), {"point": (-3, "")}],
    {"key": "v\u00e9", "d": {"b": [1], "a": ""}},
    [["x"], {}, 1, None],
]


@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_matches_json_dumps_indent_2(value):
    assert indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.5, {"x": 0.0}, [float("nan")], {1, 2}, {"x": frozenset()}, {1: "int key"}, {None: 1}, [b"bytes"],
        # the writer dispatches on the exact type, so a subclass is refused
        # too, as a value and as a key
        Kind.ONE, [Point(2, "p")], {"v": Name("v\u00e9")}, {"d": OrderedDict(b=[1])}, Items([None]),
        {Name("key"): 1},
    ],
)
def test_refuses_floats_sets_and_non_str_keys(value):
    with pytest.raises(TypeError):
        indented(value)


def test_every_recorded_json_output_is_reproduced():
    # every argv of the benchmark's record that prints JSON (verify,
    # verify --fixture, strata, diagram and quantum --format json), run in
    # process with warm caches: the SHA-256 of its stdout is the recorded
    # one, and the writer reproduces the text from its parsed value; every
    # one of these outputs is written by `jsontext.indented`
    outputs = json.loads(EXPECTED.read_text())["outputs"]
    keys = [
        key
        for key in sorted(outputs)
        if key.split()[0] in ("verify", "strata") or key.endswith("--format json")
    ]
    assert len(keys) == 354
    mismatched = []
    for key in keys:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(key.split())
        text = buf.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (code, digest) != (0, outputs[key]) or indented(json.loads(text)) + "\n" != text:
            mismatched.append(key)
    assert not mismatched


def test_every_recorded_dot_tikz_and_csv_output_is_reproduced():
    # the benchmark's recorded DOT, TikZ and CSV argvs (diagram --format
    # dot and tikz, with and without an acting node, and quantum --format
    # csv), run in process with warm caches: each stdout has the recorded
    # SHA-256, so the window labels these print are pinned here too
    outputs = json.loads(EXPECTED.read_text())["outputs"]
    counts = {}
    mismatched = []
    for key in sorted(outputs):
        fmt = key.split()[-1]
        if fmt not in ("dot", "tikz", "csv"):
            continue
        counts[fmt] = counts.get(fmt, 0) + 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(key.split())
        if (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) != (0, outputs[key]):
            mismatched.append(key)
    assert counts == {"dot": 145, "tikz": 145, "csv": 103}
    assert not mismatched
