"""The names that the benchmark under `bench/` reads from the library.

`bench/spans.py` traces the functions it lists in `SPAN_LAYERS` and
`COUNT_LAYERS`, and `bench/run.py` reports the hit ratio of each cache in
`CACHES`; a name that no longer resolves is a layer the benchmark loses.
The lists are read from the files' source.  `bench/ops.py`, whose
cold-state guard clears every cache between operations, is loaded from
its source with no bytecode written; nothing under `bench/` is written.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from math import prod
from pathlib import Path

import pytest

from parorbits import cli, cosets, rootsys, seidel, weyl
from parorbits.fixtures import parse_fixture

from caches import clear_caches
from roots import roots_filled

BENCH = Path(__file__).resolve().parent.parent / "bench"
LRU_CACHE = type(functools.lru_cache(maxsize=None)(lambda: None))


def _constants(filename, *names):
    """The literal values assigned at the top level of a `bench/` file."""
    found = {}
    for node in ast.parse((BENCH / filename).read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                found[target.id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(names), filename
    return found


def _bench_ops():
    """`bench/ops.py` as a fresh module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("bench_ops", BENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _resolve(layer):
    module, name = layer.split(".")
    return getattr(importlib.import_module("parorbits." + module), name, None)


def test_traced_layers_resolve_in_the_library():
    layers = _constants("spans.py", "SPAN_LAYERS", "COUNT_LAYERS")
    names = layers["SPAN_LAYERS"] + layers["COUNT_LAYERS"]
    assert "weyl.multiply" in names and "seidel.v_elt" in names
    for layer in names:
        assert callable(_resolve(layer)), layer


def test_reported_caches_are_lru_caches():
    caches = _constants("run.py", "CACHES")["CACHES"]
    pinned = {"weyl.simple_reflection", "cosets.reflection_by_index", "cosets.build_quotient"}
    assert pinned <= set(caches)
    for layer in caches:
        assert isinstance(_resolve(layer), LRU_CACHE), layer


def _order(type_label, rank):
    """|W(X_rank)|, the product of its degrees."""
    return prod(rootsys.degrees(type_label, rank))


@pytest.mark.parametrize("label", ["C4/P2+P4", "B4/P3+P1", "D6/P3+P6", "B6/P5+P1"])
def test_traced_sizes_are_the_class_count(label):
    # `bench/spans.py` sizes a miss of the enumerator by len() of its
    # result and a miss of the quotient build by len(pq.elements): both
    # are |W^Q| = |W| / |W_Q|, with |W_Q| the product over the Dynkin
    # components of J_Q
    fix = parse_fixture(label)
    rs = fix.rs
    classes = _order(rs.type_label, rs.rank) // prod(
        _order(kind, len(nodes)) for kind, nodes in rootsys.components(rs, fix.j_q)
    )
    pq = cosets.build_quotient(rs, fix.j_q)
    assert len(weyl.enumerate_group(rs, pq.nodes, fix.j_q)) == classes, label
    assert len(pq.elements) == classes, label


@pytest.mark.parametrize("label,classes", [("C3/P2+P3", 12), ("D5/P2+P5", 40)])
def test_cold_colored_diagram_multiplies_once_per_class(monkeypatch, capsys, label, classes):
    # the tracer rebinds `weyl.multiply` in every module that holds it, so
    # does this count; the cell map of each stratum is one product per class
    fix = parse_fixture(label)
    calls = []
    real = weyl.multiply

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("parorbits."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    clear_caches()
    argv = ["diagram", "--type", fix.type_label, "--rank", str(fix.rank)]
    argv += ["--grassmannian", str(fix.q_node), "--cominuscule", str(fix.p_node), "--format", "json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(calls) == classes == len(cosets.build_quotient(fix.rs, fix.j_q).elements)


def test_cleared_caches_hold_no_certified_result(monkeypatch, capsys):
    # every cache found as the cold-state guard finds them, one of them
    # behind a tracer-style wrapper: once they are cleared, the Seidel
    # element that a first run cached is built and certified again, so a
    # min_rep that returns its argument is caught
    argv = ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2"]
    assert cli.main(argv) == 0
    assert seidel.v_elt.cache_info().currsize
    real = seidel.v_elt
    monkeypatch.setattr(seidel, "v_elt", functools.wraps(real)(lambda *args: real(*args)))
    caches = clear_caches()
    shared = {
        "seidel.v_elt",
        "strata.flag_descriptor",
        "hasse.build_hasse",
        "verify._check_chevalley_witnesses",
    }
    assert shared <= set(caches)
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())
    monkeypatch.setattr(weyl, "min_rep", lambda rs, window, j_set: window)
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "not minimal" in capsys.readouterr().err


def test_cold_passes_certify_the_roots_again():
    # the root-system build stays a cache that the cold-state guard finds
    # and clears, and a root system built after it has not filled its
    # roots: every cold pass certifies them again, on their first read
    ops = _bench_ops()
    rs = rootsys.build("D", 6)
    rs.positive_roots
    caches = ops.lru_caches()
    assert caches["rootsys.build"] is rootsys.build
    assert isinstance(rootsys.build, LRU_CACHE) and "rootsys.build" in _constants("run.py", "CACHES")["CACHES"]
    ops.make_cold()
    assert rootsys.build.cache_info().currsize == 0
    fresh = rootsys.build("D", 6)
    assert fresh is not rs and roots_filled(rs) and not roots_filled(fresh)
    assert fresh.positive_roots == rs.positive_roots and roots_filled(fresh)
