"""Runtime tracing of parorbits layers, installed from outside the library.

``Tracer.install()`` rebinds each traced public function, in every loaded
``parorbits.*`` module that holds it, to a wrapper; ``remove()`` puts the
originals back.  Span layers record ``(layer, start, end, parent)`` in
memory; count layers (hot helpers) only count calls.  Both count the
exceptions that escape them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Dict, List, Tuple

SPAN_LAYERS = (
    "cli.main",
    "verify.verify_fixture",
    "rootsys.build",
    "weyl.enumerate_group",
    "cosets.build_quotient",
    "cosets.double_cosets",
    "cosets.certify_interval",
    "strata.stratify",
    "strata.delta",
    "hasse.build_hasse",
    "decomp.build_decomposition",
    "decomp.phi_map",
    "decomp.emit",
    "decomp.emit_plain",
    "seidel.v_elt",
    "seidel.seidel_table",
)
COUNT_LAYERS = ("weyl.multiply", "weyl.min_rep", "weyl.bruhat_leq")

# Span layers that are cached: on a miss, add the size of what was built.
MISS_SIZES = {
    "weyl.enumerate_group": ("group_elements", len),
    "cosets.build_quotient": ("quotient_classes", lambda pq: len(pq.elements)),
}

# The benchmark's host-speed probe, run from a signal handler inside traced
# code; recorded as a span so that no layer's self time includes it.
PROBE = "bench.speed_probe"

Span = Tuple[int, float, float, int]  # layer index, start, end, parent span (-1: none)


class Tracer:
    def __init__(self):
        self.layers = SPAN_LAYERS + COUNT_LAYERS + (PROBE,)
        self.spans: List[Span] = []
        self.calls = {name: [0] for name in COUNT_LAYERS}
        self.errors = {name: [0] for name in SPAN_LAYERS + COUNT_LAYERS}
        self.built = {key: [0] for key, _ in MISS_SIZES.values()}
        self.missing: List[str] = []
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        index = self.layers.index(layer)
        spans, stack, errors = self.spans, self._stack, self.errors[layer]
        clock = time.perf_counter
        miss = MISS_SIZES.get(layer) if hasattr(fn, "cache_info") else None
        if miss is not None:
            built, size_of = self.built[miss[0]], miss[1]

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            misses = fn.cache_info().misses if miss is not None else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[0] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (index, t0, t1, parent)
            if miss is not None and fn.cache_info().misses > misses:
                built[0] += size_of(result)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        calls, errors = self.calls[layer], self.errors[layer]

        def wrapper(*args, **kwargs):
            calls[0] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[0] += 1
                raise

        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("parorbits.")]
        self.missing = []
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            mod_name, func_name = layer.split(".")
            original = getattr(sys.modules.get("parorbits." + mod_name), func_name, None)
            if original is None:
                self.missing.append(layer)
                continue
            make = self._span_wrapper if layer in SPAN_LAYERS else self._count_wrapper
            wrapper = functools.update_wrapper(make(layer, original), original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))

    def remove(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def record_probe(self, t0: float, t1: float) -> None:
        self.spans.append((len(self.layers) - 1, t0, t1, self._stack[-1]))

    # -- readings -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter, for differencing across a pass."""
        out = {"%s.calls" % k: v[0] for k, v in self.calls.items()}
        out.update(("%s.errors" % k, v[0]) for k, v in self.errors.items())
        out.update((k, v[0]) for k, v in self.built.items())
        return out

    def summarize(self, start: int, stop: int) -> dict:
        """Per-layer calls, self seconds and span durations over
        spans[start:stop].  Self time is a span's duration minus that of its
        direct children; durations and `top_s` (top-level spans) leave out
        the probe spans nested in them."""
        probe = len(self.layers) - 1
        calls = {name: 0 for name in SPAN_LAYERS}
        own = {name: 0.0 for name in SPAN_LAYERS}
        durations: Dict[str, List[float]] = {name: [] for name in SPAN_LAYERS}
        children = [0.0] * (stop - start)
        probed = [0.0] * (stop - start)
        top = 0.0
        for sid in range(start, stop):
            index, t0, t1, parent = self.spans[sid]
            if parent >= start:
                children[parent - start] += t1 - t0
            while index == probe and parent >= start:
                probed[parent - start] += t1 - t0
                parent = self.spans[parent][3]
        for sid in range(start, stop):
            index, t0, t1, parent = self.spans[sid]
            if index == probe:
                continue
            name = self.layers[index]
            duration = t1 - t0 - probed[sid - start]
            calls[name] += 1
            own[name] += t1 - t0 - children[sid - start]
            durations[name].append(duration)
            if parent < 0:
                top += duration
        return {"calls": calls, "self_s": own, "durations": durations, "top_s": top}

    def write(self, path) -> None:
        """All spans as gzipped JSON: layer names, then [layer, start, end, parent]."""
        with gzip.open(path, "wt") as fh:
            json.dump({"layers": list(self.layers), "spans": self.spans}, fh, separators=(",", ":"))
