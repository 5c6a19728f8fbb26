"""Test-only cache control: every `functools` cache of the library.

The caches are found as the benchmark's cold-state guard finds them
(`bench/ops.py::lru_caches`), not from a fixed list: each attribute of a
loaded `parorbits` module, and of each class defined there, followed
through `__func__` and `__wrapped__`, so that a cache behind a wrapper (a
spy, the benchmark's tracer) is found too.  A test that patches a helper,
or counts calls from cold caches, clears them all first; otherwise a
result cached by an earlier test hides the patched helper or the calls.
"""

import sys


def _chain(value):
    """The value and every object behind it through `__wrapped__`."""
    seen = []
    while value is not None and not any(value is s for s in seen):
        seen.append(value)
        value = getattr(value, "__wrapped__", None)
    return seen


def lru_caches():
    """Every cache reachable from a loaded parorbits module, by label."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "parorbits" and not name.startswith("parorbits."):
            continue
        values = list(vars(module).values())
        for value in list(values):
            if isinstance(value, type) and value.__module__ == name:
                values.extend(vars(value).values())
        for value in values:
            for obj in _chain(getattr(value, "__func__", value)):
                if callable(getattr(obj, "cache_info", None)) and callable(
                    getattr(obj, "cache_clear", None)
                ):
                    found["%s.%s" % (obj.__module__.split(".", 1)[-1], obj.__qualname__)] = obj
    return found


def clear_caches():
    """Empty every cache of `lru_caches`; return them."""
    caches = lru_caches()
    for cache in caches.values():
        cache.cache_clear()
    return caches
