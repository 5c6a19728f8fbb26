"""Indented JSON text, byte for byte that of `json.dumps(obj, indent=2)`.

CPython's C encoder serves only compact output; with `indent` set,
`json.dumps` falls back to its pure-Python encoder, which walks every
value through nested generators.  `indented` builds the same text by
joining each container's items, and escapes strings with
`json.encoder.encode_basestring_ascii`, the C escaper `json.dumps` uses.
It serves the values the reports hold: dicts with `str` keys, lists and
tuples, `str`, `int`, `bool` and `None`.  Anything else raises TypeError,
a float included, so a value `json.dumps` would write differently (or
refuse) cannot slip through.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_CONSTANTS = {None: "null", True: "true", False: "false"}


def indented(obj: object) -> str:
    """`json.dumps(obj, indent=2)` for nested dicts, lists and tuples of
    `str`, `int`, `bool` and `None`; TypeError on any other value or on a
    key that is not a `str`."""
    return _text(obj, "\n")


def _text(obj: object, pad: str) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            items.append(_quote(key) + ": " + _text(value, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_text(x, inner) for x in obj]) + pad + "]"
    raise TypeError("Object of type %s is not handled by the indented writer" % type(obj).__name__)
