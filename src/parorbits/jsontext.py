"""Indented JSON text, byte for byte that of `json.dumps(obj, indent=2)`.

CPython's C encoder serves only compact output; with `indent` set,
`json.dumps` falls back to its pure-Python encoder, which walks every
value through nested generators.  `indented` builds the same text by
joining each container's items, and escapes strings with
`json.encoder.encode_basestring_ascii`, the C escaper `json.dumps` uses.
It serves the values the reports hold (`verify`, `strata`, and `diagram`
and `quantum` with `--format json`): dicts with `str` keys, lists and
tuples, `str`, `int`, `bool` and `None`, each of exactly that type.
Anything else raises TypeError, a float or a subclass included, so a value
`json.dumps` would write differently (or refuse) cannot slip through.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote


def indented(obj: object) -> str:
    """`json.dumps(obj, indent=2)` for nested dicts, lists and tuples of
    `str`, `int`, `bool` and `None`; TypeError on any other value, a
    subclass included, or on a key whose type is not exactly `str`."""
    return _text(obj, "\n")


def _text(obj: object, pad: str) -> str:
    """The text of any value, at indentation `pad`, dispatched on its exact
    type; the container loops write `str` and `int` values (and `bool`
    values in dicts) inline."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError("Object of type %s is not handled by the indented writer" % kind.__name__)
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            cls = type(value)
            if cls is str:
                text = _quote(value)
            elif cls is int:
                text = repr(value)
            elif cls is bool:
                text = "true" if value else "false"
            else:
                text = _text(value, inner)
            items.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not obj:
        return "[]"
    items = []
    for x in obj:
        cls = type(x)
        if cls is str:
            items.append(_quote(x))
        elif cls is int:
            items.append(repr(x))
        else:
            items.append(_text(x, inner))
    return "[" + inner + ("," + inner).join(items) + pad + "]"
