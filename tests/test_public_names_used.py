"""Guard against regrowth: every public name of the library is used by it.

A public top-level function or class of `src/parorbits`, or a public
method of a public class, that no code in `src/parorbits` refers to
outside its own definition is either dead or serves only the tests, and
test-only code lives under `tests/`.  References are matched by name
(`f(...)`, `x.f`), so two definitions that share a name share their uses.
Likewise every field of a record, a `NamedTuple` or a class with
`__slots__`, is read as an attribute (`x.field`) somewhere in
`src/parorbits`: a field that only the tests read is a test-only wrapper
around what its readers already hold.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parorbits"

EXEMPT = {
    # only the tests and the benchmark call it: the benchmark counts its
    # calls, so it stays until the benchmark stops counting it
    "weyl.bruhat_leq",
}


def _references(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name), node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield "%s.%s.%s" % (module, node.name, item.name), item


def test_every_public_name_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        qualified
        for module, tree in trees.items()
        for qualified, node in _public_definitions(tree, module)
        if qualified not in EXEMPT and uses[node.name] <= _references(node)[node.name]
    ]
    assert not unused, "public names that no code in src/parorbits uses: %s" % ", ".join(unused)


def _named_tuple_fields(tree, module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) == "NamedTuple"
            for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield "%s.%s.%s" % (module, node.name, item.target.id), item.target.id


def _slotted_fields(tree, module):
    """The fields of each class that assigns `__slots__`, read from the
    class itself, as the tuple may be built from names."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
            for item in node.body
        ):
            cls = getattr(importlib.import_module("parorbits." + module), node.name)
            for field in cls.__slots__:
                yield "%s.%s.%s" % (module, node.name, field), field


def test_every_record_field_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    fields = [f for module, tree in trees.items() for f in _named_tuple_fields(tree, module)]
    slotted = [f for module, tree in trees.items() for f in _slotted_fields(tree, module)]
    assert len(fields) > 30
    assert {q.rsplit(".", 1)[0] for q, _ in slotted} == {"rootsys.RootSystem", "fixtures.Fixture"}
    fields += slotted
    unread = [qualified for qualified, name in fields if name not in reads]
    assert not unread, "record fields that no code in src/parorbits reads: %s" % ", ".join(unread)
