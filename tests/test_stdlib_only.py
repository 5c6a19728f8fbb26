"""The package imports nothing beyond the standard library and itself."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parorbits"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_are_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "parorbits", (path.name, name)


def test_no_fractions_in_package():
    # every quantity is an integer: coweights are stored doubled
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "fractions" not in {name.split(".")[0] for name in _imported_modules(tree)}, path.name


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check of the library may
    # be one: every certificate raises its module's error instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)


def test_no_dataclasses_in_package():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize, about
    # 10 ms of every CLI start; the records are NamedTuples or slotted classes
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "dataclasses" not in set(_imported_modules(tree)), path.name


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # a fresh interpreter without site-packages, so only the package and
    # the standard library it imports can load either module; -B keeps it
    # from writing bytecode into the source tree
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import parorbits.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_indented_json_has_one_writer():
    # `json.dumps` with `indent` runs CPython's pure-Python encoder; the
    # package writes all its indented JSON through `jsontext.indented`
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    sites = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Attribute, ast.Name))
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dumps", "dump")
                    and any(kw.arg == "indent" for kw in node.keywords)
                ):
                    sites.append((path.name, getattr(top, "name", None)))
    assert sites == []


def test_only_jsontext_imports_json():
    # a second module with `json` at hand could grow a second writer
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    importers = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(name.split(".")[0] == "json" for name in _imported_modules(tree)):
            importers.append(path.name)
    assert importers == ["jsontext.py"]
