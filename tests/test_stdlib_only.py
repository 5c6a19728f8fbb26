"""The package imports nothing beyond the standard library and itself."""

import ast
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
