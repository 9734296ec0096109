"""Guards on the package as a whole: its export list and its source files."""

import ast
from pathlib import Path

import lorentz

SOURCES = sorted(Path(lorentz.__file__).resolve().parent.glob("*.py"))


def test_exports_resolve_are_unique_and_sorted():
    names = lorentz.__all__
    for name in names:
        assert hasattr(lorentz, name), name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_no_assert_statements_in_the_library():
    # invariants raise explicit errors: ``python -O`` strips assert statements
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
