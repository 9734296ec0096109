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


# the only places where a float may appear: the opt-in --float view and the
# float start of the integer Newton root
FLOAT_SITES = {"cli._jsonify", "mconvex._floor_nth_root"}
FLOAT_CALLS = {"float", "log", "log2", "log10", "log1p", "sqrt", "exp"}
FLOAT_CONSTANTS = {"inf", "nan", "pi", "e", "tau"}


def _makes_float(node: ast.AST) -> bool:
    """A float literal or ``math`` constant, or a call of ``float`` or of
    ``math.log*``, ``sqrt`` or ``exp``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "math" and node.attr in FLOAT_CONSTANTS
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "math":
        return f.attr in FLOAT_CALLS
    return isinstance(f, ast.Name) and f.id in FLOAT_CALLS


def _float_sites(node: ast.AST, module: str, where: str = "") -> list[str]:
    """``module.name`` of the top-level definition around each float, or the
    module and line outside any."""
    found = []
    for child in ast.iter_child_nodes(node):
        at = where
        if not at and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            at = f"{module}.{child.name}"
        if _makes_float(child):
            found.append(at or f"{module}:{child.lineno}")
        found += _float_sites(child, module, at)
    return found


def test_floats_only_where_the_library_allows_them():
    # every verdict is exact: no float reaches a decision
    found = {site for path in SOURCES
             for site in _float_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)}
    assert found <= FLOAT_SITES, sorted(found - FLOAT_SITES)
    assert found == FLOAT_SITES     # the allowed sites still exist: the list stays exact
