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


def _sites(node: ast.AST, module: str, hit, where: str = "") -> list[str]:
    """``module.name`` of the top-level definition around each node for
    which ``hit`` holds, or the module and line outside any."""
    found = []
    for child in ast.iter_child_nodes(node):
        at = where
        if not at and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            at = f"{module}.{child.name}"
        if hit(child):
            found.append(at or f"{module}:{child.lineno}")
        found += _sites(child, module, hit, at)
    return found


def _library_sites(hit) -> set[str]:
    return {site for path in SOURCES
            for site in _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, hit)}


def test_floats_only_where_the_library_allows_them():
    # every verdict is exact: no float reaches a decision
    found = _library_sites(_makes_float)
    assert found <= FLOAT_SITES, sorted(found - FLOAT_SITES)
    assert found == FLOAT_SITES     # the allowed sites still exist: the list stays exact


# the only places that scale rationals to integers by the lcm of their
# denominators: the shared helper, and the point scaling that works on raw
# (numerator, denominator) pairs without building Fractions
LCM_SITES = {"poly.integer_scaled", "certify._scaled"}


def _calls_lcm(node: ast.AST) -> bool:
    """A call of ``lcm`` or ``math.lcm``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "lcm") or (
        isinstance(f, ast.Attribute) and f.attr == "lcm")


def test_lcm_scaling_lives_in_one_helper():
    assert _library_sites(_calls_lcm) == LCM_SITES
