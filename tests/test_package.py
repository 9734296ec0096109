"""Guards on the package as a whole: its export list, its source files, the
README's account of both, the mutants' tokens, and the equality and repr of
its value types."""

import ast
import re
from pathlib import Path

import pytest

import lorentz
from lorentz import (DiscreteFunction, HomogPoly, Measure, OperatorTable, PointSet,
                     SquareMatrix, SymMatrix, matroid_from_bases)
from lorentz.cli import build_parser

from mutants import MUTANTS
from test_cli import _leaves

SOURCES = sorted(Path(lorentz.__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_api() -> dict[str, set[str]]:
    """module -> the names its line of README's "Library API" section gives
    in backticks (an item and its indented continuation lines)."""
    api = {}
    for item in re.findall(r"^- `\w+`:.*(?:\n  .*)*", _readme_section("Library API"), re.M):
        module, *names = re.findall(r"`(\w+)", item)
        api[module] = set(names)
    return api


def _referenced() -> set[tuple[str, str]]:
    """(module, name) of each definition that a function of the library reads,
    other than the definition itself: by its bare name in its own module or
    in one that imports it by name, or as ``module.name``."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        origin = {alias.asname or alias.name: node.module or alias.name
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names}
        for top in tree.body:
            reads = set()
            for fn in ast.walk(top):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name):
                        reads.add((origin.get(node.id, path.stem), node.id))
                    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                        if origin.get(node.value.id) == node.value.id:     # a module
                            reads.add((node.value.id, node.attr))
            reads.discard((path.stem, getattr(top, "name", None)))
            found |= reads
    return found


def test_exports_resolve_are_unique_and_sorted():
    names = lorentz.__all__
    for name in names:
        assert hasattr(lorentz, name), name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_every_public_definition_is_called_or_documented():
    # a public def or class no library function reads is API that README's
    # "Library API" section names on its module's line, or it does not belong
    api, referenced = _library_api(), _referenced()
    unaccounted = [f"{path.stem}.{node.name}"
                   for path in SOURCES
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and (path.stem, node.name) not in referenced
                   and node.name not in api.get(path.stem, ())]
    assert unaccounted == [], unaccounted


def test_every_export_is_documented_on_its_module_line():
    api = _library_api()
    missing = [name for name in lorentz.__all__
               if name not in api.get(getattr(lorentz, name).__module__.rsplit(".", 1)[1], ())]
    assert missing == [], missing


def test_readme_synopsis_names_every_cli_command():
    # the synopsis block: lines from one "lorentz <command>" to the next
    block = re.search(r"```\n(lorentz check.*?)```", _readme_section("CLI"), re.S).group(1)
    words: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("lorentz "):
            command = line.split()[1]
        words.setdefault(command, set()).update(re.split(r"[\s|]+", line))
    leaves = [leaf for leaf, _ in _leaves(build_parser())]
    assert len(leaves) > 20
    missing = [" ".join(leaf) for leaf in leaves
               if leaf[0] not in words or not set(leaf[1:]) <= words[leaf[0]]]
    assert missing == [], missing


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
FLOAT_SITES = {"cli._json_default", "mconvex._floor_nth_root"}
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
# denominators: the shared helper, the point scaling that works on raw
# (numerator, denominator) pairs without building Fractions, and the
# polynomial constructor that sums (exp, num, den) parts (HomogPoly._summed)
LCM_SITES = {"poly.integer_scaled", "certify._scaled", "poly.HomogPoly"}


def _calls_lcm(node: ast.AST) -> bool:
    """A call of ``lcm`` or ``math.lcm``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "lcm") or (
        isinstance(f, ast.Attribute) and f.attr == "lcm")


def test_lcm_scaling_lives_in_one_helper():
    assert _library_sites(_calls_lcm) == LCM_SITES


# the only places that call int(): where text or a bool is converted, and the
# float start of the integer Newton root.  Exponents, indices and sizes go
# through operator.index, which refuses a float instead of truncating it
INT_SITES = {"cli._int_list_arg", "mconvex._floor_nth_root", "poly._ones",
             "serialize._fraction_from_parts", "serialize.poly_from_dict"}


def _calls_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"


def test_int_only_converts_text_or_bools():
    assert _library_sites(_calls_int) == INT_SITES


def test_every_mutant_token_occurs_once_in_its_module():
    # tests/mutants.py checks this only when it runs; a refactor that moves
    # the code under a mutant shows here
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    stale = [m.name for m in MUTANTS if sources[m.module].count(m.old) != 1 or m.old == m.new]
    assert stale == [], stale


_X = HomogPoly(1, 1, {(1,): 1})
VALUES = [_X, matroid_from_bases(1, [[0]]), DiscreteFunction(1, 1, {(1,): 0}),
          Measure(1, {1: 1}), SquareMatrix([[1]]), SymMatrix([[1]]),
          OperatorTable((1,), 0, {(1,): _X})]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_equality_with_a_foreign_object_is_not_implemented(value):
    # so Python falls back to identity
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


REPRS = [
    (PointSet(2, 2, [(2, 0), (1, 1)]), "PointSet(2, 2, [(1, 1), (2, 0)])"),
    (DiscreteFunction(2, 1, {(1, 0): 0, (0, 1): "1/2"}),
     "DiscreteFunction(2, 1, {(1, 0): Fraction(0, 1), (0, 1): Fraction(1, 2)})"),
    (Measure(2, {0: "1/3", 3: "2/3"}), "Measure(2, {(): '1/3', (0, 1): '2/3'})"),
    (SquareMatrix([[1, "1/2"], [0, 2]]), "SquareMatrix([['1', '1/2'], ['0', '2']])"),
    (SymMatrix([[1, "1/2"], ["1/2", 2]]), "SymMatrix([['1', '1/2'], ['1/2', '2']])"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr(value, text):
    assert repr(value) == text
