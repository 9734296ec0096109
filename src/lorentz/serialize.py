"""JSON formats for every domain type, bit-exact and canonical.

Numerators and denominators travel as decimal strings so that arbitrarily
large exact rationals survive the trip.  Serialization is canonical: terms
are sorted, rationals reduced, so parse -> serialize -> parse is the
identity on canonical forms.

Ground set elements, matroid elements, and measure atoms use 0-based
indices throughout.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Optional

from .matroids import Matroid, cycle_matroid, matroid_from_bases, ranked_cycle_matroid
from .mconvex import DiscreteFunction
from .measures import Measure
from .mmatrix import SquareMatrix
from .operators import OperatorTable
from .poly import HomogPoly, as_fraction, check_exponents, integer_scaled


class LoadError(ValueError):
    """Malformed input document."""


def _fraction_from_parts(obj: dict, where: str) -> Fraction:
    for key in ("num", "den"):
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], (int, str))):
            raise LoadError(f"{where}.{key}: expected a decimal string or an integer, "
                            f"got {json.dumps(obj[key])}")
    try:
        num = int(obj["num"])
        den = int(obj["den"])
    except (KeyError, ValueError) as exc:
        raise LoadError(f"{where}: bad rational {obj!r}: {exc}") from None
    if den == 0:
        raise LoadError(f"{where}: zero denominator")
    return Fraction(num, den)


def _fraction_from_string(s: Any, where: str) -> Fraction:
    """A rational string or an integer; a JSON float was already rounded when read."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise LoadError(f"{where}: expected a rational string or an integer, "
                        f"got {json.dumps(s)}")
    return _build(where, as_fraction, s)


def _require(obj: Any, key: str, kind: type, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise LoadError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is int and isinstance(val, bool) or not isinstance(val, kind):
        raise LoadError(f"{where}: key {key!r} should be {kind.__name__}")
    return val


def _build(where: str, make, *args, **kw):
    """``make(*args, **kw)``; a ValueError it raises causes a LoadError at ``where``."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from exc


_INT = {int}


def _int_tuple(val: Any, where: str, length: Optional[int] = None) -> tuple[int, ...]:
    """A JSON list of integers (not booleans or floats), of ``length``
    entries when given, as a tuple."""
    if not isinstance(val, list) or length is not None and len(val) != length:
        count = "" if length is None else f"{length} "
        raise LoadError(f"{where}: expected a list of {count}integers")
    if not _INT.issuperset(map(type, val)):
        for k, x in enumerate(val):
            if isinstance(x, bool) or not isinstance(x, int):
                raise LoadError(f"{where}[{k}]: expected an integer, got {json.dumps(x)}")
    return tuple(val)


def _int_set(val: Any, where: str) -> tuple[int, ...]:
    """``_int_tuple`` of the elements of a set, refusing a repeated one."""
    elems = _int_tuple(val, where)
    if len(set(elems)) < len(elems):
        twice = next(x for k, x in enumerate(elems) if x in elems[:k])
        raise LoadError(f"{where}: repeated element {twice}")
    return elems


def _exp_rows(den: int, nums: dict[tuple[int, ...], int]) -> list[dict]:
    """The {exp, num, den} rows of the rationals nums[e] / den, sorted by
    exponent, each reduced by one gcd.  Equal numerators share their strings."""
    rows, strs = [], {}
    for e in sorted(nums):
        c = nums[e]
        if (pair := strs.get(c)) is None:
            g = math.gcd(c, den)
            pair = strs[c] = str(c // g), str(den // g)
        rows.append({"exp": list(e), "num": pair[0], "den": pair[1]})
    return rows


# -- polynomials ------------------------------------------------------------

def poly_to_dict(p: HomogPoly) -> dict:
    return {"n": p.nvars, "d": p.degree, "terms": _exp_rows(p.den, p.nums)}


def poly_from_dict(obj: dict, where: str = "polynomial") -> HomogPoly:
    """Each invariant is checked once here; the terms go to the polynomial unchecked."""
    n = _require(obj, "n", int, where)
    d = _require(obj, "d", int, where)
    items = _require(obj, "terms", list, where)
    parts: list[tuple[tuple[int, ...], int, int]] = []
    seen: dict[tuple[str, str], tuple[int, int]] = {}   # the ints of each (num, den) pair
    for k, t in enumerate(items):
        try:    # integer exponents and decimal strings are read directly, the rest named
            exp, num, den = t["exp"], t["num"], t["den"]
            if not (type(exp) is list and type(num) is str and type(den) is str
                    and _INT.issuperset(map(type, exp))):
                raise TypeError
            if (pair := seen.get((num, den))) is None:
                pair = seen[num, den] = int(num), int(den)
            if not pair[1]:
                raise ZeroDivisionError
            parts.append((tuple(exp), *pair))
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            at = f"{where}.terms[{k}]"
            exp = _int_tuple(_require(t, "exp", list, at), f"{at}.exp")
            parts.append((exp, *_fraction_from_parts(t, at).as_integer_ratio()))
    if n < 0 or d < 0:
        raise LoadError(f"{where}: nvars and degree must be nonnegative")
    _build(where, check_exponents, [e for e, _, _ in parts], n, d)
    return HomogPoly._summed(n, d, parts)


# -- discrete functions ------------------------------------------------------

def function_to_dict(nu: DiscreteFunction) -> dict:
    den, nums = integer_scaled(nu.values.values())
    return {"n": nu.nvars, "d": nu.degree, "values": _exp_rows(den, dict(zip(nu.values, nums)))}


def function_from_dict(obj: dict, where: str = "function") -> DiscreteFunction:
    n = _require(obj, "n", int, where)
    d = _require(obj, "d", int, where)
    items = _require(obj, "values", list, where)
    values = {}
    for k, t in enumerate(items):
        at = f"{where}.values[{k}]"
        exp = _int_tuple(_require(t, "exp", list, at), f"{at}.exp")
        if exp in values:
            raise LoadError(f"{at}: duplicate point {exp}")
        values[exp] = _fraction_from_parts(t, at)
    return _build(where, DiscreteFunction, n, d, values)


# -- matroids and graphs -----------------------------------------------------

def matroid_to_dict(m: Matroid) -> dict:
    return {"n": m.n, "bases": [list(b) for b in m.basis_sets()]}


def matroid_from_dict(obj: dict, where: str = "matroid") -> Matroid:
    """The matroid of a basis-list document.  A family that fails the
    exchange property is refused with a LoadError caused by its ExchangeError."""
    n = _require(obj, "n", int, where)
    bases = [_int_set(b, f"{where}.bases[{k}]")
             for k, b in enumerate(_require(obj, "bases", list, where))]
    return _build(where, matroid_from_bases, n, bases)


def graph_matroid_from_dict(obj: dict, where: str = "graph", ranked: bool = False) -> Matroid:
    """The cycle matroid of a graph document, with its 2^m rank table when
    ``ranked`` (for the commands that scan every edge set)."""
    v = _require(obj, "vertices", int, where)
    edges = [_int_tuple(e, f"{where}.edges[{k}]", length=2)
             for k, e in enumerate(_require(obj, "edges", list, where))]
    return _build(where, ranked_cycle_matroid if ranked else cycle_matroid, v, edges)


# -- matrices ----------------------------------------------------------------

def matrix_to_dict(a: SquareMatrix) -> dict:
    return {"n": a.n, "rows": [[str(x) for x in row] for row in a.entries]}


def matrix_from_dict(obj: dict, where: str = "matrix") -> SquareMatrix:
    n = _require(obj, "n", int, where)
    rows = _require(obj, "rows", list, where)
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise LoadError(f"{where}: expected {n} rows of {n} rational strings")
    ent = [[_fraction_from_string(x, f"{where}.rows[{i}][{j}]")
            for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return SquareMatrix(ent)


# -- measures ----------------------------------------------------------------

def measure_to_dict(mu: Measure) -> dict:
    return {"n": mu.n,
            "atoms": [{"set": list(s), "num": str(w.numerator), "den": str(w.denominator)}
                      for s, w in mu.atoms()]}


def measure_from_dict(obj: dict, where: str = "measure",
                      normalize: bool = False) -> Measure:
    n = _require(obj, "n", int, where)
    atoms = _require(obj, "atoms", list, where)
    weights: dict[frozenset, Fraction] = {}
    for k, a in enumerate(atoms):
        at = f"{where}.atoms[{k}]"
        s = frozenset(_int_set(_require(a, "set", list, at), f"{at}.set"))
        if s in weights:
            raise LoadError(f"{at}: duplicate atom {sorted(s)}")
        weights[s] = _fraction_from_parts(a, at)
    return _build(where, Measure, n, weights, normalize=normalize)


# -- operator tables ----------------------------------------------------------

def operator_to_dict(t: OperatorTable) -> dict:
    return {"kappa": list(t.kappa), "ell": t.ell,
            "images": [{"exp": list(e), "poly": poly_to_dict(t.images[e])}
                       for e in sorted(t.images)]}


def operator_from_dict(obj: dict, where: str = "operator") -> OperatorTable:
    kappa = _int_tuple(_require(obj, "kappa", list, where), f"{where}.kappa")
    ell = _require(obj, "ell", int, where)
    items = _require(obj, "images", list, where)
    images = {}
    for k, entry in enumerate(items):
        at = f"{where}.images[{k}]"
        exp = _int_tuple(_require(entry, "exp", list, at), f"{at}.exp")
        if exp in images:
            raise LoadError(f"{at}: duplicate image {list(exp)}")
        images[exp] = poly_from_dict(_require(entry, "poly", dict, at), f"{at}.poly")
    return _build(where, OperatorTable, kappa, ell, images)


# -- vector configurations (zonotopes) ----------------------------------------

def vectors_from_dict(obj: dict, where: str = "vectors") -> list[list[Fraction]]:
    dim = _require(obj, "dim", int, where)
    vecs = _require(obj, "vectors", list, where)
    out = []
    for k, v in enumerate(vecs):
        if not isinstance(v, list) or len(v) != dim:
            raise LoadError(f"{where}.vectors[{k}]: expected a list of {dim} entries")
        out.append([_fraction_from_string(x, f"{where}.vectors[{k}][{j}]")
                    for j, x in enumerate(v)])
    return out


def vectors_to_dict(vectors) -> dict:
    if not vectors:
        raise LoadError("vectors: empty configuration")
    return {"dim": len(vectors[0]), "vectors": [[str(x) for x in v] for v in vectors]}


# -- kind detection and roundtrip ---------------------------------------------

# kind -> (the key that marks its documents, loader, dumper), in detection order
_KINDS = {
    "poly": ("terms", poly_from_dict, poly_to_dict),
    "function": ("values", function_from_dict, function_to_dict),
    "matroid": ("bases", matroid_from_dict, matroid_to_dict),
    # graphs canonicalize to their cycle matroid
    "graph": ("edges", graph_matroid_from_dict, matroid_to_dict),
    "matrix": ("rows", matrix_from_dict, matrix_to_dict),
    "measure": ("atoms", measure_from_dict, measure_to_dict),
    "operator": ("images", operator_from_dict, operator_to_dict),
    "vectors": ("vectors", vectors_from_dict, vectors_to_dict),
}


def detect_kind(obj: Any) -> str:
    if not isinstance(obj, dict):
        raise LoadError("document root must be a JSON object")
    for kind, (key, _, _) in _KINDS.items():
        if key in obj:
            return kind
    raise LoadError(f"cannot determine document kind from keys {sorted(obj)}")


def load_json(path: str) -> Any:
    """The JSON document in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise LoadError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno} (char {exc.pos}): {exc.msg}") from None
    except RecursionError:      # the decoder recurses once per level of nesting
        raise LoadError(f"{path}: the document is nested too deeply") from None


def load_matroid(path: str, ranked: bool = False) -> Matroid:
    """The matroid of the document at ``path``: a basis list when it has ``bases``
    (with or without ``edges``, as in ``detect_kind``), else a graph's cycle matroid,
    with its 2^m rank table when ``ranked``."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise LoadError(f"{path}: document root must be a JSON object")
    if "edges" in obj and "bases" not in obj:
        return graph_matroid_from_dict(obj, ranked=ranked)
    return matroid_from_dict(obj)


def load_document(path: str):
    """Parse any known document, returning (kind, object)."""
    obj = load_json(path)
    kind = detect_kind(obj)
    return kind, _KINDS[kind][1](obj)


def dumps_canonical(obj: dict, default=None) -> str:
    """One line of canonical JSON: ``json.dumps(obj, sort_keys=True,
    default=default) + "\\n"``, with the default separators and ASCII escapes.
    Pipe a report through ``python -m json.tool`` to read it indented."""
    return json.dumps(obj, sort_keys=True, default=default) + "\n"


def roundtrip(path: str) -> bool:
    """parse -> serialize -> parse; True iff the canonical forms agree."""
    kind, first = load_document(path)
    obj = json.loads(dumps_canonical(_KINDS[kind][2](first)))
    second = _KINDS[detect_kind(obj)][1](obj)
    return first == second
