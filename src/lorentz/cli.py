"""Command-line surface: every module as a reproducible batch command.

Each invocation prints one JSON report to stdout and exits with
0 (property holds / construction succeeded), 1 (property refuted, witness
in the report), or 2 (input error).  Reports are deterministic given
(input, seed, flags) except for the elapsed_ms field.

Sampling commands require --seed; --trials defaults to 10000.  All numbers
in reports are exact rational strings; --float adds decimal approximations
for human readers.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import certify, matroids, mconvex, measures, mmatrix, operators
from .inertia import Inertia
from .poly import HomogPoly, first_ulc_failure
from .serialize import (LoadError, dumps_canonical, function_from_dict,
                        graph_matroid_from_dict, matrix_from_dict,
                        matroid_from_dict, matroid_to_dict, measure_from_dict,
                        measure_to_dict, operator_from_dict, poly_from_dict,
                        poly_to_dict, roundtrip, vectors_from_dict)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        raise LoadError(f"{path}: no such file") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise LoadError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno} (char {exc.pos}): {exc.msg}") from None


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _point_arg(text: str) -> list[Fraction]:
    return [_fraction_arg(part) for part in text.split(",")]


def _int_list_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _jsonify(x: Any, float_mode: bool) -> Any:
    if isinstance(x, Fraction):
        return {"rat": str(x), "float": float(x)} if float_mode else str(x)
    if isinstance(x, Inertia):
        return {"n_plus": x.n_plus, "n_minus": x.n_minus, "n_zero": x.n_zero}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {k: _jsonify(v, float_mode) for k, v in dataclasses.asdict(x).items()}
    if isinstance(x, dict):
        return {str(k): _jsonify(v, float_mode) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v, float_mode) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _certificate_payload(cert: certify.Certificate, float_mode: bool) -> dict:
    return {
        "verdict": cert.verdict,
        "is_zero": cert.is_zero,
        "failing_kind": cert.failing_kind,
        "failing_alpha": list(cert.failing_alpha) if cert.failing_alpha is not None else None,
        "detail": _jsonify(cert.detail, float_mode),
    }


def _emit(report: dict, code: int) -> int:
    sys.stdout.write(dumps_canonical(report))
    return code


class _Run:
    """Collects the report fields shared by every command."""

    def __init__(self, args: argparse.Namespace, paths: Sequence[str]):
        self.args = args
        self.t0 = time.perf_counter()
        self.report: dict = {
            "command": [args.command] + ([args.subverb] if getattr(args, "subverb", None) else []),
            "inputs": {p: _sha256(p) for p in paths},
            "seed": getattr(args, "seed", None),
            "verdict": None,
            "witness": None,
            "result": {},
        }
        self.float_mode = bool(getattr(args, "float", False))

    def finish(self, code: int) -> int:
        self.report["elapsed_ms"] = round((time.perf_counter() - self.t0) * 1000, 3)
        return _emit(self.report, code)

    def verdict(self, ok: bool, witness: Any = None) -> int:
        self.report["verdict"] = bool(ok)
        if witness is not None:
            self.report["witness"] = _jsonify(witness, self.float_mode)
        return self.finish(EXIT_OK if ok else EXIT_REFUTED)

    def constructed(self, **result) -> int:
        self.report["result"].update(
            {k: _jsonify(v, self.float_mode) for k, v in result.items()})
        return self.finish(EXIT_OK)


def _load_poly(path: str) -> HomogPoly:
    return poly_from_dict(_load_json(path))


def _load_object(path: str) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise LoadError(f"{path}: document root must be a JSON object")
    return obj


def _load_matroid(path: str) -> matroids.Matroid:
    obj = _load_object(path)
    if "edges" in obj:
        return graph_matroid_from_dict(obj)
    return matroid_from_dict(obj)


def _certificate_verdict(run: _Run, cert: certify.Certificate, witness: bool = False) -> int:
    """Report the certificate and its verdict; a failing certificate is also
    the witness when ``witness`` is set."""
    payload = _certificate_payload(cert, run.float_mode)
    run.report["result"]["certificate"] = payload
    return run.verdict(cert.verdict, payload if witness and not cert.verdict else None)


def _constructed_poly(run: _Run, f: HomogPoly, certify_it: bool, key: str = "poly") -> int:
    """Report the constructed polynomial, certified when ``certify_it``."""
    run.report["result"][key] = poly_to_dict(f)
    if certify_it:
        return _certificate_verdict(run, certify.is_lorentzian(f))
    return run.constructed()


# -- command handlers --------------------------------------------------------

def _cmd_check(args) -> int:
    run = _Run(args, [args.poly])
    f = _load_poly(args.poly)
    cert = certify.is_lorentzian(f, exhaustive=args.exhaustive)
    return _certificate_verdict(run, cert, witness=True)


def _cmd_strict(args) -> int:
    run = _Run(args, [args.poly])
    cert = certify.is_strictly_lorentzian(_load_poly(args.poly))
    return _certificate_verdict(run, cert, witness=True)


def _cmd_hodge_riemann(args) -> int:
    run = _Run(args, [args.poly])
    f = _load_poly(args.poly)
    points = [list(p) for p in args.point or []]
    if args.points:
        if args.seed is None:
            raise LoadError("--seed is required when sampling points")
        rng = random.Random(args.seed)
        for _ in range(args.points):
            points.append([Fraction(rng.randint(1, args.max_den), rng.randint(1, args.max_den))
                           for _ in range(f.nvars)])
    if not points:
        raise LoadError("give at least one --point or a --points count")
    outcomes = []
    bad = None
    for p, sig in zip(points, certify.hodge_riemann_many(f, points)):
        outcomes.append({"point": _jsonify(p, run.float_mode), "inertia": _jsonify(sig, run.float_mode)})
        if sig.n_plus != 1 and bad is None:
            bad = outcomes[-1]
    run.report["result"]["points"] = outcomes
    return run.verdict(bad is None, bad)


def _cmd_rayleigh(args) -> int:
    run = _Run(args, [args.poly])
    f = _load_poly(args.poly)
    for p in args.point or []:
        wit = certify.rayleigh_check_at(f, args.c, p)
        if wit is not None:
            run.report["result"]["violation"] = _jsonify(wit, run.float_mode)
            return run.verdict(False, wit)
    wit = certify.rayleigh_falsify(f, args.c, trials=args.trials, seed=args.seed,
                                   max_den=args.max_den)
    if wit is not None:
        run.report["result"]["violation"] = _jsonify(wit, run.float_mode)
        return run.verdict(False, wit)
    run.report["result"]["searched_trials"] = args.trials
    return run.verdict(True)


def _cmd_mconvex(args) -> int:
    run = _Run(args, [args.function])
    nu = function_from_dict(_load_json(args.function))
    if args.subverb == "set":
        ok, wit = mconvex.is_m_convex_set(nu.domain())
    else:
        ok, wit = mconvex.is_m_convex_function(nu)
    return run.verdict(ok, wit)


def _cmd_genpoly(args) -> int:
    run = _Run(args, [args.function])
    nu = function_from_dict(_load_json(args.function))
    build = mconvex.generating_poly_f if args.kind == "f" else mconvex.generating_poly_g
    return _constructed_poly(run, build(nu, args.q), args.certify)


# Operators that take one polynomial; each maps (f, args) to the new polynomial.
_POLY_OPERATORS = {
    "polarize": lambda f, args: operators.polarize(f, args.kappa),
    "project": lambda f, args: operators.project(f, args.kappa),
    "normalize": lambda f, args: operators.normalize(f),
    "multiaffine": lambda f, args: operators.multi_affine_part(f),
    "exclusion": lambda f, args: operators.exclusion_step(f, args.i, args.j, args.theta),
    "nuij": lambda f, args: operators.nuij_transform(f, args.theta),
}


def _cmd_operator(args) -> int:
    sub = args.subverb
    if sub == "symbol":
        run = _Run(args, [args.table])
        table = operator_from_dict(_load_json(args.table))
        return _constructed_poly(run, operators.symbol(table), args.certify, key="symbol")
    if sub == "apply":
        run = _Run(args, [args.table, args.poly])
        table = operator_from_dict(_load_json(args.table))
        f = _load_poly(args.poly)
        return _constructed_poly(run, operators.apply_operator(table, f), args.certify)

    run = _Run(args, [args.poly])
    f = _load_poly(args.poly)
    if sub == "power":
        out, exact = operators.coefficient_power(f, args.p)
        run.report["result"]["exact"] = exact
    else:
        out = _POLY_OPERATORS[sub](f, args)
    return _constructed_poly(run, out, args.certify)


def _cmd_matroid(args) -> int:
    sub = args.subverb
    if sub == "zonotope":
        run = _Run(args, [args.input])
        vectors = vectors_from_dict(_load_json(args.input))
        return _constructed_poly(run, matroids.zonotope_volume_poly(vectors), args.certify)

    run = _Run(args, [args.input])
    if sub == "validate":
        obj = _load_object(args.input)
        try:
            if "edges" in obj:
                m = graph_matroid_from_dict(obj)
            else:
                m = matroids.matroid_from_bases(obj.get("n"), obj.get("bases") or [])
        except matroids.ExchangeError as exc:
            return run.verdict(False, {"reason": str(exc), "witness": exc.witness})
        except TypeError as exc:    # main() reports only ValueError
            raise LoadError(str(exc)) from None
        run.report["result"]["matroid"] = matroid_to_dict(m)
        return run.verdict(True)

    m = _load_matroid(args.input)
    if sub == "basis-poly":
        return _constructed_poly(run, matroids.basis_generating_poly(m), args.certify)
    if sub == "potts":
        return _constructed_poly(run, matroids.potts_poly(m, args.q), args.certify)
    if sub == "indep-poly":
        return _constructed_poly(run, matroids.independent_set_poly(m), args.certify)
    if sub == "mason":
        counts = matroids.independence_counts(m)
        ok = first_ulc_failure(counts, m.n) is None
        run.report["result"]["independence_counts"] = counts
        run.report["result"]["normalized"] = _jsonify(
            matroids.normalize_counts(counts, m.n), run.float_mode)
        return run.verdict(ok, None if ok else {"counts": counts})
    if sub == "tutte":
        if args.section_q is not None:
            section = matroids.tutte_section(m, args.section_q)
            # ultra log-concave, nonnegative, and without internal zeros
            nonzero = [k for k, c in enumerate(section) if c]
            seq_ok = (first_ulc_failure(section, m.n) is None and min(section) >= 0
                      and nonzero[-1] - nonzero[0] + 1 == len(nonzero))
            run.report["result"]["section"] = _jsonify(section, run.float_mode)
            run.report["result"]["ultra_log_concave"] = seq_ok
            return run.constructed()
        if args.x is None or args.y is None:
            raise LoadError("tutte needs --x and --y, or --section-q")
        value = matroids.tutte(m, args.x, args.y)
        return run.constructed(value=value)
    raise LoadError(f"unknown matroid subverb {sub}")  # pragma: no cover


def _cmd_mmatrix(args) -> int:
    run = _Run(args, [args.matrix])
    a = matrix_from_dict(_load_json(args.matrix))
    if args.subverb == "recognize":
        ok = mmatrix.is_m_matrix(a)
        return run.verdict(ok)
    return _constructed_poly(run, mmatrix.char_poly_multivariate(a), args.certify)


def _cmd_measure(args) -> int:
    run = _Run(args, [args.measure])
    mu = measure_from_dict(_load_json(args.measure), normalize=args.normalize)
    sub = args.subverb
    if sub == "lorentzian":
        return _certificate_verdict(run, measures.is_lorentzian_measure(mu))
    if sub == "report":
        rep = measures.negative_dependence_report(mu, c=args.c, trials=args.trials,
                                                  seed=args.seed)
        run.report["result"]["report"] = _jsonify(rep, run.float_mode)
        exact_ok = rep.pairwise_holds and rep.ulc_holds
        witness = None
        if not exact_ok:
            witness = {"pairwise_failures": list(rep.pairwise_failures),
                       "ulc_failing_k": rep.ulc_failing_k}
        return run.verdict(exact_ok, witness)
    if sub == "field":
        out = measures.external_field(mu, args.x)
    else:
        out = measures.exclusion_evolution(mu, args.i, args.j, args.theta)
    run.report["result"]["measure"] = measure_to_dict(out)
    return run.constructed()


def _cmd_roundtrip(args) -> int:
    run = _Run(args, [args.input])
    ok = roundtrip(args.input)
    return run.verdict(ok)


# -- parser ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--float", action="store_true",
                   help="add decimal approximations next to exact rationals")


class _Parser(argparse.ArgumentParser):
    # usage errors are one JSON report on stdout too; --help still exits 0
    def error(self, message: str):
        _emit({"command": self.prog.split()[1:], "error": message}, EXIT_INPUT)
        sys.exit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="lorentz",
        description="Exact certification and construction of Lorentzian polynomials.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify the Lorentzian property")
    p.add_argument("poly")
    p.add_argument("--exhaustive", action="store_true",
                   help="scan every quadratic instead of stopping at the first failure")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("strict", help="certify the strictly Lorentzian property")
    p.add_argument("poly")
    _add_common(p)
    p.set_defaults(func=_cmd_strict)

    p = sub.add_parser("hodge-riemann", help="Hessian inertia at positive points")
    p.add_argument("poly")
    p.add_argument("--point", type=_point_arg, action="append",
                   help="comma-separated rationals; repeatable")
    p.add_argument("--points", type=int, default=0, help="number of sampled points")
    p.add_argument("--seed", type=int, help="seed for sampled points")
    p.add_argument("--max-den", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_hodge_riemann)

    p = sub.add_parser("rayleigh", help="falsify the c-Rayleigh inequality")
    p.add_argument("poly")
    p.add_argument("--c", type=_fraction_arg, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--point", type=_point_arg, action="append",
                   help="explicit points checked before sampling; repeatable")
    p.add_argument("--max-den", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_rayleigh)

    p = sub.add_parser("mconvex", help="M-convexity of sets and functions")
    p.add_argument("subverb", choices=["set", "function"])
    p.add_argument("function", help="discrete function JSON (set = its domain)")
    _add_common(p)
    p.set_defaults(func=_cmd_mconvex)

    p = sub.add_parser("genpoly", help="generating polynomial of a discrete function")
    p.add_argument("function")
    p.add_argument("--q", type=_fraction_arg, required=True)
    p.add_argument("--kind", choices=["f", "g"], default="f")
    p.add_argument("--certify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_genpoly)

    p = sub.add_parser("operator", help="Lorentzian-preserving operators")
    op_sub = p.add_subparsers(dest="subverb", required=True)
    q = op_sub.add_parser("symbol")
    q.add_argument("table")
    q.add_argument("--certify", action="store_true")
    _add_common(q)
    q = op_sub.add_parser("apply")
    q.add_argument("table")
    q.add_argument("poly")
    q.add_argument("--certify", action="store_true")
    _add_common(q)
    for name in ["polarize", "project", "normalize", "multiaffine", "power",
                 "exclusion", "nuij"]:
        q = op_sub.add_parser(name)
        q.add_argument("poly")
        if name in ("polarize", "project"):
            q.add_argument("--kappa", type=_int_list_arg, required=True,
                           help="comma-separated per-variable degree caps")
        if name == "power":
            q.add_argument("--p", type=_fraction_arg, required=True)
        if name == "exclusion":
            q.add_argument("--i", type=int, required=True)
            q.add_argument("--j", type=int, required=True)
            q.add_argument("--theta", type=_fraction_arg, required=True)
        if name == "nuij":
            q.add_argument("--theta", type=_fraction_arg, required=True)
        q.add_argument("--certify", action="store_true")
        _add_common(q)
    p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("matroid", help="matroid constructions")
    m_sub = p.add_subparsers(dest="subverb", required=True)
    for name in ["validate", "basis-poly", "potts", "indep-poly", "mason",
                 "tutte", "zonotope"]:
        q = m_sub.add_parser(name)
        q.add_argument("input", help="matroid JSON, graph JSON, or vectors JSON (zonotope)")
        if name == "potts":
            q.add_argument("--q", type=_fraction_arg, required=True)
        if name == "tutte":
            q.add_argument("--x", type=_fraction_arg)
            q.add_argument("--y", type=_fraction_arg)
            q.add_argument("--section-q", dest="section_q", type=_fraction_arg)
        if name in ("basis-poly", "potts", "indep-poly", "zonotope"):
            q.add_argument("--certify", action="store_true")
        _add_common(q)
    p.set_defaults(func=_cmd_matroid)

    p = sub.add_parser("mmatrix", help="M-matrix recognition and characteristic polynomial")
    mm_sub = p.add_subparsers(dest="subverb", required=True)
    q = mm_sub.add_parser("recognize")
    q.add_argument("matrix")
    _add_common(q)
    q = mm_sub.add_parser("charpoly")
    q.add_argument("matrix")
    q.add_argument("--certify", action="store_true")
    _add_common(q)
    p.set_defaults(func=_cmd_mmatrix)

    p = sub.add_parser("measure", help="discrete measures and negative dependence")
    me_sub = p.add_subparsers(dest="subverb", required=True)
    for name in ["lorentzian", "report", "field", "exclusion"]:
        q = me_sub.add_parser(name)
        q.add_argument("measure")
        q.add_argument("--normalize", action="store_true",
                       help="accept unnormalized weights and scale them to total 1")
        if name == "report":
            q.add_argument("--c", type=_fraction_arg, default=Fraction(2))
            q.add_argument("--trials", type=int, default=10000)
            q.add_argument("--seed", type=int, required=True)
        if name == "field":
            q.add_argument("--x", type=_point_arg, required=True)
        if name == "exclusion":
            q.add_argument("--i", type=int, required=True)
            q.add_argument("--j", type=int, required=True)
            q.add_argument("--theta", type=_fraction_arg, required=True)
        _add_common(q)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("roundtrip", help="parse -> serialize -> parse identity check")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=_cmd_roundtrip)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # LoadError included
        _emit({"command": [args.command], "error": str(exc)}, EXIT_INPUT)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
