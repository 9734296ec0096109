"""Command-line surface: every module as a reproducible batch command.

Each invocation prints one JSON report to stdout, as one line of canonical
JSON, and exits with 0 (property holds / construction succeeded), 1 (property
refuted, witness in the report), or 2 (input error).  Reports are
deterministic given (input, seed, flags) except for the elapsed_ms field.

Sampling commands require --seed; --trials defaults to 10000.  All numbers
in reports are exact rational strings; --float adds decimal approximations
for human readers.  Handlers put library values into a report as they are,
and the standard JSON encoder writes it in one pass: one hook,
``_json_default``, converts the Fractions and result records it has no type
for.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from . import certify, matroids, mconvex, measures, mmatrix, operators
from .poly import HomogPoly, as_fraction, first_ulc_failure
from .serialize import (LoadError, dumps_canonical, function_from_dict, load_json,
                        load_matroid, matrix_from_dict, matroid_to_dict,
                        measure_from_dict, measure_to_dict, operator_from_dict,
                        poly_from_dict, poly_to_dict, roundtrip, vectors_from_dict)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        raise LoadError(f"{path}: no such file") from None


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _point_arg(text: str) -> list[Fraction]:
    return [_fraction_arg(part) for part in text.split(",")]


def _int_list_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _json_default(x: Any, float_mode: bool) -> Any:
    """The encoder's hook for the library values JSON has no type for: a
    Fraction is its string, or {"rat", "float"} under --float; a result
    record is the dict of its declared fields.  Anything else is a bug."""
    if isinstance(x, Fraction):
        if not float_mode:
            return str(x)
        return {"rat": str(x), "float": float(x) if abs(x) <= sys.float_info.max else None}
    fields = getattr(type(x), "__dataclass_fields__", None)
    if fields is None:
        raise TypeError(f"a report cannot hold a {type(x).__name__}")
    return {name: getattr(x, name) for name in fields}


def _emit(report: dict, code: int, float_mode: bool = False) -> int:
    sys.stdout.write(dumps_canonical(report, lambda x: _json_default(x, float_mode)))
    return code


class _Run:
    """Collects the report fields shared by every command."""

    def __init__(self, args: argparse.Namespace, command: list[str]):
        self.t0 = time.perf_counter()
        paths = [getattr(args, dest) for dest in args.inputs]
        self.report: dict = {
            "command": command,
            "inputs": {p: _sha256(p) for p in paths},
            "seed": getattr(args, "seed", None),
            "verdict": None,
            "witness": None,
            "result": {},
        }
        self.float_mode = args.float

    def finish(self, code: int) -> int:
        self.report["elapsed_ms"] = round((time.perf_counter() - self.t0) * 1000, 3)
        return _emit(self.report, code, self.float_mode)

    def verdict(self, ok: bool, witness: Any = None) -> int:
        self.report["verdict"] = bool(ok)
        self.report["witness"] = witness
        return self.finish(EXIT_OK if ok else EXIT_REFUTED)

    def constructed(self, **result) -> int:
        self.report["result"].update(result)
        return self.finish(EXIT_OK)


def _load_poly(path: str) -> HomogPoly:
    return poly_from_dict(load_json(path))


def _certificate_verdict(run: _Run, cert: certify.Certificate, witness: bool = False) -> int:
    """Report the certificate and its verdict; a failing certificate is also
    the witness when ``witness`` is set."""
    run.report["result"]["certificate"] = cert
    return run.verdict(cert.verdict, cert if witness and not cert.verdict else None)


def _constructed_poly(run: _Run, f: HomogPoly, certify_it: bool, key: str = "poly") -> int:
    """Report the constructed polynomial, certified when ``certify_it``."""
    run.report["result"][key] = poly_to_dict(f)
    if certify_it:
        return _certificate_verdict(run, certify.is_lorentzian(f))
    return run.constructed()


# -- command handlers ------------------------------------------------------
#
# Every handler takes (run, args) and returns the exit code.  Handlers call
# library functions through their module (``certify.is_lorentzian``) at call
# time, so code that patches a module attribute reaches every command.

def _hodge_riemann(run: _Run, args) -> int:
    f = _load_poly(args.poly)
    if args.points < 0:
        raise LoadError("points must be nonnegative")
    if args.max_den < 1:
        raise LoadError("max_den must be positive")
    points = [list(p) for p in args.point or []]
    if args.points:
        if args.seed is None:
            raise LoadError("--seed is required when sampling points")
        rng = random.Random(args.seed)
        for _ in range(args.points):
            draws = certify._randints(rng, 1, args.max_den, 2 * f.nvars)
            points.append(list(map(Fraction, draws[::2], draws[1::2])))
    if not points:
        raise LoadError("give at least one --point or a --points count")
    outcomes = []
    bad = None
    for p, sig in zip(points, certify.hodge_riemann_many(f, points)):
        outcomes.append({"point": p, "inertia": sig})
        if sig.n_plus != 1 and bad is None:
            bad = outcomes[-1]
    run.report["result"]["points"] = outcomes
    return run.verdict(bad is None, bad)


def _rayleigh(run: _Run, args) -> int:
    f = _load_poly(args.poly)
    # the counts are checked before an explicit point can refute
    if args.trials < 0:
        raise LoadError("trials must be nonnegative")
    if args.max_den < 1:
        raise LoadError("max_den must be positive")
    wit = certify.rayleigh_check_at(f, args.c, args.point) if args.point else None
    if wit is None:
        wit = certify.rayleigh_falsify(f, args.c, trials=args.trials, seed=args.seed,
                                       max_den=args.max_den)
    if wit is not None:
        run.report["result"]["violation"] = wit
        return run.verdict(False, wit)
    run.report["result"]["searched_trials"] = args.trials
    return run.verdict(True)


# ``mconvex`` takes its subverb as a positional choice, not as a subcommand.
_M_CONVEX = {"set": lambda nu: mconvex.is_m_convex_set(nu.domain()),
             "function": lambda nu: mconvex.is_m_convex_function(nu)}


def _power(run: _Run, args) -> int:
    out, exact = operators.coefficient_power(_load_poly(args.poly), args.p)
    run.report["result"]["exact"] = exact
    return _constructed_poly(run, out, args.certify)


def _validate(run: _Run, args) -> int:
    try:
        m = load_matroid(args.input)
    except LoadError as exc:    # a family that fails the exchange property is refuted
        cause = exc.__cause__
        if not isinstance(cause, matroids.ExchangeError):
            raise
        return run.verdict(False, {"reason": str(cause), "witness": cause.witness})
    run.report["result"]["matroid"] = matroid_to_dict(m)
    return run.verdict(True)


def _mason(run: _Run, args) -> int:
    m = load_matroid(args.input, ranked=True)
    counts = matroids.independence_counts(m)
    ok = first_ulc_failure(counts, m.n) is None
    run.report["result"]["independence_counts"] = counts
    run.report["result"]["normalized"] = matroids.normalize_counts(counts, m.n)
    return run.verdict(ok, None if ok else {"counts": counts})


def _tutte(run: _Run, args) -> int:
    m = load_matroid(args.input, ranked=True)
    if args.section_q is not None:
        section = matroids.tutte_section(m, args.section_q)
        # ultra log-concave, nonnegative, and without internal zeros
        nonzero = [k for k, c in enumerate(section) if c]
        seq_ok = (first_ulc_failure(section, m.n) is None and min(section) >= 0
                  and nonzero[-1] - nonzero[0] + 1 == len(nonzero))
        run.report["result"]["section"] = section
        run.report["result"]["ultra_log_concave"] = seq_ok
        return run.constructed()
    if args.x is None or args.y is None:
        raise LoadError("tutte needs --x and --y, or --section-q")
    return run.constructed(value=matroids.tutte(m, args.x, args.y))


def _load_measure(args) -> measures.Measure:
    return measure_from_dict(load_json(args.measure), normalize=args.normalize)


def _measure_report(run: _Run, args) -> int:
    rep = measures.negative_dependence_report(_load_measure(args), c=args.c,
                                              trials=args.trials, seed=args.seed)
    run.report["result"]["report"] = rep
    exact_ok = rep.pairwise_holds and rep.ulc_holds
    witness = None
    if not exact_ok:
        witness = {"pairwise_failures": rep.pairwise_failures,
                   "ulc_failing_k": rep.ulc_failing_k}
    return run.verdict(exact_ok, witness)


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage errors are one JSON report on stdout too; --help still exits 0
    def error(self, message: str):
        _emit({"command": self.prog.split()[1:], "error": message}, EXIT_INPUT)
        sys.exit(EXIT_INPUT)


def _arg(*names, **kw) -> tuple:
    """One ``add_argument`` call of a leaf command."""
    return names, kw


def _leaf(sub, name: str, handler: Callable[[_Run, Any], int], *args, **parser_kw) -> None:
    """Declare one leaf command: ``args`` in order, then --float.

    An argument is an ``_arg`` or, for a bare positional, its name.  Every
    positional without ``choices`` is an input file, whose SHA-256 the report
    records.  ``handler(run, args)`` writes the report.  ``parser_kw`` (the
    command's ``help``) goes to ``add_parser``.
    """
    p = sub.add_parser(name, **parser_kw)
    inputs = []
    for arg in args:
        names, kw = _arg(arg) if isinstance(arg, str) else arg
        action = p.add_argument(*names, **kw)
        if not action.option_strings and action.choices is None:
            inputs.append(action.dest)
    p.add_argument("--float", action="store_true",
                   help="add decimal approximations next to exact rationals")
    p.set_defaults(handler=handler, inputs=tuple(inputs))


_CERTIFY = _arg("--certify", action="store_true")


def _construct(sub, name: str, build: Callable[[Any], HomogPoly], *args,
               key: str = "poly", **parser_kw) -> None:
    """Declare a leaf that reports the polynomial ``build(args)`` under
    ``key``, certified when --certify is given."""
    _leaf(sub, name, lambda run, a: _constructed_poly(run, build(a), a.certify, key),
          *args, _CERTIFY, **parser_kw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    top = _Parser(
        prog="lorentz",
        description="Exact certification and construction of Lorentzian polynomials.")
    sub = top.add_subparsers(dest="command", required=True)
    theta = _arg("--theta", type=_fraction_arg, required=True)
    exclusion = (_arg("--i", type=int, required=True), _arg("--j", type=int, required=True),
                 theta)
    max_den = _arg("--max-den", type=int, default=10)

    _leaf(sub, "check", lambda run, a: _certificate_verdict(
              run, certify.is_lorentzian(_load_poly(a.poly), exhaustive=a.exhaustive),
              witness=True),
          "poly", _arg("--exhaustive", action="store_true",
                       help="scan every quadratic instead of stopping at the first failure"),
          help="certify the Lorentzian property")
    _leaf(sub, "strict", lambda run, a: _certificate_verdict(
              run, certify.is_strictly_lorentzian(_load_poly(a.poly)), witness=True),
          "poly", help="certify the strictly Lorentzian property")
    _leaf(sub, "hodge-riemann", _hodge_riemann, "poly",
          _arg("--point", type=_point_arg, action="append",
               help="comma-separated rationals; repeatable"),
          _arg("--points", type=int, default=0, help="number of sampled points"),
          _arg("--seed", type=int, help="seed for sampled points"), max_den,
          help="Hessian inertia at positive points")
    _leaf(sub, "rayleigh", _rayleigh, "poly", _arg("--c", type=_fraction_arg, required=True),
          _arg("--trials", type=int, default=10000), _arg("--seed", type=int, required=True),
          _arg("--point", type=_point_arg, action="append",
               help="explicit points checked before sampling; repeatable"), max_den,
          help="falsify the c-Rayleigh inequality")
    _leaf(sub, "mconvex", lambda run, a: run.verdict(
              *_M_CONVEX[a.subverb](function_from_dict(load_json(a.function)))),
          _arg("subverb", choices=list(_M_CONVEX)),
          _arg("function", help="discrete function JSON (set = its domain)"),
          help="M-convexity of sets and functions")
    _construct(sub, "genpoly", lambda a: (
                   mconvex.generating_poly_f if a.kind == "f" else mconvex.generating_poly_g)(
                   function_from_dict(load_json(a.function)), a.q),
               "function", _arg("--q", type=_fraction_arg, required=True),
               _arg("--kind", choices=["f", "g"], default="f"),
               help="generating polynomial of a discrete function")

    op = sub.add_parser("operator", help="Lorentzian-preserving operators").add_subparsers(
        dest="subverb", required=True)
    kappa = _arg("--kappa", type=_int_list_arg, required=True,
                 help="comma-separated per-variable degree caps")
    _construct(op, "symbol", lambda a: operators.symbol(operator_from_dict(load_json(a.table))),
               "table", key="symbol")
    _construct(op, "apply", lambda a: operators.apply_operator(
                   operator_from_dict(load_json(a.table)), _load_poly(a.poly)),
               "table", "poly")
    _construct(op, "polarize", lambda a: operators.polarize(_load_poly(a.poly), a.kappa),
               "poly", kappa)
    _construct(op, "project", lambda a: operators.project(_load_poly(a.poly), a.kappa),
               "poly", kappa)
    _construct(op, "normalize", lambda a: operators.normalize(_load_poly(a.poly)), "poly")
    _construct(op, "multiaffine", lambda a: operators.multi_affine_part(_load_poly(a.poly)),
               "poly")
    _leaf(op, "power", _power, "poly", _arg("--p", type=_fraction_arg, required=True),
          _CERTIFY)
    _construct(op, "exclusion", lambda a: operators.exclusion_step(
                   _load_poly(a.poly), a.i, a.j, a.theta), "poly", *exclusion)
    _construct(op, "nuij", lambda a: operators.nuij_transform(_load_poly(a.poly), a.theta),
               "poly", theta)

    ma = sub.add_parser("matroid", help="matroid constructions").add_subparsers(
        dest="subverb", required=True)
    matroid = _arg("input", help="matroid JSON, graph JSON, or vectors JSON (zonotope)")
    _leaf(ma, "validate", _validate, matroid)
    _construct(ma, "basis-poly", lambda a: matroids.basis_generating_poly(
                   load_matroid(a.input)), matroid)
    _construct(ma, "potts", lambda a: matroids.potts_poly(
                   load_matroid(a.input, ranked=True), a.q),
               matroid, _arg("--q", type=_fraction_arg, required=True))
    _construct(ma, "indep-poly", lambda a: matroids.independent_set_poly(
                   load_matroid(a.input, ranked=True)), matroid)
    _leaf(ma, "mason", _mason, matroid)
    _leaf(ma, "tutte", _tutte, matroid, _arg("--x", type=_fraction_arg),
          _arg("--y", type=_fraction_arg),
          _arg("--section-q", dest="section_q", type=_fraction_arg))
    _construct(ma, "zonotope", lambda a: matroids.zonotope_volume_poly(
                   vectors_from_dict(load_json(a.input))), matroid)

    mm = sub.add_parser(
        "mmatrix", help="M-matrix recognition and characteristic polynomial").add_subparsers(
        dest="subverb", required=True)
    _leaf(mm, "recognize", lambda run, a: run.verdict(
              mmatrix.is_m_matrix(matrix_from_dict(load_json(a.matrix)))), "matrix")
    _construct(mm, "charpoly", lambda a: mmatrix.char_poly_multivariate(
                   matrix_from_dict(load_json(a.matrix))), "matrix")

    me = sub.add_parser(
        "measure", help="discrete measures and negative dependence").add_subparsers(
        dest="subverb", required=True)
    normalize = _arg("--normalize", action="store_true",
                     help="accept unnormalized weights and scale them to total 1")
    _leaf(me, "lorentzian", lambda run, a: _certificate_verdict(
              run, measures.is_lorentzian_measure(_load_measure(a))), "measure", normalize)
    _leaf(me, "report", _measure_report, "measure", normalize,
          _arg("--c", type=_fraction_arg, default=Fraction(2)),
          _arg("--trials", type=int, default=10000), _arg("--seed", type=int, required=True))
    _leaf(me, "field", lambda run, a: run.constructed(measure=measure_to_dict(
              measures.external_field(_load_measure(a), a.x))),
          "measure", normalize, _arg("--x", type=_point_arg, required=True))
    _leaf(me, "exclusion", lambda run, a: run.constructed(measure=measure_to_dict(
              measures.exclusion_evolution(_load_measure(a), a.i, a.j, a.theta))),
          "measure", normalize, *exclusion)

    _leaf(sub, "roundtrip", lambda run, a: run.verdict(roundtrip(a.input)), "input",
          help="parse -> serialize -> parse identity check")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    # values of any size: no int <-> str digit limit while the command runs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        command = [args.command] + ([args.subverb] if getattr(args, "subverb", None) else [])
        try:
            return args.handler(_Run(args, command), args)
        except ValueError as exc:   # LoadError included
            _emit({"command": command, "error": str(exc)}, EXIT_INPUT)
            return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
