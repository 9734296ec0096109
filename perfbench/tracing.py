"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``lorentz`` module and
three ``HomogPoly`` methods.  A function is replaced wherever it is bound:
in its defining module and in every ``lorentz`` module that imported it by
name (``certify.inertia``, ``matroids.bareiss_determinant``, the
``serialize`` names in ``cli``, ...).  Patching only the defining module
would miss those calls.

Each call records a span (name, start, end, parent span, job) in memory;
a few wrappers also read their arguments or result to count work.  Worker
processes forked by the exhaustive scan's pool inherit the wrappers but
record nothing: their time shows up in the parent's ``is_lorentzian`` span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# Modules whose public functions are wrapped, and the layer each one is.
LAYER_MODULES = ("certify", "inertia", "matroids", "mconvex", "measures",
                 "mmatrix", "operators", "serialize")
POLY_METHODS = ("derive", "eval", "quadratic_hessian_after")

SCAN = {"certify.is_lorentzian", "certify.is_strictly_lorentzian"}
RAYLEIGH = {"certify.rayleigh_falsify", "certify.rayleigh_check_at"}
HODGE = {"certify.hodge_riemann_many", "certify.hodge_riemann_at"}
EXCHANGE = {"mconvex.is_m_convex_set", "mconvex.is_matroid_basis_family",
            "mconvex.is_m_convex_function"}
BAREISS = "mmatrix.bareiss_determinant"
HESSIAN = "poly.HomogPoly.quadratic_hessian_after"
# functions that scan all 2^n subsets of the ground set
SUBSET_SCANS = {"matroids.potts_poly", "matroids.tutte", "matroids.tutte_section",
                "matroids.independent_set_masks"}

COUNT_METRICS = (
    "certify.alphas_scanned", "poly.hessian_calls",
    "poly.derive_calls", "poly.eval_calls", "inertia.calls", "inertia.max_dim",
    "inertia.zero_matrix_calls", "mconvex.exchange_calls", "mconvex.exchange_points",
    "matroids.subsets_scanned", "mmatrix.bareiss_calls", "operators.calls")
TIME_METRICS = (
    "cli.self_cal", "serialize.load_cal", "serialize.dump_cal",
    "certify.scan_self_cal", "certify.rayleigh_cal", "certify.hodge_self_cal",
    "poly.hessian_self_cal", "poly.derive_self_cal", "poly.eval_self_cal",
    "inertia.self_cal", "mconvex.exchange_self_cal", "mconvex.function_self_cal",
    "matroids.self_cal", "mmatrix.bareiss_self_cal", "mmatrix.self_cal",
    "measures.report_self_cal", "operators.self_cal")


def time_metric(name: str) -> str | None:
    """The self-time metric a span's own time counts towards."""
    layer = name.split(".", 1)[0]
    if layer == "serialize":
        fn = name.rsplit(".", 1)[1]
        return ("serialize.dump_cal" if fn.endswith("_to_dict") or fn.startswith("dump")
                else "serialize.load_cal")
    if name in SCAN:
        return "certify.scan_self_cal"
    if name in RAYLEIGH:
        return "certify.rayleigh_cal"
    if name in HODGE:
        return "certify.hodge_self_cal"
    if layer == "poly":
        return {"derive": "poly.derive_self_cal", "eval": "poly.eval_self_cal",
                "quadratic_hessian_after": "poly.hessian_self_cal"}[name.rsplit(".", 1)[1]]
    if layer == "mconvex":
        return "mconvex.exchange_self_cal" if name in EXCHANGE else "mconvex.function_self_cal"
    if layer == "mmatrix":
        return "mmatrix.bareiss_self_cal" if name == BAREISS else "mmatrix.self_cal"
    if layer == "measures":
        return "measures.report_self_cal"
    if layer in ("cli", "inertia", "matroids", "operators"):
        return f"{layer}.self_cal"
    return None


class Tracer:
    """Wraps the library's functions and keeps their spans in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.job = None
        self.spans: list = []           # [name, start_ns, end_ns, parent, job]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # job -> counter -> n
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[self.job][key] += amount

    def _observe(self, name: str, args, result) -> None:
        if name == "inertia.inertia":
            m = args[0]
            counts = self.counts[self.job]
            counts["inertia.max_dim"] = max(counts["inertia.max_dim"], m.n)
            if not any(x for row in m.entries for x in row):
                self._count("inertia.zero_matrix_calls")
        elif name == HESSIAN:
            if any(x for row in result.entries for x in row):
                self._count("hessian_nonzero")
        elif name == "mconvex.is_m_convex_set":
            self._count("mconvex.exchange_points", len(args[0].points))
        elif name in SUBSET_SCANS:
            self._count("matroids.subsets_scanned", 1 << args[0].n)
        elif name == "matroids.cycle_matroid":
            self._count("matroids.subsets_scanned", math.comb(len(args[1]), result.rank_full))
        elif name == "serialize.dumps_canonical":
            # the elapsed_ms field varies in length from run to run
            elapsed = len(json.dumps(args[0]["elapsed_ms"])) if "elapsed_ms" in args[0] else 0
            self._count("serialize.dump_bytes", len(result) - elapsed)

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.job]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            try:
                tracer._observe(name, args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # the library changed a type the counters read
                tracer._count("observe_errors")
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import lorentz.cli as cli
        import lorentz.poly
        wrappers = {}   # id(original) -> (original, wrapper)
        wrappers[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))
        for layer in LAYER_MODULES:
            mod = sys.modules[f"lorentz.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        homog = lorentz.poly.HomogPoly
        for attr in POLY_METHODS:
            original = vars(homog)[attr]
            self._patches.append((homog, attr, original))
            setattr(homog, attr, self._wrap(f"poly.HomogPoly.{attr}", original))
        for modname, mod in list(sys.modules.items()):
            if modname != "lorentz" and not modname.startswith("lorentz."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def job_layers(self, job) -> tuple[dict, dict]:
        """(self nanoseconds by time metric, counts by count metric) of one job."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == job]
        child_ns: dict[int, int] = defaultdict(int)
        for _, s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for i, s in spans:
            calls[s[0]] += 1
            metric = time_metric(s[0])
            if metric is not None:
                self_ns[metric] += s[2] - s[1] - child_ns[i]
        in_scan = 0
        for _, s in spans:
            if s[0] == HESSIAN:
                p = s[3]
                while p >= 0 and self.spans[p][0] not in SCAN:
                    p = self.spans[p][3]
                in_scan += p >= 0
        extra = self.counts.get(job, {})
        counts = {
            "serialize.dump_bytes": extra.get("serialize.dump_bytes", 0),
            "certify.alphas_scanned": in_scan,
            "hessian_nonzero": extra.get("hessian_nonzero", 0),
            "poly.hessian_calls": calls[HESSIAN],
            "poly.derive_calls": calls["poly.HomogPoly.derive"],
            "poly.eval_calls": calls["poly.HomogPoly.eval"],
            "inertia.calls": calls["inertia.inertia"],
            "inertia.max_dim": extra.get("inertia.max_dim", 0),
            "inertia.zero_matrix_calls": extra.get("inertia.zero_matrix_calls", 0),
            "mconvex.exchange_calls": calls["mconvex.is_m_convex_set"],
            "mconvex.exchange_points": extra.get("mconvex.exchange_points", 0),
            "matroids.subsets_scanned": extra.get("matroids.subsets_scanned", 0),
            "mmatrix.bareiss_calls": calls[BAREISS],
            "operators.calls": sum(n for k, n in calls.items() if k.startswith("operators.")),
            "observe_errors": extra.get("observe_errors", 0),
        }
        return dict(self_ns), counts

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
