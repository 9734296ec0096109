"""Seeded inputs and the job list of each benchmark workload.

The generators are the benchmark's own.  Nothing comes from
``lorentz.catalog`` or ``lorentz.mmatrix.random_m_matrix``, so a change to
the library cannot change the load.  A seed changes labels and numbers, not
sizes: it relabels the same matroids and graphs and draws q values, matrix
entries and function values of a fixed shape, so the work of a job stays
about the same from seed to seed.

Each job carries the exit code its input gives by construction and a check
of the answer against values computed here, independently of the library.

Run as a script it is the benchmark's set-up, as a user would pay it in a
fresh interpreter: import ``lorentz.cli``, then generate and write the
inputs of one workload::

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional

WORKLOADS = ("certify", "construct", "sample")

# Sizes fixed by the benchmark definition; a seed never changes them.
RAYLEIGH_TRIALS = 1000       # rayleigh on the Fano basis polynomial, c = 2
REPORT_TRIALS = 1000         # measure report on the Fano independent-set measure
HODGE_POINTS = 30            # hodge-riemann --points on Fano Potts
SHORT_JOB_REPEAT = 10        # runs per sample of the jobs that take under 10 ms

FANO_LINES = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
WHEEL6 = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]
FAN5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3)]
K5 = list(combinations(range(5), 2))

Check = Callable[[dict], Optional[str]]


@dataclass
class Job:
    """One CLI invocation: its argv, environment, expected exit code and checks.

    A job of a few milliseconds runs ``repeat`` times back to back in one
    sample, so that its latency is not mostly timer and scheduling noise.
    """

    name: str
    argv: list[str]
    expect_code: int
    checks: tuple[Check, ...]
    env: dict = field(default_factory=dict)
    repeat: int = 1


# -- small exact helpers -----------------------------------------------------

def _popcount(x: int) -> int:
    return bin(x).count("1")


def _simplex(n: int, d: int):
    # lexicographic degree-d exponent vectors in n variables
    if n == 1:
        yield (d,)
        return
    for k in range(d, -1, -1):
        for rest in _simplex(n - 1, d - k):
            yield (k,) + rest


def _rat(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _poly_doc(n: int, d: int, terms: dict) -> dict:
    return {"n": n, "d": d,
            "terms": [{"exp": list(e), **_rat(Fraction(terms[e]))}
                      for e in sorted(terms) if terms[e] != 0]}


def _homogenised(n: int, weights: dict) -> dict:
    """sum over masks A of weight(A) w^A w_0^(n-|A|): degree n, n+1 variables."""
    terms = {}
    for mask, w in weights.items():
        terms[(n - _popcount(mask),) + tuple(mask >> i & 1 for i in range(n))] = w
    return terms


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(map(Fraction, r)) for r in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return det


# -- matroids and graphs -----------------------------------------------------

def fano_bases(rng: random.Random) -> list[list[int]]:
    """Bases of the Fano matroid under a seeded relabelling of its 7 points."""
    perm = list(range(7))
    rng.shuffle(perm)
    lines = {frozenset(perm[p] for p in line) for line in FANO_LINES}
    return [list(s) for s in combinations(range(7), 3) if frozenset(s) not in lines]


def relabelled_graph(rng: random.Random, vertices: int, edges) -> list[list[int]]:
    perm = list(range(vertices))
    rng.shuffle(perm)
    out = [[perm[u], perm[v]] if rng.randrange(2) else [perm[v], perm[u]]
           for u, v in edges]
    rng.shuffle(out)
    return out


def forest_rank(vertices: int, edges, mask: int) -> int:
    parent = list(range(vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    r = 0
    for idx, (u, v) in enumerate(edges):
        if mask >> idx & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
    return r


def graph_rank_table(vertices: int, edges) -> list[int]:
    return [forest_rank(vertices, edges, mask) for mask in range(1 << len(edges))]


def bases_rank_table(n: int, bases) -> list[int]:
    masks = [sum(1 << i for i in b) for b in bases]
    return [max(_popcount(mask & b) for b in masks) for mask in range(1 << n)]


def potts_terms(ranks: list[int], n: int, q: Fraction) -> dict:
    return _homogenised(n, {mask: q ** -r for mask, r in enumerate(ranks)})


def indep_terms(ranks: list[int], n: int) -> dict:
    return _homogenised(n, {mask: 1 for mask, r in enumerate(ranks)
                            if r == _popcount(mask)})


def independence_counts(ranks: list[int]) -> list[int]:
    counts = [0] * (max(ranks) + 1)
    for mask, r in enumerate(ranks):
        if r == _popcount(mask):
            counts[r] += 1
    return counts


# -- M-matrices, functions, operators ----------------------------------------

def m_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Strictly diagonally dominant Z-matrix: a nonsingular M-matrix, so
    every principal minor is positive."""
    b = [[Fraction(0) if i == j else Fraction(rng.randint(0, 3), rng.randint(1, 2))
          for j in range(n)] for i in range(n)]
    s = max(sum(row) for row in b) + 1
    return [[s if i == j else -b[i][j] for j in range(n)] for i in range(n)]


def charpoly_terms(a: list[list[Fraction]]) -> dict:
    n = len(a)
    weights = {}
    for mask in range(1 << n):
        keep = [i for i in range(n) if mask >> i & 1]
        weights[mask] = _det([[a[i][j] for j in keep] for i in keep])
    return _homogenised(n, weights)


def separable_convex(rng: random.Random, n: int, d: int) -> dict:
    """sum_i g_i(a_i) with convex integer g_i on the whole simplex: M-convex."""
    tables = []
    for _ in range(n):
        g = [0]
        for step in sorted(rng.randint(-3, 3) for _ in range(d)):
            g.append(g[-1] + step)
        tables.append(g)
    return {a: sum(tables[i][k] for i, k in enumerate(a)) for a in _simplex(n, d)}


def polarize_terms(terms: dict, kappa: list[int]) -> dict:
    """Multi-affine lift of w^a to the elementary symmetric polynomials of
    each variable group, divided by C(kappa, a)."""
    offsets = [0]
    for k in kappa:
        offsets.append(offsets[-1] + k)
    out: dict = {}
    for e, c in terms.items():
        coeff = Fraction(c) / math.prod(math.comb(k, a) for k, a in zip(kappa, e))
        choices = [combinations(range(offsets[i], offsets[i + 1]), e[i])
                   for i in range(len(kappa))]
        for picks in product(*choices):
            lifted = [0] * offsets[-1]
            for pick in picks:
                for pos in pick:
                    lifted[pos] = 1
            key = tuple(lifted)
            out[key] = out.get(key, 0) + coeff
    return out


# -- answer checks: each returns None, or what is wrong -------------------

def _short(x) -> str:
    text = json.dumps(x)
    return text if len(text) <= 80 else text[:77] + "..."


def _expect(path: str, want) -> Check:
    """The report value at a dotted path must equal ``want``.

    A callable ``want`` is computed on first use, so that set-up, which
    builds every check, does not pay for the expected answers.
    """
    cached = []

    def check(rep):
        if not cached:
            cached.append(want() if callable(want) else want)
        got = rep
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        return None if got == cached[0] else f"{path} is {_short(got)}, want {_short(cached[0])}"
    return check


def _hodge_points(count: int) -> Check:
    def check(rep):
        pts = rep.get("result", {}).get("points", [])
        if len(pts) != count:
            return f"{len(pts)} points, want {count}"
        if any(p["inertia"]["n_plus"] != 1 for p in pts):
            return "a Hessian at a positive point has n_plus != 1"
        return None
    return check


def _violation_holds(rep) -> Optional[str]:
    v = rep.get("result", {}).get("violation") or {}
    try:
        ok = Fraction(v["lhs"]) > Fraction(v["rhs"])
    except (KeyError, TypeError, ValueError):
        return "no exact violation in the report"
    return None if ok else "reported violation has lhs <= rhs"


def _same_bases(want: list) -> Check:
    def check(rep):
        got = rep.get("result", {}).get("matroid", {}).get("bases", [])
        return None if sorted(got) == sorted(want) else "validated bases differ from the input"
    return check


HOLDS, REFUTED = _expect("verdict", True), _expect("verdict", False)


# -- workloads ---------------------------------------------------------------

class _Writer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def add(self, name: str, doc: dict) -> str:
        self.files[name] = json.dumps(doc, sort_keys=True)
        return os.path.join(self.out_dir, name)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{tag}")


def _seeded_q(rng: random.Random) -> Fraction:
    # q in (0, 1] with a one-digit denominator
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den), den)


def _fano_potts(seed: int, tag: str) -> dict:
    rng = _rng(seed, tag)
    bases = fano_bases(rng)
    return _poly_doc(8, 7, potts_terms(bases_rank_table(7, bases), 7, _seeded_q(rng)))


def _certify_jobs(seed: int, w: _Writer) -> list[Job]:
    potts_doc = _fano_potts(seed, "potts")
    potts = w.add("fano_potts.json", potts_doc)

    jobs = [Job("check_fano_potts", ["check", potts], 0, (HOLDS,))]
    for k in range(2):
        a = m_matrix(_rng(seed, f"m7-{k}"), 7)
        path = w.add(f"m7_{k}.json", {"n": 7, "rows": [[str(x) for x in r] for r in a]})
        jobs.append(Job(f"charpoly_certify_m7_{k}", ["mmatrix", "charpoly", path, "--certify"], 0,
                        (HOLDS, _expect("result.poly", lambda a=a: _poly_doc(8, 7, charpoly_terms(a))))))

    bases = fano_bases(_rng(seed, "basis-measure"))
    measure = w.add("fano_basis_measure.json", {
        "n": 7, "atoms": [{"set": b, "num": "1", "den": str(len(bases))} for b in bases]})
    jobs.append(Job("measure_lorentzian_fano", ["measure", "lorentzian", measure], 0,
                    (HOLDS,)))

    edges = relabelled_graph(_rng(seed, "graph7"), 5, FAN5)
    graph = w.add("graph7.json", {"vertices": 5, "edges": edges})
    jobs.append(Job("indep_poly_certify_graph7", ["matroid", "indep-poly", graph, "--certify"], 0,
                    (HOLDS, _expect("result.poly", lambda: _poly_doc(
                        8, 7, indep_terms(graph_rank_table(5, edges), 7))))))

    jobs.append(Job("check_exhaustive_serial", ["check", potts, "--exhaustive"], 0,
                    (HOLDS,), env={"LORENTZ_JOBS": "1"}))
    jobs.append(Job("check_exhaustive_pool", ["check", potts, "--exhaustive"], 0,
                    (HOLDS,), env={"LORENTZ_JOBS": "2"}))

    fano = fano_bases(_rng(seed, "potts-q2"))
    fano_path = w.add("fano.json", {"n": 7, "bases": fano})
    jobs.append(Job("potts_fano_q2_refuted", ["matroid", "potts", fano_path, "--q", "2", "--certify"],
                    1, (REFUTED, _expect("result.poly", lambda: _poly_doc(
                        8, 7, potts_terms(bases_rank_table(7, fano), 7, Fraction(2)))),
                        _expect("result.certificate.failing_kind", "inertia_violation"))))

    rng = _rng(seed, "cubic")
    scale = rng.randint(1, 9)
    cubic = {(3, 0): 2, (2, 1): 12, (1, 2): 18, (0, 3): 10}
    if rng.randrange(2):
        cubic = {e[::-1]: c for e, c in cubic.items()}
    path = w.add("cubic_theta10.json", _poly_doc(2, 3, {e: scale * c for e, c in cubic.items()}))
    jobs.append(Job("check_cubic_theta10", ["check", path], 1,
                    (REFUTED, _expect("result.certificate.failing_kind", "inertia_violation")),
                    repeat=SHORT_JOB_REPEAT))

    rng = _rng(seed, "strict")
    points = list(_simplex(4, 4))
    hole = points[rng.randrange(len(points))]
    form = {e: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for e in points if e != hole}
    path = w.add("form_with_hole.json", _poly_doc(4, 4, form))
    jobs.append(Job("strict_without_full_support", ["strict", path], 1,
                    (REFUTED, _expect("result.certificate.failing_kind", "negative_coefficient"),
                     _expect("result.certificate.failing_alpha", list(hole))),
                    repeat=SHORT_JOB_REPEAT))
    return jobs


def _construct_jobs(seed: int, w: _Writer) -> list[Job]:
    rng = _rng(seed, "graph12")
    edges = relabelled_graph(rng, 7, WHEEL6)
    graph = w.add("graph12.json", {"vertices": 7, "edges": edges})
    ranks = functools.cache(lambda: graph_rank_table(7, edges))
    q = _seeded_q(rng)
    section_q = _seeded_q(rng)

    def section():
        out = [Fraction(0)] * 13
        for mask, r in enumerate(ranks()):
            out[_popcount(mask)] += section_q ** (6 - r)   # the wheel has rank 6
        return [str(c) for c in out]

    jobs = [
        Job("potts_graph12", ["matroid", "potts", graph, "--q", str(q)], 0,
            (_expect("result.poly", lambda: _poly_doc(13, 12, potts_terms(ranks(), 12, q))),)),
        Job("mason_graph12", ["matroid", "mason", graph], 0,
            (HOLDS, _expect("result.independence_counts", lambda: independence_counts(ranks())))),
        Job("tutte_section_graph12", ["matroid", "tutte", graph, "--section-q", str(section_q)], 0,
            (_expect("result.section", section),)),
        Job("indep_poly_graph12", ["matroid", "indep-poly", graph], 0,
            (_expect("result.poly", lambda: _poly_doc(13, 12, indep_terms(ranks(), 12))),)),
    ]

    rng = _rng(seed, "k5")
    k5 = relabelled_graph(rng, 5, K5)
    k5_path = w.add("k5.json", {"vertices": 5, "edges": k5})
    x, y = Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4))

    def value():
        return str(sum((x - 1) ** (4 - r) * (y - 1) ** (_popcount(mask) - r)
                       for mask, r in enumerate(graph_rank_table(5, k5))))
    jobs.append(Job("tutte_k5", ["matroid", "tutte", k5_path, "--x", str(x), "--y", str(y)], 0,
                    (_expect("result.value", value),)))

    a = m_matrix(_rng(seed, "m8"), 8)
    m8 = w.add("m8.json", {"n": 8, "rows": [[str(v) for v in r] for r in a]})
    jobs.append(Job("recognize_m8", ["mmatrix", "recognize", m8], 0, (HOLDS,)))
    jobs.append(Job("charpoly_m8", ["mmatrix", "charpoly", m8], 0,
                    (_expect("result.poly", lambda: _poly_doc(9, 8, charpoly_terms(a))),)))

    rng = _rng(seed, "validate")
    tree_edges = relabelled_graph(rng, 5, K5)
    trees = sorted([i for i in range(10) if mask >> i & 1]
                   for mask, r in enumerate(graph_rank_table(5, tree_edges))
                   if r == 4 and _popcount(mask) == 4)
    rng.shuffle(trees)
    bases_path = w.add("k5_bases.json", {"n": 10, "bases": trees})
    jobs.append(Job("validate_k5_bases", ["matroid", "validate", bases_path], 0,
                    (HOLDS, _same_bases(trees))))

    rng = _rng(seed, "mconvex")
    values = separable_convex(rng, 5, 5)
    fn = w.add("mconvex.json", {"n": 5, "d": 5, "values": [
        {"exp": list(e), **_rat(Fraction(v))} for e, v in sorted(values.items())]})
    gq = Fraction(rng.randint(1, 4), rng.randint(2, 5))

    def g_poly():
        return _poly_doc(5, 5, {e: math.prod(math.comb(5, k) for k in e) * gq ** v
                                for e, v in values.items()})
    jobs.append(Job("mconvex_function", ["mconvex", "function", fn], 0, (HOLDS,)))
    jobs.append(Job("genpoly_g", ["genpoly", fn, "--q", str(gq), "--kind", "g"], 0,
                    (_expect("result.poly", g_poly),), repeat=SHORT_JOB_REPEAT))

    f_doc = _fano_potts(seed, "operator")
    f_terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"])) for t in f_doc["terms"]}
    kappa = [max(e[i] for e in f_terms) for i in range(8)]
    kappa_arg = ",".join(map(str, kappa))
    f_path = w.add("operator_f.json", f_doc)
    lifted = _poly_doc(sum(kappa), 7, polarize_terms(f_terms, kappa))
    g_path = w.add("operator_g.json", lifted)
    jobs.append(Job("polarize_fano_potts", ["operator", "polarize", f_path, "--kappa", kappa_arg],
                    0, (_expect("result.poly", lifted),)))
    jobs.append(Job("project_fano_potts", ["operator", "project", g_path, "--kappa", kappa_arg],
                    0, (_expect("result.poly", f_doc),)))
    return jobs


def _sample_jobs(seed: int, w: _Writer) -> list[Job]:
    rng = _rng(seed, "rayleigh")
    bases = fano_bases(rng)
    basis_poly = w.add("fano_basis_poly.json", _poly_doc(
        7, 3, {tuple(1 if i in b else 0 for i in range(7)): 1 for b in bases}))
    jobs = [Job("rayleigh_fano_c2", ["rayleigh", basis_poly, "--c", "2", "--trials",
                                     str(RAYLEIGH_TRIALS), "--seed", str(rng.randrange(10**6))],
                0, (HOLDS, _expect("result.searched_trials", RAYLEIGH_TRIALS)))]

    # criterion-8 family: tight c is 2(1 - 1/d), violated at (1, 0, 0) below it
    d = rng.randint(3, 6)
    tight = 2 * (1 - Fraction(1, d))
    planted = w.add("rayleigh_planted.json", _poly_doc(3, d, {
        (d, 0, 0): tight, (d - 1, 1, 0): 1, (d - 1, 0, 1): 1, (d - 2, 1, 1): 1}))
    c = tight - Fraction(1, rng.randint(10, 99))
    jobs.append(Job("rayleigh_planted_violation",
                    ["rayleigh", planted, "--c", str(c), "--trials", str(RAYLEIGH_TRIALS),
                     "--seed", str(rng.randrange(10**6)), "--point", "1,0,0"],
                    1, (REFUTED, _violation_holds), repeat=SHORT_JOB_REPEAT))

    rng = _rng(seed, "report")
    ranks = bases_rank_table(7, fano_bases(rng))
    indep = [mask for mask, r in enumerate(ranks) if r == _popcount(mask)]
    measure = w.add("fano_indep_measure.json", {"n": 7, "atoms": [
        {"set": [i for i in range(7) if mask >> i & 1], "num": "1", "den": str(len(indep))}
        for mask in indep]})
    jobs.append(Job("measure_report_fano", ["measure", "report", measure, "--c", "2", "--trials",
                                            str(REPORT_TRIALS), "--seed", str(rng.randrange(10**6))],
                    0, (HOLDS, _expect("result.report.trials", REPORT_TRIALS))))

    potts_doc = _fano_potts(seed, "hodge")
    potts = w.add("fano_potts.json", potts_doc)
    jobs.append(Job("hodge_riemann_fano_potts",
                    ["hodge-riemann", potts, "--points", str(HODGE_POINTS),
                     "--seed", str(_rng(seed, "hodge-points").randrange(10**6))],
                    0, (HOLDS, _hodge_points(HODGE_POINTS))))
    return jobs


_BUILDERS = {"certify": _certify_jobs, "construct": _construct_jobs, "sample": _sample_jobs}


def build(workload: str, seed: int, out_dir: str) -> tuple[list[Job], dict[str, str]]:
    """The workload's jobs, with argv naming files under out_dir, and the
    contents of those files by file name."""
    w = _Writer(out_dir)
    jobs = _BUILDERS[workload](seed, w)
    return jobs, w.files


def write(files: dict[str, str], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str]) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    import lorentz.cli  # noqa: F401  -- part of the set-up a user pays
    _, files = build(workload, seed, out_dir)
    write(files, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
