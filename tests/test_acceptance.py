"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Every check is exact rational arithmetic; the stated
wall-clock limits are asserted where the criterion pins one.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from lorentz import (DiscreteFunction, HomogPoly, Measure, exclusion_step,
                     generating_poly_f, generating_poly_g, hodge_riemann_many,
                     independent_set_poly, inertia, is_lorentzian,
                     multi_affine_part, normalize, polarize, potts_poly,
                     project, rayleigh_check_at, rayleigh_falsify,
                     zonotope_volume_poly)
from lorentz import basis_generating_poly, char_poly_multivariate
from lorentz.catalog import NAMES, load
from lorentz.matroids import normalize_counts
from lorentz.measures import pairwise_bound_failures
from lorentz.poly import first_ulc_failure

from generators import (matroid_measures, random_lorentzian_input,
                        random_m_convex_function, random_m_matrix,
                        random_nonneg_matrix, random_positive_fraction,
                        random_symmetric, uniform_matroid)
from poly_oracles import (bivariate_restriction, directional_derive, linear_form,
                          normalized_coeff, substitute)
from test_certify import bivariate_lorentzian_oracle


@contextmanager
def criterion(number, label, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL after "
              f"{time.perf_counter() - t0:.2f}s")
        raise
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s"
    if limit_s is not None:
        line += f" (limit {limit_s}s)"
        assert elapsed < limit_s, f"exceeded the {limit_s}s limit: {elapsed:.2f}s"
    print(line)


def theta_cubic(theta):
    return HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18,
                            (0, 3): Fraction(theta)})


def test_criterion_1_threshold_exactness():
    with criterion(1, "threshold exactness", 1.0):
        for theta in (0, Fraction(9, 2), 9):
            assert is_lorentzian(theta_cubic(theta)).verdict
        for theta in (Fraction(91, 10), 10):
            assert not is_lorentzian(theta_cubic(theta)).verdict


def test_criterion_2_fano():
    with criterion(2, "Fano basis polynomial", 5.0):
        cert = is_lorentzian(basis_generating_poly(load("fano")))
        assert cert.verdict


def _connected_graphs(max_edges):
    """Labeled connected simple graphs on 2..max_edges+1 vertices."""
    for v in range(2, max_edges + 2):
        pairs = list(combinations(range(v), 2))
        for m in range(v - 1, min(max_edges, len(pairs)) + 1):
            for sub in combinations(range(len(pairs)), m):
                parent = list(range(v))

                def find(a):
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    return a

                comps = v
                for idx in sub:
                    ra, rb = find(pairs[idx][0]), find(pairs[idx][1])
                    if ra != rb:
                        parent[ra] = rb
                        comps -= 1
                if comps == 1:
                    yield v, [pairs[i] for i in sub]


def _forest_counts(v, edges):
    m = len(edges)
    if m == v - 1:
        # a connected graph with v-1 edges is a tree: every subset is a forest
        return [comb(m, k) for k in range(m + 1)]
    counts = [0] * v
    for mask in range(1 << m):
        parent = list(range(v))
        size = 0
        ok = True
        for i in range(m):
            if mask >> i & 1:
                a, b = edges[i]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a == b:
                    ok = False
                    break
                parent[a] = b
                size += 1
        if ok:
            counts[size] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def _ulc_counts(n, counts):
    for k in range(1, len(counts) - 1):
        lhs = counts[k] ** 2 * comb(n, k - 1) * comb(n, k + 1)
        rhs = counts[k - 1] * counts[k + 1] * comb(n, k) ** 2
        if lhs < rhs:
            return False
    return True


def test_criterion_3_mason():
    from lorentz import cycle_matroid, independence_counts
    with criterion(3, "Mason strongest inequality", 30.0):
        graphs = 0
        for v, edges in _connected_graphs(6):
            counts = _forest_counts(v, edges)
            assert _ulc_counts(len(edges), counts), (v, edges, counts)
            if graphs % 500 == 0:  # tie the oracle to the library surface
                m = cycle_matroid(v, edges)
                assert independence_counts(m) == counts
                assert first_ulc_failure(independence_counts(m), m.n) is None
            graphs += 1
        assert graphs > 20000  # enumeration really ran
        # M(K4), with equality detection on the uniform family
        assert _ulc_counts(6, [1, 6, 15, 16])
        k4 = load("mk4")
        seq = normalize_counts(independence_counts(k4), k4.n)
        assert all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))
        for n in range(1, 9):
            for d in range(0, n + 1):
                u = uniform_matroid(d, n)
                seq = normalize_counts(independence_counts(u), u.n)
                for k in range(1, len(seq) - 1):
                    assert seq[k] ** 2 == seq[k - 1] * seq[k + 1]  # equality detected


def test_criterion_4_potts():
    with criterion(4, "Potts partition functions", 60.0):
        for name in ("u24", "fano", "mk4"):
            m = load(name)
            for q in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                assert is_lorentzian(potts_poly(m, q)).verdict, (name, q)


def test_criterion_5_m_matrices():
    with criterion(5, "M-matrix characteristic polynomials", 60.0):
        merge_cache = {}
        for i in range(100):
            rng = random.Random(9000 + i)
            n = rng.randint(1, 5)
            a = random_m_matrix(n, seed=9000 + i)
            p = char_poly_multivariate(a)
            assert is_lorentzian(p).verdict, i
            if n not in merge_cache:
                merge = [[Fraction(0)] * 2 for _ in range(n + 1)]
                merge[0][0] = Fraction(1)
                for r in range(1, n + 1):
                    merge[r][1] = Fraction(1)
                merge_cache[n] = merge
            coeffs = bivariate_restriction(substitute(p, merge_cache[n]), 1, 0)
            assert _ulc_counts(n, coeffs), i


def test_criterion_6_operator_closure():
    with criterion(6, "operator closure suite", 300.0):
        rng = random.Random(777)
        inputs = []
        while len(inputs) < 200:
            f = random_lorentzian_input(rng)
            if f.degree < 1 or f.is_zero() or sum(f.var_degree_caps()) < 2:
                continue
            inputs.append(f)
        for idx, f in enumerate(inputs):
            kappa = f.var_degree_caps()
            lifted = polarize(f, kappa)
            assert is_lorentzian(lifted).verdict, ("polarize", idx)
            back = project(lifted, kappa)
            assert back == f and is_lorentzian(back).verdict, ("project", idx)
            assert is_lorentzian(normalize(f)).verdict, ("normalize", idx)
            assert is_lorentzian(multi_affine_part(f)).verdict, ("multiaffine", idx)
            sub = substitute(f, random_nonneg_matrix(rng, f.nvars, rng.randint(1, 3)))
            assert is_lorentzian(sub).verdict, ("substitute", idx)
            direction = [Fraction(rng.randint(0, 3)) for _ in range(f.nvars)]
            assert is_lorentzian(directional_derive(f, direction)).verdict, \
                ("directional", idx)
            swapped = exclusion_step(lifted, 0, lifted.nvars - 1, Fraction(1, 2))
            assert is_lorentzian(swapped).verdict, ("exclusion", idx)
        for f, g in zip(inputs[0::2], inputs[1::2]):
            n = max(f.nvars, g.nvars)
            fe = substitute(f, [[Fraction(1 if i == j else 0) for j in range(n)]
                                for i in range(f.nvars)])
            ge = substitute(g, [[Fraction(1 if i == j else 0) for j in range(n)]
                                for i in range(g.nvars)])
            assert is_lorentzian(fe * ge).verdict, "product"


def _fixture_lorentzian_polys():
    fixtures = [theta_cubic(9), linear_form([1, 1, 1]) ** 3,
                potts_poly(load("u24"), Fraction(1, 2)),
                independent_set_poly(load("mk4")),
                zonotope_volume_poly([[1, 0], [0, 1], [1, 1], [1, -1]]),
                char_poly_multivariate(random_m_matrix(4, seed=42, slack=1))]
    fixtures += [basis_generating_poly(load(name)) for name in NAMES]
    mu, nu = matroid_measures(load("mk4"))
    from lorentz import partition_homogenized
    fixtures += [partition_homogenized(mu), partition_homogenized(nu)]
    return [f for f in fixtures if f.degree >= 2]


def test_criterion_7_hodge_riemann():
    with criterion(7, "Hodge-Riemann at positive points", 60.0):
        rng = random.Random(4242)
        for f in _fixture_lorentzian_polys():
            assert is_lorentzian(f).verdict
            points = [[random_positive_fraction(rng) for _ in range(f.nvars)]
                      for _ in range(50)]
            for sig in hodge_riemann_many(f, points):
                assert sig.n_plus == 1


def test_criterion_8_rayleigh_tightness():
    with criterion(8, "Rayleigh bound tightness"):
        for d in range(2, 7):
            f = HomogPoly(3, d, {(d, 0, 0): 2 * (1 - Fraction(1, d)),
                                 (d - 1, 1, 0): 1, (d - 1, 0, 1): 1,
                                 (d - 2, 1, 1): 1})
            c_tight = 2 * (1 - Fraction(1, d))
            wit = rayleigh_check_at(f, c_tight - Fraction(1, 100), [[1, 0, 0]])
            assert wit is not None and wit.lhs > wit.rhs, d
            assert rayleigh_falsify(f, c_tight, trials=10000, seed=d) is None, d


def test_criterion_9_classical_two_sided():
    with criterion(9, "M-convex generating polynomials"):
        rng = random.Random(31337)
        for _ in range(50):
            nu = random_m_convex_function(rng, rng.randint(2, 4), rng.randint(1, 4))
            for q in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                assert is_lorentzian(generating_poly_f(nu, q)).verdict
                assert is_lorentzian(generating_poly_g(nu, q)).verdict
        witness = DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
        f = generating_poly_f(witness, Fraction(1, 2))
        # normalized coefficients (1, q, 1) with q = 1/2: ULC fails since q^2 < 1
        assert normalized_coeff(f, (1, 1)) ** 2 < 1
        assert not is_lorentzian(f).verdict


def test_criterion_10_inertia_oracle():
    with criterion(10, "inertia against the float eigensolver"):
        logged = []
        for i in range(500):
            rng = random.Random(20000 + i)
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n)
            eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row]
                                                for row in m.entries]))
            sig = inertia(m)
            if np.min(np.abs(eigs)) > 1e-6:
                assert sig.n_plus == int(np.sum(eigs > 0)), i
                assert sig.n_minus == int(np.sum(eigs < 0)), i
                assert sig.n_zero == 0, i
            else:
                logged.append((i, n, sig, [float(e) for e in eigs]))
        for entry in logged:
            print(f"  inertia oracle: case {entry[0]} near-singular (n={entry[1]}), "
                  f"exact {entry[2]}, float eigenvalues {entry[3]}")


def test_criterion_11_bivariate_oracle():
    with criterion(11, "bivariate ULC oracle equivalence"):
        rng = random.Random(30000)
        for _ in range(500):
            d = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(0, 9), rng.randint(1, 4))
                      if rng.random() < 0.75 else Fraction(0)
                      for _ in range(d + 1)]
            f = HomogPoly(2, d, {(k, d - k): coeffs[k] for k in range(d + 1)
                                 if coeffs[k]})
            assert is_lorentzian(f).verdict == bivariate_lorentzian_oracle(coeffs)


def test_criterion_12_measures():
    with criterion(12, "matroid measures"):
        for name in NAMES:
            m = load(name)
            mu, nu = matroid_measures(m)
            assert is_lorentzian_measure_verdict(mu), name
            assert is_lorentzian_measure_verdict(nu), name
            # exact pairwise bound Pr(i,j) <= 2 Pr(i) Pr(j) for mu_M
            assert pairwise_bound_failures(mu, 2) == [], name


def is_lorentzian_measure_verdict(mu: Measure) -> bool:
    from lorentz import is_lorentzian_measure
    return is_lorentzian_measure(mu).verdict
