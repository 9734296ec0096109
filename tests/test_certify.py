import json
import random
from collections import Counter
from fractions import Fraction
from itertools import count, product
from math import comb, lcm, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (HomogPoly, Inertia, Measure, PointSet, char_poly_multivariate,
                     hodge_riemann_many, independent_set_poly, is_lorentzian,
                     is_m_convex_set, is_strictly_lorentzian, negative_dependence_report,
                     potts_poly, rayleigh_check_at, rayleigh_falsify)
from lorentz import catalog, certify, mconvex, measures
from lorentz.certify import (INERTIA_VIOLATION, NEGATIVE_COEFFICIENT,
                             SUPPORT_NOT_M_CONVEX, Certificate, _RayleighScan,
                             _coefficient_certificate, _randints,
                             _rayleigh_plan, _sampled_points, _support_certificate,
                             _support_inertias)
from lorentz.cli import main
from lorentz.inertia import _inertia_rows, inertia
from lorentz.matroids import independent_set_masks
from lorentz.poly import simplex
from lorentz.serialize import (graph_matroid_from_dict, matroid_from_dict, poly_from_dict,
                               poly_to_dict)
from faddeev_leverrier import char_poly_inertia
from generators import (random_homog, random_lorentzian_input, random_m_matrix,
                        random_multiaffine, random_nonneg_matrix, random_positive_fraction,
                        random_small_matroid, with_one_scaled)
from poly_oracles import (directional_derive, first_rayleigh_violation, hessian,
                          linear_form, log_concavity_probe, lorentzian_by_definition,
                          pointwise, substitute, support_alphas)

INPUTS = Path(__file__).parent / "golden" / "inputs"
MANY_FAIL = INPUTS / "many_fail.json"


def cubic(theta):
    return HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18,
                            (0, 3): Fraction(theta)})


def bivariate_lorentzian_oracle(coeffs):
    """Independent oracle: nonnegative, ultra log-concave, no internal zeros."""
    d = len(coeffs) - 1
    if any(c < 0 for c in coeffs):
        return False
    support = [k for k, c in enumerate(coeffs) if c != 0]
    if not support:
        return True
    if support != list(range(support[0], support[-1] + 1)):
        return False
    for k in range(1, d):
        if coeffs[k] ** 2 * comb(d, k - 1) * comb(d, k + 1) < \
                coeffs[k - 1] * coeffs[k + 1] * comb(d, k) ** 2:
            return False
    return True


def test_threshold_cubic():
    for theta, expect in [(0, True), (Fraction(9, 2), True), (9, True),
                          (Fraction(91, 10), False), (10, False)]:
        assert is_lorentzian(cubic(theta)).verdict == expect


def test_support_failure():
    cert = is_lorentzian(HomogPoly(2, 3, {(3, 0): 1, (0, 3): 1}))
    assert not cert.verdict and cert.failing_kind == SUPPORT_NOT_M_CONVEX
    # yet both partials are Lorentzian
    f = HomogPoly(2, 3, {(3, 0): 1, (0, 3): 1})
    assert is_lorentzian(f.derive((1, 0))).verdict
    assert is_lorentzian(f.derive((0, 1))).verdict


def test_power_of_linear_form():
    assert is_lorentzian(linear_form([1, 1, 1]) ** 3).verdict


def test_zero_polynomial_flagged():
    cert = is_lorentzian(HomogPoly.zero(3, 2))
    assert cert.verdict and cert.is_zero


def test_negative_coefficient():
    cert = is_lorentzian(HomogPoly(2, 2, {(1, 1): -1}))
    assert not cert.verdict and cert.failing_kind == NEGATIVE_COEFFICIENT
    # the witness is the first negative coefficient in exponent order
    f = HomogPoly(3, 2, {(1, 0, 1): Fraction(-1, 3), (2, 0, 0): 1, (0, 2, 0): -5,
                         (0, 1, 1): -2, (0, 0, 2): Fraction(1, 7)})
    cert = is_lorentzian(f)
    assert (cert.failing_alpha, cert.detail) == ((0, 1, 1), {"coefficient": -2})
    assert not f.has_nonnegative_coeffs()
    assert HomogPoly(3, 2, {(2, 0, 0): Fraction(1, 3), (0, 1, 1): 0}).has_nonnegative_coeffs()


def test_exhaustive_matches_short_circuit():
    for f in (cubic(9), cubic(10), cubic(Fraction(91, 10)),
              linear_form([1, 2, 1]) ** 4):
        a = is_lorentzian(f)
        b = is_lorentzian(f, exhaustive=True)
        assert a.verdict == b.verdict
    assert is_lorentzian(linear_form([1, 2, 1]) ** 4, exhaustive=True).verdict
    bad = is_lorentzian(cubic(10), exhaustive=True)
    assert bad.failing_kind == INERTIA_VIOLATION
    assert bad.detail["all_failures"]


def full_simplex_certificate(f, exhaustive):
    """Reference scan: every alpha of the degree-(d-2) simplex, zero Hessians
    included, with the same checks before the scan."""
    if f.is_zero():
        return Certificate(True, is_zero=True)
    for pre in (_coefficient_certificate, _support_certificate):
        bad = pre(f)
        if bad is not None:
            return bad
    if f.degree <= 1:
        return Certificate(True)
    failures = []
    for alpha in simplex(f.nvars, f.degree - 2):
        sig = inertia(f.quadratic_hessian_after(alpha))
        if sig.n_plus > 1:
            failures.append((alpha, sig))
    if not failures:
        return Certificate(True)
    alpha, sig = failures[0]
    detail = {"inertia": sig, "all_failures": failures} if exhaustive else {"inertia": sig}
    return Certificate(False, failing_alpha=alpha, failing_kind=INERTIA_VIOLATION,
                       detail=detail)


def scan_inputs():
    rng = random.Random(43)
    out = [cubic(9), cubic(10), poly_from_dict(json.loads(MANY_FAIL.read_text()))]
    for _ in range(40):
        f = random_lorentzian_input(rng)
        out.append(f)
        # one inflated coefficient keeps the support and often breaks the inertia
        e = rng.choice(sorted(f.terms))
        out.append(HomogPoly(f.nvars, f.degree, {**f.terms, e: 10 * f.terms[e]}))
    return out


def test_pruned_scan_matches_full_simplex():
    failing = 0
    for f in scan_inputs():
        for exhaustive in (False, True):
            assert is_lorentzian(f, exhaustive) == full_simplex_certificate(f, exhaustive)
        failing += not is_lorentzian(f).verdict
    assert failing >= 3


def test_pruned_alphas_are_the_nonzero_hessians():
    for f in scan_inputs():
        if f.degree < 2:
            continue
        top = f.degree - 2
        nonzero = [a for a in simplex(f.nvars, top)
                   if any(x for row in f.quadratic_hessian_after(a).entries for x in row)]
        assert [alpha for alpha, _ in _support_inertias(f)] == nonzero


def fraction_inertias(f):
    """Each support alpha, in order, with the inertia of the Fraction Hessian of d^alpha f."""
    return [(alpha, inertia(hessian(f.derive(alpha)))) for alpha in support_alphas(f)]


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(2, 4),
       st.sampled_from(["random", "multiaffine", "absent_variable", "symmetric"]))
def test_support_inertias_match_fraction_hessians(rng, n, d, kind):
    # the one-pass integer Hessians against Fraction second derivatives of
    # d^alpha f: random_homog has squares (i = j entries) and rational
    # coefficients of either sign; an absent variable is a zero row of every
    # Hessian, and a multi-affine f has a zero diagonal; a symmetric f repeats
    # its Hessians, so the scan reuses their inertias
    if kind == "multiaffine":
        f = random_multiaffine(rng, max(n, d), d)
    elif kind == "symmetric":
        m = random_small_matroid(rng)
        f = rng.choice([lambda: potts_poly(m, random_positive_fraction(rng)),
                        lambda: independent_set_poly(m),
                        lambda: linear_form([rng.randint(1, 3)] * n) ** d])()
    else:
        f = random_homog(rng, n, d, nonneg=rng.random() < 0.5)
        if kind == "absent_variable":
            k = rng.randint(0, n)
            f = HomogPoly(n + 1, d, {e[:k] + (0,) + e[k:]: c for e, c in f.terms.items()})
    assert list(_support_inertias(f)) == fraction_inertias(f)


def fano_potts(q):
    return potts_poly(matroid_from_dict(json.loads((INPUTS / "fano.json").read_text())), q)


@pytest.mark.parametrize("make, alphas, calls", [
    (lambda: fano_potts(Fraction(1, 2)), 120, 17),
    (lambda: independent_set_poly(
        graph_matroid_from_dict(json.loads((INPUTS / "k4_graph.json").read_text()))), 38, 10),
    (lambda: linear_form([1] * 5) ** 4, 15, 2),
    # a generic charpoly: every Hessian is distinct
    (lambda: char_poly_multivariate(random_m_matrix(7, 0, 1)), 120, 120),
], ids=["fano_potts", "indep_poly_k4", "linear_power", "charpoly_m7"])
def test_support_inertias_one_call_per_distinct_hessian(make, alphas, calls):
    # keyed before _inertia_rows eliminates the rows in place: a key taken
    # after it never matches the next copy of the same Hessian
    f = make()
    with mock.patch.object(certify, "_inertia_rows", wraps=_inertia_rows) as spy:
        scanned = list(_support_inertias(f))
    assert (len(scanned), spy.call_count) == (alphas, calls)


@pytest.mark.parametrize("make, verdict", [
    (lambda: fano_potts(Fraction(1, 2)), True),
    (lambda: fano_potts(2), False),
    (lambda: char_poly_multivariate(random_m_matrix(7, 0, 1)), True),
], ids=["fano_potts", "fano_potts_q2", "charpoly_m7"])
def test_box_slice_supports_skip_the_exchange_scan(make, verdict):
    # every subset S gives a term, so the 128 exponents fill their box slice
    # {x <= (7, 1, ..., 1), |x| = 7} and the count decides the support
    f = make()
    hole = PointSet(f.nvars, f.degree, set(f.terms) - {min(f.terms)})
    scan = AssertionError("exchange scan entered")
    with mock.patch.object(mconvex, "code_weights", side_effect=scan):
        assert len(f.terms) == 128 and _support_certificate(f) is None
        assert is_lorentzian(f).verdict is verdict
        with pytest.raises(AssertionError, match="exchange scan entered"):
            is_m_convex_set(hole)


def test_symmetric_refutations_match_fraction_reference():
    f = fano_potts(3)
    failures = [(alpha, sig) for alpha, sig in fraction_inertias(f) if sig.n_plus > 1]
    cert = is_lorentzian(f, exhaustive=True)
    assert not cert.verdict and len(failures) > 1
    assert cert.detail["all_failures"] == failures
    assert (cert.failing_alpha, cert.detail["inertia"]) == failures[0]
    g = linear_form([1] * 5) ** 4
    first = next((alpha, sig) for alpha, sig in fraction_inertias(g)
                 if sig.n_plus != 1 or sig.n_zero != 0)
    strict = is_strictly_lorentzian(g)
    assert not strict.verdict and strict.failing_kind == INERTIA_VIOLATION
    assert (strict.failing_alpha, strict.detail["inertia"]) == first


def test_random_multiaffine_refuses_degree_above_variables():
    # d-subsets of n variables exist only for 0 <= d <= n; the error names both
    with pytest.raises(ValueError, match=r"d=4 .* n=3"):
        random_multiaffine(random.Random(0), 3, 4)
    assert random_multiaffine(random.Random(0), 3, 3).terms.keys() == {(1, 1, 1)}


def _sub_exponents(f, top):
    """Every sub-exponent of every term of f with |alpha| <= top, sorted."""
    return sorted({a for e in f.terms for a in product(*(range(k + 1) for k in e))
                   if sum(a) <= top})


def _planned_alphas(f, c):
    return [alpha for alpha, _ in _rayleigh_plan(f, c)]


def test_support_alphas_match_sub_exponent_enumeration():
    # below 0 every alpha with |alpha| <= d-1 is planned, from 0 to 1 those
    # with |alpha| <= d-2, and the quadratic ones are the support Hessians'
    for f in scan_inputs():
        top = f.degree - 2
        below = _sub_exponents(f, top + 1)
        assert _planned_alphas(f, -1) == below
        assert _planned_alphas(f, 0) == [a for a in below if sum(a) <= top]
        assert [alpha for alpha, _ in _support_inertias(f)] == [a for a in below if sum(a) == top]


@pytest.mark.parametrize("c", [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)])
def test_rayleigh_plan_keeps_the_pairs_with_nonzero_second_derivative(c):
    # for c >= 0 a check whose d^(alpha+e_i+e_j) f is identically zero cannot
    # fail and is left out; below 0 every pair is kept
    kept = dropped = 0
    for f in _skip_inputs() + [random_multiaffine(random.Random(k), 5, 3) for k in range(5)]:
        n = f.nvars
        every = [(i, j) for i in range(n) for j in range(i, n)]
        for alpha, pairs in _rayleigh_plan(f, c):
            expected = every if c < 0 else [(i, j) for i, j in every if not f.derive(
                [a + (k == i) + (k == j) for k, a in enumerate(alpha)]).is_zero()]
            assert pairs == expected, (f, c, alpha)
            kept += len(expected)
            dropped += len(every) - len(expected)
    assert kept >= 100 and (c < 0 or dropped >= 100), (kept, dropped)


def test_strictly_lorentzian():
    # strict ULC bivariate with full support
    f = HomogPoly(2, 3, {(0, 3): 1, (1, 2): 10, (2, 1): 10, (3, 0): 1})
    assert is_strictly_lorentzian(f).verdict
    sq = linear_form([1, 1]) ** 2
    cert = is_strictly_lorentzian(sq)
    assert not cert.verdict and cert.failing_kind == INERTIA_VIOLATION
    # Lorentzian but not strictly so: support misses the square monomials
    tri = HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert is_lorentzian(tri).verdict
    strict = is_strictly_lorentzian(tri)
    assert not strict.verdict and strict.failing_kind == NEGATIVE_COEFFICIENT
    assert not is_strictly_lorentzian(HomogPoly.zero(2, 2)).verdict


def test_strict_implies_lorentzian():
    rng = random.Random(31)
    for _ in range(20):
        d = rng.randint(2, 5)
        coeffs = sorted(rng.randint(1, 9) for _ in range(d + 1))
        seq = coeffs[:(d + 1) // 2 + 1]
        seq = seq + seq[::-1]
        f = HomogPoly(2, d, {(k, d - k): seq[k] * comb(d, k) for k in range(d + 1)})
        if is_strictly_lorentzian(f).verdict:
            assert is_lorentzian(f).verdict


def test_bivariate_oracle_equivalence():
    rng = random.Random(32)
    for _ in range(300):
        d = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 3))
                  if rng.random() < 0.8 else Fraction(0) for _ in range(d + 1)]
        f = HomogPoly(2, d, {(k, d - k): coeffs[k] for k in range(d + 1)
                             if coeffs[k]})
        assert is_lorentzian(f).verdict == bivariate_lorentzian_oracle(coeffs)


def test_closure_product():
    rng = random.Random(33)
    for _ in range(10):
        f = random_lorentzian_input(rng)
        g = random_lorentzian_input(rng)
        if f.nvars != g.nvars or f.is_zero() or g.is_zero():
            continue
        assert is_lorentzian(f * g).verdict


def test_closure_directional_derivative():
    rng = random.Random(34)
    for _ in range(15):
        f = random_lorentzian_input(rng)
        if f.degree < 1:
            continue
        a = [Fraction(rng.randint(0, 3)) for _ in range(f.nvars)]
        assert is_lorentzian(directional_derive(f, a)).verdict


def test_closure_substitution():
    rng = random.Random(35)
    for _ in range(15):
        f = random_lorentzian_input(rng)
        a = random_nonneg_matrix(rng, f.nvars, rng.randint(1, 3))
        assert is_lorentzian(substitute(f, a)).verdict


def test_hodge_riemann_examples():
    sq = linear_form([1, 1]) ** 2
    assert hodge_riemann_many(sq, [[1, 1]])[0] == Inertia(1, 0, 1)
    tri = HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert hodge_riemann_many(tri, [[1, 2, 3]])[0] == Inertia(1, 2, 0)
    rank1 = HomogPoly(2, 2, {(2, 0): 1})
    assert hodge_riemann_many(rank1, [[1, 1]])[0] == Inertia(1, 0, 1)
    with pytest.raises(ValueError):
        hodge_riemann_many(sq, [[1, 0]])
    with pytest.raises(ValueError):
        hodge_riemann_many(linear_form([1, 1]), [[1, 1]])


def test_hodge_riemann_on_random_lorentzian():
    rng = random.Random(36)
    for _ in range(10):
        f = random_lorentzian_input(rng)
        if f.degree < 2 or f.is_zero():
            continue
        w = [random_positive_fraction(rng) for _ in range(f.nvars)]
        assert hodge_riemann_many(f, [w])[0].n_plus == 1


def _positive_points(rng, n, count=3, huge=False):
    # denominators up to 12, so a point's coordinates rarely share one; or
    # 60-digit numerators and denominators
    if huge:
        return [[Fraction(rng.randint(1, 10 ** 61), rng.randint(10 ** 59, 10 ** 60))
                 for _ in range(n)] for _ in range(count)]
    return [[random_positive_fraction(rng, hi=9, max_den=12) for _ in range(n)]
            for _ in range(count)]


@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(2, 4),
       st.sampled_from(["random", "lorentzian", "symmetric", "quadratic"]), st.booleans())
def test_hodge_riemann_matches_fraction_hessian(rng, n, d, kind, huge):
    # the support Hessians weighted by u^alpha against the Hessian of
    # Fraction second derivatives: a symmetric f repeats its support
    # Hessians, and a quadratic has the single alpha 0
    if kind == "lorentzian":
        f = random_lorentzian_input(rng)
    elif kind == "symmetric":
        f = rng.choice([lambda: potts_poly(random_small_matroid(rng),
                                           random_positive_fraction(rng)),
                        lambda: linear_form([rng.randint(1, 3)] * n) ** d])()
    else:
        f = random_homog(rng, n, 2 if kind == "quadratic" else d)
    if f.degree < 2:
        return
    points = _positive_points(rng, f.nvars, huge=huge)
    assert hodge_riemann_many(f, points) == [inertia(hessian(f, at=w)) for w in points]


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.booleans())
def test_lorentzian_hessians_have_one_positive_eigenvalue(rng, n, d, generated):
    # the Hodge-Riemann analog: every nonzero Lorentzian f of degree >= 2
    f = random_lorentzian_input(rng) if generated else random_homog(rng, n, d, nonneg=True)
    if f.degree < 2 or f.is_zero() or not is_lorentzian(f).verdict:
        return
    sigs = hodge_riemann_many(f, _positive_points(rng, f.nvars))
    assert [sig.n_plus for sig in sigs] == [1] * 3


def test_hodge_riemann_columns_cross_a_chunk():
    # 2 * _CHUNK + 3 points: two full chunks and a short one, on a signed
    # form, a Potts polynomial and a power with large diagonal weights
    rng = random.Random(37)
    for f in (random_homog(rng, 3, 4), potts_poly(catalog.load("mk4"), Fraction(3, 2)),
              linear_form([1, 2, 3]) ** 6):
        points = _positive_points(rng, f.nvars, count=2 * certify._CHUNK + 3)
        assert hodge_riemann_many(f, points) == [inertia(hessian(f, at=w)) for w in points]


def test_hodge_riemann_errors_in_a_later_chunk():
    # the first bad point raises, as when the points went one at a time
    good = _positive_points(random.Random(38), 2, count=certify._CHUNK + 2)
    sq = linear_form([1, 1]) ** 2
    for bad, message in (([1, 0], "point must be strictly positive"),
                         ([1, 1, 1], "point has length 3, expected 2")):
        with pytest.raises(ValueError, match=message):
            hodge_riemann_many(sq, good + [bad, [1, -1], [1, 1, 1]])
        with pytest.raises(ValueError, match=message):
            hodge_riemann_many(sq, good + [bad] + good)


def test_hodge_riemann_zero_empty_and_deep():
    points = [[1, 2, 3], [Fraction(1, 7), 5, Fraction(2, 3)]]
    assert hodge_riemann_many(HomogPoly(3, 4, {}), points) == [Inertia(0, 0, 3)] * 2
    assert hodge_riemann_many(linear_form([1, 1]) ** 2, []) == []
    # a degree above the recursion limit: the table is built by a loop
    deep = HomogPoly(2, 1500, {(1500, 0): 1, (0, 1500): 1})
    assert hodge_riemann_many(deep, [[1, 1], [Fraction(1, 2), 3]]) == [Inertia(2, 0, 0)] * 2


@pytest.mark.parametrize("make, points, expected", [
    (lambda: fano_potts(Fraction(1, 2)), _positive_points(random.Random(39), 8, count=5), None),
    (lambda: random_homog(random.Random(40), 3, 4), _positive_points(random.Random(41), 3), None),
    # singular: the Hessian 6 (w0 + w1 + w2) J has rank 1, so the elimination
    # pivots once and drops the zero rows it leaves
    (lambda: linear_form([1, 1, 1]) ** 3, [[1, Fraction(2, 3), Fraction(5, 2)], [2, 1, 1]],
     Inertia(1, 0, 2)),
    # not Lorentzian: the Hessian diag(6 w0, 6 w1) has two positive eigenvalues
    (lambda: HomogPoly(2, 3, {(3, 0): 1, (0, 3): Fraction(1, 2)}), [[Fraction(1, 2), 3]],
     Inertia(2, 0, 0)),
], ids=["fano_potts", "signed_quartic", "cube_of_linear_form", "two_positive"])
def test_hodge_riemann_hands_inertia_the_scaled_hessian(make, points, expected):
    # every matrix is H(u) = den_f L^(d-2) H_f(w) for L the lcm of w's
    # denominators; D H D, before the division by u_i u_j, has the same
    # inertias, so only the rows themselves can tell the two apart
    f, received = make(), []

    def spy(a, n):
        received.append([row[:] for row in a])
        return _inertia_rows(a, n)

    with mock.patch.object(certify, "_inertia_rows", side_effect=spy):
        sigs = hodge_riemann_many(f, points)
    assert len(received) == len(points)
    for rows, w in zip(received, points):
        scale = f.den * lcm(*(Fraction(x).denominator for x in w)) ** (f.degree - 2)
        assert rows == [[scale * x for x in row] for row in hessian(f, at=w).entries]
    assert sigs == [inertia(hessian(f, at=w)) for w in points]
    if expected is not None:
        assert sigs == [expected] * len(points)


def tight_rayleigh_poly(d):
    return HomogPoly(3, d, {(d, 0, 0): 2 * (1 - Fraction(1, d)),
                            (d - 1, 1, 0): 1, (d - 1, 0, 1): 1,
                            (d - 2, 1, 1): 1})


def test_rayleigh_tight_example():
    d = 3
    f = tight_rayleigh_poly(d)
    assert is_lorentzian(f).verdict
    c_tight = 2 * (1 - Fraction(1, d))
    wit = rayleigh_check_at(f, c_tight - Fraction(1, 100), [[1, 0, 0]])
    assert wit is not None and wit.lhs > wit.rhs
    assert wit.alpha == (0, 0, 0) and {wit.i, wit.j} == {1, 2}
    assert rayleigh_check_at(f, c_tight, [[1, 0, 0]]) is None
    assert rayleigh_falsify(f, c_tight, trials=300, seed=5) is None
    assert rayleigh_falsify(f, c_tight - Fraction(1, 100), trials=300, seed=5) is not None


def test_rayleigh_falsify_checks_its_arguments():
    # the checks run on the first draw, after the check of f's coefficients
    f = tight_rayleigh_poly(3)
    with pytest.raises(ValueError, match="^trials must be nonnegative$"):
        rayleigh_falsify(f, 1, trials=-1, seed=0)
    with pytest.raises(ValueError, match="^max_den must be positive$"):
        rayleigh_falsify(f, 1, trials=5, seed=0, max_den=0)
    negative = f - HomogPoly(3, 3, {(3, 0, 0): 2})
    for trials, max_den in ((-1, 10), (5, 0), (-1, 0)):
        with pytest.raises(ValueError, match="^f must have nonnegative coefficients$"):
            rayleigh_falsify(negative, 1, trials=trials, seed=0, max_den=max_den)
    assert rayleigh_falsify(f, 1, trials=0, seed=0, max_den=1) is None


def test_rayleigh_check_at_takes_points_in_order():
    f = tight_rayleigh_poly(3)
    c = Fraction(4, 3) - Fraction(1, 100)
    with pytest.raises(ValueError, match="point has length 2, expected 3"):
        rayleigh_check_at(f, c, [[1, 0]])
    # the first violation wins, before a later point is read
    wit = rayleigh_check_at(f, c, [[0, 1, 1], [1, 1, 1], [1, 0, 0], [1, 0]])
    assert wit == rayleigh_check_at(f, c, [[1, 0, 0]])
    assert wit.point == (1, 0, 0)
    # a point after passing ones is still checked when its turn comes
    with pytest.raises(ValueError, match="point has length 4, expected 3"):
        rayleigh_check_at(f, c, [[0, 1, 1], [2, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(ValueError, match="point must be nonnegative"):
        rayleigh_check_at(f, c, [[0, 1, 1], [1, -1, 0]])
    assert rayleigh_check_at(f, c, []) is None


def _all_rayleigh_checks(n, d):
    # every alpha with |alpha| <= d-1, zero derivatives included, sorted as the scan's
    alphas = sorted(a for k in range(d) for a in simplex(n, k))
    return [(a, i, j) for a in alphas for i in range(n) for j in range(i, n)]


def _drawn_points(n, trials, seed):
    # the seeded draws of rayleigh_falsify, in Fractions
    return [list(map(Fraction, *p)) for p in _sampled_points(n, trials, seed, 10)]


def _assert_matches_reference(wit, f, c, points):
    ref = first_rayleigh_violation(f, c, points, _all_rayleigh_checks(f.nvars, f.degree))
    if wit is None:
        assert ref is None
    else:
        assert ref == (wit.alpha, wit.i, wit.j, wit.point)
        assert wit.lhs > wit.rhs


@settings(max_examples=100)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 4),
       st.sampled_from(["random", "lorentzian", "scaled", "multiaffine"]),
       st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), None,
                        Fraction(0), Fraction(-1)]))
def test_rayleigh_scan_matches_fraction_reference(rng, n, d, kind, c):
    # the integer scan against derive/eval on the seeded draws of rayleigh_falsify;
    # c None is the bound 2(1 - 1/d), which holds on Lorentzian inputs.  The
    # scan drops the checks with d^(alpha+e_i+e_j) f = 0 only for c >= 0: in
    # a multi-affine f every i = j check is one, and at c = -1 those fail.
    # It skips the alphas with c >= 2(1 - 1/d'), d' = d - |alpha|, and d^alpha f
    # Lorentzian; one coefficient scaled by 1/50-50 mixes skipped and kept ones
    if kind == "random":
        f = random_homog(rng, n, d, nonneg=True)
    elif kind == "lorentzian":
        f = random_lorentzian_input(rng)
    elif kind == "scaled":
        f = with_one_scaled(rng, random_lorentzian_input(rng), Fraction(rng.randint(1, 2500), 50))
    else:
        f = random_multiaffine(rng, max(n + 2, d), d)  # needs d <= variables
    if c is None:
        c = 2 * (1 - Fraction(1, max(f.degree, 1)))
    seed = rng.randrange(1000)
    _assert_matches_reference(rayleigh_falsify(f, c, trials=12, seed=seed), f, c,
                              _drawn_points(f.nvars, 12, seed))


def _skipped_alphas(f, c):
    """The alphas under f's support that ``_rayleigh_plan(f, c)`` gives no
    check, the planned ones kept in order."""
    below = _sub_exponents(f, f.degree - 1 - (c >= 0))
    planned = _planned_alphas(f, c)
    skipped = [alpha for alpha in below if alpha not in planned]
    assert planned == [alpha for alpha in below if alpha not in skipped]
    return skipped


def _lorentzian_quadratics(f):
    """The alphas with |alpha| = d-2 and d^alpha f nonzero whose Fraction
    Hessian has n_plus <= 1, by Faddeev-LeVerrier."""
    return [alpha for alpha in support_alphas(f)
            if char_poly_inertia(hessian(f.derive(alpha))).n_plus <= 1]


def _skip_inputs():
    rng = random.Random(44)
    out = [f for f in scan_inputs() if f.degree >= 2 and not f.is_zero()]
    for _ in range(20):
        f = random_homog(rng, rng.randint(1, 3), rng.randint(2, 4), nonneg=True)
        if not f.is_zero():
            out.append(f)
        f = random_lorentzian_input(rng)
        if f.degree >= 2:
            out.append(with_one_scaled(rng, f, Fraction(rng.randint(1, 2500), 50)))
    return out


def _lorentzian_in_the_bound(f, c, lorentzian):
    """The alphas with |alpha| <= d-2 under f's support, sorted, with c >=
    2(1 - 1/d'), d' = d - |alpha|, and d^alpha f Lorentzian by Brändén-Huh's
    definition; ``lorentzian`` caches that verdict by alpha."""
    out = []
    for alpha in _sub_exponents(f, f.degree - 2):
        if c >= 2 * (1 - Fraction(1, f.degree - sum(alpha))):
            if alpha not in lorentzian:
                lorentzian[alpha] = lorentzian_by_definition(f.derive(alpha))
            if lorentzian[alpha]:
                out.append(alpha)
    return out


def test_rayleigh_skips_exactly_the_lorentzian_derivatives_in_the_bound():
    # a Lorentzian d^alpha f of degree d' >= 2 is 2(1 - 1/d')-Rayleigh, so the
    # plan leaves out exactly the alphas where c reaches that bound and
    # d^alpha f is Lorentzian: at d' = 2 from c = 1, at d' = 3 from c = 4/3
    skipped = kept = deeper = 0
    for f in _skip_inputs():
        lorentzian = {}
        for c in (Fraction(1), Fraction(4, 3) - Fraction(1, 100), Fraction(4, 3),
                  Fraction(3, 2), Fraction(2)):
            expected = _lorentzian_in_the_bound(f, c, lorentzian)
            assert _skipped_alphas(f, c) == expected, (f, c)
            skipped += len(expected)
            kept += len(_sub_exponents(f, f.degree - 2)) - len(expected)
            deeper += sum(sum(alpha) < f.degree - 2 for alpha in expected)
    assert skipped >= 600 and kept >= 400 and deeper >= 100, (skipped, kept, deeper)
    # a Lorentzian cubic: every alpha from c = 4/3 on, only the quadratic ones below
    f = HomogPoly(2, 3, {(0, 3): 9, (1, 2): 18, (2, 1): 12, (3, 0): 2})
    assert is_lorentzian(f)
    assert _skipped_alphas(f, Fraction(3, 2)) == _skipped_alphas(f, Fraction(4, 3)) \
        == [(0, 0), (0, 1), (1, 0)]
    assert _skipped_alphas(f, Fraction(4, 3) - Fraction(1, 100)) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("c", [Fraction(99, 100), Fraction(1, 2), Fraction(0), Fraction(-1)])
def test_rayleigh_skips_nothing_below_one(c):
    for f in _skip_inputs():
        assert _skipped_alphas(f, c) == [], (f, c)


def test_measure_report_skips_the_c_scan_of_a_lorentzian_z():
    # Z of the uniform measure on the subsets of {0, 1} homogenizes to the
    # Lorentzian quadratic (w0 + w1)(w0 + w2) / 4, 2(1 - 1/2)-Rayleigh: from
    # c = 1 on the c-scan draws no point.  Just below, Z * d_12 Z = Z > c *
    # d_1 Z * d_2 Z at every point.  The report's one scan keeps its full
    # plan for the signed points, where its checks can fail
    mu = Measure(2, {mask: Fraction(1, 4) for mask in range(4)})
    assert is_lorentzian(measures.partition_homogenized(mu))
    for c, scanned in ((Fraction(1), False), (Fraction(2), False), (Fraction(99, 100), True)):
        with mock.patch.object(measures, "_RayleighScan", wraps=_RayleighScan) as made, \
                mock.patch.object(measures, "_first_hit", wraps=certify._first_hit) as hit:
            report = negative_dependence_report(mu, c, 5, 1)
        [(_, plan)] = [call.args for call in made.call_args_list]
        assert list(plan) == [((0, 0, 0), [(1, 2)])]
        assert [call.args[1] for call in hit.call_args_list] == [c] * scanned + [1]
        assert (report.c_rayleigh_witness is not None) == scanned


def test_rayleigh_first_group_refutation_computes_no_inertia():
    # the tight example refutes at its first point in alpha 0, before any
    # quadratic alpha is planned; a point that passes first reaches its three,
    # whose Hessians are two distinct ones: one inertia each
    f = tight_rayleigh_poly(3)
    c = Fraction(4, 3) - Fraction(1, 100)
    with mock.patch.object(certify, "_inertia_rows", wraps=_inertia_rows) as spy:
        assert rayleigh_check_at(f, c, [[1, 0, 0]]).alpha == (0, 0, 0)
        assert spy.call_count == 0
        assert rayleigh_check_at(f, c, [[0, 1, 1], [1, 0, 0]]).alpha == (0, 0, 0)
        assert spy.call_count == 2


def test_rayleigh_lorentzian_quadratic_still_reads_every_point():
    # every check of a Lorentzian quadratic is skipped at c >= 1, and each
    # explicit point is still checked for sign and length when its turn comes
    # (x0 + 2 x1)(x1 + x2)
    q = HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 2, (0, 1, 1): 2})
    assert _lorentzian_quadratics(q) == [(0, 0, 0)]
    for c in (1, Fraction(3, 2)):
        assert _skipped_alphas(q, c) == [(0, 0, 0)]
        assert rayleigh_check_at(q, c, [[1, 2, 3], [0, 0, 1]]) is None
        with pytest.raises(ValueError, match="point must be nonnegative"):
            rayleigh_check_at(q, c, [[1, 2, 3], [1, -1, 0], [1, 0]])
        with pytest.raises(ValueError, match="point has length 2, expected 3"):
            rayleigh_check_at(q, c, [[1, 2, 3], [1, 0], [1, -1, 0]])
    assert _skipped_alphas(q, Fraction(1, 2)) == []


def test_rayleigh_idle_scan_stops_drawing(monkeypatch, capsys, tmp_path):
    # at c = 1 the only alpha of (x0 + 2 x1)(x1 + x2) is skipped, so no point
    # can fail: the seeded draws stop after the first chunk, and the report is
    # the one a search through every trial gives
    q = HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 2, (0, 1, 1): 2})
    path = tmp_path / "q.json"
    path.write_text(json.dumps(poly_to_dict(q)))
    sampled, drawn = certify._sampled_points, []

    def counted(*args):
        for point in sampled(*args):
            drawn.append(point)
            yield point

    def report():
        drawn.clear()
        code = main(["rayleigh", str(path), "--c", "1", "--seed", "1", "--trials", "2000"])
        out = json.loads(capsys.readouterr().out)
        del out["elapsed_ms"]
        return code, out

    monkeypatch.setattr(certify, "_sampled_points", counted)
    stopped = report()
    assert 1 <= len(drawn) <= certify._CHUNK
    assert stopped[0] == 0 and stopped[1]["result"] == {"searched_trials": 2000}
    monkeypatch.setattr(certify._RayleighScan, "idle", lambda scan: False)
    assert report() == stopped and len(drawn) == 2000


@pytest.mark.parametrize("d", range(2, 7))
def test_rayleigh_scan_matches_fraction_reference_at_the_tight_bound(d):
    f = tight_rayleigh_poly(d)
    c_tight = 2 * (1 - Fraction(1, d))
    points = [[0, 1, 1], [1, 0, 0]]
    for c in (c_tight, c_tight - Fraction(1, 100)):
        _assert_matches_reference(rayleigh_falsify(f, c, trials=40, seed=d), f, c,
                                  _drawn_points(3, 40, d))
        _assert_matches_reference(rayleigh_check_at(f, c, points), f, c, points)


def test_rayleigh_scan_matches_full_reference_across_the_bounds():
    # the plan against every check with no skip, at each bound 2(1 - 1/d') of
    # the input and just below it, on Lorentzian inputs and on inputs with one
    # coefficient scaled, many of which are not Lorentzian while some d^alpha f is
    rng = random.Random(46)
    inputs = [tight_rayleigh_poly(3), tight_rayleigh_poly(4)]
    while len(inputs) < 36:
        f = random_lorentzian_input(rng)
        if f.degree >= 3 and len(f.nums) >= 3:
            inputs += [f, with_one_scaled(rng, f, Fraction(rng.randint(1, 2500), 50))]
    straddled, found = 0, Counter()
    for f in inputs:
        d = f.degree
        straddled += not lorentzian_by_definition(f) and any(
            lorentzian_by_definition(f.derive(alpha)) for alpha in _sub_exponents(f, d - 2))
        for k in range(2, d + 1):
            for c in (2 - Fraction(2, k), 2 - Fraction(2, k) - Fraction(1, 100)):
                seed = rng.randrange(1000)
                wit = rayleigh_falsify(f, c, trials=30, seed=seed)
                _assert_matches_reference(wit, f, c, _drawn_points(f.nvars, 30, seed))
                found[wit is None] += 1
    assert straddled >= 8 and found[False] >= 40 and found[True] >= 40, (straddled, found)


def test_rayleigh_unbounded_trials_covered_by_the_bound(monkeypatch, capsys, tmp_path):
    # w0^5 is Lorentzian of degree 5, so 2-Rayleigh: every alpha is left out,
    # and 10^8 trials draw one chunk at most
    path = tmp_path / "w0_5.json"
    path.write_text(json.dumps(poly_to_dict(HomogPoly(2, 5, {(5, 0): 1}))))
    sampled, drawn = certify._sampled_points, []

    def counted(*args):
        for point in sampled(*args):
            drawn.append(point)
            yield point
    monkeypatch.setattr(certify, "_sampled_points", counted)
    code = main(["rayleigh", str(path), "--c", "2", "--seed", "1", "--trials", "100000000"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"searched_trials": 100000000}
    assert 1 <= len(drawn) <= certify._CHUNK


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from(["random", "lorentzian", "multiaffine"]),
       st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
       st.sampled_from([1, 63, 64, 65, 200]))
def test_rayleigh_batches_match_pointwise_scan(rng, n, d, kind, c, trials):
    # the column batches against the compiled checks run one point at a time,
    # over trial counts that end on, before and after a chunk edge
    if kind == "random":
        f = random_homog(rng, n, d, nonneg=True)
    elif kind == "lorentzian":
        f = random_lorentzian_input(rng)
    else:
        f = random_multiaffine(rng, max(n + 2, d), d)
    seed = rng.randrange(1000)
    points = [[Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(f.nvars)]
              for _ in range(trials)]
    for call in (lambda: rayleigh_falsify(f, c, trials, seed),
                 lambda: rayleigh_check_at(f, c, points)):
        assert call() == pointwise(call)


# x0^2 x1 at c = 0: a check fails where d^alpha f and d^(alpha+e_i+e_j) f are
# both positive.  At (0, t) nothing fails; (1, 0) fails only at the second
# alpha, (0, 1); (1, 1) fails at alpha 0, first in its check (0, 0).
SQUARE_TIMES = HomogPoly(2, 3, {(2, 1): 1})
LATE, EARLY = [1, 0], [1, 1]


def _passing(k):
    return [[0, x + 1] for x in range(k)]


def _assert_batch_witness(points, alpha, i, j, point):
    wit = rayleigh_check_at(SQUARE_TIMES, 0, points)
    assert (wit.alpha, wit.i, wit.j, wit.point) == (alpha, i, j, point)
    _assert_matches_reference(wit, SQUARE_TIMES, 0, points)


def test_rayleigh_batch_late_alpha_before_early_alpha():
    # point 10 fails only in a later alpha group than point 11, in one chunk
    _assert_batch_witness(_passing(10) + [LATE, EARLY], (0, 1), 0, 0, (1, 0))
    _assert_batch_witness(_passing(10) + [EARLY, LATE], (0, 0), 0, 0, (1, 1))


def test_rayleigh_batch_two_checks_fail_at_one_point():
    # (0, 0, 0) and (0, 0, 1) both fail at (1, 1): the first check wins
    for check in (((0, 0), 0, 0), ((0, 0), 0, 1)):
        assert first_rayleigh_violation(SQUARE_TIMES, 0, [EARLY], [check]) is not None
    _assert_batch_witness(_passing(5) + [EARLY, EARLY, LATE], (0, 0), 0, 0, (1, 1))


@pytest.mark.parametrize("x", [0, 1, 2, 6, 7, 62, 63, 126, 127, 190, 191])
def test_rayleigh_batch_chunk_edges(x):
    # chunks hold points 0, 1-2, 3-6, ..., 31-62, then 64 each: a violation at
    # the last point of a chunk or at the first of the next, later ones after it
    _assert_batch_witness(_passing(x) + [EARLY, [2, 1], [3, 1]], (0, 0), 0, 0, (1, 1))
    _assert_batch_witness(_passing(x) + [LATE, EARLY], (0, 1), 0, 0, (1, 0))


def test_rayleigh_batch_invalid_point_after_violation():
    # points 63-126 are one chunk: the violation at 70 comes before the bad point
    _assert_batch_witness(_passing(70) + [EARLY, [1, -1]], (0, 0), 0, 0, (1, 1))
    _assert_batch_witness(_passing(70) + [EARLY, [1, 0, 0]], (0, 0), 0, 0, (1, 1))
    with pytest.raises(ValueError, match="point must be nonnegative"):
        rayleigh_check_at(SQUARE_TIMES, 0, _passing(70) + [[1, -1], EARLY])
    with pytest.raises(ValueError, match="point has length 3, expected 2"):
        rayleigh_check_at(SQUARE_TIMES, 0, _passing(70) + [[1, 0, 0], EARLY])


@pytest.mark.parametrize("k", [0, 1, 2, 5, 30, 62, 63, 64, 100, 200])
def test_rayleigh_draws_stay_lazy(k):
    # a scan refuted at point k pulls at most max(2k + 1, k + 64) points, in
    # chunks of 1, 2, 4, ... up to 64
    pulled, sizes = 0, []
    batched = _RayleighScan.first_violation

    def points():
        nonlocal pulled
        for x in count():
            pulled += 1
            yield EARLY if x == k else [0, x + 1]

    def spy(scan, c, us):
        sizes.append(len(us))
        return batched(scan, c, us)

    with mock.patch.object(_RayleighScan, "first_violation", spy):
        assert rayleigh_check_at(SQUARE_TIMES, 0, points()).point == (1, 1)
    assert k < pulled <= max(2 * k + 1, k + 64)
    assert sizes == [min(2 ** x, 64) for x in range(len(sizes))] and sum(sizes) == pulled


def test_monomial_table_columns_are_powers():
    # every entry's column against prod(u^e) at random integer points, zeros
    # and negatives included, filled in two parts as a scan fills it
    rng = random.Random(39)
    for _ in range(40):
        n = rng.randint(1, 4)
        table = certify._Monomials(n)
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        for e in exps[:len(exps) // 2]:
            assert table.exps[table.add(e)] == e
        half = len(table.steps)
        for e in exps[len(exps) // 2:]:
            assert table.exps[table.add(e)] == e
        us = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        cols = [[1] * len(us)]
        table.fill(cols, list(zip(*us)), half)
        table.fill(cols, list(zip(*us)), len(table.steps))
        assert len(cols) == len(table.exps) == len(table.steps) == len(set(table.exps))
        for col, e in zip(cols, table.exps):
            assert col == [prod(map(pow, u, e)) for u in us]


def _table_sizes(module, call):
    scans = []

    class Kept(_RayleighScan):
        def __init__(self, *args):
            super().__init__(*args)
            scans.append(self)
    with mock.patch.object(module, "_RayleighScan", Kept):
        call()
    return [len(scan._table.steps) for scan in scans]


def test_monomial_table_sizes():
    # pinned, so that a change to the table's compile cannot grow them unseen:
    # the planted violation of degree 5 at (1, 0, 0), and the Fano measure
    # report, whose one scan compiles its one alpha
    f, c = tight_rayleigh_poly(5), Fraction(8, 5) - Fraction(1, 50)
    assert _table_sizes(certify, lambda: rayleigh_check_at(f, c, [[1, 0, 0]])) == [16]
    masks = independent_set_masks(catalog.load("fano"))
    mu = Measure(7, {mask: Fraction(1, len(masks)) for mask in masks})
    assert _table_sizes(measures, lambda: negative_dependence_report(mu, 2, 5, 1)) == [99]


@pytest.mark.parametrize("width", [1, 2, 10, 21, 2 ** 5, 2 ** 5 + 1, 2 ** 31, 2 ** 31 + 1,
                                   2 ** 64, 2 ** 64 + 1, 10 ** 30])
def test_randints_draw_as_randint(width):
    # the same values and the same generator state afterwards as Random.randint
    for seed in range(40):
        for lo in (0, 1, -10):
            ours, ref = random.Random(seed), random.Random(seed)
            hi = lo + width - 1
            assert _randints(ours, lo, hi, 25) == [ref.randint(lo, hi) for _ in range(25)]
            assert ours.getstate() == ref.getstate()


def test_randints_draw_as_randrange_two():
    # the mask draws of rayleigh_falsify
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        assert _randints(ours, 0, 1, 30) == [ref.randrange(2) for _ in range(30)]
        assert ours.getstate() == ref.getstate()
        assert _randints(ours, 0, 1, 0) == []
        assert ours.getstate() == ref.getstate()


def test_rayleigh_zero_left_side_fails_only_below_zero():
    # x0 x1 is multi-affine: each i = j check has d^(alpha+2e_i) f = 0; at
    # (1, 0) every left side is 0 and only the check (0, 1, 1) has rhs = c
    f = HomogPoly(2, 2, {(1, 1): 1})
    assert rayleigh_check_at(f, 0, [[1, 0]]) is None
    wit = rayleigh_check_at(f, -1, [[1, 0]])
    assert (wit.alpha, wit.i, wit.j, wit.lhs, wit.rhs) == ((0, 0), 1, 1, 0, -1)


def test_rayleigh_bivariate_one():
    rng = random.Random(37)
    for _ in range(10):
        d = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(0, 5)) for k in range(d + 1)]
        f = HomogPoly(2, d, {(k, d - k): comb(d, k) * coeffs[k]
                             for k in range(d + 1) if coeffs[k]})
        if not is_lorentzian(f).verdict or f.is_zero():
            continue
        assert rayleigh_falsify(f, 1, trials=100, seed=38) is None


@settings(max_examples=30)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 4),
       st.booleans())
def test_rayleigh_silent_on_lorentzian(rng, n, d, generated):
    # a Lorentzian f of degree d >= 2 is 2(1 - 1/d)-Rayleigh
    f = random_lorentzian_input(rng) if generated else random_homog(rng, n, d, nonneg=True)
    if f.degree < 2 or f.is_zero() or not is_lorentzian(f).verdict:
        return
    c = 2 * (1 - Fraction(1, f.degree))
    assert rayleigh_falsify(f, c, trials=100, seed=rng.randrange(1000)) is None


def test_rayleigh_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        rayleigh_falsify(HomogPoly(2, 2, {(1, 1): -1}), 2, trials=1, seed=0)


def test_log_concavity_probe():
    sq = linear_form([1, 1]) ** 2
    assert log_concavity_probe(sq, [1, 1], [1, -1])
    assert log_concavity_probe(cubic(9), [1, 1], [1, -1])
    # theta = 12 is not Lorentzian; probing finds non-concavity
    assert not is_lorentzian(cubic(12)).verdict
    assert not log_concavity_probe(cubic(12), [1, 1], [2, -1])
    with pytest.raises(ValueError):
        log_concavity_probe(HomogPoly(2, 2, {(1, 1): 1}), [1, 0], [1, 1])


def test_log_concavity_agrees_with_certifier_on_samples():
    rng = random.Random(41)
    for _ in range(6):
        f = random_lorentzian_input(rng)
        if f.degree < 2 or f.is_zero():
            continue
        w = [random_positive_fraction(rng) for _ in range(f.nvars)]
        v = [random_positive_fraction(rng) - 1 for _ in range(f.nvars)]
        assert log_concavity_probe(f, w, v)
