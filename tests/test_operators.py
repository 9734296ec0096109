import random
from fractions import Fraction

import pytest

from lorentz import (HomogPoly, OperatorTable, apply_operator,
                     coefficient_power, exclusion_step, generating_poly_f,
                     is_lorentzian, is_strictly_lorentzian, multi_affine_part,
                     normalize, nuij_transform, polarize, project, symbol)
from lorentz.mconvex import DiscreteFunction

from generators import random_homog, random_lorentzian_input, random_positive_fraction
from poly_oracles import linear_form, normalized_coeff, nuij_by_steps


def test_polarize_examples():
    w1sq = HomogPoly(1, 2, {(2,): 1})
    assert polarize(w1sq, (2,)) == HomogPoly(2, 2, {(1, 1): 1})
    assert project(HomogPoly(2, 2, {(1, 1): 1}), (2,)) == w1sq


def test_polarize_project_roundtrip():
    rng = random.Random(50)
    for _ in range(10):
        f = random_lorentzian_input(rng)
        if f.is_zero():
            continue
        kappa = f.var_degree_caps()
        assert project(polarize(f, kappa), kappa) == f


def test_polarize_rejects_cap_violation():
    with pytest.raises(ValueError):
        polarize(HomogPoly(1, 2, {(2,): 1}), (1,))
    with pytest.raises(ValueError):
        project(HomogPoly(1, 2, {(2,): 1}), (2,))  # not multi-affine


def test_polarize_preserves_lorentzian():
    rng = random.Random(51)
    for _ in range(8):
        f = random_lorentzian_input(rng)
        if f.is_zero() or f.degree == 0:
            continue
        kappa = f.var_degree_caps()
        lifted = polarize(f, kappa)
        assert is_lorentzian(lifted).verdict
        assert is_lorentzian(project(lifted, kappa)).verdict


def test_normalize():
    assert normalize(HomogPoly(1, 2, {(2,): 1})) == HomogPoly(1, 2, {(2,): Fraction(1, 2)})
    f = HomogPoly(2, 2, {(1, 1): 1})
    assert normalize(f) == f
    g = HomogPoly(1, 3, {(3,): 1})
    assert normalize(normalize(g)).coeff((3,)) == Fraction(1, 36)


def test_normalize_preserves_lorentzian():
    rng = random.Random(52)
    for _ in range(8):
        f = random_lorentzian_input(rng)
        assert is_lorentzian(normalize(f)).verdict


def test_convolution_corollary():
    rng = random.Random(53)
    for _ in range(6):
        f = random_lorentzian_input(rng)
        g = random_lorentzian_input(rng)
        if f.nvars != g.nvars or f.is_zero() or g.is_zero():
            continue
        assert is_lorentzian(normalize(f)).verdict
        assert is_lorentzian(normalize(g)).verdict
        assert is_lorentzian(normalize(f * g)).verdict


def test_multi_affine_part():
    sq = linear_form([1, 1]) ** 2
    assert multi_affine_part(sq) == HomogPoly(2, 2, {(1, 1): 2})
    ma = HomogPoly(3, 2, {(1, 1, 0): 1, (0, 1, 1): 2})
    assert multi_affine_part(ma) == ma
    assert multi_affine_part(HomogPoly(1, 2, {(2,): 1})).is_zero()


def test_multi_affine_part_preserves_lorentzian():
    rng = random.Random(54)
    for _ in range(8):
        f = random_lorentzian_input(rng)
        assert is_lorentzian(multi_affine_part(f)).verdict


def test_coefficient_power():
    f = HomogPoly(2, 2, {(2, 0): 2, (1, 1): 1, (0, 2): 2})  # normalized (4, 1, 4)
    r, exact = coefficient_power(f, Fraction(1, 2))
    assert exact
    assert [normalized_coeff(r, e) for e in [(2, 0), (1, 1), (0, 2)]] == [2, 1, 2]
    r1, exact1 = coefficient_power(f, 1)
    assert exact1 and r1 == f
    r0, exact0 = coefficient_power(f, 0)
    assert exact0
    # R_0 is the exponential generating function of the support
    supp = generating_poly_f(DiscreteFunction(2, 2, dict.fromkeys(f.support(), 0)), 1)
    assert r0 == supp
    with pytest.raises(ValueError):
        coefficient_power(f, Fraction(3, 2))


def test_coefficient_power_numeric_mode():
    f = HomogPoly(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    r, exact = coefficient_power(f, Fraction(1, 2))
    assert not exact
    approx = normalized_coeff(r, (1, 1))
    assert abs(approx * approx - 2) < Fraction(1, 10 ** 30)


def test_coefficient_power_preserves_lorentzian():
    rng = random.Random(55)
    for _ in range(6):
        f = random_lorentzian_input(rng)
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            r, _ = coefficient_power(f, p)
            assert is_lorentzian(r).verdict


def test_exclusion_step():
    f = HomogPoly(3, 2, {(1, 1, 0): 2, (0, 1, 1): 1})
    assert exclusion_step(f, 0, 2, 0) == f
    swapped = exclusion_step(f, 0, 2, 1)
    assert swapped == HomogPoly(3, 2, {(0, 1, 1): 2, (1, 1, 0): 1})
    sym = HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    for th in (0, Fraction(1, 4), Fraction(1, 2), 1):
        assert exclusion_step(sym, 0, 1, th) == sym
    with pytest.raises(ValueError):
        exclusion_step(f, 1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        exclusion_step(HomogPoly(1, 2, {(2,): 1}), 0, 0, 0)
    with pytest.raises(ValueError):
        exclusion_step(f, 0, 1, 2)


def test_exclusion_preserves_lorentzian():
    rng = random.Random(56)
    thetas = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for _ in range(6):
        f = random_lorentzian_input(rng)
        if not f.is_multi_affine() or f.nvars < 2 or f.is_zero():
            continue
        i, j = 0, f.nvars - 1
        for th in thetas:
            assert is_lorentzian(exclusion_step(f, i, j, th)).verdict


def test_nuij_example():
    f = linear_form([1, 1]) ** 2
    theta = Fraction(1)
    out = nuij_transform(f, theta)
    expect = HomogPoly(2, 2, {(2, 0): 1 + 4 * theta + 2 * theta ** 2,
                              (1, 1): 2 + 4 * theta, (0, 2): 1})
    assert out == expect
    assert is_strictly_lorentzian(out).verdict
    with pytest.raises(ValueError):
        nuij_transform(f, 0)


def test_nuij_small_theta_approaches_identity():
    f = linear_form([2, 3]) ** 3
    eps = Fraction(1, 10 ** 9)
    out = nuij_transform(f, eps)
    for e in f.terms:
        assert abs(out.coeff(e) - f.coeff(e)) < Fraction(1, 10 ** 6)


def test_nuij_strictifies():
    theta = Fraction(1, 3)
    for f in [linear_form([1, 1]) ** 2,
              linear_form([1, 1, 1]) ** 3,
              HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18, (0, 3): 9})]:
        assert is_lorentzian(f).verdict
        out = nuij_transform(f, theta)
        assert is_lorentzian(out).verdict
        assert is_strictly_lorentzian(out).verdict


@pytest.mark.parametrize("theta", [Fraction(1, 3), 1, 2])
def test_nuij_matches_step_by_step_reference(theta):
    rng = random.Random(31)
    for _ in range(12):
        n, d = rng.randint(0, 4), rng.randint(0, 4)
        f = random_homog(rng, n, d, density=rng.choice([0.3, 0.7, 1]))   # signed coefficients
        out, ref = nuij_transform(f, theta), nuij_by_steps(f, theta)
        assert out == ref and list(out.terms) == list(ref.terms)


def identity_table(kappa):
    n = len(kappa)
    from itertools import product as iproduct
    images = {e: HomogPoly(n, sum(e), {e: 1}) for e in iproduct(*(range(k + 1) for k in kappa))}
    return OperatorTable(kappa, 0, images)


def norm_table(kappa):
    n = len(kappa)
    from itertools import product as iproduct
    from lorentz.poly import factorial_of
    images = {}
    for e in iproduct(*(range(k + 1) for k in kappa)):
        images[e] = HomogPoly(n, sum(e), {e: Fraction(1, factorial_of(e))})
    return OperatorTable(kappa, 0, images)


def test_symbol_examples():
    ident = identity_table((1,))
    assert symbol(ident) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    deriv = OperatorTable((1,), -1, {(1,): HomogPoly(1, 0, {(0,): 1})})
    assert symbol(deriv) == HomogPoly(2, 0, {(0, 0): 1})
    assert symbol(norm_table((2,))) == HomogPoly(2, 2, {(0, 2): 1, (1, 1): 2,
                                                        (2, 0): Fraction(1, 2)})


def test_symbol_is_only_a_sufficient_condition():
    # this operator preserves Lorentzian polynomials, yet its symbol fails
    # the M-convexity test: the criterion is one-directional
    images = {(1, 0): HomogPoly(2, 1, {(1, 0): 1}),
              (0, 1): HomogPoly(2, 1, {(0, 1): 1}),
              (1, 1): HomogPoly(2, 2, {(1, 1): 1})}
    t = OperatorTable((1, 1), 0, images)
    cert = is_lorentzian(symbol(t))
    assert not cert.verdict and cert.failing_kind == "support_not_m_convex"


def test_apply_operator():
    ident = identity_table((1, 1))
    f = HomogPoly(2, 2, {(1, 1): 5})
    assert apply_operator(ident, f) == f
    deriv = OperatorTable((1, 1), -1, {(1, 0): HomogPoly(2, 0, {(0, 0): 1}),
                                       (1, 1): HomogPoly(2, 1, {(0, 1): 1})})
    assert apply_operator(deriv, f) == HomogPoly(2, 1, {(0, 1): 5})
    assert apply_operator(norm_table((2,)), HomogPoly(1, 2, {(2,): 1})) == \
        HomogPoly(1, 2, {(2,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        apply_operator(identity_table((1,)), HomogPoly(1, 2, {(2,): 1}))


def apply_by_terms(table, f):
    """The old per-term sum: one polynomial ``+`` per term of f."""
    out = HomogPoly.zero(table.nvars_out, f.degree + table.ell)
    for e, c in f.terms.items():
        g = table.images.get(e)
        if g is not None:
            out = out + c * g
    return out


def test_apply_operator_matches_per_term_sum():
    rng = random.Random(58)
    for _ in range(200):
        n, m, ell, d = rng.randint(1, 3), rng.randint(1, 3), rng.randint(-1, 2), rng.randint(1, 3)
        kappa = tuple(rng.randint(1, 3) for _ in range(n))
        f = random_homog(rng, n, d, density=0.8)
        f = HomogPoly(n, d, {e: c for e, c in f.terms.items()
                             if all(k <= cap for k, cap in zip(e, kappa))})
        images = {e: random_homog(rng, m, d + ell, density=0.5)
                  for e in f.terms if d + ell >= 0 and rng.random() < 0.8}
        if len(images) >= 2 and rng.random() < 0.7:
            # images that cancel: c_a T(w^a) + c_b T(w^b) = 0, whole or in part
            (a, ga), (b, _) = rng.sample(sorted(images.items()), 2)
            images[b] = -(f.terms[a] / f.terms[b]) * ga
            if rng.random() < 0.5:
                images[b] = images[b] + random_homog(rng, m, d + ell, density=0.3)
        table = OperatorTable(kappa, ell, images, nvars_out=m)
        g = apply_operator(table, f)
        assert g == apply_by_terms(table, f)
        assert all(type(c) is Fraction and c for c in g.terms.values())


def test_operator_table_validation():
    with pytest.raises(ValueError):
        OperatorTable((1,), 0, {(1,): HomogPoly(1, 2, {(2,): 1})})  # degree mismatch
    with pytest.raises(ValueError):
        OperatorTable((1,), 0, {(2,): HomogPoly(1, 2, {(2,): 1})})  # above cap
    with pytest.raises(ValueError):
        OperatorTable((1,), 0, {})  # no image, no explicit width
    t = OperatorTable((1,), 0, {}, nvars_out=2)
    assert apply_operator(t, HomogPoly(1, 1, {(1,): 1})).is_zero()


def multiply_by_form_table(kappa, coeffs):
    n = len(kappa)
    from itertools import product as iproduct
    form = linear_form(coeffs)
    images = {}
    for e in iproduct(*(range(k + 1) for k in kappa)):
        images[e] = HomogPoly(n, sum(e), {e: 1}) * form
    return OperatorTable(kappa, 1, images)


def partial_table(kappa, i):
    n = len(kappa)
    from itertools import product as iproduct
    images = {}
    for e in iproduct(*(range(k + 1) for k in kappa)):
        if e[i] > 0:
            out = tuple(x - 1 if k == i else x for k, x in enumerate(e))
            images[e] = HomogPoly(n, sum(e) - 1, {out: e[i]})
    return OperatorTable(kappa, -1, images)


def test_lorentzian_symbol_implies_preservation():
    # Lorentzian symbol implies the operator preserves Lorentzian polynomials
    rng = random.Random(57)
    tables = [identity_table((2, 2)), norm_table((2, 2)),
              partial_table((2, 2), 0),
              multiply_by_form_table((2, 2), [1, 2])]
    for t in tables:
        assert is_lorentzian(symbol(t)).verdict
    for _ in range(6):
        n, d = 2, rng.randint(1, 2)
        f = linear_form([random_positive_fraction(rng),
                         random_positive_fraction(rng)]) ** d
        for t in tables:
            g = apply_operator(t, f)
            assert is_lorentzian(g).verdict
