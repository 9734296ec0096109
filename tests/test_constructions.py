"""Every library construction that writes its terms without the public
constructor's checks still produces a valid polynomial: the one the public
constructor builds from the same terms, with an equal hash, a positive
denominator sharing no factor with every numerator, no zero numerator,
``Fraction`` values in its ``terms`` view, and int-tuple exponents of length
n and sum d."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (HomogPoly, Measure, OperatorTable, SquareMatrix, apply_operator,
                     basis_generating_poly, char_poly_multivariate, coefficient_power,
                     exclusion_step, generating_poly_f, generating_poly_g,
                     independent_set_poly, multi_affine_part, normalize, nuij_transform,
                     partition_homogenized, polarize, potts_poly, project,
                     symbol, zonotope_volume_poly)

from generators import (random_fraction, random_homog, random_m_convex_function,
                        random_multiaffine, random_positive_fraction,
                        random_small_matroid)


def _assert_valid(p: HomogPoly) -> None:
    assert type(p.den) is int and p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1
    public = HomogPoly(p.nvars, p.degree, p.terms)
    assert p == public and hash(p) == hash(public)
    assert (p.den, p.nums) == (public.den, public.nums)
    assert all(type(c) is Fraction for c in p.terms.values())
    for e, c in p.nums.items():
        assert type(c) is int and c != 0
        assert type(e) is tuple and all(type(k) is int and k >= 0 for k in e)
        assert len(e) == p.nvars and sum(e) == p.degree


def _constructions(rng: random.Random):
    """(name, polynomial) for each construction, on small random input;
    zero coefficients are drawn on purpose where the input allows them."""
    n, d = rng.randint(1, 3), rng.randint(0, 3)
    f = random_homog(rng, n, d)
    g = random_homog(rng, n, d)
    yield "add", f + g
    yield "multiply", f * g
    yield "subtract", f - f
    yield "scalar", random_fraction(rng) * f
    yield "zero_scalar", 0 * f
    alpha = tuple(rng.randint(0, k) for k in f.var_degree_caps()) if f.terms else (0,) * n
    if sum(alpha) <= d:
        yield "derive", f.derive(alpha)
    kappa = [max(k, rng.randint(0, 2)) for k in f.var_degree_caps()]
    lifted = polarize(f, kappa)
    yield "polarize", lifted
    yield "project", project(lifted, kappa)
    yield "normalize", normalize(f)
    yield "multi_affine_part", multi_affine_part(f)
    m = rng.randint(d, d + 2)
    if m >= 2:
        h = random_multiaffine(rng, m, d)
        i, j = rng.sample(range(m), 2)
        yield "exclusion_step", exclusion_step(h, i, j, rng.choice([0, Fraction(1, 3), 1]))
    images = {e: random_homog(rng, 2, sum(e) + 1) for e in [(0,), (1,), (2,)]}
    table = OperatorTable((2,), 1, images, nvars_out=2)
    yield "symbol", symbol(table)
    yield "apply_operator", apply_operator(table, random_homog(rng, 1, rng.randint(0, 2)))
    yield "nuij_transform", nuij_transform(f, random_positive_fraction(rng))
    yield "coefficient_power", coefficient_power(
        random_homog(rng, n, d, nonneg=True), rng.choice([0, Fraction(1, 2), 1]))[0]

    k = rng.randint(0, 4)
    nums = {mask: rng.choice([0, 1, rng.randint(-12, 12)])
            for mask in rng.sample(range(1 << k), rng.randint(0, 1 << k))}
    yield "homogenized", HomogPoly.homogenized(k, nums, rng.choice([1, 6, 12, 10 ** 50 + 2]))
    matroid = random_small_matroid(rng)
    yield "basis_generating_poly", basis_generating_poly(matroid)
    yield "potts_poly", potts_poly(matroid, random_positive_fraction(rng))
    yield "independent_set_poly", independent_set_poly(matroid)
    vectors = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(rng.randint(1, 4))]
    yield "zonotope_volume_poly", zonotope_volume_poly(vectors)
    nu = random_m_convex_function(rng, rng.randint(1, 3), rng.randint(1, 3))
    yield "generating_poly_f", generating_poly_f(nu, random_positive_fraction(rng))
    yield "generating_poly_g", generating_poly_g(nu, random_positive_fraction(rng))
    size = rng.randint(0, 3)
    yield "char_poly_multivariate", char_poly_multivariate(
        SquareMatrix([[random_fraction(rng) for _ in range(size)] for _ in range(size)]))
    atoms = {mask: Fraction(rng.randint(0, 3)) for mask in range(1 << k)}
    atoms[0] += 1
    yield "partition_homogenized", partition_homogenized(Measure(k, atoms, normalize=True))


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_constructions_are_valid_polynomials(rng):
    for name, p in _constructions(rng):
        try:
            _assert_valid(p)
        except AssertionError:
            raise AssertionError(f"{name} built an invalid polynomial: {p!r}") from None

