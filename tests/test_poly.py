import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz.matroids import cycle_matroid, rank, uniform_matroid
from lorentz.mconvex import DiscreteFunction, PointSet
from lorentz.measures import Measure
from lorentz.mmatrix import SquareMatrix, principal_minor
from lorentz.operators import OperatorTable
from lorentz.poly import HomogPoly, check_exponents, first_ulc_failure, integer_scaled, simplex

from generators import random_fraction, random_homog, random_nonneg_matrix
from poly_oracles import (bivariate_restriction, directional_derive, euler_pairing,
                          first_bad_exponent, hessian, linear_form, normalized_coeff, substitute,
                          unit)


def test_simplex_size():
    assert len(list(simplex(3, 2))) == 6
    assert list(simplex(2, 1)) == [(0, 1), (1, 0)]
    assert list(simplex(1, 4)) == [(4,)]
    assert list(simplex(3, 0)) == [(0, 0, 0)]


def test_integer_scaled_matches_fraction_products():
    assert integer_scaled([]) == (1, [])
    assert integer_scaled([0, 3, -2]) == (1, [0, 3, -2])     # ints, as SymMatrix keeps them
    assert integer_scaled([Fraction(-1, 6), 0, Fraction(3, 4)]) == (12, [-2, 0, 9])
    rng = random.Random(46)
    for _ in range(200):
        xs = [rng.choice([0, rng.randint(-9, 9),
                          Fraction(rng.randint(-10 ** 60, 10 ** 60),
                                   rng.choice([1, rng.randint(1, 10 ** 6),
                                               rng.randint(10 ** 50, 10 ** 70)]))])
              for _ in range(rng.randint(0, 6))]
        den = lcm(*(Fraction(x).denominator for x in xs))
        scaled = [x * den for x in xs]
        got = integer_scaled(xs)
        assert got == (den, scaled) and {type(x) for x in got[1]} <= {int}
        assert integer_scaled(dict(enumerate(xs)).values()) == got


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        HomogPoly(2, 3, {(1, 1): 1})
    with pytest.raises(ValueError):
        HomogPoly(2, 2, {(2, 0, 0): 1})
    with pytest.raises(ValueError):
        HomogPoly(2, 2, {(3, -1): 1})


# every one of these was once truncated by int() and accepted
@pytest.mark.parametrize("make", [
    lambda: HomogPoly(2, 2, {(2.5, -0.5): 1}),
    lambda: PointSet(2, 2, [(2.5, -0.5)]),
    lambda: DiscreteFunction(2, 2, {(1.7, 1.2): 3}),
    lambda: HomogPoly(2, 2, {(1, 1): 1}).derive((0.9, 0)),
    lambda: rank(uniform_matroid(2, 3), [0.9, 1.2]),
    lambda: cycle_matroid(3, [(0.4, 1.6), (1, 2)]),
    lambda: principal_minor(SquareMatrix([[1, 2], [3, 4]]), [1.7]),
    lambda: Measure(2, {frozenset([1.5]): 1}),
    lambda: OperatorTable((1.5, 1), 0, {(0, 0): HomogPoly(2, 0, {(0, 0): 1})}),
    lambda: HomogPoly(2.0, 2, {(1, 1): 1}),
], ids=["poly_exponent", "point", "function_point", "derive_alpha", "rank_subset",
        "graph_edge", "minor_subset", "measure_atom", "operator_kappa", "poly_nvars"])
def test_non_integers_are_refused_not_truncated(make):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        make()


def _random_exponents(rng, n, d):
    """A few exponents of the degree-d simplex in n variables, some of them
    spoiled by a wrong length, a negative entry or a wrong sum."""
    exps = []
    for _ in range(rng.randint(0, 5)):
        e = list(rng.choice(list(simplex(n, d))))
        spoil = rng.randint(0, 5)
        if spoil == 0:
            e.append(rng.randint(-1, 1))
        elif spoil == 1 and e:
            e.pop()
        elif spoil == 2 and e:
            k = rng.randrange(len(e))
            e[k] -= d + 1                     # negative, sum moved off d
            e[(k + 1) % len(e)] += d + 1      # and back when n > 1
        elif spoil == 3 and e:
            e[rng.randrange(len(e))] += rng.choice([-1, 1])
        exps.append(tuple(e))
    return exps


def test_check_exponents_matches_per_exponent_loop():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(2000):
        n, d = rng.randint(1, 4), rng.randint(0, 3)
        exps = _random_exponents(rng, n, d)
        expected = first_bad_exponent(exps, n, d)
        if expected is None:
            check_exponents(exps, n, d)
        else:
            with pytest.raises(ValueError) as err:
                check_exponents(exps, n, d)
            assert str(err.value) == expected
        outcomes.add(expected and next(w for w in ("length", "negative", "degree") if w in expected))
    assert outcomes == {None, "length", "negative", "degree"}   # every kind was drawn


def test_eval():
    sq = linear_form([1, 1]) ** 2
    assert sq.eval([1, 1]) == 4
    assert HomogPoly(3, 3, {(1, 1, 1): 1}).eval([2, 3, 5]) == 30
    assert HomogPoly.zero(3, 2).eval([7, 8, 9]) == 0
    with pytest.raises(ValueError):
        sq.eval([1])


def test_derive_examples():
    assert HomogPoly(1, 2, {(2,): 1}).derive((1,)) == HomogPoly(1, 1, {(1,): 2})
    cubic = HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18, (0, 3): 9})
    assert cubic.derive((1, 0)) == HomogPoly(2, 2, {(2, 0): 6, (1, 1): 24, (0, 2): 18})
    d = 5
    wd = HomogPoly(1, d, {(d,): 1})
    assert wd.derive((d,)) == HomogPoly(1, 0, {(0,): 120})
    with pytest.raises(ValueError):
        wd.derive((d + 1,))


def test_normalized_coeff_relation():
    # c_b(d^a f) = c_{a+b}(f)
    rng = random.Random(5)
    f = random_homog(rng, 3, 4)
    g = f.derive((1, 0, 1))
    for b in simplex(3, 2):
        a_plus_b = tuple(x + y for x, y in zip((1, 0, 1), b))
        assert normalized_coeff(g, b) == normalized_coeff(f, a_plus_b)


def test_directional_derive():
    f = HomogPoly(2, 2, {(1, 1): 1})
    assert directional_derive(f, [1, 0]) == f.derive((1, 0))
    assert directional_derive(f, [0, 0]).is_zero()
    assert directional_derive(f, [1, 1]) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        directional_derive(f, [1, -1])


def test_substitute():
    f = HomogPoly(2, 2, {(1, 1): 1})
    ident = [[1, 0], [0, 1]]
    assert substitute(f, ident) == f
    diag = [[1], [1]]
    assert substitute(f, diag) == HomogPoly(1, 2, {(2,): 1})
    sq = linear_form([1, 1]) ** 2
    assert substitute(sq, [[1], [1]]) == HomogPoly(1, 2, {(2,): 4})
    with pytest.raises(ValueError):
        substitute(f, [[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        substitute(f, [[1, 0]])


def test_substitute_composes():
    rng = random.Random(11)
    for _ in range(10):
        f = random_homog(rng, 3, 3)
        a = random_nonneg_matrix(rng, 3, 2)
        b = random_nonneg_matrix(rng, 2, 3)
        ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(3)]
              for i in range(3)]
        assert substitute(substitute(f, a), b) == substitute(f, ab)


def test_hessian_examples():
    h = hessian(HomogPoly(2, 2, {(1, 1): 1}))
    assert [list(r) for r in h.entries] == [[0, 1], [1, 0]]
    h = hessian(HomogPoly(2, 2, {(2, 0): 1, (0, 2): 1}))
    assert [list(r) for r in h.entries] == [[2, 0], [0, 2]]
    tri = HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    h = hessian(tri)
    assert [list(r) for r in h.entries] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(ValueError):
        hessian(HomogPoly(2, 1, {(1, 0): 1}))
    with pytest.raises(ValueError):
        hessian(linear_form([1, 1]) ** 3)


def test_quadratic_hessian_after_matches_full_derivative():
    rng = random.Random(3)
    f = random_homog(rng, 3, 4)
    for alpha in simplex(3, 2):
        assert f.quadratic_hessian_after(alpha) == hessian(f.derive(alpha))


def test_euler_identity():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rng.randint(1, 4)
        f = random_homog(rng, n, d)
        w = [random_fraction(rng) for _ in range(n)]
        assert euler_pairing(f, w) == d * f.eval(w)


def test_derive_commutes():
    rng = random.Random(9)
    for _ in range(10):
        f = random_homog(rng, 3, 4)
        assert f.derive((1, 0, 0)).derive((0, 1, 1)) == f.derive((1, 1, 1))


def test_hessian_relation():
    # (d-2) H_f(w) = sum_i w_i H_{d_i f}(w)
    rng = random.Random(13)
    for _ in range(5):
        n, d = 3, rng.randint(3, 4)
        f = random_homog(rng, n, d)
        w = [random_fraction(rng, 1, 4) for _ in range(n)]
        lhs = hessian(f, at=w)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            hi = hessian(f.derive(unit(n, i)), at=w)
            for r in range(n):
                for c in range(n):
                    rows[r][c] += w[i] * hi.entries[r][c]
        for r in range(n):
            for c in range(n):
                assert (d - 2) * lhs.entries[r][c] == rows[r][c]


def test_bivariate_restriction():
    cubic = HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18, (0, 3): 9})
    assert bivariate_restriction(cubic, 0, 1) == [9, 18, 12, 2]


def _ulc_by_definition(seq, n):
    # literal definition: (s_k/C(n,k))^2 >= (s_(k-1)/C(n,k-1)) (s_(k+1)/C(n,k+1))
    s = [Fraction(c, comb(n, k)) for k, c in enumerate(seq)] + [Fraction(0)] * (n + 1 - len(seq))
    for k in range(1, n):
        if s[k] * s[k] < s[k - 1] * s[k + 1]:
            return k
    return None


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.one_of(st.just(0), st.integers(-4, 30)), max_size=n + 1))))
@settings(max_examples=300, deadline=None)
def test_first_ulc_failure_matches_definition(case):
    n, seq = case
    assert first_ulc_failure(seq, n) == _ulc_by_definition(seq, n)
    assert first_ulc_failure([Fraction(c, 3) for c in seq], n) == _ulc_by_definition(seq, n)


def test_first_ulc_failure_examples():
    assert first_ulc_failure([1, 3, 3, 1], 3) is None
    assert first_ulc_failure([1, 0, 1], 2) == 1          # internal zero
    assert first_ulc_failure([1, 0, 0, 1], 3) is None    # only the inequality
    assert first_ulc_failure([1, 6, 15, 16], 6) is None  # padded with zeros
    assert first_ulc_failure([1, 1, 3], 2) == 1


def test_homogenized():
    # masks are subsets of {1..n}; variable 0 takes the missing degree
    f = HomogPoly.homogenized(3, {0b000: 1, 0b101: Fraction(1, 2), 0b111: 0})
    assert f == HomogPoly(4, 3, {(3, 0, 0, 0): 1, (1, 1, 0, 1): Fraction(1, 2)})
    assert HomogPoly.homogenized(0, {0: 5}) == HomogPoly(1, 0, {(0,): 5})
