import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (HomogPoly, SquareMatrix, char_poly_multivariate,
                     is_lorentzian, is_m_matrix, mmatrix, principal_minor)
from lorentz.inertia import SymMatrix, inertia
from lorentz.mconvex import PointSet, is_m_convex_set
from lorentz.mmatrix import _principal_minors, bareiss_determinant

from generators import random_doubly_substochastic, random_fraction, random_m_matrix
from poly_oracles import bivariate_restriction, linear_form, substitute


def test_is_m_matrix_examples():
    assert is_m_matrix(SquareMatrix([[1, 0], [0, 1]]))
    assert not is_m_matrix(SquareMatrix([[1, -2], [-2, 1]]))  # det = -3
    assert is_m_matrix(SquareMatrix([[1, -1], [0, 1]]))
    assert not is_m_matrix(SquareMatrix([[1, 1], [0, 1]]))  # positive off-diagonal


def test_principal_minor():
    a = SquareMatrix([[2, -1], [-1, 2]])
    assert principal_minor(a, []) == 1
    assert principal_minor(SquareMatrix([[1, 0], [0, 1]]), [0, 1]) == 1
    assert principal_minor(a, [0, 1]) == 3
    with pytest.raises(ValueError):
        principal_minor(a, [5])
    with pytest.raises(ValueError, match="matrix is not square"):
        SquareMatrix([[1, 2]])
    with pytest.raises(ValueError, match="matrix is not square"):
        bareiss_determinant([[1, 2], [3]])


def test_sym_matrix_is_the_symmetric_square_matrix():
    assert issubclass(SymMatrix, SquareMatrix)
    rows = [[2, True], [True, "3/2"]]
    sym, square = SymMatrix(rows), SquareMatrix(rows)
    for a in (sym, square):
        # an int stays an int; a bool, like any other entry, becomes a Fraction
        assert [list(map(type, row)) for row in a.entries] == [[int, Fraction], [Fraction, Fraction]]
        assert a.n == 2 and a.entries == ((2, 1), (1, Fraction(3, 2)))
    assert sym == square and hash(sym) == hash(square)
    assert sym != SquareMatrix([[2, 1], [0, "3/2"]])
    assert repr(sym).startswith("SymMatrix(") and repr(square).startswith("SquareMatrix(")
    with pytest.raises(ValueError, match=r"^asymmetric at \(0,1\): 1 != 0$"):
        SymMatrix([[2, 1], [0, "3/2"]])


def permutation_det(rows):
    """The determinant by expansion over permutations, in Fractions: an
    oracle independent of elimination."""
    n = len(rows)
    expect = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                if j != i and not seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        expect += sign * term
    return expect


def test_bareiss_determinant():
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0], [0, 1]]) == 0
    assert bareiss_determinant([[Fraction(1, 2), 0], [7, Fraction(2, 3)]]) == Fraction(1, 3)
    rng = random.Random(70)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(rows) == permutation_det(rows)


def test_determinants_with_huge_denominators():
    # each row is scaled by the lcm of its denominators, of 50 to 70 digits
    rng = random.Random(73)
    for n in range(1, 6):
        rows = [[rng.choice([0, rng.randint(-9, 9),
                             Fraction(rng.randint(-10 ** 60, 10 ** 60),
                                      rng.randint(10 ** 50, 10 ** 70))]) for _ in range(n)]
                for _ in range(n)]
        assert bareiss_determinant(rows) == permutation_det(rows)
        minors = _principal_minors(SquareMatrix(rows))
        for mask, value in enumerate(minors):
            keep = [i for i in range(n) if mask >> i & 1]
            assert value == permutation_det([[rows[i][j] for j in keep] for i in keep]), mask


def test_char_poly_multivariate_examples():
    ident = SquareMatrix([[1, 0], [0, 1]])
    expect = linear_form([1, 1, 0]) * linear_form([1, 0, 1])
    assert char_poly_multivariate(ident) == expect
    assert char_poly_multivariate(SquareMatrix([[1, -1], [0, 1]])) == expect
    a = SquareMatrix([["3/7"]])
    assert char_poly_multivariate(a) == HomogPoly(2, 1, {(1, 0): 1,
                                                         (0, 1): Fraction(3, 7)})


def test_m_matrix_charpoly_lorentzian():
    for seed in range(15):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 4)
        a = random_m_matrix(n, seed=200 + seed)
        assert is_m_matrix(a)
        assert is_lorentzian(char_poly_multivariate(a)).verdict


def test_univariate_collapse_ulc():
    def ulc(seq):
        n = len(seq) - 1
        return all(seq[k] ** 2 * comb(n, k - 1) * comb(n, k + 1)
                   >= seq[k - 1] * seq[k + 1] * comb(n, k) ** 2
                   for k in range(1, n))

    for seed in range(10):
        a = random_m_matrix(3, seed=300 + seed)
        p = char_poly_multivariate(a)
        merge = [[Fraction(0)] * 2 for _ in range(4)]
        merge[0][0] = Fraction(1)
        for i in range(1, 4):
            merge[i][1] = Fraction(1)
        coeffs = bivariate_restriction(substitute(p, merge), 1, 0)
        assert ulc(coeffs)


def test_doubly_substochastic_psd():
    # 2I + B + B^T - (2/n) J is positive semidefinite
    b_fixed = SquareMatrix([[0, 1], [0, 0]])
    n = 2
    rows = [[2 * (i == j) + b_fixed.entries[i][j] + b_fixed.entries[j][i]
             - Fraction(2, n) for j in range(n)] for i in range(n)]
    assert rows == [[1, 0], [0, 1]]
    assert inertia(SymMatrix(rows)).n_minus == 0
    for seed in range(10):
        n = random.Random(seed).randint(2, 5)
        b = random_doubly_substochastic(random.Random(400 + seed), n)
        rows = [[2 * (i == j) + b.entries[i][j] + b.entries[j][i] - Fraction(2, n)
                 for j in range(n)] for i in range(n)]
        assert inertia(SymMatrix(rows)).n_minus == 0


def test_nonsingular_support_is_full_cube():
    for seed in range(8):
        rng = random.Random(500 + seed)
        n = rng.randint(1, 4)
        a = random_m_matrix(n, seed=600 + seed, slack=1)
        p = char_poly_multivariate(a)
        assert len(p.terms) == 2 ** n
        ok, _ = is_m_convex_set(PointSet(n + 1, n, p.support()))
        assert ok


# singular M-matrix whose one-element minor on {0} is 0, the walk's first pivot
SINGULAR = SquareMatrix([[0, 0, 0], [0, 1, -1], [0, -1, 1]])


def _differential_cases():
    for n in range(1, 9):
        for slack in (0, Fraction(1, 3)):
            yield f"m{n}_slack{slack}", random_m_matrix(n, seed=700 + n, slack=slack)
    rng = random.Random(71)
    for n in (3, 5, 6):
        # rank at most r < n: products of n x r and r x n factors
        for r in (2, n - 2):
            left = [[random_fraction(rng, -3, 3) for _ in range(r)] for _ in range(n)]
            right = [[random_fraction(rng, -3, 3) for _ in range(n)] for _ in range(r)]
            yield f"rank{r}_n{n}", SquareMatrix(
                [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                 for i in range(n)])
    for n in range(2, 8):
        yield f"signs{n}", SquareMatrix([[random_fraction(rng, -2, 2, 3) for _ in range(n)]
                                          for _ in range(n)])
    yield "singular", SINGULAR
    yield "zero_corner", SquareMatrix([[0, 1], [1, 0]])   # det -1 under a zero pivot
    yield "zero", SquareMatrix([[0] * 4] * 4)
    yield "n0", SquareMatrix([])
    yield "n1", SquareMatrix([["-3/7"]])


_DIFFERENTIAL = list(_differential_cases())


@pytest.mark.parametrize("a", [a for _, a in _DIFFERENTIAL],
                         ids=[name for name, _ in _DIFFERENTIAL])
def test_principal_minor_table_matches_principal_minor(a):
    minors = _principal_minors(a)
    assert len(minors) == 1 << a.n
    for mask, value in enumerate(minors):
        assert type(value) is Fraction
        assert value == principal_minor(a, [i for i in range(a.n) if mask >> i & 1]), mask


def test_principal_minor_table_calls_no_bareiss(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return bareiss_determinant(rows)

    monkeypatch.setattr(mmatrix, "bareiss_determinant", counted)
    char_poly_multivariate(random_m_matrix(8, seed=7, slack=1))
    assert calls == []
    # only the subsets {0,1}, {0,2} and {0,1,2} below the zero pivot on {0}
    assert is_m_matrix(SINGULAR)
    assert sorted(calls) == [2, 2, 3]


@settings(max_examples=200)
@given(st.integers(0, 5), st.integers(0, 10**6),
       st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 9),
                                                 st.integers(1, 9))))
def test_m_matrix_charpoly_lorentzian_property(n, seed, slack):
    # the paper's refinement of Holtz: M-matrices have Lorentzian charpolys
    a = random_m_matrix(n, seed=seed, slack=slack)
    assert is_m_matrix(a)
    assert is_lorentzian(char_poly_multivariate(a)).verdict
