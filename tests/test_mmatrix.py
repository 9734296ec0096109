import random
from fractions import Fraction
from math import comb

import pytest

from lorentz import (HomogPoly, SquareMatrix, char_poly_multivariate,
                     is_lorentzian, is_m_matrix, principal_minor)
from lorentz.inertia import SymMatrix, inertia
from lorentz.mconvex import PointSet, is_m_convex_set
from lorentz.mmatrix import bareiss_determinant, random_m_matrix

from generators import random_doubly_substochastic
from poly_oracles import bivariate_restriction


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
        # expansion by permutations as an independent oracle
        from itertools import permutations
        expect = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = [False] * n
            p = list(perm)
            for i in range(n):
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    if j != i and not seen[j]:
                        sign = -sign
            term = Fraction(1)
            for i in range(n):
                term *= rows[i][perm[i]]
            expect += sign * term
        assert bareiss_determinant(rows) == expect


def test_char_poly_multivariate_examples():
    ident = SquareMatrix([[1, 0], [0, 1]])
    expect = HomogPoly.linear_form([1, 1, 0]) * HomogPoly.linear_form([1, 0, 1])
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
        coeffs = bivariate_restriction(p.substitute(merge), 1, 0)
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
