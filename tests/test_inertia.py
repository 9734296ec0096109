import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentz import char_poly_multivariate, potts_poly
from lorentz.catalog import load
from lorentz.inertia import Inertia, SymMatrix, _inertia_rows, inertia

from faddeev_leverrier import char_poly, char_poly_inertia
from generators import random_m_matrix, random_nonsingular, random_symmetric
from poly_oracles import support_alphas


def test_inertia_examples():
    assert inertia(SymMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == Inertia(1, 1, 1)
    assert inertia(SymMatrix([[0, 1], [1, 0]])) == Inertia(1, 1, 0)
    # J3 - I3 has spectrum {2, -1, -1}
    assert inertia(SymMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == Inertia(1, 2, 0)


def test_at_most_one_positive():
    assert inertia(SymMatrix([[0, 0], [0, 0]])).n_plus <= 1
    assert inertia(SymMatrix([[1, 0], [0, 1]])).n_plus > 1
    assert inertia(SymMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])).n_plus <= 1


def test_lorentzian_signature():
    # nonsingular with signature (+,-,...,-), or not
    for rows, lorentzian in [([[1, 0], [0, -1]], True), ([[0, 1], [1, 0]], True),
                             ([[1, 1], [1, 1]], False)]:
        sig = inertia(SymMatrix(rows))
        assert (sig.n_plus == 1 and sig.n_zero == 0) == lorentzian


def test_is_psd():
    assert inertia(SymMatrix([[1, 0], [0, 1]])).n_minus == 0
    assert inertia(SymMatrix([[1, 0], [0, -1]])).n_minus > 0
    assert inertia(SymMatrix([[1, 0], [0, 1]])).n_minus == 0


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="matrix is not square"):
        SymMatrix([[1, 2]])


def test_int_entries_stay_ints():
    ints = SymMatrix([[2, -1], [-1, 0]])
    fractions = SymMatrix([[Fraction(2), Fraction(-1)], ["-1", Fraction(0)]])
    assert all(type(x) is int for row in ints.entries for x in row)
    assert ints == fractions and hash(ints) == hash(fractions)
    assert inertia(ints) == inertia(fractions) == Inertia(1, 1, 0)
    # a bool is not kept as an int
    assert type(SymMatrix([[True]]).entries[0][0]) is Fraction


def test_char_poly_small():
    # det(tI - M) for [[0,1],[1,0]] is t^2 - 1
    assert char_poly(SymMatrix([[0, 1], [1, 0]])) == [1, 0, -1]
    assert char_poly(SymMatrix([[2]])) == [1, -2]
    assert char_poly(SymMatrix([])) == [1]


def test_char_poly_matches_numpy_roots():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n, bound=3)
        coeffs = [float(c) for c in char_poly(m)]
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row]
                                            for row in m.entries]))
        rebuilt = np.poly(eigs)
        assert np.allclose(rebuilt, coeffs, atol=1e-6)


def test_congruence_invariance():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n)
        p = random_nonsingular(rng, n)
        conj = [[sum(p[k][i] * m.entries[k][l] * p[l][j]
                     for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)]
        assert inertia(SymMatrix(conj)) == inertia(m)


def test_interlacing_row_deletion_cannot_increase_n_plus():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = random_symmetric(rng, n)
        full = inertia(m).n_plus
        drop = rng.randrange(n)
        keep = [i for i in range(n) if i != drop]
        sub = SymMatrix([[m.entries[i][j] for j in keep] for i in keep])
        assert inertia(sub).n_plus <= full


def test_float_oracle_agreement():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row]
                                            for row in m.entries]))
        if np.min(np.abs(eigs)) <= 1e-6:
            continue
        sig = inertia(m)
        assert sig.n_plus == int(np.sum(eigs > 0))
        assert sig.n_minus == int(np.sum(eigs < 0))
        assert sig.n_zero == 0


def _numpy_inertia(m: SymMatrix):
    """Float sign counts, or None when an eigenvalue is too close to 0."""
    if m.n == 0:
        return Inertia(0, 0, 0)
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m.entries]))
    if np.min(np.abs(eigs)) <= 1e-6:
        return None
    return Inertia(int(np.sum(eigs > 0)), int(np.sum(eigs < 0)), 0)


def _check_against_oracles(m: SymMatrix) -> Inertia:
    sig = inertia(m)
    assert sig == char_poly_inertia(m), m
    floats = _numpy_inertia(m)
    if floats is not None:
        assert sig == floats, m
    return sig


def _low_rank(rng: random.Random, n: int, rank: int, max_den: int = 5) -> list[list[Fraction]]:
    """sum of rank terms +-v v^T with sparse rational v."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(rank):
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, max_den)) if rng.random() < 0.7
             else Fraction(0) for _ in range(n)]
        sign = rng.choice([1, -1])
        for i in range(n):
            for j in range(n):
                rows[i][j] += sign * v[i] * v[j]
    return rows


def test_inertia_matches_char_poly_on_low_rank():
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        sig = _check_against_oracles(SymMatrix(_low_rank(rng, n, rng.randint(0, n))))
        singular += sig.n_zero > 0
    assert singular > 100


def test_inertia_matches_char_poly_with_zero_diagonal():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 10)
        rows = _low_rank(rng, n, rng.randint(0, n)) if rng.random() < 0.5 else \
            [list(row) for row in random_symmetric(rng, n).entries]
        for i in range(n):
            rows[i][i] = Fraction(0)
        _check_against_oracles(SymMatrix(rows))


def test_congruence_branch():
    # every diagonal entry zero, so the first pivot comes from a_pq
    assert inertia(SymMatrix([[0, 3], [3, 0]])) == Inertia(1, 1, 0)
    assert inertia(SymMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])) == Inertia(1, 1, 1)
    # after one pivot the Schur complement has a zero diagonal again
    m = SymMatrix([[1, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 5], [0, 0, 5, 0]])
    assert inertia(m) == char_poly_inertia(m) == Inertia(2, 1, 1)
    # the zero-diagonal all-ones matrix J - I has spectrum {n-1, -1, ..., -1}
    for n in range(2, 11):
        j_minus_i = SymMatrix([[int(i != j) for j in range(n)] for i in range(n)])
        assert inertia(j_minus_i) == Inertia(1, n - 1, 0)


def test_interleaved_zero_rows():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        inner = _low_rank(rng, n, rng.randint(1, n))
        zeros = rng.randint(1, 4)
        size = n + zeros
        spots = sorted(rng.sample(range(size), n))
        rows = [[Fraction(0)] * size for _ in range(size)]
        for a, i in enumerate(spots):
            for b, j in enumerate(spots):
                rows[i][j] = inner[a][b]
        inner_sig = _check_against_oracles(SymMatrix(inner))
        assert _check_against_oracles(SymMatrix(rows)) == \
            Inertia(inner_sig.n_plus, inner_sig.n_minus, inner_sig.n_zero + zeros)


def test_large_denominators():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 8)
        rows = _low_rank(rng, n, rng.randint(1, n), max_den=10 ** 12)
        _check_against_oracles(SymMatrix(rows))
        big = random_symmetric(rng, n)
        rows = [[x / (10 ** 30 + 7 * (i + j)) for j, x in enumerate(row)]
                for i, row in enumerate(big.entries)]
        _check_against_oracles(SymMatrix(rows))


def test_strictly_dominant_rows_stop_before_any_pivot():
    # 2|a_ii| > sum_j |a_ij| on every row: the diagonal has the signs, and no
    # pivot runs, so the rows come back as they went in
    rng = random.Random(9)
    for sign in (1, -1, None):
        for _ in range(20):
            n = rng.randint(1, 7)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            for i in range(n):
                s = sign or rng.choice([1, -1])
                rows[i][i] = s * (sum(map(abs, rows[i])) + rng.randint(1, 3))
            kept = [row[:] for row in rows]
            sig = _inertia_rows(rows, n)
            assert rows == kept
            assert sig == _check_against_oracles(SymMatrix(kept))
            assert (sig.n_plus, sig.n_minus) == (sum(r[i] > 0 for i, r in enumerate(kept)),
                                                 sum(r[i] < 0 for i, r in enumerate(kept)))


def _laplacian(n, edges):
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] -= 1
        rows[j][i] -= 1
        rows[i][i] += 1
        rows[j][j] += 1
    return rows


@pytest.mark.parametrize("rows, expected", [
    ([[1, 1], [1, 1]], Inertia(1, 0, 1)),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], Inertia(2, 0, 1)),
    ([[-2, 1, 1], [1, -2, 1], [1, 1, -2]], Inertia(0, 2, 1)),
    # a connected graph's Laplacian: one zero eigenvalue, the rest positive;
    # two components give two zeros
    (_laplacian(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]), Inertia(5, 0, 1)),
    (_laplacian(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]), Inertia(5, 0, 2)),
], ids=["ones", "j3_laplacian", "negated", "graph_laplacian", "two_components"])
def test_weakly_dominant_singular_keep_their_zeros(rows, expected):
    # 2|a_ii| = sum_j |a_ij| on every row is not a stop: these are singular
    assert _check_against_oracles(SymMatrix(rows)) == expected
    assert _inertia_rows([row[:] for row in rows], len(rows)) == expected


def test_dominant_after_a_negative_pivot():
    # the first pivot -1 leaves prev = -1 times the Schur complement,
    # [[-5, -4], [-4, -5]], strictly dominant with a negative diagonal: the
    # complement itself is positive definite
    rows = [[-1, 2, 2], [2, 1, 0], [2, 0, 1]]
    assert _check_against_oracles(SymMatrix(rows)) == Inertia(2, 1, 0)
    a = [row[:] for row in rows]
    assert _inertia_rows(a, 3) == Inertia(2, 1, 0)
    assert [a[1][1:], a[2][1:]] == [[-5, -4], [-4, -5]]
    # negated and scaled copies, so that the pivots take either sign
    for m in (rows, [[-x for x in row] for row in rows]):
        for scale in (1, 3, -7):
            _check_against_oracles(SymMatrix([[scale * x for x in row] for row in m]))


def _quadratic_hessians(f):
    return [f.quadratic_hessian_after(a) for a in support_alphas(f)]


@pytest.mark.parametrize("name, f", [
    ("fano_potts", lambda: potts_poly(load("fano"), Fraction(1, 2))),
    ("fano_potts_q3", lambda: potts_poly(load("fano"), 3)),
    ("mmatrix_charpoly", lambda: char_poly_multivariate(random_m_matrix(5, seed=42))),
    ("mmatrix_charpoly_slack", lambda: char_poly_multivariate(
        random_m_matrix(6, seed=9001, slack=Fraction(1, 3)))),
])
def test_every_hessian_of_fano_potts_and_m_matrix_charpolys(name, f):
    hessians = _quadratic_hessians(f())
    assert hessians
    for h in hessians:
        assert inertia(h) == char_poly_inertia(h), (name, h)


_entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _symmetric(draw):
    n = draw(st.integers(0, 7))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.one_of(st.just(Fraction(0)), _entries))
    if draw(st.booleans()):
        # a dominant diagonal, strictly or not, of either sign on each row
        for i in range(n):
            off = sum(abs(x) for j, x in enumerate(rows[i]) if j != i)
            rows[i][i] = draw(st.sampled_from([1, -1])) * (off + draw(st.sampled_from([0, 1, 2])))
    return SymMatrix(rows)


@given(_symmetric())
def test_inertia_property_against_char_poly(m):
    sig = _check_against_oracles(m)
    assert sig.n == m.n


@given(st.integers(0, 5), st.integers(0, 3), st.data())
def test_integer_rows_with_zero_rows_after_them(k, pad, data):
    # k integer rows of an n = k + pad matrix against the zero-padded SymMatrix
    entries = st.one_of(st.just(0), st.integers(-6, 6))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = data.draw(entries)
    padded = SymMatrix([row + [0] * pad for row in rows] + [[0] * (k + pad)] * pad)
    assert _inertia_rows([row[:] for row in rows], k + pad) == inertia(padded)
