import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (DiscreteFunction, ExchangeError, HomogPoly, PointSet,
                     generating_poly_f, generating_poly_g, is_lorentzian,
                     is_m_convex_function, is_m_convex_set, matroid_from_bases,
                     regularize)
from lorentz.mconvex import _floor_nth_root, _slice_size, rational_power
from lorentz.poly import simplex

from generators import (polarize_fn, random_m_convex_function,
                        random_matroid_m_convex_function)
from poly_oracles import linear_form, normalized_coeff


def test_set_examples():
    ok, wit = is_m_convex_set(PointSet(2, 3, [(3, 0), (0, 3)]))
    assert not ok and wit is not None
    alpha, beta, i = wit
    assert alpha[i] > beta[i]
    ok, _ = is_m_convex_set(PointSet(3, 2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]))
    assert ok
    ok, _ = is_m_convex_set(PointSet(2, 2, list(simplex(2, 2))))
    assert ok
    ok, _ = is_m_convex_set(PointSet(4, 2, []))
    assert ok  # the empty set is M-convex


def _pairwise_exchange(ps: PointSet):
    """The exchange property by the definition: for each ordered pair and each
    i with alpha_i > beta_i, try every j with alpha_j < beta_j."""
    for alpha in ps.points:
        for beta in ps.points:
            if alpha == beta:
                continue
            for i in range(ps.nvars):
                if alpha[i] <= beta[i]:
                    continue
                if not any(alpha[j] < beta[j] and
                           tuple(a - (k == i) + (k == j) for k, a in enumerate(alpha))
                           in ps.points for j in range(ps.nvars)):
                    return False, (alpha, beta, i)
    return True, None


def test_exchange_check_matches_pairwise_reference():
    rng = random.Random(11)
    refuted = 0
    for _ in range(400):
        n, d = rng.randint(2, 5), rng.randint(1, 4)
        keep = rng.uniform(0.2, 0.9)
        ps = PointSet(n, d, [e for e in simplex(n, d) if rng.random() < keep])
        expected = _pairwise_exchange(ps)
        assert is_m_convex_set(ps) == expected, ps
        refuted += not expected[0]
    assert refuted > 200


@st.composite
def _point_sets(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    pts = list(simplex(n, d))
    return PointSet(n, d, draw(st.lists(st.sampled_from(pts), max_size=len(pts))))


@given(_point_sets())
def test_exchange_check_property(ps):
    assert is_m_convex_set(ps) == _pairwise_exchange(ps)


def _box_slice(caps, d):
    """The points x with 0 <= x <= caps and |x| = d, by enumerating the box."""
    return [p for p in product(*(range(c + 1) for c in caps)) if sum(p) == d]


def test_slice_size_matches_brute_force():
    rng = random.Random(5)
    cases = [((), 0), ((), 3), ((0,), 0), ((0,), 2), ((4,), 4), ((4,), 2), ((0, 0, 0), 0)]
    cases += [(tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 5))), rng.randint(0, 12))
              for _ in range(300)]
    for caps, d in cases:
        assert _slice_size(caps, d) == len(_box_slice(caps, d)), (caps, d)


def _box_slice_cases():
    """(n, d, caps): fixed edge cases, then random caps, some 0 and some above d."""
    rng = random.Random(23)
    cases = [(1, 0, (0,)), (1, 3, (3,)), (1, 3, (5,)), (3, 0, (0, 0, 0)), (3, 0, (2, 0, 5)),
             (2, 3, (0, 3)), (3, 2, (0, 1, 1)), (3, 2, (4, 4, 4)), (4, 3, (0, 2, 5, 1))]
    for _ in range(150):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        cases.append((n, d, tuple(rng.randint(0, d + 2) for _ in range(n))))
    return [(n, d, caps) for n, d, caps in cases if _box_slice(caps, d)]


def test_box_slices_match_pairwise_reference():
    # a whole box slice is M-convex; without one of its points it often is not,
    # and the witness is the one the pairwise reference meets first
    rng = random.Random(29)
    refuted = 0
    for n, d, caps in _box_slice_cases():
        pts = _box_slice(caps, d)
        ps = PointSet(n, d, pts)
        assert is_m_convex_set(ps) == _pairwise_exchange(ps) == (True, None), ps
        for hole in rng.sample(pts, min(4, len(pts))):
            rest = PointSet(n, d, [p for p in pts if p != hole])
            expected = _pairwise_exchange(rest)
            assert is_m_convex_set(rest) == expected, rest
            refuted += not expected[0]
    assert refuted > 80


def test_empty_sets_match_pairwise_reference():
    for n, d in product(range(4), range(4)):
        ps = PointSet(n, d, [])
        assert is_m_convex_set(ps) == _pairwise_exchange(ps) == (True, None)


def test_matroid_basis_family():
    # matroid_from_bases checks its bases as 0/1 points with is_m_convex_set
    # and reports that check's witness as sets of elements
    from itertools import combinations
    pts = [tuple(1 if i in s else 0 for i in range(4))
           for s in combinations(range(4), 2)]
    assert is_m_convex_set(PointSet(4, 2, pts)) == (True, None)
    ok, (alpha, beta, i) = is_m_convex_set(PointSet(4, 2, [(1, 1, 0, 0), (0, 0, 1, 1)]))
    assert not ok
    with pytest.raises(ExchangeError) as err:
        matroid_from_bases(4, [[0, 1], [2, 3]])
    assert err.value.witness == (tuple(k for k in range(4) if alpha[k]),
                                 tuple(k for k in range(4) if beta[k]), i)


def test_function_examples():
    # indicator of an M-convex set is M-convex
    nu = DiscreteFunction(3, 2, dict.fromkeys([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 0))
    ok, _ = is_m_convex_function(nu)
    assert ok
    bad = DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
    ok, wit = is_m_convex_function(bad)
    assert not ok and set(wit) == {(2, 0), (0, 2)}
    good = DiscreteFunction(2, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 1})
    ok, _ = is_m_convex_function(good)
    assert ok


def _pairwise_function_exchange(nu: DiscreteFunction):
    """The local exchange check by the definition: the domain by
    ``_pairwise_exchange``, then every pair of domain points at l1-distance 4,
    in the order of ``nu.values``, tries every i with alpha_i > beta_i and j
    with alpha_j < beta_j on the Fraction values."""
    dom_ok, wit = _pairwise_exchange(nu.domain())
    if not dom_ok:
        return False, (wit[0], wit[1])
    vals = nu.values
    pts = list(vals)
    n = nu.nvars
    for a_idx, alpha in enumerate(pts):
        for beta in pts[a_idx + 1:]:
            if sum(abs(x - y) for x, y in zip(alpha, beta)) != 4:
                continue
            lhs = vals[alpha] + vals[beta]
            ok = False
            for i in range(n):
                if alpha[i] <= beta[i]:
                    continue
                for j in range(n):
                    if alpha[j] >= beta[j]:
                        continue
                    a2 = list(alpha)
                    a2[i] -= 1
                    a2[j] += 1
                    b2 = list(beta)
                    b2[j] -= 1
                    b2[i] += 1
                    va = vals.get(tuple(a2))
                    vb = vals.get(tuple(b2))
                    if va is not None and vb is not None and lhs >= va + vb:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False, (alpha, beta)
    return True, None


def test_function_check_matches_pairwise_reference():
    # generated M-convex functions, and in every other pair of draws the same
    # domain in shuffled order with rational noise on the values
    rng = random.Random(29)
    refuted = 0
    for t in range(400):
        nu = (random_m_convex_function(rng, rng.randint(2, 4), rng.randint(2, 4)) if t % 2
              else random_matroid_m_convex_function(rng))
        if t % 4 >= 2:
            pts = list(nu.values)
            rng.shuffle(pts)
            nu = DiscreteFunction(nu.nvars, nu.degree, {
                p: nu.values[p] + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for p in pts})
        expected = _pairwise_function_exchange(nu)
        assert is_m_convex_function(nu) == expected, nu
        refuted += not expected[0]
    assert refuted > 30


def test_function_check_matches_pairwise_reference_on_the_simplex():
    # random values on all of simplex(n, d) or on its slice without the
    # vertices: the domain is M-convex, so every refutation is one of the values
    rng = random.Random(30)
    refuted = 0
    for _ in range(300):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        cap = d - rng.randrange(2)
        pts = [p for p in simplex(n, d) if max(p) <= cap] or list(simplex(n, d))
        rng.shuffle(pts)
        nu = DiscreteFunction(n, d, {p: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) +
                                     rng.randint(0, 2) * sum(k * k for k in p) for p in pts})
        expected = _pairwise_function_exchange(nu)
        assert is_m_convex_function(nu) == expected, nu
        refuted += not expected[0]
    assert refuted > 80


def test_function_domain_must_be_m_convex():
    nu = DiscreteFunction(2, 3, {(3, 0): 0, (0, 3): 0})
    ok, _ = is_m_convex_function(nu)
    assert not ok


def test_negative_sizes_are_refused():
    for make in (lambda n, d: PointSet(n, d, []), lambda n, d: DiscreteFunction(n, d, {})):
        with pytest.raises(ValueError, match="nvars must be nonnegative, got -1"):
            make(-1, 2)
        with pytest.raises(ValueError, match="degree must be nonnegative, got -2"):
            make(2, -2)


def test_generating_poly_f():
    nu = DiscreteFunction(2, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 1})
    f = generating_poly_f(nu, Fraction(1, 2))
    assert f == HomogPoly(2, 2, {(2, 0): Fraction(1, 4), (1, 1): 1,
                                 (0, 2): Fraction(1, 4)})
    # indicator: independent of q, equals the exponential generating function
    ind = DiscreteFunction(3, 2, dict.fromkeys([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 0))
    assert generating_poly_f(ind, Fraction(1, 3)) == generating_poly_f(ind, 1)
    # nu == 0 on the whole simplex: (w1+...+wn)^d / d!
    full = DiscreteFunction(3, 2, {a: 0 for a in simplex(3, 2)})
    lhs = generating_poly_f(full, 1)
    rhs = Fraction(1, 2) * linear_form([1, 1, 1]) ** 2
    assert lhs == rhs


def test_generating_poly_g():
    d1 = DiscreteFunction(2, 1, {(1, 0): 0, (0, 1): 0})
    assert generating_poly_g(d1, Fraction(1, 2)) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    ind = DiscreteFunction(2, 2, {(2, 0): 0, (0, 2): 0})
    assert generating_poly_g(ind, Fraction(2, 3)) == HomogPoly(2, 2, {(2, 0): 1, (0, 2): 1})
    full0 = DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 0, (0, 2): 0})
    assert generating_poly_g(full0, Fraction(1, 2)) == \
        HomogPoly(2, 2, {(2, 0): 1, (1, 1): 4, (0, 2): 1})


def test_generating_poly_errors():
    nu = DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 0, (0, 2): 0})
    with pytest.raises(ValueError):
        generating_poly_f(nu, 0)
    with pytest.raises(ValueError):
        generating_poly_f(nu, Fraction(-1, 2))
    half = DiscreteFunction(2, 2, {(2, 0): Fraction(1, 2), (1, 1): 0, (0, 2): Fraction(1, 2)})
    with pytest.raises(ValueError):
        generating_poly_f(half, Fraction(1, 2))
    # q = (1/4) is an exact square, so nu with half-integer values works
    f = generating_poly_f(half, Fraction(1, 4))
    assert normalized_coeff(f, (2, 0)) == Fraction(1, 2)


def test_generating_poly_power_bound():
    # |nu(a)| (bit length of the larger part of q, less 1) may reach 300,000
    for q, top in ((2, 300_000), (Fraction(7, 4), 150_000), (Fraction(3, 5), 150_000)):
        for make in (generating_poly_f, generating_poly_g):
            f = make(DiscreteFunction(2, 1, {(1, 0): top, (0, 1): -top}), q)
            assert f.terms[1, 0] == Fraction(q) ** top
            over = DiscreteFunction(2, 1, {(1, 0): 0, (0, 1): Fraction(-2 * top - 1, 2)})
            with pytest.raises(ValueError, match="more than 300000 bits"):
                make(over, q)
    # q = 1 has every power, and a small power of a huge q is within the bound
    assert generating_poly_f(DiscreteFunction(1, 1, {(1,): 10 ** 4400}), 1).terms == {(1,): 1}
    assert generating_poly_f(DiscreteFunction(1, 1, {(1,): 20}), 10 ** 4400).terms == \
        {(1,): 10 ** 88000}


def test_rational_power():
    assert rational_power(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert rational_power(Fraction(8), Fraction(-2, 3)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        rational_power(Fraction(2), Fraction(1, 2))


def test_rational_power_beyond_float_range():
    assert rational_power(Fraction(10**400), Fraction(1, 2)) == 10**200
    assert rational_power(Fraction(1, 10**600), Fraction(-2, 3)) == 10**400
    with pytest.raises(ValueError):
        rational_power(Fraction(10**400 + 1), Fraction(1, 2))


def _bisect_root(x: int, r: int) -> int:
    """The floor r-th root by bisection on lo**r <= x < hi**r."""
    lo, hi = 0, 1 << (x.bit_length() // r + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** r <= x:
            lo = mid
        else:
            hi = mid
    return lo


def test_floor_nth_root_matches_references():
    rng = random.Random(28)
    for _ in range(2000):
        r = rng.choice([1, 2, 3, 5, 7, 64, rng.randint(2, 300)])
        x = rng.getrandbits(rng.randint(0, 1500))
        if rng.randrange(4) == 0:   # perfect powers and their neighbours
            x = max(0, rng.getrandbits(rng.randint(1, 40)) ** r + rng.randint(-1, 1))
        root = _floor_nth_root(x, r)
        assert root == _bisect_root(x, r), (x, r)
        if r == 2:
            assert root == math.isqrt(x)
    with pytest.raises(ValueError, match="negative radicand"):
        _floor_nth_root(-1, 3)


def test_floor_nth_root_of_a_huge_index():
    # an index above the bit length gives the root 1, with no float of the index
    assert _floor_nth_root(2, 10 ** 4400) == 1
    assert _floor_nth_root(2 ** 64 - 1, 64) == 1 and _floor_nth_root(2 ** 64, 64) == 2


def test_polarize_example():
    ind = DiscreteFunction(2, 2, dict.fromkeys([(2, 0)], 0))
    lifted = polarize_fn(ind)
    assert lifted.nvars == 4 and set(lifted.values) == {(1, 1, 0, 0)}
    # degree 0 lifts to no variables
    assert polarize_fn(DiscreteFunction(2, 0, {(0, 0): 5})) == DiscreteFunction(0, 0, {(): 5})
    assert polarize_fn(DiscreteFunction(2, 0, {})) == DiscreteFunction(0, 0, {})


def test_polarize_preserves_m_convexity():
    rng = random.Random(22)
    for _ in range(8):
        nu = random_m_convex_function(rng, rng.randint(2, 3), rng.randint(1, 3))
        ok, wit = is_m_convex_function(polarize_fn(nu))
        assert ok, wit


def test_regularize():
    ind = DiscreteFunction(2, 2, dict.fromkeys([(2, 0)], 0))
    reg = regularize(ind, 1)
    assert reg.values == {(2, 0): Fraction(0), (1, 1): Fraction(1), (0, 2): Fraction(2)}
    ok, _ = is_m_convex_function(reg)
    assert ok
    # full-domain input is returned unchanged for every k
    full = DiscreteFunction(2, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 1})
    for k in (1, 3, 10):
        assert regularize(full, k) == full
    with pytest.raises(ValueError):
        regularize(DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 1, (0, 2): 0}), 1)
    with pytest.raises(ValueError):
        regularize(DiscreteFunction(2, 2, {}), 1)


def _lift_regularize(nu: DiscreteFunction, k) -> DiscreteFunction:
    """The paper's construction, the reference for the closed form: over n*n
    auxiliary variables indexed by pairs (i, j), pull nu back along row sums,
    add k times the total off-diagonal mass, and push forward by minimizing
    along column sums."""
    ok, wit = is_m_convex_function(nu)
    if not ok:
        raise ValueError(f"input is not M-convex (witness {wit})")
    if not nu.values:
        raise ValueError("input is identically infinite")
    n, d = nu.nvars, nu.degree
    out = {}
    for beta in simplex(n * n, d):
        rows = [0] * n
        cols = [0] * n
        offdiag = 0
        for flat, m in enumerate(beta):
            if m:
                i, j = divmod(flat, n)
                rows[i] += m
                cols[j] += m
                if i != j:
                    offdiag += m
        base = nu.values.get(tuple(rows))
        if base is None:
            continue
        val = base + k * offdiag
        key = tuple(cols)
        if key not in out or val < out[key]:
            out[key] = val
    return DiscreteFunction(n, d, out)


def test_regularize_matches_lift_reference():
    rng = random.Random(27)
    draws = [random_m_convex_function(rng, rng.randint(1, 4), rng.randint(1, 4))
             for _ in range(30)]
    draws += [random_matroid_m_convex_function(rng) for _ in range(30)]
    for nu in draws:
        for k in (0, Fraction(1, 2), 1, 3, 7):
            assert regularize(nu, k).values == _lift_regularize(nu, k).values, (nu, k)


def test_regularize_refuses_negative_k():
    full = DiscreteFunction(2, 2, {(2, 0): 1, (1, 1): 0, (0, 2): 1})
    for k in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            regularize(full, k)


def test_regularize_full_domain_and_agreement_for_large_k():
    rng = random.Random(23)
    for _ in range(6):
        nu = random_m_convex_function(rng, 2, 3)
        spread = max(nu.values.values()) - min(nu.values.values())
        k = int(spread) + 2
        reg = regularize(nu, k)
        assert set(reg.values) == set(simplex(2, 3))
        for p, v in nu.values.items():
            assert reg.values[p] == v
        ok, wit = is_m_convex_function(reg)
        assert ok, wit


def test_classical_theorem_forward():
    # M-convex nu gives Lorentzian f^nu_q at sampled rational q
    rng = random.Random(24)
    for _ in range(8):
        nu = random_m_convex_function(rng, rng.randint(2, 3), rng.randint(1, 3))
        for q in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            assert is_lorentzian(generating_poly_f(nu, q)).verdict
            assert is_lorentzian(generating_poly_g(nu, q)).verdict


def _generated_function(rng: random.Random, on_matroid: bool) -> DiscreteFunction:
    return (random_matroid_m_convex_function(rng) if on_matroid
            else random_m_convex_function(rng, rng.randint(1, 4), rng.randint(1, 4)))


@settings(max_examples=50)
@given(st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([0, Fraction(1, 2), 1, 3]))
def test_regularize_is_m_convex_on_the_simplex(rng, on_matroid, k):
    nu = _generated_function(rng, on_matroid)
    reg = regularize(nu, k)
    assert set(reg.values) == set(simplex(nu.nvars, nu.degree))
    assert _pairwise_function_exchange(reg) == (True, None)


@settings(max_examples=50)
@given(st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
def test_generating_polys_of_m_convex_functions_are_lorentzian(rng, on_matroid, q):
    nu = _generated_function(rng, on_matroid)
    assert is_lorentzian(generating_poly_f(nu, q)).verdict
    assert is_lorentzian(generating_poly_g(nu, q)).verdict


def test_classical_theorem_converse_witness():
    bad = DiscreteFunction(2, 2, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
    cert = is_lorentzian(generating_poly_f(bad, Fraction(1, 2)))
    assert not cert.verdict


def test_function_check_implies_domain_check():
    rng = random.Random(25)
    for _ in range(10):
        for nu in (random_m_convex_function(rng, 3, 2), random_matroid_m_convex_function(rng)):
            ok, _ = is_m_convex_function(nu)
            if ok:
                dom_ok, _ = is_m_convex_set(nu.domain())
                assert dom_ok


def test_log_coefficient_corollary():
    # integer-valued M-concave log-coefficients certify via f^{-nu}_q
    rng = random.Random(26)
    for _ in range(5):
        mu = random_m_convex_function(rng, 2, 3)
        neg = DiscreteFunction(mu.nvars, mu.degree, {p: -v for p, v in mu.values.items()})
        for q in (Fraction(1, 3), Fraction(9, 10)):
            f = generating_poly_f(DiscreteFunction(mu.nvars, mu.degree,
                                                   {p: -v for p, v in neg.values.items()}), q)
            assert is_lorentzian(f).verdict
