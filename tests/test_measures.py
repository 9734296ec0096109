import math
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (HomogPoly, Measure, exclusion_evolution, external_field,
                     is_lorentzian_measure, negative_dependence_report,
                     partition_homogenized)
from lorentz.catalog import NAMES, load
from lorentz.measures import pairwise_bound_failures, rank_sequence
from lorentz.poly import first_ulc_failure

from generators import (matroid_measures, random_m_matrix, random_positive_fraction,
                        uniform_matroid)
import poly_oracles
from poly_oracles import (first_rayleigh_violation, linear_form, marginal, pair_marginal,
                          pointwise)


def bernoulli_product(n):
    return Measure(n, {mask: Fraction(1, 2 ** n) for mask in range(2 ** n)})


def test_partition_homogenized():
    point = Measure(3, {0: 1})
    assert partition_homogenized(point) == HomogPoly(4, 3, {(3, 0, 0, 0): 1})
    half = Measure(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert partition_homogenized(half) == Fraction(1, 2) * linear_form([1, 1])
    mu, _ = matroid_measures(load("u12"))
    assert partition_homogenized(mu) == Fraction(1, 3) * HomogPoly(
        3, 2, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1})


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(2, {0: Fraction(1, 2)})
    m = Measure(2, {0: 1, 3: 1}, normalize=True)
    assert m.weights == {0: Fraction(1, 2), 3: Fraction(1, 2)}
    with pytest.raises(ValueError):
        Measure(1, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Measure(-1, {frozenset(): 1})


def _random_weights(rng, n):
    """Positive weights on a random set of atoms, not summing to 1: small, mixed
    and large denominators, some atoms keyed by int and some by frozenset."""
    dens = rng.choice([[1], [2, 3, 5, 7], [10 ** 6 + 3, 10 ** 9 + 7, 2 ** 40]])
    masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
    return {(m if rng.random() < 0.5 else frozenset(i for i in range(n) if m >> i & 1)):
            Fraction(rng.randint(1, 10 ** rng.choice([1, 3, 15])), rng.choice(dens))
            for m in masks}


def test_integer_measures_match_fraction_references():
    rng = random.Random(36)
    for _ in range(60):
        n = rng.randint(1, 5)
        raw = _random_weights(rng, n)
        mu = Measure(n, raw, normalize=True)
        # canonical: positive numerators with gcd 1 over their sum, whatever the scale
        total = sum(raw.values())
        want = {(k if isinstance(k, int) else sum(1 << i for i in k)): w / total
                for k, w in raw.items()}
        assert mu.weights == want and Measure(n, want) == mu
        assert min(mu.nums.values()) > 0 and math.gcd(*mu.nums.values()) == 1
        assert mu.den == sum(mu.nums.values())
        scale = Fraction(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))
        assert Measure(n, {k: scale * w for k, w in raw.items()}, normalize=True) == mu
        # the integer bodies against their Fraction references, atom order included
        x = [Fraction(rng.randint(1, 10 ** 6), rng.choice([1, 3, 10 ** 6 + 3])) for _ in range(n)]
        pairs = [(external_field(mu, x), poly_oracles.external_field(mu, x))]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            theta = rng.choice([0, 1, Fraction(1, 2), Fraction(rng.randint(0, 10 ** 9), 10 ** 9 + 7)])
            pairs.append((exclusion_evolution(mu, i, j, theta),
                          poly_oracles.exclusion_evolution(mu, i, j, theta)))
        for out, ref in pairs:
            assert out == ref and list(out.weights.items()) == list(ref.weights.items())
            assert out.den == sum(out.nums.values()) and math.gcd(*out.nums.values()) == 1
        assert rank_sequence(mu) == poly_oracles.rank_sequence(mu)


def test_measure_reduces_a_common_factor():
    # integer weights 2 and 4 share the factor 2, which the numerators do not keep
    mu = Measure(2, {1: 2, frozenset({1}): 4}, normalize=True)
    assert (mu.nums, mu.den) == ({1: 1, 2: 2}, 3)
    assert mu == Measure(2, {1: Fraction(1, 3), 2: Fraction(2, 3)})


def test_lorentzian_measures():
    for name in ("u12", "u23", "u24", "free3", "loop_u12", "mk4"):
        mu, nu = matroid_measures(load(name))
        assert is_lorentzian_measure(mu).verdict
        assert is_lorentzian_measure(nu).verdict
    assert is_lorentzian_measure(bernoulli_product(3)).verdict
    bad = Measure(2, {0: Fraction(1, 2), 3: Fraction(1, 2)})
    cert = is_lorentzian_measure(bad)
    assert not cert.verdict and cert.failing_kind == "support_not_m_convex"


def test_external_field():
    mu, _ = matroid_measures(load("u12"))
    assert external_field(mu, [1, 1]) == mu
    point = Measure(2, {3: 1})
    assert external_field(point, [5, 7]) == point
    half = Measure(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    shifted = external_field(half, [3])
    assert shifted.weights == {0: Fraction(1, 4), 1: Fraction(3, 4)}
    with pytest.raises(ValueError):
        external_field(half, [0])
    with pytest.raises(ValueError):
        external_field(half, [1, 1])


def test_lorentzian_closed_under_external_field():
    rng = random.Random(80)
    for name in ("u12", "u24", "loop_u12"):
        mu, nu = matroid_measures(load(name))
        for m in (mu, nu):
            x = [random_positive_fraction(rng) for _ in range(m.n)]
            assert is_lorentzian_measure(external_field(m, x)).verdict


def test_ulc_under_external_field():
    rng = random.Random(81)
    mu, _ = matroid_measures(load("mk4"))
    assert first_ulc_failure(rank_sequence(mu), mu.n) is None
    for _ in range(5):
        x = [random_positive_fraction(rng) for _ in range(mu.n)]
        assert first_ulc_failure(rank_sequence(external_field(mu, x)), mu.n) is None


def test_exclusion_evolution():
    mu, _ = matroid_measures(load("u12"))
    assert exclusion_evolution(mu, 0, 1, 0) == mu
    swapped = exclusion_evolution(mu, 0, 1, 1)
    assert swapped.weights == mu.weights  # u12 is symmetric in its elements
    lop = Measure(2, {1: Fraction(2, 3), 2: Fraction(1, 3)})
    relabeled = exclusion_evolution(lop, 0, 1, 1)
    assert relabeled.weights == {2: Fraction(2, 3), 1: Fraction(1, 3)}
    mid = exclusion_evolution(lop, 0, 1, Fraction(1, 2))
    assert mid.weights == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    with pytest.raises(ValueError):
        exclusion_evolution(mu, 0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        exclusion_evolution(mu, 0, 1, 2)


def test_lorentzian_closed_under_exclusion():
    for name in ("u12", "u24", "mk4"):
        mu, nu = matroid_measures(load(name))
        for m in (mu, nu):
            for theta in (Fraction(1, 4), Fraction(1, 2), 1):
                out = exclusion_evolution(m, 0, m.n - 1, theta)
                assert is_lorentzian_measure(out).verdict


def test_matroid_measure_atoms():
    mu, nu = matroid_measures(load("u12"))
    assert dict(mu.weights) == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    assert dict(nu.weights) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    free2 = uniform_matroid(2, 2)
    mu2, _ = matroid_measures(free2)
    assert mu2.weights == {mask: Fraction(1, 4) for mask in range(4)}
    mu4, _ = matroid_measures(load("mk4"))
    assert len(mu4.weights) == 38
    assert set(mu4.weights.values()) == {Fraction(1, 38)}


def test_marginals():
    mu, _ = matroid_measures(load("u12"))
    assert marginal(mu, 0) == Fraction(1, 3)
    assert pair_marginal(mu, 0, 1) == 0
    assert rank_sequence(mu) == [Fraction(1, 3), Fraction(2, 3), 0]


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(0, 5), st.booleans(),
       st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(0),
                        Fraction(-1)]))
def test_pairwise_failures_match_fraction_marginals(rng, n, product, c):
    # the one integer pass against a Fraction sum per marginal; a product
    # measure has Pr(i and j) = Pr(i) Pr(j), on the bound at c = 1
    if product:
        p = [random_positive_fraction(rng, 3) / 4 for _ in range(n)]
        mu = Measure(n, {mask: prod(p[i] if mask >> i & 1 else 1 - p[i] for i in range(n))
                         for mask in range(1 << n)})
    else:
        masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
        mu = Measure(n, {m: random_positive_fraction(rng) for m in masks}, normalize=True)
    assert pairwise_bound_failures(mu, c) == [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if pair_marginal(mu, i, j) > c * marginal(mu, i) * marginal(mu, j)]
    if product and n >= 2:
        assert pairwise_bound_failures(mu, 1) == []
        assert len(pairwise_bound_failures(mu, Fraction(99, 100))) == n * (n - 1) // 2


def test_report_bernoulli_product():
    rep = negative_dependence_report(bernoulli_product(3), c=1, trials=50, seed=7)
    # independence: PNC holds with equality and the 1-Rayleigh scan is silent
    assert rep.pnc_holds and rep.pairwise_holds and rep.ulc_holds
    assert rep.c_rayleigh_witness is None
    assert rep.strongly_rayleigh_witness is None


def test_report_matroid_measures():
    for name in NAMES:
        mu, _ = matroid_measures(load(name))
        rep = negative_dependence_report(mu, c=2, trials=40, seed=9)
        assert rep.pairwise_holds, name  # Pr(i,j) <= 2 Pr(i) Pr(j), exactly
        assert rep.ulc_holds, name
        assert rep.c_rayleigh_witness is None, name


def test_report_finds_positive_correlation():
    # mass on {} and {0,1} only: Pr(0 and 1) = 1/2 > Pr(0) Pr(1) = 1/4
    mu = Measure(2, {0: Fraction(1, 2), 3: Fraction(1, 2)})
    rep = negative_dependence_report(mu, c=1, trials=30, seed=11)
    assert not rep.pnc_holds and rep.pnc_failures == ((0, 1),)
    assert rep.c_rayleigh_witness is not None
    wit = rep.c_rayleigh_witness
    assert wit.lhs > wit.rhs


def _partial_sum(mu, w, ks):
    """d_ks Z at w by brute force: mu(S) times the product of w over S - ks,
    summed over the subsets S that contain ks."""
    total = Fraction(0)
    for atom, weight in mu.atoms():
        if set(ks) <= set(atom):
            for k in atom:
                if k not in ks:
                    weight *= w[k]
            total += weight
    return total


def test_report_witnesses_hold():
    rng = random.Random(61)
    fixtures = [mu for name in NAMES for mu in matroid_measures(load(name))]
    for _ in range(8):
        n = rng.randint(2, 4)
        masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
        fixtures.append(Measure(n, {m: random_positive_fraction(rng) for m in masks},
                                normalize=True))
    found = {"c": 0, "strong": 0}
    for mu in fixtures:
        # c = 1, the constant of the strongly Rayleigh scan too
        rep = negative_dependence_report(mu, c=1, trials=30, seed=3)
        for kind, wit in (("c", rep.c_rayleigh_witness),
                          ("strong", rep.strongly_rayleigh_witness)):
            if wit is None:
                continue
            found[kind] += 1
            w, i, j = wit.point, wit.i, wit.j
            assert wit.lhs == _partial_sum(mu, w, ()) * _partial_sum(mu, w, (i, j))
            assert wit.rhs == _partial_sum(mu, w, (i,)) * _partial_sum(mu, w, (j,))
            assert wit.lhs > wit.rhs
    assert found["c"] and found["strong"]


def test_strongly_rayleigh_fixtures_are_lorentzian():
    # fixtures with stable partition functions: the signed scan stays silent
    # and the Lorentzian verdict is true
    fixtures = [bernoulli_product(2), bernoulli_product(3),
                matroid_measures(load("u12"))[1]]
    for mu in fixtures:
        rep = negative_dependence_report(mu, c=1, trials=60, seed=13)
        assert rep.strongly_rayleigh_witness is None
        assert is_lorentzian_measure(mu).verdict


def test_measure_from_m_matrix_minors_is_lorentzian():
    # weights proportional to principal minors of an M-matrix
    from lorentz.mmatrix import principal_minor
    a = random_m_matrix(3, seed=21, slack=1)
    weights = {}
    for mask in range(8):
        weights[mask] = principal_minor(a, [i for i in range(3) if mask >> i & 1])
    mu = Measure(3, weights, normalize=True)
    assert is_lorentzian_measure(mu).verdict


def _report_draws(n, trials, seed, signed, max_den=10):
    # the points of the report's scans, drawn as they are: numerators, then denominators
    rng = random.Random(seed)
    for _ in range(trials):
        nums = [rng.randint(-max_den, max_den) if signed else rng.randint(1, max_den)
                for _ in range(n)]
        dens = [rng.randint(1, max_den) for _ in range(n)]
        yield [Fraction(x, y) for x, y in zip(nums, dens)]


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(1, 4),
       st.sampled_from([1, 2, "bound", "below"]))
def test_report_scans_match_fraction_reference(rng, n, c):
    # the integer scan against derive/eval of the homogenized Z at (1, w),
    # on the seeded positive points and the seeded signed points; "bound" is
    # 2(1 - 1/n), from which a Lorentzian Z leaves the c-scan out
    masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
    mu = Measure(n, {m: random_positive_fraction(rng) for m in masks}, normalize=True)
    if c in ("bound", "below"):
        c = 2 - Fraction(2, n) - Fraction(1, 100) * (c == "below")
    seed = rng.randrange(1000)
    rep = negative_dependence_report(mu, c=c, trials=15, seed=seed)
    f = partition_homogenized(mu)
    checks = [((0,) * (n + 1), i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for wit, cw, signed, s in ((rep.c_rayleigh_witness, c, False, seed),
                               (rep.strongly_rayleigh_witness, 1, True, seed + 1)):
        points = ([1] + w for w in _report_draws(n, 15, s, signed))
        ref = first_rayleigh_violation(f, cw, points, checks)
        if wit is None:
            assert ref is None
        else:
            assert ref == ((0,) * (n + 1), wit.i + 1, wit.j + 1, (1,) + wit.point)
            assert wit.lhs > wit.rhs


@settings(max_examples=30)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.sampled_from([1, 2]),
       st.sampled_from([1, 63, 64, 65, 200]))
def test_report_batches_match_pointwise_scan(rng, n, c, trials):
    # the column batches of both samplings, positive and signed, against the
    # compiled checks run one point at a time, across chunk edges
    masks = rng.sample(range(1 << n), rng.randint(1, 1 << n))
    mu = Measure(n, {m: random_positive_fraction(rng) for m in masks}, normalize=True)
    seed = rng.randrange(1000)

    def report():
        return negative_dependence_report(mu, c=c, trials=trials, seed=seed)
    assert report() == pointwise(report)
