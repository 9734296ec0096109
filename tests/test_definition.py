"""The certifier against the definition it characterises.

``is_lorentzian`` decides by signs, the support and one Hessian inertia per
degree-(d-2) alpha; ``is_strictly_lorentzian`` by full positive support and
those inertias.  Here both are compared with Brändén-Huh's recursive
definitions (``poly_oracles.lorentzian_by_definition`` and
``strictly_lorentzian_by_definition``) on inputs near the boundary of the
Lorentzian cone, and every refutation's witness is re-checked from the
definition of what it names.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import HomogPoly, Inertia, is_lorentzian, is_strictly_lorentzian
from lorentz.certify import INERTIA_VIOLATION, NEGATIVE_COEFFICIENT, SUPPORT_NOT_M_CONVEX

from faddeev_leverrier import char_poly_inertia
from generators import (random_homog, random_lorentzian_input, random_multiaffine,
                        with_one_scaled)
from poly_oracles import (hessian, linear_form, lorentzian_by_definition, moved,
                          strictly_lorentzian_by_definition, unit)

KINDS = ("lorentzian", "scaled", "dense", "sparse", "multiaffine", "strict")


def _near_strict(rng: random.Random, c: Fraction) -> HomogPoly:
    """(sum w)^d - c (sum w)^(d-2) (sum w_i^2): strictly Lorentzian for small
    c > 0, with singular Hessians at c = 0 and negative coefficients for
    large c."""
    n, d = rng.randint(2, 3), rng.randint(2, 4)
    total = linear_form([1] * n)
    squares = HomogPoly(n, 2, {tuple(2 * k for k in unit(n, i)): 1 for i in range(n)})
    return total ** d - total ** (d - 2) * squares * c


def near_boundary_input(rng: random.Random, kind: str, s: Fraction) -> HomogPoly:
    if kind == "lorentzian":
        return random_lorentzian_input(rng)
    if kind == "scaled":
        return with_one_scaled(rng, random_lorentzian_input(rng), s)
    if kind in ("dense", "sparse"):
        return random_homog(rng, rng.randint(2, 3), rng.randint(2, 4),
                            density=0.9 if kind == "dense" else 0.3, nonneg=True)
    if kind == "multiaffine":
        n = rng.randint(2, 4)
        return random_multiaffine(rng, n, rng.randint(1, n))
    return with_one_scaled(rng, _near_strict(rng, s / 25), s if rng.randrange(2) else 1)


def check_refutation(f: HomogPoly, strict: bool) -> None:
    """A refuted certificate's witness, re-checked from its definition."""
    cert = is_strictly_lorentzian(f) if strict else is_lorentzian(f)
    if cert.verdict:
        return
    alpha = cert.failing_alpha
    if cert.failing_kind == NEGATIVE_COEFFICIENT:
        if alpha is None:               # the zero polynomial is not strictly Lorentzian
            assert strict and f.is_zero()
            return
        assert cert.detail["coefficient"] == f.coeff(alpha)
        assert f.coeff(alpha) <= 0 if strict else f.coeff(alpha) < 0
    elif cert.failing_kind == SUPPORT_NOT_M_CONVEX:
        assert not strict
        a, b = cert.detail["pair"]
        i = cert.detail["index"]
        assert a == alpha and a in f.terms and b in f.terms and a[i] > b[i]
        assert not any(a[j] < b[j] and moved(a, i, j) in f.terms for j in range(f.nvars))
    else:
        assert cert.failing_kind == INERTIA_VIOLATION
        sig = char_poly_inertia(hessian(f.derive(alpha)))
        assert sig == cert.detail["inertia"]
        assert sig != Inertia(1, f.nvars - 1, 0) if strict else sig.n_plus > 1


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.sampled_from(KINDS),
       st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50))
def test_certifiers_follow_the_definition(rng, kind, s):
    f = near_boundary_input(rng, kind, s)
    assert is_lorentzian(f).verdict == lorentzian_by_definition(f), f
    assert is_strictly_lorentzian(f).verdict == strictly_lorentzian_by_definition(f), f
    check_refutation(f, strict=False)
    check_refutation(f, strict=True)


def test_near_boundary_inputs_reach_every_outcome():
    # the property test's inputs hold both verdicts of each certifier and
    # every kind of refutation, so that the agreement above is not vacuous
    rng = random.Random(64)
    seen = set()
    for k in range(600):
        s = Fraction(rng.randint(1, 2500), 50)
        f = near_boundary_input(rng, KINDS[k % len(KINDS)], s)
        for strict, cert in ((False, is_lorentzian(f)), (True, is_strictly_lorentzian(f))):
            seen.add((strict, cert.verdict, cert.failing_kind))
    assert seen >= {(False, True, None), (False, False, NEGATIVE_COEFFICIENT),
                    (False, False, SUPPORT_NOT_M_CONVEX), (False, False, INERTIA_VIOLATION),
                    (True, True, None), (True, False, NEGATIVE_COEFFICIENT),
                    (True, False, INERTIA_VIOLATION)}, seen


def test_definition_oracles_on_known_cases():
    cubic = HomogPoly(2, 3, {(3, 0): 2, (2, 1): 12, (1, 2): 18, (0, 3): 9})
    assert lorentzian_by_definition(cubic)
    assert not lorentzian_by_definition(HomogPoly(2, 3, {**cubic.terms, (0, 3): 10}))
    gap = HomogPoly(2, 2, {(2, 0): 1, (0, 2): 1})           # two positive eigenvalues
    assert not lorentzian_by_definition(gap)
    hole = HomogPoly(2, 3, {(3, 0): 1, (0, 3): 1})          # support not M-convex
    assert not lorentzian_by_definition(hole)
    strict = HomogPoly(2, 3, {(0, 3): 1, (1, 2): 10, (2, 1): 10, (3, 0): 1})
    assert strictly_lorentzian_by_definition(strict)
    assert not strictly_lorentzian_by_definition(linear_form([1, 1]) ** 2)   # singular
    assert lorentzian_by_definition(HomogPoly.zero(3, 3))
    assert not strictly_lorentzian_by_definition(HomogPoly.zero(3, 3))
