"""Slow exact references on ``HomogPoly``, built from ``derive`` and ``eval``.

``hessian`` is the full matrix of second partials in ``Fraction``
arithmetic, the oracle for the library's quadratic Hessians, and
``support_alphas`` the alphas those are taken at; ``euler_pairing``
is the left side of Euler's identity for homogeneous polynomials;
``first_rayleigh_violation`` is the oracle for the integer c-Rayleigh scan,
and ``pointwise_first_violation`` runs that scan's compiled checks one point
at a time, the reference for its column batches (``pointwise`` swaps it in);
``normalized_coeff``, ``directional_derive`` and ``bivariate_restriction``
are views the tests state their expectations in.  ``linear_form`` and
``substitute`` build the test polynomials f(Av), and ``log_concavity_probe``
is a float cross-check of the exact inertia verdicts.  ``first_bad_exponent``
is the per-exponent loop that ``poly.check_exponents`` must agree with,
``nuij_by_steps`` the step-by-step body of ``operators.nuij_transform``,
``lifts_by_groups`` and ``project_by_slices`` the group-by-group bodies of
``poly.multi_affine_lifts`` and ``operators.project``, and ``unit(n, i)`` the
exponent of w_i.  ``add``, ``multiply``, ``derive``, ``evaluate``,
``polarize``, ``normalize``, ``symbol`` and ``apply_operator`` are the
``Fraction`` bodies those operations had before ``HomogPoly`` kept integer
numerators over one denominator, the references for the integer ones.  ``lorentzian_by_definition`` and
``strictly_lorentzian_by_definition`` follow Brändén-Huh's recursive
definitions, with ``exchange_holds`` the exchange axiom on every pair and
Faddeev-LeVerrier for the quadratics' inertias.  ``rank`` and ``rank_mask``
scan a matroid's basis list, the reference for its rank table, and
``marginal`` and ``pair_marginal`` sum a measure's atoms pair by pair, the
reference for the one pass of ``measures.pairwise_bound_failures``.
``external_field``, ``exclusion_evolution`` and ``rank_sequence`` are the
``Fraction`` bodies those had before ``Measure`` kept integer numerators
over their sum, the references for the integer ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, product, repeat
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, TypeVar
from unittest import mock

from lorentz.certify import _RayleighScan
from lorentz.inertia import Inertia, SymMatrix
from lorentz.matroids import Matroid, _mask
from lorentz.measures import Measure
from lorentz.operators import OperatorTable, _check_caps, _exclusion_theta
from lorentz.poly import (Exponent, HomogPoly, RationalLike, _ones, as_fraction,
                          factorial_of, multi_affine_lifts, simplex)

from faddeev_leverrier import char_poly_inertia


def unit(n: int, i: int) -> Exponent:
    """The exponent of w_i in n variables."""
    e = [0] * n
    e[i] = 1
    return tuple(e)


def hessian(f: HomogPoly, at: Sequence[RationalLike] | None = None) -> SymMatrix:
    """Exact symmetric matrix (d_i d_j f), evaluated at ``at`` if degree > 2.

    Degree-2 polynomials have a constant Hessian and ``at`` may be omitted.
    """
    if f.degree < 2:
        raise ValueError("Hessian needs degree >= 2")
    if f.degree > 2 and at is None:
        raise ValueError("evaluation point required for degree > 2")
    n = f.nvars
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            g = f.derive(tuple((1 if k == i else 0) + (1 if k == j else 0)
                               for k in range(n)))
            row.append(g.eval(at) if at is not None else
                       g.terms.get((0,) * n, Fraction(0)))
        rows.append(row)
    return SymMatrix(rows)


def support_alphas(f: HomogPoly) -> list[tuple[int, ...]]:
    """The alphas with |alpha| = d-2 and d^alpha f nonzero, sorted: the
    e - e_i - e_j for the exponents e of f."""
    top: set[tuple[int, ...]] = set()
    for e in f.terms:
        nonzero = [i for i, k in enumerate(e) if k]
        for x, i in enumerate(nonzero):
            for j in nonzero[x:]:
                a = list(e)
                a[i] -= 1
                a[j] -= 1
                if a[i] >= 0:       # i == j needs e_i >= 2
                    top.add(tuple(a))
    return sorted(top)


def euler_pairing(p: HomogPoly, w: Sequence[RationalLike]) -> Fraction:
    """sum_i w_i * (d_i p)(w); equals degree * p(w) by Euler's identity."""
    wf = [as_fraction(x) for x in w]
    total = Fraction(0)
    for i, x in enumerate(wf):
        total += x * p.derive(unit(p.nvars, i)).eval(wf)
    return total


def first_rayleigh_violation(f: HomogPoly, c: RationalLike,
                             points: Iterable[Sequence[RationalLike]],
                             checks: Sequence[tuple[tuple[int, ...], int, int]]
                             ) -> Optional[tuple[tuple[int, ...], int, int, tuple[Fraction, ...]]]:
    """The first (alpha, i, j, w), over the points w and then the checks in
    order, with d^alpha f * d^(alpha+e_i+e_j) f > c * d^(alpha+e_i) f * d^(alpha+e_j) f
    at w in Fractions, or None."""
    cf = as_fraction(c)
    derived: dict[tuple[int, ...], HomogPoly] = {}
    for w in points:
        wf = tuple(as_fraction(x) for x in w)
        values: dict[tuple[int, ...], Fraction] = {}

        def at(alpha, *ks):
            beta = tuple(a + ks.count(k) for k, a in enumerate(alpha))
            if beta not in values:
                if sum(beta) > f.degree:
                    values[beta] = Fraction(0)  # derive raises above the degree
                else:
                    if beta not in derived:
                        derived[beta] = f.derive(beta)
                    values[beta] = derived[beta].eval(wf)
            return values[beta]

        for alpha, i, j in checks:
            if at(alpha) * at(alpha, i, j) > cf * at(alpha, i) * at(alpha, j):
                return alpha, i, j, wf
    return None


def pointwise_first_violation(scan, c: Fraction, us: Sequence[Sequence[int]]
                               ) -> Optional[tuple[int, tuple[tuple[int, ...], int, int]]]:
    """``_RayleighScan.first_violation`` one point at a time: (x, check) for
    the first integer point ``us[x]`` at which a compiled check of ``scan``
    fails and the first check failing there, or None.  Each point fills the
    table and the values one alpha at a time, with plain integers."""
    num, den = c.numerator, c.denominator
    for x, u in enumerate(us):
        table, values = [1], [0]
        for g in count():
            if g == len(scan._groups) and not scan._compile():
                break
            size, new, a, checks = scan._groups[g]
            for p, k in scan._table.steps[len(table):size]:
                table.append(table[p] * u[k])
            values += [sum(map(mul, coefs or repeat(1), map(table.__getitem__, entries)))
                       for coefs, entries in new]
            for ai, aj, aij, check in checks:
                if values[a] * values[aij] * den > num * values[ai] * values[aj]:
                    return x, check
    return None


T = TypeVar("T")


def pointwise(call: Callable[[], T]) -> T:
    """call() with every ``_RayleighScan`` checking one point at a time."""
    with mock.patch.object(_RayleighScan, "first_violation", pointwise_first_violation):
        return call()


def normalized_coeff(f: HomogPoly, e: Sequence[int]) -> Fraction:
    """c_e = e! * (raw coefficient of w^e)."""
    e = tuple(e)
    return f.terms.get(e, Fraction(0)) * factorial_of(e)


def directional_derive(f: HomogPoly, a: Sequence[RationalLike]) -> HomogPoly:
    """sum_i a_i d_i f for a nonnegative direction a."""
    if len(a) != f.nvars:
        raise ValueError("direction has wrong length")
    af = [as_fraction(x) for x in a]
    if any(x < 0 for x in af):
        raise ValueError("negative entry in direction")
    if f.degree == 0:
        raise ValueError("cannot differentiate a degree-0 polynomial")
    out = HomogPoly.zero(f.nvars, f.degree - 1)
    for i, x in enumerate(af):
        if x:
            out = out + x * f.derive(unit(f.nvars, i))
    return out


def bivariate_restriction(f: HomogPoly, i: int, j: int) -> list[Fraction]:
    """Coefficients a_k of f(0,..,w_i,..,w_j,..,0) = sum a_k w_i^k w_j^(d-k).

    Only keeps terms supported on the variables i and j.
    """
    out = [Fraction(0)] * (f.degree + 1)
    for e, c in f.terms.items():
        if all(k == 0 for idx, k in enumerate(e) if idx not in (i, j)):
            out[e[i]] += c
    return out


def first_bad_exponent(exps: Iterable[Sequence[int]], n: int, d: int) -> Optional[str]:
    """The message for the first exponent, in order, of length other than n,
    with a negative entry or of sum other than d; None when there is none."""
    for e in exps:
        if len(e) != n:
            return f"exponent {e} has length {len(e)}, expected {n}"
        if any(k < 0 for k in e):
            return f"negative exponent in {e}"
        if sum(e) != d:
            return f"exponent {e} has degree {sum(e)}, expected {d}"
    return None


def nuij_by_steps(f: HomogPoly, theta: RationalLike) -> HomogPoly:
    """prod_{i<n} (1 + theta w_i d_n)^d f, one ``derive``, one checked
    ``HomogPoly`` and one whole-polynomial sum per factor."""
    th = as_fraction(theta)
    n, d = f.nvars, f.degree
    if n == 0:
        return f
    last = n - 1
    out = f
    for i in range(n - 1):
        for _ in range(d):
            bumped = out.derive(unit(n, last))
            shifted = {tuple(e[:i] + (e[i] + 1,) + e[i + 1:]): th * c
                       for e, c in bumped.terms.items()}
            out = out + HomogPoly(n, d, shifted)
    return out


def lifts_by_groups(kappa: Sequence[int], e: Exponent) -> list[Exponent]:
    """``poly.multi_affine_lifts`` with every lift extended group by group."""
    lifts = [()]
    for k, a in zip(kappa, e):
        lifts = [lift + part for lift in lifts for part in _ones(k, a)]
    return lifts


def project_by_slices(g: HomogPoly, kappa: Sequence[int]) -> HomogPoly:
    """``operators.project`` with one slice and one sum per group of every term."""
    offsets = [0, *accumulate(kappa)]
    if g.nvars != offsets[-1]:
        raise ValueError(f"expected {offsets[-1]} grouped variables, got {g.nvars}")
    if not g.is_multi_affine():
        raise ValueError("projection input must be multi-affine")
    groups = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    merged: dict[Exponent, Fraction] = {}
    for e, c in g.terms.items():
        key = tuple([sum(e[s]) for s in groups])
        merged[key] = merged.get(key, 0) + c
    return HomogPoly(len(kappa), g.degree, merged)


def linear_form(coeffs: Sequence[RationalLike]) -> HomogPoly:
    """sum_i coeffs[i] w_i."""
    n = len(coeffs)
    return HomogPoly(n, 1, {unit(n, i): c for i, c in enumerate(coeffs)})


def substitute(f: HomogPoly, rows: Sequence[Sequence[RationalLike]]) -> HomogPoly:
    """f(Av) for a nonnegative nvars-x-m matrix A, exact expansion."""
    if len(rows) != f.nvars:
        raise ValueError(f"matrix has {len(rows)} rows, expected {f.nvars}")
    a = [[as_fraction(x) for x in row] for row in rows]
    if a:
        m = len(a[0])
        if any(len(row) != m for row in a):
            raise ValueError("ragged matrix")
    else:
        m = 0
    for row in a:
        for x in row:
            if x < 0:
                raise ValueError("negative entry in substitution matrix")
    forms = [linear_form(row) for row in a]
    # cache powers of each row form up to its needed exponent
    caps = f.var_degree_caps()
    powers: list[list[HomogPoly]] = []
    for i, form in enumerate(forms):
        p = [HomogPoly(m, 0, {(0,) * m: 1})]
        for _ in range(caps[i]):
            p.append(p[-1] * form)
        powers.append(p)
    out = HomogPoly.zero(m, f.degree)
    for e, c in f.terms.items():
        mono = HomogPoly(m, 0, {(0,) * m: c})
        for i, k in enumerate(e):
            if k:
                mono = mono * powers[i][k]
        out = out + mono
    return out


def log_concavity_probe(f: HomogPoly, w: Sequence[RationalLike],
                        v: Sequence[RationalLike]) -> bool:
    """Float check that log f is concave along the segment w + t*v.

    Second differences of log f at 17 evenly spaced interior nodes must not
    exceed 1e-9 (relative, once |log f| exceeds 1).  The step size keeps every
    probed point inside the open positive orthant.  This is a numeric
    cross-check of the exact inertia verdict, not a certificate.
    """
    wf = [as_fraction(x) for x in w]
    vf = [as_fraction(x) for x in v]
    if f.eval(wf) <= 0:
        raise ValueError("need f(w) > 0")
    if all(x == 0 for x in vf):
        return True
    # largest |t| such that w + t*v stays strictly positive, with margin
    bound = None
    for wi, vi in zip(wf, vf):
        if vi != 0:
            b = wi / abs(vi)
            bound = b if bound is None else min(bound, b)
    logs = []
    for k in range(-9, 10):
        t = Fraction(k) * Fraction(bound) / 18
        val = f.eval([wi + t * vi for wi, vi in zip(wf, vf)])
        if val <= 0:
            return False
        logs.append(math.log(val))
    for k in range(1, len(logs) - 1):
        if logs[k + 1] - 2 * logs[k] + logs[k - 1] > 1e-9 * max(1.0, abs(logs[k])):
            return False
    return True


def moved(p: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """p - e_i + e_j."""
    return tuple(k - (m == i) + (m == j) for m, k in enumerate(p))


def exchange_holds(points: Iterable[Sequence[int]]) -> bool:
    """The exchange axiom of M-convex sets, tried on every pair: for alpha,
    beta in the set and alpha_i > beta_i, some j with alpha_j < beta_j puts
    alpha - e_i + e_j in the set."""
    pts = {tuple(p) for p in points}
    return all(any(a[j] < b[j] and moved(a, i, j) in pts for j in range(len(a)))
               for a in pts for b in pts for i in range(len(a)) if a[i] > b[i])


def lorentzian_by_definition(f: HomogPoly) -> bool:
    """Nonnegative coefficients, and: degree <= 1; or a quadratic whose Hessian
    has at most one positive eigenvalue; or an M-convex support and every
    d_i f Lorentzian."""
    if any(c < 0 for c in f.terms.values()):
        return False
    if f.degree <= 1:
        return True
    if f.degree == 2:
        return char_poly_inertia(hessian(f)).n_plus <= 1
    return exchange_holds(f.terms) and all(
        lorentzian_by_definition(f.derive(unit(f.nvars, i))) for i in range(f.nvars))


def strictly_lorentzian_by_definition(f: HomogPoly) -> bool:
    """Every coefficient of degree d positive, and: degree <= 1; or a quadratic
    whose Hessian is nonsingular with one positive eigenvalue; or every d_i f
    strictly Lorentzian."""
    n = f.nvars
    if any(f.coeff(e) <= 0 for e in simplex(n, f.degree)):
        return False
    if f.degree <= 1:
        return True
    if f.degree == 2:
        return char_poly_inertia(hessian(f)) == Inertia(1, n - 1, 0)
    return all(strictly_lorentzian_by_definition(f.derive(unit(n, i))) for i in range(n))


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """rk(A) = max over bases B of |A and B|."""
    return rank_mask(m, _mask(subset, m.n))


def rank_mask(m: Matroid, mask: int) -> int:
    return max(bin(mask & b).count("1") for b in m.bases)


def marginal(mu: Measure, i: int) -> Fraction:
    """Pr(i), one Fraction sum over the atoms."""
    return sum((w for mask, w in mu.weights.items() if mask >> i & 1), Fraction(0))


def pair_marginal(mu: Measure, i: int, j: int) -> Fraction:
    """Pr(i and j), one Fraction sum over the atoms."""
    want = (1 << i) | (1 << j)
    return sum((w for mask, w in mu.weights.items() if mask & want == want), Fraction(0))


def external_field(mu: Measure, x: Sequence[RationalLike]) -> Measure:
    """Each weight times x^S, then all divided by their total, in Fractions."""
    xf = [as_fraction(v) for v in x]
    if len(xf) != mu.n:
        raise ValueError("field has wrong length")
    if any(v <= 0 for v in xf):
        raise ValueError("external field must be strictly positive")
    scaled = {}
    for mask, w in mu.weights.items():
        factor = Fraction(1)
        for i in range(mu.n):
            if mask >> i & 1:
                factor *= xf[i]
        scaled[mask] = w * factor
    total = sum(scaled.values())
    if total == 0:
        raise ValueError("partition function vanished")
    return Measure(mu.n, {k: w / total for k, w in scaled.items()})


def exclusion_evolution(mu: Measure, i: int, j: int, theta: RationalLike) -> Measure:
    """(1 - theta) of each weight kept, theta of it moved to the set with i and j swapped."""
    th = _exclusion_theta(mu.n, i, j, theta)
    out: dict[int, Fraction] = {}
    for mask, w in mu.weights.items():
        bit_i, bit_j = mask >> i & 1, mask >> j & 1
        swapped = mask & ~((1 << i) | (1 << j))
        if bit_i:
            swapped |= 1 << j
        if bit_j:
            swapped |= 1 << i
        out[mask] = out.get(mask, Fraction(0)) + (1 - th) * w
        out[swapped] = out.get(swapped, Fraction(0)) + th * w
    return Measure(mu.n, out)


def rank_sequence(mu: Measure) -> list[Fraction]:
    """mu(|S| = k) for k = 0..n, one Fraction sum per atom."""
    out = [Fraction(0)] * (mu.n + 1)
    for mask, w in mu.weights.items():
        out[bin(mask).count("1")] += w
    return out


# -- Fraction references for the integer-numerator operations -----------------

def add(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """f + g, one Fraction sum per shared exponent."""
    out = dict(f.terms)
    for e, c in g.terms.items():
        out[e] = out.get(e, 0) + c
    return HomogPoly(f.nvars, f.degree, out)


def multiply(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """f * g, one Fraction product per pair of terms."""
    out: dict[Exponent, Fraction] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return HomogPoly(f.nvars, f.degree + g.degree, out)


def derive(f: HomogPoly, alpha: Sequence[int]) -> HomogPoly:
    """d^alpha f, each term times its falling factorials."""
    out = {}
    for e, c in f.terms.items():
        mult = math.prod(math.perm(k, a) for k, a in zip(e, alpha))
        if mult:
            out[tuple(k - a for k, a in zip(e, alpha))] = c * mult
    return HomogPoly(f.nvars, f.degree - sum(alpha), out)


def evaluate(f: HomogPoly, w: Sequence[RationalLike]) -> Fraction:
    """f(w), term by term in Fractions."""
    wf = [as_fraction(x) for x in w]
    total = Fraction(0)
    for e, c in f.terms.items():
        term = c
        for x, k in zip(wf, e):
            if k:
                term *= x ** k
        total += term
    return total


def polarize(f: HomogPoly, kappa: Sequence[int]) -> HomogPoly:
    """Each term's coefficient shared equally by its multi-affine lifts."""
    _check_caps(f, kappa)
    out: dict[Exponent, Fraction] = {}
    for e, c in f.terms.items():
        lifts = multi_affine_lifts(kappa, e)
        out.update(dict.fromkeys(lifts, c / len(lifts)))
    return HomogPoly(sum(kappa), f.degree, out)


def normalize(f: HomogPoly) -> HomogPoly:
    """w^a / a! for each term w^a."""
    return HomogPoly(f.nvars, f.degree, {e: c / factorial_of(e) for e, c in f.terms.items()})


def symbol(table: OperatorTable) -> HomogPoly:
    """sum over a <= kappa of C(kappa, a) T(w^a) u^(kappa - a), in Fractions."""
    kappa = table.kappa
    out: dict[Exponent, Fraction] = {}
    for alpha in product(*(range(k + 1) for k in kappa)):
        g = table.images.get(alpha)
        if g is None:
            continue
        binom = math.prod(math.comb(k, a) for k, a in zip(kappa, alpha))
        u_part = tuple(k - a for k, a in zip(kappa, alpha))
        for e, c in g.terms.items():
            out[e + u_part] = binom * c
    return HomogPoly(table.nvars_out + len(kappa), sum(kappa) + table.ell, out)


def apply_operator(table: OperatorTable, f: HomogPoly) -> HomogPoly:
    """sum over the terms c w^e of f of c T(w^e), in Fractions."""
    _check_caps(f, table.kappa)
    out_deg = f.degree + table.ell
    if out_deg < 0:
        return HomogPoly.zero(table.nvars_out, 0)
    out: dict[Exponent, Fraction] = {}
    for e, c in f.terms.items():
        g = table.images.get(e)
        if g is not None:
            for x, v in g.terms.items():
                out[x] = out.get(x, 0) + c * v
    return HomogPoly(table.nvars_out, out_deg, out)
