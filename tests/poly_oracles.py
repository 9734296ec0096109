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
``nuij_by_steps`` the step-by-step body of ``operators.nuij_transform``, and
``unit(n, i)`` the exponent of w_i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, TypeVar
from unittest import mock

from lorentz.certify import _RayleighScan
from lorentz.inertia import SymMatrix
from lorentz.poly import Exponent, HomogPoly, RationalLike, as_fraction, factorial_of


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
        for g in range(len(scan._alphas)):
            if g == len(scan._groups):
                scan._compile()
            size, new, a, checks = scan._groups[g]
            for p, k in scan._steps[len(table):size]:
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
