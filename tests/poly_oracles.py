"""Slow exact references on ``HomogPoly``, built from ``derive`` and ``eval``.

``hessian`` is the full matrix of second partials in ``Fraction``
arithmetic, the oracle for the library's quadratic Hessians, and
``support_alphas`` the alphas those are taken at; ``euler_pairing``
is the left side of Euler's identity for homogeneous polynomials;
``first_rayleigh_violation`` is the oracle for the integer c-Rayleigh scan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from lorentz.inertia import SymMatrix
from lorentz.poly import HomogPoly, RationalLike, as_fraction, unit


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
