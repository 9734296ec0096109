"""Linear operators on homogeneous polynomials that preserve the Lorentzian
property, the operator symbol test, and the Nuij-type homotopy.

Polarization convention: with degree caps kappa = (k_1, ..., k_n), group i of
the lifted variables occupies the consecutive indices
offset_i, ..., offset_i + k_i - 1 with offset_i = k_1 + ... + k_{i-1}.
Projection substitutes every variable of group i back to w_i, so
project(polarize(f), kappa) == f bit-exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, product
from operator import index
from typing import Mapping, Optional, Sequence

from .mconvex import _floor_nth_root, rational_power
from .poly import (Exponent, HomogPoly, RationalLike, as_fraction, factorial_of,
                   integer_scaled, multi_affine_lifts)


def _check_caps(f: HomogPoly, kappa: Sequence[int]) -> None:
    if len(kappa) != f.nvars:
        raise ValueError(f"kappa has length {len(kappa)}, expected {f.nvars}")
    caps = f.var_degree_caps()
    for i, (c, k) in enumerate(zip(caps, kappa)):
        if c > k:
            raise ValueError(f"degree {c} in variable {i} exceeds cap {k}")


def polarize(f: HomogPoly, kappa: Sequence[int]) -> HomogPoly:
    """Multi-affine lift: w^a maps to the degree-a_i elementary symmetric
    polynomial of each group, divided by C(kappa, a)."""
    kappa = tuple(map(index, kappa))
    _check_caps(f, kappa)
    out: dict[Exponent, Fraction] = {}
    for e, c in f.terms.items():
        # the lifts of distinct monomials are distinct: each key is new
        lifts = multi_affine_lifts(kappa, e)
        out.update(dict.fromkeys(lifts, c / len(lifts)))
    return HomogPoly._of(sum(kappa), f.degree, out)


def project(g: HomogPoly, kappa: Sequence[int]) -> HomogPoly:
    """Substitute every variable of group i by w_i; inverse of polarize."""
    kappa = tuple(map(index, kappa))
    offsets = [0, *accumulate(kappa)]
    if g.nvars != offsets[-1]:
        raise ValueError(f"expected {offsets[-1]} grouped variables, got {g.nvars}")
    if not g.is_multi_affine():
        raise ValueError("projection input must be multi-affine")
    groups = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    merged: dict[Exponent, list[Fraction]] = {}
    for e, c in g.terms.items():
        merged.setdefault(tuple([sum(e[s]) for s in groups]), []).append(c)
    return HomogPoly._of(len(kappa), g.degree,
                         {key: _fraction_sum(cs) for key, cs in merged.items()})


def _fraction_sum(xs: list[Fraction]) -> Fraction:
    """The exact sum, added in integers over the lcm of the denominators."""
    if len(xs) == 1:
        return xs[0]
    den, nums = integer_scaled(xs)
    return Fraction(sum(nums), den)


def normalize(f: HomogPoly) -> HomogPoly:
    """N(w^a) = w^a / a!, extended linearly."""
    return HomogPoly._of(f.nvars, f.degree,
                         {e: c / factorial_of(e) for e, c in f.terms.items()})


def multi_affine_part(f: HomogPoly) -> HomogPoly:
    """Restrict to square-free monomials."""
    return HomogPoly._of(f.nvars, f.degree,
                         {e: c for e, c in f.terms.items() if all(k <= 1 for k in e)})


def coefficient_power(f: HomogPoly, p: RationalLike) -> tuple[HomogPoly, bool]:
    """R_p: raise every normalized coefficient to the power p in [0, 1].

    Returns (polynomial, exact).  When some c^p is irrational the powers are
    computed with 128 bits of binary precision and rationalized;
    the second component is then False so callers can label the result.
    """
    pf = as_fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError("p must lie in [0, 1]")
    terms: dict[Exponent, Fraction] = {}
    exact = True
    for e, c in f.terms.items():
        cn = c * factorial_of(e)
        if cn < 0:
            raise ValueError("coefficient power needs nonnegative coefficients")
        try:
            powered = rational_power(cn, pf) if cn != 0 else Fraction(0)
        except ValueError:
            exact = False
            powered = _approx_power(cn, pf)
        terms[e] = powered / factorial_of(e)
    return HomogPoly._of(f.nvars, f.degree, terms), exact


def _approx_power(c: Fraction, p: Fraction) -> Fraction:
    # floor((c^a * 2^(128 b))^(1/b)) / 2^128  for p = a/b in lowest terms
    a, b = p.numerator, p.denominator
    scaled = (c.numerator ** a * (1 << (b * 128))) // c.denominator ** a
    root = _floor_nth_root(scaled, b)
    return Fraction(root, 1 << 128)


def _exclusion_theta(n: int, i: int, j: int, theta: RationalLike) -> Fraction:
    """theta of an exclusion step on n variables, once theta lies in [0, 1]
    and i, j are distinct indices in [0, n)."""
    th = as_fraction(theta)
    if not 0 <= th <= 1:
        raise ValueError("theta must lie in [0, 1]")
    for name, k in (("i", i), ("j", j)):
        if not 0 <= k < n:
            raise ValueError(f"index {name}={k} out of range for n={n}")
    if i == j:
        raise ValueError("indices must be distinct")
    return th


def exclusion_step(f: HomogPoly, i: int, j: int, theta: RationalLike) -> HomogPoly:
    """(1-theta) f + theta * (f with w_i and w_j swapped), multi-affine f."""
    th = _exclusion_theta(f.nvars, i, j, theta)
    if not f.is_multi_affine():
        raise ValueError("exclusion step needs a multi-affine polynomial")
    swap = list(range(f.nvars))
    swap[i], swap[j] = j, i
    swapped = {tuple([e[k] for k in swap]): c for e, c in f.terms.items()}
    return (1 - th) * f + th * HomogPoly._of(f.nvars, f.degree, swapped)


def nuij_transform(f: HomogPoly, theta: RationalLike) -> HomogPoly:
    """Apply prod_{i<n} (1 + theta w_i d_n)^d to f, exactly.

    Sends Lorentzian polynomials with positive coefficients into the strict
    cone for every theta > 0.
    """
    th = as_fraction(theta)
    if th <= 0:
        raise ValueError("theta must be positive")
    n, d = f.nvars, f.degree
    last, terms = n - 1, f.terms
    for i in range(last):
        for _ in range(d):
            # one step adds theta w_i d_n: w^e gains theta e_n w^(e + e_i - e_n)
            out = dict(terms)
            for e, c in terms.items():
                if k := e[last]:
                    b = e[:i] + (e[i] + 1,) + e[i + 1:last] + (k - 1,)
                    out[b] = out.get(b, 0) + th * k * c
            terms = {e: c for e, c in out.items() if c}
    return HomogPoly._of(n, d, terms)


class OperatorTable:
    """Homogeneous linear operator given by its images on monomials w^a, a <= kappa.

    Missing images are zero.  Every nonzero image must be homogeneous of
    degree |a| + ell in a common number of output variables.
    """

    __slots__ = ("kappa", "ell", "nvars_out", "images")

    def __init__(self, kappa: Sequence[int], ell: int,
                 images: Mapping[Sequence[int], HomogPoly],
                 nvars_out: Optional[int] = None):
        self.kappa = tuple(map(index, kappa))
        if any(k < 0 for k in self.kappa):
            raise ValueError("kappa entries must be nonnegative")
        self.ell = index(ell)
        clean: dict[Exponent, HomogPoly] = {}
        m = nvars_out
        for e, g in images.items():
            e = tuple(map(index, e))
            if len(e) != len(self.kappa) or any(a < 0 or a > k for a, k in zip(e, self.kappa)):
                raise ValueError(f"monomial {e} is not within the cap {self.kappa}")
            if g.is_zero():
                continue
            if g.degree != sum(e) + self.ell:
                raise ValueError(
                    f"image of {e} has degree {g.degree}, expected {sum(e) + self.ell}")
            if m is None:
                m = g.nvars
            elif g.nvars != m:
                raise ValueError("images live in different numbers of variables")
            clean[e] = g
        if m is None:
            raise ValueError("operator table needs at least one nonzero image "
                             "or an explicit nvars_out")
        self.images = clean
        self.nvars_out = m


def symbol(table: OperatorTable) -> HomogPoly:
    """sym_T(w, u) = sum over a <= kappa of C(kappa, a) T(w^a) u^(kappa - a).

    Output variables are ordered (w_1..w_m, u_1..u_n); the result is
    homogeneous of degree |kappa| + ell.  Lorentzian symbols certify that the
    operator preserves Lorentzian polynomials (a sufficient condition only).
    """
    kappa = table.kappa
    n = len(kappa)
    m = table.nvars_out
    total_deg = sum(kappa) + table.ell
    out: dict[Exponent, Fraction] = {}
    for alpha in product(*(range(k + 1) for k in kappa)):
        g = table.images.get(alpha)
        if g is None:
            continue
        binom = 1
        for k, a in zip(kappa, alpha):
            binom *= math.comb(k, a)
        u_part = tuple(k - a for k, a in zip(kappa, alpha))
        for e, c in g.terms.items():
            # distinct (alpha, e) give distinct keys e + (kappa - alpha)
            out[e + u_part] = binom * c
    return HomogPoly._of(m + n, total_deg, out)


def apply_operator(table: OperatorTable, f: HomogPoly) -> HomogPoly:
    """Linear extension of the image table to f (which must respect kappa)."""
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
    return HomogPoly._of(table.nvars_out, out_deg, out)
