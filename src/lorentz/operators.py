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
from itertools import compress
from operator import index
from typing import Mapping, Optional, Sequence

from .mconvex import _floor_nth_root, rational_power
from .poly import (Exponent, HomogPoly, RationalLike, as_fraction, code_weights,
                   factorial_of, multi_affine_lifts)


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
    parts = []
    for e, c in f.nums.items():
        lifts = multi_affine_lifts(kappa, e)
        den = f.den * len(lifts)
        parts += [(lift, c, den) for lift in lifts]
    return HomogPoly._summed(sum(kappa), f.degree, parts)


def project(g: HomogPoly, kappa: Sequence[int]) -> HomogPoly:
    """Substitute every variable of group i by w_i; inverse of polarize."""
    kappa = tuple(map(index, kappa))
    if min(kappa, default=0) < 0:
        raise ValueError("kappa entries must be nonnegative")
    if g.nvars != sum(kappa):
        raise ValueError(f"expected {sum(kappa)} grouped variables, got {g.nvars}")
    if not g.is_multi_affine():
        raise ValueError("projection input must be multi-affine")
    # a lifted variable weighs its group's code weight, so a 0/1 term's code is its image's
    weights, base = code_weights(len(kappa), g.degree), g.degree + 1
    lifted = [w for w, k in zip(weights, kappa) for _ in range(k)]
    merged: dict[int, int] = {}
    for e, c in g.nums.items():
        code = sum(compress(lifted, e))
        merged[code] = merged.get(code, 0) + c
    return HomogPoly._of(len(kappa), g.degree,
                         {tuple([code // w % base for w in weights]): c
                          for code, c in merged.items()}, g.den)


def normalize(f: HomogPoly) -> HomogPoly:
    """N(w^a) = w^a / a!, extended linearly."""
    return HomogPoly._summed(f.nvars, f.degree,
                             [(e, c, f.den * factorial_of(e)) for e, c in f.nums.items()])


def multi_affine_part(f: HomogPoly) -> HomogPoly:
    """Restrict to square-free monomials."""
    return HomogPoly._of(f.nvars, f.degree,
                         {e: c for e, c in f.nums.items() if all(k <= 1 for k in e)}, f.den)


def coefficient_power(f: HomogPoly, p: RationalLike) -> tuple[HomogPoly, bool]:
    """R_p: raise every normalized coefficient to the power p in [0, 1].

    Returns (polynomial, exact).  When some c^p is irrational the powers are
    computed with 128 bits of binary precision and rationalized;
    the second component is then False so callers can label the result.
    """
    pf = as_fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError("p must lie in [0, 1]")
    parts, exact = [], True
    for e, a in f.nums.items():
        if a < 0:
            raise ValueError("coefficient power needs nonnegative coefficients")
        cn = Fraction(a * factorial_of(e), f.den)
        try:
            powered = rational_power(cn, pf)
        except ValueError:
            exact = False
            powered = _approx_power(cn, pf)
        parts.append((e, powered.numerator, powered.denominator * factorial_of(e)))
    return HomogPoly._summed(f.nvars, f.degree, parts), exact


def _approx_power(c: Fraction, p: Fraction) -> Fraction:
    # floor((c^a * 2^(128 b))^(1/b)) / 2^128  for p = a/b in lowest terms
    a, b = p.numerator, p.denominator
    if b > 10_000:      # the root's cost grows fast with b (README: scale and honesty)
        raise ValueError("an inexact power needs the denominator of p to be at most 10000")
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
    swapped = {tuple([e[k] for k in swap]): c for e, c in f.nums.items()}
    return (1 - th) * f + th * HomogPoly._of(f.nvars, f.degree, swapped, f.den)


def nuij_transform(f: HomogPoly, theta: RationalLike) -> HomogPoly:
    """Apply prod_{i<n} (1 + theta w_i d_n)^d to f, exactly.

    Sends Lorentzian polynomials with positive coefficients into the strict
    cone for every theta > 0.
    """
    p, q = as_fraction(theta).as_integer_ratio()
    if p <= 0:
        raise ValueError("theta must be positive")
    n, d = f.nvars, f.degree
    last, nums, den = n - 1, f.nums, f.den
    for i in range(last):
        for _ in range(d):
            # one step adds theta w_i d_n: w^e gains theta e_n w^(e + e_i - e_n), over q den
            out = {e: q * c for e, c in nums.items()}
            for e, c in nums.items():
                if k := e[last]:
                    b = e[:i] + (e[i] + 1,) + e[i + 1:last] + (k - 1,)
                    out[b] = out.get(b, 0) + p * k * c
            nums = {e: c for e, c in out.items() if c}
            den *= q
    return HomogPoly._of(n, d, nums, den)


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

    def __eq__(self, other):
        if not isinstance(other, OperatorTable):
            return NotImplemented
        return (self.kappa, self.ell, self.nvars_out, self.images) == \
               (other.kappa, other.ell, other.nvars_out, other.images)


def symbol(table: OperatorTable) -> HomogPoly:
    """sym_T(w, u) = sum over a <= kappa of C(kappa, a) T(w^a) u^(kappa - a).

    Output variables are ordered (w_1..w_m, u_1..u_n); the result is
    homogeneous of degree |kappa| + ell.  Lorentzian symbols certify that the
    operator preserves Lorentzian polynomials (a sufficient condition only).
    """
    kappa = table.kappa
    parts = []
    for alpha, g in table.images.items():
        binom = math.prod(map(math.comb, kappa, alpha))
        u_part = tuple(k - a for k, a in zip(kappa, alpha))
        parts += [(e + u_part, binom * c, g.den) for e, c in g.nums.items()]
    return HomogPoly._summed(table.nvars_out + len(kappa), sum(kappa) + table.ell, parts)


def apply_operator(table: OperatorTable, f: HomogPoly) -> HomogPoly:
    """Linear extension of the image table to f (which must respect kappa)."""
    _check_caps(f, table.kappa)
    out_deg = f.degree + table.ell
    if out_deg < 0:
        return HomogPoly.zero(table.nvars_out, 0)
    parts = []
    for e, c in f.nums.items():
        if (g := table.images.get(e)) is not None:
            den = f.den * g.den
            parts += [(x, c * v, den) for x, v in g.nums.items()]
    return HomogPoly._summed(table.nvars_out, out_deg, parts)
