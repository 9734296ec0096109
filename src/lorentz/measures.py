"""Discrete probability measures on {0,1}^n and their negative dependence.

A measure is a map from subsets of {0..n-1} to nonnegative rational weights
summing to one.  Its partition function Z is multi-affine; the measure is
Lorentzian when the homogenization of Z is a Lorentzian polynomial.

PNC and ULC are decided exactly by full enumeration.  The Rayleigh-type
properties quantify over a real orthant, so they are only falsified by
seeded sampling.  Z * d_ij Z <= c * d_i Z * d_j Z at w is the c-Rayleigh
check (alpha = 0, i + 1, j + 1) of the homogenized Z at (1, w), so the
sampled points run through the polynomial certifier's integer scan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .certify import (Certificate, _first_hit, _randints, _rayleigh_sides, _RayleighScan,
                      is_lorentzian)
from .matroids import _mask, _unmask
from .operators import _exclusion_theta
from .poly import HomogPoly, RationalLike, as_fraction, first_ulc_failure, integer_scaled


class Measure:
    """Probability measure on subsets of {0..n-1}: positive integer numerators
    ``nums`` ({mask: int}, gcd 1) over their sum ``den``; ``weights`` is the Fraction view."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, weights: Mapping[int, RationalLike] | Mapping[frozenset, RationalLike],
                 normalize: bool = False):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        clean: dict[int, Fraction] = {}
        for key, w in weights.items():
            mask = key if isinstance(key, int) else _mask(key, n)
            if not 0 <= mask < (1 << n):
                raise ValueError(f"subset {key} out of range for n={n}")
            w = as_fraction(w)
            if w < 0:
                raise ValueError("weights must be nonnegative")
            if w > 0:
                clean[mask] = clean.get(mask, Fraction(0)) + w
        scale, nums = integer_scaled(clean.values())
        total = sum(nums)
        if normalize and total == 0:
            raise ValueError("cannot normalize the zero measure")
        if not normalize and total != scale:
            raise ValueError(f"weights sum to {Fraction(total, scale)}, not 1 (pass normalize=True?)")
        g = math.gcd(*nums)
        self.n = n
        self.den = total // g
        self.nums = {mask: c // g for mask, c in zip(clean, nums)}

    @property
    def weights(self) -> dict[int, Fraction]:
        return {mask: Fraction(c, self.den) for mask, c in self.nums.items()}

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return (self.n, self.nums) == (other.n, other.nums)

    def __repr__(self):
        pretty = {s: str(w) for s, w in self.atoms()}
        return f"Measure({self.n}, {pretty})"

    def atoms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(_unmask(k, self.n), Fraction(c, self.den)) for k, c in sorted(self.nums.items())]


def partition_homogenized(mu: Measure) -> HomogPoly:
    """w_0^n Z(w_1/w_0, ..., w_n/w_0): degree n in n+1 variables."""
    return HomogPoly.homogenized(mu.n, mu.nums, mu.den)


def is_lorentzian_measure(mu: Measure) -> Certificate:
    return is_lorentzian(partition_homogenized(mu))


def external_field(mu: Measure, x: Sequence[RationalLike]) -> Measure:
    """Reweight by x^S and renormalize; x must be strictly positive."""
    xf = [as_fraction(v) for v in x]
    if len(xf) != mu.n:
        raise ValueError("field has wrong length")
    if any(v <= 0 for v in xf):
        raise ValueError("external field must be strictly positive")
    scaled = {mask: c * math.prod(xf[i] for i in _unmask(mask, mu.n))
              for mask, c in mu.nums.items()}
    return Measure(mu.n, scaled, normalize=True)


def exclusion_evolution(mu: Measure, i: int, j: int, theta: RationalLike) -> Measure:
    """Measure whose partition function is (1-theta) Z + theta (Z with i, j swapped)."""
    p, q = _exclusion_theta(mu.n, i, j, theta).as_integer_ratio()
    out: dict[int, int] = {}
    for mask, c in mu.nums.items():
        bit_i, bit_j = mask >> i & 1, mask >> j & 1
        swapped = mask & ~((1 << i) | (1 << j))
        if bit_i:
            swapped |= 1 << j
        if bit_j:
            swapped |= 1 << i
        out[mask] = out.get(mask, 0) + (q - p) * c
        out[swapped] = out.get(swapped, 0) + p * c
    return Measure(mu.n, out, normalize=True)


def rank_sequence(mu: Measure) -> list[Fraction]:
    """mu(|S| = k) for k = 0..n."""
    out = [0] * (mu.n + 1)
    for mask, c in mu.nums.items():
        out[mask.bit_count()] += c
    return [Fraction(c, mu.den) for c in out]


def pairwise_bound_failures(mu: Measure, c: RationalLike) -> list[tuple[int, int]]:
    """Pairs (i, j) with Pr(i and j) > c Pr(i) Pr(j), decided exactly."""
    return _pair_failures(mu, [as_fraction(c)])[0]


def _pair_failures(mu: Measure, cs: Sequence[Fraction]) -> list[list[tuple[int, int]]]:
    """``pairwise_bound_failures`` at each c of ``cs``, from one pass over the
    atoms in integers: s_i = den Pr(i) and p_ij = den Pr(i and j) for the
    numerators over den, and the bound fails iff p_ij den > c s_i s_j."""
    n = mu.n
    singles, joint = [0] * n, [[0] * n for _ in range(n)]
    for mask, a in mu.nums.items():
        bits = [i for i in range(n) if mask >> i & 1]
        for x, i in enumerate(bits):
            singles[i] += a
            for j in bits[x + 1:]:
                joint[i][j] += a
    return [[(i, j) for i in range(n) for j in range(i + 1, n)
             if joint[i][j] * mu.den * c.denominator > c.numerator * singles[i] * singles[j]]
            for c in cs]


@dataclass(frozen=True)
class MeasureRayleighWitness:
    i: int
    j: int
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class NegativeDependenceReport:
    pnc_holds: bool
    pnc_failures: tuple[tuple[int, int], ...]
    pairwise_c: Fraction
    pairwise_holds: bool
    pairwise_failures: tuple[tuple[int, int], ...]
    ulc_holds: bool
    ulc_failing_k: Optional[int]
    c_rayleigh_witness: Optional[MeasureRayleighWitness]
    strongly_rayleigh_witness: Optional[MeasureRayleighWitness]
    trials: int
    seed: int


def _rayleigh_scan(f: HomogPoly, scan: _RayleighScan, c: Fraction, trials: int, seed: int,
                   signed: bool) -> Optional[MeasureRayleighWitness]:
    """The first of ``trials`` seeded points w where Z * d_ij Z > c * d_i Z * d_j Z,
    with its witness, or None; f is the homogenized Z and ``scan`` its checks."""
    rng = random.Random(seed)
    n = f.nvars - 1
    # Z and its partials at w are those of f at (1, w), whose variable k + 1
    # is w_k: the numerators of w, then its denominators
    points = (([1] + _randints(rng, -10 if signed else 1, 10, n), [1] + _randints(rng, 1, 10, n))
              for _ in range(trials))
    if (hit := _first_hit(scan, c, points)) is None:
        return None
    w, (alpha, i, j) = hit
    return MeasureRayleighWitness(i - 1, j - 1, w[1:], *_rayleigh_sides(f, c, alpha, i, j, w))


def negative_dependence_report(mu: Measure, c: RationalLike = 2,
                               trials: int = 1000, seed: int = 0) -> NegativeDependenceReport:
    """Exact PNC and ULC checks plus seeded Rayleigh falsification.

    PNC and the pairwise c-bound are decided exactly from marginals; ULC is
    decided exactly from the rank sequence.  One scan of the homogenized Z
    serves two samplings: at c over the positive orthant (c-Rayleigh) and at
    1 over signed points (strongly Rayleigh).  A Lorentzian Z of degree n >= 2
    is 2(1 - 1/n)-Rayleigh (Brändén-Huh, arXiv:1902.03719), so at c >= 2(1 -
    1/n) it draws no point.  A None witness falsifies nothing.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    cf = as_fraction(c)
    pnc_fail, pair_fail = map(tuple, _pair_failures(mu, [Fraction(1), cf]))
    ulc_k = first_ulc_failure(rank_sequence(mu), mu.n)
    f = partition_homogenized(mu)
    n = mu.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    scan = _RayleighScan(f.nums, [((0,) * (n + 1), pairs)] if pairs else [])
    covered = n >= 2 and cf >= 2 - Fraction(2, n) and is_lorentzian(f)
    cr = None if covered else _rayleigh_scan(f, scan, cf, trials, seed, signed=False)
    sr = _rayleigh_scan(f, scan, Fraction(1), trials, seed + 1, signed=True)
    return NegativeDependenceReport(
        pnc_holds=not pnc_fail, pnc_failures=pnc_fail,
        pairwise_c=cf, pairwise_holds=not pair_fail, pairwise_failures=pair_fail,
        ulc_holds=ulc_k is None, ulc_failing_k=ulc_k,
        c_rayleigh_witness=cr, strongly_rayleigh_witness=sr,
        trials=trials, seed=seed)
