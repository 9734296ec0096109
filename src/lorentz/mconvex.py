"""M-convex sets and discrete functions, and their generating polynomials.

A point set lives in the discrete simplex of degree-d exponent vectors.
A discrete function maps exponent vectors to rationals; points absent from
``values`` are at +infinity (never a numeric sentinel).

The exchange property used for sets: for all alpha, beta in J and every i
with alpha_i > beta_i there is j with alpha_j < beta_j and
alpha - e_i + e_j in J.  For functions with M-convex domain, the local
exchange property over pairs at l1-distance 4 is checked, which is
equivalent to the full symmetric exchange property.

Both checks find a point by its integer code (``poly.code_weights``), so that
alpha - e_i + e_j (alpha_i > 0) is found from code(alpha) by one sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import index, mul, or_
from typing import Iterable, Mapping, Optional, Sequence

from .poly import (Exponent, HomogPoly, RationalLike, as_fraction, check_exponents,
                   code_weights, factorial_of, integer_scaled, multi_affine_lifts, simplex)

SetWitness = tuple[Exponent, Exponent, int]
FnWitness = tuple[Exponent, Exponent]


def _check_sizes(nvars: int, degree: int) -> None:
    for name, size in (("nvars", nvars), ("degree", degree)):
        if index(size) < 0:
            raise ValueError(f"{name} must be nonnegative, got {size}")


class PointSet:
    """Finite subset of the degree-d discrete simplex in n variables."""

    __slots__ = ("nvars", "degree", "points")

    def __init__(self, nvars: int, degree: int, points: Iterable[Sequence[int]]):
        _check_sizes(nvars, degree)
        pts = [tuple(map(index, p)) for p in points]
        check_exponents(pts, nvars, degree)
        self.nvars = nvars
        self.degree = degree
        self.points = frozenset(pts)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.nvars, self.degree, self.points) == \
               (other.nvars, other.degree, other.points)

    def __repr__(self):
        return f"PointSet({self.nvars}, {self.degree}, {sorted(self.points)})"


class DiscreteFunction:
    """Map from the discrete simplex to rationals; absent points are +infinity."""

    __slots__ = ("nvars", "degree", "values")

    def __init__(self, nvars: int, degree: int,
                 values: Mapping[Sequence[int], RationalLike]):
        _check_sizes(nvars, degree)
        pts = [tuple(map(index, p)) for p in values]
        check_exponents(pts, nvars, degree)
        self.nvars = nvars
        self.degree = degree
        self.values = dict(zip(pts, map(as_fraction, values.values())))

    def domain(self) -> PointSet:
        return PointSet(self.nvars, self.degree, self.values.keys())

    def __eq__(self, other):
        if not isinstance(other, DiscreteFunction):
            return NotImplemented
        return (self.nvars, self.degree, self.values) == \
               (other.nvars, other.degree, other.values)

    def __repr__(self):
        return f"DiscreteFunction({self.nvars}, {self.degree}, {self.values!r})"


def is_m_convex_set(ps: PointSet) -> tuple[bool, Optional[SetWitness]]:
    """Exchange property check; the empty set counts as M-convex.

    On failure returns the violating (alpha, beta, i) that a loop over alpha,
    then beta, then i, each in the set's iteration order, meets first.
    """
    w = code_weights(ps.nvars, ps.degree)
    codes = {sum(map(mul, p, w)): p for p in ps.points}
    order = list(codes.values())
    # below[j][v]: the points beta with beta_j < v, as a bitset over order
    below = [[0] * (ps.degree + 2) for _ in w]
    for k, beta in enumerate(order):
        for row, v in zip(below, beta):
            row[v + 1] |= 1 << k
    below = [list(accumulate(row, or_)) for row in below]
    for code, alpha in codes.items():
        # bad[i]: the beta with beta_i < alpha_i and beta_j <= alpha_j for every
        # j with alpha - e_i + e_j in the set, so that no j repairs (alpha, beta, i)
        caps = [row[v + 1] for row, v in zip(below, alpha)]
        bad = [0] * len(w)
        for i, wi in enumerate(w):
            if alpha[i]:
                b = below[i][alpha[i]]
                for wj, cap in zip(w, caps):
                    if b and code - wi + wj in codes:
                        b &= cap
                bad[i] = b
        # the first beta in order, then the first i, as the pair loop meets them
        k = min(((b & -b).bit_length() - 1 for b in bad if b), default=None)
        if k is not None:
            return False, (alpha, order[k], next(i for i, b in enumerate(bad) if b >> k & 1))
    return True, None


def is_matroid_basis_family(ps: PointSet) -> tuple[bool, Optional[SetWitness]]:
    """Nonempty 0/1 point set with the exchange property."""
    for p in ps.points:
        if any(k not in (0, 1) for k in p):
            raise ValueError(f"point {p} is not a 0/1 vector")
    if not ps.points:
        return False, None
    return is_m_convex_set(ps)


def is_m_convex_function(nu: DiscreteFunction) -> tuple[bool, Optional[FnWitness]]:
    """M-convexity of a discrete function.

    Checks that the effective domain is M-convex and, for every pair of
    domain points at l1-distance 4, that the local exchange inequality
        nu(a) + nu(b) >= nu(a - e_i + e_j) + nu(b - e_j + e_i)
    holds for some i with a_i > b_i and j with a_j < b_j.  Each b is reached
    from a as a - e_i - e_j + e_k + e_l through the code -> index map of the
    domain, and values are compared as integers, scaled by their lcm.
    """
    dom_ok, wit = is_m_convex_set(nu.domain())
    if not dom_ok:
        return False, (wit[0], wit[1])
    pts, n = list(nu.values), nu.nvars
    w = code_weights(n, nu.degree)
    at = {sum(map(mul, p, w)): k for k, p in enumerate(pts)}
    val = integer_scaled(nu.values.values())[1]
    # for i <= j: the code shift of each b = a - e_i - e_j + e_k + e_l (k <= l,
    # {k, l} apart from {i, j}), and the shifts e_y - e_x of its exchanges
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    moves = [(i, j, [(w[k] + w[l] - w[i] - w[j],
                      {w[y] - w[x] for x in (i, j) for y in (k, l)})
                     for k, l in pairs if not {i, j} & {k, l}]) for i, j in pairs]
    for a, (alpha, ca) in enumerate(zip(pts, at)):
        first = len(pts)    # the first b after a, in the order of pts, that fails
        for i, j, shifts in moves:
            if alpha[i] > (i == j) and alpha[j]:     # a - e_i - e_j >= 0
                for shift, swaps in shifts:
                    b = at.get(cb := ca + shift, -1)
                    if a < b < first and not any(
                            val[at[ca + s]] + val[at[cb - s]] <= val[a] + val[b]
                            for s in swaps if ca + s in at and cb - s in at):
                        first = b
        if first < len(pts):
            return False, (alpha, pts[first])
    return True, None


def _floor_nth_root(x: int, r: int) -> int:
    # integer Newton iteration from above, started at the float estimate of
    # the root's top bits, so that it takes a few steps for any r
    def step(y: int) -> int:
        return ((r - 1) * y + x // y ** (r - 1)) // r

    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or r == 1:
        return x
    if x.bit_length() <= r:     # 1 < x < 2^r: the root lies in [1, 2)
        return 1
    e = math.log2(x) / r
    shift = max(0, int(e) - 52)
    # from any y > 0 one step lands at or above the floor root (AM-GM)
    root = step((int(2 ** (e - shift)) + 1) << shift)
    while (nxt := step(root)) < root:
        root = nxt
    return root


def rational_power(q: Fraction, e: Fraction) -> Fraction:
    """Exact q**e for rational q > 0 and rational e, or ValueError.

    Exists when q has an exact r-th root for r the reduced denominator of e.
    """
    if q <= 0:
        raise ValueError("base must be positive")
    r = e.denominator
    p = e.numerator
    if r == 1:
        return q ** p
    num_root = _floor_nth_root(q.numerator, r)
    den_root = _floor_nth_root(q.denominator, r)
    if num_root ** r != q.numerator or den_root ** r != q.denominator:
        raise ValueError(f"{q}**(1/{r}) is irrational; supply q as an exact {r}-th power")
    return Fraction(num_root, den_root) ** p


def _generating_poly(nu: DiscreteFunction, q: RationalLike, weight) -> HomogPoly:
    """sum over dom(nu) of weight(a, q^nu(a)) w^a, exact."""
    qf = as_fraction(q)
    if qf <= 0:
        raise ValueError("q must be positive")
    return HomogPoly._of(nu.nvars, nu.degree, {p: weight(p, rational_power(qf, v))
                                               for p, v in nu.values.items()})


def generating_poly_f(nu: DiscreteFunction, q: RationalLike) -> HomogPoly:
    """f^nu_q = sum over dom(nu) of q^nu(a) w^a / a!, exact.

    Requires an integer-valued nu, or a q that is an exact m-th power for m
    the lcm of the value denominators; otherwise q^nu(a) is irrational and
    a ValueError is raised.
    """
    return _generating_poly(nu, q, lambda p, c: c / factorial_of(p))


def generating_poly_g(nu: DiscreteFunction, q: RationalLike) -> HomogPoly:
    """g^nu_q = sum over dom(nu) of prod_i C(d, a_i) q^nu(a) w^a, exact."""
    comb_d = [math.comb(nu.degree, k) for k in range(nu.degree + 1)].__getitem__
    # one normalizing Fraction() costs less than int * Fraction
    return _generating_poly(nu, q, lambda p, c: Fraction(
        math.prod(map(comb_d, p)) * c.numerator, c.denominator))


# -- polarization of discrete functions ------------------------------------
#
# Variables of the lift are pairs (i, j) with i in [n] and j in [d], flattened
# as i*d + j; the grouping map phi sends e_(i,j) to e_i.  The lift is
# supported on 0/1 points and takes the value nu(phi(.)) there; the
# projection takes the minimum over each fiber of phi.


def polarize_fn(nu: DiscreteFunction) -> DiscreteFunction:
    """Multi-affine lift of nu to n*d variables; inverse of project_fn."""
    n, d = nu.nvars, nu.degree
    out: dict[Exponent, Fraction] = {}
    for p, v in nu.values.items():
        out.update(dict.fromkeys(multi_affine_lifts((d,) * n, p), v))
    return DiscreteFunction(n * d, d, out)


def project_fn(mu: DiscreteFunction, nvars: int | None = None) -> DiscreteFunction:
    """Fiber-minimum of mu along the grouping of n*d variables into n groups."""
    d = mu.degree
    if nvars is None:
        if d == 0:
            raise ValueError("nvars required to project a degree-0 function")
        nvars, rem = divmod(mu.nvars, d)
        if rem:
            raise ValueError(f"{mu.nvars} variables do not split into blocks of {d}")
    if nvars * d != mu.nvars and not (d == 0 and mu.nvars == 0):
        raise ValueError(f"cannot group {mu.nvars} variables into {nvars} blocks of {d}")
    out: dict[Exponent, Fraction] = {}
    for p, v in mu.values.items():
        key = tuple(sum(p[i * d:(i + 1) * d]) for i in range(nvars))
        if key not in out or v < out[key]:
            out[key] = v
    return DiscreteFunction(nvars, d, out)


def regularize(nu: DiscreteFunction, k: int) -> DiscreteFunction:
    """Finite-everywhere M-convex relaxation nu_k of nu, for k >= 0:
    nu_k(gamma) = min over alpha in dom(nu) of nu(alpha) + k |alpha - gamma|_1 / 2.

    The closed form of pulling nu back along the row sums of n x n matrices,
    adding k times the off-diagonal mass and minimizing along column sums:
    the cheapest matrix with row sums alpha and column sums gamma keeps
    min(alpha_i, gamma_i) on its diagonal.  Agrees with nu on dom(nu) once k
    exceeds the oscillation of nu.
    """
    ok, wit = is_m_convex_function(nu)
    if not ok:
        raise ValueError(f"input is not M-convex (witness {wit})")
    if not nu.values:
        raise ValueError("input is identically infinite")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return DiscreteFunction(nu.nvars, nu.degree, {
        gamma: min(v + k * (sum([abs(a - g) for a, g in zip(alpha, gamma)]) // 2)
                   for alpha, v in nu.values.items())
        for gamma in simplex(nu.nvars, nu.degree)})
