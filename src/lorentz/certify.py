"""Decision procedures for the Lorentzian property and its relatives.

A degree-d homogeneous polynomial with nonnegative coefficients is Lorentzian
iff its support is M-convex and, for every exponent vector a of degree d-2,
the Hessian of d^a f has at most one positive eigenvalue.  All checks here
are exact.

The c-Rayleigh property quantifies over the whole nonnegative orthant, so it
is only ever falsified here, never certified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import lcm, prod
from operator import gt, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .inertia import Inertia, _inertia_rows
from .mconvex import PointSet, is_m_convex_set
from .poly import (Exponent, HomogPoly, RationalLike, as_fraction, code_weights,
                   integer_scaled, simplex)

NEGATIVE_COEFFICIENT = "negative_coefficient"
SUPPORT_NOT_M_CONVEX = "support_not_m_convex"
INERTIA_VIOLATION = "inertia_violation"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a Lorentzian check, with a witness when it fails."""

    verdict: bool
    failing_alpha: Optional[Exponent] = None
    failing_kind: Optional[str] = None
    detail: dict = field(default_factory=dict)
    is_zero: bool = False

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class RayleighWitness:
    """An exact violation of the c-Rayleigh inequality at a rational point."""

    alpha: Exponent
    i: int
    j: int
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


def _support_certificate(f: HomogPoly) -> Optional[Certificate]:
    ok, wit = is_m_convex_set(PointSet(f.nvars, f.degree, f.support()))
    if ok:
        return None
    alpha, beta, i = wit
    return Certificate(False, failing_alpha=alpha, failing_kind=SUPPORT_NOT_M_CONVEX,
                       detail={"pair": (alpha, beta), "index": i})


def _coefficient_certificate(f: HomogPoly) -> Optional[Certificate]:
    for e in sorted(f.terms):
        if f.terms[e] < 0:
            return Certificate(False, failing_alpha=e, failing_kind=NEGATIVE_COEFFICIENT,
                               detail={"coefficient": f.terms[e]})
    return None


def _rayleigh_alphas(f: HomogPoly, top: int) -> list[Exponent]:
    """The alphas with |alpha| <= top and d^alpha f nonzero, sorted: those
    below the exponents of f."""
    layer, below = set(f.terms), set()
    for size in reversed(range(f.degree)):
        layer = {e[:k] + (e[k] - 1,) + e[k + 1:] for e in layer for k, x in enumerate(e) if x}
        if size <= top:
            below |= layer
    return sorted(below)


def _support_hessians(f: HomogPoly) -> list[tuple[Exponent, dict[tuple[int, int], int]]]:
    """Each alpha with |alpha| = d-2 and d^alpha f nonzero (the e - e_i - e_j
    for the exponents e of f), in order, with the entries (i, j), i <= j, of
    the Hessian of d^alpha f over alpha!, f scaled to integers: a_e e_i
    (e_j - [i = j]) for e = alpha + e_i + e_j.  One pass over the terms fills
    them all, keyed by the integer code of e (``code_weights``), which sorts
    as the exponents do and gives alpha the code code(e) - w_i - w_j."""
    w = code_weights(f.nvars, f.degree)
    hessians: dict[int, tuple[Exponent, dict[tuple[int, int], int]]] = {}
    for e, a in _int_terms(f.terms).items():
        code = sum(map(mul, e, w))
        nonzero = [i for i, k in enumerate(e) if k]
        for x, i in enumerate(nonzero):
            ci, ai = code - w[i], a * e[i]
            for j in nonzero[x:]:
                if k := e[j] - (i == j):        # i == j needs e_i >= 2
                    if (h := hessians.get(ci - w[j])) is None:     # a new alpha
                        h = hessians[ci - w[j]] = (
                            tuple(v - (m == i) - (m == j) for m, v in enumerate(e)), {})
                    h[1][i, j] = ai * k
    return [h for _, h in sorted(hessians.items())]


def _support_inertias(f: HomogPoly) -> Iterator[tuple[Exponent, Inertia]]:
    """``_support_hessians`` with the inertia of each Hessian in place of its
    entries.  Each is made dense over the indices it touches (the others are
    zero rows), and the inertia is computed once per distinct dense matrix."""
    seen: dict[tuple, Inertia] = {}
    for alpha, entries in _support_hessians(f):
        at = {k: x for x, k in enumerate(sorted({k for ij in entries for k in ij}))}
        rows = [[0] * len(at) for _ in at]
        for (i, j), v in entries.items():
            rows[at[i]][at[j]] = rows[at[j]][at[i]] = v
        key = tuple(map(tuple, rows))   # before _inertia_rows eliminates the rows
        if (sig := seen.get(key)) is None:
            sig = seen[key] = _inertia_rows(rows, f.nvars)
        yield alpha, sig


def is_lorentzian(f: HomogPoly, exhaustive: bool = False) -> Certificate:
    """Exact Lorentzian certification.

    Scans the degree-(d-2) alphas under the support in lexicographic order,
    their Hessians built in one integer pass and each distinct Hessian's
    inertia computed once (``_support_inertias``); the other alphas have a
    zero Hessian and cannot fail.  Short-circuits on the first
    failing quadratic unless ``exhaustive``, which collects them all.
    """
    if f.is_zero():
        return Certificate(True, is_zero=True)
    bad = _coefficient_certificate(f)
    if bad is not None:
        return bad
    bad = _support_certificate(f)
    if bad is not None:
        return bad
    if f.degree <= 1:
        return Certificate(True)
    failures = []
    for alpha, sig in _support_inertias(f):
        if sig.n_plus > 1:
            failures.append((alpha, sig))
            if not exhaustive:
                break
    if not failures:
        return Certificate(True)
    alpha, sig = failures[0]
    detail = {"inertia": sig, "all_failures": failures} if exhaustive else {"inertia": sig}
    return Certificate(False, failing_alpha=alpha, failing_kind=INERTIA_VIOLATION,
                       detail=detail)


def is_strictly_lorentzian(f: HomogPoly) -> Certificate:
    """All coefficients positive (full support) and every degree-(d-2)
    derivative with Hessian signature exactly (+,-,...,-)."""
    if f.is_zero():
        return Certificate(False, failing_kind=NEGATIVE_COEFFICIENT,
                           detail={"reason": "zero polynomial"})
    for e in simplex(f.nvars, f.degree):
        if f.coeff(e) <= 0:
            return Certificate(False, failing_alpha=e, failing_kind=NEGATIVE_COEFFICIENT,
                               detail={"coefficient": f.coeff(e)})
    if f.degree <= 1:
        return Certificate(True)
    for alpha, sig in _support_inertias(f):
        if sig.n_plus != 1 or sig.n_zero != 0:
            return Certificate(False, failing_alpha=alpha, failing_kind=INERTIA_VIOLATION,
                               detail={"inertia": sig})
    return Certificate(True)


def hodge_riemann_many(f: HomogPoly,
                       points: Sequence[Sequence[RationalLike]]) -> list[Inertia]:
    """Exact inertia of the Hessian of f at each strictly positive point.

    Entry (i, j) of the Hessian at w is sum_e a_e e_i (e_j - [i = j])
    w^(e - e_i - e_j), so the Hessian is the sum of the support Hessians
    H_alpha (``_support_hessians``) weighted by w^alpha.  With f and w scaled
    to integers (u = den * w), the sum of u^alpha H_alpha is a positive
    multiple of it: the same inertia.
    """
    if f.degree < 2:
        raise ValueError("Hessian test needs degree >= 2")
    n = f.nvars
    hessians = _support_hessians(f)
    out = []
    for w in points:
        u = _scaled(*_integer_point(w, n))
        if any(x <= 0 for x in u):
            raise ValueError("point must be strictly positive")
        rows = [[0] * n for _ in range(n)]
        for alpha, entries in hessians:
            ua = prod(map(pow, u, alpha))
            for (i, j), v in entries.items():
                rows[i][j] += ua * v
        for i in range(1, n):       # the lower triangle from the upper
            rows[i][:i] = [r[i] for r in rows[:i]]
        out.append(_inertia_rows(rows, n))
    return out


def _integer_point(w: Sequence[RationalLike], n: int) -> tuple[list[int], list[int]]:
    """The numerators and denominators of w, of n coordinates."""
    wf = [as_fraction(x) for x in w]
    if len(wf) != n:
        raise ValueError(f"point has length {len(wf)}, expected {n}")
    return [x.numerator for x in wf], [x.denominator for x in wf]


def _scaled(nums: Sequence[int], dens: Sequence[int]) -> list[int]:
    """den * w for w_k = nums[k] / dens[k] and den the lcm of the dens."""
    den = lcm(*dens)
    return [x * (den // y) for x, y in zip(nums, dens)]


def _int_terms(terms: Mapping) -> dict:
    """The coefficients times the lcm of their denominators."""
    return dict(zip(terms, integer_scaled(terms.values())[1]))


# -- c-Rayleigh scans ---------------------------------------------------------
#
# A check (alpha, i, j) is d^alpha f * d^(alpha+e_i+e_j) f <= c * d^(alpha+e_i) f
# * d^(alpha+e_j) f at one point.  Both sides are homogeneous of the same
# degree in the point and quadratic in the coefficients of f, so scaling both
# to integers multiplies the two sides by the same positive number and one
# integer scan decides every check.  Polynomials check each alpha with
# d^alpha f nonzero and i <= j, and |alpha| <= d-2 for c >= 0 (a larger
# alpha has left side 0) or |alpha| <= d-1 for c < 0 (at |alpha| = d both
# sides are 0); measures check alpha = 0 and 1 <= i < j <= n on the
# homogenized partition function.
#
# The scan is compiled into one table of monomials and runs on a chunk of
# integer points at once, in columns of one number per point.  Entry m holds
# u^m, filled as u^parent * u_k from an earlier entry: one C-level product
# per entry.  A derivative d^beta f is a tuple of integer coefficients and a
# tuple of table entries, derived from a derivative one order below it, so
# its values are one sum over entry columns.  The checks compare value
# columns read from a plain list, in which slot 0 holds the zeros of every
# identically zero derivative.  An alpha's checks, the derivatives they
# first need and the monomials those add are compiled when a chunk first
# reaches that alpha.  After a hit at point x only the points before x can
# give an earlier witness, so every column is cut to them.  Chunks grow 1,
# 2, 4, ... up to _CHUNK points (``_chunks``), so an early refutation draws
# and evaluates little more than it reads.  Points come as integer
# numerators and denominators; ``_rayleigh_sides`` recomputes each witness.

_CHUNK = 64


def _below(e: Exponent, built: Mapping[Exponent, object]) -> tuple[Exponent, int]:
    """(e - e_k, k) for the first k with e - e_k in ``built``, else for the
    last k with e_k > 0; e must be nonzero."""
    ks = [k for k, x in enumerate(e) if x]
    lower = [e[:k] + (e[k] - 1,) + e[k + 1:] for k in ks]
    at = next((x for x, b in enumerate(lower) if b in built), -1)
    return lower[at], ks[at]


class _RayleighScan:
    """The checks (alpha, i, j), for each alpha in order and each (i, j) of
    ``pairs`` in order, on integer terms, tried in that order at integer
    points and compiled into one monomial table.

    With ``drop_zero`` a check whose d^(alpha+e_i+e_j) f is identically zero
    is not compiled.  That is sound only for nonnegative terms, points and c:
    the left side of such a check is 0 and its right side is c times two
    values >= 0, so it cannot fail, and the first failing check is the same.
    For c < 0 it fails wherever d^(alpha+e_i) f and d^(alpha+e_j) f are
    positive, and at signed points the sides have no sign, so it is kept.
    """

    def __init__(self, terms: Mapping[Exponent, int], alphas: Sequence[Exponent],
                 pairs: Sequence[tuple[int, int]], drop_zero: bool = False):
        self._terms = terms
        self._alphas = alphas
        self._pairs = pairs
        self._drop_zero = drop_zero
        one = (0,) * len(alphas[0]) if alphas else ()
        self._entry: dict[Exponent, int] = {one: 0}   # monomial -> table entry
        self._exps: list[Exponent] = [one]             # table entry -> monomial
        self._steps = [(0, 0)]          # entry -> (parent entry, k); entry 0 is u^0 = 1
        self._derivs: dict[Exponent, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._slots: dict[Exponent, int] = {}          # beta -> value slot of d^beta f
        self._nslots = 1
        # per compiled alpha: (table length, new values, slot of d^alpha f, checks)
        self._groups: list = []

    # _mono and _deriv loop down to a built entry, then up: a degree may pass the recursion limit
    def _mono(self, e: Exponent) -> int:
        down = []                       # (e, e - e_k, k) to build, the highest first
        while (m := self._entry.get(e)) is None:
            down.append((e, *_below(e, self._entry)))
            e = down[-1][1]
        for e, _, k in reversed(down):
            self._steps.append((m, k))
            m = self._entry[e] = len(self._exps)
            self._exps.append(e)
        return m

    def _deriv(self, beta: Exponent) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """d^beta f as its coefficients and the table entries of its monomials."""
        down = []                       # (beta, beta - e_k, k) to derive, the highest first
        while (d := self._derivs.get(beta)) is None and any(beta):
            down.append((beta, *_below(beta, self._derivs)))
            beta = down[-1][1]
        if d is None:
            d = self._derivs[beta] = (tuple(self._terms.values()),
                                      tuple(map(self._mono, self._terms)))
        for beta, _, k in reversed(down):
            coefs, entries = [], []
            for v, m in zip(*d):
                e = self._exps[m]
                if e[k]:
                    coefs.append(v * e[k])
                    entries.append(self._mono(e[:k] + (e[k] - 1,) + e[k + 1:]))
            d = self._derivs[beta] = tuple(coefs), tuple(entries)
        return d

    def _compile(self) -> None:
        """Compile the next alpha: its checks over value slots, the
        derivatives whose slots it adds, and the table length they read."""
        alpha = self._alphas[len(self._groups)]
        new = []

        def slot(*ks: int) -> int:
            beta = list(alpha)
            for k in ks:
                beta[k] += 1
            beta = tuple(beta)
            s = self._slots.get(beta)
            if s is None:
                coefs, entries = self._deriv(beta)
                s = 0
                if coefs:
                    s, self._nslots = self._nslots, self._nslots + 1
                    # None when every coefficient is 1: the value is a plain sum
                    new.append((None if set(coefs) == {1} else coefs, entries))
                self._slots[beta] = s
            return s

        checks = []
        for i, j in self._pairs:
            aij = slot(i, j)
            if aij or not self._drop_zero:
                checks.append((slot(i), slot(j), aij, (alpha, i, j)))
        a = slot() if checks else 0     # d^alpha f, shared by the alpha's checks
        self._groups.append((len(self._steps), new, a, checks))

    def first_violation(self, c: Fraction, us: Sequence[Sequence[int]]
                        ) -> Optional[tuple[int, tuple[Exponent, int, int]]]:
        """(x, check): x the index of the first of the integer points ``us``
        where a check fails, and the first check failing there; or None."""
        num, den = repeat(c.numerator), repeat(c.denominator)
        cols = list(zip(*us))
        table, values = [[1] * len(us)], [[0] * len(us)]
        hit = None
        for g in range(len(self._alphas)):
            if g == len(self._groups):
                self._compile()
            size, new, a, checks = self._groups[g]
            for p, k in self._steps[len(table):size]:
                table.append(list(map(mul, table[p], cols[k])))
            for coefs, entries in new:
                if coefs is None and len(entries) == 1:     # one monomial: share its column
                    values.append(table[entries[0]])
                    continue
                terms = map(table.__getitem__, entries)
                if coefs is not None:
                    terms = map(map, repeat(mul), map(repeat, coefs), terms)
                values.append(list(map(sum, zip(*terms))))
            lhs, rhs_at = list(map(mul, values[a], den)), None
            for ai, aj, aij, check in checks:
                if ai != rhs_at:        # i-major pairs: the checks of one i are consecutive
                    rhs, rhs_at = list(map(mul, values[ai], num)), ai
                fails = list(map(gt, map(mul, lhs, values[aij]), map(mul, rhs, values[aj])))
                if True in fails:
                    x = fails.index(True)
                    if x == 0:
                        return x, check
                    hit = x, check
                    for col in chain(table, values):
                        del col[x:]
        return hit


def _chunks(points: Iterable) -> Iterator[list]:
    """The items of ``points`` in lists of 1, 2, 4, ... up to _CHUNK.  An error
    drawing an item is raised after the list of the items before it."""
    chunk, size = [], 1
    try:
        for p in points:
            chunk.append(p)
            if len(chunk) == size:
                yield chunk
                chunk, size = [], min(2 * size, _CHUNK)
    except Exception:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _first_hit(scan: _RayleighScan, c: Fraction, points: Iterable[tuple[list[int], list[int]]]
               ) -> Optional[tuple[tuple[Fraction, ...], tuple[Exponent, int, int]]]:
    """The first of ``points`` (numerators, denominators) at which a check of
    ``scan`` fails, in Fractions, with the first check failing there; or None."""
    for chunk in _chunks(points):
        hit = scan.first_violation(c, [_scaled(*p) for p in chunk])
        if hit is not None:
            x, check = hit
            return tuple(map(Fraction, *chunk[x])), check
    return None


def rayleigh_check_at(f: HomogPoly, c: RationalLike,
                      points: Iterable[Sequence[RationalLike]]) -> Optional[RayleighWitness]:
    """First exact c-Rayleigh violation of f over nonnegative points, tried
    in order, if any.

    The scan is compiled once and shared by every point; each point, of
    ``f.nvars`` coordinates, is checked when its turn comes.
    """
    def integer_points():
        for w in points:
            nums, dens = _integer_point(w, f.nvars)
            if any(x < 0 for x in nums):
                raise ValueError("point must be nonnegative")
            yield nums, dens
    return _rayleigh_search(f, c, integer_points())


def _rayleigh_search(f: HomogPoly, c: RationalLike,
                     points: Iterable[tuple[Sequence[int], Sequence[int]]]
                     ) -> Optional[RayleighWitness]:
    """``rayleigh_check_at`` on nonnegative points as numerators and denominators."""
    cf = as_fraction(c)
    if not f.has_nonnegative_coeffs():
        raise ValueError("f must have nonnegative coefficients")
    n = f.nvars
    # the points are nonnegative, so for c >= 0 a check whose left side is
    # identically zero cannot fail (see _RayleighScan)
    scan = _RayleighScan(_int_terms(f.terms), _rayleigh_alphas(f, f.degree - 1 - (cf >= 0)),
                         [(i, j) for i in range(n) for j in range(i, n)], drop_zero=cf >= 0)
    if (hit := _first_hit(scan, cf, points)) is None:
        return None
    w, check = hit
    return RayleighWitness(*check, w, *_rayleigh_sides(f, cf, *check, w))


def _rayleigh_sides(f: HomogPoly, c: Fraction, alpha: Exponent, i: int, j: int,
                    w: Sequence[RationalLike]) -> tuple[Fraction, Fraction]:
    """The two sides d^alpha f * d^(alpha+e_i+e_j) f and
    c * d^(alpha+e_i) f * d^(alpha+e_j) f at w, in Fractions."""
    def at(*ks):
        beta = [a + ks.count(k) for k, a in enumerate(alpha)]
        return f.derive(beta).eval(w) if sum(beta) <= f.degree else Fraction(0)
    return at() * at(i, j), c * at(i) * at(j)


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` draws of ``rng.randint(lo, hi)``, drawn as CPython draws
    them: ``getrandbits(k)`` for k the bit length of the width hi - lo + 1,
    drawn again while at or above the width.  The seeded points rest on
    ``getrandbits`` alone, not on ``randrange``'s implementation."""
    width = hi - lo + 1
    k = width.bit_length()
    out = []
    for _ in range(count):
        r = rng.getrandbits(k)
        while r >= width:
            r = rng.getrandbits(k)
        out.append(lo + r)
    return out


def _sampled_points(n: int, trials: int, seed: int,
                    max_den: int) -> Iterator[tuple[list[int], list[int]]]:
    """The seeded points, as their numerators and denominators."""
    # a generator: its checks run on the first draw, after f's own check
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if max_den < 1:
        raise ValueError("max_den must be positive")
    rng = random.Random(seed)
    for _ in range(trials):
        mask = _randints(rng, 0, 1, n)
        pairs = iter(_randints(rng, 1, max_den, 2 * sum(mask)))
        draws = [(next(pairs), next(pairs)) if m else (0, 1) for m in mask]
        yield [x for x, _ in draws], [y for _, y in draws]


def rayleigh_falsify(f: HomogPoly, c: RationalLike, trials: int,
                     seed: int, max_den: int = 10) -> Optional[RayleighWitness]:
    """Search for an exact c-Rayleigh violation over seeded random points.

    Points are nonnegative rationals with every boundary face reachable (a
    random subset of coordinates is zeroed each trial).  Returns the first
    violation found, or None; None certifies nothing.
    """
    return _rayleigh_search(f, c, _sampled_points(f.nvars, trials, seed, max_den))

