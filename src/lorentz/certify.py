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
from itertools import chain, count, repeat
from math import lcm
from operator import add, ge, gt, mul, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .inertia import Inertia, _inertia_rows
from .mconvex import PointSet, is_m_convex_set
from .poly import Exponent, HomogPoly, RationalLike, as_fraction, code_weights, simplex

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
    ok, wit = is_m_convex_set(PointSet._of(f.nvars, f.degree, list(f.support())))
    if ok:
        return None
    alpha, beta, i = wit
    return Certificate(False, failing_alpha=alpha, failing_kind=SUPPORT_NOT_M_CONVEX,
                       detail={"pair": (alpha, beta), "index": i})


def _coefficient_certificate(f: HomogPoly) -> Optional[Certificate]:
    if f.has_nonnegative_coeffs():
        return None
    e = min(e for e, c in f.nums.items() if c < 0)
    return Certificate(False, failing_alpha=e, failing_kind=NEGATIVE_COEFFICIENT,
                       detail={"coefficient": f.coeff(e)})


def _support_hessians(f: HomogPoly) -> list[tuple[Exponent, dict[tuple[int, int], int]]]:
    """Each alpha with |alpha| = d-2 and d^alpha f nonzero (the e - e_i - e_j
    for the exponents e of f), in order, with the entries (i, j), i <= j, of
    the Hessian of d^alpha f times den / alpha!: a_e e_i (e_j - [i = j]) for
    e = alpha + e_i + e_j, a_e the numerators of f.  One pass over the terms
    fills them all, keyed by the integer code of e (``code_weights``), which
    sorts as the exponents do and gives alpha the code code(e) - w_i - w_j."""
    w = code_weights(f.nvars, f.degree)
    hessians: dict[int, tuple[Exponent, dict[tuple[int, int], int]]] = {}
    for e, a in f.nums.items():
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

    Checks the signs, then the support (one that fills its box slice is M-convex
    and decided by counting: ``is_m_convex_set``), then scans the degree-(d-2)
    alphas under the support in lexicographic order, their Hessians built in
    one integer pass and each distinct Hessian's inertia computed once
    (``_support_inertias``); other alphas have a zero Hessian and cannot fail.
    Short-circuits on the first failure unless ``exhaustive``, which collects them all.
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
        if f.nums.get(e, 0) <= 0:
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

    With f and w scaled to integers (a_e the numerators of f, u = L * w for L
    the lcm of w's denominators), entry (i, j) of D H D, D = diag(u), is
    sum_e k a_e u^e for the weight k = e_i (e_j - [i = j]).  Each entry is
    divided exactly by u_i u_j (k != 0 forces e_i >= 1 + [i = j] and
    e_j >= 1), which leaves H(u) = den_f L^(d-2) H_f(w), a positive multiple
    of the Hessian at w with its inertia.  H(u) is often strictly diagonally
    dominant after one pivot, where ``_inertia_rows`` stops.  Chunks of
    _CHUNK points run in columns over one ``_Monomials`` table.
    """
    if f.degree < 2:
        raise ValueError("Hessian test needs degree >= 2")
    n = f.nvars
    monomials, terms = _Monomials(n), []                   # terms: (entry of u^e, a_e)
    weights: dict[tuple[int, int, int], list[int]] = {}    # (i, j, k) -> the entries
    for e, a in f.nums.items():
        terms.append((m := monomials.add(e), a))
        nonzero = [i for i, x in enumerate(e) if x]
        for x, i in enumerate(nonzero):
            for j in nonzero[x:]:
                if k := (e[i] - (i == j)) * e[j]:
                    weights.setdefault((i, j, k), []).append(m)
    out = []
    for start in range(0, len(points), _CHUNK):
        us = []
        for w in points[start:start + _CHUNK]:
            us.append(_scaled(*_integer_point(w, n)))
            if any(x <= 0 for x in us[-1]):
                raise ValueError("point must be strictly positive")
        table, cols = [[1] * len(us)], list(zip(*us))
        monomials.fill(table, cols, len(monomials.steps))
        for m, a in terms:      # a_e u^e in place: no entry of degree d is a parent
            table[m] = list(map(mul, table[m], repeat(a)))
        entries = {}
        for (i, j, k), ms in weights.items():
            col = map(sum, zip(*map(table.__getitem__, ms)))
            if k != 1:
                col = map(mul, col, repeat(k))
            entries[i, j] = entries[j, i] = list(
                map(add, entries[i, j], col) if (i, j) in entries else col)
        for (i, j), col in entries.items():
            if i <= j:      # (j, i) holds the same list
                col[:], rem = zip(*map(divmod, col, map(mul, cols[i], cols[j])))
                if any(rem):
                    raise ArithmeticError(f"inexact division by u_{i} u_{j}")
        flat = [entries.get((i, j), [0] * len(us)) for i in range(n) for j in range(n)]
        out += [_inertia_rows([list(row[i:i + n]) for i in range(0, n * n, n)], n)
                for row in zip(*flat)]
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


# -- c-Rayleigh scans ---------------------------------------------------------
#
# A check (alpha, i, j) is d^alpha f * d^(alpha+e_i+e_j) f <= c * d^(alpha+e_i) f
# * d^(alpha+e_j) f at one point.  Both sides are homogeneous of the same
# degree in the point and quadratic in the coefficients of f, so scaling both
# to integers multiplies the two sides by the same positive number and one
# integer scan decides every check.  ``_rayleigh_plan`` gives the checks a
# polynomial needs, with the reasons for those it leaves out, Brändén-Huh's
# Rayleigh bound among them.  Measures check alpha = 0 and 1 <= i < j <= n on
# the homogenized partition function, none where that bound covers it.
#
# The scan is compiled into one table of monomials and runs on a chunk of
# integer points at once, in columns of one number per point.  Entry m holds
# u^m, filled as u^parent * u_k from an earlier entry: one C-level product
# per entry.  The table (``_Monomials``) serves ``hodge_riemann_many`` too.
# A derivative d^beta f is a tuple of integer coefficients and a tuple of
# table entries, derived from a derivative one order below it, so its values
# are one sum over entry columns.  The checks compare value columns read from
# a plain list, in which slot 0 holds the zeros of every identically zero
# derivative.  An alpha's checks, the derivatives they first need and the
# monomials those add are compiled when a chunk first reaches that alpha.
# After a hit at point x only the points before x can give an earlier
# witness, so every column is cut to them.  Chunks grow 1, 2, 4, ... up to
# _CHUNK points (``_chunks``), so an early refutation draws and evaluates
# little more than it reads.  Points come as integer numerators and
# denominators; ``_rayleigh_sides`` recomputes each witness.

_CHUNK = 64


class _Monomials:
    """The monomial table of n variables, compiled once and filled per chunk."""

    def __init__(self, n: int):
        one = (0,) * n
        self.entry: dict[Exponent, int] = {one: 0}     # monomial -> table entry
        self.exps: list[Exponent] = [one]               # table entry -> monomial
        self.steps = [(0, 0)]           # entry -> (parent entry, k); entry 0 is u^0 = 1

    def add(self, e: Exponent) -> int:
        """The entry of u^e, added with the missing monomials under it."""
        # down by the last nonzero k, then up: a degree may pass the recursion limit
        down, k = [], len(e) - 1
        while (m := self.entry.get(e)) is None:
            while not e[k]:
                k -= 1
            down.append((e, k))
            e = e[:k] + (e[k] - 1,) + e[k + 1:]
        for e, k in reversed(down):
            self.steps.append((m, k))
            m = self.entry[e] = len(self.exps)
            self.exps.append(e)
        return m

    def fill(self, table: list[list[int]], cols: Sequence[Sequence[int]], size: int) -> None:
        """Extend ``table``, the first entries at the points of columns ``cols``, to ``size``."""
        for p, k in self.steps[len(table):size]:
            table.append(list(map(mul, table[p], cols[k])))


def _below(e: Exponent, built: Mapping[Exponent, object]) -> tuple[Exponent, int]:
    """(e - e_k, k) for the first k with e - e_k in ``built``, else for the
    last k with e_k > 0; e must be nonzero."""
    ks = [k for k, x in enumerate(e) if x]
    lower = [e[:k] + (e[k] - 1,) + e[k + 1:] for k in ks]
    at = next((x for x, b in enumerate(lower) if b in built), -1)
    return lower[at], ks[at]


def _rayleigh_plan(f: HomogPoly, c: Fraction
                  ) -> Iterator[tuple[Exponent, list[tuple[int, int]]]]:
    """Each alpha, in order, with a c-Rayleigh check of f that can fail at
    a nonnegative point, and the pairs (i, j), i <= j, of those checks.

    The alphas are those under the support (d^alpha f nonzero) with
    |alpha| <= d-2 for c >= 0, a larger alpha having left side 0, or
    |alpha| <= d-1 for c < 0, at |alpha| = d both sides being 0.  One walk
    down the support gives them and ``below``, the exponents under it by degree.

    For c >= 0 a pair is kept only when alpha + e_i + e_j is under the support:
    otherwise d^(alpha+e_i+e_j) f is identically zero and the check, 0 <= c
    times two values >= 0, cannot fail.  For c < 0 such a check fails wherever
    d^(alpha+e_i) f and d^(alpha+e_j) f are positive, so every pair is kept.

    An alpha is skipped when c >= 2(1 - 1/d'), d' = d - |alpha| (never for
    c < 0), and d^alpha f is Lorentzian, so 2(1 - 1/d')-Rayleigh on the
    nonnegative orthant (Brändén-Huh, arXiv:1902.03719).  With nonnegative
    coefficients it is iff its support {e - alpha : e >= alpha} is M-convex
    and no quadratic beta >= alpha has n_plus > 1 in ``_support_inertias``;
    or, as d_k preserves the class, when some alpha - e_k, earlier in the
    order, was skipped.  The inertias come in one pass when a bound first holds.
    So alpha = 0, the first, is decided first: as 2(1 - 1/d') grows with d',
    when it is skipped so is every alpha, and the plan is empty.
    """
    n, d = f.nvars, f.degree
    signed = c < 0
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    bad = None                      # the quadratic betas with n_plus > 1, once needed
    skipped = set()

    def lorentzian(alpha: Exponent) -> bool:
        nonlocal bad
        if any(alpha[:k] + (x - 1,) + alpha[k + 1:] in skipped for k, x in enumerate(alpha) if x):
            return True
        if bad is None:
            bad = [beta for beta, sig in _support_inertias(f) if sig.n_plus > 1]
        if any(all(map(ge, beta, alpha)) for beta in bad):
            return False
        support = [tuple(map(sub, e, alpha)) for e in f.nums if all(map(ge, e, alpha))]
        return is_m_convex_set(PointSet._of(n, d - sum(alpha), support))[0]

    if d > 1 and f.nums and c >= 2 - Fraction(2, d) and lorentzian((0,) * n):
        return
    below = [set(f.nums)]           # below[k]: the exponents of degree d - k under the support
    for _ in range(d):
        below.append({e[:k] + (e[k] - 1,) + e[k + 1:]
                      for e in below[-1] for k, x in enumerate(e) if x})
    for alpha in sorted(chain(*below[2 - signed:])):     # |alpha| <= d-2, or d-1 if signed
        size = sum(alpha)
        if size and c >= 2 - Fraction(2, d - size) and lorentzian(alpha):
            skipped.add(alpha)
            continue
        if signed:
            yield alpha, pairs
            continue
        up = [alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:] for k in range(n)]
        above = below[d - size - 2]
        yield alpha, [(i, j) for i, j in pairs if up[i][:j] + (up[i][j] + 1,) + up[i][j + 1:] in above]


class _RayleighScan:
    """The checks of ``plan``, (alpha, pairs) for each alpha in order with
    each (i, j) of its pairs in order, on integer terms, tried in that order
    at integer points and compiled into one monomial table.  The plan is
    read lazily, one alpha when a chunk first reaches it."""

    def __init__(self, terms: Mapping[Exponent, int],
                 plan: Iterable[tuple[Exponent, Sequence[tuple[int, int]]]]):
        self._terms = terms
        self._plan = iter(plan)
        self._table = _Monomials(len(next(iter(terms), ())))
        self._derivs: dict[Exponent, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._slots: dict[Exponent, int] = {}          # beta -> value slot of d^beta f
        self._nslots = 1
        # per compiled alpha: (table length, new values, slot of d^alpha f, checks)
        self._groups: list = []

    def _deriv(self, beta: Exponent) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """d^beta f as its coefficients and the table entries of its monomials."""
        # a loop down to a derived beta, then up: a degree may pass the recursion limit
        down = []                       # (beta, beta - e_k, k) to derive, the highest first
        while (d := self._derivs.get(beta)) is None and any(beta):
            down.append((beta, *_below(beta, self._derivs)))
            beta = down[-1][1]
        if d is None:
            d = self._derivs[beta] = (tuple(self._terms.values()),
                                      tuple(map(self._table.add, self._terms)))
        for beta, _, k in reversed(down):
            coefs, entries = [], []
            for v, m in zip(*d):
                e = self._table.exps[m]
                if e[k]:
                    coefs.append(v * e[k])
                    entries.append(self._table.add(e[:k] + (e[k] - 1,) + e[k + 1:]))
            d = self._derivs[beta] = tuple(coefs), tuple(entries)
        return d

    def _compile(self) -> bool:
        """Compile the next alpha of the plan: its checks over value slots,
        the derivatives whose slots it adds, and the table length they read.
        False when the plan is exhausted."""
        if (step := next(self._plan, None)) is None:
            return False
        alpha, pairs = step
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

        checks = [(slot(i), slot(j), slot(i, j), (alpha, i, j)) for i, j in pairs]
        a = slot()                      # d^alpha f, shared by the alpha's checks
        self._groups.append((len(self._table.steps), new, a, checks))
        return True

    def idle(self) -> bool:
        """After ``first_violation``, which reads the plan until a point fails
        or it is exhausted: whether it gave no check, so no point can fail."""
        return not self._groups

    def first_violation(self, c: Fraction, us: Sequence[Sequence[int]]
                        ) -> Optional[tuple[int, tuple[Exponent, int, int]]]:
        """(x, check): x the index of the first of the integer points ``us``
        where a check fails, and the first check failing there; or None."""
        num, den = repeat(c.numerator), repeat(c.denominator)
        cols = list(zip(*us))
        table, values = [[1] * len(us)], [[0] * len(us)]
        hit = None
        for g in count():
            if g == len(self._groups) and not self._compile():
                break
            size, new, a, checks = self._groups[g]
            self._table.fill(table, cols, size)
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
    ``scan`` fails, in Fractions, with the first check failing there; or None.
    Reading stops after the first chunk when the scan turns out to be idle."""
    for chunk in _chunks(points):
        hit = scan.first_violation(c, [_scaled(*p) for p in chunk])
        if hit is not None:
            x, check = hit
            return tuple(map(Fraction, *chunk[x])), check
        if scan.idle():
            break
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
    pts = integer_points()
    wit = _rayleigh_search(f, c, pts)
    if wit is None:
        for _ in pts:           # an idle scan stops early: check the rest in turn
            pass
    return wit


def _rayleigh_search(f: HomogPoly, c: RationalLike,
                     points: Iterable[tuple[Sequence[int], Sequence[int]]]
                     ) -> Optional[RayleighWitness]:
    """``rayleigh_check_at`` on nonnegative points as numerators and denominators."""
    cf = as_fraction(c)
    if not f.has_nonnegative_coeffs():
        raise ValueError("f must have nonnegative coefficients")
    scan = _RayleighScan(f.nums, _rayleigh_plan(f, cf))
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

