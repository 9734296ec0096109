"""Exact sparse homogeneous polynomials over the rationals.

A polynomial of degree d in n variables is a dict mapping exponent tuples
(length n, entries summing to d) to nonzero Fractions.  The zero polynomial
is the empty dict with declared (nvars, degree).  All arithmetic is exact;
no floats enter anywhere.

Two coefficient conventions coexist:

  raw coefficient   a_e : the number multiplying w^e,
  normalized        c_e = e! * a_e, so that  f = sum c_e/e! w^e.

Raw coefficients are stored, which keeps storage free of factorials.  No
normalized form is kept: code that works with it computes e! * a_e where it
needs it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from operator import index
from typing import Collection, Iterator, Mapping, Optional, Sequence

Exponent = tuple[int, ...]

RationalLike = Fraction | int | str


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, strings like '3/7', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def integer_scaled(xs: Collection[Fraction | int]) -> tuple[int, list[int]]:
    """(den, [den * x for x in xs]), den the lcm of the denominators; (1, []) for no xs."""
    den = math.lcm(*{x.denominator for x in xs})
    return den, [x.numerator * (den // x.denominator) for x in xs]


def factorial_of(e: Exponent) -> int:
    """e! = prod of factorials of the entries."""
    return math.prod(map(math.factorial, e))


@cache
def _ones(k: int, a: int) -> tuple[Exponent, ...]:
    """The 0/1 tuples of length k with a ones, in the order of combinations."""
    return tuple(tuple(int(x in pick) for x in range(k)) for pick in combinations(range(k), a))


def multi_affine_lifts(kappa: Sequence[int], e: Exponent) -> list[Exponent]:
    """The 0/1 exponents in groups of kappa_i variables with e_i ones in
    group i, in lexicographic order of the chosen positions."""
    lifts = [()]
    for k, a in zip(kappa, e):
        lifts = [lift + part for lift in lifts for part in _ones(k, a)]
    return lifts


def simplex(n: int, d: int) -> Iterator[Exponent]:
    """Iterate the d-th discrete simplex in n variables, lexicographically.

    Materialized lazily: the simplex has C(n+d-1, d) points.
    """
    if n == 0:
        if d == 0:
            yield ()
        return
    # stars and bars: positions of n-1 bars among n-1+d slots
    for bars in combinations(range(n - 1 + d), n - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(n - 1 + d - 1 - prev)
        yield tuple(e)


def check_exponents(exps: Collection[Sequence[int]], n: int, d: int) -> None:
    """Refuse exponents off the degree-d simplex in n variables (of length n,
    sum d, no negative entry), naming the first bad one in iteration order."""
    if (set(map(len, exps)) <= {n} and set(map(sum, exps)) <= {d}
            and min(chain.from_iterable(exps), default=0) >= 0):
        return
    for e in exps:
        if len(e) != n:
            raise ValueError(f"exponent {e} has length {len(e)}, expected {n}")
        if min(e, default=0) < 0:
            raise ValueError(f"negative exponent in {e}")
        if sum(e) != d:
            raise ValueError(f"exponent {e} has degree {sum(e)}, expected {d}")


def code_weights(n: int, d: int) -> list[int]:
    """The weights w_j = (d+1)^(n-1-j) of the integer code sum e_j w_j of an exponent
    e of degree at most d: no entry exceeds d, so codes have no carries and sort as
    the exponents do, and e - e_i + e_j has the code code(e) - w_i + w_j."""
    return [(d + 1) ** (n - 1 - j) for j in range(n)]


def first_ulc_failure(seq: Sequence, n: int) -> Optional[int]:
    """First k in 1..n-1 with s_k^2 C(n,k-1) C(n,k+1) < s_(k-1) s_(k+1) C(n,k)^2.

    None when the sequence s_0..s_n is ultra log-concave in this sense; a
    sequence shorter than n+1 counts as padded with zeros.
    """
    s = list(seq) + [0] * (n + 1 - len(seq))
    for k in range(1, n):
        lhs = s[k] * s[k] * math.comb(n, k - 1) * math.comb(n, k + 1)
        if lhs < s[k - 1] * s[k + 1] * math.comb(n, k) ** 2:
            return k
    return None


class HomogPoly:
    """Homogeneous polynomial with exact rational coefficients.

    Immutable by convention: never mutate ``terms`` after construction.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int,
                 terms: Mapping[Sequence[int], RationalLike] | None = None):
        nvars, degree, terms = index(nvars), index(degree), terms or {}
        if nvars < 0 or degree < 0:
            raise ValueError("nvars and degree must be nonnegative")
        exps = [tuple(map(index, e)) for e in terms]
        check_exponents(exps, nvars, degree)
        self.nvars = nvars
        self.degree = degree
        self.terms = {e: c for e, c in zip(exps, map(as_fraction, terms.values())) if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, degree: int, terms: Mapping[Exponent, Fraction]) -> "HomogPoly":
        """The polynomial of valid terms (int-tuple exponents of length nvars and sum
        degree, ``Fraction`` values) that library code built: drops zeros, checks nothing."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.degree = degree
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def homogenized(cls, n: int, weights: Mapping[int, RationalLike]) -> "HomogPoly":
        """sum over subset masks S of weight(S) w^S w_0^(n-|S|): the
        homogenization of a multi-affine polynomial in w_1..w_n; degree n in
        n+1 variables, variable 0 being w_0."""
        if weights and not (0 <= min(weights) and max(weights) < 1 << n):
            raise ValueError(f"subset masks must lie in [0, 2^{n})")
        # the bits of a mask, lowest first, are those of its low half, then of its high half
        half, low_mask = n // 2, (1 << n // 2) - 1
        low, high = ([e[::-1] for e in product((0, 1), repeat=k)] for k in (half, n - half))
        terms = {(n - mask.bit_count(),) + low[mask & low_mask] + high[mask >> half]:
                 w if type(w) is Fraction else Fraction(w) for mask, w in weights.items()}
        return cls._of(n + 1, n, terms)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, e: Sequence[int]) -> Fraction:
        """Raw coefficient of w^e."""
        return self.terms.get(tuple(e), Fraction(0))

    def support(self) -> set[Exponent]:
        return set(self.terms)

    def has_nonnegative_coeffs(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def is_multi_affine(self) -> bool:
        return max(chain.from_iterable(self.terms), default=0) <= 1

    def var_degree_caps(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the support."""
        return tuple(map(max, zip(*self.terms))) if self.terms else (0,) * self.nvars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return f"HomogPoly({self.nvars}, {self.degree}, 0)"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(f"w{i}^{k}" if k > 1 else f"w{i}"
                            for i, k in enumerate(e) if k)
            parts.append(f"{self.terms[e]}*{mono}" if mono else str(self.terms[e]))
        return f"HomogPoly({self.nvars}, {self.degree}, {' + '.join(parts)})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("can only add polynomials of equal nvars and degree")
        out = dict(self.terms)
        for e, c in other.terms.items():
            old = out.get(e)
            out[e] = c if old is None else old + c
        return HomogPoly._of(self.nvars, self.degree, out)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-1) * other

    def __rmul__(self, scalar: RationalLike) -> "HomogPoly":
        s = as_fraction(scalar)
        return HomogPoly._of(self.nvars, self.degree,
                             {e: s * c for e, c in self.terms.items()})

    def __mul__(self, other: "HomogPoly | RationalLike") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return self.__rmul__(other)
        if self.nvars != other.nvars:
            raise ValueError("can only multiply polynomials in the same variables")
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return HomogPoly._of(self.nvars, self.degree + other.degree, out)

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomogPoly._of(self.nvars, 0, {(0,) * self.nvars: Fraction(1)})
        for _ in range(k):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------

    def eval(self, w: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point."""
        if len(w) != self.nvars:
            raise ValueError(f"point has length {len(w)}, expected {self.nvars}")
        wf = [as_fraction(x) for x in w]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(wf, e):
                if k:
                    term *= x ** k
            total += term
        return total

    def derive(self, alpha: Sequence[int]) -> "HomogPoly":
        """Iterated partial derivative d^alpha.

        Normalized coefficients satisfy c_b(d^a f) = c_{a+b}(f).
        """
        alpha = tuple(map(index, alpha))
        a = sum(alpha)
        check_exponents((alpha,), self.nvars, a)
        if a > self.degree:
            raise ValueError(f"|alpha|={a} exceeds degree {self.degree}")
        need = [(i, k) for i, k in enumerate(alpha) if k]
        out = {}
        for e, c in self.terms.items():
            mult = 1
            for i, k in need:
                # the falling factorial e_i (e_i - 1) ... (e_i - k + 1), 0 when e_i < k
                mult *= math.perm(e[i], k)
                if not mult:
                    break
            else:
                b = list(e)
                for i, k in need:
                    b[i] -= k
                out[tuple(b)] = c * mult
        return HomogPoly._of(self.nvars, self.degree - a, out)

    def quadratic_hessian_after(self, alpha: Exponent):
        """Hessian of d^alpha f when |alpha| = degree - 2, without building d^alpha f.

        Entry (i, j) is the constant d^{alpha+e_i+e_j} f, i.e. the normalized
        coefficient c_{alpha+e_i+e_j} of f.
        """
        from .inertia import SymMatrix
        if sum(alpha) != self.degree - 2:
            raise ValueError("need |alpha| = degree - 2")
        n = self.nvars
        base = factorial_of(alpha)
        zero = Fraction(0)      # one object, so SymMatrix's symmetry test skips it
        rows = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = list(alpha)
                e[i] += 1
                e[j] += 1
                c = self.terms.get(tuple(e))
                if c is not None:
                    # e! is alpha! e_i e_j, or alpha! e_i (e_i - 1) when i == j
                    rows[i][j] = rows[j][i] = c * (base * e[i] * (e[j] - (i == j)))
        return SymMatrix(rows)
