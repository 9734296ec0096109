"""Exact sparse homogeneous polynomials over the rationals.

A polynomial of degree d in n variables keeps a dict ``nums`` from exponent
tuples (length n, entries summing to d) to nonzero integer numerators over
one positive ``den``, with gcd(den, every numerator) = 1, so that equal
polynomials store equal (den, nums); ``terms`` is its ``Fraction`` view.
All arithmetic is exact; no floats enter anywhere.

Two coefficient conventions coexist:

  raw coefficient   a_e : the number multiplying w^e,
  normalized        c_e = e! * a_e, so that  f = sum c_e/e! w^e.

Raw coefficients are stored, which keeps storage free of factorials.  No
normalized form is kept: code that works with it computes e! * a_e where it
needs it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from operator import index
from types import MappingProxyType
from typing import Collection, Iterator, Mapping, Optional, Sequence

Exponent = tuple[int, ...]

RationalLike = Fraction | int | str


# a decimal exponent of five or more digits after its leading zeros
_BIG_EXPONENT = re.compile(r"e[-+]?[0_]*(?!0)\d(?:_?\d){4}", re.IGNORECASE)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, strings like '3/7', '0.5' or '1e3', and Fractions to
    Fraction.  A decimal exponent k with |k| >= 10,000 is refused: the
    Fraction would hold a 10^|k| integer, built in time that grows about
    48-fold per decade of k."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and _BIG_EXPONENT.search(x):
        raise ValueError("a decimal exponent must lie in [-9999, 9999]")
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
    group i, in lexicographic order of the chosen positions.  A group with one
    choice (a_i = 0 or kappa_i) only extends the common tail."""
    lifts, tail = [()], ()
    for k, a in zip(kappa, e):
        parts = _ones(k, a)
        if len(parts) == 1:
            tail += parts[0]
        else:
            parts = [tail + p for p in parts]
            lifts, tail = [lift + part for lift in lifts for part in parts], ()
    return [lift + tail for lift in lifts] if tail else lifts


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
    """Homogeneous polynomial with exact rational coefficients, nums[e] / den.

    Immutable by convention: never mutate ``nums`` after construction.
    """

    __slots__ = ("nvars", "degree", "den", "nums", "_terms")

    def __init__(self, nvars: int, degree: int,
                 terms: Mapping[Sequence[int], RationalLike] | None = None):
        nvars, degree, terms = index(nvars), index(degree), terms or {}
        if nvars < 0 or degree < 0:
            raise ValueError("nvars and degree must be nonnegative")
        exps = [tuple(map(index, e)) for e in terms]
        check_exponents(exps, nvars, degree)
        # reduced Fractions scaled by the lcm of their denominators share no factor with it
        den, nums = integer_scaled([as_fraction(c) for c in terms.values()])
        self.nvars, self.degree, self.den, self._terms = nvars, degree, den, None
        self.nums = {e: c for e, c in zip(exps, nums) if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, degree: int, nums: Mapping[Exponent, int],
            den: int = 1) -> "HomogPoly":
        """The polynomial nums / den that library code built (a new dict of valid exponents
        and int numerators, den > 0): drops zeros, divides out gcd(den, nums), checks nothing."""
        p = object.__new__(cls)
        if 0 in nums.values():          # a copy costs a hash of every exponent
            nums = {e: c for e, c in nums.items() if c}
        # gcd(den, sum of nums) is a multiple of gcd(den, nums), found with one long gcd
        if den > 1 and (g := math.gcd(math.gcd(den, sum(nums.values())), *nums.values())) > 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
        p.nvars, p.degree, p.den, p.nums, p._terms = nvars, degree, den, nums, None
        return p

    @classmethod
    def _summed(cls, nvars: int, degree: int,
                parts: list[tuple[Exponent, int, int]]) -> "HomogPoly":
        """The sum of num / den w^exp over the (exp, num, den) parts, of valid
        exponents and nonzero dens, added in integers over the lcm of the dens."""
        den = math.lcm(*{d for _, _, d in parts})
        nums = {e: c * (den // d) for e, c, d in parts}
        if len(nums) < len(parts):      # an exponent repeats: add its parts
            nums = dict.fromkeys(nums, 0)
            for e, c, d in parts:
                nums[e] += c * (den // d)
        return cls._of(nvars, degree, nums, den)

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def homogenized(cls, n: int, nums: Mapping[int, int], den: int) -> "HomogPoly":
        """sum over subset masks S of nums[S] / den w^S w_0^(n-|S|): the
        homogenization of a multi-affine polynomial in w_1..w_n; degree n in
        n+1 variables, variable 0 being w_0."""
        if nums and not (0 <= min(nums) and max(nums) < 1 << n):
            raise ValueError(f"subset masks must lie in [0, 2^{n})")
        # the bits of a mask, lowest first, are those of its low half, then of its high half
        half, low_mask = n // 2, (1 << n // 2) - 1
        low, high = ([e[::-1] for e in product((0, 1), repeat=k)] for k in (half, n - half))
        return cls._of(n + 1, n, {(n - mask.bit_count(),) + low[mask & low_mask]
                                  + high[mask >> half]: c for mask, c in nums.items()}, den)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as Fractions, {e: nums[e] / den}, built on first use."""
        if self._terms is None:
            self._terms = MappingProxyType({e: Fraction(c, self.den) for e, c in self.nums.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, e: Sequence[int]) -> Fraction:
        """Raw coefficient of w^e."""
        return Fraction(self.nums.get(tuple(e), 0), self.den)

    def support(self) -> set[Exponent]:
        return set(self.nums)

    def has_nonnegative_coeffs(self) -> bool:
        return min(self.nums.values(), default=0) >= 0

    def is_multi_affine(self) -> bool:
        return max(chain.from_iterable(self.nums), default=0) <= 1

    def var_degree_caps(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the support."""
        return tuple(map(max, zip(*self.nums))) if self.nums else (0,) * self.nvars

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.degree, self.den, frozenset(self.nums.items())))

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
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("can only add polynomials of equal nvars and degree")
        return HomogPoly._summed(self.nvars, self.degree,
                                 [(e, c, p.den) for p in (self, other) for e, c in p.nums.items()])

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-1) * other if isinstance(other, HomogPoly) else NotImplemented

    def __rmul__(self, scalar: RationalLike) -> "HomogPoly":
        s = as_fraction(scalar)
        return HomogPoly._of(self.nvars, self.degree,
                             {e: s.numerator * c for e, c in self.nums.items()},
                             s.denominator * self.den)

    def __mul__(self, other: "HomogPoly | RationalLike") -> "HomogPoly":
        if not isinstance(other, HomogPoly):
            return self.__rmul__(other)
        if self.nvars != other.nvars:
            raise ValueError("can only multiply polynomials in the same variables")
        out: dict[Exponent, int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return HomogPoly._of(self.nvars, self.degree + other.degree, out, self.den * other.den)

    def __pow__(self, k: int) -> "HomogPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HomogPoly._of(self.nvars, 0, {(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

    # -- calculus -----------------------------------------------------

    def eval(self, w: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point."""
        if len(w) != self.nvars:
            raise ValueError(f"point has length {len(w)}, expected {self.nvars}")
        # with u = scale * w in integers, f(w) = f(u) / scale^d
        scale, u = integer_scaled([as_fraction(x) for x in w])
        total = sum(c * math.prod(map(pow, u, e)) for e, c in self.nums.items())
        return Fraction(total, self.den * scale ** self.degree)

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
        for e, c in self.nums.items():
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
        return HomogPoly._of(self.nvars, self.degree - a, out, self.den)

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
