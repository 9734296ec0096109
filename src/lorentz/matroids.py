"""Matroids by explicit basis lists, their Lorentzian polynomials, and
zonotope volume polynomials.

Ground set elements are 0-based indices 0..n-1; subsets are encoded as
bitmasks internally.  The 2^n subset constructions read a rank table built
once per call in O(2^n * n) steps: the independent sets are the downward
closure of the bases, and a dependent set has the largest rank of its
one-smaller subsets.  A single ``rank`` query scans the basis list.  Both
suit the desk scale (n up to a dozen or so) this library targets.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import Iterable, Sequence

from .mconvex import PointSet, is_matroid_basis_family
from .mmatrix import bareiss_determinant
from .poly import Exponent, HomogPoly, RationalLike, as_fraction, first_ulc_failure


class ExchangeError(ValueError):
    """Raised when a family of sets fails the basis exchange property."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def _mask(subset: Iterable[int], n: int) -> int:
    m = 0
    for i in subset:
        i = index(i)
        if not 0 <= i < n:
            raise ValueError(f"element {i} out of range for ground set of size {n}")
        m |= 1 << i
    return m


def _unmask(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


class Matroid:
    """Matroid on {0..n-1} given by its validated set of bases."""

    __slots__ = ("n", "bases", "rank_full")

    def __init__(self, n: int, basis_masks: Sequence[int]):
        if not basis_masks:
            raise ValueError("a matroid needs at least one basis")
        self.n = n
        self.bases = tuple(sorted(set(basis_masks)))
        self.rank_full = bin(self.bases[0]).count("1")

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return (self.n, self.bases) == (other.n, other.bases)

    def __repr__(self):
        return f"Matroid({self.n}, {[_unmask(b, self.n) for b in self.bases]})"

    def basis_sets(self) -> list[tuple[int, ...]]:
        return [_unmask(b, self.n) for b in self.bases]


def matroid_from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Validate the exchange property and build the matroid.

    Rejects empty or mixed-cardinality families and returns the violating
    pair inside the raised ExchangeError otherwise.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    masks = [_mask(b, n) for b in bases]
    if not masks:
        raise ExchangeError("a matroid needs at least one basis")
    sizes = {bin(m).count("1") for m in masks}
    if len(sizes) != 1:
        raise ExchangeError(f"bases have mixed cardinalities {sorted(sizes)}")
    points = PointSet(n, sizes.pop(),
                      [tuple(1 if m >> i & 1 else 0 for i in range(n)) for m in masks])
    ok, wit = is_matroid_basis_family(points)
    if not ok:
        alpha, beta, i = wit
        a = tuple(k for k in range(n) if alpha[k])
        b = tuple(k for k in range(n) if beta[k])
        raise ExchangeError(f"exchange fails for bases {a}, {b} at element {i}",
                            witness=(a, b, i))
    return Matroid(n, masks)


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """rk(A) = max over bases B of |A and B|."""
    return _rank_mask(m, _mask(subset, m.n))


def _rank_mask(m: Matroid, mask: int) -> int:
    return max(bin(mask & b).count("1") for b in m.bases)


def _independent_flags(m: Matroid) -> bytearray:
    """flags[S] is 1 exactly when the mask S is independent: the downward
    closure of the bases, filled from the largest mask down."""
    flags = bytearray(1 << m.n)
    for b in m.bases:
        flags[b] = 1
    for mask in range(len(flags) - 1, 0, -1):
        if flags[mask]:
            rest = mask
            while rest:
                low = rest & -rest
                flags[mask ^ low] = 1
                rest ^= low
    return flags


def _rank_table(m: Matroid) -> list[int]:
    """rank[S] for every mask S: |S| when S is independent, and otherwise the
    largest rank[S - i] over the elements i of S."""
    flags = _independent_flags(m)
    ranks = [0] * len(flags)
    for mask in range(1, len(flags)):
        if flags[mask]:
            ranks[mask] = mask.bit_count()
        else:
            best, rest = 0, mask
            while rest:
                low = rest & -rest
                r = ranks[mask ^ low]
                if r > best:
                    best = r
                rest ^= low
            ranks[mask] = best
    return ranks


def independent_set_masks(m: Matroid) -> list[int]:
    return [mask for mask, flag in enumerate(_independent_flags(m)) if flag]


def independence_counts(m: Matroid) -> list[int]:
    """I_k = number of independent k-subsets, for k = 0..rank."""
    counts = [0] * (m.rank_full + 1)
    for mask in independent_set_masks(m):
        counts[bin(mask).count("1")] += 1
    return counts


def basis_generating_poly(m: Matroid) -> HomogPoly:
    """Multi-affine sum of w^B over the bases."""
    return HomogPoly._of(m.n, m.rank_full, dict.fromkeys(
        (tuple(1 if b >> i & 1 else 0 for i in range(m.n)) for b in m.bases), Fraction(1)))


def potts_poly(m: Matroid, q: RationalLike) -> HomogPoly:
    """Homogeneous multivariate Tutte polynomial
    sum over subsets A of q^(-rk A) w^A w_0^(n-|A|); degree n in n+1 variables."""
    qf = as_fraction(q)
    if qf <= 0:
        raise ValueError("q must be positive")
    weights = [qf ** -r for r in range(m.rank_full + 1)]
    return HomogPoly.homogenized(
        m.n, {mask: weights[r] for mask, r in enumerate(_rank_table(m))})


def independent_set_poly(m: Matroid) -> HomogPoly:
    """sum over independent A of w^A w_0^(n-|A|); degree n in n+1 variables."""
    return HomogPoly.homogenized(m.n, dict.fromkeys(independent_set_masks(m), Fraction(1)))


def normalize_counts(counts: Sequence[int], n: int) -> list[Fraction]:
    """counts[k] / C(n, k) for each k."""
    return [Fraction(c, math.comb(n, k)) for k, c in enumerate(counts)]


def mason_check(m: Matroid) -> bool:
    """Exact ultra log-concavity of the independence counts:
    I_k^2 / C(n,k)^2 >= (I_{k+1}/C(n,k+1)) (I_{k-1}/C(n,k-1)) for 0 < k < rank."""
    return first_ulc_failure(independence_counts(m), m.n) is None


def _rank_size_counts(m: Matroid) -> Counter:
    """The number of subsets of each (rank, size)."""
    return Counter((r, mask.bit_count()) for mask, r in enumerate(_rank_table(m)))


def tutte(m: Matroid, x: RationalLike, y: RationalLike) -> Fraction:
    """Subset expansion sum over A of (x-1)^(rk E - rk A) (y-1)^(|A| - rk A)."""
    xf, yf = as_fraction(x), as_fraction(y)
    rfull = m.rank_full
    counts = _rank_size_counts(m)
    return sum((c * (xf - 1) ** (rfull - r) * (yf - 1) ** (k - r)
                for (r, k), c in counts.items()), Fraction(0))


def tutte_section(m: Matroid, q: RationalLike) -> list[Fraction]:
    """Coefficients c_q^k = sum over |A| = k of q^(rk E - rk A), k = 0..n.

    These are the coefficients of w^rk(E) T(1 + q/w, 1 + w); the sequence is
    ultra log-concave for 0 <= q <= 1.
    """
    qf = as_fraction(q)
    if not 0 <= qf <= 1:
        raise ValueError("q must lie in [0, 1]")
    rfull = m.rank_full
    out = [Fraction(0)] * (m.n + 1)
    for (r, k), c in _rank_size_counts(m).items():
        out[k] += c * qf ** (rfull - r)
    return out


def cycle_matroid(num_vertices: int, edges: Sequence[Sequence[int]]) -> Matroid:
    """Cycle matroid of a graph: bases are the maximal spanning forests.

    Loops and parallel edges are allowed; elements are edge indices.
    """
    if num_vertices < 0:
        raise ValueError(f"vertices must be nonnegative, got {num_vertices}")
    m = len(edges)
    pairs = []
    for e in edges:
        u, v = index(e[0]), index(e[1])
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge {e} out of range")
        pairs.append((u, v))

    def forest_rank(subset: Sequence[int]) -> int:
        parent = list(range(num_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for idx in subset:
            u, v = pairs[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    full_rank = forest_rank(range(m))
    bases = []
    for subset in combinations(range(m), full_rank):
        if forest_rank(subset) == full_rank:
            bases.append(_mask(subset, m))
    return Matroid(m, bases)


def zonotope_volume_poly(vectors: Sequence[Sequence[RationalLike]]) -> HomogPoly:
    """Volume polynomial of a Minkowski sum of line segments:
    sum over d-subsets S of |det(v_S)| w^S, multi-affine of degree d."""
    if not vectors:
        raise ValueError("need at least one vector")
    d = len(vectors[0])
    vecs = [[as_fraction(x) for x in v] for v in vectors]
    if any(len(v) != d for v in vecs):
        raise ValueError("vectors have mixed dimensions")
    n = len(vecs)
    terms: dict[Exponent, Fraction] = {}
    for subset in combinations(range(n), d):
        det = bareiss_determinant([vecs[i] for i in subset])
        if det != 0:
            e = [0] * n
            for i in subset:
                e[i] = 1
            terms[tuple(e)] = abs(det)
    return HomogPoly._of(n, d, terms)


def uniform_matroid(d: int, n: int) -> Matroid:
    """U_{d,n}: every d-subset of [n] is a basis."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return Matroid(n, [_mask(s, n) for s in combinations(range(n), d)])
