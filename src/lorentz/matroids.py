"""Matroids by explicit basis lists, their Lorentzian polynomials, and
zonotope volume polynomials.

Ground set elements are 0-based indices 0..n-1; subsets are encoded as
bitmasks internally.  The 2^n subset constructions read one rank table per
matroid, kept once built: from the bases by greedy extension, O(1) per mask,
or for a graph by a DP over its edge sets (``ranked_cycle_matroid``).  The
independent sets are the masks whose rank is their size.  All suit the desk
scale (n up to a dozen or so).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import Iterable, Sequence

from .mconvex import PointSet, is_m_convex_set
from .mmatrix import bareiss_determinant
from .poly import HomogPoly, RationalLike, as_fraction, integer_scaled


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
    """Matroid on {0..n-1} given by its validated bases; keeps its rank table."""

    __slots__ = ("n", "bases", "rank_full", "_ranks")

    def __init__(self, n: int, basis_masks: Sequence[int], ranks: list[int] | None = None):
        if not basis_masks:
            raise ValueError("a matroid needs at least one basis")
        self.n = n
        self.bases = tuple(sorted(set(basis_masks)))
        self.rank_full = bin(self.bases[0]).count("1")
        self._ranks = ranks

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
    ok, wit = is_m_convex_set(points)
    if not ok:
        alpha, beta, i = wit
        a = tuple(k for k in range(n) if alpha[k])
        b = tuple(k for k in range(n) if beta[k])
        raise ExchangeError(f"exchange fails for bases {a}, {b} at element {i}",
                            witness=(a, b, i))
    return Matroid(n, masks)


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
    """rank[S] for every mask S, built once by greedy extension: with I a maximal
    independent subset of S - t (t = max S), I + t if independent, else I, is one of S."""
    if m._ranks is None:
        flags = _independent_flags(m)
        sub, ranks = [0], [0]       # per mask: such an I, and its size
        for t in range(m.n):
            bit = 1 << t
            grow = [flags[s | bit] for s in sub]
            sub += [s | bit if g else s for s, g in zip(sub, grow)]
            ranks += [r + g for r, g in zip(ranks, grow)]
        m._ranks = ranks
    return m._ranks


def independent_set_masks(m: Matroid) -> list[int]:
    return [mask for mask, r in enumerate(_rank_table(m)) if r == mask.bit_count()]


def independence_counts(m: Matroid) -> list[int]:
    """I_k = number of independent k-subsets, for k = 0..rank."""
    counts = [0] * (m.rank_full + 1)
    for mask in independent_set_masks(m):
        counts[mask.bit_count()] += 1
    return counts


def basis_generating_poly(m: Matroid) -> HomogPoly:
    """Multi-affine sum of w^B over the bases."""
    return HomogPoly._of(m.n, m.rank_full, dict.fromkeys(
        (tuple(1 if b >> i & 1 else 0 for i in range(m.n)) for b in m.bases), 1))


def potts_poly(m: Matroid, q: RationalLike) -> HomogPoly:
    """Homogeneous multivariate Tutte polynomial
    sum over subsets A of q^(-rk A) w^A w_0^(n-|A|); degree n in n+1 variables."""
    qf = as_fraction(q)
    if qf <= 0:
        raise ValueError("q must be positive")
    den, weights = integer_scaled([qf ** -r for r in range(m.rank_full + 1)])
    return HomogPoly.homogenized(
        m.n, {mask: weights[r] for mask, r in enumerate(_rank_table(m))}, den)


def independent_set_poly(m: Matroid) -> HomogPoly:
    """sum over independent A of w^A w_0^(n-|A|); degree n in n+1 variables."""
    return HomogPoly.homogenized(m.n, dict.fromkeys(independent_set_masks(m), 1), 1)


def normalize_counts(counts: Sequence[int], n: int) -> list[Fraction]:
    """counts[k] / C(n, k) for each k."""
    return [Fraction(c, math.comb(n, k)) for k, c in enumerate(counts)]


def _rank_size_counts(m: Matroid) -> Counter:
    """The number of subsets of each (rank, size)."""
    return Counter(zip(_rank_table(m), map(int.bit_count, range(1 << m.n))))


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


def _edge_pairs(num_vertices: int, edges: Sequence[Sequence[int]]
                ) -> tuple[int, list[tuple[int, int]]]:
    """The number k of vertices that edges touch, and the edges as pairs of
    their labels 0..k-1 in vertex order; each endpoint is checked first."""
    if num_vertices < 0:
        raise ValueError(f"vertices must be nonnegative, got {num_vertices}")
    pairs = []
    for e in edges:
        u, v = index(e[0]), index(e[1])
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge {e} out of range")
        pairs.append((u, v))
    code = {x: k for k, x in enumerate(sorted({x for e in pairs for x in e}))}
    return len(code), [(code[u], code[v]) for u, v in pairs]


def cycle_matroid(num_vertices: int, edges: Sequence[Sequence[int]]) -> Matroid:
    """Cycle matroid of a graph: bases are the maximal spanning forests.

    Loops and parallel edges are allowed; elements are edge indices.
    """
    touched, pairs = _edge_pairs(num_vertices, edges)
    m = len(pairs)

    def forest_rank(subset: Sequence[int]) -> int:
        parent = list(range(touched))

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


def ranked_cycle_matroid(num_vertices: int, edges: Sequence[Sequence[int]]) -> Matroid:
    """``cycle_matroid`` with its rank table, filled over all 2^m edge sets:
    rank S = rank (S - e) + 1 when the top edge e of S joins two components of
    S - e, whose labels are a bytes string over the vertices edges touch."""
    touched, pairs = _edge_pairs(num_vertices, edges)
    if touched > 256:           # a label is one byte; 2^m masks could not be held anyway
        raise ValueError(f"{touched} vertices touched by {len(pairs)} edges, more than 256")
    labels, ranks = [bytes(range(touched))], [0]
    for u, v in pairs:
        half = len(labels)
        labels += [lab.replace(lab[u:u + 1], lab[v:v + 1]) if lab[u] != lab[v] else lab
                   for lab in labels]
        # a merge makes a new bytes object; an edge that joins nothing keeps the old one
        ranks += [r + (old is not new) for r, old, new in zip(ranks, labels, labels[half:])]
    full = ranks[-1]        # the bases are the masks of full rank and size
    return Matroid(len(pairs), [mask for mask, r in enumerate(ranks)
                                if r == full and mask.bit_count() == full], ranks)


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
    parts = []
    for subset in combinations(range(n), d):
        det = bareiss_determinant([vecs[i] for i in subset])
        if det != 0:
            e = [0] * n
            for i in subset:
                e[i] = 1
            parts.append((tuple(e), abs(det.numerator), det.denominator))
    return HomogPoly._summed(n, d, parts)
