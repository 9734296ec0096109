"""M-matrix recognition and the multivariate characteristic polynomial.

An M-matrix has nonpositive off-diagonal entries and nonnegative principal
minors.  Its multivariate characteristic polynomial
det(w_0 I + diag(w_1..w_n) A) expands as the sum of A_S w^S w_0^(n-|S|)
over subsets S, where A_S is the principal minor on S.

All 2^n minors come from one Bareiss walk over the subsets
(``_principal_minors``), each extending the elimination one element smaller.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

from .poly import HomogPoly, RationalLike, as_fraction, integer_scaled


class SquareMatrix:
    """Immutable n x n rational matrix, not necessarily symmetric."""

    __slots__ = ("n", "entries")

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        n = len(rows)
        ent = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        for row in ent:
            if len(row) != n:
                raise ValueError("matrix is not square")
        self.n = n
        self.entries = ent

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"SquareMatrix({[list(map(str, row)) for row in self.entries]})"


def bareiss_determinant(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Rational input is scaled row-wise to integers first; the scaling is
    divided back out at the end.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = []
    scale = Fraction(1)
    for row in rows:
        frow = [as_fraction(x) for x in row]
        if len(frow) != n:
            raise ValueError("matrix is not square")
        den, ints = integer_scaled(frow)
        scale *= den
        work.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for r in range(k + 1, n):
                if work[r][k] != 0:
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return Fraction(sign * work[n - 1][n - 1], 1) / scale


def principal_minor(a: SquareMatrix, subset: Iterable[int]) -> Fraction:
    """det of the S x S principal submatrix; the empty minor is 1."""
    keep = sorted(set(map(index, subset)))
    if keep and (keep[0] < 0 or keep[-1] >= a.n):
        raise ValueError(f"subset {keep} out of range for n={a.n}")
    return bareiss_determinant([[a.entries[i][j] for j in keep] for i in keep])


def _principal_minors(a: SquareMatrix) -> list[Fraction]:
    """Every principal minor of a, indexed by subset mask (bit i for row i).

    The rows are scaled to integers B once.  A depth-first walk adds the
    elements in increasing order and keeps, at each node S, the bordered
    determinants det B[S+i, S+j] for i, j > max S.  A child S+p reads its
    minor as the pivot at (p, p) and gets its own table from Sylvester's
    identity, one exact division by det B[S] per entry.  Below a zero pivot
    the identity does not apply, and that subtree falls back to
    ``principal_minor``.
    """
    n = a.n
    scaled = [integer_scaled(row) for row in a.entries]
    minors = [Fraction(1)] * (1 << n)

    def walk(mask: int, first: int, det: int, scale: int, table: list[list[int]]) -> None:
        # table[i][j] = det B[S + (first+i), S + (first+j)], where det = det B[S]
        for k, row in enumerate(table):
            p = first + k
            pivot, child, child_scale = row[k], mask | 1 << p, scale * scaled[p][0]
            minors[child] = Fraction(pivot, child_scale)
            if pivot:
                walk(child, p + 1, pivot, child_scale,
                     [[(x * pivot - r[k] * y) // det for x, y in zip(r[k + 1:], row[k + 1:])]
                      for r in table[k + 1:]])
            else:
                for rest in range(1, 1 << (n - p - 1)):
                    sub = child | rest << (p + 1)
                    minors[sub] = principal_minor(a, [i for i in range(n) if sub >> i & 1])

    walk(0, 0, 1, 1, [row for _, row in scaled])
    return minors


def is_m_matrix(a: SquareMatrix) -> bool:
    """Nonpositive off-diagonal entries and all 2^n - 1 principal minors >= 0."""
    n = a.n
    for i in range(n):
        for j in range(n):
            if i != j and a.entries[i][j] > 0:
                return False
    return all(m >= 0 for m in _principal_minors(a))


def char_poly_multivariate(a: SquareMatrix) -> HomogPoly:
    """det(w_0 I + diag(w_1..w_n) A) as a degree-n polynomial in n+1 variables.

    Built from the 2^n principal minors; variable 0 is the homogenizing w_0.
    """
    den, nums = integer_scaled(_principal_minors(a))
    return HomogPoly.homogenized(a.n, dict(enumerate(nums)), den)

