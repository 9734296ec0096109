"""Exact inertia (signature) of rational symmetric matrices.

By Sylvester's law of inertia, congruent matrices have the same inertia.
The matrix is scaled to integers and reduced by symmetric fraction-free
(Bareiss) elimination: each step pivots on a nonzero diagonal entry, counts
one positive or one negative eigenvalue by its sign relative to the previous
pivot, and leaves the Schur complement times that pivot, still in integers.
Zero rows and columns count as zero eigenvalues and are dropped.  When the
whole remaining diagonal is zero, the congruence "row and column p += row
and column q" turns a nonzero a_pq into the pivot 2 a_pq.  Before each pivot,
a strictly diagonally dominant live block B ends the elimination.  B is the
previous pivot times the Schur complement, and diag(B) + t (B - diag(B))
stays strictly dominant, hence nonsingular (Levy-Desplanques), for t in
[0, 1], so B has the signs of its diagonal.  O(n^3) integer operations in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .mmatrix import SquareMatrix
from .poly import RationalLike, integer_scaled


class SymMatrix(SquareMatrix):
    """Immutable n x n rational symmetric matrix."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        super().__init__(rows)
        ent = self.entries
        # tuple equality skips entries shared by (i, j) and (j, i)
        if ent != tuple(zip(*ent)):
            i, j = next((i, j) for i in range(self.n) for j in range(i + 1, self.n)
                        if ent[i][j] != ent[j][i])
            raise ValueError(f"asymmetric at ({i},{j}): {ent[i][j]} != {ent[j][i]}")


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (n_plus, n_minus, n_zero), with multiplicity."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def inertia(m: SymMatrix) -> Inertia:
    """Exact eigenvalue sign counts of a rational symmetric matrix."""
    # the matrix times the lcm of its denominators: the same eigenvalue signs
    n, flat = m.n, integer_scaled([x for row in m.entries for x in row])[1]
    return _inertia_rows([flat[i * n:(i + 1) * n] for i in range(n)], n)


def _inertia_rows(a: list[list[int]], n: int) -> Inertia:
    """Sign counts of the symmetric integer matrix whose first len(a) rows
    are the square ``a``, eliminated in place until the live block is strictly
    diagonally dominant, and whose other n - len(a) rows and columns are zero."""
    # the rows and columns not yet eliminated; a zero row and column only
    # adds a zero eigenvalue
    live = [i for i, row in enumerate(a) if any(row)]
    counts = [0, 0, n - len(live)]     # n_plus, n_minus, n_zero
    prev = 1
    while live:
        # a strictly dominant block has the signs of its diagonal, relative to
        # prev; a zero diagonal fails before its row is summed
        for i in live:
            row = a[i]
            if not row[i] or 2 * abs(row[i]) <= sum(map(abs, map(row.__getitem__, live))):
                break
        else:
            for i in live:
                counts[(a[i][i] > 0) != (prev > 0)] += 1
            break
        p = live[0] if a[live[0]][live[0]] else next((i for i in live if a[i][i]), None)
        if p is None:
            # zero diagonal: row and column p += row and column q make a_pp = 2 a_pq
            p = live[0]
            q = next(j for j in live if a[p][j])
            for j in live:
                a[p][j] += a[q][j]
            for i in live:
                a[i][p] += a[i][q]
        piv = a[p][p]
        counts[(piv > 0) != (prev > 0)] += 1    # the sign of piv / prev
        # Bareiss step on the Schur complement of a_pp: each entry is a minor of
        # the integer matrix (Sylvester's identity), so the division is exact,
        # and skipped when prev = 1, as in the first step
        live.remove(p)
        ap = a[p]
        nonzero = [False] * len(a)      # the rows given a nonzero entry
        for r, i in enumerate(live):
            ri, rp = a[i], ap[i]
            for j in live[r:]:
                x = piv * ri[j] - rp * ap[j]
                if prev != 1:
                    x, rem = divmod(x, prev)
                    if rem:
                        raise ArithmeticError(f"inexact Bareiss division by {prev}")
                if x:
                    nonzero[i] = nonzero[j] = True
                ri[j] = a[j][i] = x
        # the update wrote every live entry: the rows it left zero drop out
        kept = [i for i in live if nonzero[i]]
        counts[2] += len(live) - len(kept)
        live = kept
        prev = piv
    if sum(counts) != n:
        raise ArithmeticError(f"sign counts {counts} do not sum to {n}")
    return Inertia(*counts)

