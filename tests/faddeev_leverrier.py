"""Second inertia oracle: the characteristic polynomial by Faddeev-LeVerrier,
with the positive and negative roots counted by Descartes' rule of signs.

Descartes' rule gives only an upper bound in general, but it is exact here:
symmetric matrices are real-rooted, and for real-rooted polynomials the
bound is attained.  This is O(n^4) big-integer work, against the O(n^3)
elimination in ``lorentz.inertia``; the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from lorentz.inertia import Inertia, SymMatrix


def _integer_scaled(m: SymMatrix) -> tuple[list[list[int]], int]:
    # The matrix times the positive lcm of its denominators, and that lcm.
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    return [[int(x * scale) for x in row] for row in m.entries], scale


def char_poly(m: SymMatrix) -> list[Fraction]:
    """Coefficients [c_0=1, c_1, ..., c_n] of det(tI - M) = sum c_k t^(n-k).

    Computed on the integer matrix sM, whose coefficients are s^k c_k.
    """
    a, scale = _integer_scaled(m)
    return [Fraction(c, scale ** k) for k, c in enumerate(_char_poly_int(a))]


def _char_poly_int(a: list[list[int]]) -> list[int]:
    # Faddeev-LeVerrier recurrence over the integers; the divisions by k are
    # exact because the c_k are characteristic polynomial coefficients.
    n = len(a)
    coeffs = [1]
    mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        if k > 1:
            # M_k = A*M_{k-1} + c_{k-1} I
            prod = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)]
            for i in range(n):
                prod[i][i] += coeffs[-1]
            mk = prod
        trace = sum(sum(a[i][t] * mk[t][i] for t in range(n)) for i in range(n))
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError(f"trace {-trace} not divisible by {k}")
        coeffs.append(q)
    return coeffs


def _sign_changes(seq: list[int]) -> int:
    signs = [1 if x > 0 else -1 for x in seq if x != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def char_poly_inertia(m: SymMatrix) -> Inertia:
    """Eigenvalue sign counts read off the characteristic polynomial."""
    n = m.n
    if n == 0:
        return Inertia(0, 0, 0)
    coeffs = _char_poly_int(_integer_scaled(m)[0])
    # multiplicity of the zero eigenvalue = trailing zero coefficients
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    # p(t) with the zero roots stripped; real-rooted, so Descartes is exact
    n_plus = _sign_changes(coeffs)
    neg = [c if (len(coeffs) - 1 - k) % 2 == 0 else -c for k, c in enumerate(coeffs)]
    n_minus = _sign_changes(neg)
    if n_plus + n_minus + n_zero != n:
        raise ArithmeticError(f"sign counts {n_plus}+{n_minus}+{n_zero} do not sum to {n}")
    return Inertia(n_plus, n_minus, n_zero)
