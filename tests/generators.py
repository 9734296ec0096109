"""Seeded random generators and fixture builders shared by the tests.

Every generator takes an explicit random.Random, or a seed, so each test
pins its seed.  The M-convex generators build separable-convex values on a
box slice of the simplex, or a linear function on the bases or homogenized
independent sets of a small matroid (both provably M-convex), and re-verify
through the checker.  ``uniform_matroid``, ``matroid_measures`` and
``polarize_fn`` build fixed fixtures: U_{d,n}, the uniform measures on a
matroid's independent sets and bases, and the multi-affine lift of a
discrete function.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from lorentz import (DiscreteFunction, HomogPoly, Matroid, Measure,
                     SquareMatrix, SymMatrix, basis_generating_poly,
                     cycle_matroid, generating_poly_f, independent_set_poly,
                     is_m_convex_function)
from lorentz.matroids import independent_set_masks
from lorentz.poly import Exponent, RationalLike, as_fraction, multi_affine_lifts, simplex

from poly_oracles import linear_form


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5,
                    max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_positive_fraction(rng: random.Random, hi: int = 5,
                             max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den))


def random_symmetric(rng: random.Random, n: int, bound: int = 5) -> SymMatrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = random_fraction(rng, -bound, bound)
    return SymMatrix(rows)


def random_nonsingular(rng: random.Random, n: int) -> list[list[Fraction]]:
    # unit lower times unit upper triangular with a nonzero diagonal scale
    lower = [[Fraction(1) if i == j else
              (random_fraction(rng, -2, 2) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.choice([1, 2, -1])) if i == j else
              (random_fraction(rng, -2, 2) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def random_homog(rng: random.Random, n: int, d: int, density: float = 0.7,
                 nonneg: bool = False) -> HomogPoly:
    terms = {}
    for e in simplex(n, d):
        if rng.random() < density:
            c = (random_positive_fraction(rng) if nonneg else random_fraction(rng))
            if c:
                terms[e] = c
    return HomogPoly(n, d, terms)


def random_multiaffine(rng: random.Random, n: int, d: int) -> HomogPoly:
    """Positive coefficients on a nonempty random set of the d-subsets of n
    variables: every exponent is 0 or 1."""
    if not 0 <= d <= n:
        raise ValueError(f"a multi-affine polynomial of degree d={d} "
                         f"needs 0 <= d <= n={n} variables")
    subsets = list(combinations(range(n), d))
    chosen = rng.sample(subsets, rng.randint(1, len(subsets)))
    return HomogPoly(n, d, {tuple(int(i in s) for i in range(n)): random_positive_fraction(rng)
                            for s in chosen})


def random_m_convex_function(rng: random.Random, n: int, d: int) -> DiscreteFunction:
    """Separable convex integer values on a box slice of the simplex."""
    tables = []
    for _ in range(n):
        steps = sorted(rng.randint(-3, 3) for _ in range(d))
        g = [0]
        for s in steps:
            g.append(g[-1] + s)
        tables.append(g)
    lo = [rng.randint(0, 1) for _ in range(n)]
    hi = [rng.randint(max(1, d - 1), d) for _ in range(n)]
    values = {a: sum(tables[i][a[i]] for i in range(n))
              for a in simplex(n, d)
              if all(lo[i] <= a[i] <= hi[i] for i in range(n))}
    if not values:
        values = {a: sum(tables[i][a[i]] for i in range(n)) for a in simplex(n, d)}
    nu = DiscreteFunction(n, d, values)
    ok, wit = is_m_convex_function(nu)
    assert ok, f"generator produced a non-M-convex function: {wit}"
    return nu


def random_matroid_m_convex_function(rng: random.Random) -> DiscreteFunction:
    """A linear function plus the indicator of an M-convex support that need
    not be a box slice: the bases of a small matroid, or its independent sets
    homogenized (the support of ``independent_set_poly``)."""
    m = random_small_matroid(rng)
    support = basis_generating_poly(m) if rng.randrange(2) else independent_set_poly(m)
    slope = [rng.randint(-3, 3) for _ in range(support.nvars)]
    nu = DiscreteFunction(support.nvars, support.degree,
                          {a: sum(c * k for c, k in zip(slope, a)) for a in support.terms})
    ok, wit = is_m_convex_function(nu)
    assert ok, f"generator produced a non-M-convex function: {wit}"
    return nu


def random_small_matroid(rng: random.Random, max_n: int = 4) -> Matroid:
    if rng.randrange(2):
        n = rng.randint(1, max_n)
        d = rng.randint(0, n)
        return uniform_matroid(d, n)
    v = rng.randint(2, 4)
    possible = list(combinations(range(v), 2))
    m = rng.randint(1, min(4, len(possible)))
    return cycle_matroid(v, rng.sample(possible, m))


def uniform_matroid(d: int, n: int) -> Matroid:
    """U_{d,n}: every d-subset of [n] is a basis."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return Matroid(n, [sum(1 << i for i in s) for s in combinations(range(n), d)])


def matroid_measures(m: Matroid) -> tuple[Measure, Measure]:
    """(uniform on independent sets, uniform on bases)."""
    ind = independent_set_masks(m)
    mu = Measure(m.n, {mask: Fraction(1, len(ind)) for mask in ind})
    nu = Measure(m.n, {mask: Fraction(1, len(m.bases)) for mask in m.bases})
    return mu, nu


def polarize_fn(nu: DiscreteFunction) -> DiscreteFunction:
    """Multi-affine lift of nu to n*d variables (i, j), flattened as i*d + j:
    the value nu(phi(x)) at each 0/1 point x, phi sending e_(i,j) to e_i."""
    n, d = nu.nvars, nu.degree
    out: dict[Exponent, Fraction] = {}
    for p, v in nu.values.items():
        out.update(dict.fromkeys(multi_affine_lifts((d,) * n, p), v))
    return DiscreteFunction(n * d, d, out)


def random_m_matrix(n: int, seed: int, slack: RationalLike = 0) -> SquareMatrix:
    """Seeded diagonally dominant M-matrix: A = (s + slack) I - B for a random
    nonnegative B with s its maximum row sum; positive slack makes A
    nonsingular (strictly diagonally dominant)."""
    rng = random.Random(seed)
    b = [[Fraction(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(n)]
         for _ in range(n)]
    s = (max(sum(row) for row in b) if n else Fraction(0)) + as_fraction(slack)
    return SquareMatrix([[(s if i == j else 0) - b[i][j] for j in range(n)]
                         for i in range(n)])


def random_nonneg_matrix(rng: random.Random, rows: int, cols: int,
                         hi: int = 3) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(0, hi), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def random_doubly_substochastic(rng: random.Random, n: int, parts: int = 4) -> SquareMatrix:
    """Convex combination of ``parts`` partial permutation matrices."""
    weights = [Fraction(rng.randint(1, 10)) for _ in range(parts)]
    total = sum(weights)
    out = [[Fraction(0)] * n for _ in range(n)]
    for w in weights:
        cols = list(range(n))
        rng.shuffle(cols)
        for i in range(n):
            if rng.randrange(2):
                out[i][cols[i]] += w / total
    return SquareMatrix(out)


def random_lorentzian_input(rng: random.Random) -> HomogPoly:
    """Products of nonnegative linear forms, matroid generating polynomials,
    or generating polynomials of random M-convex functions."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(2, 3)
        out = HomogPoly(n, 0, {(0,) * n: 1})
        for _ in range(rng.randint(1, 3)):
            coeffs = [Fraction(rng.randint(0, 3)) for _ in range(n)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(n)] = Fraction(1)
            out = out * linear_form(coeffs)
        return out
    if kind == 1:
        return basis_generating_poly(random_small_matroid(rng))
    nu = random_m_convex_function(rng, rng.randint(2, 3), rng.randint(1, 3))
    q = rng.choice([Fraction(1, 10), Fraction(1, 2), Fraction(1)])
    return generating_poly_f(nu, q)


def with_one_scaled(rng: random.Random, f: HomogPoly, s: Fraction) -> HomogPoly:
    """f with the coefficient of one of its exponents multiplied by s."""
    if not f.terms:
        return f
    e = rng.choice(sorted(f.terms))
    return HomogPoly(f.nvars, f.degree, {**f.terms, e: f.terms[e] * s})
