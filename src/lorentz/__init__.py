"""Exact-arithmetic toolkit for Lorentzian polynomials.

Certifies the Lorentzian property of homogeneous polynomials with rational
coefficients, builds Lorentzian polynomials from matroids, M-convex
functions, and M-matrices, applies Lorentzian-preserving operators, and
tests negative dependence of discrete measures.  Everything decision-level
is exact; sampling-based falsifiers say so.
"""

from .certify import (Certificate, RayleighWitness, hodge_riemann_many,
                      is_lorentzian, is_strictly_lorentzian, rayleigh_check_at,
                      rayleigh_falsify)
from .inertia import Inertia, SymMatrix, inertia
from .matroids import (ExchangeError, Matroid, basis_generating_poly,
                       cycle_matroid, independence_counts,
                       independent_set_poly, matroid_from_bases, potts_poly,
                       tutte, tutte_section, zonotope_volume_poly)
from .mconvex import (DiscreteFunction, PointSet, generating_poly_f,
                      generating_poly_g, is_m_convex_function,
                      is_m_convex_set, regularize)
from .measures import (Measure, NegativeDependenceReport, exclusion_evolution,
                       external_field, is_lorentzian_measure,
                       negative_dependence_report, partition_homogenized)
from .mmatrix import (SquareMatrix, char_poly_multivariate, is_m_matrix,
                      principal_minor)
from .operators import (OperatorTable, apply_operator, coefficient_power,
                        exclusion_step, multi_affine_part, normalize,
                        nuij_transform, polarize, project, symbol)
from .poly import HomogPoly, simplex

__version__ = "0.1.0"

__all__ = [
    "Certificate", "DiscreteFunction", "ExchangeError", "HomogPoly",
    "Inertia", "Matroid", "Measure", "NegativeDependenceReport",
    "OperatorTable", "PointSet", "RayleighWitness", "SquareMatrix",
    "SymMatrix", "apply_operator", "basis_generating_poly",
    "char_poly_multivariate", "coefficient_power", "cycle_matroid",
    "exclusion_evolution", "exclusion_step", "external_field",
    "generating_poly_f", "generating_poly_g", "hodge_riemann_many",
    "independence_counts", "independent_set_poly", "inertia",
    "is_lorentzian", "is_lorentzian_measure", "is_m_convex_function",
    "is_m_convex_set", "is_m_matrix", "is_strictly_lorentzian",
    "matroid_from_bases", "multi_affine_part", "negative_dependence_report",
    "normalize", "nuij_transform", "partition_homogenized", "polarize",
    "potts_poly", "principal_minor", "project", "rayleigh_check_at",
    "rayleigh_falsify", "regularize", "simplex", "symbol", "tutte",
    "tutte_section", "zonotope_volume_poly",
]
