"""Exact-arithmetic inverse systems of arc ideals of double points.

The package computes graded pieces of the Macaulay inverse system of the arc
ideal of a double point by exact rational kernel extraction, builds the
Wronskian / Hankel / triangular minor spans that describe the same spaces,
and cross-checks the two descriptions together with the truncated dimension
series (n+1)^(h+1).
"""

__version__ = "0.1.0"

from .ring import (
    E,
    Monomial,
    ONE,
    Polynomial,
    PolynomialSyntaxError,
    Variable,
    ZERO,
    al,
    differential_variables,
    format_polynomial,
    parse,
    x,
    xi,
    y,
)
from .pairing import (
    apply_pairing,
    directional_derivative,
    double_derivative_vanishes,
)
from .arcgen import ArcGeneratorKey, arc_generator, arc_generators_up_to
from .linalg import MonomialIndex, RationalMatrix, Span
from .hankel import (
    GradedSpan,
    SymbolicMatrix,
    build_matrix,
    hankel_matrix,
    iter_minors,
    minor_span,
    scaled_augmented_matrix,
    scaled_matrix,
    triangular_matrix,
    wronskian,
)
from .perp import (
    hankel_minor_intersection_span,
    is_differentially_homogeneous,
    perp_graded_basis,
    restriction_span,
    scaled_of_triangular_map,
    truncated_perp_basis,
    vanishes_on_exponential_sums,
)
from .reports import (
    ChainDims,
    CheckResult,
    SeriesRow,
    VerificationReport,
    dimension_chain,
    dimension_series,
    run_verification,
)
