"""Reproducing-kernel machinery for Hilbert spaces of Dirichlet series.

Evaluates the zeta-type kernels of the square-summable and log-weighted
Dirichlet-series spaces together with their half-plane models, certifies
interpolating sequences through Gram spectra and geometric tests, builds
explicit and minimal-norm interpolants, and measures local embedding
constants and vertical almost-periodicity.
"""

from .diagnostics import (EquivalenceReport, SequenceReport, almost_periodicity_probe,
                          blaschke_sum, boas_bound, carleson_intensity,
                          gershgorin_split, merging_family, separation_constant,
                          shapiro_shields_test, space_equivalence_report)
from .embeddings import (EmbeddingResult, halfstrip_embedding_quadrature,
                         halfstrip_embedding_ratio, line_embedding_quadrature,
                         line_embedding_ratio, line_embedding_sharp_constant,
                         random_polynomial_corpus)
from .errors import (ConvergenceError, DirichletRkhsError, DomainError,
                     ExhaustionError, IllConditionedError, NumericalError,
                     PoleError, SizeError)
from .gram import (GramMatrix, eigenvalues, gram_matrix, smallest_eigenvalue,
                   solve_hermitian_pd)
from .interpolation import (DirichletBlaschke, Interpolant, build_blaschke,
                            expand_dirichlet, finite_interpolant,
                            min_norm_interpolant, select_primes)
from .spaces import (BERGMAN_DIRICHLET, HARDY_DIRICHLET, HARDY_HALF_PLANE,
                     WEIGHTED_DIRICHLET, DirichletPolynomial, HalfPlanePoint,
                     PointSequence, SpaceId, kernel_matrix, kernel_norm,
                     kernel_value, pseudohyperbolic_distance)
from .zeta import (EvalConfig, WeightedZetaParams, eval_gamma, eval_upper_gamma,
                   eval_weighted_remainder, eval_weighted_zeta, eval_zeta,
                   eval_zeta_remainder)

__all__ = [
    "BERGMAN_DIRICHLET", "HARDY_DIRICHLET", "HARDY_HALF_PLANE",
    "WEIGHTED_DIRICHLET",
    "ConvergenceError", "DirichletBlaschke", "DirichletPolynomial",
    "DirichletRkhsError", "DomainError", "EmbeddingResult", "EquivalenceReport",
    "EvalConfig", "ExhaustionError", "GramMatrix", "HalfPlanePoint",
    "IllConditionedError", "Interpolant", "NumericalError", "PointSequence",
    "PoleError", "SequenceReport", "SizeError", "SpaceId", "WeightedZetaParams",
    "almost_periodicity_probe", "blaschke_sum", "boas_bound", "build_blaschke",
    "carleson_intensity", "eigenvalues", "eval_gamma", "eval_upper_gamma",
    "eval_weighted_remainder", "eval_weighted_zeta", "eval_zeta",
    "eval_zeta_remainder", "expand_dirichlet", "finite_interpolant",
    "gershgorin_split", "gram_matrix", "halfstrip_embedding_quadrature",
    "halfstrip_embedding_ratio", "kernel_matrix", "kernel_norm", "kernel_value",
    "line_embedding_quadrature", "line_embedding_ratio",
    "line_embedding_sharp_constant", "merging_family", "min_norm_interpolant",
    "pseudohyperbolic_distance", "random_polynomial_corpus", "select_primes",
    "separation_constant", "shapiro_shields_test", "smallest_eigenvalue",
    "solve_hermitian_pd", "space_equivalence_report",
]

__version__ = "0.1.0"
