"""Expected real roots of random game polynomials.

Library layout:

* ``families``   - the two Gaussian coefficient families and their log-scale tables
* ``kacrice``    - density evaluation and expected root counts by quadrature
* ``jacobi``     - Jacobi polynomials, root sets, identities and finite-n brackets
* ``montecarlo`` - sampled polynomials, exact root counting, Jensen ball bound
* ``asymptotic`` - leading orders, Laplace approximants, scaling fits
* ``cli``        - the ``randroot`` command line front end
"""
from .asymptotic import (
    ConcentrationParams,
    EntropyTerms,
    GramApprox,
    LaplaceApprox,
    ScalingFit,
    ScalingFitError,
    alpha_beta_ratio_check,
    concentration_params,
    entropy_terms,
    leading_order,
    log_gram_approx,
    log_variance_approx,
    scaling_fit,
)
from .errors import NumericError, ParameterDomainError, QuadratureError
from .families import (
    CoefficientTable,
    FamilyKind,
    PolynomialClass,
    alpha_beta_family,
    coefficient_table,
    elliptic,
    equilibrium_fraction,
    gamma_family,
    kac,
    legendre,
    log_sq_coeff,
    reciprocal_class,
    reciprocal_table,
)
from .jacobi import (
    BoundsReport,
    JacobiRootSet,
    density_endpoints,
    density_via_roots,
    derivative_recurrence_residual,
    jacobi_derivative,
    jacobi_eval,
    jacobi_roots,
    log_variance_via_jacobi,
    root_bounds,
    ultraspherical_bounds,
)
from .kacrice import (
    KacRiceTriple,
    density,
    expected_internal_equilibria,
    expected_roots_interval,
    expected_roots_real_line,
    expected_roots_real_line_result,
    kac_density,
    kac_log_variance,
    kac_rice_eval,
    kac_triple,
    relation_residuals,
)
from .montecarlo import (
    McSummary,
    SampledPolynomial,
    count_positive_roots,
    count_real_roots,
    jensen_root_bound,
    mc_expected_roots,
    sample_polynomial,
)
from .quadrature import QuadratureResult, adaptive_quadrature

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CoefficientTable",
    "ConcentrationParams",
    "EntropyTerms",
    "FamilyKind",
    "GramApprox",
    "JacobiRootSet",
    "KacRiceTriple",
    "LaplaceApprox",
    "McSummary",
    "NumericError",
    "ParameterDomainError",
    "PolynomialClass",
    "QuadratureError",
    "QuadratureResult",
    "SampledPolynomial",
    "ScalingFit",
    "ScalingFitError",
    "adaptive_quadrature",
    "alpha_beta_family",
    "alpha_beta_ratio_check",
    "coefficient_table",
    "concentration_params",
    "count_positive_roots",
    "count_real_roots",
    "density",
    "density_endpoints",
    "density_via_roots",
    "derivative_recurrence_residual",
    "elliptic",
    "entropy_terms",
    "equilibrium_fraction",
    "expected_internal_equilibria",
    "expected_roots_interval",
    "expected_roots_real_line",
    "expected_roots_real_line_result",
    "gamma_family",
    "jacobi_derivative",
    "jacobi_eval",
    "jacobi_roots",
    "jensen_root_bound",
    "kac",
    "kac_density",
    "kac_log_variance",
    "kac_rice_eval",
    "kac_triple",
    "leading_order",
    "legendre",
    "log_gram_approx",
    "log_sq_coeff",
    "log_variance_approx",
    "log_variance_via_jacobi",
    "mc_expected_roots",
    "reciprocal_class",
    "reciprocal_table",
    "relation_residuals",
    "root_bounds",
    "sample_polynomial",
    "scaling_fit",
    "ultraspherical_bounds",
]
