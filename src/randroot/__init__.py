"""Expected real roots of random game polynomials.

Library layout:

* ``families``   - the two Gaussian coefficient families and their log-scale tables
* ``kacrice``    - density evaluation and expected root counts by quadrature
* ``jacobi``     - Jacobi polynomials, root sets, identities and finite-n brackets
* ``montecarlo`` - sampled polynomials, exact root counting, Jensen ball bound
* ``asymptotic`` - leading orders, Laplace approximants, scaling fits
* ``cli``        - the ``randroot`` command line front end

The top level re-exports the names the README documents, a few more that
the benchmark harness calls, and the error types; every other public name
imports from its module.
"""
from .asymptotic import leading_order, scaling_fit
from .errors import NumericError, ParameterDomainError, QuadratureError
from .families import (
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
    legendre,
    reciprocal_table,
)
from .jacobi import density_endpoints, density_via_roots, jacobi_roots, root_bounds, ultraspherical_bounds
from .kacrice import (
    density,
    expected_internal_equilibria,
    expected_roots_interval,
    expected_roots_real_line,
    expected_roots_real_line_result,
    kac_density,
    kac_rice_eval,
    kac_triple,
)
from .montecarlo import count_real_roots, mc_expected_roots, sample_polynomial

__version__ = "0.1.0"

__all__ = [
    "NumericError",
    "ParameterDomainError",
    "QuadratureError",
    "alpha_beta_family",
    "coefficient_table",
    "count_real_roots",
    "density",
    "density_endpoints",
    "density_via_roots",
    "elliptic",
    "expected_internal_equilibria",
    "expected_roots_interval",
    "expected_roots_real_line",
    "expected_roots_real_line_result",
    "gamma_family",
    "jacobi_roots",
    "kac",
    "kac_density",
    "kac_rice_eval",
    "kac_triple",
    "leading_order",
    "legendre",
    "mc_expected_roots",
    "reciprocal_table",
    "root_bounds",
    "sample_polynomial",
    "scaling_fit",
    "ultraspherical_bounds",
]
