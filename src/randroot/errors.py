"""Semantic exception hierarchy shared across the package, and its two input rules.

``_check_integer``: a degree or trial count is an int or numpy integer >= ``least`` (0 in
``jacobi_eval``, ``jacobi_derivative`` and ``log_variance_via_jacobi``, 2 in
``derivative_recurrence_residual``, else 1).  ``_check_alpha_beta``: alpha and beta finite and
> -1.  Callers (``families``, ``kacrice``, ``montecarlo``, ``jacobi``, ``verify``) repeat neither.
"""
import numpy as np


class ParameterDomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class NumericError(RuntimeError):
    """A numerical procedure failed in a way that cannot be repaired silently."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge within its subdivision budget."""


def _check_integer(n, least: int = 1, name: str = "degree n") -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise ParameterDomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _check_alpha_beta(alpha, beta) -> None:
    for name, val in (("alpha", alpha), ("beta", beta)):
        if val is None or not -1.0 < val < np.inf:
            raise ParameterDomainError(f"alpha/beta family requires {name} > -1")
