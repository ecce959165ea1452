"""Semantic exception hierarchy shared across the package."""


class ParameterDomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class NumericError(RuntimeError):
    """A numerical procedure failed in a way that cannot be repaired silently."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge within its subdivision budget."""
