"""Random polynomial families and their coefficient tables.

Two Gaussian families are supported, both of the form sum_i a_i xi_i x^i with
xi_i i.i.d. standard normal:

* gamma family:       a_i^2 = C(n, i)^(2*gamma), gamma >= 0.  gamma = 0 is the
  Kac family, gamma = 1/2 the elliptic (binomial) family, gamma = 1 the
  multi-player game family.
* alpha/beta family:  a_i^2 = C(n+alpha, n-i) * C(n+beta, i) with
  alpha, beta > -1, generalized binomials via the gamma function.

All coefficient work happens on log(a_i^2); C(n, n/2)^(2*gamma) overflows a
double near n ~ 1030/gamma, log-gamma does not.  A table is just these n+1
logs: the density evaluation (see kacrice) needs nothing else, so building a
table is O(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln

from .errors import ParameterDomainError

__all__ = [
    "FamilyKind",
    "PolynomialClass",
    "CoefficientTable",
    "gamma_family",
    "alpha_beta_family",
    "kac",
    "elliptic",
    "legendre",
    "log_sq_coeff",
    "coefficient_table",
    "reciprocal_class",
    "reciprocal_table",
    "equilibrium_fraction",
]


class FamilyKind(Enum):
    GAMMA = "gamma"
    ALPHA_BETA = "alpha_beta"


@dataclass(frozen=True)
class PolynomialClass:
    """Which random family, with its parameters.

    ``gamma`` is set for the gamma family, ``alpha``/``beta`` for the
    alpha/beta family; the unused fields stay ``None``.
    """

    kind: FamilyKind
    gamma: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind is FamilyKind.GAMMA:
            if self.gamma is None or not math.isfinite(self.gamma) or self.gamma < 0:
                raise ParameterDomainError("gamma family requires gamma >= 0")
            if self.alpha is not None or self.beta is not None:
                raise ParameterDomainError("gamma family takes no alpha/beta")
        elif self.kind is FamilyKind.ALPHA_BETA:
            if self.gamma is not None:
                raise ParameterDomainError("alpha/beta family takes no gamma")
            for name, val in (("alpha", self.alpha), ("beta", self.beta)):
                if val is None or not math.isfinite(val) or val <= -1.0:
                    raise ParameterDomainError(f"alpha/beta family requires {name} > -1")
        else:  # pragma: no cover - enum exhausts the cases
            raise ParameterDomainError(f"unknown family kind {self.kind!r}")

    @property
    def is_symmetric(self) -> bool:
        """True when a_i^2 = a_{n-i}^2 for every n (x -> 1/x invariance)."""
        if self.kind is FamilyKind.GAMMA:
            return True
        return self.alpha == self.beta

    def label(self) -> str:
        if self.kind is FamilyKind.GAMMA:
            return f"gamma({self.gamma:g})"
        return f"alpha_beta({self.alpha:g},{self.beta:g})"


def gamma_family(gamma: float) -> PolynomialClass:
    return PolynomialClass(FamilyKind.GAMMA, gamma=float(gamma))


def alpha_beta_family(alpha: float, beta: float) -> PolynomialClass:
    return PolynomialClass(FamilyKind.ALPHA_BETA, alpha=float(alpha), beta=float(beta))


def kac() -> PolynomialClass:
    """Kac family: all a_i = 1 (gamma = 0)."""
    return gamma_family(0.0)


def elliptic() -> PolynomialClass:
    """Elliptic/binomial family: a_i = sqrt(C(n, i)) (gamma = 1/2)."""
    return gamma_family(0.5)


def legendre() -> PolynomialClass:
    """The multi-player game family in alpha/beta form (alpha = beta = 0)."""
    return alpha_beta_family(0.0, 0.0)


@dataclass(frozen=True)
class CoefficientTable:
    """Degree ``n`` plus log-scale squared coefficients.

    ``log_sq_coeff[i] = log(a_i^2)`` (length n+1, all finite).  The array is
    read-only; tables are safe to share across threads.
    """

    family: PolynomialClass
    n: int
    log_sq_coeff: np.ndarray


def _log_sq_array(family: PolynomialClass, n: int) -> np.ndarray:
    i = np.arange(n + 1, dtype=float)
    if family.kind is FamilyKind.GAMMA:
        # log C(n,i) with the two i-dependent terms added first, so the value
        # is bit-identical under i <-> n-i (reversal contract).
        log_binom = gammaln(n + 1.0) - (gammaln(i + 1.0) + gammaln(n - i + 1.0))
        return 2.0 * family.gamma * log_binom
    a, b = family.alpha, family.beta
    left = gammaln(n + a + 1.0) - (gammaln(n - i + 1.0) + gammaln(a + i + 1.0))
    right = gammaln(n + b + 1.0) - (gammaln(i + 1.0) + gammaln(n + b - i + 1.0))
    return left + right


def log_sq_coeff(family: PolynomialClass, n: int, i: int) -> float:
    """log(a_i^2) for one index, computed via log-gamma."""
    _check_degree(n)
    if not 0 <= i <= n:
        raise ParameterDomainError(f"index i={i} outside [0, {n}]")
    return float(_log_sq_array(family, n)[i])


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"degree n must be an integer >= 1, got {n!r}")


def coefficient_table(
    family: PolynomialClass, n: int, with_convolution: bool = False
) -> CoefficientTable:
    """Build the coefficient table for ``family`` at degree ``n``.

    ``with_convolution`` is accepted and ignored.  Tables once carried an
    O(n^2) convolution of the coefficients for the density; the centred
    variance kernel needs none, and the benchmark harness still passes the
    keyword.
    """
    _check_degree(n)
    log_sq = _log_sq_array(family, n)
    log_sq.flags.writeable = False
    return CoefficientTable(family, int(n), log_sq)


def reciprocal_class(family: PolynomialClass) -> PolynomialClass:
    """The family whose coefficients are the reversal of ``family``'s.

    Encodes the x -> 1/x substitution: the gamma family maps to itself,
    alpha/beta swaps its parameters.  Contract (tested bit-for-bit):
    coefficient_table(reciprocal_class(c), n).log_sq_coeff[i]
    == coefficient_table(c, n).log_sq_coeff[n-i].
    """
    if family.kind is FamilyKind.GAMMA:
        return family
    return alpha_beta_family(family.beta, family.alpha)


def reciprocal_table(table: CoefficientTable) -> CoefficientTable:
    """Reverse a table in place of rebuilding it (the reversal contract above)."""
    log_sq = table.log_sq_coeff[::-1].copy()
    log_sq.flags.writeable = False
    return CoefficientTable(reciprocal_class(table.family), table.n, log_sq)


def equilibrium_fraction(x: float) -> float:
    """Strategy-A frequency y = x/(1+x) corresponding to a positive root x."""
    if not x > 0:
        raise ParameterDomainError(f"root transform needs x > 0, got {x!r}")
    return x / (1.0 + x)
