"""Random polynomial families and their coefficient tables.

Two Gaussian families are supported, both of the form sum_i a_i xi_i x^i with
xi_i i.i.d. standard normal:

* gamma family:       a_i^2 = C(n, i)^(2*gamma), gamma >= 0.  gamma = 0 is the
  Kac family, gamma = 1/2 the elliptic (binomial) family, gamma = 1 the
  multi-player game family.
* alpha/beta family:  a_i^2 = C(n+alpha, n-i) * C(n+beta, i) with
  alpha, beta > -1, generalized binomials via the gamma function.

All coefficient work happens in log scale; C(n, n/2)^(2*gamma) overflows a
double near n ~ 1030/gamma, its log does not.  A table holds two O(n) arrays:
the n+1 logs log(a_i^2), from log-gamma, and the n neighbour log-ratios
r_i = log(a_(i+1)^2 / a_i^2).  Each ratio is rational in i, so r_i is exact
to a few ulps, while log-gamma differences near n log n carry an absolute
error that grows with n.  The density evaluation (see kacrice) sums its
weights from the ratios and reads log(a_i^2) only to place log M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError, _check_alpha_beta, _check_integer

__all__ = [
    "FamilyKind",
    "PolynomialClass",
    "CoefficientTable",
    "gamma_family",
    "alpha_beta_family",
    "kac",
    "elliptic",
    "legendre",
    "coefficient_table",
    "reciprocal_class",
    "reciprocal_table",
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
            _check_alpha_beta(self.alpha, self.beta)
        else:  # a kind from outside the enum, such as the string "gamma"
            raise ParameterDomainError(f"unknown family kind {self.kind!r}")

    @property
    def is_symmetric(self) -> bool:
        """True when a_i^2 = a_{n-i}^2 for every n (x -> 1/x invariance)."""
        if self.kind is FamilyKind.GAMMA:
            return True
        return self.alpha == self.beta

    @property
    def is_kac(self) -> bool:
        """True for the Kac family (gamma = 0), which has closed forms in place of a table."""
        return self.kind is FamilyKind.GAMMA and self.gamma == 0.0

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

    ``log_sq_coeff[i] = log(a_i^2)`` (length n+1, all finite) and
    ``log_ratio[i] = log(a_(i+1)^2 / a_i^2)`` (length n, non-increasing since
    log a_i^2 is concave in i).  The arrays are read-only; tables are safe to
    share across threads.
    """

    family: PolynomialClass
    n: int
    log_sq_coeff: np.ndarray
    log_ratio: np.ndarray


# Stirling's series (Abramowitz & Stegun 6.1.41) for x >= 24:
#   lgamma(x) = (x - 1/2)(ln x - 1) - 1/2 + ln(2 pi)/2 + sum_k c_k / x^(2k-1),
# c_k = B_2k / (2k(2k-1)).  From x = 24 on, these five terms leave out less
# than 2^-60 |lgamma(x)|.  Below 24, math.lgamma.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_FROM = 24.0
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5


def _lgamma_shifted(p: float, count: int) -> np.ndarray:
    """lgamma(p + k) for k = 1..count, p > -1; each argument k + p is rounded once.

    Every value depends on its argument alone, not on p, count or its
    position, so an integer p gives the entries of the p = 0 array.
    """
    head = []
    for k in range(1, count + 1):
        arg = k + p
        if arg >= _STIRLING_FROM:
            break
        head.append(math.lgamma(arg))
    if len(head) == count:
        return np.array(head, dtype=float)
    x = np.arange(len(head) + 1.0, count + 1.0)
    x += p
    r = 1.0 / x
    r2 = r * r
    series = _STIRLING[-1] * r2  # Horner in 1/x^2
    for c in _STIRLING[-2:0:-1]:
        series += c
        series *= r2
    series += _STIRLING[0]
    series *= r
    series += _STIRLING_CONST
    out = np.empty(count)
    out[:len(head)] = head
    tail = out[len(head):]
    np.log(x, out=tail)
    tail -= 1.0
    tail *= x - 0.5
    tail += series
    return out


def _log_sq_array(family: PolynomialClass, n: int) -> np.ndarray:
    # Three log-gamma arrays over i = 0..n: fact[i] = log i!, la[i] =
    # lgamma(alpha + i + 1) and lb[i] = lgamma(beta + i + 1), with j = n - i
    # read off them reversed and the i = n entries standing in for the
    # n-dependent terms.  Swapping alpha <-> beta swaps la and lb, so the
    # swapped table's entry at n - i adds the same two sums in the other
    # order: the reversal contract holds bit-for-bit for any alpha, beta.
    # log a_0^2 of the gamma family is fact[n] - (0 + fact[n]) = 0 exactly.
    fact = _lgamma_shifted(0.0, n + 1)
    if family.kind is FamilyKind.GAMMA:
        log_binom = fact[n] - (fact + fact[::-1])
        return 2.0 * family.gamma * log_binom
    a, b = float(family.alpha), float(family.beta)
    la = _lgamma_shifted(a, n + 1)
    lb = la if b == a else _lgamma_shifted(b, n + 1)
    left = la[n] - (fact[::-1] + la)
    right = lb[n] - (fact + lb[::-1])
    return left + right


def _log_ratio_array(family: PolynomialClass, n: int) -> np.ndarray:
    # a_(i+1)^2 / a_i^2 = num/den with
    #   gamma:      ((n-i) / (i+1))^(2 gamma)
    #   alpha/beta: (n-i)(n+beta-i) / ((alpha+i+1)(i+1)),
    # the integer parts summed before alpha, beta are added.  The larger of
    # num, den is divided by the smaller and the sign set after the log, so
    # swapping them (the reversal i <-> n-1-i with alpha <-> beta) negates an
    # entry bit for bit.
    low = np.arange(1.0, n + 1.0)  # i + 1
    up = low[::-1]                 # n - i
    if family.kind is FamilyKind.GAMMA:
        num, den, power = up, low, 2.0 * family.gamma
    else:
        num, den, power = up * (up + family.beta), (low + family.alpha) * low, 1.0
    size = np.log(np.maximum(num, den) / np.minimum(num, den))
    if power != 1.0:
        size *= power
    # num - den is correctly rounded, so it has the sign of the exact difference
    return np.copysign(size, num - den, out=size)


def coefficient_table(
    family: PolynomialClass, n: int, with_convolution: bool = False
) -> CoefficientTable:
    """Build the coefficient table for ``family`` at degree ``n``.

    ``with_convolution`` is accepted and ignored.  Tables once carried an
    O(n^2) convolution of the coefficients for the density; the centred
    variance kernel needs none, and the benchmark harness still passes the
    keyword.
    """
    _check_integer(n)
    return _frozen_table(family, n, _log_sq_array(family, n), _log_ratio_array(family, n))


def _frozen_table(family: PolynomialClass, n: int, log_sq: np.ndarray,
                  log_ratio: np.ndarray) -> CoefficientTable:
    log_sq.flags.writeable = False
    log_ratio.flags.writeable = False
    return CoefficientTable(family, int(n), log_sq, log_ratio)


def reciprocal_class(family: PolynomialClass) -> PolynomialClass:
    """The family whose coefficients are the reversal of ``family``'s.

    Encodes the x -> 1/x substitution: the gamma family maps to itself,
    alpha/beta swaps its parameters.  Contract (tested bit-for-bit):
    coefficient_table(reciprocal_class(c), n).log_sq_coeff[i]
    == coefficient_table(c, n).log_sq_coeff[n-i], and
    coefficient_table(reciprocal_class(c), n).log_ratio[i]
    == -coefficient_table(c, n).log_ratio[n-1-i].
    """
    if family.kind is FamilyKind.GAMMA:
        return family
    return alpha_beta_family(family.beta, family.alpha)


def reciprocal_table(table: CoefficientTable) -> CoefficientTable:
    """Reverse a table in place of rebuilding it (the reversal contract above)."""
    return _frozen_table(reciprocal_class(table.family), table.n,
                         table.log_sq_coeff[::-1].copy(), -table.log_ratio[::-1])
