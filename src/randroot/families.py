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
the n+1 logs log(a_i^2) and the n neighbour log-ratios
r_i = log(a_(i+1)^2 / a_i^2).  Each ratio is rational in i, so r_i is exact
to a few ulps.  Each log(a_i^2) comes from one routine over index arrays
(``_log_sq``), as logs of binomials written as products of few factors, or
in Loader's (2000) entropy form, so it is good to a few ulps of itself
rather than of lgamma(n), and depends on (family, n, i) alone: a table and a
read at a few indices agree bit for bit.  The density evaluation (see
kacrice) sums its weights from the ratios and builds no table; only its rows
read log(a_i^2), at each point's peak and at i = 0 and n, to place log M.
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


# Stirling's series (Abramowitz & Stegun 6.1.41) for z >= 24:
#   lgamma(z + 1) = (z + 1/2) ln z - z + ln(2 pi)/2 + S(z),  S(z) = sum_k c_k / z^(2k-1),
# c_k = B_2k / (2k(2k-1)); S(z) is Loader's (2000) Stirling error.  From z = 24
# on, the first term these five leave out is below 1.3e-18, under 1/100 of
# an ulp of 1.  Below 24, products of at most 24 rational factors serve
# instead.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_FROM = 24.0
_FACTORS = np.arange(1.0, _STIRLING_FROM + 1.0)  # j = 1 .. 24


def _stirling_error(z: np.ndarray) -> np.ndarray:
    """S(z) = lgamma(z + 1) - (z + 1/2) ln z + z - ln(2 pi)/2 for z >= 24, Horner in 1/z^2."""
    r = 1.0 / z
    r2 = r * r
    series = _STIRLING[-1] * r2
    for c in _STIRLING[-2:0:-1]:
        series += c
        series *= r2
    series += _STIRLING[0]
    series *= r
    return series


_TAIL_FROM = _STIRLING_FROM + 1.0  # the first factor a product of 24 leaves out
_S_TAIL_FROM = float(_stirling_error(np.array([_TAIL_FROM]))[0])


def _log_products(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_(j <= min(k, 24)) log1p(m/j): 24 columns whatever the count, so each row sums alike."""
    terms = np.log1p(m[:, None] / _FACTORS)
    terms *= _FACTORS <= k[:, None]
    return terms.sum(axis=1)


def _log_tail(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log prod_(25 <= j <= k) (1 + m/j) = log(Gamma(k + 1 + m) Gamma(25) / (Gamma(k + 1) Gamma(25 + m))), k > 24.

    The difference of the Stirling differences lgamma(x + m) - lgamma(x) =
    (x - 1/2) log1p(m/x) + m ln(x + m) - m + S(x + m) - S(x) at x = k + 1 and
    x = 25, with the two m ln(x + m) taken as one log1p.  It has the sign of
    m, and m = 0 gives 0 exactly.
    """
    x = k + 1.0
    s = _stirling_error(np.concatenate((x + m, x, _TAIL_FROM + m))).reshape(3, -1)
    return ((x - 0.5) * np.log1p(m / x) - (_TAIL_FROM - 0.5) * np.log1p(m / _TAIL_FROM)
            + m * np.log1p((x - _TAIL_FROM) / (_TAIL_FROM + m)) + ((s[0] - s[1]) - (s[2] - _S_TAIL_FROM)))


def _log_entropy(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log C(k + m, k) for k, m >= 24 in Loader's (2000) entropy form.

    k log1p(m/k) + m log1p(k/m) - ln(2 pi k m/(k + m))/2 + S(k + m) - S(k) - S(m):
    two positive terms and corrections far below them.
    """
    total = k + m
    s = _stirling_error(np.concatenate((total, k, m))).reshape(3, -1)
    return (k * np.log1p(m / k) + m * np.log1p(k / m) - 0.5 * np.log(2.0 * math.pi * k * m / total)
            + (s[0] - (s[1] + s[2])))


def _log_binom(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log C(k + m, k) = lgamma(k + m + 1) - lgamma(k + 1) - lgamma(m + 1), each to a few ulps of itself.

    ``k`` holds integers >= 0 and ``m`` reals > -1, as float arrays.  Each
    value depends on its own (k, m) alone, and no form subtracts numbers much
    larger than itself:

    * k <= 24, or m < 24: the product C(k + m, k) = prod_(j <= k) (1 + m/j),
      its first min(k, 24) factors summed as log1p(m/j), terms of one sign
      (``_log_products``), and for k > 24 the rest from Stirling's series
      (``_log_tail``), of the same sign.  libm's lgamma(1 + m) is off by a
      few ulps of 1 near its zeros, so no form uses it.
    * k > 24 and m >= 24: Loader's entropy form (``_log_entropy``).
    """
    far = k > _STIRLING_FROM
    if not np.count_nonzero(far):
        return _log_products(k, m)
    out = np.empty_like(m)
    entropy = far & (m >= _STIRLING_FROM)
    if np.count_nonzero(entropy):
        out[entropy] = _log_entropy(k[entropy], m[entropy])
    short = ~entropy
    if np.count_nonzero(short):
        k, m, far = k[short], m[short], far[short]
        values = _log_products(k, m)
        if np.count_nonzero(far):
            values[far] += _log_tail(k[far], m[far])
        out[short] = values
    return out


def _log_sq(family: PolynomialClass, n: int, i: np.ndarray) -> np.ndarray:
    """log(a_i^2) at each index 0 <= i <= n of the integer array ``i``, to a few ulps of itself.

    gamma:      2 gamma log C(k + m, k) with k = min(i, n - i) and
                m = max(i, n - i), so a_i^2 = a_(n-i)^2 bit for bit;
    alpha/beta: log C(n + alpha, n - i) + log C(n + beta, i), the first with
                k = n - i and m = alpha + i, the second with k = i and
                m = beta + (n - i), each m rounded once, and k and m swapped
                where the larger is k and the parameter is an integer.
    Each value depends on (family, n, i) alone, so a table and a read at a few
    indices agree bit for bit.  Swapping alpha <-> beta and i <-> n - i swaps
    the two terms, which add in the other order: the reversal contract holds
    bit for bit.  The gamma family's log a_0^2 and log a_n^2 are 0 exactly.
    Indices that are not strictly increasing, such as the peaks of a grid of
    points, may repeat: each distinct one is evaluated once.
    """
    if len(i) > 1 and not (i[1:] > i[:-1]).all():
        distinct, at = np.unique(i, return_inverse=True)
        return _log_sq(family, n, distinct)[at]
    if family.kind is FamilyKind.GAMMA:
        x = i.astype(float)
        return 2.0 * family.gamma * _log_binom(np.minimum(x, n - x), np.maximum(x, n - x))
    j = n - i
    k, m = np.concatenate((j, i)).astype(float), np.concatenate((family.alpha + i, family.beta + j))
    for side, p in ((slice(None, len(i)), family.alpha), (slice(len(i), None), family.beta)):
        if float(p).is_integer():  # a binomial over either side: the shorter product
            k[side], m[side] = np.minimum(k[side], m[side]), np.maximum(k[side], m[side])
    terms = _log_binom(k, m)
    return terms[:len(i)] + terms[len(i):]


def _log_ratio_array(family: PolynomialClass, n: int) -> np.ndarray:
    # a_(i+1)^2 / a_i^2 = num/den with
    #   gamma:      ((n-i) / (i+1))^(2 gamma)
    #   alpha/beta: (n-i)(n+beta-i) / ((alpha+i+1)(i+1)),
    # the integer parts summed before alpha, beta are added.  The larger of
    # num, den is divided by the smaller and the sign set after the log, so
    # swapping them (the reversal i <-> n-1-i with alpha <-> beta) negates an
    # entry bit for bit.
    # The gamma family is its own reversal, so its second half is the first
    # negated, where num > den (= 0 at the middle of an odd n).
    low = np.arange(1.0, n + 1.0)  # i + 1
    up = low[::-1]                 # n - i
    if family.kind is FamilyKind.GAMMA:
        half = (n + 1) // 2
        ratio = np.empty(n)
        np.log(up[:half] / low[:half], out=ratio[:half])
        ratio[:half] *= 2.0 * family.gamma
        np.negative(ratio[:n - half][::-1], out=ratio[half:])
        return ratio
    num, den = up * (up + family.beta), (low + family.alpha) * low
    size = np.log(np.maximum(num, den) / np.minimum(num, den))
    return np.negative(size, out=size, where=num < den)


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
    return _frozen_table(family, n, _log_sq(family, n, np.arange(n + 1)), _log_ratio_array(family, n))


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
