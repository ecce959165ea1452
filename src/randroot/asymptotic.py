"""Leading orders, Laplace-point approximants, and scaling-law fits.

The sums defining M_n concentrate around the index i* = floor(n*t) where
t = x^(1/gamma)/(1 + x^(1/gamma)) maximizes J(t) = gamma*I(t) + t*log(x),
I(t) = -t*log(t) - (1-t)*log(1-t).  With K = n*t*(1-t)/gamma = n/|J''(t)| the
Laplace approximations are

    M_n(x)           ~ C(n,i*)^(2*gamma) * x^(2*i*)   * sqrt(pi * K)
    A_n*M_n - B_n^2  ~ C(n,i*)^(4*gamma) * x^(4*i*-2) * (pi/2) * K^2.

``log_gram_approx``'s primary value carries the binomial prefactor to the
single 2*gamma power; numerically only the squared prefactor (the secondary
field) reproduces the exact double sum, and both are exposed so diagnostics
can report the gap.  Both approximants flag points outside the validity
window x >= (log n)^(4*gamma)/n^gamma instead of raising.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericError, ParameterDomainError
from .families import FamilyKind, PolynomialClass, _log_binom
from .kacrice import expected_roots_real_line
from .quadrature import DEFAULT_TOL

__all__ = [
    "ConcentrationParams",
    "concentration_params",
    "LaplaceApprox",
    "GramApprox",
    "log_variance_approx",
    "log_gram_approx",
    "leading_order",
    "ScalingFit",
    "ScalingFitError",
    "scaling_fit",
]


@dataclass(frozen=True)
class ConcentrationParams:
    """The Laplace point: saddle t in (0, 1/2], its integer index i* = floor(n*t),
    and the width K = n*t*(1-t)/gamma = n/|J''(t)|."""

    gamma: float
    x: float
    n: int
    t: float
    i_star: int
    width: float


def concentration_params(gamma: float, x: float, n: float) -> ConcentrationParams:
    """The Laplace point at a finite gamma > 0, 0 < x <= 1 and a finite real n >= 1.

    Where x^(1/gamma) underflows to 0, t and the width would be 0, whose log
    the approximants take: that raises ``NumericError``.
    """
    if not 0.0 < gamma < math.inf:
        raise ParameterDomainError(f"need finite gamma > 0, got {gamma!r}")
    if not 0.0 < x <= 1.0:
        raise ParameterDomainError(f"need 0 < x <= 1, got {x!r}")
    if not 1.0 <= n < math.inf:
        raise ParameterDomainError(f"need a finite real n >= 1, got {n!r}")
    power = x ** (1.0 / gamma)
    if power == 0.0:
        raise NumericError(f"x^(1/gamma) underflows to 0 at x = {x!r}, gamma = {gamma!r}: no Laplace point")
    t = power / (1.0 + power)
    width = n * power / (gamma * (1.0 + power) ** 2)
    return ConcentrationParams(gamma, x, n, t, int(math.floor(n * t)), width)


def _in_window(gamma: float, n: float, x: float) -> bool:
    """x >= (log n)^(4 gamma) / n^gamma, compared in logs, where neither power overflows."""
    return n == 1.0 or math.log(x) >= gamma * (4.0 * math.log(math.log(n)) - math.log(n))


def _log_choose(n: float, k: int) -> float:
    """log C(n, k) at an integer 0 <= k <= n and a real n, to a few ulps of itself (``families._log_binom``)."""
    return float(_log_binom(np.array([float(k)]), np.array([n - k]))[0])


class LaplaceApprox(NamedTuple):
    log_value: float
    in_validity_window: bool


class GramApprox(NamedTuple):
    log_value: float                    # binomial prefactor to one 2*gamma power
    log_value_squared_prefactor: float  # prefactor squared (matches the double sum)
    in_validity_window: bool


def log_variance_approx(gamma: float, n: int, x: float) -> LaplaceApprox:
    """Laplace approximation of log M_n(x) for the gamma family."""
    params = concentration_params(gamma, x, n)
    value = (
        2.0 * gamma * _log_choose(float(n), params.i_star)
        + 2.0 * params.i_star * math.log(x)
        + 0.5 * math.log(math.pi)
        + 0.5 * math.log(params.width)
    )
    return LaplaceApprox(value, _in_window(gamma, n, x))


def log_gram_approx(gamma: float, n: int, x: float) -> GramApprox:
    """Laplace approximation of log(A_n*M_n - B_n^2) for the gamma family."""
    params = concentration_params(gamma, x, n)
    log_binom = _log_choose(float(n), params.i_star)
    shared = (
        (4.0 * params.i_star - 2.0) * math.log(x)
        + math.log(math.pi / 2.0)
        + 2.0 * math.log(params.width)
    )
    return GramApprox(
        2.0 * gamma * log_binom + shared,
        4.0 * gamma * log_binom + shared,
        _in_window(gamma, n, x),
    )


def leading_order(family: PolynomialClass, n) -> float:
    """Leading-order expected root count: sqrt(2*gamma*n), (2/pi)*log(n) at
    gamma = 0, or sqrt(2n) for the alpha/beta family (parameter independent)."""
    if not n >= 2:
        raise ParameterDomainError(f"leading order needs n >= 2, got {n!r}")
    if family.is_kac:
        return (2.0 / math.pi) * math.log(n)
    if family.kind is FamilyKind.GAMMA:
        return math.sqrt(2.0 * family.gamma * n)
    return math.sqrt(2.0 * n)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares growth fit of expected root counts against n.

    For gamma = 0 the regression is E N against log(n) (logarithmic growth);
    otherwise log(E N) against log(n), with slope expected near 1/2.
    """

    family: PolynomialClass
    n_values: tuple[int, ...]
    en_values: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    max_rel_dev_from_leading: float


class ScalingFitError(NumericError):
    """Carries the per-n rows that did complete before the failure."""

    def __init__(self, message: str, rows: list[tuple[int, float]]):
        super().__init__(message)
        self.rows = rows


def scaling_fit(family: PolynomialClass, n_values: Sequence[int], tol: float = DEFAULT_TOL) -> ScalingFit:
    ns = [int(v) for v in n_values]
    if len(ns) < 4 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterDomainError("need at least 4 strictly increasing n values")
    if ns[0] < 2:  # the leading order needs n >= 2: fail before any quadrature
        raise ParameterDomainError(f"scaling fit needs n >= 2, got {ns[0]}")
    rows: list[tuple[int, float]] = []
    for n in ns:
        try:
            rows.append((n, expected_roots_real_line(family, n, tol)))
        except NumericError as exc:
            raise ScalingFitError(
                f"quadrature failed at n={n} ({exc}); {len(rows)} of {len(ns)} values completed",
                rows,
            ) from exc
    en = np.array([v for _, v in rows])
    log_n = np.log(np.array(ns, dtype=float))
    y = en if family.is_kac else np.log(en)
    slope, intercept = np.polyfit(log_n, y, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dev = max(abs(v / leading_order(family, n) - 1.0) for n, v in rows)
    return ScalingFit(family, tuple(ns), tuple(float(v) for v in en),
                      float(slope), float(intercept), float(r_squared), float(dev))
