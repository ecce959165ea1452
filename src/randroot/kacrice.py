"""Kac-Rice density and expected real-root counts.

For p(x) = sum_i a_i xi_i x^i with xi_i i.i.d. standard normal, write

    M(x) = sum a_i^2 x^(2i)          (variance of p)
    A(x) = sum i^2 a_i^2 x^(2i-2)    (variance of p')
    B(x) = sum i a_i^2 x^(2i-1)      (covariance of p and p')

The expected number of real roots in (a, b) is (1/pi) * integral of the
density f = sqrt(A*M - B^2)/M.  The discriminant A*M - B^2 is never formed by
subtraction.  With the weights p_x(i) = a_i^2 x^(2i) / M (Edelman & Kostlan),

    A*M - B^2 = M^2 Var_p(i) / x^2,   so   f(x) = sqrt(Var_p(i)) / x,

and the variance is taken as the centred two-pass sum sum_i p_i (i - mu)^2,
whose terms are all non-negative; near x = 1 this keeps the ~log10(n) digits
that S2 - S1^2 would lose.  One log-sum-exp pass over the n+1 log-scale
coefficients per point gives log M, the mean and the variance.  Points whose
weights peak at i = 0 (or i = n) are rescaled by x^2 so that f stays exact
down to x = 5e-324, where the variance itself would underflow.

The Kac family (gamma = 0) has closed forms: M(x) = (1 - x^(2n+2))/(1 - x^2)
and, with X = x^2 and phi(X) = X M'(X)/M(X),

    f(x)^2 = d phi/dX = 1/(X-1)^2 - (n+1)^2 X^n / (X^(n+1) - 1)^2,

evaluated as array code at y = min(x, 1/x) and reflected through the
palindromic coefficients, with series fallbacks near X = 1; density and root
counts cost O(1) per point up to n ~ 10^6.  ``kernel`` is the one place that
picks these closed forms over the generic kernel.

Intervals reaching past x = 1 are always mapped back onto (0, 1) through the
substitution u = 1/x, whose integrand is the density of the reciprocal
(coefficient-reversed) family; infinite endpoints are never integrated
improperly.  The full line is the interval (-inf, inf): every root count goes
through ``_integrate_legs``, which integrates each distinct leg once.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterDomainError, QuadratureError
from .families import (
    CoefficientTable,
    FamilyKind,
    PolynomialClass,
    coefficient_table,
    kac,
    reciprocal_table,
)
from .quadrature import QuadratureResult, adaptive_quadrature

__all__ = [
    "KacRiceTriple",
    "kac_rice_eval",
    "density",
    "expected_roots_interval",
    "expected_roots_interval_result",
    "expected_roots_real_line",
    "expected_roots_real_line_result",
    "expected_internal_equilibria",
    "relation_residuals",
    "kac_density",
    "kac_triple",
    "Kernel",
    "kernel",
]


@dataclass(frozen=True)
class KacRiceTriple:
    """Log variance, ratio sums and density at one point.

    ``s1 = B/M``, ``s2 = A/M``, ``log_amb = log(A*M - B^2)``; the invariant
    f^2 = exp(log_amb - 2*log_m) holds whenever both logs are finite.
    """

    x: float
    log_m: float
    s1: float
    s2: float
    log_amb: float
    f: float


# ---------------------------------------------------------------------------
# generic evaluation: one weights pass per point
# ---------------------------------------------------------------------------

_LOG_TINY = -700.0  # weights below e^-700 (< 1e-304 of the peak) count as 0


def _exp_weights(t: np.ndarray) -> np.ndarray:
    """exp(t), with entries below ``_LOG_TINY`` set to 0.

    Skipping them also keeps numpy's exp off its slow path near underflow,
    which is several times slower per element.
    """
    return np.exp(t, where=t > _LOG_TINY, out=np.zeros_like(t))


def _edge_moments(la: np.ndarray, x: np.ndarray, lx: np.ndarray):
    """(log M, B/M, f^2) at points whose weights peak at index 0.

    With v_i = a_i^2 x^(2i-2) / a_0^2 for i >= 1 and V = sum v_i, M = a_0^2 (1 + x^2 V)
    and f^2 = Var/x^2 is a sum of non-negative terms in v alone, so nothing
    underflows as x -> 0: f^2 tends to v_1 = a_1^2/a_0^2.
    """
    j = np.arange(1, len(la), dtype=float)
    x2 = x * x
    v = _exp_weights(np.multiply.outer(2.0 * lx, j - 1.0) + (la[1:] - la[0]))
    x2v = x2 * v.sum(axis=1)
    w = 1.0 + x2v
    s = v @ j
    mu = x2 * s / w
    f2 = (x2 * (s / w) ** 2 + np.einsum("ij,ij->i", v, (j - mu[:, None]) ** 2)) / w
    return la[0] + np.log1p(x2v), x * s / w, f2


def _moments(la: np.ndarray, xs: np.ndarray):
    """(log M, B/M, f, log f) at each finite x > 0 of the 1-d array ``xs``.

    Weights p_i = a_i^2 x^(2i) / M give M by log-sum-exp, the mean mu = x B/M
    and the centred variance Var = sum p_i (i - mu)^2 = x^2 (A*M - B^2)/M^2, so
    f = sqrt(Var)/x.  Points whose weights peak at index 0 (or n, through the
    reversed coefficients at 1/x) go through ``_edge_moments``, where Var
    would underflow.
    """
    n = len(la) - 1
    i = np.arange(n + 1, dtype=float)
    lx = np.log(xs)
    t = np.multiply.outer(2.0 * lx, i)
    t += la
    peak = t.max(axis=1)
    t -= peak[:, None]
    low, high = t[:, 0] == 0.0, t[:, n] == 0.0
    edge = low | high
    w = _exp_weights(t)
    total = w.sum(axis=1)
    log_m = peak + np.log(total)
    mu = (w @ i) / total
    s1 = mu / xs
    var = np.einsum("ij,ij->i", w, np.square(np.subtract(i, mu[:, None], out=t), out=t)) / total
    if not np.count_nonzero(edge):
        return log_m, s1, np.sqrt(var) / xs, 0.5 * np.log(var) - lx
    f, log_f = np.empty(len(xs)), np.empty(len(xs))
    inner = ~edge
    f[inner] = np.sqrt(var[inner]) / xs[inner]
    log_f[inner] = 0.5 * np.log(var[inner]) - lx[inner]
    if low.any():
        log_m[low], s1[low], f2 = _edge_moments(la, xs[low], lx[low])
        f[low] = np.sqrt(f2)
        log_f[low] = 0.5 * np.log(f2)
    high &= ~low
    if high.any():
        xh, lxh = xs[high], lx[high]
        log_mr, s1r, f2 = _edge_moments(la[::-1], 1.0 / xh, -lxh)
        log_m[high] = log_mr + 2.0 * n * lxh
        s1[high] = (n - s1r / xh) / xh  # mean n - mu_reversed
        f[high] = np.sqrt(f2) / xh / xh
        log_f[high] = 0.5 * np.log(f2) - 2.0 * lxh
    return log_m, s1, f, log_f


def _with_limits(moments, xs: np.ndarray, n: int, la_ends) -> tuple[np.ndarray, ...]:
    """Rows (log M, B/M, f, log(A*M - B^2)) at each x >= 0 of ``xs``.

    ``moments`` gives the rows at finite x > 0; x = 0 takes the exact limits
    and x = inf the x -> inf ones (f ~ (a_(n-1)/a_n)/x^2 -> 0), both from
    ``la_ends = (log a_0^2, log a_1^2)``.  Callers pass |x|; NaN raises
    ``ParameterDomainError``.
    """
    m = len(xs)
    if np.count_nonzero(np.isfinite(xs)) == m and np.count_nonzero(xs) == m:
        return moments(xs)
    inside = (xs > 0.0) & (xs < math.inf)
    zero, infinite = xs == 0.0, xs == math.inf
    bad = ~(inside | zero | infinite)
    if bad.any():
        raise ParameterDomainError(f"density needs x >= 0, got {xs[bad][0]!r}")
    la0, la1 = la_ends
    half_gap = 0.5 * (la1 - la0)
    out = np.empty((4, len(xs)))
    out[:, zero] = np.array([[la0], [0.0], [math.exp(half_gap)], [2.0 * (la0 + half_gap)]])
    # A*M - B^2 ~ a_n^2 a_(n-1)^2 x^(4n-4): constant only at n = 1
    out[:, infinite] = np.array([[math.inf], [0.0], [0.0], [la0 + la1 if n == 1 else math.inf]])
    if inside.any():
        out[:, inside] = moments(xs[inside])
    return tuple(out)


_BLOCK = 1 << 13  # points x coefficients per weights array; 15-point panels stay whole


def _evaluate(table: CoefficientTable, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows (log M, B/M, f, log(A*M - B^2)) of the generic kernel at each x >= 0.

    Long grids go through ``_moments`` in blocks, so memory stays O(n) however
    many points are asked for.
    """
    la = table.log_sq_coeff
    step = max(16, _BLOCK // len(la))

    def rows(v: np.ndarray) -> tuple[np.ndarray, ...]:
        if len(v) > step:
            return tuple(np.concatenate([rows(v[i:i + step]) for i in range(0, len(v), step)], axis=1))
        log_m, s1, f, log_f = _moments(la, v)
        return log_m, s1, f, 2.0 * (log_m + log_f)

    return _with_limits(rows, xs, table.n, (la[0], la[1]))


def _triple(x: float, rows: tuple[np.ndarray, ...]) -> KacRiceTriple:
    log_m, s1, f, log_amb = (float(v[0]) for v in rows)
    return KacRiceTriple(x, log_m, s1, f * f + s1 * s1, log_amb, f)


def kac_rice_eval(table: CoefficientTable, x: float) -> KacRiceTriple:
    """Evaluate (M, B/M, A/M, A*M - B^2, f) at x >= 0 in log scale.

    A/M = f^2 + (B/M)^2 and log(A*M - B^2) = 2 log M + log Var - 2 log x
    = 2 (log M + log f), so neither divides by x^2.  Negative x is handled
    upstream through evenness of the density; x = inf gives the limits.
    """
    if x < 0:
        raise ParameterDomainError(f"kac_rice_eval requires x >= 0, got {x!r}")
    return _triple(float(x), _evaluate(table, np.array([float(x)])))


def _over_abs(fn, x):
    """``fn`` on |x| as a flat array, reshaped like ``x``; a float for a scalar."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    if np.isnan(flat).any():
        raise ParameterDomainError("x must not be NaN")
    res = fn(np.abs(flat))
    return float(res[0]) if arr.ndim == 0 else res.reshape(arr.shape)


def density(table: CoefficientTable, x):
    """Kac-Rice density f(|x|) = sqrt(A*M - B^2)/M; accepts scalars or arrays.

    f(+-inf) = 0, its limit; NaN raises ``ParameterDomainError``.
    """
    return _over_abs(lambda xs: _evaluate(table, xs)[2], x)


# ---------------------------------------------------------------------------
# Kac (gamma = 0) closed forms
# ---------------------------------------------------------------------------

# Taylor coefficients of csch^2(v) - 1/v^2 = sum c_k v^(2k-2), k >= 1:
# c_k = -2^(2k) (2k-1) B_(2k) / (2k)!, B the Bernoulli numbers.
_CSCH2 = (-0.3333333333333333, 0.06666666666666667, -0.010582010582010581,
          0.0014814814814814814, -0.0001924001924001924, 2.380844708887037e-05,
          -2.8503732207435913e-06, 3.332191318496952e-07, -3.8263339078575285e-08,
          4.332978728872515e-09, -4.852350845790551e-10, 5.3846925685597234e-11)
# Odd coefficients of 1/(e^v - 1) - 1/v + 1/2 = sum d_k v^(2k-1), d_k = B_(2k) / (2k)!.
_EXPM1_INV = (0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
              -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
              1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
              -2.174868698558062e-16, 5.5090028283602295e-18)
# The series serve (n+1)|ln x| below this, where the first dropped term is
# below 1e-17 relative; above it the closed forms lose at most ~12x to
# cancellation.
_SERIES_CUT = 0.5
_LN2 = math.log(2.0)


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k."""
    p = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        p = p * z + c
    return p


def _log1mexp(t: np.ndarray) -> np.ndarray:
    """log(1 - e^t) for t < 0, without cancellation on either side of -ln 2."""
    return np.where(t > -_LN2, np.log(-np.expm1(t)), np.log1p(-np.exp(t)))


def _kac_terms(n: int, s: np.ndarray):
    """(near, ln X, 1 - X, 1 - X^(n+1), X^n) at X = y^2, y = e^-s <= 1.

    ``near`` marks the points with (n+1)s < ``_SERIES_CUT``, which the series
    serve; they get X = e^-2 in place, which keeps x = 1 out of 0/0.
    """
    near = (n + 1.0) * s < _SERIES_CUT
    t = -2.0 * (np.where(near, 1.0, s) if near.any() else s)  # ln X
    return near, t, -np.expm1(t), -np.expm1((n + 1.0) * t), np.exp(n * t)


def _kac_f2(n: int, s: np.ndarray, terms) -> np.ndarray:
    """f(y)^2 at y = e^-s <= 1; s = inf (x = 0 or inf) gives f(0)^2 = 1.

    f^2 = 1/(1 - X)^2 - (n+1)^2 X^n / (1 - X^(n+1))^2, which is
    e^(2s)/4 (csch^2 s - (n+1)^2 csch^2((n+1)s)); where the two terms cancel,
    the 1/s^2 poles are taken out and the series of the rest take over.
    """
    big = n + 1.0
    near, _, one_m_x, one_m_xbig, x_n = terms
    f2 = 1.0 / (one_m_x * one_m_x) - big * big * x_n / (one_m_xbig * one_m_xbig)
    if near.any():
        sn = s[near]
        vn = big * sn
        residue = _horner(_CSCH2, sn * sn) - big * big * _horner(_CSCH2, vn * vn)
        f2[near] = np.exp(2.0 * sn) / 4.0 * residue
    return f2


def _unreflect_f(f: np.ndarray, xs: np.ndarray, high: np.ndarray) -> np.ndarray:
    """f(x) = f(1/x)/x^2 at the points x > 1."""
    if high.any():
        xh = xs[high]
        f[high] = f[high] / xh / xh
    return f


def _kac_density(n: int, xs: np.ndarray) -> np.ndarray:
    """Kac density at each x >= 0 of ``xs``, x = 0 and inf included; O(1) per point."""
    with np.errstate(divide="ignore"):  # x = 0: s = inf, which _kac_f2 maps to f = 1
        lx = np.log(xs)
    s = np.abs(lx)
    return _unreflect_f(np.sqrt(_kac_f2(n, s, _kac_terms(n, s))), xs, lx > 0.0)


def _kac_moments(n: int, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows (log M, B/M, f, log(A*M - B^2)) of the Kac family at finite x > 0.

    Every closed form is taken at y = min(x, 1/x) = e^-s, where its terms stay
    bounded, and reflected through the palindromic coefficients:
    M(x) = x^(2n) M(1/x), the mean index phi = x B/M is n - phi(1/x), and
    f(x) = f(1/x)/x^2.  With X = y^2, M = (1 - X^(n+1))/(1 - X) and
    phi = X (1/(1 - X) - (n+1) X^n/(1 - X^(n+1))).
    """
    big = n + 1.0
    lx = np.log(xs)
    s = np.abs(lx)
    high = lx > 0.0
    terms = near, t, one_m_x, one_m_xbig, x_n = _kac_terms(n, s)
    f2 = _kac_f2(n, s, terms)
    q = 1.0 / one_m_x - big * x_n / one_m_xbig  # phi / X
    s1 = xs * q                                 # B/M = phi/x, exact as x -> 0
    if high.any():
        s1[high] = (n - np.exp(t[high]) * q[high]) / xs[high]
    log_m = _log1mexp(big * t) - _log1mexp(t)
    if near.any():
        u = 2.0 * lx[near]  # ln x^2
        w = big * u
        phi = 0.5 * n + big * w * _horner(_EXPM1_INV, w * w) - u * _horner(_EXPM1_INV, u * u)
        s1[near] = phi / xs[near]
        sn = s[near]
        ratio = np.divide(np.expm1(-2.0 * big * sn), np.expm1(-2.0 * sn),
                          out=np.full_like(sn, big), where=sn > 0.0)
        log_m[near] = np.log(ratio)
    up = np.maximum(lx, 0.0)
    log_m += 2.0 * n * up
    log_f = 0.5 * np.log(f2) - 2.0 * up
    f = _unreflect_f(np.sqrt(f2), xs, high)
    return log_m, s1, f, 2.0 * (log_m + log_f)


def _kac_evaluate(n: int, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows (log M, B/M, f, log(A*M - B^2)) of the Kac family at each x >= 0."""
    return _with_limits(lambda v: _kac_moments(n, v), xs, n, (0.0, 0.0))


def kac_density(n: int, x) -> float | np.ndarray:
    """Kac density in O(1) per point; series fallback keeps full precision near |x| = 1."""
    return _over_abs(lambda xs: _kac_density(n, xs), x)


def kac_triple(n: int, x: float) -> KacRiceTriple:
    """Closed-form KacRiceTriple for the Kac family, O(1) per point."""
    if x < 0:
        raise ParameterDomainError(f"kac_triple requires x >= 0, got {x!r}")
    return _triple(float(x), _kac_evaluate(n, np.array([float(x)])))


# ---------------------------------------------------------------------------
# the one dispatch: Kac closed forms or the generic table kernel
# ---------------------------------------------------------------------------

class Kernel(NamedTuple):
    """Array kernels of one family at one degree.

    ``rows`` gives (log M, B/M, f, log(A*M - B^2)) at any x >= 0.  The
    quadrature integrands ``density`` (f) and ``reciprocal`` (f of the
    coefficient-reversed family, which the legs beyond x = 1 integrate) skip
    the checks and limits: they take quadrature nodes, 0 < x < inf.
    """

    rows: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    density: Callable[[np.ndarray], np.ndarray]
    reciprocal: Callable[[np.ndarray], np.ndarray]


def _table_kernel(table: CoefficientTable) -> Kernel:
    la = table.log_sq_coeff
    # a symmetric table is its own reversal, and its reversed legs fold onto
    # the direct ones (see ``_unit_legs``)
    recip = la if table.family.is_symmetric else reciprocal_table(table).log_sq_coeff
    return Kernel(lambda xs: _evaluate(table, xs),
                  lambda xs: _moments(la, xs)[2],
                  lambda xs: _moments(recip, xs)[2])


def kernel(family: PolynomialClass, n: int) -> Kernel:
    """The evaluation kernels for ``family`` at degree ``n``.

    This is the one place that picks the Kac closed forms (gamma = 0, O(1)
    per point, no table) over the generic table kernel.
    """
    if family.kind is FamilyKind.GAMMA and family.gamma == 0.0:
        density_fn = lambda xs: _kac_density(n, xs)  # Kac coefficients are palindromic
        return Kernel(lambda xs: _kac_evaluate(n, xs), density_fn, density_fn)
    return _table_kernel(coefficient_table(family, n))


# ---------------------------------------------------------------------------
# expected root counts
# ---------------------------------------------------------------------------

def _positive_segments(a: float, b: float) -> list[tuple[float, float]]:
    """Fold (a, b) onto the positive half line using evenness of f."""
    segments = []
    if a < 0:
        segments.append((max(-b, 0.0), -a))
    if b > 0:
        segments.append((max(a, 0.0), b))
    return [(lo, hi) for lo, hi in segments if hi > lo]


def _unit_legs(a: float, b: float, symmetric: bool) -> Counter[tuple[float, float, bool]]:
    """Decompose (a, b) into legs (lo, hi, reversed) with 0 <= lo < hi <= 1, counted.

    A reversed leg integrates the reciprocal family's density over (lo, hi),
    which equals the original integral over (1/hi, 1/lo).  For a symmetric
    family the reciprocal density is the density itself, so a reversed leg is
    the direct one.  Each distinct leg appears once, with its multiplicity:
    the full line (-inf, inf) is (0, 1) four times for a symmetric family.
    """
    legs: Counter[tuple[float, float, bool]] = Counter()
    for lo, hi in _positive_segments(a, b):
        if lo < 1.0:
            legs[lo, min(hi, 1.0), False] += 1
        if hi > 1.0:
            inv_hi = 0.0 if math.isinf(hi) else 1.0 / hi
            legs[inv_hi, 1.0 / max(lo, 1.0), not symmetric] += 1
    return legs


def _integrate_legs(k: Kernel, symmetric: bool, a: float, b: float, tol: float) -> QuadratureResult:
    """(1/pi) * integral of f over (a, b): each distinct leg once, scaled by its multiplicity.

    Every leg gets ``tol`` over the total multiplicity, so the scaled error
    estimates still add up to at most ``tol``.
    """
    legs = _unit_legs(a, b, symmetric)
    per_leg = tol / sum(legs.values())
    total = QuadratureResult(0.0, 0.0, 0, True)
    for (lo, hi, use_reciprocal), count in legs.items():
        integrand = k.reciprocal if use_reciprocal else k.density
        leg = adaptive_quadrature(lambda xs, g=integrand: g(xs) / math.pi, lo, hi, tol=per_leg)
        total = total + QuadratureResult(count * leg.value, count * leg.abs_error_estimate,
                                         leg.evaluations, leg.converged)
    return total


def _validate_interval(a: float, b: float, tol: float) -> None:
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise ParameterDomainError(f"need a < b, got ({a!r}, {b!r})")
    if not tol > 0:
        raise ParameterDomainError(f"tolerance must be positive, got {tol!r}")


def expected_roots_interval(
    table: CoefficientTable, a: float, b: float, tol: float = 1e-9
) -> QuadratureResult:
    """(1/pi) * integral of f over (a, b); endpoints may be +-inf."""
    _validate_interval(a, b, tol)
    return _integrate_legs(_table_kernel(table), table.family.is_symmetric, a, b, tol)


def expected_roots_interval_result(
    family: PolynomialClass, n: int, a: float, b: float, tol: float = 1e-9
) -> QuadratureResult:
    """``expected_roots_interval`` for ``family`` at degree ``n``, through ``kernel``."""
    _validate_interval(a, b, tol)
    return _integrate_legs(kernel(family, n), family.is_symmetric, a, b, tol)


def kac_expected_roots_interval(n: int, a: float, b: float, tol: float = 1e-9) -> QuadratureResult:
    """Interval root count for the Kac family via the closed-form density."""
    return expected_roots_interval_result(kac(), n, a, b, tol)


def expected_roots_real_line_result(
    family: PolynomialClass, n: int, tol: float = 1e-9
) -> QuadratureResult:
    """Full-line expected root count: the interval (-inf, inf).

    That is 4 * E(0, 1) for a symmetric family and 2 * (E(0, 1) +
    E_reciprocal(0, 1)) otherwise, the reciprocal leg covering (1, inf).
    """
    return expected_roots_interval_result(family, n, -math.inf, math.inf, tol)


def expected_roots_real_line(family: PolynomialClass, n: int, tol: float = 1e-9) -> float:
    result = expected_roots_real_line_result(family, n, tol)
    if not result.converged:
        raise QuadratureError(
            f"root-count quadrature did not converge for {family.label()} at n={n} "
            f"(error estimate {result.abs_error_estimate:.3e})"
        )
    return result.value


def expected_internal_equilibria(family: PolynomialClass, n: int, tol: float = 1e-9) -> float:
    """Expected internal equilibria: half the expected number of real roots."""
    return 0.5 * expected_roots_real_line(family, n, tol)


# ---------------------------------------------------------------------------
# finite-difference residuals of the B = M'/2 and A = (x M')'/(4x) relations
# ---------------------------------------------------------------------------

def relation_residuals(table: CoefficientTable, x: float, h: float | None = None) -> tuple[float, float]:
    """Residuals of the derivative relations, normalized by M(x).

    r1 = |B/M - (finite difference of M)/(2M)| and r2 the analogue for
    A = (x M')'/(4x); both should vanish to O(h^2) + roundoff.
    """
    if not x > 0:
        raise ParameterDomainError(f"relation_residuals requires x > 0, got {x!r}")
    if h is None:
        h = max(1e-6, 1e-8 * x)
    ys = np.array([x - h, x, x + h])
    log_m, s1, f, _ = _evaluate(table, ys)
    # M(y)/M(x) and y * M'(y)/M(x); M' = 2B so y*M'(y) = 2y*S1(y)*M(y)
    ratio = np.exp(log_m - log_m[1])
    g = 2.0 * ys * s1 * ratio
    fd_mprime = (ratio[2] - ratio[0]) / (2.0 * h)       # M'(x)/M(x)
    fd_xmprime = (g[2] - g[0]) / (2.0 * h)              # (x M'(x))'/M(x)
    r1 = abs(s1[1] - 0.5 * fd_mprime)
    r2 = abs(f[1] * f[1] + s1[1] * s1[1] - fd_xmprime / (4.0 * x))
    return float(r1), float(r2)
