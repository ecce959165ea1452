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

evaluated through series fallbacks near X = 1, which makes density and root
counts O(1) per point up to n ~ 10^6.

Intervals reaching past x = 1 are always mapped back onto (0, 1) through the
substitution u = 1/x, whose integrand is the density of the reciprocal
(coefficient-reversed) family; infinite endpoints are never integrated
improperly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, QuadratureError
from .families import (
    CoefficientTable,
    FamilyKind,
    PolynomialClass,
    coefficient_table,
    reciprocal_table,
)
from .quadrature import QuadratureResult, adaptive_quadrature

__all__ = [
    "KacRiceTriple",
    "kac_rice_eval",
    "density",
    "expected_roots_interval",
    "expected_roots_real_line",
    "expected_roots_real_line_result",
    "expected_internal_equilibria",
    "relation_residuals",
    "kac_log_variance",
    "kac_density",
    "kac_triple",
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
    """(log M, B/M, f, log f) at each x > 0 of the 1-d array ``xs``.

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


def _evaluate(table: CoefficientTable, xs: np.ndarray):
    """``_moments`` at each x >= 0 of ``xs``, with the exact limits at x = 0."""
    la = table.log_sq_coeff
    zero = xs == 0.0
    if not np.count_nonzero(zero):
        return _moments(la, xs)
    half_gap = 0.5 * (la[1] - la[0])
    out = np.empty((4, len(xs)))
    out[:, zero] = np.array([[la[0]], [0.0], [math.exp(half_gap)], [half_gap]])
    if not zero.all():
        out[:, ~zero] = _moments(la, xs[~zero])
    return out


def kac_rice_eval(table: CoefficientTable, x: float) -> KacRiceTriple:
    """Evaluate (M, B/M, A/M, A*M - B^2, f) at x >= 0 in log scale.

    A/M = f^2 + (B/M)^2 and log(A*M - B^2) = 2 log M + log Var - 2 log x
    = 2 (log M + log f), so neither divides by x^2.  Negative x is handled
    upstream through evenness of the density.
    """
    if x < 0:
        raise ParameterDomainError(f"kac_rice_eval requires x >= 0, got {x!r}")
    log_m, s1, f, log_f = (float(v[0]) for v in _evaluate(table, np.array([float(x)])))
    return KacRiceTriple(float(x), log_m, s1, f * f + s1 * s1, 2.0 * (log_m + log_f), f)


def _log_m_s1_s2(table: CoefficientTable, x: float) -> tuple[float, float, float]:
    """(log M, B/M, A/M) at x >= 0."""
    t = kac_rice_eval(table, x)
    return t.log_m, t.s1, t.s2


def _density_array(table: CoefficientTable, xs: np.ndarray) -> np.ndarray:
    """Vectorized f(|x|); drives the quadrature."""
    return _evaluate(table, np.abs(np.asarray(xs, dtype=float)))[2]


def density(table: CoefficientTable, x):
    """Kac-Rice density f(|x|) = sqrt(A*M - B^2)/M; accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    res = _density_array(table, np.atleast_1d(arr).ravel())
    return float(res[0]) if arr.ndim == 0 else res.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Kac (gamma = 0) closed forms
# ---------------------------------------------------------------------------

# Taylor coefficients of csch^2(v) - 1/v^2 = sum c_k v^(2k-2), k >= 1.
_CSCH2 = (-1.0 / 3, 1.0 / 15, -2.0 / 189, 7.0 / 4725, -2.0 / 10395, 1382.0 / 58046625)
# Odd coefficients of 1/(e^v - 1) - 1/v + 1/2 = sum d_k v^(2k-1), k >= 1.
_EXPM1_INV = (1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600)
_SERIES_CUT = 0.25  # switch to series once |(n+1) ln X| drops below this


def kac_log_variance(n: int, x: float) -> float:
    """log M(x) = log((1 - x^(2n+2))/(1 - x^2)) for the Kac family, O(1)."""
    big = n + 1
    x = abs(float(x))
    if x == 0.0:
        return 0.0
    u = 2.0 * math.log(x)
    if u == 0.0:
        return math.log(big)
    w = big * u
    if u > 0:
        lo = w + math.log1p(-math.exp(-w)) if w > 36.0 else math.log(math.expm1(w))
        return lo - math.log(math.expm1(u))
    return math.log(-math.expm1(w)) - math.log(-math.expm1(u))


def kac_density(n: int, x) -> float | np.ndarray:
    """Kac density in O(1) per point; series fallback keeps full precision near |x| = 1."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return _kac_density_scalar(n, float(arr))
    return np.array([_kac_density_scalar(n, float(v)) for v in arr.ravel()]).reshape(arr.shape)


def _kac_density_scalar(n: int, x: float) -> float:
    big = n + 1
    x = abs(x)
    if x == 0.0:
        return 1.0
    if x > 1.0:
        return _kac_density_scalar(n, 1.0 / x) / (x * x)
    s = -math.log(x)  # x = e^{-s}, s >= 0
    v = big * s
    if v == 0.0:
        return math.sqrt(n * (n + 2) / 12.0)
    if v >= _SERIES_CUT:
        one_m_x2 = -math.expm1(-2.0 * s)
        one_m_x2big = -math.expm1(-2.0 * v)
        f2 = 1.0 / one_m_x2**2 - big * big * math.exp(-2.0 * n * s) / one_m_x2big**2
    else:
        f2 = 0.0
        for k, c in enumerate(_CSCH2, start=1):
            f2 += c * s ** (2 * k - 2) * (1.0 - float(big) ** (2 * k))
        f2 *= math.exp(2.0 * s) / 4.0
    return math.sqrt(max(f2, 0.0))


def _kac_phi(n: int, u: float) -> float:
    """phi(X) = X M'(X)/M(X) at u = ln X; equals B/(M) * x at X = x^2."""
    big = n + 1
    if abs(big * u) < _SERIES_CUT:
        phi = 0.5 * n
        for k, d in enumerate(_EXPM1_INV, start=1):
            phi += d * u ** (2 * k - 1) * (float(big) ** (2 * k) - 1.0)
        return phi
    w = big * u
    term_big = big * math.exp(-w) if w > 36.0 else big / math.expm1(w)
    term_one = math.exp(-u) if u > 36.0 else 1.0 / math.expm1(u)
    return (big - 1.0) + term_big - term_one


def kac_triple(n: int, x: float) -> KacRiceTriple:
    """Closed-form KacRiceTriple for the Kac family, O(1) per point."""
    if x < 0:
        raise ParameterDomainError(f"kac_triple requires x >= 0, got {x!r}")
    if x == 0.0:
        return KacRiceTriple(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    f = _kac_density_scalar(n, x)
    log_m = kac_log_variance(n, x)
    u = 2.0 * math.log(x)
    phi = _kac_phi(n, u)
    s1 = phi / x
    s2 = f * f + phi * phi / (x * x)
    log_amb = 2.0 * math.log(f) + 2.0 * log_m
    return KacRiceTriple(float(x), log_m, s1, s2, log_amb, f)


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


def _unit_legs(a: float, b: float) -> list[tuple[float, float, bool]]:
    """Decompose (a, b) into legs (lo, hi, reversed) with 0 <= lo < hi <= 1.

    A reversed leg integrates the reciprocal family's density over (lo, hi),
    which equals the original integral over (1/hi, 1/lo).
    """
    legs = []
    for lo, hi in _positive_segments(a, b):
        if lo < 1.0:
            legs.append((lo, min(hi, 1.0), False))
        if hi > 1.0:
            inv_hi = 0.0 if math.isinf(hi) else 1.0 / hi
            legs.append((inv_hi, 1.0 / max(lo, 1.0), True))
    return legs


def _integrate_legs(direct, reciprocal, a, b, tol) -> QuadratureResult:
    legs = _unit_legs(a, b)
    if not legs:
        return QuadratureResult(0.0, 0.0, 0, True)
    per_leg = tol / len(legs)
    total = QuadratureResult(0.0, 0.0, 0, True)
    for lo, hi, use_reciprocal in legs:
        integrand = reciprocal if use_reciprocal else direct
        total = total + adaptive_quadrature(
            lambda xs, g=integrand: g(xs) / math.pi, lo, hi, tol=per_leg
        )
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
    recip = reciprocal_table(table)
    return _integrate_legs(
        lambda xs: _density_array(table, xs),
        lambda xs: _density_array(recip, xs),
        a, b, tol,
    )


def kac_expected_roots_interval(n: int, a: float, b: float, tol: float = 1e-9) -> QuadratureResult:
    """Interval root count for the Kac family via the closed-form density."""
    _validate_interval(a, b, tol)
    fn = lambda xs: kac_density(n, xs)  # Kac coefficients are palindromic
    return _integrate_legs(fn, fn, a, b, tol)


def expected_roots_real_line_result(
    family: PolynomialClass, n: int, tol: float = 1e-9
) -> QuadratureResult:
    """Full-line expected root count as a QuadratureResult.

    Symmetric families use 4 * E(0, 1); otherwise the count is
    2 * (E(0, 1) + E_reciprocal(0, 1)), the reciprocal leg covering (1, inf).
    """
    if not tol > 0:
        raise ParameterDomainError(f"tolerance must be positive, got {tol!r}")
    if family.kind is FamilyKind.GAMMA and family.gamma == 0.0:
        leg = kac_expected_roots_interval(n, 0.0, 1.0, tol / 4.0)
        return QuadratureResult(4.0 * leg.value, 4.0 * leg.abs_error_estimate,
                                leg.evaluations, leg.converged)
    table = coefficient_table(family, n)
    direct = lambda xs: _density_array(table, xs)
    leg = adaptive_quadrature(lambda xs: direct(xs) / math.pi, 0.0, 1.0, tol=tol / 4.0)
    if family.is_symmetric:
        return QuadratureResult(4.0 * leg.value, 4.0 * leg.abs_error_estimate,
                                leg.evaluations, leg.converged)
    recip = reciprocal_table(table)
    other = adaptive_quadrature(
        lambda xs: _density_array(recip, xs) / math.pi, 0.0, 1.0, tol=tol / 4.0
    )
    return QuadratureResult(
        2.0 * (leg.value + other.value),
        2.0 * (leg.abs_error_estimate + other.abs_error_estimate),
        leg.evaluations + other.evaluations,
        leg.converged and other.converged,
    )


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
    log_m0, s1_0, s2_0 = _log_m_s1_s2(table, x)

    def scaled(y: float) -> tuple[float, float]:
        # (M(y)/M(x), y * M'(y)/M(x)); M' = 2B so y*M'(y) = 2y*S1(y)*M(y)
        log_m, s1, _ = _log_m_s1_s2(table, y)
        ratio = math.exp(log_m - log_m0)
        return ratio, 2.0 * y * s1 * ratio

    m_plus, g_plus = scaled(x + h)
    m_minus, g_minus = scaled(x - h)
    fd_mprime = (m_plus - m_minus) / (2.0 * h)       # M'(x)/M(x)
    fd_xmprime = (g_plus - g_minus) / (2.0 * h)      # (x M'(x))'/M(x)
    r1 = abs(s1_0 - 0.5 * fd_mprime)
    r2 = abs(s2_0 - fd_xmprime / (4.0 * x))
    return r1, r2
