"""Self-contained identity suites behind ``randroot verify``.

Each property cross-checks two independent routes to the same quantity
(identity vs direct sum, closed form vs evaluation, substitution vs direct
integration) and reports the worst deviation seen over its grid.

``derivative_recurrence_residual``, the Jacobi recurrence held against the
kernel's log M and B/M, lives here so that ``jacobi`` imports no kernel.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterDomainError
from .families import alpha_beta_family, coefficient_table, gamma_family, reciprocal_table
from .jacobi import density_endpoints, log_variance_via_jacobi
from .kacrice import density, expected_roots_interval, kernel
from .quadrature import adaptive_quadrature

_AB_GRID = ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5))
_X_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_GRAM_X = (0.1, 0.5, 1.0, 2.0)
_RECURRENCE_X = (0.3, 1.0, 1.7)


def _suite_params(level: str) -> dict:
    if level == "full":
        return {
            "identity_n": (2, 5, 9, 14, 20),
            "gram_n": (1, 2, 3, 5, 8, 12, 15),
            "ab_grid": _AB_GRID + ((2.5, 2.5), (-0.5, 1.5)),
            "recurrence_n": tuple(range(2, 11)),
            "envelope_n": (2, 5, 12, 30),
        }
    return {
        "identity_n": (2, 5, 9),
        "gram_n": (1, 3, 7),
        "ab_grid": _AB_GRID,
        "recurrence_n": (2, 5, 9),
        "envelope_n": (2, 5, 12),
    }


def run_suite(level: str) -> list[tuple[str, bool, str]]:
    params = _suite_params(level)
    checks = [
        ("variance_jacobi_identity", _check_variance_identity),
        ("gram_double_sum_identity", _check_gram_identity),
        ("derivative_recurrence", _check_recurrence),
        ("density_endpoints", _check_endpoints),
        ("density_envelope", _check_envelope),
        ("density_symmetry", _check_symmetry),
        ("quadrature_reciprocity", _check_reciprocity),
    ]
    return [(name, *fn(params)) for name, fn in checks]


def _check_variance_identity(params) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["identity_n"]:
            log_m = kernel(family, n).rows(np.array(_X_GRID))[0]
            for x, direct in zip(_X_GRID, log_m.tolist()):
                via_jacobi = log_variance_via_jacobi(n, alpha, beta, x)
                worst = max(worst, abs(math.expm1(via_jacobi - direct)))
    return worst < 1e-10, f"worst rel dev {worst:.3e} (tol 1e-10)"


def _brute_gram(log_sq: np.ndarray, x: float) -> float:
    """log of the double sum 1/2 sum (i-j)^2 a_i^2 a_j^2 x^(2(i+j-1)), directly.

    Every term is formed on its own and ``fsum`` adds them exactly rounded.
    """
    scale = float(log_sq.max())
    a_sq = np.exp(log_sq - scale)
    i = np.arange(len(log_sq))
    gap = np.subtract.outer(i, i)
    powers = np.array([x ** (2 * (k - 1)) for k in range(2 * len(log_sq) - 1)])  # x^(2(i+j-1))
    terms = gap * gap * a_sq[:, None] * a_sq[None, :] * powers[np.add.outer(i, i)]
    return math.log(0.5 * math.fsum(terms[gap != 0])) + 2.0 * scale


def _check_gram_identity(params) -> tuple[bool, str]:
    worst = 0.0
    families = [gamma_family(0.0), gamma_family(0.5), gamma_family(1.0)]
    families += [alpha_beta_family(a, b) for a, b in params["ab_grid"][:3]]
    for family in families:
        for n in params["gram_n"]:
            log_amb = kernel(family, n).rows(np.array(_GRAM_X))[3]
            log_sq = coefficient_table(family, n).log_sq_coeff
            for x, lse in zip(_GRAM_X, log_amb.tolist()):
                brute = _brute_gram(log_sq, x)
                worst = max(worst, abs(math.expm1(lse - brute)))
    return worst < 1e-11, f"worst rel dev {worst:.3e} (tol 1e-11)"


def derivative_recurrence_residual(n: int, alpha: float, beta: float, x):
    """Residual of the M_n'/M_n/M_{n-1} recurrence, normalized by M_n(x).

    Checks x*(2n+a+b)*M_n'(x) = n*(2n+a+b+b-a)*M_n(x)
    - 2*(1-x^2)*(n+a)*(n+b)*M_{n-1}(x), with M_n' = 2*B_n taken analytically.
    (The asymmetry term carries the factor n: differentiating
    (1-x^2)^n J_n((1+x^2)/(1-x^2)) and eliminating J_n' leaves n*(b-a), as
    brute-force expansion at small n confirms.)  Scalar or array x > 0; a
    scalar x gives a float.
    """
    if n < 2:
        raise ParameterDomainError(f"recurrence residual needs n >= 2, got {n}")
    arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(arr).ravel()
    if not (xs > 0).all():
        raise ParameterDomainError(f"need x > 0, got {x!r}")
    family = alpha_beta_family(alpha, beta)
    log_m_n, s1_n = kernel(family, n).rows(xs)[:2]
    log_m_prev = kernel(family, n - 1).rows(xs)[0]
    s = 2.0 * n + alpha + beta
    ratio_prev = np.exp(log_m_prev - log_m_n)
    residual = np.abs(
        xs * s * 2.0 * s1_n
        - n * (s + beta - alpha)
        + 2.0 * (1.0 - xs * xs) * (n + alpha) * (n + beta) * ratio_prev
    )
    return float(residual[0]) if arr.ndim == 0 else residual.reshape(arr.shape)


def _check_recurrence(params) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        for n in params["recurrence_n"]:
            worst = max(worst, float(derivative_recurrence_residual(n, alpha, beta, _RECURRENCE_X).max()))
    return worst < 1e-9, f"worst residual {worst:.3e} (tol 1e-9)"


def _check_endpoints(params) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["recurrence_n"]:
            at_0, at_1 = density(coefficient_table(family, n), np.array([0.0, 1.0])).tolist()
            f0, f1 = density_endpoints(n, alpha, beta)
            worst = max(worst, abs(at_0 / f0 - 1.0), abs(at_1 / f1 - 1.0))
    return worst < 1e-10, f"worst rel dev {worst:.3e} (tol 1e-10)"


def _check_envelope(params) -> tuple[bool, str]:
    xs = np.linspace(0.05, 3.0, 40)
    worst = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.5):
        family = alpha_beta_family(alpha, alpha)
        for n in params["envelope_n"]:
            table = coefficient_table(family, n)
            f = density(table, xs)
            envelope = np.sqrt(n) / (2.0 * xs)
            worst = max(worst, float((f / envelope).max()) - 1.0)
            # sandwich on [0, 1] and monotone decay on (0, inf)
            f0, f1 = density_endpoints(n, alpha, alpha)
            inside = xs <= 1.0
            tol = 1e-12
            if (f[inside] > f0 * (1 + tol)).any() or (f[inside] < f1 * (1 - tol)).any():
                return False, "sandwich f(1) <= f(x) <= f(0) violated"
            if (np.diff(f) > tol * np.abs(f[:-1])).any():
                return False, "density not nonincreasing on (0, inf)"
    return worst < 1e-12, f"worst envelope excess {worst:.3e}"


def _check_symmetry(params) -> tuple[bool, str]:
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["identity_n"]:
            table = coefficient_table(family, n)
            swapped = coefficient_table(alpha_beta_family(beta, alpha), n)
            if not np.array_equal(table.log_sq_coeff[::-1], swapped.log_sq_coeff):
                return False, f"reversal contract broken at n={n}, ({alpha}, {beta})"
            xs = np.array([0.2, 0.8, 1.6])
            if not np.array_equal(density(table, xs), density(table, -xs)):
                return False, "density not even"
    return True, ""


def _check_reciprocity(params) -> tuple[bool, str]:
    """E(1, inf) as E(0, 1) on the reversed table against u = 1/x on the direct one.

    ``expected_roots_interval`` integrates (0, 1) of the reversed table over
    s = -ln x; the substitution integrates f(1/u)/u^2 with the direct table,
    which evaluates it beyond x = 1.
    """
    tol = 1e-9
    worst = 0.0
    for family in (gamma_family(1.0), gamma_family(0.5), alpha_beta_family(0.5, 2.0)):
        for n in params["envelope_n"]:
            table = coefficient_table(family, n)
            outer = expected_roots_interval(reciprocal_table(table), 0.0, 1.0, tol)
            sub = adaptive_quadrature(
                lambda us: density(table, 1.0 / us) / (math.pi * us * us), 0.0, 1.0, tol)
            worst = max(worst, abs(outer.value - sub.value))
    return worst < 10 * tol, f"worst |E(1,inf) - E(u = 1/x)| = {worst:.3e} (tol {10 * tol:g})"
