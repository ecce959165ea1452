"""Self-contained identity suites behind ``randroot verify``.

Each property cross-checks two independent routes to the same quantity
(identity vs direct sum, closed form vs evaluation, substitution vs direct
integration) and reports the worst deviation seen over its grid.
"""
from __future__ import annotations

import math

import numpy as np

from .families import alpha_beta_family, coefficient_table, gamma_family
from .jacobi import density_endpoints, derivative_recurrence_residual, log_variance_via_jacobi
from .kacrice import density, expected_roots_interval, kac_rice_eval

_AB_GRID = ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5))
_X_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


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
    from .kacrice import _log_m_s1_s2

    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["identity_n"]:
            table = coefficient_table(family, n)
            for x in _X_GRID:
                direct, _, _ = _log_m_s1_s2(table, x)
                via_jacobi = log_variance_via_jacobi(n, alpha, beta, x)
                worst = max(worst, abs(math.expm1(via_jacobi - direct)))
    return worst < 1e-10, f"worst rel dev {worst:.3e} (tol 1e-10)"


def _brute_gram(log_sq: np.ndarray, x: float) -> float:
    """log of the double sum 1/2 sum (i-j)^2 a_i^2 a_j^2 x^(2(i+j-1)), directly."""
    n = len(log_sq) - 1
    scale = float(log_sq.max())
    a_sq = np.exp(log_sq - scale)
    terms = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                terms.append((i - j) ** 2 * a_sq[i] * a_sq[j] * x ** (2 * (i + j - 1)))
    return math.log(0.5 * math.fsum(sorted(terms))) + 2.0 * scale


def _check_gram_identity(params) -> tuple[bool, str]:
    worst = 0.0
    families = [gamma_family(0.0), gamma_family(0.5), gamma_family(1.0)]
    families += [alpha_beta_family(a, b) for a, b in params["ab_grid"][:3]]
    for family in families:
        for n in params["gram_n"]:
            table = coefficient_table(family, n)
            for x in (0.1, 0.5, 1.0, 2.0):
                lse = kac_rice_eval(table, x).log_amb
                brute = _brute_gram(table.log_sq_coeff, x)
                worst = max(worst, abs(math.expm1(lse - brute)))
    return worst < 1e-11, f"worst rel dev {worst:.3e} (tol 1e-11)"


def _check_recurrence(params) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        for n in params["recurrence_n"]:
            for x in (0.3, 1.0, 1.7):
                worst = max(worst, derivative_recurrence_residual(n, alpha, beta, x))
    return worst < 1e-9, f"worst residual {worst:.3e} (tol 1e-9)"


def _check_endpoints(params) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["recurrence_n"]:
            table = coefficient_table(family, n)
            f0, f1 = density_endpoints(n, alpha, beta)
            worst = max(worst, abs(density(table, 0.0) / f0 - 1.0))
            worst = max(worst, abs(density(table, 1.0) / f1 - 1.0))
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
    tol = 1e-9
    worst = 0.0
    for family in (gamma_family(1.0), gamma_family(0.5), alpha_beta_family(1.5, 1.5)):
        for n in params["envelope_n"]:
            table = coefficient_table(family, n)
            inner = expected_roots_interval(table, 0.0, 1.0, tol)
            outer = expected_roots_interval(table, 1.0, math.inf, tol)
            worst = max(worst, abs(inner.value - outer.value))
    return worst < 10 * tol, f"worst |E(0,1) - E(1,inf)| = {worst:.3e} (tol {10 * tol:g})"
