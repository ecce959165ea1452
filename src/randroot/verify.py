"""Self-contained identity suites behind ``randroot verify``.

Each property cross-checks two independent routes to the same quantity
(identity vs direct sum, closed form vs evaluation, substitution vs direct
integration, a table vs its reversal) and reports the worst deviation seen
over its grid.

A suite builds one table and one kernel per (family, n), and reads all the
rows its checks take from one kernel call on the fixed grid ``_SUITE_X``, 48
points: the union of ``_X_GRID`` (variance identity), ``_GRAM_X`` (Gram sum),
``_RECURRENCE_X`` at n and n - 1 (recurrence; its x = 1 serves the
endpoints) and ``_ENVELOPE_X``.  The endpoint x = 0 takes a call of its own,
as a call holding it takes the evaluator's masked limit-row path; so do the
reciprocity quadratures.

The symmetry check holds the reversal contract bit for bit on both arrays a
kernel sums: swapping alpha and beta reverses ``log_sq_coeff``, and reverses
and negates ``log_ratio``.  Evenness, f(-x) = f(x), needs no check, as
``density`` takes |x| before any kernel sees a point.

``derivative_recurrence_residual``, the Jacobi recurrence held against the
kernel's log M and B/M, lives here so that ``jacobi`` imports no kernel.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError, ParameterDomainError, _check_integer
from .families import alpha_beta_family, coefficient_table, gamma_family, reciprocal_table
from .jacobi import density_endpoints, log_variance_via_jacobi
from .kacrice import _table_kernel, expected_roots_interval, kernel
from .quadrature import adaptive_quadrature

_AB_GRID = ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5))
_X_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_GRAM_X = (0.1, 0.5, 1.0, 2.0)
_RECURRENCE_X = (0.3, 1.0, 1.7)
_ENVELOPE_X = tuple(np.linspace(0.05, 3.0, 40).tolist())
_ENVELOPE_ALPHA = (-0.5, 0.0, 1.0, 2.5)
_SUITE_X = sorted({*_X_GRID, *_GRAM_X, *_RECURRENCE_X, *_ENVELOPE_X})  # the x of every grid call
_COLUMN = {x: i for i, x in enumerate(_SUITE_X)}


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
        "recurrence_n": (2, 5, 9, 130),
        "envelope_n": (2, 5, 12),
    }


def run_suite(level: str) -> list[tuple[str, bool, str]]:
    params = _suite_params(level)
    # memos of this call alone; no closure refers to itself or to an object
    # that holds the memos, so all they hold dies with the call by reference counting
    table = functools.cache(coefficient_table)
    kernel_of = functools.cache(lambda family, n: kernel(family, n) if family.is_kac  # Kac needs no table
                                else _table_kernel(table(family, n)))
    grid_rows = functools.cache(lambda family, n: np.array(kernel_of(family, n).rows(np.array(_SUITE_X))))

    def rows(family, n, xs) -> np.ndarray:
        """Rows (log M, B/M, f, log(A*M - B^2)) at ``xs``, points of ``_SUITE_X``."""
        return grid_rows(family, n)[:, [_COLUMN[x] for x in xs]]

    checks = [
        ("variance_jacobi_identity", _check_variance_identity),
        ("gram_double_sum_identity", _check_gram_identity),
        ("derivative_recurrence", _check_recurrence),
        ("density_endpoints", _check_endpoints),
        ("density_envelope", _check_envelope),
        ("density_symmetry", _check_symmetry),
        ("quadrature_reciprocity", _check_reciprocity),
    ]
    return [(name, *fn(params, table, kernel_of, rows)) for name, fn in checks]


def _worst(*deviations: float) -> float:
    """The largest deviation, NaN if any is NaN, where Python's ``max`` may drop it: a check fails on it."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _check_variance_identity(params, table, kernel, rows) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["identity_n"]:
            via_jacobi = log_variance_via_jacobi(n, alpha, beta, np.array(_X_GRID))
            worst = _worst(worst, float(np.abs(np.expm1(via_jacobi - rows(family, n, _X_GRID)[0])).max()))
    return worst < 1e-10, f"worst rel dev {worst:.3e} (tol 1e-10)"


def _brute_gram(log_sq: np.ndarray, xs) -> np.ndarray:
    """log of the double sum 1/2 sum (i-j)^2 a_i^2 a_j^2 x^(2(i+j-1)) at each x of ``xs``, directly.

    Every term is formed on its own, from one outer product for all x, and
    ``fsum`` adds each x's terms exactly rounded.
    """
    scale = float(log_sq.max())
    a_sq = np.exp(log_sq - scale)
    i = np.arange(len(log_sq))
    gap = np.subtract.outer(i, i)
    powers = np.array([[x ** (2 * (k - 1)) for k in range(2 * len(log_sq) - 1)] for x in xs])  # x^(2(i+j-1))
    terms = (gap * gap * a_sq[:, None] * a_sq[None, :])[gap != 0] * powers[:, np.add.outer(i, i)[gap != 0]]
    return np.array([math.log(0.5 * math.fsum(row)) + 2.0 * scale for row in terms])


def _check_gram_identity(params, table, kernel, rows) -> tuple[bool, str]:
    worst = 0.0
    for family in ([gamma_family(g) for g in (0.0, 0.5, 1.0)]
                   + [alpha_beta_family(*ab) for ab in params["ab_grid"][:3]]):
        for n in params["gram_n"]:
            brute = _brute_gram(table(family, n).log_sq_coeff, _GRAM_X)
            worst = _worst(worst, float(np.abs(np.expm1(rows(family, n, _GRAM_X)[3] - brute)).max()))
    return worst < 1e-11, f"worst rel dev {worst:.3e} (tol 1e-11)"


def _recurrence_residual(n: int, alpha: float, beta: float, xs: np.ndarray, rows) -> np.ndarray:
    """``derivative_recurrence_residual`` at ``xs``, from kernel rows ``rows(m)`` at ``xs``, m = n and n - 1."""
    (log_m_n, s1_n), log_m_prev = rows(n)[:2], rows(n - 1)[0]
    s = 2.0 * n + alpha + beta
    return np.abs(xs * s * 2.0 * s1_n - n * (s + beta - alpha)
                  + 2.0 * (1.0 - xs * xs) * (n + alpha) * (n + beta) * np.exp(log_m_prev - log_m_n))


def derivative_recurrence_residual(n: int, alpha: float, beta: float, x):
    """Residual of the M_n'/M_n/M_{n-1} recurrence, normalized by M_n(x).

    Checks x*(2n+a+b)*M_n'(x) = n*(2n+a+b+b-a)*M_n(x)
    - 2*(1-x^2)*(n+a)*(n+b)*M_{n-1}(x), with M_n' = 2*B_n taken analytically.
    (The asymmetry term carries the factor n: differentiating
    (1-x^2)^n J_n((1+x^2)/(1-x^2)) and eliminating J_n' leaves n*(b-a), as
    brute-force expansion at small n confirms.)  Scalar or array finite x > 0, a
    scalar giving a float; a residual past the double range raises NumericError.
    """
    _check_integer(n, 2)
    arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(arr).ravel()
    if not ((xs > 0) & (xs < math.inf)).all():
        raise ParameterDomainError(f"need finite x > 0, got {x!r}")
    family = alpha_beta_family(alpha, beta)
    with np.errstate(over="ignore", invalid="ignore"):  # a residual past the double range raises below
        residual = _recurrence_residual(n, alpha, beta, xs, lambda m: kernel(family, m).rows(xs))
    if not np.isfinite(residual).all():
        bad = float(xs[~np.isfinite(residual)][0])
        raise NumericError(f"recurrence residual at x = {bad!r} does not fit in a double")
    return float(residual[0]) if arr.ndim == 0 else residual.reshape(arr.shape)


def _check_recurrence(params, table, kernel, rows) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["recurrence_n"]:
            residual = _recurrence_residual(n, alpha, beta, np.array(_RECURRENCE_X),
                                            lambda m: rows(family, m, _RECURRENCE_X))
            worst = _worst(worst, float(residual.max()))
    return worst < 1e-9, f"worst residual {worst:.3e} (tol 1e-9)"


def _check_endpoints(params, table, kernel, rows) -> tuple[bool, str]:
    worst = 0.0
    for alpha, beta in params["ab_grid"]:
        family = alpha_beta_family(alpha, beta)
        for n in params["recurrence_n"]:
            at_0 = float(kernel(family, n).rows(np.zeros(1))[2][0])
            at_1 = float(rows(family, n, (1.0,))[2, 0])
            f0, f1 = density_endpoints(n, alpha, beta)
            worst = _worst(worst, abs(at_0 / f0 - 1.0), abs(at_1 / f1 - 1.0))
    return worst < 1e-10, f"worst rel dev {worst:.3e} (tol 1e-10)"


def _check_envelope(params, table, kernel, rows) -> tuple[bool, str]:
    xs = np.array(_ENVELOPE_X)
    worst = -math.inf
    for alpha in _ENVELOPE_ALPHA:
        family = alpha_beta_family(alpha, alpha)
        for n in params["envelope_n"]:
            f = rows(family, n, _ENVELOPE_X)[2]
            envelope = np.sqrt(n) / (2.0 * xs)
            worst = _worst(worst, float((f / envelope).max()) - 1.0)
            # sandwich on [0, 1] and monotone decay on (0, inf)
            f0, f1 = density_endpoints(n, alpha, alpha)
            inside = xs <= 1.0
            tol = 1e-12
            if (f[inside] > f0 * (1 + tol)).any() or (f[inside] < f1 * (1 - tol)).any():
                return False, "sandwich f(1) <= f(x) <= f(0) violated"
            if (np.diff(f) > tol * np.abs(f[:-1])).any():
                return False, "density not nonincreasing on (0, inf)"
    return worst < 1e-12, f"worst envelope excess {worst:.3e}"


def _check_symmetry(params, table, kernel, rows) -> tuple[bool, str]:
    for alpha, beta in params["ab_grid"]:
        for n in params["identity_n"]:
            direct = table(alpha_beta_family(alpha, beta), n)
            swapped = table(alpha_beta_family(beta, alpha), n)
            if not (np.array_equal(direct.log_sq_coeff[::-1], swapped.log_sq_coeff)
                    and np.array_equal(-direct.log_ratio[::-1], swapped.log_ratio)):
                return False, f"reversal contract broken at n={n}, ({alpha}, {beta})"
    return True, ""


def _check_reciprocity(params, table, kernel, rows) -> tuple[bool, str]:
    """E(1, inf) as E(0, 1) on the reversed table against u = 1/x on the direct one.

    ``expected_roots_interval`` integrates (0, 1) of the reversed table over
    s = -ln x; the substitution integrates f(1/u)/u^2 with the direct table's
    kernel, which evaluates it beyond x = 1.
    """
    tol = 1e-9
    worst = 0.0
    for family in (gamma_family(1.0), gamma_family(0.5), alpha_beta_family(0.5, 2.0)):
        for n in params["envelope_n"]:
            rows_of = kernel(family, n).rows
            outer = expected_roots_interval(reciprocal_table(table(family, n)), 0.0, 1.0, tol)
            sub = adaptive_quadrature(lambda us: rows_of(1.0 / us)[2] / (math.pi * us * us), 0.0, 1.0, tol)
            worst = _worst(worst, abs(outer.value - sub.value))
    return worst < 10 * tol, f"worst |E(1,inf) - E(u = 1/x)| = {worst:.3e} (tol {10 * tol:g})"
