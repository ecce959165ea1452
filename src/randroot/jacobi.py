"""Jacobi polynomials, their roots, and the identities tying them to M_n.

The alpha/beta family's variance function factors through a Jacobi polynomial:

    M_n(x) = (1 - x^2)^n * J_n^(alpha,beta)((1 + x^2)/(1 - x^2)),    |x| < 1,

so the 2n zeros of M_n are +-i*sqrt(r_k) with r_k = (1 - s_k)/(1 + s_k) built
from the Jacobi roots s_1 < ... < s_n in (-1, 1).  That representation gives
the density as a positive root sum, f^2 = sum_k r_k/(x^2 + r_k)^2, and the
finite-n bracket sqrt(n)*(1-s_max)/(1+s_max) <= E N <= sqrt(n)*(1+s_max)/(1-s_max).

Polynomials are evaluated by the standard three-term recurrence (the explicit
binomial sum cancels badly), rescaled by powers of two as it runs.  Roots are eigenvalues of the symmetric
tridiagonal recurrence matrix, each refined by one Newton step:
`jacobi_roots` takes the full Golub-Welsch set, O(n^2); `root_bounds` needs
only s_max and takes the one selected top eigenvalue by bisection, O(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterDomainError, _check_alpha_beta, _check_integer

__all__ = [
    "jacobi_eval",
    "jacobi_derivative",
    "JacobiRootSet",
    "jacobi_roots",
    "log_variance_via_jacobi",
    "density_via_roots",
    "BoundsReport",
    "root_bounds",
    "ultraspherical_bounds",
    "density_endpoints",
]


def eigvalsh_tridiagonal(diag, off, **select):
    """scipy.linalg.eigvalsh_tridiagonal, with SciPy imported on the first call.

    Only the eigen-solves need SciPy, so the other commands start without it.
    """
    from scipy.linalg import eigvalsh_tridiagonal as solve

    return solve(diag, off, **select)


_ASYMMETRY_NOTE = "derivation of the bracket assumes alpha == beta; containment for alpha != beta is checked empirically"


_RESCALE = 1e120  # past this |J_k|, the recurrence divides by a power of two
_LN2 = math.log(2.0)


def _recurrence(n: int, alpha: float, beta: float, x):
    """(J_(n-1), J_n, e) at x by the three-term recurrence, n >= 1; scalar or array x.

    The true values are the two returned times 2^e.  Whenever |J_k| passes
    1e120 both values are divided by a power of two, which is exact, and its
    exponent is added to e (for arrays, per point), so degrees and parameters
    whose J_n lies far past the float range stay representable.  The integer
    parts of each coefficient are summed before alpha and beta are added, so
    (k - 1) + alpha keeps its precision as alpha -> -1.
    """
    apb = alpha + beta
    a2_b2 = (alpha - beta) * apb
    scalar = np.ndim(x) == 0
    if scalar:
        x = float(x)
    p_prev = 1.0 if scalar else np.ones_like(x, dtype=float)
    p_cur = 0.5 * ((apb + 2.0) * x + (alpha - beta))
    e = 0 if scalar else np.zeros(np.shape(x), dtype=int)
    for k in range(2, n + 1):
        s_k = 2 * k + apb
        s_km2 = (2 * k - 2) + apb
        c1 = 2.0 * k * (k + apb) * s_km2
        c2 = ((2 * k - 1) + apb) * (s_k * s_km2 * x + a2_b2)
        c3 = 2.0 * ((k - 1) + alpha) * ((k - 1) + beta) * s_k
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
        if scalar:
            if abs(p_cur) > _RESCALE:
                d = math.frexp(p_cur)[1]
                p_prev, p_cur, e = math.ldexp(p_prev, -d), math.ldexp(p_cur, -d), e + d
        else:
            mag = np.abs(p_cur)
            if mag.max() > _RESCALE:
                d = np.where(mag > _RESCALE, np.frexp(p_cur)[1], 0)
                p_prev, p_cur, e = np.ldexp(p_prev, -d), np.ldexp(p_cur, -d), e + d
    return p_prev, p_cur, e


def jacobi_eval(n: int, alpha: float, beta: float, x):
    """J_n^(alpha,beta)(x) by the three-term recurrence; scalar or array x."""
    _check_alpha_beta(alpha, beta)
    _check_integer(n, 0)
    x = np.asarray(x, dtype=float)
    p = np.ones_like(x, dtype=float) if n == 0 else np.ldexp(*_recurrence(n, alpha, beta, x)[1:])
    return float(p) if x.ndim == 0 else p


def _value_and_derivative(n: int, alpha: float, beta: float, x):
    """(J_n, J_n', e) at |x| < 1 from one recurrence, n >= 1, scalar or array x, through

    (2n+a+b)(1-x^2) J_n' = n[(a-b) - (2n+a+b)x] J_n + 2(n+a)(n+b) J_(n-1);
    the true J_n and J_n' are the two returned times 2^e.
    """
    p_prev, p_cur, e = _recurrence(n, alpha, beta, x)
    s = 2.0 * n + alpha + beta
    deriv = (n * ((alpha - beta) - s * x) * p_cur
             + 2.0 * (n + alpha) * (n + beta) * p_prev) / (s * (1.0 - x * x))
    return p_cur, deriv, e


def _newton(n: int, alpha: float, beta: float, s):
    """One Newton step s - J_n(s)/J_n'(s) from each s in (-1, 1); s stays put where J_n' = 0.

    The common factor 2^e of J_n and J_n' cancels in the step.
    """
    value, deriv, _ = _value_and_derivative(n, alpha, beta, s)
    return s - np.where(deriv != 0.0, value / np.where(deriv == 0.0, 1.0, deriv), 0.0)


def jacobi_derivative(n: int, alpha: float, beta: float, x):
    """d/dx J_n^(alpha,beta)(x) = (n + alpha + beta + 1)/2 * J_{n-1}^(alpha+1,beta+1)(x)."""
    _check_alpha_beta(alpha, beta)
    _check_integer(n, 0)
    if n == 0:
        return 0.0 * jacobi_eval(0, alpha, beta, x)
    return 0.5 * (n + alpha + beta + 1.0) * jacobi_eval(n - 1, alpha + 1.0, beta + 1.0, x)


def _recurrence_matrix(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric (Golub-Welsch) matrix, in NumPy doubles, so that a
    term past the double range (alpha + beta from about 1e77) raises ``NumericError``, not an inf or 0."""
    alpha, beta = np.float64(alpha), np.float64(beta)
    apb = alpha + beta
    kk = np.arange(1, n, dtype=float)
    try:
        # divide and invalid: the k = 1 slot of off_sq, replaced below
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            diag = np.append((beta - alpha) / (apb + 2.0),
                             (beta * beta - alpha * alpha) / ((2.0 * kk + apb) * (2.0 * kk + apb + 2.0)))
            off_sq = (4.0 * kk * (kk + alpha) * (kk + beta) * (kk + apb)
                      / ((2.0 * kk + apb) ** 2 * ((2.0 * kk + apb) ** 2 - 1.0)))
            if n > 1:  # k = 1 in the cancelled limit form, valid even at alpha + beta = -1
                off_sq[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + apb) ** 2 * (3.0 + apb))
    except FloatingPointError:
        raise NumericError(f"recurrence matrix for n={n}, alpha={alpha}, beta={beta} "
                           "does not fit in a double") from None
    return diag, np.sqrt(off_sq)


@dataclass(frozen=True)
class JacobiRootSet:
    """Sorted roots s_1 < ... < s_n of J_n^(alpha,beta) and r_k = (1-s_k)/(1+s_k).

    All roots lie strictly inside (-1, 1); r is strictly decreasing and for
    alpha = beta satisfies r_k * r_{n+1-k} = 1.
    """

    n: int
    alpha: float
    beta: float
    roots: np.ndarray
    r: np.ndarray


def _matrix_eigenvalues(n: int, alpha: float, beta: float, **select) -> np.ndarray:
    """Eigenvalues of the recurrence matrix: all n, or those `select` picks."""
    _check_alpha_beta(alpha, beta)
    _check_integer(n)
    diag, off = _recurrence_matrix(n, alpha, beta)
    try:
        return diag if n == 1 else eigvalsh_tridiagonal(diag, off, **select)
    except ImportError:  # a missing SciPy is not a numeric failure
        raise
    except Exception as exc:  # pragma: no cover - LAPACK failure is exceptional
        raise NumericError(
            f"tridiagonal eigensolver failed for n={n}, alpha={alpha}, beta={beta}: {exc}"
        ) from exc


def jacobi_roots(n: int, alpha: float, beta: float) -> JacobiRootSet:
    """Roots as eigenvalues of the recurrence matrix, plus one Newton polish."""
    s = np.sort(np.asarray(_matrix_eigenvalues(n, alpha, beta), dtype=float))
    if (np.abs(s) < 1.0).all():  # a wild eigenvalue is rejected, never polished into range
        s = _newton(n, alpha, beta, s)
        s = np.sort(0.5 * (s - s[::-1]) if alpha == beta else s)  # alpha = beta: exactly s_k = -s_{n+1-k}
    if not ((np.abs(s) < 1.0).all() and (np.diff(s) > 0).all()):
        raise NumericError(
            f"root set failed validation for n={n}, alpha={alpha}, beta={beta}: {s}"
        )
    r = (1.0 - s) / (1.0 + s)
    s.flags.writeable = False
    r.flags.writeable = False
    return JacobiRootSet(n, float(alpha), float(beta), s, r)


def log_variance_via_jacobi(n: int, alpha: float, beta: float, x):
    """log M_n(x) through the (1 - x^2)^n * J_n((1+x^2)/(1-x^2)) identity; scalar or array x.

    The recurrence rescales as it runs, so degrees whose J_n overflows a
    float stay representable.  Requires |x| < 1 at every point; an array
    takes one recurrence for all its points, and a scalar gives a float.
    """
    _check_alpha_beta(alpha, beta)
    _check_integer(n, 0)
    arr = np.asarray(x, dtype=float)
    if not (np.abs(arr) < 1.0).all():
        raise ParameterDomainError(f"identity requires |x| < 1, got {x!r}")
    x2 = arr * arr
    arg = (1.0 + x2) / (1.0 - x2)
    p_cur, e = (1.0, 0) if n == 0 else _recurrence(n, alpha, beta, arg)[1:]
    if not np.all(p_cur > 0.0):
        raise NumericError(f"Jacobi value unexpectedly non-positive at arg={arg!r}")
    log_m = n * np.log1p(-x2) + e * _LN2 + np.log(p_cur)
    return float(log_m) if arr.ndim == 0 else log_m


def density_via_roots(rootset: JacobiRootSet, x):
    """f(x) = sqrt(sum_k r_k / (x^2 + r_k)^2); scalar or array x, f(+-inf) = 0, NaN raises.

    Past |x| = 1 the sum is taken as y^2 sqrt(sum_k r_k / (1 + r_k y^2)^2) at
    y = 1/|x|, so no square overflows at a huge finite x.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ParameterDomainError("density is undefined at x = nan")
    scalar = x.ndim == 0
    ax = np.abs(np.atleast_1d(x))
    outer = ax > 1.0
    x2, y2 = np.where(outer, 1.0, ax) ** 2, (1.0 / np.where(outer, ax, 1.0)) ** 2
    r = rootset.r
    f = y2 * np.sqrt((r[None, :] / (x2[:, None] + r[None, :] * y2[:, None]) ** 2).sum(axis=1))
    return float(f[0]) if scalar else f.reshape(x.shape)


@dataclass(frozen=True)
class BoundsReport:
    """A lower/upper bracket on the full-line expected root count."""

    n: int
    alpha: float
    beta: float
    lower: float
    upper: float
    method: str  # "jacobi_root" or "ultraspherical_closed_form"
    note: str = ""
    s_max: float | None = None  # the largest Jacobi root, for "jacobi_root"


def root_bounds(n: int, alpha: float, beta: float) -> BoundsReport:
    """Bracket from the largest Jacobi root s_max alone, in O(n).

    s_max is the top eigenvalue of the recurrence matrix, found by bisection,
    then polished by one Newton step.
    """
    s_max = float(_matrix_eigenvalues(n, alpha, beta, select="i", select_range=(n - 1, n - 1))[-1])
    if -1.0 < s_max < 1.0:  # a wild eigenvalue is rejected, never polished into range
        s_max = float(_newton(n, alpha, beta, s_max))
    if not -1.0 < s_max < 1.0:
        raise NumericError(f"largest root {s_max!r} outside (-1, 1) for n={n}, alpha={alpha}, beta={beta}")
    sqrt_n = math.sqrt(n)
    note = "" if alpha == beta else _ASYMMETRY_NOTE
    return BoundsReport(
        n, float(alpha), float(beta),
        sqrt_n * (1.0 - s_max) / (1.0 + s_max),
        sqrt_n * (1.0 + s_max) / (1.0 - s_max),
        "jacobi_root", note, s_max,
    )


def ultraspherical_bounds(n: int, alpha: float) -> BoundsReport:
    """Closed-form bracket for alpha = beta."""
    _check_alpha_beta(alpha, alpha)
    _check_integer(n)
    if n == 1:
        lower = 2.0 / math.pi  # (n+2a)/(2n+2a-1) is identically 1 at n = 1
    else:
        lower = (2.0 / math.pi) * math.sqrt(n * (n + 2.0 * alpha) / (2.0 * n + 2.0 * alpha - 1.0))
    upper = (2.0 * math.sqrt(n) / math.pi) * (
        1.0 + math.log(2.0) + 0.5 * math.log((n + alpha) / (1.0 + alpha))
    )
    return BoundsReport(n, float(alpha), float(alpha), lower, upper, "ultraspherical_closed_form")


def density_endpoints(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """Closed forms (f(0), f(1)) for the alpha/beta family."""
    _check_alpha_beta(alpha, beta)
    _check_integer(n)
    f0 = math.sqrt(n) * math.sqrt(n + beta) / math.sqrt(1.0 + alpha)  # each factor fits where f(0) does
    s = 2.0 * n + alpha + beta
    # f(1)^2 = n (n+alpha)(n+beta)(n+alpha+beta) / ((s-1) s^2), as a product of
    # quotients at most 1, so no product overflows; the last is identically 1 at
    # n = 1, where taking it as 1 keeps alpha + beta = -1 from turning into 0/0
    last = 1.0 if n == 1 else (n + alpha + beta) / (s - 1.0)
    f1 = math.sqrt(n * ((n + alpha) / s) * ((n + beta) / s) * last)
    return f0, f1

