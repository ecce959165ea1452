"""Brute-force root counting on sampled polynomials.

Coefficients xi_i * a_i are drawn in log-magnitude space and rescaled so the
largest magnitude is 1 (roots are scale invariant; binomial weights span
hundreds of decades before rescaling).  Roots come from the balanced
companion-matrix eigenvalues (numpy.roots); a root is accepted as real when
|Im z| <= REAL_AXIS_TOL * max(1, |z|).  LAPACK's xGEEV returns the complex
eigenvalues of a real matrix in exact conjugate pairs, and the test classifies
both members of a pair alike, so a count always has the parity of n; a count
that does not is a numeric failure, as are a leading coefficient below
LEADING_COEFF_FLOOR and an eigen-solve that does not converge.  Each raises
NumericError; nothing is redrawn, so the sample is never conditioned on the
draws that fail.

Trials run serially, each one draw on its own counter-based Philox substream
keyed by (seed, trial index), so a summary is reproducible bit for bit from
its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterDomainError, _check_integer
from .families import PolynomialClass, _log_sq_array

__all__ = [
    "SampledPolynomial",
    "McSummary",
    "sample_polynomial",
    "count_real_roots",
    "count_positive_roots",
    "mc_expected_roots",
    "jensen_root_bound",
]

REAL_AXIS_TOL = 1e-8
LEADING_COEFF_FLOOR = 1e-300
JENSEN_GRID = 1024  # angular points per circle in jensen_root_bound


@dataclass(frozen=True)
class SampledPolynomial:
    """One draw: coefficients ascending in degree, rescaled to max |c| = 1."""

    family: PolynomialClass | None
    n: int
    coeffs: np.ndarray

    @classmethod
    def from_coefficients(cls, coeffs) -> "SampledPolynomial":
        """Wrap explicit coefficients (ascending degree) for the counting ops."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or len(c) < 2:
            raise ParameterDomainError("need at least two coefficients")
        scale = np.abs(c).max()  # NaN if any coefficient is
        if not 0.0 < scale < math.inf:
            raise ParameterDomainError(f"need finite coefficients, not all zero, got {c!r}")
        c = c / scale
        c.flags.writeable = False
        return cls(None, len(c) - 1, c)


@dataclass(frozen=True)
class McSummary:
    """Monte Carlo summary.  ``parity_repairs`` is 0 by construction: a count
    of the wrong parity raises in place of being repaired.  The field stays
    because the ``mc`` CSV/JSON layout carries it as a column."""

    trials: int
    mean: float
    std_error: float
    histogram: dict[int, int]
    parity_repairs: int
    seed: int


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # counter-based substream: one Philox counter block per trial
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(counter=[0, 0, 0, trial], key=key))


def _draw_coefficients(log_weight: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    xi = np.asarray(rng.standard_normal(len(log_weight)), dtype=float)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(xi)) + log_weight
    return np.sign(xi) * np.exp(log_mag - log_mag.max())


def sample_polynomial(family: PolynomialClass, n: int, rng: np.random.Generator) -> SampledPolynomial:
    """Draw xi_i i.i.d. standard normal and form the rescaled coefficients."""
    _check_integer(n)
    log_weight = 0.5 * _log_sq_array(family, n)  # log |a_i|
    coeffs = _draw_coefficients(log_weight, rng)
    coeffs.flags.writeable = False
    return SampledPolynomial(family, n, coeffs)


def _classified_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(roots, real mask) for ascending-degree coefficients; NumericError on failure."""
    n = len(coeffs) - 1
    if abs(coeffs[-1]) < LEADING_COEFF_FLOOR:
        raise NumericError("leading coefficient below trim threshold")
    try:
        roots = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"companion eigen-solve failed: {exc}") from exc
    real_mask = np.abs(roots.imag) / np.maximum(1.0, np.abs(roots)) <= REAL_AXIS_TOL
    if (int(real_mask.sum()) - n) % 2 != 0:
        raise NumericError(f"{int(real_mask.sum())} real roots at degree {n}: complex roots not paired")
    return roots, real_mask


def count_real_roots(p: SampledPolynomial) -> int:
    return int(_classified_roots(p.coeffs)[1].sum())


def count_positive_roots(p: SampledPolynomial) -> int:
    roots, mask = _classified_roots(p.coeffs)
    return int((roots.real[mask] > 0.0).sum())


def mc_expected_roots(family: PolynomialClass, n: int, trials: int, seed: int,
                      threads: int = 1) -> McSummary:
    """Monte Carlo estimate of the expected real-root count.

    The trials run serially, each one draw on its own counter-based substream,
    so the summary is determined by the seed.  A trial that fails raises
    NumericError naming it.  ``threads`` is accepted and ignored; the
    benchmark harness still passes it.
    """
    _check_integer(n)
    _check_integer(trials, name="trials")
    log_weight = 0.5 * _log_sq_array(family, n)
    counts = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        coeffs = _draw_coefficients(log_weight, _trial_rng(seed, trial))
        try:
            counts[trial] = _classified_roots(coeffs)[1].sum()
        except NumericError as exc:
            raise NumericError(f"trial {trial}: {exc}") from exc

    mean = float(counts.mean())
    std_error = 0.0 if trials == 1 else float(counts.std(ddof=1) / math.sqrt(trials))
    values, freqs = np.unique(counts, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, freqs)}
    return McSummary(trials, mean, std_error, histogram, 0, int(seed))


def jensen_root_bound(p: SampledPolynomial, r: float, R: float) -> float:
    """Upper bound log(M_R/M_r)/log((R^2+r^2)/(2Rr)) on the root count in |z| <= r.

    Circle maxima are taken over a uniform angular grid (the maximum-modulus
    principle puts them on the circle); if the bound lands within 0.5 of the
    observed count the grid is refined 4x once.  A bound past the double range
    raises ``NumericError``.
    """
    if not 0 < r < R < math.inf:
        raise ParameterDomainError(f"need 0 < r < R < inf, got ({r!r}, {R!r})")
    desc = p.coeffs[::-1]
    denominator = math.log((R * R + r * r) / (2.0 * R * r))

    def bound_at(points: int) -> float:
        theta = 2.0 * math.pi * np.arange(points) / points
        ring = np.exp(1j * theta)
        max_r = float(np.abs(np.polyval(desc, r * ring)).max())
        max_big = float(np.abs(np.polyval(desc, R * ring)).max())
        return math.log(max_big / max_r) / denominator if max_r > 0.0 else math.inf

    bound = bound_at(JENSEN_GRID)
    observed = int((np.abs(np.roots(desc)) <= r).sum())
    if bound - observed < 0.5:
        bound = bound_at(4 * JENSEN_GRID)
    if not math.isfinite(bound):
        raise NumericError(f"Jensen bound at r = {r!r}, R = {R!r} does not fit in a double")
    return bound
