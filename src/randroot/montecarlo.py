"""Brute-force root counting on sampled polynomials.

Coefficients xi_i * a_i are drawn in log-magnitude space and rescaled so the
largest magnitude is 1 (roots are scale invariant; binomial weights span
hundreds of decades before rescaling).  Roots come from the balanced
companion-matrix eigenvalues (numpy.roots); a root is accepted as real when
|Im z| <= REAL_AXIS_TOL * max(1, |z|).  A real polynomial of degree n has
n mod 2 real roots, so when the count has the wrong parity the root whose
scaled |Im| sits nearest the acceptance threshold is flipped and the repair
is recorded.

Trials run serially, each on its own counter-based Philox substream keyed by
(seed, trial index), so a summary is reproducible bit for bit from its seed.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterDomainError
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

logger = logging.getLogger(__name__)

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
        scale = np.abs(c).max()
        if scale == 0.0:
            raise ParameterDomainError("zero polynomial")
        c = c / scale
        c.flags.writeable = False
        return cls(None, len(c) - 1, c)


@dataclass(frozen=True)
class McSummary:
    trials: int
    mean: float
    std_error: float
    histogram: dict[int, int]
    parity_repairs: int
    seed: int


def _trial_rng(seed: int, trial: int, attempt: int) -> np.random.Generator:
    # counter-based substream: one Philox counter block per (trial, attempt)
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(counter=[0, 0, attempt, trial], key=key))


def _draw_coefficients(log_weight: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    xi = np.asarray(rng.standard_normal(len(log_weight)), dtype=float)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(xi)) + log_weight
    return np.sign(xi) * np.exp(log_mag - log_mag.max())


def sample_polynomial(family: PolynomialClass, n: int, rng: np.random.Generator) -> SampledPolynomial:
    """Draw xi_i i.i.d. standard normal and form the rescaled coefficients."""
    log_weight = 0.5 * _log_sq_array(family, n)  # log |a_i|
    coeffs = _draw_coefficients(log_weight, rng)
    coeffs.flags.writeable = False
    return SampledPolynomial(family, n, coeffs)


def _classified_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(roots, real mask, parity repairs) for ascending-degree coefficients."""
    n = len(coeffs) - 1
    if abs(coeffs[-1]) < LEADING_COEFF_FLOOR:
        raise NumericError("leading coefficient below trim threshold")
    roots = np.roots(coeffs[::-1])
    scaled_im = np.abs(roots.imag) / np.maximum(1.0, np.abs(roots))
    real_mask = scaled_im <= REAL_AXIS_TOL
    repairs = 0
    if (int(real_mask.sum()) - n) % 2 != 0:
        flip = int(np.argmin(np.abs(scaled_im - REAL_AXIS_TOL)))
        real_mask = real_mask.copy()
        real_mask[flip] = ~real_mask[flip]
        repairs = 1
    return roots, real_mask, repairs


def count_real_roots(p: SampledPolynomial) -> int:
    _, mask, _ = _classified_roots(p.coeffs)
    return int(mask.sum())


def count_positive_roots(p: SampledPolynomial) -> int:
    roots, mask, _ = _classified_roots(p.coeffs)
    return int((roots.real[mask] > 0.0).sum())


def _run_trial(log_weight: np.ndarray, seed: int, trial: int) -> tuple[int, int]:
    """(real-root count, parity repairs); redraws on the rare degenerate draw."""
    for attempt in range(100):
        coeffs = _draw_coefficients(log_weight, _trial_rng(seed, trial, attempt))
        try:
            _, mask, repairs = _classified_roots(coeffs)
        except (NumericError, np.linalg.LinAlgError) as exc:
            logger.warning("trial %d attempt %d redrawn: %s", trial, attempt, exc)
            continue
        return int(mask.sum()), repairs
    raise NumericError(f"trial {trial} failed after 100 redraws")


def mc_expected_roots(family: PolynomialClass, n: int, trials: int, seed: int,
                      threads: int = 1) -> McSummary:
    """Monte Carlo estimate of the expected real-root count.

    The trials run serially, each on its own counter-based substream, so the
    summary is determined by the seed.  ``threads`` is accepted and ignored;
    the benchmark harness still passes it.
    """
    if trials < 1:
        raise ParameterDomainError(f"trials must be >= 1, got {trials}")
    log_weight = 0.5 * _log_sq_array(family, n)
    counts = np.empty(trials, dtype=np.int64)
    repairs = np.empty(trials, dtype=np.int64)

    for trial in range(trials):
        counts[trial], repairs[trial] = _run_trial(log_weight, seed, trial)

    mean = float(counts.mean())
    std_error = 0.0 if trials == 1 else float(counts.std(ddof=1) / math.sqrt(trials))
    values, freqs = np.unique(counts, return_counts=True)
    histogram = {int(v): int(c) for v, c in zip(values, freqs)}
    return McSummary(trials, mean, std_error, histogram, int(repairs.sum()), int(seed))


def jensen_root_bound(p: SampledPolynomial, r: float, R: float) -> float:
    """Upper bound log(M_R/M_r)/log((R^2+r^2)/(2Rr)) on the root count in |z| <= r.

    Circle maxima are taken over a uniform angular grid (the maximum-modulus
    principle puts them on the circle); if the bound lands within 0.5 of the
    observed count the grid is refined 4x once.
    """
    if not 0 < r < R:
        raise ParameterDomainError(f"need 0 < r < R, got ({r!r}, {R!r})")
    desc = p.coeffs[::-1]
    denominator = math.log((R * R + r * r) / (2.0 * R * r))

    def bound_at(points: int) -> float:
        theta = 2.0 * math.pi * np.arange(points) / points
        ring = np.exp(1j * theta)
        max_r = float(np.abs(np.polyval(desc, r * ring)).max())
        max_big = float(np.abs(np.polyval(desc, R * ring)).max())
        return math.log(max_big / max_r) / denominator

    bound = bound_at(JENSEN_GRID)
    observed = int((np.abs(np.roots(desc)) <= r).sum())
    if bound - observed < 0.5:
        bound = bound_at(4 * JENSEN_GRID)
    return bound
