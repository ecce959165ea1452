"""Brute-force root counting on sampled polynomials.

Coefficients xi_i * a_i are drawn in log-magnitude space and rescaled so the
largest magnitude is 1 (roots are scale invariant; binomial weights span
hundreds of decades before rescaling).  Roots are the companion-matrix
eigenvalues that numpy.roots finds; a root is accepted as real when
|Im z| <= REAL_AXIS_TOL * max(1, |z|).  LAPACK's xGEEV returns the complex
eigenvalues of a real matrix in exact conjugate pairs, and the test classifies
both members of a pair alike, so a count always has the parity of n; a count
that does not is a numeric failure, as are a leading coefficient below
LEADING_COEFF_FLOOR and an eigen-solve that does not converge.  Each raises
NumericError; nothing is redrawn, so the sample is never conditioned on the
draws that fail.

Trials run in chunks.  The draws stay serial in trial order, each one on its
own counter-based Philox substream keyed by (seed, trial index), so a summary
is reproducible bit for bit from its seed.  Each chunk then takes one stacked
eigen-solve, the same xGEEV call per companion matrix as numpy.roots, and one
vectorised classification, so the counts are those of one numpy.roots call
per trial; a run raises for its first failing trial.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterDomainError, _check_integer
from .families import PolynomialClass, _log_sq

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
# A chunk of trials holds at most this many companion-matrix entries (and at
# least one trial).  Measured on the mc_counts ops at a fixed number of passes:
# 2^16 keeps peak RSS within 0.3 MB of one trial at a time, 2^18 raises it 1.5 MB.
_CHUNK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class SampledPolynomial:
    """One draw: coefficients ascending in degree, rescaled to max |c| = 1."""

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
        return cls(c)


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


def _rescaled(xi: np.ndarray, log_weight: np.ndarray) -> np.ndarray:
    """Coefficients sign(xi) |xi| a_i, each row rescaled to max |c| = 1."""
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(xi)) + log_weight
    return np.sign(xi) * np.exp(log_mag - log_mag.max(axis=-1, keepdims=True))


def sample_polynomial(family: PolynomialClass, n: int, rng: np.random.Generator) -> SampledPolynomial:
    """Draw xi_i i.i.d. standard normal and form the rescaled coefficients."""
    _check_integer(n)
    log_weight = 0.5 * _log_sq(family, n, np.arange(n + 1))  # log |a_i|
    coeffs = _rescaled(rng.standard_normal(n + 1), log_weight)
    coeffs.flags.writeable = False
    return SampledPolynomial(coeffs)


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots, (T, n) complex, of (T, n+1) ascending-degree rows with c_n != 0, as numpy.roots
    gives them: a row with k zero low-order coefficients has the eigenvalues of its degree n-k
    companion matrix, then k exact zeros.  LinAlgError if an eigen-solve fails."""
    t, n = coeffs.shape[0], coeffs.shape[1] - 1
    roots = np.zeros((t, n), dtype=complex)
    zeros = (coeffs != 0.0).argmax(axis=1)
    for k in set(zeros.tolist()):  # np.unique's hash table would add 0.6 MB to peak RSS
        rows, m = zeros == k, n - k
        if m == 0:
            continue
        top = coeffs[rows, k:]
        companion = np.zeros((len(top), m, m))
        companion[:, 0, :] = -top[:, -2::-1] / top[:, -1:]
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        roots[rows, :m] = np.linalg.eigvals(companion)
    return roots


def _classified_roots(coeffs: np.ndarray, first: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(roots, real mask), each (T, n), for a (T, n+1) stack of ascending-degree rows.

    A failure raises NumericError for the first failing row; with ``first``, the message
    names that row as trial ``first + row``.  Rows from the first one below the leading
    coefficient floor on are not solved.
    """
    n = coeffs.shape[1] - 1
    low = np.abs(coeffs[:, -1]) < LEADING_COEFF_FLOOR
    stop = int(low.argmax()) if low.any() else len(coeffs)
    failure = "leading coefficient below trim threshold"
    try:
        roots = _companion_roots(coeffs[:stop])
    except np.linalg.LinAlgError:
        # one row at a time, to find the first that fails
        solved = []
        for row in range(stop):
            try:
                solved.append(_companion_roots(coeffs[row:row + 1]))
            except np.linalg.LinAlgError as exc:
                stop, failure = row, f"companion eigen-solve failed: {exc}"
                break
        roots = np.concatenate(solved) if solved else np.empty((0, n), dtype=complex)
    real_mask = np.abs(roots.imag) / np.maximum(1.0, np.abs(roots)) <= REAL_AXIS_TOL
    real = real_mask.sum(axis=1)
    unpaired = (real - n) % 2 != 0
    if unpaired.any():
        stop = int(unpaired.argmax())
        failure = f"{int(real[stop])} real roots at degree {n}: complex roots not paired"
    if stop < len(coeffs):
        raise NumericError(failure if first is None else f"trial {first + stop}: {failure}")
    return roots, real_mask


def count_real_roots(p: SampledPolynomial) -> int:
    return int(_classified_roots(p.coeffs[None])[1].sum())


def count_positive_roots(p: SampledPolynomial) -> int:
    roots, mask = _classified_roots(p.coeffs[None])
    return int((roots.real[mask] > 0.0).sum())


def mc_expected_roots(family: PolynomialClass, n: int, trials: int, seed: int,
                      threads: int = 1) -> McSummary:
    """Monte Carlo estimate of the expected real-root count.

    The trials are drawn serially, each on its own counter-based substream, so
    the summary is determined by the seed; their roots are found a chunk at a
    time.  A trial that fails raises NumericError naming the first to fail.
    ``threads`` is accepted and ignored; the benchmark harness still passes it.
    """
    _check_integer(n)
    _check_integer(trials, name="trials")
    log_weight = 0.5 * _log_sq(family, n, np.arange(n + 1))
    # one generator, re-keyed to the stream of _trial_rng(seed, trial) by setting
    # its fresh state (empty buffer) with counter [0, 0, 0, trial]: building a
    # Philox per trial would draw OS entropy it never uses
    rng = _trial_rng(seed, 0)
    bits = rng.bit_generator
    state = bits.state
    counter = state["state"]["counter"]
    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, chunk):
        xi = np.empty((min(chunk, trials - start), n + 1))
        for row in range(len(xi)):
            counter[3] = start + row
            bits.state = state
            rng.standard_normal(out=xi[row])
        real_mask = _classified_roots(_rescaled(xi, log_weight), first=start)[1]
        counts[start:start + len(xi)] = real_mask.sum(axis=1)

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
