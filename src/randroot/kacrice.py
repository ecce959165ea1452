"""Kac-Rice density and expected real-root counts.

For p(x) = sum_i a_i xi_i x^i with xi_i i.i.d. standard normal, write

    M(x) = sum a_i^2 x^(2i)          (variance of p)
    A(x) = sum i^2 a_i^2 x^(2i-2)    (variance of p')
    B(x) = sum i a_i^2 x^(2i-1)      (covariance of p and p')

The expected number of real roots in (a, b) is (1/pi) * integral of the
density f = sqrt(A*M - B^2)/M.  The discriminant A*M - B^2 is never formed by
subtraction.  With the weights p_x(i) = a_i^2 x^(2i) / M (Edelman & Kostlan),

    A*M - B^2 = M^2 Var_p(i) / x^2,   so   f(x) = sqrt(Var_p(i)) / x,

and the variance is taken about the index i* where the weights peak, never
as S2 - S1^2 about 0, which near x = 1 would lose ~log10(n) digits.  log a_i^2
is concave, so the weights are log-concave in i: a binary search on the
neighbour log-ratios r_i = log(a_(i+1)^2 / a_i^2) finds i*, the
log-weights are partial sums of r_i + 2 ln x walking out from it, and only
the window where they stay above e^-(40 + 3 ln(n+1)) is summed, O(sqrt(n))
terms per point, its width bounded by concavity before the walk starts.
Where the weight next to a peak at i = 0 is below e^-40 of it (x up to
e^-((40 + r_0)/2)), the rows are their limits, f = e^(r_0/2),
B/M = x e^(r_0) and log M = log a_0^2 + x B/M, exact to the last bit down to
x = 0; near inf the mirror image holds.  One evaluator, which takes ln x,
serves every call and sends those points there.

The Kac family (gamma = 0) has closed forms: M(x) = (1 - x^(2n+2))/(1 - x^2)
and, with X = x^2 and phi(X) = X M'(X)/M(X),

    f(x)^2 = d phi/dX = 1/(X-1)^2 - (n+1)^2 X^n / (X^(n+1) - 1)^2,

evaluated as array code at y = min(x, 1/x) and reflected through the
palindromic coefficients, with series fallbacks near X = 1, O(1) per point.
``kernel`` is the one place that picks them over the generic kernel.

Every root count integrates g(s) = x f(x) = sqrt(Var_p(i)) over s = -ln |x|
(Edelman & Kostlan 1995, section 3), where x -> 1/x is s -> -s, up to the
limit-row edges, past which g is integrated in closed form: no interval is
integrated improperly and no reversed table is built.  Past the knees
s_K = r_0/2 and s_H = r_(n-1)/2, each 20 inside its edge, g falls like
e^-|s - knee|, and a leg takes the variable v = s_K + 1 - e^(s_K - s) (resp.
s_H - 1 + e^(s - s_H)), x (resp. 1/x) rescaled, in which g ds/dv is flat.
Every root count goes through ``_integrate_legs``, the full line as the
interval (-inf, inf).
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ParameterDomainError, QuadratureError, _check_integer
from .families import CoefficientTable, PolynomialClass, _log_ratio_array, _log_sq, kac
from .quadrature import DEFAULT_TOL, QuadratureResult, adaptive_quadrature

# Nothing here calls them; benchmarks/layers.py patches them on this module.
from .families import coefficient_table, reciprocal_table  # noqa: F401

__all__ = [
    "KacRiceTriple",
    "kac_rice_eval",
    "density",
    "expected_roots_interval",
    "expected_roots_interval_result",
    "expected_roots_real_line",
    "expected_roots_real_line_result",
    "expected_internal_equilibria",
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
# generic evaluation: a window of weights around each point's peak
# ---------------------------------------------------------------------------

_LOG_TINY = -700.0  # log-weights are clamped here: e^-700 < 1e-304 of the peak
_WHOLE_TABLE_N = 128  # up to this degree walks reach both table ends: no width estimate
_EDGE_LOG = 40.0  # below e^-40 of an end peak, the next weight moves no row: limit rows, leg ends


class _Ratios(NamedTuple):
    """The neighbour log-ratios of one family at one degree, laid out for the window kernel.

    ``left`` is -r_0 .. -r_(n-1) (r_i = log(a_(i+1)^2 / a_i^2)) between -inf
    and +inf, so it increases.  A walk right of a peak steps by d0 - left[j],
    which is r_j + d0 to the bit, and a walk left by left[j] - d0; one that
    steps past either end of the table gathers an infinity and gets weight 0.
    ``sink`` holds its prefix sums, sink[i] = -(r_0 + ... + r_(i-1)) for
    i = 0..n, which size the windows (``_half_widths``).  A window ends where
    the log-weights fall below -``cut``.  ``log_sq`` gives log(a_i^2) at an
    index array; only rows read it, at each point's own peak (``_moments``)
    and at i = 0 and n for the limit rows, so no (n+1)-entry log a_i^2 array
    is formed.
    """

    left: np.ndarray
    sink: np.ndarray
    cut: float
    log_sq: Callable[[np.ndarray], np.ndarray]


def _ratios(n: int, log_ratio: np.ndarray, log_sq: Callable[[np.ndarray], np.ndarray]) -> _Ratios:
    left = np.empty(n + 2)
    left[0], left[-1] = -math.inf, math.inf
    np.negative(log_ratio, out=left[1:-1])
    sink = np.empty(n + 1)
    sink[0] = 0.0
    np.cumsum(left[1:-1], out=sink[1:])
    return _Ratios(left, sink, 40.0 + 3.0 * math.log(n + 1.0), log_sq)


def _exp_weights(t: np.ndarray) -> np.ndarray:
    """exp(t) in place, with t clamped at ``_LOG_TINY`` first.

    A clamped weight, e^-700 < 1e-304 of the peak, is as good as 0, and the
    clamp keeps numpy's exp off its slow path near underflow, which is several
    times slower per element.
    """
    return np.exp(np.maximum(t, _LOG_TINY, out=t), out=t)


def _half_widths(c: _Ratios, peak: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """Half-widths whose walks from each peak reach -cut, or a table end, on both sides.

    Near its peak i* the log-weight falls like -k m^2 / 2, k = r_(i*-1) - r_(i*),
    so it reaches -cut about m = sqrt(2 cut / k) steps out.  A walk is concave,
    so past its m-th step s it falls by at least |s| a step, and before it by at
    most |s| a step: from u_m = log(a_(i*+-m)^2 / a_(i*)^2) +- 2 m ln x it is at
    or below -cut (u_m + cut) / |s| steps further out (further in, where that is
    negative).  u_m is a difference of the prefix sums ``sink``, which carry
    the rounding of up to n additions, far below the unit of log-weight that,
    with one step more, covers the rounding of u_m and s.  A side past a table
    end takes an infinite step of ``_Ratios`` and needs none; a flat step
    takes the whole table.  No window needs more than max(n - i*, i*) steps,
    which reach both table ends; small tables take that many.
    """
    n = len(c.left) - 2
    whole = np.maximum(n - peak, peak)
    if n <= _WHOLE_TABLE_N:
        return whole
    at = np.minimum(np.maximum(peak, 1), n - 1)
    k = np.maximum(c.left[at + 1] - c.left[at], 0.0)
    with np.errstate(divide="ignore"):  # k = 0 or a flat step: the whole table
        m = np.minimum(np.floor(np.sqrt(2.0 * c.cut / k)) + 2.0, whole).astype(int)
        ends = np.empty((2, len(peak)), dtype=int)  # i* + m and i* - m, then the steps there
        np.add(peak, m, out=ends[0])
        np.subtract(peak, m, out=ends[1])
        u = c.sink[peak] - c.sink.take(ends, mode="clip")
        m_d0 = m * d0
        u[0] += m_d0
        u[1] -= m_d0
        ends[1] += 1
        step = c.left.take(ends, mode="clip")
        step -= d0  # |d0 - left[i* + m]| and |left[i* - m + 1] - d0|
        u += c.cut
        u += 1.0
        u /= np.abs(step, out=step)
        need = np.ceil(np.maximum(u[0], u[1], out=u[0]), out=u[0])
    return np.minimum(m + need + 1.0, whole).astype(int)


def _step_columns(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The step counts q = 1..h, and the columns (1, q, q^2) that sum a walk's moments, read-only."""
    q = np.arange(1, h + 1)
    powers = np.stack((np.ones(h), q, q * q), axis=1).astype(float)
    q.flags.writeable = powers.flags.writeable = False
    return q, powers


_STEPS = _step_columns(0)  # grown to the widest half-width asked for, by rebinding


def _steps(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The first h rows of the step columns: views of one pair of arrays, grown when h exceeds them.

    A reader that holds the old pair keeps it, so growing by rebinding needs no lock.
    """
    global _STEPS
    if len(_STEPS[0]) < h:
        _STEPS = _step_columns(h)
    q, powers = _STEPS
    return q[:h], powers[:h]


def _walks(c: _Ratios, peak: np.ndarray, d0: np.ndarray, h: int) -> np.ndarray:
    """Log-weights 1..h steps right (first p rows) and left (last p rows) of each peak.

    t_i = log(a_i^2 x^(2i)) changes by d_i = r_i + 2 ln x from i to i+1, so
    t_(i*+q) - t_(i*) is a sum of d walking out from the peak i*: each partial
    sum stays near the terms it adds, and no large numbers cancel.
    """
    p = len(peak)
    q = _steps(h)[0]
    g = np.empty((2 * p, h))
    c.left.take(peak[:, None] + q, mode="clip", out=g[:p])        # -r_(i*+q-1)
    c.left.take((peak + 1)[:, None] - q, mode="clip", out=g[p:])  # -r_(i*-q)
    np.subtract(d0[:, None], g[:p], out=g[:p])
    g[p:] -= d0[:, None]
    return np.cumsum(g, axis=1, out=g)


_SIGNS = np.array([1.0, -1.0, 1.0])  # a left walk's offsets are -q


def _centred(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weight total - 1, mean offset, variance) of the window around each peak.

    The weights are 1 at the peak and e^u on the walks of ``_walks``.  Taken
    about the peak, E[o^2] - mean^2 loses at most about two bits: the weights
    are unimodal with their mode at offset 0, so mean^2 <= 3 Var.
    """
    p = len(u) // 2
    sums = _exp_weights(u) @ _steps(u.shape[1])[1]
    s = sums[:p] + sums[p:] * _SIGNS
    total = 1.0 + s[:, 0]
    mean = s[:, 1] / total
    return s[:, 0], mean, s[:, 2] / total - mean * mean


_BUDGET = 1 << 15  # points x half-width per weights array
# One more block costs about as much as walking this many more terms.
_SPLIT_TERMS = 3000


def _blocks(widths: np.ndarray):
    """Slices of consecutive points, cut by one rule: each block is as long as it can be.

    ``widths`` are the points' half-widths.  A block ends before the point
    that would take its count x widest half-width past ``_BUDGET``, or its
    padding, the sum over its points of widest minus own half-width (steps a
    side walked past a window), to ``_SPLIT_TERMS``: a narrow window walks
    apart from wide ones where the padding would cost more than one more
    block.  A single point, even one wider than the budget, is a block.  Both
    measures grow with every point added, so the first point that breaks
    either ends the block.
    """
    start = 0
    while start < len(widths):
        w = widths[start:start + max(1, _BUDGET // int(widths[start]))]
        count, widest = np.arange(1, len(w) + 1), np.maximum.accumulate(w)
        fits = (count * widest <= _BUDGET) & (count * widest - np.cumsum(w) < _SPLIT_TERMS)
        stop = start + max(1, int(np.count_nonzero(fits)))
        yield slice(start, stop)
        start = stop


def _moments(c: _Ratios, lx: np.ndarray, xs: np.ndarray | None = None):
    """g = sqrt(Var) = x f at each ln x of ``lx``; at x = ``xs``, the rows (log M, B/M, f, log(A*M - B^2)).

    Weights p_i = a_i^2 x^(2i) / M give M, the mean mu = x B/M and the
    variance Var = sum p_i (i - mu)^2 = x^2 (A*M - B^2)/M^2, so f = sqrt(Var)/x.
    log a_i^2 is concave, so r is non-increasing: the weights of each point
    peak at the index i* that a binary search on r finds, and fall at least
    geometrically on either side.  Only the window where they stay above
    e^-cut (cut = 40 + 3 ln(n+1)) is summed, O(sqrt(n)) terms, and the mass
    dropped beyond it is below e^-cut times a factor polynomial in n.
    ``_evaluator`` passes only points where the weight next to an end peak is
    at least about e^-40 of the peak's, so Var stays far inside the double
    range.  Each window's half-width is fixed before its walk (``_half_widths``),
    and the weights of a block of consecutive points (``_blocks``) take one
    array of 2 x points x h, h the block's widest half-width, walked once: memory
    stays bounded however many points are asked for, and a narrow window
    carries little padding.  log M = log a_(i*)^2 + 2 i* ln x + log(weight
    total) reads log a_i^2 at each point's own peak, so each point's log M is
    placed as a one-point call places it; counts read none.
    """
    d0 = 2.0 * lx
    peak = np.searchsorted(c.left[1:-1], d0)  # the number of i with d_i > 0
    widths = _half_widths(c, peak, d0)
    sums = np.empty((3, len(lx)))
    for i in _blocks(widths):
        sums[:, i] = _centred(_walks(c, peak[i], d0[i], int(widths[i].max())))
    s0, mean, var = sums
    g = np.sqrt(var)
    if xs is None:
        return g
    f = g / xs  # past the double range at tiny x: ``_evaluator`` raises
    s1 = (peak + mean) / xs
    log_m = c.log_sq(peak) + peak * d0 + np.log1p(s0)
    log_f = 0.5 * np.log(var) - lx
    return log_m, s1, f, 2.0 * (log_m + log_f)


def _end_rows(end: tuple, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows of the coefficients read from ``end`` = (la, r, r_next, amb), at y^2 e^r < e^-40.

    The weights peak at the end and fall from y^2 e^r next to it: the mean
    index is y^2 e^r, so B/M = y e^r, log M = la + y B/M, f = e^(r/2) and
    log(A*M - B^2) = amb + 4 y^2 e^(r_next), each exact to the last bit (the
    first term dropped is e^-40 < 2^-57 of the last kept).  Past e^709, where
    e^r overflows and e^(r/2) may not, B/M is (y e^(r/2)) e^(r/2); below, y e^r
    rounds once, where y e^(r/2) could round to a subnormal first.
    """
    la, r, r_next, amb = end
    try:
        g = math.exp(0.5 * r)
    except OverflowError:  # only near x = 0, where f is f(0): points past x_high need e^(r/2) < e^690
        raise NumericError(f"f(0) = a_1/a_0 = e^{0.5 * r:.6g} does not fit in a double") from None
    s = y * math.exp(r) if r < 709.0 else (y * g) * g
    return la + y * s, s, np.full_like(y, g), amb + 4.0 * (y * math.exp(0.5 * r_next)) ** 2


@lru_cache(maxsize=32)
def _splits(finest: int) -> tuple[float, ...]:
    """s = 0 and +-2^k for k = finest .. 5: a root count's first panels widen away from
    s = 0 (|x| = 1), where g varies fastest."""
    ladder = [2.0 ** k for k in range(finest, 6)]
    return (*(-h for h in reversed(ladder)), 0.0, *ladder)


class Kernel(NamedTuple):
    """Array kernels of one family at one degree, through its one evaluator (``_evaluator``).

    A kernel has one read per job.  ``rows`` gives (log M, B/M, f,
    log(A*M - B^2)) at any x >= 0, and a density is its f row; ``spread``
    gives g = x f at x = e^-s, reading no log a_i^2, for s strictly between
    ``edges`` = (s_high, s_low), past which g is e^-20 e^-|s - edge|.  A root
    count integrates ``spread``, its first panels cut at the increasing
    ``splits`` that lie inside its leg and between its knees
    (``_integrate_legs``).
    """

    rows: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    spread: Callable[[np.ndarray], np.ndarray]
    edges: tuple[float, float]
    splits: tuple[float, ...]


def _evaluator(moments: Callable, n: int, ratios: tuple, ends: Callable[[], tuple[float, float]],
               splits: tuple) -> Kernel:
    """The one evaluator of a family: ``moments`` at ln x, served to x and to s.

    ``moments(lx)`` gives g, and ``moments(lx, xs)`` the rows at xs = e^lx,
    between x_low = e^-((40 + r_0)/2) and x_high = e^((40 - r_(n-1))/2), from
    ``ratios`` = (r_0, r_1, -r_(n-1), -r_(n-2)).  x up to x_low take the limit
    rows (``_end_rows``) of (log a_0^2, r_0, r_1, log(a_0^2 a_1^2)), finite x
    from x_high those of (log a_n^2, -r_(n-1), -r_(n-2), log(a_(n-1)^2 a_n^2))
    at y = 1/x, reflected through M(x) = x^(2n) M_rev(y), mean index
    n - mean_rev, f(x) = f_rev(y)/x^2 and A*M - B^2 = x^(4n-4) (A*M - B^2)_rev,
    and x = inf the limits.  ``ends()`` gives (log a_0^2, log a_n^2); only a
    call with a point past the edges reads it, so root counts, and rows whose
    points all lie inside the edges, never do.  NaN or x < 0 raises
    ``ParameterDomainError``, and an f or B/M past the double range at a
    finite x ``NumericError``.
    """
    r_0, r_1, r_n, r_n1 = ratios
    s_low, s_high = 0.5 * (_EDGE_LOG + r_0), -0.5 * (_EDGE_LOG + r_n)
    x_low, y_high = math.exp(-s_low), math.exp(s_high)  # y_high = 1/x_high: 0 past the double range
    x_high = 1.0 / y_high if y_high > 0.0 else math.inf
    x_min = max(x_low, (n + 1.0) / sys.float_info.max)  # above it no f or B/M (<= n/x) overflows

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, ...]:
        if len(xs) == 0:
            return tuple(np.empty((4, 0)))
        if x_min < xs.min() and xs.max() < x_high:  # false for NaN
            return moments(np.log(xs), xs)
        if not xs.min() >= 0.0:
            raise ParameterDomainError(f"density needs x >= 0, got {xs[~(xs >= 0.0)][0]!r}")
        with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf; overflows raise below
            lx = np.log(xs)
            below, infinite = xs <= x_low, xs == math.inf
            above = (xs >= x_high) & ~infinite
            inside = ~(below | above | infinite)
            la_0, la_n = ends() if not inside.all() else (0.0, 0.0)
            low = (la_0, r_0, r_1, 2.0 * la_0 + r_0)
            # at n = 1, A*M - B^2 = a_0^2 a_1^2 at every x: both ends take one constant
            high = (la_n, r_n, r_n1, low[3] if n == 1 else 2.0 * la_n + r_n)
            out = np.empty((4, len(xs)))
            if below.any():
                out[:, below] = _end_rows(low, xs[below])
            if above.any():
                x, y, l_above = xs[above], 1.0 / xs[above], lx[above]
                log_m, s, f, log_amb = _end_rows(high, y)
                out[:, above] = (log_m + 2.0 * n * l_above, (n - y * s) / x, f / x / x,
                                 log_amb + (4 * n - 4) * l_above)
            # A*M - B^2 ~ a_n^2 a_(n-1)^2 x^(4n-4): constant only at n = 1
            out[:, infinite] = [[math.inf], [0.0], [0.0], [high[3] if n == 1 else math.inf]]
            if inside.any():
                out[:, inside] = moments(lx[inside], xs[inside])
        finite = np.isfinite(out[1]) & np.isfinite(out[2])
        if not finite.all():  # the window sums near x = 0, where f ~ e^(r_0/2)
            raise NumericError(f"f or B/M at x = {float(xs[~finite][0])!r} does not fit in a double")
        return tuple(out)

    return Kernel(evaluate, lambda s: moments(-s), (s_high, s_low), splits)


def _ratio_kernel(n: int, log_ratio: np.ndarray, log_sq: Callable[[np.ndarray], np.ndarray]) -> Kernel:
    """The window kernel of the ratios r_0 .. r_(n-1), with log a_i^2 read from ``log_sq`` at an index array."""
    c = _ratios(n, log_ratio, log_sq)
    ratios = (-c.left[1], -c.left[2], c.left[-2], c.left[-3])
    return _evaluator(partial(_moments, c), n, ratios, lambda: tuple(log_sq(np.array([0, n])).tolist()),
                      _splits(0))


def _table_kernel(table: CoefficientTable) -> Kernel:
    return _ratio_kernel(table.n, table.log_ratio, table.log_sq_coeff.take)


def _triple(x: float, rows: tuple[np.ndarray, ...]) -> KacRiceTriple:
    log_m, s1, f, log_amb = (float(v[0]) for v in rows)
    return KacRiceTriple(x, log_m, s1, f * f + s1 * s1, log_amb, f)


def kac_rice_eval(table: CoefficientTable, x: float) -> KacRiceTriple:
    """Evaluate (M, B/M, A/M, A*M - B^2, f) at x >= 0 in log scale.

    A/M = f^2 + (B/M)^2 and log(A*M - B^2) = 2 log M + log Var - 2 log x
    = 2 (log M + log f), so neither divides by x^2.  Negative x is handled
    upstream through evenness of the density; x = inf gives the limits.
    """
    return _triple(float(x), _table_kernel(table).rows(np.array([float(x)])))


def _density(k: Kernel, x):
    """The f row of ``k`` at |x| as a flat array, reshaped like ``x``; a float for a scalar."""
    arr = np.asarray(x, dtype=float)
    f = k.rows(np.abs(np.atleast_1d(arr).ravel()))[2]
    return float(f[0]) if arr.ndim == 0 else f.reshape(arr.shape)


def density(table: CoefficientTable, x):
    """Kac-Rice density f(|x|) = sqrt(A*M - B^2)/M; accepts scalars or arrays.

    f(+-inf) = 0, its limit; NaN raises ``ParameterDomainError``.
    """
    return _density(_table_kernel(table), x)


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


def _horner(coeffs, z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k coeffs[k] z^k and the same sum at w, in one pass over both."""
    zw = np.concatenate((z, w))
    p = np.full_like(zw, coeffs[-1])
    for c in coeffs[-2::-1]:
        p = p * zw + c
    return p[:len(z)], p[len(z):]


def _log1mexp(t: np.ndarray) -> np.ndarray:
    """log(1 - e^t) for t < 0, without cancellation on either side of -ln 2."""
    return np.where(t > -_LN2, np.log(-np.expm1(t)), np.log1p(-np.exp(t)))


def _kac_moments(n: int, lx: np.ndarray, xs: np.ndarray | None = None):
    """g = x f of the Kac family at each ln x of ``lx``; at x = ``xs``, its rows as in ``_moments``.

    Every closed form is taken at y = min(x, 1/x) = e^-s, s = |ln x|, where its
    terms stay bounded, and reflected through the palindromic coefficients:
    M(x) = x^(2n) M(1/x), the mean index phi = x B/M is n - phi(1/x), and
    f(x) = f(1/x)/x^2, so g = y f(y).  With X = y^2,
    M = (1 - X^(n+1))/(1 - X), phi = X (1/(1 - X) - (n+1) X^n/(1 - X^(n+1))) and
    f(y)^2 = 1/(1 - X)^2 - (n+1)^2 X^n / (1 - X^(n+1))^2
           = e^(2s)/4 (csch^2 s - (n+1)^2 csch^2((n+1)s)).
    Where (n+1)s < ``_SERIES_CUT`` the terms cancel: there the 1/s^2 poles are
    taken out and the series of the rest serve, and the closed forms run at
    X = e^-2 in their place, which keeps x = 1 out of 0/0.
    """
    big = n + 1.0
    s = np.abs(lx)
    near = big * s < _SERIES_CUT
    t = -2.0 * (np.where(near, 1.0, s) if near.any() else s)  # ln X
    one_m_x, one_m_xbig, x_n = -np.expm1(t), -np.expm1(big * t), np.exp(n * t)
    f2 = 1.0 / (one_m_x * one_m_x) - big * big * x_n / (one_m_xbig * one_m_xbig)
    if near.any():
        sn = s[near]
        vn = big * sn
        c_s, c_v = _horner(_CSCH2, sn * sn, vn * vn)
        f2[near] = np.exp(2.0 * sn) / 4.0 * (c_s - big * big * c_v)
    if xs is None:
        return np.exp(-s) * np.sqrt(f2)
    high, f = lx > 0.0, np.sqrt(f2)
    f = np.where(high, f / xs / xs, f)  # x > e^-20 here: no quotient overflows
    q = 1.0 / one_m_x - big * x_n / one_m_xbig  # phi / X
    s1 = np.where(high, (n - np.exp(t) * q) / xs, xs * q)  # B/M = phi/x, exact as x -> 0
    log_m = _log1mexp(big * t) - _log1mexp(t)
    if near.any():
        u = 2.0 * lx[near]  # ln x^2
        w = big * u
        d_w, d_u = _horner(_EXPM1_INV, w * w, u * u)
        phi = 0.5 * n + big * w * d_w - u * d_u
        s1[near] = phi / xs[near]
        ratio = np.divide(np.expm1(-2.0 * big * sn), np.expm1(-2.0 * sn),
                          out=np.full_like(sn, big), where=sn > 0.0)
        log_m[near] = np.log(ratio)
    up = np.maximum(lx, 0.0)
    log_m += 2.0 * n * up
    log_f = 0.5 * np.log(f2) - 2.0 * up
    return log_m, s1, f, 2.0 * (log_m + log_f)


def _kac_kernel(n: int) -> Kernel:
    _check_integer(n)
    r_next = 0.0 if n > 1 else -math.inf  # every a_i^2 = 1: each log and ratio is 0
    # g peaks at s = 0 with a width of about 1/(n+1): the first panels step down to
    # the finest 2^-k >= 2/(n+1), so no round of bisections is spent halving its way there
    return _evaluator(partial(_kac_moments, n), n, (0.0, r_next, 0.0, r_next), lambda: (0.0, 0.0),
                      _splits(2 - (int(n) + 1).bit_length()))


def kac_density(n: int, x) -> float | np.ndarray:
    """Kac density in O(1) per point; series fallback keeps full precision near |x| = 1."""
    return _density(_kac_kernel(n), x)


def kac_triple(n: int, x: float) -> KacRiceTriple:
    """Closed-form KacRiceTriple for the Kac family, O(1) per point."""
    return _triple(float(x), _kac_kernel(n).rows(np.array([float(x)])))


# ---------------------------------------------------------------------------
# the one dispatch: Kac closed forms or the generic table kernel
# ---------------------------------------------------------------------------

def kernel(family: PolynomialClass, n: int) -> Kernel:
    """The evaluation kernels for ``family`` at degree ``n``.

    This is the one place that picks the Kac closed forms (gamma = 0, O(1)
    per point, no table) over the generic window kernel, which builds the n
    neighbour log-ratios and their prefix sums, and reads log a_i^2 only for
    rows: at each point's peak and at the two ends (``_Ratios``).
    """
    if family.is_kac:
        return _kac_kernel(n)
    _check_integer(n)
    return _ratio_kernel(n, _log_ratio_array(family, n), partial(_log_sq, family, n))


# ---------------------------------------------------------------------------
# expected root counts
# ---------------------------------------------------------------------------

_TAIL = math.exp(-0.5 * _EDGE_LOG)  # g at either edge, and its integral over s past it


def _legs(a: float, b: float, symmetric: bool) -> Counter[tuple[float, float]]:
    """Decompose (a, b) into legs (s1, s2) of s = -ln |x|, counted.

    f is even in x, so each side of x = 0 is one leg, across s = 0 if it
    holds |x| = 1.  A symmetric family's g is even in s, so its legs are cut
    at s = 0 and those at s < 0 fold onto s > 0: the full line is (0, inf)
    four times for a symmetric family, and (-inf, inf) twice otherwise.
    """
    legs: Counter[tuple[float, float]] = Counter()
    for lo, hi in ((max(-b, 0.0), -a), (max(a, 0.0), b)):
        if lo < hi:
            s1 = -math.log(hi) if hi < math.inf else -math.inf
            s2 = -math.log(lo) if lo > 0.0 else math.inf
            for leg in ((s1, min(s2, 0.0)), (max(s1, 0.0), s2)) if symmetric else ((s1, s2),):
                if leg[0] < leg[1]:
                    legs[(abs(leg[1]), abs(leg[0])) if symmetric and leg[1] <= 0.0 else leg] += 1
    return legs


def _knees(k: Kernel) -> tuple[float, float]:
    """(s_H, s_K): the knees past which a leg takes the variable of ``_to_leg``.

    The low knee s_K = s_low - _EDGE_LOG/2 = r_0/2 is where the weight next to
    the end peak at i = 0 equals the peak's own; past it g tends to
    x e^(r_0/2), so it falls like e^(s_K - s).  The high knee r_(n-1)/2
    mirrors it.  No knee sits closer to s = 0 than the table ladder's first
    rung, |s| = 1: the Kac peak and nearly flat weights vary there on scales
    far below 1, and past |s| = 1 their g falls like e^-|s| as well.
    """
    s_high, s_low = k.edges
    high, low = s_high + 0.5 * _EDGE_LOG, s_low - 0.5 * _EDGE_LOG
    return min(high, -1.0), max(low, 1.0)


def _to_leg(s: float, high: float, low: float) -> float:
    """The leg variable v at s: s between the knees, s_K + 1 - e^(s_K - s) past the low knee and
    s_H - 1 + e^(s - s_H) past the high one (v is x, and 1/x, rescaled there)."""
    if s > low:
        return low + 1.0 - math.exp(low - s)
    if s < high:
        return high - 1.0 + math.exp(s - high)
    return s


_NEAR_END = 1.0 / 3.0  # the share of its scale within which a leg's outermost rung goes


def _cuts(rungs: list[float], high: float, low: float, lo: float, hi: float) -> list[float]:
    """The first-panel cuts of the leg (lo, hi) in the leg variable: the rungs and knees inside it.

    The outermost cut at either end goes if it is a rung closer to that end
    than ``_NEAR_END`` times the leg's length, or times its own distance from
    s = 0 where that is shorter, so no rung leaves a sliver of a panel.  The
    ladder halves towards s = 0, so each rung is as far from the end of a leg
    (0, hi) as from the rung below it, and stays.  Knees always stay: the
    integrand is only once differentiable there, and a panel across one
    misjudges its error.
    """
    cuts = sorted(p for p in (*rungs, high, low) if lo < p < hi)
    for i, end in ((-1, hi), (0, lo)):
        if cuts and cuts[i] not in (high, low) and abs(end - cuts[i]) < _NEAR_END * min(hi - lo, abs(cuts[i])):
            del cuts[i]
    return cuts


def _integrate_legs(k: Kernel, symmetric: bool, a: float, b: float, tol: float) -> QuadratureResult:
    """(1/pi) * integral of f over (a, b): each distinct s-leg once, scaled by its multiplicity.

    A leg is one quadrature of g between the edges, in the leg variable of
    ``_to_leg``, and the closed-form integral of the limit rows past them.
    Its first panels are cut at the knees and at the kernel's splits between
    them (``_cuts``).
    Every leg gets ``tol`` over the total multiplicity, so the scaled error
    estimates add up to at most ``tol``.
    """
    legs = _legs(a, b, symmetric)
    per_leg = tol / sum(legs.values())
    s_high, s_low = k.edges
    high, low = _knees(k)
    rungs = [p for p in k.splits if high < p < low]

    def integrand(v: np.ndarray) -> np.ndarray:
        # (1/pi) g ds/dv.  Past a knee at distance d in v, s = knee -+ ln(1 - |d|) and
        # ds/dv = 1/(1 - |d|), so g ds/dv tends to a constant towards the edge;
        # between the knees d = 0, and the values are g/pi to the bit
        w = np.minimum(np.maximum(v, high), low)
        d = v - w
        t = 1.0 - np.abs(d)
        return k.spread(w + np.copysign(np.log(t), d)) / (t * math.pi)

    total = QuadratureResult(0.0, 0.0, 0, True)
    for (s1, s2), count in legs.items():
        tail = ((math.exp(s_low - max(s1, s_low)) - math.exp(s_low - max(s2, s_low)))
                + (math.exp(min(s2, s_high) - s_high) - math.exp(min(s1, s_high) - s_high)))
        leg = QuadratureResult(_TAIL * tail / math.pi, 0.0, 0, True)
        lo, hi = _to_leg(max(s1, s_high), high, low), _to_leg(min(s2, s_low), high, low)
        if lo < hi:
            leg = leg + adaptive_quadrature(integrand, lo, hi, tol=per_leg, splits=_cuts(rungs, high, low, lo, hi))
        total = total + QuadratureResult(count * leg.value, count * leg.abs_error_estimate,
                                         leg.evaluations, leg.converged)
    return total


def _validate_interval(a: float, b: float, tol: float) -> None:
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise ParameterDomainError(f"need a < b, got ({a!r}, {b!r})")
    if not tol > 0:
        raise ParameterDomainError(f"tolerance must be positive, got {tol!r}")


def expected_roots_interval(
    table: CoefficientTable, a: float, b: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """(1/pi) * integral of f over (a, b); endpoints may be +-inf."""
    _validate_interval(a, b, tol)
    return _integrate_legs(_table_kernel(table), table.family.is_symmetric, a, b, tol)


def expected_roots_interval_result(
    family: PolynomialClass, n: int, a: float, b: float, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """``expected_roots_interval`` for ``family`` at degree ``n``, through ``kernel``."""
    _validate_interval(a, b, tol)
    return _integrate_legs(kernel(family, n), family.is_symmetric, a, b, tol)


def kac_expected_roots_interval(n: int, a: float, b: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Interval root count for the Kac family via the closed-form density."""
    return expected_roots_interval_result(kac(), n, a, b, tol)


def expected_roots_real_line_result(
    family: PolynomialClass, n: int, tol: float = DEFAULT_TOL
) -> QuadratureResult:
    """Full-line expected root count: the interval (-inf, inf).

    That is 4 * (1/pi) * integral of g over s > 0 for a symmetric family and
    2 * (1/pi) * integral of g over the whole s-line otherwise.
    """
    return expected_roots_interval_result(family, n, -math.inf, math.inf, tol)


def expected_roots_real_line(family: PolynomialClass, n: int, tol: float = DEFAULT_TOL) -> float:
    result = expected_roots_real_line_result(family, n, tol)
    if not result.converged:
        raise QuadratureError(
            f"root-count quadrature did not converge for {family.label()} at n={n} "
            f"(error estimate {result.abs_error_estimate:.3e})"
        )
    return result.value


def expected_internal_equilibria(family: PolynomialClass, n: int, tol: float = DEFAULT_TOL) -> float:
    """Expected internal equilibria: half the expected number of real roots."""
    return 0.5 * expected_roots_real_line(family, n, tol)

