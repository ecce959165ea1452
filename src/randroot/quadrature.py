"""Adaptive Gauss-Kronrod quadrature on finite intervals.

15-point Kronrod rule with its embedded 7-point Gauss rule; the classical
node/weight constants below are validated in the test suite through the exact
degree (22 resp. 13) of each rule.  Panels are bisected worst-error-first and
the final sum runs over panels sorted by left endpoint, so results are
deterministic for a given integrand.

``DEFAULT_TOL`` is the default tolerance of ``adaptive_quadrature``, every root count and ``--tol``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = ["QuadratureResult", "adaptive_quadrature"]

DEFAULT_TOL = 1e-9
MAX_EVALUATIONS = 2_000_000  # integrand evaluations before giving up
MAX_DEPTH = 60  # bisections of a first panel before a panel is kept as it stands
_EPS = float(np.finfo(float).eps)

# Kronrod-15 nodes on [-1, 1]; odd entries are the embedded Gauss-7 nodes.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            self.value + other.value,
            self.abs_error_estimate + other.abs_error_estimate,
            self.evaluations + other.evaluations,
            self.converged and other.converged,
        )


def _panels(f: Callable[[np.ndarray], np.ndarray], panels: Sequence[tuple[float, float]]
            ) -> list[tuple[float, float]]:
    """(Kronrod value, |Kronrod - Gauss|) of each panel (a, b) of ``panels``, from one call of ``f``.

    ``f`` gets the 15 nodes of every panel, panel after panel; each panel's
    sums are taken over its own 15 values, as if it were evaluated alone.
    """
    ab = np.array(panels, dtype=float)
    center, half = 0.5 * (ab[:, 0] + ab[:, 1]), 0.5 * (ab[:, 1] - ab[:, 0])
    fx = np.asarray(f((center[:, None] + half[:, None] * _XGK).ravel()), dtype=float)
    if fx.shape != (15 * len(ab),):
        raise NumericError(f"integrand returned shape {fx.shape} for {15 * len(ab)} nodes")
    fx = fx.reshape(len(ab), 15)
    bad = ~np.isfinite(fx).all(axis=1)
    if bad.any():
        a, b = panels[int(np.argmax(bad))]
        raise NumericError(f"integrand returned non-finite values on [{a}, {b}]")
    out = []
    for h, row in zip(half.tolist(), fx):
        k15 = h * float(_WGK @ row)
        out.append((k15, abs(k15 - h * float(_WG @ row[_G_IDX]))))
    return out


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    *,
    splits: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate the vectorized ``f`` over [a, b] to absolute tolerance ``tol``.

    The first panels are [a, b] cut at the increasing ``splits``, all strictly
    inside it; one tolerance covers them all.  ``f`` is called once for all
    first panels and once per bisection, for both halves, with 15 nodes per
    panel: a leg of b bisections makes 1 + b calls.  Each panel's sums come
    from its own 15 values, so a pointwise ``f`` gives the results of one
    call per panel, bit for bit.  Never returns a silently wrong value: if
    the subdivision budget runs out the result carries ``converged=False``
    with the achieved error estimate.
    """
    if not tol > 0:
        raise NumericError(f"tolerance must be positive, got {tol!r}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise NumericError(f"need finite a < b, got ({a!r}, {b!r})")

    edges = [a, *splits, b]
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise NumericError(f"splits must increase strictly inside ({a!r}, {b!r}), got {splits!r}")
    # heap entries: (-err, insertion seq for deterministic ties, depth, a, b, value, err)
    heap = []
    first = list(zip(edges, edges[1:]))
    for seq, ((lo, hi), (value, err)) in enumerate(zip(first, _panels(f, first))):
        heapq.heappush(heap, (-err, seq, 0, lo, hi, value, err))
    evaluations = 15 * len(heap)
    exhausted: list[tuple] = []  # panels at max depth, no longer splittable
    # The stop test is the panel errors summed in heap order, then exhausted
    # order.  A running total stands in for that O(panels) sum: after k
    # additions of terms whose magnitudes add up to ``moved`` it is within
    # k*eps*moved of the exact sum, and the ordered sum of p panels within
    # p*eps*sum, so only a running total closer to tol than twice that is
    # settled by the ordered sum, and every result stays bit-identical.
    running = moved = sum(item[6] for item in heap)
    additions = len(heap) - 1

    while True:
        count = len(heap) + len(exhausted)
        slack = 2.0 * _EPS * (additions * moved + count * max(running, tol))
        if abs(running - tol) > slack:
            done = running <= tol
        else:
            done = sum(item[6] for item in heap) + sum(item[6] for item in exhausted) <= tol
        if done:
            converged = True
            break
        if not heap or evaluations + 30 > MAX_EVALUATIONS:
            converged = False
            break
        item = heapq.heappop(heap)
        depth, pa, pb = item[2], item[3], item[4]
        mid = 0.5 * (pa + pb)
        if depth >= MAX_DEPTH or mid <= pa or mid >= pb:
            exhausted.append(item)  # not splittable; keep its contribution
            continue
        running -= item[6]
        moved += item[6]
        halves = ((pa, mid), (mid, pb))
        for (lo, hi), (v, e) in zip(halves, _panels(f, halves)):
            evaluations += 15
            seq += 1
            heapq.heappush(heap, (-e, seq, depth + 1, lo, hi, v, e))
            running += e
            moved += e
        additions += 3

    panels = sorted(heap + exhausted, key=lambda item: item[3])
    value = float(sum(item[5] for item in panels))
    total_err = float(sum(item[6] for item in panels))
    return QuadratureResult(value, total_err, evaluations, converged)
