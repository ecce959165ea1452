"""Adaptive Gauss-Kronrod quadrature on finite intervals.

15-point Kronrod rule with its embedded 7-point Gauss rule; the classical
node/weight constants below are validated in the test suite through the exact
degree (22 resp. 13) of each rule.

Refinement works in rounds.  While the panel errors sum to more than the
tolerance, a round bisects the fewest worst panels (by error, ties in order
of creation) whose errors must go for the rest to sum to at most it.  That
never takes more evaluations than bisecting one worst panel at a time: from
the state a round starts in, that loop splits the state's panels worst first
and cannot stop before it has split the round's set, for until then the
errors of the rest exceed the tolerance.  Where the two end on the same
partition, every panel's sums agree.  The final sum runs over panels sorted
by left endpoint, so results are deterministic for a given integrand.

A round stalls if it leaves the error total at the rounding floor (64 ulps of
the panel sums) and at most floor/``STALLED_ROUNDS``, rounding noise, under the
lowest total before; QUADPACK's QAGS, too, counts a bisection that gains too
little as roundoff.  Refinement stops at the first stall over twice the
tolerance, and at the ``STALLED_ROUNDS``-th in a row within it.

``DEFAULT_TOL`` is the default tolerance of ``adaptive_quadrature``, every root count and ``--tol``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = ["QuadratureResult", "adaptive_quadrature"]

DEFAULT_TOL = 1e-9
MAX_EVALUATIONS = 2_000_000  # integrand evaluations before giving up
MAX_DEPTH = 60  # bisections of a first panel before a panel is kept as it stands
STALLED_ROUNDS = 16  # stalled rounds in a row within twice tol before giving up

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
# The Kronrod weights and, beside them, the Gauss weights at the Gauss nodes and 0 at the rest.
_RULES = np.zeros((15, 2))
_RULES[:, 0], _RULES[_G_IDX, 1] = _WGK, _WG


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
    two sums are taken over its own 15 values, one row of one product with
    both rules.
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
    sums = (fx @ _RULES) * half[:, None]
    return list(zip(sums[:, 0].tolist(), np.abs(sums[:, 0] - sums[:, 1]).tolist()))


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
    inside it; one tolerance covers them all.  ``f`` is called once for the
    first panels and once per round, for both halves of each panel it
    bisects, with 15 nodes per panel in order of position.  Each panel's sums
    come from its own 15 values, so a pointwise ``f`` gives the results of one
    call per panel, bit for bit.  Never returns a silently wrong value: when
    the evaluation budget runs short, a round bisects its worst panels up to
    it, and the result carries ``converged=False`` with the achieved error
    estimate; so does a stop at the rounding floor (see the module docstring).
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
    # panels: (-err, seq, depth, a, b, value, err), seq numbering them in
    # order of creation; ``kept`` ones are at MAX_DEPTH or too narrow to halve
    live: list[tuple] = []
    kept: list[tuple] = []
    new = [(lo, hi, 0, seq) for seq, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    seq, evaluations, lowest, stalled = len(new), 0, math.inf, 0
    while True:
        for (lo, hi, depth, created), (value, err) in zip(new, _panels(f, [p[:2] for p in new])):
            mid = 0.5 * (lo + hi)
            (live if depth < MAX_DEPTH and lo < mid < hi else kept).append(
                (-err, created, depth, lo, hi, value, err))
        evaluations += 15 * len(new)
        live.sort()
        kept_errors, errors = [p[6] for p in kept], [p[6] for p in live]
        total = math.fsum(kept_errors + errors)
        room = (MAX_EVALUATIONS - evaluations) // 30
        floor = 2.0 ** -46 * sum(abs(p[5]) for p in live + kept)
        stalled = stalled + 1 if lowest - floor / STALLED_ROUNDS <= total <= floor else 0
        lowest = min(lowest, total)
        at_floor = stalled >= (1 if total > 2.0 * tol else STALLED_ROUNDS)
        if total <= tol or not live or room <= 0 or at_floor:
            break
        # the fewest worst panels whose bisection leaves at most tol in the rest, or all
        count = 1 + bisect.bisect_left(range(1, len(live)), True,
                                       key=lambda k: math.fsum(kept_errors + errors[k:]) <= tol)
        new = []
        for _, _, depth, lo, hi, _, _ in live[:min(count, room)]:
            mid = 0.5 * (lo + hi)
            new += [(lo, mid, depth + 1, seq), (mid, hi, depth + 1, seq + 1)]
            seq += 2
        del live[:len(new) // 2]
        new.sort()

    panels = sorted(live + kept, key=lambda item: item[3])
    value = float(sum(item[5] for item in panels))
    total_err = float(sum(item[6] for item in panels))
    return QuadratureResult(value, total_err, evaluations, total <= tol)
