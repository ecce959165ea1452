import math

import numpy as np
import pytest

from randroot import quadrature
from randroot.errors import NumericError
from randroot.quadrature import _G_IDX, _WG, _WGK, _XGK, adaptive_quadrature


def monomial_integral(k, a, b):
    return (b ** (k + 1) - a ** (k + 1)) / (k + 1)


def test_weights_normalized():
    # both rules integrate 1 over [-1, 1] exactly
    assert abs(_WGK.sum() - 2.0) < 1e-14
    assert abs(_WG.sum() - 2.0) < 1e-14
    assert np.all(np.diff(_XGK) > 0)


@pytest.mark.parametrize("k", range(0, 23))
def test_kronrod_rule_exact_through_degree_22(k):
    # a 15-point Kronrod extension integrates polynomials up to degree 22 exactly;
    # any wrong digit in the tabulated nodes/weights breaks this at degree ~10+
    a, b = -0.73, 1.19
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    value = half * float(_WGK @ (center + half * _XGK) ** k)
    assert value == pytest.approx(monomial_integral(k, a, b), rel=2e-13, abs=1e-14)


@pytest.mark.parametrize("k", range(0, 14))
def test_gauss_subrule_exact_through_degree_13(k):
    a, b = -0.4, 0.9
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = center + half * _XGK[1:15:2]
    value = half * float(_WG @ nodes**k)
    assert value == pytest.approx(monomial_integral(k, a, b), rel=2e-13, abs=1e-15)


def test_adaptive_known_integrals():
    res = adaptive_quadrature(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(math.pi / 4.0, abs=1e-12)

    res = adaptive_quadrature(np.exp, -1.0, 2.0, tol=1e-12)
    assert res.value == pytest.approx(math.e**2 - math.exp(-1), rel=1e-13)
    assert res.abs_error_estimate >= 0
    assert res.evaluations % 15 == 0


def test_adaptive_resolves_sharp_peak():
    # narrow Lorentzian needs many subdivisions but stays well under the caps
    w = 1e-5
    res = adaptive_quadrature(lambda x: w / (w * w + (x - 0.3) ** 2), 0.0, 1.0, tol=1e-10)
    exact = math.atan(0.7 / w) - math.atan(-0.3 / w)
    assert res.converged
    assert res.value == pytest.approx(exact, abs=1e-9)


def test_budget_exhaustion_reports_not_converged(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
    w = 1e-7
    res = adaptive_quadrature(lambda x: w / (w * w + (x - 0.5) ** 2), 0.0, 1.0, tol=1e-13)
    assert not res.converged
    assert res.abs_error_estimate > 1e-13


def test_rounding_floor_ends_refinement():
    # once a round leaves the error total within 64 ulps of the sums, over
    # twice tol and no lower than the lowest before by more than its noise, the
    # loop stops with converged=False, far inside the budget; a tolerance
    # above the floor still converges
    for f, a, b in ((np.exp, -1.0, 2.0), (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)):
        res = adaptive_quadrature(f, a, b, tol=1e-30)
        assert not res.converged and res.evaluations < 1000
        assert 0.0 < res.abs_error_estimate <= 2.0 ** -46 * res.value
    assert adaptive_quadrature(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, tol=1e-14).converged


_STALL = (1.6e-15,) * quadrature.STALLED_ROUNDS  # at the floor, within 2 tol, above the lowest 1.5e-15


@pytest.mark.parametrize("totals,calls,converged", [
    ((1e-3, 3e-15, 3.1e-15, 0.9e-15), 3, False),  # stalls at the floor, over 2 tol: stop
    ((1e-3, 3e-15, 2.9e-15, 3.0e-15, 0.9e-15), 3, False),  # over 2 tol, a new low by under floor/16 stalls
    ((1e-3, 1.5e-15, 1.6e-15, 0.9e-15), 4, True),  # stalls within 2 tol: noise may close it
    ((1e-3, 1e-13, 1.1e-13, 0.9e-15), 4, True),  # stalls above the floor: not at it
    ((1e-3, 1.5e-15) + _STALL, 2 + len(_STALL), False),  # STALLED_ROUNDS in a row with no new low: stop
    ((1e-3, 1.5e-15) + _STALL[1:] + (1e-12,) + _STALL, 2 + 2 * len(_STALL), False),  # a round off the floor restarts them
    ((1e-3, 1.5e-15) + _STALL[1:] + (0.9e-15,), 2 + len(_STALL), True),  # tol met in the last round first
    ((1e-3, 1.5e-15) + _STALL[1:] + (1.4e-15,) + _STALL, 2 + len(_STALL), False),  # a new low by under floor/16 restarts nothing
])
def test_rounding_floor_rule(monkeypatch, totals, calls, converged):
    # scripted panels, each of value 1: call k gives its first panel the error
    # totals[k] and the rest none, so each round bisects that panel alone and
    # leaves totals[k] as the error total; the floor is 64 ulps of the panel count
    made = []

    def scripted(f, panels):
        made.append(len(panels))
        return [(1.0, totals[len(made) - 1] if i == 0 else 0.0) for i in range(len(panels))]

    monkeypatch.setattr(quadrature, "_panels", scripted)
    res = adaptive_quadrature(np.exp, 0.0, 1.0, tol=1e-15)
    assert (len(made), res.converged) == (calls, converged)


def test_integrand_of_the_wrong_shape_raises():
    # one value for the 15 nodes of the first panel
    with pytest.raises(NumericError, match=r"integrand returned shape \(\) for 15 nodes"):
        adaptive_quadrature(np.sum, 0.0, 1.0)


def test_degenerate_and_invalid_intervals():
    assert adaptive_quadrature(np.exp, 1.0, 1.0).value == 0.0
    with pytest.raises(NumericError):
        adaptive_quadrature(np.exp, 2.0, 1.0)
    with pytest.raises(NumericError):
        adaptive_quadrature(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    for splits in ((0.5, 0.5), (0.0,), (0.7, 0.2), (1.5,)):
        with pytest.raises(NumericError):
            adaptive_quadrature(np.exp, 0.0, 1.0, splits=splits)


def test_splits_start_the_heap_from_their_panels():
    # a kink at 0.3 costs bisections from one panel, none from a split there
    f = lambda x: np.abs(x - 0.3)  # noqa: E731
    one = adaptive_quadrature(f, 0.0, 1.0, tol=1e-12)
    cut = adaptive_quadrature(f, 0.0, 1.0, tol=1e-12, splits=(0.3,))
    assert cut.evaluations == 30 < one.evaluations
    assert cut.value == pytest.approx(0.29, abs=1e-15) and one.value == pytest.approx(0.29, abs=1e-12)


def _rule(f, edges):
    """(Kronrod value, |Kronrod - Gauss|) of each panel of ``edges``, from one call of ``f``."""
    nodes = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _XGK for lo, hi in edges])
    fx = np.asarray(f(nodes), dtype=float).reshape(len(edges), 15)
    out = []
    for (lo, hi), row in zip(edges, fx):
        half = 0.5 * (hi - lo)
        k15 = half * float(_WGK @ row)
        out.append((k15, abs(k15 - half * float(_WG @ row[_G_IDX]))))
    return out


def _resum_each_step(f, a, b, tol=1e-9, splits=()):
    """The adaptive loop one bisection at a time: every step re-sums all panel
    errors, heap order then exhausted order, and bisects the worst panel
    (ties in creation order).  It calls ``f`` once for the first panels and
    once per bisection."""
    import heapq

    from randroot.quadrature import MAX_EVALUATIONS, QuadratureResult

    max_depth = quadrature.MAX_DEPTH

    edges = [a, *splits, b]
    first = list(zip(edges, edges[1:]))
    heap = []
    for seq, ((lo, hi), (value, err)) in enumerate(zip(first, _rule(f, first))):
        heapq.heappush(heap, (-err, seq, 0, lo, hi, value, err))
    evaluations = 15 * len(heap)
    exhausted = []
    while True:
        total_err = sum(item[6] for item in heap) + sum(item[6] for item in exhausted)
        if total_err <= tol:
            converged = True
            break
        if not heap or evaluations + 30 > MAX_EVALUATIONS:
            converged = False
            break
        item = heapq.heappop(heap)
        depth, pa, pb = item[2], item[3], item[4]
        mid = 0.5 * (pa + pb)
        if depth >= max_depth or mid <= pa or mid >= pb:
            exhausted.append(item)
            continue
        halves = [(pa, mid), (mid, pb)]
        for (lo, hi), (v, e) in zip(halves, _rule(f, halves)):
            evaluations += 15
            seq += 1
            heapq.heappush(heap, (-e, seq, depth + 1, lo, hi, v, e))
    panels = sorted(heap + exhausted, key=lambda item: item[3])
    return QuadratureResult(float(sum(item[5] for item in panels)),
                            float(sum(item[6] for item in panels)), evaluations, converged)


POINTWISE = pytest.mark.parametrize("f,a,b,tol,max_depth,splits", [
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, 1e-12, 60, ()),
    (np.exp, -1.0, 2.0, 1e-12, 60, ()),
    (np.exp, -1.0, 2.0, 1e-12, 60, (0.0, 1.0)),
    (lambda x: 1e-5 / (1e-10 + (x - 0.3) ** 2), 0.0, 1.0, 1e-10, 60, ()),
    (lambda x: 1e-5 / (1e-10 + (x - 0.3) ** 2), 0.0, 1.0, 1e-10, 60, (0.25, 0.5)),
    (lambda x: 1e-7 / (1e-14 + (x - 0.5) ** 2), 0.0, 1.0, 1e-13, 3, ()),
    (lambda x: 1e-7 / (1e-14 + (x - 0.5) ** 2), 0.0, 1.0, 1e-13, 60, ()),
], ids=["arctan", "exp", "exp-split", "peak", "peak-split", "exhausted", "deep"])


@POINTWISE
def test_rounds_equal_the_sequential_oracle(monkeypatch, f, a, b, tol, max_depth, splits):
    # the rounds end on the partition the one-bisection loop ends on, so every
    # panel sum and the whole result agree bit for bit, unconverged one included
    monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
    assert adaptive_quadrature(f, a, b, tol, splits=splits) == _resum_each_step(f, a, b, tol, splits)


@POINTWISE
def test_grouped_calls_equal_one_call_per_panel(monkeypatch, f, a, b, tol, max_depth, splits):
    # a pointwise integrand gives the same bits whether a call holds one panel or several
    monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)

    def per_panel(x):
        return np.concatenate([f(x[i:i + 15]) for i in range(0, len(x), 15)])

    grouped = adaptive_quadrature(f, a, b, tol, splits=splits)
    assert grouped == adaptive_quadrature(per_panel, a, b, tol, splits=splits)


@POINTWISE
def test_round_call_contract(monkeypatch, f, a, b, tol, max_depth, splits):
    # one call for the first panels, then one per round holding both halves of
    # each panel it bisects, in order of position; never more calls than the
    # one-bisection loop makes
    monkeypatch.setattr(quadrature, "MAX_DEPTH", max_depth)
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return f(x)

    res = adaptive_quadrature(counted, a, b, tol, splits=splits)
    assert len(calls[0]) == 15 * (len(splits) + 1)
    for x in calls[1:]:
        assert len(x) > 0 and len(x) % 30 == 0
        nodes = x.reshape(-1, 2, 15)
        center, half = nodes[:, :, 7], (nodes[:, :, 14] - nodes[:, :, 7]) / _XGK[14]
        # the two panels of a pair are the halves of one panel, up to the
        # rounding of the nodes, and the pairs increase
        slack = 1e-9 * half[:, 0] + 4 * np.spacing(np.abs(center[:, 0]))
        assert np.all(np.abs(half[:, 0] - half[:, 1]) <= slack)
        assert np.all(np.abs(center[:, 0] + half[:, 0] - (center[:, 1] - half[:, 1])) <= slack)
        assert np.all(np.diff(center.ravel()) > 0)
    assert res.evaluations == sum(len(x) for x in calls)
    oracle_calls = []
    _resum_each_step(lambda x: oracle_calls.append(len(x)) or f(x), a, b, tol, splits)
    assert len(calls) <= len(oracle_calls)


def _leg_rounding_bound(value, abs_err):
    """How far a leg's ``abs_err`` may move when its integrand values move by rounding.

    A call that groups other points changes the kernel's BLAS summation
    order, which moves a value of the positive integrand by up to m = 4 ulp
    (relative m * eps).  A panel's Kronrod sum K and Gauss sum G are sums of
    positive terms, so each moves by at most m * eps of itself, and
    |K - G| by at most m * eps * (K + G) <= m * eps * (2 K + |K - G|).
    Summed over the panels: 2 m eps (value + abs_err).
    """
    return 8 * float(np.finfo(float).eps) * (value + abs_err)


def test_rounds_match_the_oracle_on_root_counts(monkeypatch):
    # every leg of the expect_large_n benchmark ops, of Kac up to n = 10^12
    # and of the large-gamma counts that bisection in x never settled
    import randroot.kacrice as kr
    from randroot.families import alpha_beta_family, elliptic, gamma_family, kac

    legs = []

    def both(f, a, b, tol=1e-9, splits=()):
        got = adaptive_quadrature(f, a, b, tol, splits=splits)
        want = _resum_each_step(f, a, b, tol, splits)
        assert (got.value, got.evaluations, got.converged) == (want.value, want.evaluations, want.converged)
        assert abs(got.abs_error_estimate - want.abs_error_estimate) <= _leg_rounding_bound(
            want.value, want.abs_error_estimate)
        legs.append(got.evaluations)
        return got

    monkeypatch.setattr(kr, "adaptive_quadrature", both)
    for family, n in [(gamma_family(1.0), 4000), (alpha_beta_family(0.5, 2.0), 2000),
                      (elliptic(), 3000), (kac(), 10**6), (kac(), 10**9), (kac(), 10**12),
                      (gamma_family(20.0), 100), (gamma_family(5.0), 20_000)]:
        assert kr.expected_roots_real_line_result(family, n).converged
    # one leg per count, the alpha/beta one across s = 0; x-legs took 103995
    # evaluations for Kac at n = 10^12, and never converged at gamma = 20 or 5
    assert len(legs) == 8 and max(legs[3:6]) <= 2000 and max(legs) < 5000


def _lorentzians(rng):
    """A sum of 1 to 4 narrow Lorentzians on [0, 1], with a tolerance and splits."""
    k = int(rng.integers(1, 5))
    at, width = rng.uniform(0.0, 1.0, k), 10.0 ** rng.uniform(-4.0, -1.5, k)
    weight = rng.uniform(0.1, 1.0, k)

    def f(x):
        return sum(w * h / (h * h + (x - c) ** 2) for c, h, w in zip(at, width, weight))

    splits = tuple(np.sort(rng.uniform(0.05, 0.95, int(rng.integers(0, 3)))).tolist())
    return f, 10.0 ** rng.uniform(-11.0, -6.0), splits


def test_rounds_never_take_more_evaluations_than_the_oracle(monkeypatch):
    # every fourth sum gets a MAX_DEPTH of 2 to 11, so some panels are kept
    # as they stand and some runs end unconverged
    rng = np.random.default_rng(20201028)
    equal = 0
    for i in range(200):
        f, tol, splits = _lorentzians(rng)
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 60 if i % 4 else int(rng.integers(2, 12)))
        got = adaptive_quadrature(f, 0.0, 1.0, tol, splits=splits)
        want = _resum_each_step(f, 0.0, 1.0, tol, splits)
        assert got.evaluations <= want.evaluations
        if got.evaluations == want.evaluations:
            assert got == want
            equal += 1
    assert equal >= 150  # the equality branch is exercised
