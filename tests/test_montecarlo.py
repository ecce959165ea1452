import math
from fractions import Fraction

import numpy as np
import pytest

from randroot import montecarlo
from randroot.errors import NumericError, ParameterDomainError
from randroot.families import alpha_beta_family, elliptic, gamma_family, kac, legendre
from randroot.kacrice import expected_roots_real_line, kac_density, kac_triple, kernel
from randroot.montecarlo import (
    LEADING_COEFF_FLOOR,
    SampledPolynomial,
    _draw_coefficients,
    _trial_rng,
    count_positive_roots,
    count_real_roots,
    jensen_root_bound,
    mc_expected_roots,
    sample_polynomial,
)


class InjectedDraws:
    """Stand-in generator that returns fixed xi values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, size):
        assert size == len(self.values)
        return self.values.copy()


def poly(*ascending_coeffs):
    return SampledPolynomial.from_coefficients(ascending_coeffs)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_kac_is_rescaled_raw_draws():
    draws = np.array([0.4, -1.6, 0.8])
    p = sample_polynomial(kac(), 2, InjectedDraws(draws))
    assert np.allclose(p.coeffs, draws / 1.6)
    assert np.abs(p.coeffs).max() == 1.0


def test_sample_applies_binomial_weights():
    p = sample_polynomial(gamma_family(1.0), 2, InjectedDraws([1.0, 1.0, 1.0]))
    assert np.allclose(p.coeffs, [0.5, 1.0, 0.5])  # proportional to (1, 2, 1)
    p = sample_polynomial(legendre(), 2, InjectedDraws([1.0, -1.0, 1.0]))
    assert np.allclose(p.coeffs, [0.5, -1.0, 0.5])  # proportional to (1, -2, 1)


def test_sample_survives_extreme_weights():
    # gamma=2 at n=200 spans ~240 decades before rescaling
    rng = np.random.Generator(np.random.Philox(key=5))
    p = sample_polynomial(gamma_family(2.0), 200, rng)
    assert np.isfinite(p.coeffs).all()
    assert np.abs(p.coeffs).max() == 1.0
    assert abs(p.coeffs[-1]) > 0


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_count_known_factorizations():
    assert count_real_roots(poly(-1.0, 0.0, 1.0)) == 2            # x^2 - 1
    assert count_real_roots(poly(-2.0, 1.0, -2.0, 1.0)) == 1      # (x^2+1)(x-2)
    assert count_real_roots(poly(0.3, 1.0)) == 1                  # any linear
    assert count_positive_roots(poly(3.0, -4.0, 1.0)) == 2        # (x-1)(x-3)
    assert count_positive_roots(poly(-3.0, -2.0, 1.0)) == 1       # (x+1)(x-3)


def test_count_scale_invariance():
    base = np.array([-2.0, 1.0, -2.0, 1.0])
    for c in (1e-5, 1.0, 1e5):
        assert count_real_roots(SampledPolynomial.from_coefficients(c * base)) == 1


def test_count_parity_and_range_over_samples():
    for family, n in ((gamma_family(1.0), 11), (alpha_beta_family(0.5, 2.0), 16)):
        for trial in range(200):
            rng = np.random.Generator(np.random.Philox(counter=[0, 0, 0, trial], key=9))
            p = sample_polynomial(family, n, rng)
            k = count_real_roots(p)
            assert 0 <= k <= n
            assert k % 2 == n % 2


def _sturm_sign_changes(chain, at) -> int:
    """Sign changes of a Sturm chain at x = -inf, 0 or +inf."""
    if at == 0:
        signs = [q[0] for q in chain if q[0] != 0]
    else:
        signs = [q[-1] * (at if (len(q) - 1) % 2 else 1) for q in chain]
    return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))


def _sturm_counts(coeffs) -> tuple[int, int]:
    """(real, positive) root counts by Sturm's theorem on the exact dyadic coefficients."""
    chain = [[Fraction(float(c)) for c in coeffs]]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        rem, div = list(chain[-2]), chain[-1]
        while len(rem) >= len(div):
            q, shift = rem[-1] / div[-1], len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] -= q * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        assert rem, "repeated root: Sturm counts distinct roots only"
        chain.append([-c for c in rem])
    at_inf = _sturm_sign_changes(chain, 1)
    return _sturm_sign_changes(chain, -1) - at_inf, _sturm_sign_changes(chain, 0) - at_inf


STURM_FAMILIES = [kac(), elliptic(), gamma_family(1.0), gamma_family(2.0),
                  alpha_beta_family(0.5, 2.0), alpha_beta_family(-0.9, -0.9)]


@pytest.mark.parametrize("family", STURM_FAMILIES, ids=lambda f: f.label())
def test_counts_match_exact_sturm_oracle(family):
    # exact counts of the sampled (dyadic) polynomials; a mismatch is a
    # classification defect, not a reason to move REAL_AXIS_TOL
    for n in (1, 2, 3, 5, 8, 12):
        for trial in range(10):
            p = sample_polynomial(family, n, _trial_rng(2024, trial))
            assert (count_real_roots(p), count_positive_roots(p)) == _sturm_counts(p.coeffs), (n, trial)


def test_sturm_oracle_hand_cases():
    assert _sturm_counts([-1.0, 0.0, 1.0]) == (2, 1)          # x^2 - 1
    assert _sturm_counts([-2.0, 1.0, -2.0, 1.0]) == (1, 1)    # (x^2+1)(x-2)
    assert _sturm_counts([-3.0, -2.0, 1.0]) == (2, 1)         # (x+1)(x-3)
    assert _sturm_counts([6.0, 11.0, 6.0, 1.0]) == (3, 0)     # (x+1)(x+2)(x+3)
    assert _sturm_counts([1.0, 0.0, 1.0]) == (0, 0)           # x^2 + 1


def test_positive_roots_split_evenly_for_linear():
    summary_like = []
    for trial in range(10_000):
        rng = np.random.Generator(np.random.Philox(counter=[0, 0, 0, trial], key=31))
        p = sample_polynomial(gamma_family(1.0), 1, rng)
        summary_like.append(count_positive_roots(p))
    mean = float(np.mean(summary_like))
    se = float(np.std(summary_like, ddof=1) / math.sqrt(len(summary_like)))
    assert abs(mean - 0.5) <= 3 * se


# ---------------------------------------------------------------------------
# aggregated runs
# ---------------------------------------------------------------------------

def test_mc_degree_one_is_exact():
    s = mc_expected_roots(elliptic(), 1, 100, seed=7)
    assert s.mean == 1.0 and s.std_error == 0.0
    assert s.histogram == {1: 100}


def test_mc_summary_invariants_and_determinism():
    s1 = mc_expected_roots(gamma_family(1.0), 10, 400, seed=123)
    s2 = mc_expected_roots(gamma_family(1.0), 10, 400, seed=123)
    assert s1 == s2
    assert sum(s1.histogram.values()) == s1.trials
    assert all(0 <= k <= 10 and k % 2 == 0 for k in s1.histogram)
    different = mc_expected_roots(gamma_family(1.0), 10, 400, seed=124)
    assert different != s1


def test_mc_agrees_with_quadrature():
    exact = expected_roots_real_line(elliptic(), 16)
    s = mc_expected_roots(elliptic(), 16, 4000, seed=777)
    assert abs(s.mean - exact) <= 3 * s.std_error
    assert s.parity_repairs == 0


def test_mc_parity_repair_rate_moderate_degree():
    s = mc_expected_roots(gamma_family(1.0), 100, 400, seed=5150)
    assert s.parity_repairs == 0
    assert all(k % 2 == 0 for k in s.histogram)


def test_mc_validation():
    with pytest.raises(ParameterDomainError):
        mc_expected_roots(kac(), 4, 0, seed=1)


@pytest.mark.parametrize("call", [
    lambda n: kernel(kac(), n),
    lambda n: expected_roots_real_line(kac(), n),
    lambda n: kac_density(n, 0.5),
    lambda n: kac_triple(n, 0.5),
    lambda n: sample_polynomial(gamma_family(1.0), n, np.random.default_rng(0)),
    lambda n: mc_expected_roots(gamma_family(1.0), n, 5, 1),
], ids=["kernel-kac", "expect-kac", "kac_density", "kac_triple", "sample_polynomial",
        "mc_expected_roots"])
@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_degree_is_checked(call, n):
    with pytest.raises(ParameterDomainError, match="degree"):
        call(n)


@pytest.mark.parametrize("trials", [0, -2, 2.5, float("nan"), "3", None, np.float64(3.0)])
def test_trials_are_checked(trials):
    with pytest.raises(ParameterDomainError, match="trials must be an integer >= 1"):
        mc_expected_roots(gamma_family(1.0), 5, trials, 1)


def test_numpy_integer_trials_are_accepted():
    assert mc_expected_roots(kac(), 5, np.int64(3), 1) == mc_expected_roots(kac(), 5, 3, 1)


# ---------------------------------------------------------------------------
# failures are loud: each raises, nothing is redrawn or repaired
# ---------------------------------------------------------------------------

def test_unpaired_complex_root_raises(monkeypatch):
    # degree 3 with no real root: a complex root without its conjugate
    monkeypatch.setattr(montecarlo, "_companion_roots",
                        lambda c: np.tile([1j, -1j, 2.0 + 1j], (len(c), 1)))
    with pytest.raises(NumericError, match="not paired"):
        count_real_roots(poly(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(NumericError, match="trial 0: 0 real roots at degree 3"):
        mc_expected_roots(kac(), 3, 5, seed=1)


def test_leading_coefficient_below_floor_raises_not_redraws():
    # at gamma=1, n=1000 the leading weight a_n = 1 is 1/C(1000, 500) ~ 4e-300
    # of the largest, so about half the draws fall below the floor; take a
    # seed whose trial 0 does, so the run stops before any eigen-solve
    log_weight = 0.5 * montecarlo._log_sq_array(gamma_family(1.0), 1000)
    seed = next(s for s in range(100)
                if abs(_draw_coefficients(log_weight, _trial_rng(s, 0))[-1]) < LEADING_COEFF_FLOOR)
    with pytest.raises(NumericError, match="trial 0: leading coefficient"):
        mc_expected_roots(gamma_family(1.0), 1000, 3, seed)


def _chunk(n: int) -> int:
    return max(1, montecarlo._CHUNK_ENTRIES // (n * n))


def _plant(monkeypatch, family, n, seed, floor=(), unpaired=(), failed=()):
    """Make the given trials of (family, n, seed) fail: a zero leading coefficient,
    n - 1 real roots from the stacked solve, or an eigen-solve that raises."""
    log_weight = 0.5 * montecarlo._log_sq_array(family, n)
    rows = {t: _draw_coefficients(log_weight, _trial_rng(seed, t)) for t in (*floor, *unpaired, *failed)}
    rescaled, solve, eigvals = montecarlo._rescaled, montecarlo._companion_roots, np.linalg.eigvals

    def matching(coeffs, trials):
        return [i for i, c in enumerate(coeffs) if any(np.array_equal(c, rows[t]) for t in trials)]

    def planted_rescaled(xi, lw):
        coeffs = rescaled(xi, lw)
        coeffs[matching(coeffs, floor), -1] = 0.0
        return coeffs

    def planted_solve(coeffs):
        roots = solve(coeffs)
        roots[matching(coeffs, unpaired)] = [0.0] * (n - 1) + [1j]
        return roots

    companions = [np.diag(np.ones(n - 1), -1) for _ in failed]
    for companion, t in zip(companions, failed):
        companion[0] = -rows[t][-2::-1] / rows[t][-1]

    def planted_eigvals(a):
        if any(np.array_equal(m, c) for m in a for c in companions):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(montecarlo, "_rescaled", planted_rescaled)
    monkeypatch.setattr(montecarlo, "_companion_roots", planted_solve)
    monkeypatch.setattr(montecarlo.np.linalg, "eigvals", planted_eigvals)


def _reference_summary(family, n, trials, seed):
    """The summary from a fresh _trial_rng and one numpy.roots call per trial."""
    log_weight = 0.5 * montecarlo._log_sq_array(family, n)
    counts = []
    for trial in range(trials):
        coeffs = _draw_coefficients(log_weight, _trial_rng(seed, trial))
        roots = np.roots(coeffs[::-1])
        counts.append(int((np.abs(roots.imag) / np.maximum(1.0, np.abs(roots))
                           <= montecarlo.REAL_AXIS_TOL).sum()))
    counts = np.array(counts)
    values, freqs = np.unique(counts, return_counts=True)
    return montecarlo.McSummary(trials, float(counts.mean()),
                                float(counts.std(ddof=1) / math.sqrt(trials)),
                                {int(v): int(c) for v, c in zip(values, freqs)}, 0, seed)


@pytest.mark.parametrize("family", [gamma_family(1.0), alpha_beta_family(0.5, 2.0), kac()],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 2, 20, 100])
def test_mc_matches_one_numpy_roots_call_per_trial(monkeypatch, family, n):
    # at n <= 2 a chunk would hold thousands of trials, so take smaller chunks there
    if n <= 2:
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 64)
    trials = 3 * _chunk(n) + _chunk(n) // 2 + 1  # past three chunks, ending mid-chunk
    seed = 4000 + n
    assert mc_expected_roots(family, n, trials, seed) == _reference_summary(family, n, trials, seed)


def test_first_failing_trial_is_named_in_a_later_chunk(monkeypatch):
    family, n, seed = gamma_family(1.0), 20, 77
    late = 2 * _chunk(n) + 5  # in the third chunk
    trials = 3 * _chunk(n)
    with monkeypatch.context() as m:
        _plant(m, family, n, seed, floor=[late, late + 3])
        with pytest.raises(NumericError, match=f"^trial {late}: leading coefficient below trim threshold$"):
            mc_expected_roots(family, n, trials, seed)
    with monkeypatch.context() as m:
        _plant(m, family, n, seed, unpaired=[late, late + 3])
        with pytest.raises(NumericError, match=f"^trial {late}: 19 real roots at degree 20: complex roots not paired$"):
            mc_expected_roots(family, n, trials, seed)
    with monkeypatch.context() as m:
        _plant(m, family, n, seed, failed=[late, late + 3])
        with pytest.raises(NumericError, match=f"^trial {late}: companion eigen-solve failed: Eigenvalues did not"):
            mc_expected_roots(family, n, trials, seed)


@pytest.mark.parametrize("plants, message", [
    ({"unpaired": [105], "floor": [110]}, "19 real roots at degree 20"),
    ({"floor": [105], "unpaired": [110]}, "leading coefficient below trim threshold"),
    ({"unpaired": [105], "failed": [110]}, "19 real roots at degree 20"),
    ({"failed": [105], "unpaired": [110]}, "companion eigen-solve failed"),
    ({"failed": [105], "floor": [110]}, "companion eigen-solve failed"),
    ({"floor": [105], "failed": [110]}, "leading coefficient below trim threshold"),
], ids=["unpaired-before-floor", "floor-before-unpaired", "unpaired-before-failed",
        "failed-before-unpaired", "failed-before-floor", "floor-before-failed"])
def test_earlier_failure_wins_within_a_chunk(monkeypatch, plants, message):
    assert _chunk(20) > 110  # both trials in the first chunk
    _plant(monkeypatch, gamma_family(1.0), 20, 78, **plants)
    with pytest.raises(NumericError, match=f"^trial 105: {message}"):
        mc_expected_roots(gamma_family(1.0), 20, 200, 78)


def test_zero_low_order_coefficients_give_exact_zero_roots():
    # x^2 (x^2 - 1) and x^2 (x^2 + 1): c_0 = c_1 = 0 give two exact zero roots
    assert count_real_roots(poly(0.0, 0.0, -1.0, 0.0, 1.0)) == 4
    assert count_positive_roots(poly(0.0, 0.0, -1.0, 0.0, 1.0)) == 1
    assert count_real_roots(poly(0.0, 0.0, 1.0, 0.0, 1.0)) == 2
    assert count_real_roots(poly(0.0, 0.0, 0.0, 0.0, 1.0)) == 4
    # one stack mixing k = 0, 1, 2, 5 and 7 zero low-order coefficients, row by row as numpy.roots
    rng = np.random.Generator(np.random.Philox(key=3))
    stack = rng.standard_normal((10, 8))
    for row, k in enumerate((0, 1, 2, 0, 5, 2, 7, 1, 0, 2)):
        stack[row, :k] = 0.0
    roots = montecarlo._classified_roots(stack)[0]
    for row, c in enumerate(stack):
        expected = np.roots(c[::-1])
        assert np.array_equal(roots[row], expected.astype(complex)), row


# ---------------------------------------------------------------------------
# Jensen ball bound
# ---------------------------------------------------------------------------

def test_jensen_hand_cases():
    # p(z) = z - 2: M_1 = 3, M_3 = 5, denominator log(10/6)
    bound = jensen_root_bound(poly(-2.0, 1.0), 1.0, 3.0)
    assert bound == pytest.approx(math.log(5.0 / 3.0) / math.log(10.0 / 6.0), rel=1e-12)
    assert bound >= 0  # no roots inside |z| <= 1
    # p(z) = z: M_t = t, bound = log(4)/log(4.25/2) ~ 1.839 >= 1 actual root
    bound = jensen_root_bound(poly(0.0, 1.0), 0.5, 2.0)
    assert bound == pytest.approx(math.log(4.0) / math.log(4.25 / 2.0), rel=1e-12)
    assert bound >= 1.0


def test_jensen_domain():
    with pytest.raises(ParameterDomainError):
        jensen_root_bound(poly(0.0, 1.0), 2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        jensen_root_bound(poly(0.0, 1.0), 1.0, 1.0)


def test_jensen_never_violated_on_sampled_corpus():
    n = 30
    r, big_r = n ** (-0.75), n ** (-2.0 / 3.0)
    for trial in range(200):
        rng = np.random.Generator(np.random.Philox(counter=[0, 0, 0, trial], key=42))
        p = sample_polynomial(gamma_family(1.0), n, rng)
        observed = int((np.abs(np.roots(p.coeffs[::-1])) <= r).sum())
        assert jensen_root_bound(p, r, big_r) >= observed
