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
    monkeypatch.setattr(montecarlo.np, "roots", lambda c: np.array([1j, -1j, 2.0 + 1j]))
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
