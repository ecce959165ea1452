import math

import mpmath as mp
import numpy as np
import pytest

from randroot.asymptotic import (
    alpha_beta_ratio_check,
    concentration_params,
    entropy_terms,
    leading_order,
    log_gram_approx,
    log_variance_approx,
    scaling_fit,
)
from randroot.errors import ParameterDomainError
from randroot.families import (
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
)
from randroot.kacrice import kac_rice_eval, _log_m_s1_s2


def exact_log_variance(gamma, n, x):
    """Log-sum-exp over the full coefficient table (no convolution needed)."""
    table = coefficient_table(gamma_family(gamma), n)
    log_m, _, _ = _log_m_s1_s2(table, x)
    return log_m


# ---------------------------------------------------------------------------
# entropy / saddle point
# ---------------------------------------------------------------------------

def test_entropy_terms_symmetric_point():
    terms = entropy_terms(0.5, 1.0, 1.0)
    assert terms.entropy == pytest.approx(math.log(2.0), rel=1e-15)
    assert terms.action == pytest.approx(math.log(2.0), rel=1e-15)
    assert terms.action_prime == 0.0
    assert terms.action_double_prime == -4.0


def test_entropy_terms_against_high_precision():
    mp.mp.dps = 40
    t, g, x = mp.mpf("0.25"), mp.mpf(2), mp.mpf("0.5")
    entropy = -t * mp.log(t) - (1 - t) * mp.log(1 - t)
    action = g * entropy + t * mp.log(x)
    got = entropy_terms(0.25, 2.0, 0.5)
    assert got.entropy == pytest.approx(float(entropy), rel=1e-15)
    assert got.action == pytest.approx(float(action), rel=1e-15)
    assert got.action_prime == pytest.approx(float(g * mp.log((1 - t) / t) + mp.log(x)), rel=1e-15)
    assert got.action_double_prime == pytest.approx(float(-g / (t * (1 - t))), rel=1e-15)


def test_action_prime_vanishes_at_saddle():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(25):
        gamma = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(0.05, 1.0))
        t = concentration_params(gamma, x, 100).t
        assert abs(entropy_terms(t, gamma, x).action_prime) < 1e-14


def test_entropy_terms_domain():
    for bad_t in (0.0, 1.0, -0.1):
        with pytest.raises(ParameterDomainError):
            entropy_terms(bad_t, 1.0, 0.5)
    with pytest.raises(ParameterDomainError):
        entropy_terms(0.5, 1.0, 0.0)


def test_concentration_params_pinned_values():
    p = concentration_params(1.0, 1.0, 100)
    assert p.t == 0.5 and p.i_star == 50
    p = concentration_params(1.0, 1.0 / 3.0, 100)
    assert p.t == pytest.approx(0.25, rel=1e-15)
    assert p.i_star == 25 or p.i_star == 24  # floor of 25*(1 - eps)
    p = concentration_params(0.5, 0.5, 40)
    assert p.t == pytest.approx(0.2, rel=1e-15)
    assert p.i_star == 8 or p.i_star == 7
    assert 0 < p.t <= 0.5
    with pytest.raises(ParameterDomainError):
        concentration_params(0.0, 0.5, 10)
    with pytest.raises(ParameterDomainError):
        concentration_params(1.0, 1.5, 10)


# ---------------------------------------------------------------------------
# Laplace approximants
# ---------------------------------------------------------------------------

def test_variance_approx_accuracy_and_trend():
    for x in (0.5, 1.0):
        errors = []
        for n in (10**3, 10**4, 10**5):
            approx = log_variance_approx(1.0, n, x)
            errors.append(abs(math.expm1(approx.log_value - exact_log_variance(1.0, n, x))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.05


def test_variance_approx_other_windows():
    # (0.5, 4000, 0.9) sits just outside the window yet stays accurate
    for gamma, n, x, inside in (
        (2.0, 10**4, 0.8, True),
        (0.5, 4000, 0.9, False),
        (1.0, 10**4, 1.0, True),
    ):
        approx = log_variance_approx(gamma, n, x)
        rel = abs(math.expm1(approx.log_value - exact_log_variance(gamma, n, x)))
        assert rel < 0.05
        assert approx.in_validity_window == inside


def test_validity_window_flag():
    # (ln 1000)^4 / 1000 > 1: no x in (0, 1] is inside the window at n = 1000
    assert not log_variance_approx(1.0, 1000, 0.5).in_validity_window
    assert log_variance_approx(1.0, 10**5, 0.5).in_validity_window
    assert not log_variance_approx(1.0, 10**4, 0.5).in_validity_window


def test_gram_approx_squared_prefactor_matches_exact():
    n = 4000
    for gamma, x in ((1.0, 0.5), (1.0, 1.0), (0.5, 0.9)):
        table = coefficient_table(gamma_family(gamma), n)
        exact = kac_rice_eval(table, x).log_amb
        approx = log_gram_approx(gamma, n, x)
        assert abs(math.expm1(approx.log_value_squared_prefactor - exact)) < 0.10
        # the single-prefactor form misses by exp(2*gamma*log C(n, i*)); huge
        assert exact - approx.log_value > 100.0


def test_gram_approx_internal_consistency():
    approx = log_gram_approx(1.0, 500, 0.7)
    i_star = concentration_params(1.0, 0.7, 500).i_star
    log_binom = math.lgamma(501) - math.lgamma(i_star + 1) - math.lgamma(500 - i_star + 1)
    assert approx.log_value_squared_prefactor - approx.log_value == pytest.approx(
        2.0 * log_binom, rel=1e-12
    )


# ---------------------------------------------------------------------------
# leading order and scaling fits
# ---------------------------------------------------------------------------

def test_leading_order_values():
    assert leading_order(gamma_family(1.0), 50) == pytest.approx(10.0, rel=1e-15)
    assert leading_order(alpha_beta_family(3.0, 0.2), 50) == pytest.approx(10.0, rel=1e-15)
    assert leading_order(kac(), math.exp(math.pi)) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ParameterDomainError):
        leading_order(kac(), 1)


def test_leading_order_square_recovers_argument():
    for gamma, n in ((1.0, 50), (2.0, 18), (0.5, 49), (1.0, 1000)):
        value = leading_order(gamma_family(gamma), n)
        target = 2.0 * gamma * n
        # sqrt is correctly rounded, so squaring lands within one ulp
        assert abs(value * value - target) <= np.spacing(target)
    assert leading_order(gamma_family(1.0), 50) ** 2 == 100.0  # perfect square: exact


def test_scaling_fit_elliptic_slope_is_half():
    fit = scaling_fit(elliptic(), [16, 25, 100, 400], tol=1e-10)
    assert fit.slope == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared > 1 - 1e-12
    assert fit.max_rel_dev_from_leading < 1e-7  # leading order sqrt(n) is exact here


def test_scaling_fit_gamma_one():
    fit = scaling_fit(gamma_family(1.0), [50, 100, 200, 400], tol=1e-8)
    assert 0.48 <= fit.slope <= 0.52
    assert fit.en_values[0] < fit.en_values[-1]


def test_scaling_fit_kac_regresses_count_on_log_n():
    fit = scaling_fit(kac(), [10**3, 3 * 10**3, 10**4, 10**5], tol=1e-8)
    assert abs(fit.slope * math.pi / 2.0 - 1.0) < 0.02
    assert fit.r_squared > 1 - 1e-6


def test_scaling_fit_validation():
    with pytest.raises(ParameterDomainError):
        scaling_fit(elliptic(), [25, 100, 400])  # too few points
    with pytest.raises(ParameterDomainError):
        scaling_fit(elliptic(), [25, 100, 100, 400])  # not strictly increasing


# ---------------------------------------------------------------------------
# alpha/beta coefficient ratio diagnostic
# ---------------------------------------------------------------------------

def test_ratio_check_trivial_and_symmetric_midpoint():
    exact, approx = alpha_beta_ratio_check(0.0, 0.0, 64, 17)
    assert exact == pytest.approx(1.0, rel=1e-12)
    assert approx == pytest.approx(1.0, rel=1e-15)
    # midpoint of (1,1) at n=200: exact (201/101)^2, approximant exp(2 ln 2) = 4
    exact, approx = alpha_beta_ratio_check(1.0, 1.0, 200, 100)
    assert exact == pytest.approx((201.0 / 101.0) ** 2, rel=1e-10)
    assert approx == pytest.approx(4.0, rel=1e-14)
    assert abs(exact / approx - 1.0) < 0.10


def test_ratio_check_reports_both_values():
    exact, approx = alpha_beta_ratio_check(2.0, 0.0, 500, 250)
    assert exact > 0 and approx > 0
    assert math.isfinite(exact) and math.isfinite(approx)
    with pytest.raises(ParameterDomainError):
        alpha_beta_ratio_check(1.0, 0.0, 10, 0)
