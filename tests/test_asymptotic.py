import math

import numpy as np
import pytest

from randroot.asymptotic import (
    concentration_params,
    leading_order,
    log_gram_approx,
    log_variance_approx,
    scaling_fit,
)
from randroot.errors import NumericError, ParameterDomainError
from randroot.families import (
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
)
from randroot.kacrice import kac_rice_eval


def exact_log_variance(gamma, n, x):
    """Log-sum-exp over the full coefficient table (no convolution needed)."""
    table = coefficient_table(gamma_family(gamma), n)
    return kac_rice_eval(table, x).log_m


# ---------------------------------------------------------------------------
# entropy / saddle point
# ---------------------------------------------------------------------------

def test_action_prime_vanishes_at_saddle():
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(25):
        gamma = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(0.05, 1.0))
        t = concentration_params(gamma, x, 100).t
        # J'(t) = gamma*ln((1 - t)/t) + ln x vanishes at the saddle
        assert abs(gamma * math.log((1.0 - t) / t) + math.log(x)) < 1e-14


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
    # n^gamma and (ln n)^(4 gamma) past the double range flag the point, not overflow
    for approx in (log_variance_approx(1000.0, 10, 0.5), log_gram_approx(1000.0, 10, 1.0)):
        assert math.isfinite(approx.log_value) and not approx.in_validity_window
    assert log_variance_approx(1000.0, 1, 0.5).in_validity_window  # (ln 1)^(4 gamma) = 0


@pytest.mark.parametrize("approx", [log_variance_approx, log_gram_approx])
def test_approximants_name_x_where_the_laplace_point_underflows(approx):
    # x^(1/gamma) = 0.5^(1e300) is 0 in a double: t and the width would be 0,
    # and their log a bare "math domain error"
    with pytest.raises(NumericError, match=r"x = 0\.5"):
        approx(1e-300, 10, 0.5)
    assert math.isfinite(approx(1e-300, 10, 1.0).log_value)  # 1^(1/gamma) = 1


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
    with pytest.raises(ParameterDomainError):
        scaling_fit(elliptic(), [1, 100, 200, 400])  # no leading order at n = 1


@pytest.mark.parametrize("n", [1, 2.5, 10, 50, 1000, 12345.6, 10**6, 10**7])
def test_laplace_binomial_term_against_40_digit_values(n):
    # both approximants against the same formula in 40 digits at the float
    # Laplace point: the binomial term log C(n, i*), the largest at large n,
    # is good to a few ulps of itself (libm's lgamma(n + 1) left it up to
    # about 2000 ulps of the sum off at n = 10^7)
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for gamma in (0.5, 1.0, 3.0):
        for x in (1.0, 0.5, 0.01):
            p = concentration_params(gamma, x, n)
            with mp.workdps(40):
                big = mp.mpf(n)
                binom = mp.loggamma(big + 1) - mp.loggamma(p.i_star + 1) - mp.loggamma(big - p.i_star + 1)
                lx, width = mp.log(mp.mpf(x)), mp.mpf(p.width)
                variance = [2 * gamma * binom, 2 * p.i_star * lx, mp.log(mp.pi) / 2, mp.log(width) / 2]
                shared = (4 * p.i_star - 2) * lx + mp.log(mp.pi / 2) + 2 * mp.log(width)
                gram = log_gram_approx(gamma, n, x)
                for got, terms in ((log_variance_approx(gamma, n, x).log_value, variance),
                                   (gram.log_value, [2 * gamma * binom, shared]),
                                   (gram.log_value_squared_prefactor, [4 * gamma * binom, shared])):
                    bound = 4 * eps * max(1, float(sum(abs(t) for t in terms)))
                    assert abs(got - float(sum(terms))) <= bound, (gamma, x, got, float(sum(terms)))
