import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from randroot.errors import ParameterDomainError
from randroot.families import (
    PolynomialClass,
    _log_sq,
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
    legendre,
    reciprocal_class,
    reciprocal_table,
)
from randroot.kacrice import kac_rice_eval

ALL_FAMILIES = [
    kac(),
    elliptic(),
    gamma_family(1.0),
    gamma_family(2.3),
    legendre(),
    alpha_beta_family(1.0, 0.0),
    alpha_beta_family(0.5, 2.0),
    alpha_beta_family(-0.5, -0.5),
]


def exact_log_sq(family, n, i):
    """Independent oracle: exact rationals for integer parameters, 50-digit
    gamma-function arithmetic otherwise."""
    if family.kind.value == "gamma":
        g = family.gamma
        c = Fraction(math.comb(n, i))
        if g == int(g):
            return float(mp.log(mp.mpf(c.numerator) ** int(2 * g)))
        mp.mp.dps = 50
        return float(2 * g * mp.log(mp.mpf(c.numerator)))
    mp.mp.dps = 50
    a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
    left = mp.gamma(n + a + 1) / (mp.gamma(n - i + 1) * mp.gamma(a + i + 1))
    right = mp.gamma(n + b + 1) / (mp.gamma(i + 1) * mp.gamma(n + b - i + 1))
    return float(mp.log(left * right))


def test_log_sq_coeff_pinned_values():
    log4 = pytest.approx(math.log(4.0), rel=1e-15)
    assert coefficient_table(gamma_family(1.0), 2).log_sq_coeff[1] == log4
    assert coefficient_table(kac(), 7).log_sq_coeff[3] == 0.0
    assert coefficient_table(legendre(), 2).log_sq_coeff[1] == log4


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
def test_log_sq_coeff_matches_high_precision_oracle(family):
    for n in (1, 2, 7, 23, 50):
        table = coefficient_table(family, n)
        for i in range(n + 1):
            want = exact_log_sq(family, n, i)
            got = float(table.log_sq_coeff[i])
            assert math.exp(got - want) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES + [alpha_beta_family(-0.999, 0.3)],
                         ids=lambda f: f.label())
def test_log_ratio_matches_the_exact_ratio(family):
    # r_i = log(a_(i+1)^2 / a_i^2) from the rational form of the ratio, against
    # 50-digit arithmetic; the table keeps them to a few units of 1e-16 at any n
    with mp.workdps(50):
        for n in (1, 2, 7, 50, 4000):
            got = coefficient_table(family, n).log_ratio
            assert got.shape == (n,)
            for i in sorted({0, 1, n // 3, n // 2, n - 2, n - 1} & set(range(n))):
                if family.kind.value == "gamma":
                    want = 2 * mp.mpf(family.gamma) * mp.log(mp.mpf(n - i) / (i + 1))
                else:
                    a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
                    want = mp.log((n - i) * (n - i + b) / ((i + 1 + a) * (i + 1)))
                assert abs(got[i] - want) <= 4e-16 * max(1, abs(want))


def test_coefficient_table_pinned_values():
    t = coefficient_table(gamma_family(1.0), 1)
    assert np.allclose(t.log_sq_coeff, [0.0, 0.0])

    t = coefficient_table(gamma_family(1.0), 2)
    assert np.allclose(t.log_sq_coeff, [0.0, math.log(4.0), 0.0])

    t = coefficient_table(alpha_beta_family(0.0, 1.0), 1)
    assert np.allclose(np.exp(t.log_sq_coeff), [1.0, 2.0])


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
def test_convolution_invariants(family):
    # A*M - B^2 = sum_{m=1}^{2n-1} c_m x^(2m-2) with the convolution weights
    # c_m = 1/2 sum_{i+j=m} (i-j)^2 a_i^2 a_j^2 > 0, so its log is
    # log(c_1) = log(a_0^2 a_1^2) at x = 0, grows like
    # log(c_{2n-1}) + (4n-4) log x, and a palindromic c makes it x^(4n-4)-reciprocal
    for n in (1, 2, 5, 12):
        t = coefficient_table(family, n)
        la = t.log_sq_coeff
        assert kac_rice_eval(t, 0.0).log_amb == pytest.approx(la[0] + la[1], abs=1e-13)
        big = 1e100
        far = kac_rice_eval(t, big).log_amb - (4 * n - 4) * math.log(big)
        assert far == pytest.approx(la[n - 1] + la[n], abs=1e-9)
        for x in (0.3, 0.9, 2.0):
            amb = kac_rice_eval(t, x).log_amb
            assert math.isfinite(amb)
            if family.is_symmetric:
                mirrored = kac_rice_eval(t, 1.0 / x).log_amb + (4 * n - 4) * math.log(x)
                assert mirrored == pytest.approx(amb, abs=1e-12)


def test_convolution_oracle_small_case():
    # c_m = 1/2 sum_{i+j=m} (i-j)^2 a_i^2 a_j^2, expanded by hand for n=2, gamma=1
    # a^2 = (1, 4, 1): c_1 = a0 a1 = 4, c_2 = 1/2 * (4*1*1 + 4*1*1) = 4,
    # c_3 = a1 a2 = 4, so A*M - B^2 = 4 + 4x^2 + 4x^4
    t = coefficient_table(gamma_family(1.0), 2)
    for x in (0.0, 0.5, 1.0, 3.0):
        want = 4.0 + 4.0 * x**2 + 4.0 * x**4
        assert math.exp(kac_rice_eval(t, x).log_amb) == pytest.approx(want, rel=1e-14)


def test_reciprocal_class_pinned_values():
    assert reciprocal_class(gamma_family(2.0)) == gamma_family(2.0)
    assert reciprocal_class(alpha_beta_family(1.0, 0.0)) == alpha_beta_family(0.0, 1.0)
    assert reciprocal_class(alpha_beta_family(0.5, 0.5)) == alpha_beta_family(0.5, 0.5)


# non-dyadic alpha/beta: (n - i) + 1 and alpha + i + 1 round differently
NON_DYADIC = [alpha_beta_family(0.3, -0.9), alpha_beta_family(0.3, 0.3)]


@pytest.mark.parametrize("family", ALL_FAMILIES + NON_DYADIC, ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 3, 17, 64, 100])
def test_reversal_contract_bit_for_bit(family, n):
    table = coefficient_table(family, n)
    swapped = coefficient_table(reciprocal_class(family), n)
    assert np.array_equal(table.log_sq_coeff[::-1], swapped.log_sq_coeff)
    # reciprocal_table is the cheap equivalent of rebuilding
    mirrored = reciprocal_table(table)
    assert np.array_equal(mirrored.log_sq_coeff, swapped.log_sq_coeff)
    assert mirrored.family == swapped.family
    # the neighbour log-ratios reverse and change sign bit for bit as well
    assert np.array_equal(-table.log_ratio[::-1], swapped.log_ratio)
    assert np.array_equal(mirrored.log_ratio, swapped.log_ratio)


# the families and indices of the pointwise routine's accuracy matrix: weights
# near flat and steep, alpha near -1, large alpha = beta, and the indices where
# its forms meet (products up to 24 factors, Stirling's series from 24 on)
POINTWISE_FAMILIES = [gamma_family(g) for g in (1e-6, 0.5, 1.0, 5.0)] + [
    alpha_beta_family(a, b) for a, b in ((0.0, 0.0), (0.5, 2.0), (-0.999999, 3.0), (1000.0, 1000.0))]
POINTWISE_N = (1, 2, 23, 24, 50, 4000, 10**6)


def _indices(n):
    return sorted({0, 1, 23, 24, n // 2, n - 1, n} & set(range(n + 1)))


@pytest.mark.parametrize("family", POINTWISE_FAMILIES, ids=lambda f: f.label())
def test_log_sq_within_4_ulps_of_40_digit_mpmath(family):
    # each value to 4 ulps of max(1, |log a_i^2|), not of lgamma(n): the
    # table it replaced was 9.6e-13 relative off at alpha/beta (0.5, 2),
    # n = 4000, i = 0 (measured at most 1.5 ulps here)
    for n in POINTWISE_N:
        index = _indices(n)
        got = _log_sq(family, n, np.array(index))
        with mp.workdps(40):
            lg = mp.loggamma
            for i, value in zip(index, got.tolist()):
                if family.kind.value == "gamma":
                    want = 2 * mp.mpf(family.gamma) * (lg(n + 1) - lg(i + 1) - lg(n - i + 1))
                else:
                    a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
                    want = (lg(n + a + 1) - lg(n - i + 1) - lg(a + i + 1)
                            + lg(n + b + 1) - lg(i + 1) - lg(n + b - i + 1))
                ulps = abs(mp.mpf(value) - want) / np.spacing(max(1.0, abs(float(want))))
                assert ulps <= 4, (n, i, float(ulps))


@pytest.mark.parametrize("family", [gamma_family(g) for g in (0.5, 1.0, 5.0)] + [
    alpha_beta_family(a, b) for a, b in ((0.0, 0.0), (1.0, 0.0), (2.0, 3.0))], ids=lambda f: f.label())
def test_log_sq_within_4_ulps_of_exact_binomials(family):
    # every index at every degree up to 57 (gamma) and 25 (alpha/beta), where
    # a_i^2 is a product of integer binomials, against the log of the exact
    # integer at 40 digits (measured at most 2.15 ulps, at gamma = 5, n = 48,
    # i = 10)
    with mp.workdps(40):
        for n in range(1, 58 if family.kind.value == "gamma" else 26):
            got = _log_sq(family, n, np.arange(n + 1)).tolist()
            for i, value in enumerate(got):
                if family.kind.value == "gamma":
                    want = 2 * mp.mpf(family.gamma) * mp.log(math.comb(n, i))
                else:
                    a, b = int(family.alpha), int(family.beta)
                    want = mp.log(math.comb(n + a, n - i) * math.comb(n + b, i))
                ulps = abs(mp.mpf(value) - want) / np.spacing(max(1.0, abs(float(want))))
                assert ulps <= 4, (n, i, float(ulps))


@pytest.mark.parametrize("family", POINTWISE_FAMILIES + NON_DYADIC + [kac(), legendre()], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 2, 23, 24, 25, 48, 49, 56, 57, 4000])
def test_table_is_the_pointwise_reads(family, n):
    # every value depends on (family, n, i) alone: a table, reads at single
    # indices and reads in any order are one array, bit for bit; the
    # reversal contract and the exact zeros hold for the reads as well
    table = coefficient_table(family, n).log_sq_coeff
    index = np.array(sorted({0, 1, 2, 23, 24, 25, n // 2, n - 25, n - 2, n - 1, n} & set(range(n + 1))))
    assert np.array_equal(_log_sq(family, n, index), table[index])
    assert np.array_equal(_log_sq(family, n, index[::-1]), table[index[::-1]])
    assert all(_log_sq(family, n, np.array([i]))[0] == table[i] for i in index.tolist())
    swapped = _log_sq(reciprocal_class(family), n, n - index)
    assert np.array_equal(swapped, table[index])
    if family.kind.value == "gamma" or family.alpha == 0.0:
        assert _log_sq(family, n, np.array([0]))[0] == 0.0
    if family.kind.value == "gamma" or family.beta == 0.0:
        assert _log_sq(family, n, np.array([n]))[0] == 0.0


@pytest.mark.parametrize("alpha, beta", [(3.0, 0.5), (3.0, 3.0), (2.0, 7.0), (400.0, 0.3), (0.3, 0.3)])
@pytest.mark.parametrize("n", [2, 50, 5000])
def test_reversal_contract_with_integer_parameters(alpha, beta, n):
    # integer and equal parameters, up to the n at which most entries come
    # from Stirling's series
    family = alpha_beta_family(alpha, beta)
    table = coefficient_table(family, n)
    swapped = coefficient_table(reciprocal_class(family), n)
    assert np.array_equal(table.log_sq_coeff[::-1], swapped.log_sq_coeff)
    # each entry sums six log-gammas, the largest lgamma(n + max(alpha, beta) + 1)
    bound = 8 * np.spacing(max(4.0, math.lgamma(n + max(alpha, beta) + 1.0)))
    for i in sorted({0, 1, n // 2, n}):
        assert abs(table.log_sq_coeff[i] - exact_log_sq(family, n, i)) <= bound


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.3, 20.0])
@pytest.mark.parametrize("n", [1, 23, 24, 100, 10_000])
def test_gamma_family_end_coefficients_are_exactly_one(gamma, n):
    log_sq = coefficient_table(gamma_family(gamma), n).log_sq_coeff
    assert log_sq[0] == 0.0 and log_sq[n] == 0.0


def test_parameter_domain_validation():
    with pytest.raises(ParameterDomainError):
        gamma_family(-0.1)
    with pytest.raises(ParameterDomainError):
        alpha_beta_family(-1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        alpha_beta_family(0.0, -1.5)
    with pytest.raises(ParameterDomainError):
        coefficient_table(kac(), 0)


def test_unknown_family_kind_is_rejected():
    # the kind must be a FamilyKind: its string value alone is not one
    with pytest.raises(ParameterDomainError, match="unknown family kind 'gamma'"):
        PolynomialClass("gamma", gamma=1.0)


def test_tables_are_immutable():
    t = coefficient_table(elliptic(), 6)
    with pytest.raises(ValueError):
        t.log_sq_coeff[0] = 1.0
    with pytest.raises(ValueError):
        reciprocal_table(t).log_sq_coeff[1] = 1.0
    for ratios in (t.log_ratio, reciprocal_table(t).log_ratio):
        with pytest.raises(ValueError):
            ratios[0] = 1.0
