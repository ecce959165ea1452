import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from randroot.errors import ParameterDomainError
from randroot.families import (
    alpha_beta_family,
    coefficient_table,
    elliptic,
    equilibrium_fraction,
    gamma_family,
    kac,
    legendre,
    log_sq_coeff,
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
    assert log_sq_coeff(gamma_family(1.0), 2, 1) == pytest.approx(math.log(4.0), rel=1e-15)
    assert log_sq_coeff(kac(), 7, 3) == 0.0
    assert log_sq_coeff(legendre(), 2, 1) == pytest.approx(math.log(4.0), rel=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
def test_log_sq_coeff_matches_high_precision_oracle(family):
    for n in (1, 2, 7, 23, 50):
        table = coefficient_table(family, n)
        for i in range(n + 1):
            want = exact_log_sq(family, n, i)
            got = float(table.log_sq_coeff[i])
            assert math.exp(got - want) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 3, 17, 64, 100])
def test_reversal_contract_bit_for_bit(family, n):
    table = coefficient_table(family, n)
    swapped = coefficient_table(reciprocal_class(family), n)
    assert np.array_equal(table.log_sq_coeff[::-1], swapped.log_sq_coeff)
    # reciprocal_table is the cheap equivalent of rebuilding
    mirrored = reciprocal_table(table)
    assert np.array_equal(mirrored.log_sq_coeff, swapped.log_sq_coeff)
    assert mirrored.family == swapped.family


def test_equilibrium_fraction():
    assert equilibrium_fraction(1.0) == 0.5
    assert equilibrium_fraction(3.0) == 0.75
    assert equilibrium_fraction(0.25) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(ParameterDomainError):
        equilibrium_fraction(0.0)
    with pytest.raises(ParameterDomainError):
        equilibrium_fraction(-2.0)


def test_parameter_domain_validation():
    with pytest.raises(ParameterDomainError):
        gamma_family(-0.1)
    with pytest.raises(ParameterDomainError):
        alpha_beta_family(-1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        alpha_beta_family(0.0, -1.5)
    with pytest.raises(ParameterDomainError):
        coefficient_table(kac(), 0)
    with pytest.raises(ParameterDomainError):
        log_sq_coeff(kac(), 5, 6)


def test_tables_are_immutable():
    t = coefficient_table(elliptic(), 6)
    with pytest.raises(ValueError):
        t.log_sq_coeff[0] = 1.0
    with pytest.raises(ValueError):
        reciprocal_table(t).log_sq_coeff[1] = 1.0
