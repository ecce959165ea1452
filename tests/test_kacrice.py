import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from randroot.errors import ParameterDomainError, QuadratureError
from randroot.families import (
    FamilyKind,
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
    legendre,
)
from randroot.kacrice import (
    density,
    expected_internal_equilibria,
    expected_roots_interval,
    expected_roots_interval_result,
    expected_roots_real_line,
    expected_roots_real_line_result,
    kac_density,
    kac_expected_roots_interval,
    kac_rice_eval,
    kac_triple,
    kernel,
)
from randroot.quadrature import adaptive_quadrature

FAMILIES = [
    gamma_family(1.0),
    kac(),
    elliptic(),
    gamma_family(2.0),
    legendre(),
    alpha_beta_family(1.0, 0.0),
    alpha_beta_family(0.5, 2.0),
    alpha_beta_family(-0.5, -0.5),
]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def mp_triple(log_sq, x, dps=50):
    """High-precision direct sums for M, A, B from the squared coefficients."""
    mp.mp.dps = dps
    a_sq = [mp.e ** mp.mpf(float(v)) for v in log_sq]
    x = mp.mpf(x)
    n = len(a_sq) - 1
    m = sum(a_sq[i] * x ** (2 * i) for i in range(n + 1))
    a = sum(i * i * a_sq[i] * x ** (2 * i - 2) for i in range(1, n + 1))
    b = sum(i * a_sq[i] * x ** (2 * i - 1) for i in range(1, n + 1))
    return m, a, b


def mp_gram_double_sum(log_sq, x, dps=50):
    """Brute-force 1/2 sum_{i,j} (i-j)^2 a_i^2 a_j^2 x^(2(i+j-1))."""
    mp.mp.dps = dps
    a_sq = [mp.e ** mp.mpf(float(v)) for v in log_sq]
    x = mp.mpf(x)
    n = len(a_sq) - 1
    total = mp.mpf(0)
    for i in range(n + 1):
        for j in range(n + 1):
            total += (i - j) ** 2 * a_sq[i] * a_sq[j] * x ** (2 * (i + j - 1))
    return total / 2


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def test_degree_one_closed_form():
    # gamma=1, n=1: M = 1 + x^2, A*M - B^2 = 1, f = 1/(1 + x^2)
    table = coefficient_table(gamma_family(1.0), 1)
    for x in (0.0, 0.3, 1.0, 2.5):
        t = kac_rice_eval(table, x)
        assert t.log_m == pytest.approx(math.log1p(x * x), abs=1e-14)
        assert t.log_amb == pytest.approx(0.0, abs=1e-13)
        assert t.f == pytest.approx(1.0 / (1.0 + x * x), rel=1e-13)


def test_variance_at_one_is_central_binomial():
    # alpha=beta=0, n=2: M(1) = sum C(2,i)^2 = 6 = C(4,2)
    table = coefficient_table(legendre(), 2)
    assert kac_rice_eval(table, 1.0).log_m == pytest.approx(math.log(6.0), rel=1e-15)


def test_gram_log_frozen_value():
    # brute mpmath double sum for gamma=1, n=3, x=0.5 gives exactly 24.22265625
    table = coefficient_table(gamma_family(1.0), 3)
    assert kac_rice_eval(table, 0.5).log_amb == pytest.approx(
        3.1872884038703155, abs=1e-12
    )


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
def test_gram_identity_against_double_sum(family, x):
    for n in (1, 2, 4, 8, 15):
        table = coefficient_table(family, n)
        got = kac_rice_eval(table, x).log_amb
        want = float(mp.log(mp_gram_double_sum(table.log_sq_coeff, x)))
        assert math.exp(got - want) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES + [alpha_beta_family(2.0, 2.0)], ids=lambda f: f.label())
def test_triple_against_high_precision_sums(family):
    for n in (2, 6, 13):
        table = coefficient_table(family, n)
        for x in (0.2, 0.9, 1.0, 1.7):
            t = kac_rice_eval(table, x)
            m, a, b = mp_triple(table.log_sq_coeff, x)
            assert t.log_m == pytest.approx(float(mp.log(m)), rel=1e-13)
            assert t.s1 == pytest.approx(float(b / m), rel=1e-12)
            assert t.s2 == pytest.approx(float(a / m), rel=1e-12)
            assert t.f == pytest.approx(float(mp.sqrt(a * m - b * b) / m), rel=1e-10)


def test_density_pinned_values():
    table = coefficient_table(legendre(), 2)
    assert density(table, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)
    table = coefficient_table(alpha_beta_family(0.0, 1.0), 2)
    assert density(table, 0.0) == pytest.approx(math.sqrt(6.0), rel=1e-13)
    table = coefficient_table(alpha_beta_family(-0.5, -0.5), 1)
    assert density(table, 0.0) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
def test_at_zero_s1_vanishes_and_f_squared_is_s2(family):
    table = coefficient_table(family, 9)
    t = kac_rice_eval(table, 0.0)
    assert t.s1 == 0.0
    assert t.f**2 == pytest.approx(t.s2, rel=1e-13)
    assert t.f**2 == pytest.approx(math.exp(t.log_amb - 2 * t.log_m), rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
def test_density_even_and_nonnegative(family):
    table = coefficient_table(family, 7)
    xs = np.linspace(-3.0, 3.0, 31)
    f = density(table, xs)
    assert (f >= 0).all()
    assert np.array_equal(f, density(table, -xs))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_ultraspherical_density_shape(alpha):
    # nonincreasing on (0, inf), below sqrt(n)/(2x), pinched between f(1), f(0) on [0,1]
    family = alpha_beta_family(alpha, alpha)
    xs = np.linspace(0.02, 3.0, 120)
    for n in (2, 5, 12, 30):
        table = coefficient_table(family, n)
        f = density(table, xs)
        assert (np.diff(f) <= 1e-12 * f[:-1]).all()
        assert (f <= math.sqrt(n) / (2 * xs) * (1 + 1e-12)).all()
        inside = xs <= 1.0
        f0, f1 = density(table, 0.0), density(table, 1.0)
        assert (f[inside] <= f0 * (1 + 1e-12)).all()
        assert (f[inside] >= f1 * (1 - 1e-12)).all()


@lru_cache(maxsize=None)
def exact_log_sq(family, n, dps=50, indices=None):
    """log(a_i^2) at ``indices`` (default i = 0..n), from the family's formula in ``dps``-digit log-gamma.

    An oracle independent of the float table, whose log-gamma differences
    near n log n carry an absolute error that grows with n.
    """
    indices = range(n + 1) if indices is None else indices
    with mp.workdps(dps):
        lg = mp.loggamma
        if family.kind is FamilyKind.GAMMA:
            g = mp.mpf(family.gamma)
            return tuple(2 * g * (lg(n + 1) - lg(i + 1) - lg(n - i + 1)) for i in indices)
        a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
        return tuple(lg(n + a + 1) - lg(n - i + 1) - lg(a + i + 1)
                     + lg(n + b + 1) - lg(i + 1) - lg(b + n - i + 1) for i in indices)


# f at n = 50 from the convolution kernel this package used before the
# centred-variance one.  Near underflow its values carried the error of
# exp(0.5*log(A*M - B^2) - log M) with logs near 7e4, up to 3e-12 relative.
# Its tiny-x values were the limit taken from the float table (off by up to
# 1.5e-14 at gamma = 2), so x < 1 is judged against the exact limit alone.
EXTREME_X = (0.0, 5e-324, 1e-300, 1e-200, 1e-20, 1e100, 1e150)
EXTREME_F_BEFORE = {
    "gamma(0.5)": (7.071067811865501, 7.071067811865501, 7.071067811865501, 7.071067811865501,
                   7.071067811865501, 7.071067811848564e-200, 7.07106781189712e-300),
    "gamma(1)": (50.00000000000037, 50.00000000000037, 50.00000000000037, 50.00000000000037,
                 50.00000000000037, 4.999999999998364e-199, 5.000000000014509e-299),
    "gamma(2)": (2500.0000000000373, 2500.000000000035, 2500.000000000035, 2500.000000000035,
                 2500.000000000035, 2.5000000000004083e-197, 2.500000000017576e-297),
    "alpha_beta(0.5,2)": (41.63331998932282, 41.633319989322814, 41.633319989322814,
                          41.633319989322814, 41.633319989322814, 2.901149197585819e-199,
                          2.901149197605741e-299),
}


@pytest.mark.parametrize(
    "family",
    [gamma_family(0.5), gamma_family(1.0), gamma_family(2.0), alpha_beta_family(0.5, 2.0)],
    ids=lambda f: f.label(),
)
def test_density_at_extreme_x(family):
    # f(x) -> a_1/a_0 as x -> 0 and f(x) ~ (a_{n-1}/a_n) / x^2 as x -> inf; at
    # these points the neglected terms are below 1e-30 relative.  x = 0 itself
    # is the limit e^(r_0/2) read from the table's exact neighbour ratio.
    n = 50
    table = coefficient_table(family, n)
    la = table.log_sq_coeff
    exact = exact_log_sq(family, n)
    at_zero = float(mp.exp((exact[1] - exact[0]) / 2))
    at_inf = float(mp.exp((exact[n - 1] - exact[n]) / 2))
    got = density(table, np.array(EXTREME_X))
    assert got[0] == math.exp(0.5 * table.log_ratio[0]) == pytest.approx(at_zero, rel=2e-14)
    for x, f, before in zip(EXTREME_X[1:], got[1:], EXTREME_F_BEFORE[family.label()][1:]):
        limit = at_zero if x < 1.0 else at_inf / x / x
        assert f == pytest.approx(limit, rel=1e-14)
        if x > 1.0:
            assert f == pytest.approx(before, rel=1e-11)
        t = kac_rice_eval(table, x)
        assert t.f == pytest.approx(f, rel=1e-15)
        assert math.isfinite(t.log_amb) and math.isfinite(t.s2)
        if x < 1.0:
            assert t.s2 == pytest.approx(at_zero**2, rel=1e-14)
            assert t.s1 == pytest.approx(at_zero**2 * x, rel=1e-14)
            assert t.log_m == pytest.approx(la[0], abs=1e-14)
        else:
            assert t.s1 == pytest.approx(n / x, rel=1e-14)
            assert t.log_m == pytest.approx(la[n] + 2 * n * math.log(x), rel=1e-15)


@pytest.mark.parametrize("n", [4000, 10**6])
@pytest.mark.parametrize("family", [gamma_family(1.0), alpha_beta_family(0.5, 2.0)],
                         ids=lambda f: f.label())
def test_density_limits_at_large_n(family, n):
    # a_1/a_0 = n^gamma or sqrt(n(n+beta)/(1+alpha)), and a_(n-1)/a_n the
    # same with alpha and beta swapped.  x = 0 is e^(r_0/2), from the exact
    # ratio; the other points are edge rows of the window kernel (n is past
    # _WHOLE_TABLE_N), where the neglected terms are below 1e-30 relative.
    # r_0 ~ 2 ln n is rounded by up to ulp(r_0)/2 = 1.8e-15, so f by ~1e-15.
    xs = (0.0, 1e-300, 1e-200, 1e-160, 1e140, 1e150)
    with mp.workdps(30):
        if family.kind is FamilyKind.GAMMA:
            low = high = mp.mpf(n) ** family.gamma
        else:
            a, b = mp.mpf(family.alpha), mp.mpf(family.beta)
            low, high = mp.sqrt(n * (n + b) / (1 + a)), mp.sqrt(n * (n + a) / (1 + b))
        want = [float(low if x < 1 else high / mp.mpf(x) ** 2) for x in xs]
    got = density(coefficient_table(family, n), np.array(xs))
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)


def test_limit_rows_where_e_to_the_r0_overflows():
    # gamma = 100, n = 50: f(0) = a_1/a_0 = 50^100 fits in a double, e^(r_0) =
    # 50^200 does not.  Up to x_low = e^-((40 + r_0)/2) ~ 2.6e-179 the rows
    # are the limits f = e^(r_0/2), B/M = x e^(r_0) and log M = x B/M, with
    # log a_0^2 = 0; 5e-301 used to read NaN in every column.  Each is within
    # 2e-15 of its value at the table's r_0.  r_0 = 200 ln 50 ~ 782.4 has an
    # ulp of 1.1e-13, so e^(r_0/2) itself may differ from 50^100 by up to
    # 2.8e-14 relative (here 6.2e-15).
    xs = np.array([0.0, 1e-310, 1e-301, 5e-301, 1e-300, 1e-200])
    log_m, s1, f, _ = kernel(gamma_family(100.0), 50).rows(xs)
    r0 = coefficient_table(gamma_family(100.0), 50).log_ratio[0]
    # f is the limit itself, bit for bit: at 1e-300 the window sums, which
    # served it under an e^-600 edge, were 2.4e-14 off
    assert (f == math.exp(0.5 * r0)).all()
    with mp.workdps(30):
        g = mp.exp(mp.mpf(r0) / 2)
        for x, lm, b, ff in zip(xs.tolist(), log_m, s1, f):
            assert ff == pytest.approx(float(g), rel=2e-15)
            assert b == pytest.approx(float(mp.mpf(x) * g * g), rel=2e-15, abs=0)
            assert lm == pytest.approx(float(mp.mpf(x) ** 2 * g * g), rel=2e-15, abs=0)
            assert ff == pytest.approx(float(mp.mpf(50) ** 100), rel=2.8e-14)


def mp_density(log_sq, x, dps=50):
    """f = sqrt(A*M - B^2)/M from direct sums at ``dps`` digits, one pass over i."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        x2 = x * x
        m = a = b = mp.mpf(0)
        power = mp.mpf(1)  # x^(2i)
        for i, v in enumerate(log_sq):
            term = mp.exp(v) * power
            m += term
            b += i * term
            a += i * i * term
            power *= x2
        # B and A carry x^(2i-1) and x^(2i-2): divide the sums once
        b, a = b / x, a / x2
        return mp.sqrt(a * m - b * b) / m


@pytest.mark.parametrize("family", [gamma_family(1.0), alpha_beta_family(0.5, 2.0)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1000, 4000])
def test_density_large_n_against_50_digit_oracle(family, n):
    # the oracle sums the family's own coefficients at 50 digits, not the
    # float table: at n = 4000 the table's log-gamma noise alone moves f by
    # up to 5.4e-12.  Near x = 1 forming A*M - B^2 by subtraction would lose
    # ~log10(n) digits; near x = 0 the weights peak at a handful of indices.
    table = coefficient_table(family, n)
    exact = exact_log_sq(family, n)
    for x in (1e-4, 1e-3, 0.5, 0.99, 0.999, 1.0):
        want = mp_density(exact, x)
        assert density(table, x) == pytest.approx(float(want), rel=2e-14)


def test_eval_requires_nonnegative_x():
    table = coefficient_table(elliptic(), 5)
    with pytest.raises(ParameterDomainError):
        kac_rice_eval(table, -0.5)


@pytest.mark.parametrize("family", [gamma_family(1.0), alpha_beta_family(0.5, 2.0), kac()],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 6])
def test_density_limits_at_infinity_and_nan(family, n):
    # f(x) ~ (a_(n-1)/a_n)/x^2 -> 0; A*M - B^2 ~ a_n^2 a_(n-1)^2 x^(4n-4) is
    # constant only at n = 1.  Any numpy warning here fails the suite.
    table = coefficient_table(family, n)
    la = table.log_sq_coeff
    assert density(table, math.inf) == 0.0 and density(table, -math.inf) == 0.0
    got = density(table, np.array([-math.inf, 0.5, math.inf]))
    assert got[0] == got[2] == 0.0 and got[1] == density(table, 0.5)
    t = kac_rice_eval(table, math.inf)
    assert (t.f, t.s1, t.s2, t.log_m) == (0.0, 0.0, 0.0, math.inf)
    # at n = 1, A*M - B^2 = a_0^2 a_1^2 at every x, taken from the exact ratio r_0
    assert t.log_amb == (2.0 * la[0] + table.log_ratio[0] if n == 1 else math.inf)
    if n == 1:
        assert t.log_amb == kac_rice_eval(table, 0.0).log_amb
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ParameterDomainError):
            density(table, bad)
    with pytest.raises(ParameterDomainError):
        kac_rice_eval(table, math.nan)
    assert density(table, np.array([])).shape == (0,)
    assert [len(row) for row in kernel(family, n).rows(np.array([]))] == [0, 0, 0, 0]


@pytest.mark.parametrize("n", [1, 6, 10**6])
def test_kac_closed_forms_at_infinity_and_nan(n):
    assert kac_density(n, math.inf) == 0.0 and kac_density(n, -math.inf) == 0.0
    assert kac_density(n, 0.0) == 1.0  # f(0) = a_1/a_0
    got = kac_density(n, np.array([0.0, 1.0, math.inf]))
    assert got[0] == 1.0 and got[1] == kac_density(n, 1.0) and got[2] == 0.0
    t = kac_triple(n, math.inf)
    assert (t.f, t.s1, t.s2, t.log_m) == (0.0, 0.0, 0.0, math.inf)
    assert t.log_amb == (0.0 if n == 1 else math.inf)
    for fn in (kac_density, kac_triple):
        with pytest.raises(ParameterDomainError):
            fn(n, math.nan)
    assert kac_density(n, np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# Kac closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 12, 60])
def test_kac_fast_path_matches_table_route(n):
    table = coefficient_table(kac(), n)
    for x in (0.0, 0.3, 0.9, 0.999, 1.0, 1.0001, 1.8, 5.0):
        slow = kac_rice_eval(table, x)
        fast = kac_triple(n, x)
        assert fast.log_m == pytest.approx(slow.log_m, abs=1e-11)
        assert fast.f == pytest.approx(slow.f, rel=1e-10)
        assert fast.s1 == pytest.approx(slow.s1, rel=1e-10, abs=1e-12)
        assert fast.s2 == pytest.approx(slow.s2, rel=1e-10)


def test_kac_density_high_precision_near_one():
    # exercise the series fallback where the direct formula cancels
    mp.mp.dps = 60
    n = 50000
    for x in (1.0 - 1e-7, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-6):
        if x == 1.0:
            want = math.sqrt(n * (n + 2) / 12.0)
        else:
            xm = mp.mpf(x)
            big = n + 1
            f2 = 1 / (xm**2 - 1) ** 2 - big**2 * xm ** (2 * n) / (xm ** (2 * big) - 1) ** 2
            want = float(mp.sqrt(f2))
        assert kac_density(n, x) == pytest.approx(want, rel=1e-11)


def test_kac_log_variance_closed_form():
    n = 17
    for x in (0.0, 0.4, 1.0, 2.2):
        want = math.log(sum(x ** (2 * i) for i in range(n + 1)))
        assert kac_triple(n, x).log_m == pytest.approx(want, rel=1e-13)


def mp_kac(n, x, dps=60):
    """(M, A, B) of the Kac family from its closed forms at ``dps`` digits."""
    mp.mp.dps = dps
    x = mp.mpf(x)
    big = n + 1
    if x == 1:
        return mp.mpf(big), mp.mpf(n * big * (2 * n + 1)) / 6, mp.mpf(n * big) / 2
    xx = x * x
    m = (1 - xx**big) / (1 - xx)
    phi = xx / (1 - xx) - big * xx**big / (1 - xx**big)  # x B / M
    f2 = 1 / (xx - 1) ** 2 - big**2 * xx**n / (xx**big - 1) ** 2
    b = phi * m / x
    return m, (f2 * m * m + b * b) / m, b


@pytest.mark.parametrize("n", [1, 50, 10**6])
def test_kac_array_closed_forms_against_mpmath(n):
    # (n+1)|ln x| = v on both sides of x = 1 and of the series cut at v = 1/2,
    # plus x = 1, x -> 0 and x -> inf; n <= 50 against the direct sums
    big = n + 1
    xs = [math.exp(sign * v / big) for v in (1e-3, 0.2, 0.4999, 0.5001, 1.0, 3.0, 40.0)
          for sign in (-1, 1)]
    xs = np.array(xs + [1.0, 1e-300, 1e-8, 0.3, 2.5, 1e8, 1e150])
    log_m, s1, f, _ = kernel(kac(), n).rows(xs)
    assert np.array_equal(f, kac_density(n, xs))
    for i, x in enumerate(xs.tolist()):
        if n <= 50:  # A*M - B^2 cancels ~4 log10(x) digits for x > 1
            m, a, b = mp_triple(np.zeros(n + 1), x, dps=60 + int(4 * abs(math.log10(x))))
        else:
            m, a, b = mp_kac(n, x)
        assert f[i] == pytest.approx(float(mp.sqrt(a * m - b * b) / m), rel=1e-14)
        assert s1[i] == pytest.approx(float(b / m), rel=1e-14)
        # log M to 1e-14 of itself, and M itself to 1e-15
        assert log_m[i] == pytest.approx(float(mp.log(m)), rel=1e-14, abs=1e-15)
        t = kac_triple(n, x)
        assert (t.log_m, t.s1, t.f) == (log_m[i], s1[i], f[i])


# ---------------------------------------------------------------------------
# expected root counts
# ---------------------------------------------------------------------------

def test_full_line_degree_one_every_family():
    for family in FAMILIES:
        assert expected_roots_real_line(family, 1) == pytest.approx(1.0, abs=1e-10)


def test_elliptic_full_line_is_sqrt_n():
    for n in (4, 49, 100):
        got = expected_roots_real_line(elliptic(), n)
        assert got == pytest.approx(math.sqrt(n), abs=1e-8)


def test_full_line_within_closed_form_bracket():
    # gamma=1 at n=50 against the independently evaluated bracket
    n = 50
    lower = 2 * n / (math.pi * math.sqrt(2 * n - 3))
    upper = (2 * math.sqrt(n) / math.pi) * (1 + math.log(2) + 0.5 * math.log(n))
    value = expected_roots_real_line(gamma_family(1.0), n)
    assert lower <= value <= upper


def test_interval_full_line_proxy_degree_one():
    table = coefficient_table(elliptic(), 1)
    res = expected_roots_interval(table, -math.inf, math.inf, tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_interval_full_line_elliptic(monkeypatch):
    import randroot.kacrice as kr

    calls = []
    monkeypatch.setattr(kr, "adaptive_quadrature",
                        lambda f, a, b, **kw: calls.append((a, b)) or adaptive_quadrature(f, a, b, **kw))
    table = coefficient_table(elliptic(), 100)
    res = expected_roots_interval(table, -math.inf, math.inf, tol=1e-9)
    assert res.converged
    assert res.value == pytest.approx(10.0, abs=2e-9)
    # each distinct leg is integrated once, in the leg variable of s = -ln |x|
    # up to the edges where the limit rows take over: a symmetric family's legs
    # at |x| > 1 fold onto |x| < 1, so the full line and (-1, 1) are one leg
    # each; any other family's full line is one leg across s = 0
    expected_roots_interval(table, -1.0, 1.0, tol=1e-9)
    expected_roots_real_line_result(gamma_family(1.0), 20)
    edges = []
    for f, n in ((elliptic(), 100), (gamma_family(1.0), 20), (alpha_beta_family(0.5, 2.0), 20)):
        k = kr._table_kernel(coefficient_table(f, n))
        edges.append(tuple(kr._to_leg(s, *kr._knees(k)) for s in k.edges))
    assert calls == [(0.0, edges[0][1])] * 2 + [(0.0, edges[1][1])]
    calls.clear()
    expected_roots_real_line_result(alpha_beta_family(0.5, 2.0), 20)
    assert calls == [edges[2]]


def test_interval_composition_and_symmetry():
    table = coefficient_table(gamma_family(1.0), 8)
    tol = 1e-10
    inner = expected_roots_interval(table, 0.0, 1.0, tol)
    outer = expected_roots_interval(table, 1.0, math.inf, tol)
    assert abs(inner.value - outer.value) < 10 * tol
    # substitution route agrees with direct quadrature on a finite outer interval
    direct = adaptive_quadrature(lambda xs: density(table, xs) / math.pi, 1.0, 5.0, tol=tol)
    sub = expected_roots_interval(table, 1.0, 5.0, tol)
    assert sub.value == pytest.approx(direct.value, abs=1e-9)
    # halves add up
    both = expected_roots_interval(table, -2.0, 3.0, tol)
    left = expected_roots_interval(table, -2.0, 0.0, tol)
    right = expected_roots_interval(table, 0.0, 3.0, tol)
    assert both.value == pytest.approx(left.value + right.value, abs=1e-9)


@pytest.mark.parametrize("family, n", [(gamma_family(100.0), 50), (alpha_beta_family(0.5, 2.0), 20)],
                         ids=lambda v: getattr(v, "label", lambda: str(v))())
def test_interval_past_the_edges_is_the_limit_rows_integral(family, n):
    # past the edges f is e^(r_0/2) near 0 and e^(-r_(n-1)/2)/x^2 near inf,
    # integrated in closed form; the two ends of a leg add up without the one
    # absorbing the other
    table = coefficient_table(family, n)
    f0, f_inf = math.exp(0.5 * table.log_ratio[0]), math.exp(-0.5 * table.log_ratio[-1])
    for a, b, want in ((0.0, 1e-300, 1e-300 * f0), (-2e-300, -1e-300, 1e-300 * f0),
                       (1e200, math.inf, 1e-200 * f_inf), (1e200, 2e200, 0.5e-200 * f_inf)):
        res = expected_roots_interval(table, a, b)
        assert res.evaluations == 0
        assert res.value == pytest.approx(want / math.pi, rel=1e-12)


def test_asymmetric_family_matches_mirror():
    a = expected_roots_real_line(alpha_beta_family(1.0, 0.0), 20)
    b = expected_roots_real_line(alpha_beta_family(0.0, 1.0), 20)
    assert a == pytest.approx(b, abs=1e-9)


def test_real_line_result_carries_quadrature_metadata():
    res = expected_roots_real_line_result(elliptic(), 25, tol=1e-9)
    assert res.converged
    assert res.evaluations > 0
    assert res.abs_error_estimate <= 1e-9
    assert res.value == pytest.approx(5.0, abs=1e-8)
    # the full line is the interval (-inf, inf), value, error and evaluations alike
    for family, n in ((elliptic(), 25), (gamma_family(1.0), 25), (kac(), 1000),
                      (alpha_beta_family(0.5, 2.0), 25)):
        line = expected_roots_real_line_result(family, n, tol=1e-9)
        assert line == expected_roots_interval_result(family, n, -math.inf, math.inf, tol=1e-9)


def test_real_line_raises_on_non_convergence(monkeypatch):
    import randroot.kacrice as kr
    from randroot.quadrature import QuadratureResult

    def stuck(f, a, b, tol=1e-9, **kw):
        return QuadratureResult(1.0, 1.0, 15, False)

    monkeypatch.setattr(kr, "adaptive_quadrature", stuck)
    with pytest.raises(QuadratureError):
        expected_roots_real_line(elliptic(), 5)


def test_kac_interval_route():
    res = kac_expected_roots_interval(1000, -math.inf, math.inf, tol=1e-9)
    assert res.converged
    # logarithmic growth: (2/pi) ln n plus a bounded constant
    assert res.value == pytest.approx((2 / math.pi) * math.log(1000) + 0.6257, abs=0.01)
    # same family through the generic table machinery at small n
    table = coefficient_table(kac(), 30)
    via_table = expected_roots_interval(table, 0.0, 1.0, 1e-10)
    via_closed = kac_expected_roots_interval(30, 0.0, 1.0, 1e-10)
    assert via_table.value == pytest.approx(via_closed.value, abs=1e-9)


def test_internal_equilibria_is_half_the_real_line():
    assert expected_internal_equilibria(elliptic(), 100) == pytest.approx(5.0, abs=1e-8)
    assert expected_internal_equilibria(gamma_family(3.0), 1) == pytest.approx(0.5, abs=1e-10)
    n = 50
    value = expected_internal_equilibria(gamma_family(1.0), n)
    lower = n / (math.pi * math.sqrt(2 * n - 3))
    upper = (math.sqrt(n) / math.pi) * (1 + math.log(2) + 0.5 * math.log(n))
    assert lower <= value <= upper


def test_interval_validation():
    table = coefficient_table(elliptic(), 3)
    with pytest.raises(ParameterDomainError):
        expected_roots_interval(table, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        expected_roots_interval(table, 2.0, 1.0)
    with pytest.raises(ParameterDomainError):
        expected_roots_interval(table, 0.0, 1.0, tol=0.0)


def test_results_are_deterministic():
    table = coefficient_table(gamma_family(1.5), 11)
    r1 = expected_roots_interval(table, 0.0, 2.0, 1e-9)
    r2 = expected_roots_interval(table, 0.0, 2.0, 1e-9)
    assert r1 == r2


# ---------------------------------------------------------------------------
# large n: the window kernel on exact ratios
# ---------------------------------------------------------------------------

def test_gamma1_at_n256000_against_the_exact_table_value():
    # 714.88258333045 is the full-line count from a 50-digit log-gamma table;
    # the float table's noise once pushed the quadrature to 1485 evaluations
    # and the value to 714.88258332972
    res = expected_roots_real_line_result(gamma_family(1.0), 256_000)
    assert res.converged
    assert abs(res.value - 714.88258333045) < 1e-8
    assert res.evaluations <= 800


def test_large_gamma_counts_against_30_digit_direct_sums():
    # The oracles sum a_i^2 e^(-2is), a_i^2 = binom(n, i)^(2 gamma) from
    # mpmath loggamma, directly at 30 digits and integrate sqrt(Var) over s by
    # tanh-sinh, split at the transitions s = r_i/2 (gamma = 1, n = 40 agrees
    # with the quadrature to 2.6e-14).  Bisection in x stopped at
    # converged=False for both: 40.19 after 2 million evaluations at gamma = 20.
    for gamma, n, want in ((20.0, 100, 53.896705137778193), (5.0, 20_000, 444.18482619215327)):
        res = expected_roots_real_line_result(gamma_family(gamma), n)
        assert res.converged and res.evaluations <= 3000
        assert abs(res.value - want) < 1e-9


def test_kac_at_n_10_to_the_12_against_its_asymptotic_constant():
    # (2/pi) ln n + C1, C1 = 0.625735807205270 (Edelman & Kostlan 1995,
    # section 3), with an O(1/n) rest below 1e-12.  The peak at x = 1 is 1/n
    # wide: bisection in x took 103995 evaluations and landed 2e-11 off, and
    # first panels that met the peak only by bisection took 1260.
    res = expected_roots_real_line_result(kac(), 10**12)
    assert res.converged and res.evaluations <= 690
    assert abs(res.value - 18.216190180311536) < 1e-11


def test_no_count_stays_unconverged_up_to_gamma_20():
    for gamma in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        for n in (1, 3, 10, 100, 1000, 100_000):
            res = expected_roots_real_line_result(gamma_family(gamma), n)
            assert res.converged, (gamma, n)
            if gamma == 0.5 or n == 1:  # elliptic, and degree one: E N = sqrt(n) exactly
                assert abs(res.value - math.sqrt(n)) < 1e-9, (gamma, n)


def test_gamma1_constant_term_converges_like_one_over_sqrt_n():
    # E N - sqrt(2n) -> about -0.66 with an O(1/sqrt(n)) correction, so each
    # 4x step in n about halves the gap to the next value; lost precision at
    # large n breaks the pattern long before it moves a value past tol
    ns = [1000 * 4**k for k in range(6)]
    const = [expected_roots_real_line(gamma_family(1.0), n) - math.sqrt(2 * n) for n in ns]
    assert const[0] == pytest.approx(-0.6488, abs=1e-4)
    assert const[-1] == pytest.approx(-0.6595, abs=1e-4)
    gaps = np.diff(const)
    assert (gaps < 0).all()
    ratios = gaps[1:] / gaps[:-1]
    assert ((ratios >= 0.35) & (ratios <= 0.65)).all(), ratios


def test_half_widths_reach_the_cut():
    # at ln x in +-25 and within 1e-3 of 0, every walk as long as its point's
    # half-width ends at or below -cut, or at a table end, and none is longer
    # than the walk to the farther end; at x = 1 and n = 10^6 the window stays
    # near its sqrt(n) size
    import randroot.kacrice as kr

    rng = np.random.default_rng(15)
    families = [gamma_family(g) for g in (0.3, 1.0, 5.0, 20.0)]
    families += [alpha_beta_family(a, b) for a, b in ((-0.9, 3.0), (400.0, 400.0), (-0.999, -0.999))]
    cases = [(family, n, np.concatenate((rng.uniform(-25.0, 25.0, 40), rng.uniform(-1e-3, 1e-3, 10))))
             for family in families for n in (129, 4000, 10**5)]
    cases.append((gamma_family(1.0), 10**6, np.zeros(1)))
    for family, n, lx in cases:
        table = coefficient_table(family, n)
        c = kr._ratios(n, table.log_ratio, table.log_sq_coeff.take)
        d0 = 2.0 * lx
        peak = np.searchsorted(c.left[1:-1], d0)
        widths = kr._half_widths(c, peak, d0)
        assert (widths <= np.maximum(n - peak, peak)).all(), (family.label(), n)
        for j, (i, h) in enumerate(zip(peak, widths)):
            right, left = kr._walks(c, peak[j:j + 1], d0[j:j + 1], int(h))[:, -1]
            assert right <= -c.cut or i + h >= n, (family.label(), n, i, h)
            assert left <= -c.cut or i - h <= 0, (family.label(), n, i, h)
        if n == 10**6:
            assert peak[0] == n // 2 and 2 * widths[0] + 1 <= 12_000


@pytest.mark.parametrize("family", [gamma_family(1.0), gamma_family(0.5), alpha_beta_family(0.5, 2.0),
                                    alpha_beta_family(-0.9, 3.0)], ids=lambda f: f.label())
def test_window_matches_the_whole_table(family, monkeypatch):
    # the same kernel with every window stretched over the whole table: the
    # mass the window leaves out moves nothing
    import randroot.kacrice as kr

    n = 3000
    table = coefficient_table(family, n)
    xs = np.concatenate((np.geomspace(1e-5, 0.9, 40), np.linspace(0.9, 1.1, 21), np.geomspace(1.1, 1e5, 40)))
    windowed, spread = kr._table_kernel(table).rows(xs), kr._table_kernel(table).spread(-np.log(xs))
    monkeypatch.setattr(kr, "_WHOLE_TABLE_N", n)
    whole = kr._table_kernel(table).rows(xs)
    np.testing.assert_allclose(spread, kr._table_kernel(table).spread(-np.log(xs)), rtol=1e-14, atol=0)
    for got, want in zip(windowed[1:], whole[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(windowed[0], whole[0], rtol=1e-15, atol=0)


@pytest.mark.parametrize("family", [gamma_family(0.3), gamma_family(1.0), gamma_family(5.0),
                                    alpha_beta_family(0.5, 2.0)], ids=lambda f: f.label())
@pytest.mark.parametrize("n", [1, 1000, 4000, 10**5])
def test_density_log_m_against_30_digit_sums(family, n):
    # log M of one density grid, as `randroot density` evaluates it, against
    # log sum a_i^2 x^(2i) from 30-digit log-gamma coefficients.  The table's
    # log a_i^2 are log-gamma differences near n log n, good to a few ulps of
    # lgamma(n + shift + 1); its exponent 2 gamma scales them up.  At n = 10^5
    # the grid's log M adds cumulative sums of up to n ratios to one anchor.
    # Only the terms within e^-100 of the largest are summed: the others move
    # the sum by less than n e^-100.
    xs = (0.0, 0.1, 0.5, 1.0, 2.0)
    log_m = kernel(family, n).rows(np.array(xs))[0]
    if family.kind is FamilyKind.GAMMA:
        shift, scale = 0.0, max(1.0, 2.0 * family.gamma)
    else:
        shift, scale = max(family.alpha, family.beta, 0.0), 1.0
    bound = 8.0 * scale * np.spacing(max(1.0, math.lgamma(n + shift + 1.0)))
    table = coefficient_table(family, n).log_sq_coeff
    with mp.workdps(30):
        for x, got in zip(xs, log_m):
            if x == 0.0:
                want = exact_log_sq(family, n, 30, (0,))[0]
            else:
                near = table + 2.0 * math.log(x) * np.arange(n + 1)
                keep = tuple(np.flatnonzero(near >= near.max() - 100.0).tolist())
                t = [v + 2 * i * mp.log(x) for i, v in zip(keep, exact_log_sq(family, n, 30, keep))]
                top = max(t)
                want = top + mp.log(mp.fsum(mp.exp(v - top) for v in t))
            assert abs(got - want) <= bound, (x, float(abs(got - want)) / bound)


@pytest.mark.parametrize("family,n", [
    (family, n) for family in (gamma_family(0.3), gamma_family(1.0), gamma_family(5.0), alpha_beta_family(0.5, 2.0),
                               alpha_beta_family(-0.999999, 3.0), alpha_beta_family(1000.0, 1000.0))
    for n in (1, 1000, 4000)] + [(gamma_family(1.0), 10**5)], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_density_log_m_to_a_few_ulps_of_its_terms(family, n):
    # log M = log a_i*^2 + 2 i* ln x + log(sum of weights / peak weight) at
    # one point a call, where the anchor log a_i*^2 is read at the point's own
    # peak i*: within 8 ulps of the larger of its two leading terms, against
    # 30-digit direct sums.  test_density_log_m_against_30_digit_sums allows
    # 8 ulps of lgamma(n + shift + 1), times 2 gamma: at n = 10^5, x = 0.1,
    # gamma = 1, that is 3.7e-9 where this allows 1.5e-11.
    k = kernel(family, n)
    table = coefficient_table(family, n).log_sq_coeff
    for x in (0.1, 0.5, 1.0, 2.0):
        want, lead = mp_log_m(family, n, table, x)
        log_m = k.rows(np.array([x]))[0][0]
        assert abs(log_m - want) <= 8 * np.spacing(lead), (x, float(abs(log_m - want)) / np.spacing(lead))


def mp_log_m(family, n, table, x):
    """(30-digit log M at x, the larger of its two leading terms log a_i*^2 and 2 i* ln x, or 1).

    Only the terms within e^-100 of the largest are summed: the rest move
    log M by less than n e^-100.
    """
    near = table + 2.0 * math.log(x) * np.arange(n + 1)
    peak = int(np.argmax(near))
    keep = tuple(np.flatnonzero(near >= near[peak] - 100.0).tolist())
    with mp.workdps(30):
        t = [v + 2 * i * mp.log(x) for i, v in zip(keep, exact_log_sq(family, n, 30, keep))]
        top = max(t)
        want = top + mp.log(mp.fsum(mp.exp(v - top) for v in t))
    return want, max(1.0, abs(table[peak]), abs(2.0 * peak * math.log(x)))


@pytest.mark.parametrize("family", [elliptic(), alpha_beta_family(-0.9, 3.0)], ids=lambda f: f.label())
def test_density_grid_log_m_to_a_few_ulps_of_its_terms(family):
    # one call over a grid, as `randroot density` makes it, keeps the
    # one-point bound in every cell: each reads log a_i*^2 at its own peak.
    # (An anchor at the grid's lowest peak plus cumulative sums of the ratios
    # from there left cells here 12.4 and 10.4 ulps of their leading terms off.)
    n = 4000
    table = coefficient_table(family, n).log_sq_coeff
    xs = np.linspace(0.05, 3.0, 60)
    for x, log_m in zip(xs, kernel(family, n).rows(xs)[0]):
        want, lead = mp_log_m(family, n, table, x)
        assert abs(log_m - want) <= 8 * np.spacing(lead), (x, float(abs(log_m - want)) / np.spacing(lead))


def test_grid_rows_read_each_distinct_peak_once(monkeypatch):
    # the 601 points of 0:3:601 at n = 50 peak at 38 distinct indices: log a_i^2
    # is evaluated once for each, and the rows equal those of reads one index
    # at a time, bit for bit
    import randroot.families as fam
    import randroot.kacrice as kr

    xs = np.linspace(0.0, 3.0, 601)
    sizes = []
    products = fam._log_products
    monkeypatch.setattr(fam, "_log_products", lambda k, m: sizes.append(len(k)) or products(k, m))
    got = kr.kernel(legendre(), 50).rows(xs)
    assert sizes == [2 * 2, 2 * 38]  # the limit rows' ends 0 and n, then the 38 distinct peaks inside
    log_sq = kr._log_sq
    monkeypatch.setattr(kr, "_log_sq", lambda f, n, i: np.concatenate([log_sq(f, n, i[j:j + 1]) for j in range(len(i))]))
    want = kr.kernel(legendre(), 50).rows(xs)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_step_columns_are_one_array_grown_by_rebinding():
    # the step columns of every half-width are views of one read-only pair,
    # grown to the widest asked for: the moments they sum are the matmul of
    # fresh columns bit for bit, and after a gamma = 1e-6 count at n = 3 * 10^5,
    # whose windows span the table, they hold under 16 MB (287 MB stayed in a
    # cache of per-half-width arrays)
    import tracemalloc

    import randroot.kacrice as kr

    rng = np.random.default_rng(3)
    kr._steps(5000)
    for h in (1, 7, 64, 1000, 4999):
        weights = rng.random((30, h))
        q, columns = kr._steps(h)
        fresh_q, fresh = kr._step_columns(h)
        assert np.array_equal(q, fresh_q) and not columns.flags.writeable
        assert np.array_equal(weights @ columns, weights @ fresh)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert expected_roots_real_line_result(gamma_family(1e-6), 3 * 10**5).converged
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16e6, retained


def test_counts_and_densities_build_no_log_sq_array(monkeypatch, capsys):
    # a count reads no log a_i^2 at all, and a density grid reads it at no
    # more than one index per point of the call (its peak) plus i = 0 and n:
    # no (n+1)-entry log-gamma array and no coefficient table is built
    import randroot.families as fm
    import randroot.kacrice as kr
    from randroot.cli import main

    reads = []
    log_sq = kr._log_sq

    def counted(family, n, i):
        reads.append(len(i))
        return log_sq(family, n, i)

    def forbidden(*args, **kwargs):
        raise AssertionError("a log a_i^2 array was built")

    monkeypatch.setattr(kr, "_log_sq", counted)
    monkeypatch.setattr(fm, "coefficient_table", forbidden)
    monkeypatch.setattr(kr, "coefficient_table", forbidden)
    for family, n in ((gamma_family(1.0), 4000), (alpha_beta_family(0.5, 2.0), 2000), (elliptic(), 3000),
                      (alpha_beta_family(-0.999999, 3.0), 300)):
        assert expected_roots_real_line_result(family, n).converged
        assert expected_roots_interval_result(family, n, 0.5, 2.0).converged
    assert reads == []
    for cls in (["gamma", "--gamma", "1"], ["alpha-beta", "--alpha", "0.5", "--beta", "2"]):
        for grid, points in (("0:3:61", 61), ("1e300:1e301:2", 2)):
            reads.clear()
            assert main(["density", "--class", *cls, "--n", "2000", "--grid", grid]) == 0
            assert 0 < sum(reads) <= points + 2, (grid, reads)
    capsys.readouterr()


# the window kernel's whole domain: weights near flat (small gamma), alpha
# and beta near -1, and large ones; n = 200 takes the window path above
# _WHOLE_TABLE_N = 128, which `randroot verify` reaches only in its
# recurrence and endpoint checks, at n = 129 and 130
EDGE_FAMILIES = [gamma_family(g) for g in (1e-6, 1e-4, 1e-2, 0.1)] + [
    alpha_beta_family(a, b) for a, b in ((-0.999999, -0.999999), (-0.999999, 3.0), (1000.0, 1000.0))]


def mp_spread(family, n, dps=30):
    """g(s) = sqrt(Var_p(i)), p_i ~ a_i^2 e^(-2is), from direct sums of ``dps``-digit coefficients.

    The offsets o run from the end the weights lean to (i = o for s >= 0,
    i = n - o below), so the moments do not cancel far from s = 0.  The
    weights are log-concave, so past their peak each tail is below
    w rho/(1 - rho), rho = w/w_prev: the sums stop where that, times n^2,
    falls below 10^-2dps of the total, far below the working precision.
    """
    a_sq = [mp.exp(v) for v in exact_log_sq(family, n, dps)]
    eps = mp.mpf(10) ** (-2 * dps) / (n * n)

    def g(s):
        z, zo = mp.exp(-2 * abs(s)), mp.mpf(1)
        m0 = m1 = m2 = mp.mpf(0)
        prev = mp.mpf(0)
        for o in range(n + 1):
            w = a_sq[o if s >= 0 else n - o] * zo
            m0 += w
            m1 += o * w
            m2 += o * o * w
            if w < prev and w * w < eps * m0 * (prev - w):
                break
            prev = w
            zo *= z
        mean = m1 / m0
        return mp.sqrt(m2 / m0 - mean * mean)
    return g


@pytest.mark.parametrize("family", EDGE_FAMILIES, ids=lambda f: f.label())
@pytest.mark.parametrize("n", [50, 200])
def test_edge_densities_against_30_digit_direct_sums(family, n):
    # f = g/x next to x = 1 and at 0.5 and 2, through the table and the count
    # kernel; measured within 2.8e-16 relative
    xs = (1.0 - 1e-9, 1.0 + 1e-9, 0.5, 2.0)
    with mp.workdps(30):
        g = mp_spread(family, n)
        want = [float(g(-mp.log(mp.mpf(x))) / x) for x in xs]
    for got in (density(coefficient_table(family, n), np.array(xs)), kernel(family, n).rows(np.array(xs))[2]):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", EDGE_FAMILIES, ids=lambda f: f.label())
def test_edge_counts_against_a_30_digit_kac_rice_integral(family):
    # (1/pi) integral of f over the full line and over (0.99, 1.01), as the
    # integral of g over s = -ln x by Gauss-Legendre in mpmath, cut where g
    # turns (its peak at s = 0 is about 1/n wide for flat weights); g past
    # |s| = 60 adds less than e^-55.  Measured within 3.4e-14 of the counts.
    n = 50
    with mp.workdps(30):
        g = mp_spread(family, n)
        cuts = [0, 0.02, 0.1, 0.5, 2, 8, 60]
        if family.is_symmetric:  # g is even in s
            full = 4 / mp.pi * mp.quad(g, cuts, method="gauss-legendre")
        else:
            full = 2 / mp.pi * mp.quad(g, [-c for c in cuts[:0:-1]] + cuts, method="gauss-legendre")
        near = mp.quad(g, [-mp.log(mp.mpf(1.01)), 0, -mp.log(mp.mpf(0.99))], method="gauss-legendre") / mp.pi
    for (a, b), want in (((-math.inf, math.inf), full), ((0.99, 1.01), near)):
        res = expected_roots_interval_result(family, n, a, b)
        assert res.converged and abs(res.value - float(want)) <= 1e-12 * float(want), (a, b, res.value, want)


def _s_range(a, b):
    """The s = -ln |x| range of the one-sided interval (a, b), 0 <= a < b or a < b <= 0, cut at |s| = 60."""
    lo, hi = (a, b) if a >= 0 else (-b, -a)
    return (-math.log(hi) if hi < math.inf else -60.0), (-math.log(lo) if lo > 0 else 60.0)


LEG_END_INTERVALS = [(0.0, 1e-3), (1e3, math.inf), (-math.inf, -0.99), (1e-6, 1e-2)]


@pytest.mark.parametrize("family,n,intervals", [
    (gamma_family(1.0), 50, LEG_END_INTERVALS),
    (gamma_family(5.0), 50, LEG_END_INTERVALS),
    (alpha_beta_family(0.5, 2.0), 50, LEG_END_INTERVALS),
    (gamma_family(5.0), 200, [(-math.inf, math.inf)]),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_legs_past_a_knee_against_a_30_digit_kac_rice_integral(family, n, intervals):
    # legs that end past a knee, |s| = r_0/2 or -r_(n-1)/2, where they are
    # integrated in an x-like variable, against (1/pi) integral of g over s by
    # Gauss-Legendre in mpmath, cut at the knees and at |s| = 2^k; g past
    # |s| = 60 adds less than e^-25 of it.  The gamma 5 knee lies deepest on
    # the full line at n = 200, at s = 26.5.  Measured within 1.7e-14 relative.
    log_sq = [float(v) for v in exact_log_sq(family, n, 30, (0, 1, n - 1, n))]
    knees = [(log_sq[1] - log_sq[0]) / 2, (log_sq[3] - log_sq[2]) / 2]
    shape = sorted([0.0, *knees] + [sign * 2.0 ** k for k in range(-1, 6) for sign in (-1, 1)])
    pieces = {}
    with mp.workdps(30):
        g = mp_spread(family, n)

        def piece(lo, hi):  # a symmetric family's g is even in s
            key = (-hi, -lo) if family.is_symmetric and hi <= 0 else (lo, hi)
            if key not in pieces:
                pieces[key] = mp.quad(g, key, method="gauss-legendre")
            return pieces[key]

        for a, b in intervals:
            want = 0
            for side in ((a, min(b, 0.0)), (max(a, 0.0), b)):
                if side[0] < side[1]:
                    lo, hi = _s_range(*side)
                    cuts = [lo, *(c for c in shape if lo < c < hi), hi]
                    want += sum(piece(p, q) for p, q in zip(cuts, cuts[1:]))
            want = float(want / mp.pi)
            res = expected_roots_interval_result(family, n, a, b)
            assert res.converged and abs(res.value - want) <= 1e-13 * want, (a, b, res.value, want)


@pytest.mark.parametrize("family,n,value,evaluations", [
    (gamma_family(1.0), 4000, 88.788419341846094, 150),
    (alpha_beta_family(0.5, 2.0), 2000, 62.217158065140836, 240),
    (elliptic(), 3000, 54.77225575051645, 75),
    (gamma_family(1.0), 10**6, 1413.5540479400981, 210),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_counts_pinned_value_and_evaluations(family, n, value, evaluations):
    # how the quadrature groups its integrand calls, and how the kernel cuts
    # them into blocks, chooses no other panel and moves no value past 4 ulp
    res = expected_roots_real_line_result(family, n)
    assert res.converged and res.evaluations == evaluations
    assert abs(res.value - value) <= 4 * np.spacing(value)


def _integrand_calls(monkeypatch) -> list[int]:
    """The integrand calls of each leg the counts make from here on, one entry per leg."""
    import randroot.kacrice as kr

    legs = []
    quad = kr.adaptive_quadrature

    def counted(f, *args, **kwargs):
        legs.append(0)

        def g(s):
            legs[-1] += 1
            return f(s)
        return quad(g, *args, **kwargs)

    monkeypatch.setattr(kr, "adaptive_quadrature", counted)
    return legs


@pytest.mark.parametrize("family,n,calls", [
    (gamma_family(1.0), 4000, [3]),
    (alpha_beta_family(0.5, 2.0), 2000, [3]),
    (elliptic(), 3000, [1]),
    (gamma_family(20.0), 100, [7]),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_counts_pinned_integrand_calls(monkeypatch, family, n, calls):
    # integrand calls per leg: one for the first panels, one per round of bisections
    legs = _integrand_calls(monkeypatch)
    assert expected_roots_real_line_result(family, n).converged
    assert legs == calls


# the first-panel splits of every table kernel
TABLE_SPLITS = (-32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@pytest.mark.parametrize("n", [10**3, 10**6, 10**9, 10**12])
def test_kac_first_panels_meet_the_peak(monkeypatch, n):
    # the Kac g peaks 1/n wide at s = 0, and the kernel's splits step down to
    # it, so no count spends a round per halving on the way there: at most one
    # call for the first panels and one round per leg, on the full line and
    # on intervals that hold or touch |x| = 1 (one round per halving took 20
    # calls at n = 10^6)
    import randroot.kacrice as kr

    k = kr.kernel(kac(), n)
    ladder = [p for p in k.splits if 0.0 < p < 1.0]
    assert min(ladder) >= 2.0 / (n + 1) > 0.5 * min(ladder)
    assert sorted(-p for p in k.splits) == list(k.splits)
    assert set(TABLE_SPLITS) <= set(k.splits)
    legs = _integrand_calls(monkeypatch)
    for a, b in ((-math.inf, math.inf), (0.0, 1.0), (0.5, 2.0), (1.0, math.inf)):
        assert expected_roots_interval_result(kac(), n, a, b).converged
    assert legs and max(legs) <= 2, legs


def test_kac_rungs_next_to_a_leg_end_go():
    # (0.99, 1.01) at n = 265 folds onto two legs about 0.01 long, each with the
    # rung 2^-7 three quarters of the way out: one panel per leg converges, and
    # with the rung each leg took two (60 evaluations)
    res = expected_roots_interval_result(kac(), 265, 0.99, 1.01)
    assert res.converged and res.evaluations == 30


def test_kac_kernel_takes_a_numpy_integer_degree():
    # the degree check admits numpy integers, so the Kac ladder takes one as it takes an int
    import randroot.kacrice as kr

    for n in (1, 5, 10**6):
        assert kr.kernel(kac(), np.int64(n)).splits == kr.kernel(kac(), n).splits
    assert expected_roots_real_line(kac(), np.int64(5)) == expected_roots_real_line(kac(), 5)


def test_table_kernels_split_where_they_did():
    # only the Kac kernel adds splits: every table kernel keeps the fixed ones
    import randroot.kacrice as kr

    for family in (gamma_family(1.0), elliptic(), alpha_beta_family(0.5, 2.0), legendre()):
        for n in (1, 50, 4000):
            assert kr.kernel(family, n).splits == TABLE_SPLITS
    assert kr.kernel(kac(), 2).splits == TABLE_SPLITS  # no 2^-k >= 2/3


def test_unreachable_tolerance_fills_the_evaluation_budget(monkeypatch):
    # the last round bisects the worst panels up to the budget, even where the
    # whole round does not fit, and the count reports converged=False; a budget
    # of 500 runs out while the error total is still above the rounding floor
    import randroot.quadrature as quadrature

    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", 500)
    res = expected_roots_real_line_result(gamma_family(5.0), 200, tol=1e-30)
    assert not res.converged
    assert 500 - 30 < res.evaluations <= 500
    assert res.abs_error_estimate > 2.0 ** -46 * res.value


def test_unreachable_tolerance_stops_at_the_rounding_floor():
    # below the floor more bisection gains nothing: both counts stop far inside
    # the 2,000,000-evaluation budget (it took all of it before the floor stop)
    for tol in (1e-30, 1e-14):
        res = expected_roots_real_line_result(gamma_family(1.0), 50, tol=tol)
        assert not res.converged
        assert res.evaluations <= 10**4
        assert abs(res.value - 9.38826623329811) < 1e-12


def test_a_count_at_its_noise_plateau_exits_promptly():
    # the leg's total sits near 6.1e-13, over its tolerance 5e-13 and under
    # the rounding floor, setting new lows of a few 1e-17; a new low that
    # small no longer restarts the stall count, which let this count spend
    # the whole 2,000,000-evaluation budget
    res = expected_roots_interval_result(gamma_family(5.0), 50_000, -math.inf, -0.99, tol=1e-12)
    assert not res.converged and res.evaluations <= 14_000
    assert abs(res.value - 176.13169161392958) < 1e-12


def _block_sequences():
    """Seeded half-width sequences: smooth and noisy runs, wide -> narrow -> wide, and points wider than the budget."""
    import randroot.kacrice as kr

    rng = np.random.default_rng(27)
    for _ in range(60):
        size = int(rng.integers(1, 400))
        yield rng.integers(1, int(rng.choice([20, 300, 3000])), size)
    for wide, narrow in ((400, 10), (2000, 50), (90, 30), (5000, 4000)):
        yield np.repeat([wide, narrow, wide, narrow // 2, wide], rng.integers(1, 60, 5))
    yield np.array([kr._BUDGET + 1])
    yield np.array([3, kr._BUDGET * 2, 5, 5, kr._BUDGET, 7, kr._BUDGET + 1, kr._BUDGET + 1, 2])
    yield (40 + 30 * np.sin(np.linspace(0.0, 20.0, 2001))).astype(int)


def test_blocks_keep_both_bounds_and_are_maximal():
    # consecutive blocks cover the points once; each keeps count x widest
    # half-width within _BUDGET and its padding (widest - own, summed) under
    # _SPLIT_TERMS, unless it is one point; and each is as long as it can be:
    # the next point would break a bound
    import randroot.kacrice as kr

    def fits(w):
        return len(w) * w.max() <= kr._BUDGET and int((w.max() - w).sum()) < kr._SPLIT_TERMS

    for widths in _block_sequences():
        blocks = list(kr._blocks(widths))
        assert blocks[0].start == 0 and blocks[-1].stop == len(widths)
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        for i in blocks:
            assert i.stop - i.start == 1 or fits(widths[i]), (widths[i], i)
            assert i.stop == len(widths) or not fits(widths[i.start:i.stop + 1]), (widths[i.start:i.stop + 1], i)


def test_tolerance_inside_the_rounding_noise_stops_after_stalled_rounds(capsys):
    # at tol = 2e-14 each leg's error total sits at the rounding floor between
    # its tol and twice it, and no round lowers it: the count took the whole
    # 2,000,000-evaluation budget (3 s) before STALLED_ROUNDS ended it
    from randroot.cli import main

    res = expected_roots_real_line_result(gamma_family(1.0), 50, tol=2e-14)
    assert not res.converged and res.evaluations <= 4 * 10**5
    assert abs(res.value - 9.38826623329811) < 1e-12
    assert main(["expect", "--class", "gamma", "--gamma", "1", "--n", "50", "--tol", "2e-14"]) == 3
    out, err = capsys.readouterr()
    assert int(out.split("\n")[1].split(",")[3]) == res.evaluations and "Traceback" not in err


def test_kernel_blocks_stay_in_the_budget(monkeypatch):
    # every weights array of the expect_large_n counts and of n = 10^6 holds
    # at most _BUDGET points x half-width, unless it is one point whose own
    # window is wider, and each block is walked once; the first call of each
    # expect_large_n count (its first panels) walks at most twice the terms
    # its windows need (2.3-3.4 times when every point was padded to the
    # widest window of the call)
    import randroot.kacrice as kr

    shapes, blocks, needed = [], [], []
    walks, cut, half_widths = kr._walks, kr._blocks, kr._half_widths

    def recorded(c, peak, d0, h):
        u = walks(c, peak, d0, h)
        shapes.append(u.shape)
        return u

    def counted(widths):
        for i in cut(widths):
            blocks.append(i)
            yield i

    def sized(c, peak, d0):
        widths = half_widths(c, peak, d0)
        needed.append((len(shapes), 2 * int(widths.sum())))
        return widths

    monkeypatch.setattr(kr, "_walks", recorded)
    monkeypatch.setattr(kr, "_blocks", counted)
    monkeypatch.setattr(kr, "_half_widths", sized)
    for family, n in [(gamma_family(1.0), 4000), (alpha_beta_family(0.5, 2.0), 2000), (elliptic(), 3000),
                      (gamma_family(1.0), 10**6), (alpha_beta_family(0.5, 2.0), 10**6)]:
        shapes.clear()
        blocks.clear()
        needed.clear()
        assert expected_roots_real_line_result(family, n).converged
        assert shapes and len(shapes) == len(blocks), (family.label(), n, len(shapes), len(blocks))
        for rows, h in shapes:
            assert rows // 2 * h <= kr._BUDGET or rows == 2, (family.label(), n, rows, h)
        if n <= 4000:
            first = shapes[:needed[1][0] if len(needed) > 1 else None]  # walked before the second call
            walked = sum(rows * h for rows, h in first)
            assert walked <= 2 * needed[0][1], (family.label(), n, walked / needed[0][1])
