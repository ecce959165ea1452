import math

import mpmath as mp
import numpy as np
import pytest

from randroot.errors import ParameterDomainError, QuadratureError
from randroot.families import (
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
    relation_residuals,
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


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
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


# f at n = 50 from the convolution kernel this package used before the
# centred-variance one.  Its tiny-x values are the exact limit; near underflow
# its values carried the error of exp(0.5*log(A*M - B^2) - log M) with logs
# near 7e4, up to 3e-12 relative.
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
    # these points the neglected terms are below 1e-30 relative
    n = 50
    table = coefficient_table(family, n)
    la = table.log_sq_coeff
    at_zero = math.exp(0.5 * (la[1] - la[0]))
    at_inf = math.exp(0.5 * (la[n - 1] - la[n]))
    got = density(table, np.array(EXTREME_X))
    for x, f, before in zip(EXTREME_X, got, EXTREME_F_BEFORE[family.label()]):
        limit = at_zero if x < 1.0 else at_inf / x / x
        assert f == pytest.approx(limit, rel=1e-14)
        assert f == pytest.approx(before, rel=1e-14 if x < 1.0 else 1e-11)
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


def mp_density(log_sq, x, dps=50):
    """f = sqrt(A*M - B^2)/M from direct sums at ``dps`` digits, one pass over i."""
    mp.mp.dps = dps
    x = mp.mpf(x)
    x2 = x * x
    m = a = b = mp.mpf(0)
    power = mp.mpf(1)  # x^(2i)
    for i, v in enumerate(log_sq):
        term = mp.e ** mp.mpf(float(v)) * power
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
    # near x = 1 forming A*M - B^2 by subtraction would lose ~log10(n) digits;
    # the convolution kernel this package used before reached 5.6e-13 here
    table = coefficient_table(family, n)
    for x in (0.5, 0.99, 0.999, 1.0):
        want = mp_density(table.log_sq_coeff, x)
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
    assert t.log_amb == (la[0] + la[1] if n == 1 else math.inf)
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ParameterDomainError):
            density(table, bad)
    with pytest.raises(ParameterDomainError):
        kac_rice_eval(table, math.nan)


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


# ---------------------------------------------------------------------------
# derivative relations (finite-difference oracles)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,n,x,h,r1_rel,r2_rel",
    [
        (gamma_family(1.0), 4, 0.7, 1e-5, 1e-8, 1e-6),
        (alpha_beta_family(2.0, 2.0), 6, 1.0, 1e-5, 1e-8, 1e-6),
        (kac(), 3, 0.5, 1e-5, 1e-8, 1e-6),
    ],
    ids=["gamma1", "ab22", "kac"],
)
def test_relation_residuals(family, n, x, h, r1_rel, r2_rel):
    table = coefficient_table(family, n)
    t = kac_rice_eval(table, x)
    r1, r2 = relation_residuals(table, x, h)
    assert r1 / t.s1 < r1_rel
    assert r2 / t.s2 < r2_rel


def test_relation_residuals_default_step():
    table = coefficient_table(gamma_family(1.0), 5)
    r1, r2 = relation_residuals(table, 0.8)
    assert r1 < 1e-7 and r2 < 1e-6
    with pytest.raises(ParameterDomainError):
        relation_residuals(table, 0.0)


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
    # each distinct leg is integrated once: a symmetric family's reversed legs
    # are its direct ones, so the full line and (-1, 1) are one leg each
    expected_roots_interval(table, -1.0, 1.0, tol=1e-9)
    expected_roots_real_line_result(gamma_family(1.0), 20)
    assert calls == [(0.0, 1.0)] * 3
    calls.clear()
    expected_roots_real_line_result(alpha_beta_family(0.5, 2.0), 20)
    assert calls == [(0.0, 1.0)] * 2


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
