import ast
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

from randroot import jacobi
from randroot.errors import NumericError, ParameterDomainError
from randroot.families import alpha_beta_family, coefficient_table
from randroot.jacobi import (
    _recurrence,
    _value_and_derivative,
    density_endpoints,
    density_via_roots,
    jacobi_derivative,
    jacobi_eval,
    jacobi_roots,
    log_variance_via_jacobi,
    root_bounds,
    ultraspherical_bounds,
)
from randroot.kacrice import density, expected_roots_real_line, kac_rice_eval
from randroot.verify import derivative_recurrence_residual

AB_GRID = [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5), (2.5, 2.5), (-0.6, -0.4)]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def jacobi_sum_mp(n, alpha, beta, x, dps=60):
    """Explicit binomial-sum definition in high precision (cancellation-free
    only thanks to the working precision)."""
    mp.mp.dps = dps
    a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
    total = mp.mpf(0)
    for i in range(n + 1):
        c1 = mp.gamma(n + a + 1) / (mp.gamma(n - i + 1) * mp.gamma(a + i + 1))
        c2 = mp.gamma(n + b + 1) / (mp.gamma(i + 1) * mp.gamma(n + b - i + 1))
        total += c1 * c2 * ((x - 1) / 2) ** i * ((x + 1) / 2) ** (n - i)
    return total


def root_near_mp(n, alpha, beta, guess):
    """The root of J_n^(alpha,beta) next to `guess`, to 50 digits: secant steps
    on the textbook three-term recurrence run in 50-digit arithmetic."""
    with mp.workdps(50):
        a, b = mp.mpf(alpha), mp.mpf(beta)

        def value(x):
            p_prev, p = mp.mpf(1), ((a + b + 2) * x + (a - b)) / 2
            for k in range(2, n + 1):
                c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
                c2 = (2 * k + a + b - 1) * ((2 * k + a + b) * (2 * k + a + b - 2) * x + a * a - b * b)
                c3 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
                p_prev, p = p, (c2 * p - c3 * p_prev) / c1
            return p

        h = mp.mpf(2) ** -60
        return mp.findroot(value, (mp.mpf(guess) - h, mp.mpf(guess) + h), solver="secant")


def bisect_root_mp(n, alpha, beta, lo, hi, dps=60):
    """The root of J_n^(alpha,beta) in (lo, hi) by bisection, on the textbook
    three-term recurrence run in ``dps``-digit arithmetic, to 1e-30."""
    with mp.workdps(dps):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        steps = []
        for k in range(2, n + 1):
            s = 2 * k + a + b
            steps.append((2 * k * (k + a + b) * (s - 2), (s - 1) * s * (s - 2), (s - 1) * (a * a - b * b),
                          2 * (k + a - 1) * (k + b - 1) * s))

        def value(x):
            p_prev, p = mp.mpf(1), ((a + b + 2) * x + (a - b)) / 2
            for c1, c2_x, c2_0, c3 in steps:
                p_prev, p = p, ((c2_x * x + c2_0) * p - c3 * p_prev) / c1
            return p

        lo, hi = mp.mpf(lo), mp.mpf(hi)
        f_lo = value(lo)
        assert f_lo * value(hi) < 0, "bisection oracle needs a sign change"
        while hi - lo > mp.mpf(10) ** -30:
            mid = (lo + hi) / 2
            f_mid = value(mid)
            if f_mid * f_lo > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return (lo + hi) / 2


def ulps_from(got, exact):
    with mp.workdps(50):
        return float(abs(mp.mpf(got) - exact)) / math.ulp(got)


def bisect_roots(n, alpha, beta, samples=20001):
    """Sign-change bisection on the recurrence evaluation."""
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, samples)
    ys = jacobi_eval(n, alpha, beta, xs)
    roots = []
    for lo, hi in zip(xs[:-1], xs[1:]):
        if jacobi_eval(n, alpha, beta, lo) * jacobi_eval(n, alpha, beta, hi) < 0:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if jacobi_eval(n, alpha, beta, lo) * jacobi_eval(n, alpha, beta, mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    assert len(roots) == n, "bisection oracle lost a root"
    return np.array(roots)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_trivial_degrees():
    assert jacobi_eval(0, 0.3, -0.7, 0.123) == 1.0
    for alpha in (-0.5, 0.0, 2.0):
        for x in (-0.8, 0.1, 0.9):
            assert jacobi_eval(1, alpha, alpha, x) == pytest.approx((1 + alpha) * x, rel=1e-15)


def test_eval_legendre_root():
    assert jacobi_eval(2, 0.0, 0.0, 1.0 / math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("alpha,beta", AB_GRID)
def test_eval_matches_explicit_sum(alpha, beta):
    for n in (1, 2, 5, 11, 20):
        for x in (-0.95, -0.2, 0.4, 0.99, 1.7, 4.0):
            want = float(jacobi_sum_mp(n, alpha, beta, x))
            got = jacobi_eval(n, alpha, beta, x)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for n, alpha, beta in ((3, 0.0, 0.0), (7, 1.0, 0.5), (10, -0.5, 2.0)):
        for x in (-0.6, 0.2, 0.8):
            fd = (jacobi_eval(n, alpha, beta, x + h) - jacobi_eval(n, alpha, beta, x - h)) / (2 * h)
            assert jacobi_derivative(n, alpha, beta, x) == pytest.approx(fd, rel=1e-8)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,alpha,beta", [(1, 0.3, -0.5), (5, 0.0, 0.0), (12, 0.5, 2.0), (40, -0.9, -0.5),
                                         (200, 1.0, 0.0)])
def test_fused_derivative_matches_jacobi_derivative(n, alpha, beta):
    # the Newton polish takes J_n' from J_n and J_(n-1) of one recurrence;
    # its roots cannot show a wrong J_n' (the step is about one ulp), so the
    # identity is checked here, away from the roots
    xs = np.linspace(-0.95, 0.95, 37)
    value, deriv, e = _value_and_derivative(n, alpha, beta, xs)
    assert np.array_equal(np.ldexp(value, e), jacobi_eval(n, alpha, beta, xs))
    want = jacobi_derivative(n, alpha, beta, xs)
    np.testing.assert_allclose(np.ldexp(deriv, e), want, rtol=1e-11, atol=0)


def test_roots_trivial_and_legendre():
    rs = jacobi_roots(1, 0.7, 0.7)
    assert rs.roots == pytest.approx([0.0], abs=1e-16)
    assert rs.r == pytest.approx([1.0], rel=1e-15)
    rs = jacobi_roots(2, 0.0, 0.0)
    assert rs.roots == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)


def test_roots_match_bisection_oracle():
    rs = jacobi_roots(3, 1.0, 0.0)
    assert np.max(np.abs(rs.roots - bisect_roots(3, 1.0, 0.0))) < 1e-12
    rs = jacobi_roots(6, -0.6, -0.4)  # alpha + beta = -1 degenerate recurrence start
    assert np.max(np.abs(rs.roots - bisect_roots(6, -0.6, -0.4))) < 1e-12


def test_chebyshev_closed_form():
    n = 9
    rs = jacobi_roots(n, -0.5, -0.5)
    want = np.sort(np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n)))
    assert np.max(np.abs(rs.roots - want)) < 1e-13


@pytest.mark.parametrize("alpha,beta", AB_GRID)
def test_root_set_invariants(alpha, beta):
    for n in (1, 2, 7, 25, 50):
        rs = jacobi_roots(n, alpha, beta)
        assert (rs.roots > -1.0).all() and (rs.roots < 1.0).all()
        assert (np.diff(rs.roots) > 0).all()
        assert (np.diff(rs.r) < 0).all() and (rs.r > 0).all()
        if alpha == beta:
            pair = rs.r * rs.r[::-1]
            assert np.max(np.abs(pair - 1.0)) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.5, -0.3)])
def test_root_interlacing(alpha, beta):
    for n in (3, 10, 27, 50):
        outer = jacobi_roots(n, alpha, beta).roots
        inner = jacobi_roots(n - 1, alpha, beta).roots
        assert ((outer[:-1] < inner) & (inner < outer[1:])).all()


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_variance_identity_hand_case():
    # n=1, alpha=beta=0: M(x) = 1 + x^2
    assert log_variance_via_jacobi(1, 0.0, 0.0, 0.5) == pytest.approx(math.log(1.25), rel=1e-15)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5)])
def test_variance_identity_cross_route(alpha, beta):
    family = alpha_beta_family(alpha, beta)
    for n in (1, 2, 5, 12, 20):
        table = coefficient_table(family, n)
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            via_jacobi = log_variance_via_jacobi(n, alpha, beta, x)
            direct = kac_rice_eval(table, x).log_m
            assert math.exp(via_jacobi - direct) == pytest.approx(1.0, abs=1e-10)
    # looser contract up to n = 50
    n = 50
    table = coefficient_table(family, n)
    for x in (0.2, 0.6, 0.9):
        via_jacobi = log_variance_via_jacobi(n, alpha, beta, x)
        direct = kac_rice_eval(table, x).log_m
        assert math.exp(via_jacobi - direct) == pytest.approx(1.0, abs=1e-8)


def test_variance_identity_past_the_float_range():
    # J_2000((1 + x^2)/(1 - x^2)) at x = 0.99 is about e^10582: the recurrence
    # rescales as it runs, and log M (about 2750) still matches the table route
    for alpha, beta in ((0.5, 2.0), (0.0, 0.0), (400.0, 400.0)):
        n, x = 2000, 0.99
        assert _recurrence(n, alpha, beta, (1 + x * x) / (1 - x * x))[2] > 0
        via_jacobi = log_variance_via_jacobi(n, alpha, beta, x)
        direct = kac_rice_eval(coefficient_table(alpha_beta_family(alpha, beta), n), x).log_m
        assert via_jacobi == pytest.approx(direct, rel=1e-14)


def test_eval_past_the_rescale_point():
    # P_200(5) is about 1e199: the recurrence divides down by powers of two,
    # which is exact, and jacobi_eval multiplies back
    with mp.workdps(30):
        want = float(mp.legendre(200, 5))
    assert want > 1e150
    assert jacobi_eval(200, 0.0, 0.0, 5.0) == pytest.approx(want, rel=1e-13)
    got = jacobi_eval(200, 0.0, 0.0, np.array([0.5, 5.0]))
    assert got[0] == jacobi_eval(200, 0.0, 0.0, 0.5) and got[1] == pytest.approx(want, rel=1e-13)


def test_variance_identity_domain():
    with pytest.raises(ParameterDomainError):
        log_variance_via_jacobi(3, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        log_variance_via_jacobi(3, 0.0, 0.0, -1.2)
    with pytest.raises(ParameterDomainError):  # every point of an array is checked
        log_variance_via_jacobi(3, 0.0, 0.0, np.array([0.5, np.nan]))


@pytest.mark.parametrize("call", [
    lambda: log_variance_via_jacobi(-3, 0.0, 0.0, 0.5),
    lambda: log_variance_via_jacobi(-1, 0.0, 0.0, 0.5),
    lambda: density_endpoints(0, 0.0, 0.0),
    lambda: density_endpoints(-1, 0.0, 0.0),
    lambda: density_endpoints(2.5, 0.0, 0.0),
    lambda: density_endpoints(5, math.inf, 0.0),
    lambda: ultraspherical_bounds(2.5, 0.0),
    lambda: ultraspherical_bounds(10, math.inf),
    lambda: root_bounds(2.5, 0.0, 0.0),
    lambda: jacobi_roots(2.5, 0.0, 0.0),
    lambda: jacobi_eval(2.5, 0.0, 0.0, 0.5),
    lambda: root_bounds(10, math.inf, 0.0),
    lambda: jacobi_roots(10, math.inf, 0.0),
    lambda: jacobi_derivative(3, -1.5, 0.0, 0.2),
    lambda: jacobi_derivative(0, 0.0, math.nan, 0.2),
], ids=["logvar-n-3", "logvar-n-1", "endpoints-n0", "endpoints-n-1", "endpoints-n2.5",
        "endpoints-inf", "ultra-n2.5", "ultra-inf", "bounds-n2.5", "roots-n2.5", "eval-n2.5",
        "bounds-inf", "roots-inf", "derivative-a-1.5", "derivative-b-nan"])
def test_bad_degree_or_parameter_raises_domain_error(call):
    # one degree rule and one alpha/beta rule for every function: an integer n
    # at or above its least, and finite alpha, beta > -1
    with pytest.raises(ParameterDomainError):
        call()


def test_degree_zero_where_it_is_allowed():
    assert jacobi_eval(0, 0.5, 2.0, 0.3) == 1.0
    assert log_variance_via_jacobi(0, 0.5, 2.0, 0.3) == 0.0
    assert jacobi_derivative(0, 0.5, 2.0, 0.3) == 0.0


def test_variance_identity_arrays_match_scalar_calls():
    # one recurrence for all points of an array; NumPy's log and log1p may
    # round otherwise than math's
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9, -0.5])
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5)):
        for n in range(0, 21):
            got = log_variance_via_jacobi(n, alpha, beta, xs)
            want = np.array([log_variance_via_jacobi(n, alpha, beta, x) for x in xs.tolist()])
            assert got.shape == xs.shape
            assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
    assert log_variance_via_jacobi(4, 0.5, 2.0, np.array(0.3)) == log_variance_via_jacobi(4, 0.5, 2.0, 0.3)


def test_density_via_roots_pinned_values():
    rs = jacobi_roots(1, 0.0, 0.0)
    assert density_via_roots(rs, 0.0) == pytest.approx(1.0, rel=1e-14)
    rs = jacobi_roots(2, 0.0, 0.0)
    assert density_via_roots(rs, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_density_via_roots_at_huge_x():
    # past x ~ 1.2e77, (x^2 + r)^2 overflowed: a RuntimeWarning, and 0 in place
    # of f ~ sqrt(sum r_k)/x^2 at 1e100; at 1e200 that limit is below the
    # double range, and 0 is right
    rs = jacobi_roots(10, 0.0, 0.0)
    tail = math.sqrt(math.fsum(rs.r.tolist()))
    for x in (1e20, 1e100, -1e150):
        assert density_via_roots(rs, x) == pytest.approx(tail / (x * x), rel=1e-14)
    assert density_via_roots(rs, 1e200) == 0.0
    np.testing.assert_array_equal(density_via_roots(rs, [1e200, -1e300, math.inf]), 0.0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5)])
def test_density_via_roots_cross_route(alpha, beta):
    family = alpha_beta_family(alpha, beta)
    xs = np.linspace(0.15, 3.0, 20)
    for n in (1, 3, 10, 28, 50):
        rs = jacobi_roots(n, alpha, beta)
        table = coefficient_table(family, n)
        via_roots = density_via_roots(rs, xs)
        direct = density(table, xs)
        assert np.max(np.abs(via_roots / direct - 1.0)) < 1e-8


def test_density_via_roots_at_degree_1e4():
    # alpha/beta (0.5, 2) at n = 10^4 (measured: within 2.7e-15).  The range
    # stops at [0.01, 100] because outside it the root sum itself loses
    # digits: r_k = (1 - s_k)/(1 + s_k) cancels for s_k near +-1, the cause of
    # the loss in ``root_bounds`` at large n.  At x = 1e-4 the two routes
    # differ by 4.7e-11, and at x = 0 the root sum is off by 1.6e-10 from the
    # closed form f(0) = sqrt(n(n+beta)/(1+alpha)), which ``density`` matches
    # to 8e-16.
    n, alpha, beta = 10**4, 0.5, 2.0
    rs = jacobi_roots(n, alpha, beta)  # ~2.5 s: built once
    xs = np.geomspace(0.01, 100.0, 41)
    direct = density(coefficient_table(alpha_beta_family(alpha, beta), n), xs)
    np.testing.assert_allclose(density_via_roots(rs, xs), direct, rtol=2e-14, atol=0)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_root_bounds_pinned_values():
    b = root_bounds(1, 0.3, 0.3)
    assert b.lower == pytest.approx(1.0, rel=1e-14)
    assert b.upper == pytest.approx(1.0, rel=1e-14)
    b = root_bounds(2, 0.0, 0.0)
    # closed forms with s_max = 1/sqrt(3)
    s = 1.0 / math.sqrt(3.0)
    assert b.lower == pytest.approx(math.sqrt(2) * (1 - s) / (1 + s), rel=1e-13)
    assert b.upper == pytest.approx(math.sqrt(2) * (1 + s) / (1 - s), rel=1e-13)
    assert b.lower == pytest.approx(0.378937, abs=1e-6)
    assert b.upper == pytest.approx(5.277917, abs=1e-6)
    assert b.method == "jacobi_root" and b.note == ""
    assert root_bounds(4, 1.0, 0.0).note != ""


@pytest.mark.parametrize("n,alpha,beta", [(1, 0.3, 0.3), (2, 0.0, 0.0), (25, 0.0, 0.0),
                                         (400, 0.5, 2.0), (50, -0.9, -0.9), (60, 1.0, 0.0),
                                         (1000, 0.0, 0.0), (1000, -0.999, 0.0), (300, 5.0, 5.0),
                                         (100, -0.999, -0.999), (1000, -0.999, -0.999),
                                         (400, -0.9999, 2.0)])
def test_root_bounds_carries_the_largest_root(n, alpha, beta):
    # root_bounds solves for s_max alone and jacobi_roots for all n roots; the
    # two polished values may differ in the last bit, and both must be right.
    # Near alpha = -1 a recurrence that forms (k + alpha) - 1 in floats loses
    # the digits of 1 + alpha and misses the root by hundreds of ulps.
    s_max = root_bounds(n, alpha, beta).s_max
    full = float(jacobi_roots(n, alpha, beta).roots[-1])
    assert abs(s_max - full) <= 2 * math.ulp(full)
    exact = root_near_mp(n, alpha, beta, s_max)
    assert ulps_from(s_max, exact) <= 2
    assert ulps_from(full, exact) <= 2
    assert ultraspherical_bounds(n, alpha).s_max is None


def test_roots_at_large_alpha_beta():
    # J_1000^(400,400) reaches ~1e350 on (-1, 1): the Newton step of both
    # solvers runs on the rescaled recurrence
    n, alpha = 1000, 400.0
    s_max = root_bounds(n, alpha, alpha).s_max
    full = jacobi_roots(n, alpha, alpha).roots[-1]
    exact = bisect_root_mp(n, alpha, alpha, s_max - 1e-14, s_max + 1e-14)
    assert ulps_from(s_max, exact) <= 2 and ulps_from(float(full), exact) <= 2
    assert abs(s_max - 0.95544000610076429) <= 2 * math.ulp(s_max)


def test_root_bounds_at_degree_1e5():
    # the largest root at n = 10^5, alpha = beta = 100 is bracketed within
    # 4 ulps by signs of the rescaled recurrence (J_n > 0 above s_max)
    n, alpha = 10**5, 100.0
    s_max = root_bounds(n, alpha, alpha).s_max
    gap = 4 * math.ulp(s_max)
    assert _recurrence(n, alpha, alpha, s_max - gap)[1] < 0 < _recurrence(n, alpha, alpha, s_max + gap)[1]


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_root_bounds_rejects_a_wild_eigenvalue(monkeypatch, bad):
    monkeypatch.setattr(jacobi, "eigvalsh_tridiagonal", lambda *args, **kwargs: np.array([bad]))
    with pytest.raises(NumericError):
        root_bounds(40, 0.0, 0.0)


def test_jacobi_roots_rejects_an_eigenvalue_at_the_interval_end():
    # one root, the eigenvalue exactly 1.0: it was polished with a division by
    # zero and returned as s = [1.0], r = [0.0]; root_bounds raises here too
    with pytest.raises(NumericError, match="root set failed validation"):
        jacobi_roots(1, -0.9999999999999999, 1e17)
    with pytest.raises(NumericError):
        root_bounds(1, -0.9999999999999999, 1e17)


def test_ultraspherical_bounds_pinned_values():
    b = ultraspherical_bounds(2, 0.0)
    assert b.lower == pytest.approx((2 / math.pi) * math.sqrt(4.0 / 3.0), rel=1e-14)
    assert b.upper == pytest.approx(
        (2 * math.sqrt(2) / math.pi) * (1 + math.log(2) + 0.5 * math.log(2)), rel=1e-14
    )
    assert b.method == "ultraspherical_closed_form"
    # n=50, alpha=0 reproduces the legacy full-line bracket up to its
    # (2n-1 vs 2n-3) lower-bound variant
    b = ultraspherical_bounds(50, 0.0)
    assert b.lower == pytest.approx(2 * 50 / (math.pi * math.sqrt(99)), rel=1e-13)
    assert b.upper == pytest.approx(
        (2 * math.sqrt(50) / math.pi) * (1 + math.log(2) + 0.5 * math.log(50)), rel=1e-13
    )


def test_bracket_containment():
    for n, alpha in ((2, 0.0), (10, 1.0), (25, 0.0), (40, -0.5)):
        en = expected_roots_real_line(alpha_beta_family(alpha, alpha), n, tol=1e-8)
        jac = root_bounds(n, alpha, alpha)
        ultra = ultraspherical_bounds(n, alpha)
        assert jac.lower <= en <= jac.upper
        assert ultra.lower <= en <= ultra.upper
    # asymmetric case, empirical containment
    en = expected_roots_real_line(alpha_beta_family(1.0, 0.0), 15, tol=1e-8)
    jac = root_bounds(15, 1.0, 0.0)
    assert jac.lower <= en <= jac.upper


# ---------------------------------------------------------------------------
# endpoints and the derivative recurrence
# ---------------------------------------------------------------------------

def test_density_endpoints_closed_forms():
    assert density_endpoints(2, 0.0, 0.0) == pytest.approx((2.0, 1.0 / math.sqrt(3.0)), rel=1e-14)
    f0, f1 = density_endpoints(1, 0.0, 0.0)
    assert f0 == pytest.approx(1.0, rel=1e-15)
    assert f1 == pytest.approx(0.5, rel=1e-15)  # cross-check: f(1) = 1/(1+1)


@pytest.mark.parametrize("alpha,beta", AB_GRID)
def test_density_endpoints_match_pointwise(alpha, beta):
    family = alpha_beta_family(alpha, beta)
    for n in (1, 3, 8):
        table = coefficient_table(family, n)
        f0, f1 = density_endpoints(n, alpha, beta)
        assert density(table, 0.0) == pytest.approx(f0, rel=1e-10)
        assert density(table, 1.0) == pytest.approx(f1, rel=1e-10)


@pytest.mark.parametrize("n,alpha,beta", [(3, 1e155, 1.0), (3, 1e155, 1e155), (1, 1e155, 1e155), (4, 1.0, 1e300)])
def test_density_endpoint_at_one_past_the_double_range_of_its_product(n, alpha, beta):
    # n (n+alpha)(n+beta)(n+alpha+beta) overflows a double, but f(1) does not: it
    # was returned as inf
    with mp.workdps(30):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        s = 2 * n + a + b
        last = 1 if n == 1 else (n + a + b) / (s - 1)
        want = float(mp.sqrt(n * (n + a) * (n + b) * last) / s)
    assert density_endpoints(n, alpha, beta)[1] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n,alpha,beta", [(4, -0.9999999999999999, 1e300), (10**6, 0.0, 1.7e308)])
def test_density_endpoint_at_zero_past_the_double_range_of_its_product(n, alpha, beta):
    # n (n+beta) / (1+alpha) overflows a double, but f(0) does not: it was returned as inf
    with mp.workdps(30):
        want = float(mp.sqrt(n * (n + mp.mpf(beta)) / (1 + mp.mpf(alpha))))
    assert density_endpoints(n, alpha, beta)[0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("call", [
    lambda: root_bounds(2, 1e155, 1.0),
    lambda: jacobi_roots(2, 1e155, 1.0),
    lambda: root_bounds(5, 1e150, 1.0),
    lambda: jacobi_roots(5, 1e100, 1e100),
], ids=["bounds-1e155", "roots-1e155", "bounds-1e150", "roots-1e100"])
def test_recurrence_matrix_past_the_double_range_raises(call):
    # a term of the matrix past the double range left an inf or a 0 in it, with
    # RuntimeWarnings, or raised OverflowError from (2 + alpha + beta)^2
    with pytest.raises(NumericError, match="recurrence matrix .* does not fit in a double"):
        call()


@pytest.mark.parametrize(
    "n,alpha,beta,x,bound",
    [(3, 1.0, 2.0, 0.3, 1e-10), (2, 0.0, 0.0, 1.0, 1e-12), (10, 0.5, 0.5, 0.8, 1e-9)],
)
def test_derivative_recurrence_residual(n, alpha, beta, x, bound):
    assert derivative_recurrence_residual(n, alpha, beta, x) < bound


def test_derivative_recurrence_against_finite_difference():
    # independent check: the same combination built from numerically
    # differentiated M must also vanish
    n, alpha, beta, x, h = 5, 1.5, -0.3, 0.7, 1e-6
    family = alpha_beta_family(alpha, beta)

    def m_of(nn, y):
        return math.exp(kac_rice_eval(coefficient_table(family, nn), y).log_m)

    m_prime = (m_of(n, x + h) - m_of(n, x - h)) / (2 * h)
    s = 2 * n + alpha + beta
    lhs = x * s * m_prime
    rhs = n * (s + beta - alpha) * m_of(n, x) - 2 * (1 - x * x) * (n + alpha) * (n + beta) * m_of(n - 1, x)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_jacobi_imports_only_errors_from_the_package():
    # jacobi is an oracle for the Kac-Rice kernel, so it must not import it
    tree = ast.parse(pathlib.Path(jacobi.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("randroot")):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(alias.name for alias in node.names if alias.name.startswith("randroot"))
    assert package == {".errors"}
