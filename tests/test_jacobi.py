import math

import mpmath as mp
import numpy as np
import pytest

from randroot.errors import ParameterDomainError
from randroot.families import alpha_beta_family, coefficient_table
from randroot.jacobi import (
    density_endpoints,
    density_via_roots,
    derivative_recurrence_residual,
    jacobi_derivative,
    jacobi_eval,
    jacobi_roots,
    log_variance_via_jacobi,
    root_bounds,
    ultraspherical_bounds,
)
from randroot.kacrice import density, expected_roots_real_line, kac_rice_eval

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


def test_variance_identity_domain():
    with pytest.raises(ParameterDomainError):
        log_variance_via_jacobi(3, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        log_variance_via_jacobi(3, 0.0, 0.0, -1.2)


def test_density_via_roots_pinned_values():
    rs = jacobi_roots(1, 0.0, 0.0)
    assert density_via_roots(rs, 0.0) == pytest.approx(1.0, rel=1e-14)
    rs = jacobi_roots(2, 0.0, 0.0)
    assert density_via_roots(rs, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


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
