"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.  Every tolerance is pinned here; the printed line carries the
measured worst-case value and the elapsed time against the criterion budget.
"""
import math
import time

import numpy as np

from randroot.asymptotic import log_gram_approx, log_variance_approx, scaling_fit
from randroot.families import (
    alpha_beta_family,
    coefficient_table,
    elliptic,
    gamma_family,
    kac,
    legendre,
)
from randroot.jacobi import (
    density_endpoints,
    density_via_roots,
    jacobi_roots,
    log_variance_via_jacobi,
    root_bounds,
    ultraspherical_bounds,
)
from randroot.kacrice import (
    density,
    expected_roots_real_line,
    kac_rice_eval,
)
from randroot.montecarlo import jensen_root_bound, mc_expected_roots, sample_polynomial
from randroot.verify import derivative_recurrence_residual


def report(tag: str, passed: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"{status} {tag}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: exceeded runtime budget ({elapsed:.1f}s)"


def test_c01_elliptic_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 4, 9, 16, 25, 49, 100, 144, 196):
        worst = max(worst, abs(expected_roots_real_line(elliptic(), n) - math.sqrt(n)))
    report("C01 elliptic-exactness", worst < 1e-7,
           f"max |E N - sqrt(n)| = {worst:.2e} (tol 1e-7)",
           time.perf_counter() - start, 10.0)


def test_c02_degree_one_exactness():
    start = time.perf_counter()
    classes = [kac(), elliptic(), gamma_family(1.0), gamma_family(2.0), legendre(),
               alpha_beta_family(1.0, 0.0), alpha_beta_family(0.5, 2.0),
               alpha_beta_family(-0.5, -0.5)]
    worst = max(abs(expected_roots_real_line(f, 1) - 1.0) for f in classes)
    report("C02 degree-one-exactness", worst < 1e-10,
           f"max |E N - 1| = {worst:.2e} (tol 1e-10) over {len(classes)} classes",
           time.perf_counter() - start, 1.0)


def test_c03_variance_jacobi_identity():
    start = time.perf_counter()
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5)):
        family = alpha_beta_family(alpha, beta)
        for n in range(1, 21):
            table = coefficient_table(family, n)
            for x in (0.1, 0.3, 0.5, 0.7, 0.9):
                direct = kac_rice_eval(table, x).log_m
                worst = max(worst, abs(math.expm1(
                    log_variance_via_jacobi(n, alpha, beta, x) - direct)))
    report("C03 variance-jacobi-identity", worst < 1e-10,
           f"max rel dev = {worst:.2e} (tol 1e-10)", time.perf_counter() - start, 5.0)


def brute_gram_fsum(log_sq, x):
    n = len(log_sq) - 1
    scale = float(log_sq.max())
    a_sq = np.exp(log_sq - scale)
    terms = [(i - j) ** 2 * a_sq[i] * a_sq[j] * float(x) ** (2 * (i + j - 1))
             for i in range(n + 1) for j in range(n + 1) if i != j]
    return math.log(0.5 * math.fsum(sorted(terms))) + 2.0 * scale


def test_c04_gram_double_sum_identity():
    start = time.perf_counter()
    families = [gamma_family(0.0), gamma_family(0.5), gamma_family(1.0), gamma_family(2.0),
                legendre(), alpha_beta_family(1.0, 0.0), alpha_beta_family(0.5, 2.0)]
    worst = 0.0
    for family in families:
        for n in range(1, 16):
            table = coefficient_table(family, n)
            for x in (0.1, 0.5, 1.0, 2.0):
                got = kac_rice_eval(table, x).log_amb
                want = brute_gram_fsum(table.log_sq_coeff, x)
                worst = max(worst, abs(math.expm1(got - want)))
    report("C04 gram-double-sum-identity", worst < 1e-12,
           f"max rel dev = {worst:.2e} (tol 1e-12)", time.perf_counter() - start, 5.0)


def test_c05_root_sum_density():
    start = time.perf_counter()
    xs = np.linspace(0.15, 3.0, 20)
    worst = 0.0
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5)):
        family = alpha_beta_family(alpha, beta)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
            rootset = jacobi_roots(n, alpha, beta)
            table = coefficient_table(family, n)
            worst = max(worst, float(np.max(np.abs(
                density_via_roots(rootset, xs) / density(table, xs) - 1.0))))
    report("C05 root-sum-density", worst < 1e-8,
           f"max rel dev = {worst:.2e} (tol 1e-8)", time.perf_counter() - start, 10.0)


def test_c06_bracket_containment():
    start = time.perf_counter()
    slack = 1e-9
    ok = True
    detail = ""
    for n in (2, 5, 10, 25, 50, 100):
        for alpha in (-0.5, 0.0, 1.0, 2.5):
            en = expected_roots_real_line(alpha_beta_family(alpha, alpha), n, tol=1e-9)
            jac = root_bounds(n, alpha, alpha)
            ultra = ultraspherical_bounds(n, alpha)
            if not (jac.lower - slack <= en <= jac.upper + slack
                    and ultra.lower - slack <= en <= ultra.upper + slack):
                ok = False
                detail = f"violated at n={n}, alpha={alpha}: en={en}"
                break
    en50 = expected_roots_real_line(gamma_family(1.0), 50, tol=1e-9)
    in_legacy = 3.2327 <= en50 <= 16.437
    if ok and not in_legacy:
        ok = False
        detail = f"gamma=1 n=50 count {en50} outside [3.2327, 16.437]"
    if ok:
        detail = f"all 24 brackets contain E N; gamma=1 n=50 count {en50:.4f} in [3.2327, 16.437]"
    report("C06 bracket-containment", ok, detail, time.perf_counter() - start, 60.0)


def test_c07_monte_carlo_agreement():
    start = time.perf_counter()
    configs = [(gamma_family(0.5), 16), (gamma_family(1.0), 10), (gamma_family(1.0), 20),
               (gamma_family(2.0), 10), (legendre(), 10), (alpha_beta_family(1.0, 0.0), 10)]
    worst_z, worst_rate = 0.0, 0.0
    for family, n in configs:
        exact = expected_roots_real_line(family, n, tol=1e-9)
        summary = mc_expected_roots(family, n, trials=10_000, seed=777)
        worst_z = max(worst_z, abs(summary.mean - exact) / summary.std_error)
        worst_rate = max(worst_rate, summary.parity_repairs / summary.trials)
    report("C07 monte-carlo-agreement", worst_z <= 3.0 and worst_rate < 0.001,
           f"max |z| = {worst_z:.2f} (tol 3), max parity-repair rate = {worst_rate:.2e}",
           time.perf_counter() - start, 120.0)


def test_c08_asymptotic_ratio():
    start = time.perf_counter()
    n = 5000
    ratios = {}
    for g in (0.5, 1.0, 2.0):
        ratios[f"gamma({g})"] = (expected_roots_real_line(gamma_family(g), n, tol=1e-8)
                                 / math.sqrt(2.0 * g * n))
    for a, b in ((0.0, 0.0), (2.0, 0.5)):
        ratios[f"ab({a},{b})"] = (expected_roots_real_line(alpha_beta_family(a, b), n, tol=1e-8)
                                  / math.sqrt(2.0 * n))
    ok = all(0.93 <= r <= 1.07 for r in ratios.values())
    detail = ", ".join(f"{k}={v:.4f}" for k, v in ratios.items()) + " (band [0.93, 1.07])"
    report("C08 asymptotic-ratio", ok, detail, time.perf_counter() - start, 120.0)


def test_c09_kac_phase_transition():
    start = time.perf_counter()
    fit = scaling_fit(kac(), [10**3, 10**3 + 1, 10**4, 10**5], tol=1e-9)
    slope_dev = abs(fit.slope * math.pi / 2.0 - 1.0)
    residuals = [en - (2.0 / math.pi) * math.log(n)
                 for n, en in zip(fit.n_values, fit.en_values)]
    spread = max(residuals) - min(residuals)
    report("C09 kac-phase-transition", slope_dev < 0.02 and spread < 0.02,
           f"slope dev = {slope_dev:.2e} (tol 0.02), residual spread = {spread:.2e} (tol 0.02)",
           time.perf_counter() - start, 30.0)


def test_c10_laplace_approximants():
    start = time.perf_counter()
    ok = True
    details = []
    for x in (0.5, 1.0):
        errs = []
        for n in (10**3, 10**4, 10**5):
            table = coefficient_table(gamma_family(1.0), n)
            exact = kac_rice_eval(table, x).log_m
            errs.append(abs(math.expm1(log_variance_approx(1.0, n, x).log_value - exact)))
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] < 0.05
        details.append(f"x={x}: errs {errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}")
    n = 4000
    table = coefficient_table(gamma_family(1.0), n)
    for x in (0.5, 1.0):
        exact = kac_rice_eval(table, x).log_amb
        approx = log_gram_approx(1.0, n, x)
        printed_err = abs(math.expm1(approx.log_value - exact))
        squared_err = abs(math.expm1(approx.log_value_squared_prefactor - exact))
        if printed_err < 0.10:
            details.append(f"gram x={x}: printed form ok ({printed_err:.1e})")
        else:
            # printed prefactor misses the exact double sum by a huge factor;
            # the squared-prefactor variant must then carry the 0.10 contract
            ok = ok and squared_err < 0.10
            details.append(
                f"gram x={x}: printed form off by exp({exact - approx.log_value:.0f}), "
                f"squared prefactor dev {squared_err:.1e} < 0.10"
            )
    report("C10 laplace-approximants", ok, "; ".join(details),
           time.perf_counter() - start, 60.0)


def test_c11_recurrence_and_endpoints():
    start = time.perf_counter()
    grid = ((0.0, 0.0), (1.0, 0.0), (0.5, 2.0), (-0.5, -0.5), (2.5, 2.5), (1.0, 2.0))
    worst_res, worst_end = 0.0, 0.0
    for alpha, beta in grid:
        for n in range(2, 11):
            for x in (0.3, 0.7, 1.0, 1.6):
                worst_res = max(worst_res, derivative_recurrence_residual(n, alpha, beta, x))
        family = alpha_beta_family(alpha, beta)
        for n in range(1, 11):
            table = coefficient_table(family, n)
            f0, f1 = density_endpoints(n, alpha, beta)
            worst_end = max(worst_end, abs(density(table, 0.0) / f0 - 1.0),
                            abs(density(table, 1.0) / f1 - 1.0))
    report("C11 recurrence-and-endpoints", worst_res < 1e-9 and worst_end < 1e-10,
           f"max residual = {worst_res:.2e} (tol 1e-9), max endpoint dev = {worst_end:.2e} (tol 1e-10)",
           time.perf_counter() - start, 5.0)


def test_c12_jensen_bound():
    start = time.perf_counter()
    n = 30
    r, big_r = n ** (-0.75), n ** (-2.0 / 3.0)
    violations = 0
    for trial in range(1000):
        rng = np.random.Generator(np.random.Philox(counter=[0, 0, 0, trial], key=424242))
        p = sample_polynomial(gamma_family(1.0), n, rng)
        observed = int((np.abs(np.roots(p.coeffs[::-1])) <= r).sum())
        if jensen_root_bound(p, r, big_r) < observed:
            violations += 1
    report("C12 jensen-bound", violations == 0,
           f"{violations}/1000 samples violate the ball bound (tol 0)",
           time.perf_counter() - start, 30.0)
