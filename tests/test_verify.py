import gc
import math
import weakref

import numpy as np
import pytest

from randroot import cli, families, kacrice, verify


def _count_tables(monkeypatch, built):
    """Record (family, n) of every table that ``verify`` or ``kacrice`` builds, and pass the table to ``built``."""
    build = verify.coefficient_table
    keys = []

    def counted(family, n, *args, **kwargs):
        keys.append((family, n))
        table = build(family, n, *args, **kwargs)
        built(table)
        return table

    monkeypatch.setattr(verify, "coefficient_table", counted)
    monkeypatch.setattr(kacrice, "coefficient_table", counted)
    return keys


def test_suite_builds_each_table_once(monkeypatch):
    keys = _count_tables(monkeypatch, lambda table: None)
    assert all(passed for _, passed, _ in verify.run_suite("full"))
    assert len(keys) == len(set(keys)) == 126


def test_nothing_the_suite_builds_outlives_it(monkeypatch):
    # the tables, and the arrays a kernel keeps of them, die with the suite by
    # reference counting alone: no cache or reference cycle holds them
    refs = []

    def keep(table):
        refs.extend(weakref.ref(obj) for obj in (table, table.log_sq_coeff, table.log_ratio))
        return table

    _count_tables(monkeypatch, keep)
    reverse = verify.reciprocal_table
    monkeypatch.setattr(verify, "reciprocal_table", lambda table: keep(reverse(table)))
    gc.disable()
    try:
        verify.run_suite("full")
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert refs and alive == 0


def _shift_logs(log_m, s1, f, log_amb):
    return log_m + 1e-8, s1, f, log_amb + 1e-8


def _scale_ratio(log_m, s1, f, log_amb):
    return log_m, s1 * (1 + 1e-6), f, log_amb


def _scale_density(log_m, s1, f, log_amb):
    return log_m, s1, f * (1 + 1e-8), log_amb


def _reverse_density(log_m, s1, f, log_amb):
    return log_m, s1, f[::-1], log_amb


def _nan_ratio(log_m, s1, f, log_amb):
    return log_m, np.full_like(s1, math.nan), f, log_amb


def _swap_density(log_m, s1, f, log_amb):
    # f at two neighbouring envelope points of the suite grid, x ~ 0.58 and 0.66,
    # swapped: it rises between them, inside the sandwich and under the envelope
    if len(f) != len(verify._SUITE_X):
        return log_m, s1, f, log_amb
    i = verify._COLUMN[verify._ENVELOPE_X[7]]
    assert verify._SUITE_X[i + 1] == verify._ENVELOPE_X[8] < 1.0
    f = f.copy()
    f[i], f[i + 1] = f[i + 1], f[i]
    return log_m, s1, f, log_amb


_CHECKS = ["variance_jacobi_identity", "gram_double_sum_identity", "derivative_recurrence", "density_endpoints",
           "density_envelope", "density_symmetry", "quadrature_reciprocity"]


def _failing(out):
    """The checks that ``randroot verify`` prints as FAIL, after asserting that all others PASS."""
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == _CHECKS
    assert all(line == f"PASS {line.split()[1]}" or line.startswith("FAIL ") for line in lines)
    return {line.split()[1] for line in lines if line.startswith("FAIL ")}


@pytest.mark.parametrize("fault,failing", [
    (_shift_logs, {"variance_jacobi_identity", "gram_double_sum_identity"}),
    (_scale_ratio, {"derivative_recurrence"}),  # a shift of log M alone cancels in M_(n-1)/M_n
    (_scale_density, {"density_endpoints", "quadrature_reciprocity"}),
    (_reverse_density, {"density_endpoints", "density_envelope", "quadrature_reciprocity"}),
    (_nan_ratio, {"derivative_recurrence"}),  # a NaN deviation fails; max(0.0, nan) kept 0.0
    (_swap_density, {"density_envelope"}),
])
def test_planted_kernel_faults_fail_their_checks(fault, failing, monkeypatch, capsys):
    build = verify._table_kernel

    def faulty(table):
        k = build(table)
        return k._replace(rows=lambda xs: tuple(fault(*k.rows(xs))))

    monkeypatch.setattr(verify, "_table_kernel", faulty)
    assert cli.main(["verify", "--level", "fast"]) == 3
    out = capsys.readouterr().out
    assert _failing(out) == failing
    if fault is _swap_density:  # the monotone-decay test, the last of the envelope check's three
        assert "FAIL density_envelope  (density not nonincreasing on (0, inf))" in out.splitlines()


@pytest.mark.parametrize("level", ["fast", "full"])
def test_suite_passes_with_every_window_sized(level, monkeypatch, capsys):
    # the suite's degrees up to 30 take whole-table windows, and only the
    # recurrence degrees 129 and 130 of --level fast estimated ones; with no
    # threshold every window comes from the width estimate of _half_widths
    monkeypatch.setattr(kacrice, "_WHOLE_TABLE_N", 0)
    assert cli.main(["verify", "--level", level]) == 0
    assert _failing(capsys.readouterr().out) == set()


def test_quartered_windows_fail_the_suite(monkeypatch, capsys):
    # each estimated window cut to a quarter of its width, rounded up, and the
    # whole-table ones left whole: the recurrence degrees 129 and 130 of
    # --level fast fail the two checks that read them, with no patch of the
    # threshold.  With no threshold every check fails but the symmetry check,
    # which reads the tables alone
    estimate = kacrice._half_widths

    def quartered(c, peak, d0):
        widths = estimate(c, peak, d0)
        return widths if len(c.left) - 2 <= kacrice._WHOLE_TABLE_N else (widths + 3) // 4

    monkeypatch.setattr(kacrice, "_half_widths", quartered)
    assert cli.main(["verify", "--level", "fast"]) == 3
    assert _failing(capsys.readouterr().out) == {"derivative_recurrence", "density_endpoints"}
    monkeypatch.setattr(kacrice, "_WHOLE_TABLE_N", 0)
    assert cli.main(["verify", "--level", "fast"]) == 3
    assert _failing(capsys.readouterr().out) == set(_CHECKS) - {"density_symmetry"}


def test_symmetry_fails_on_a_one_ulp_ratio(monkeypatch, capsys):
    # one entry of log_ratio off by one ulp in every alpha != beta table breaks the reversal contract
    def nudged(table):
        if table.family.alpha == table.family.beta:
            return table
        log_ratio = table.log_ratio.copy()
        log_ratio[0] = np.nextafter(log_ratio[0], math.inf)
        return families._frozen_table(table.family, table.n, table.log_sq_coeff, log_ratio)

    build = verify.coefficient_table
    monkeypatch.setattr(verify, "coefficient_table", lambda family, n: nudged(build(family, n)))
    assert cli.main(["verify", "--level", "fast"]) == 3
    assert _failing(capsys.readouterr().out) == {"density_symmetry"}


@pytest.mark.parametrize("level", ["fast", "full"])
def test_envelope_reports_its_real_margin(level):
    # the PASS detail is the largest f/envelope - 1 over the check's keys, at
    # alpha = beta = 2.5, n = 2 for both levels; a fault that raised f by up to
    # 6% would show in it
    details = {name: (passed, detail) for name, passed, detail in verify.run_suite(level)}
    assert details["density_envelope"] == (True, "worst envelope excess -6.490e-02")
