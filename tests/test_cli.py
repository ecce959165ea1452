import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import randroot
from randroot import cli, jacobi
from randroot.cli import Table, main, render_csv
from randroot.families import alpha_beta_family, coefficient_table, gamma_family
from randroot.kacrice import kac_rice_eval, kac_triple


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expect_elliptic_full_line(capsys):
    code, out, _ = run_cli(capsys, "expect", "--class", "elliptic", "--n", "100")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "n,value,abs_err,evaluations"
    n, value, abs_err, evaluations = row.split(",")
    assert n == "100"
    assert abs(float(value) - 10.0) < 1e-9
    assert float(abs_err) < 1e-8
    assert int(evaluations) > 0


def test_expect_degree_one(capsys):
    code, out, _ = run_cli(capsys, "expect", "--class", "gamma", "--gamma", "1", "--n", "1")
    assert code == 0
    assert abs(float(out.strip().split("\n")[1].split(",")[1]) - 1.0) < 1e-10


def test_expect_interval_tokens(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "--class", "legendre", "--n", "6",
        "--interval", "1", "inf",
    )
    assert code == 0
    inner_code, inner_out, _ = run_cli(
        capsys, "expect", "--class", "legendre", "--n", "6",
        "--interval", "0", "1",
    )
    outer = float(out.strip().split("\n")[1].split(",")[1])
    inner = float(inner_out.strip().split("\n")[1].split(",")[1])
    assert abs(outer - inner) < 1e-8  # x -> 1/x symmetry of the legendre class


def test_expect_negative_and_infinite_tokens(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "--class", "legendre", "--n", "6", "--interval", "-inf", "inf",
    )
    assert code == 0
    full = float(out.strip().split("\n")[1].split(",")[1])
    code, out, _ = run_cli(
        capsys, "expect", "--class", "legendre", "--n", "6", "--interval", "-2", "2",
    )
    assert code == 0
    finite = float(out.strip().split("\n")[1].split(",")[1])
    assert 0 < finite < full


def test_expect_kac_large_degree_is_fast(capsys):
    code, out, _ = run_cli(capsys, "expect", "--class", "kac", "--n", "100000")
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[1])
    assert abs(value - (2 / math.pi) * math.log(100000) - 0.6257) < 0.01


def test_density_schema_and_precision(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--class", "alpha-beta", "--alpha", "0", "--beta", "1",
        "--n", "2", "--grid", "-1:1:3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,log_M,S1,S2"
    assert len(lines) == 4
    mid = lines[2].split(",")
    assert float(mid[0]) == 0.0
    assert abs(float(mid[1]) - math.sqrt(6.0)) < 1e-12
    assert float(mid[3]) == 0.0  # S1(0) = 0
    # full double precision survives the round trip
    f_at_one = float(lines[3].split(",")[1])
    assert f"{f_at_one:.17g}" == lines[3].split(",")[1]
    # S1 is odd: row at -1 mirrors row at +1
    left, right = lines[1].split(","), lines[3].split(",")
    assert left[1] == right[1] and left[2] == right[2]
    assert float(left[3]) == -float(right[3])


def test_density_tiny_x_rows_are_finite(capsys):
    # gamma=1, n=50: as x -> 0, f -> a_1/a_0 = 50, S1 = B/M ~ 2500 x, S2 = A/M -> 2500;
    # log-gamma puts ~1e-14 relative error on a_1^2/a_0^2
    code, out, _ = run_cli(
        capsys, "density", "--class", "gamma", "--gamma", "1", "--n", "50",
        "--grid", "0:1e-200:3",
    )
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    for x, f, log_m, s1, s2 in rows:
        assert all(math.isfinite(v) for v in (f, log_m, s1, s2))
        assert f == pytest.approx(50.0, rel=1e-13)
        assert log_m == 0.0
        assert s1 == pytest.approx(2500.0 * x, rel=1e-13)
        assert s2 == pytest.approx(2500.0, rel=1e-13)


def test_density_past_the_double_range_exits_three(capsys):
    # f(0) = a_1/a_0 = 50^400 does not fit in a double
    code, out, err = run_cli(capsys, "density", "--class", "gamma", "--gamma", "400", "--n", "50",
                             "--grid", "0:1:3")
    assert code == 3
    assert out == ""
    assert err.startswith("randroot: numeric failure: f(0)") and "Traceback" not in err


def test_mc_eigen_solve_failure_exits_three(capsys, monkeypatch):
    # a companion eigen-solve that does not converge stops the run; it is not redrawn
    def fail(companions):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code, out, err = run_cli(capsys, "mc", "--class", "gamma", "--gamma", "1", "--n", "20",
                             "--trials", "5")
    assert code == 3
    assert out == ""
    assert err == "randroot: numeric failure: trial 0: companion eigen-solve failed: Eigenvalues did not converge\n"


@pytest.mark.parametrize("grid", ["1e-320:1e-310:3", "5e-311:1e-310:2"])
def test_density_past_the_double_range_away_from_zero_exits_three(capsys, grid):
    # gamma = 400, n = 6: f ~ a_1/a_0 = 6^400 over the whole grid, the limit
    # row at 1e-320 and the window sums above it; both printed inf and exited 0
    code, out, err = run_cli(capsys, "density", "--class", "gamma", "--gamma", "400", "--n", "6",
                             "--grid", grid)
    assert code == 3
    assert out == ""
    assert err.startswith("randroot: numeric failure: f") and "Traceback" not in err


def test_density_prints_an_overflowing_s2_as_inf_quietly(capsys):
    # S2 = f^2 + S1^2 ~ 50^200 is past the double range while f is not
    code, out, err = run_cli(capsys, "density", "--class", "gamma", "--gamma", "100", "--n", "50",
                             "--grid", "0:1e-300:3")
    assert code == 0
    assert err == ""
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(f) and s2 == math.inf for _, f, _, _, s2 in rows)


@pytest.mark.parametrize("cls,family,n", [
    (("gamma", "--gamma", "1"), gamma_family(1.0), 50),
    (("alpha-beta", "--alpha", "0.5", "--beta", "2"), alpha_beta_family(0.5, 2.0), 40),
    (("kac",), None, 50),
    (("kac",), None, 1),
], ids=["gamma1", "ab", "kac50", "kac1"])
def test_density_grid_matches_pointwise(capsys, cls, family, n):
    # one array call over the grid against one call per point: negative x
    # (S1 flipped), x = 0 (exact limits) and x > 1 (the reflected side).
    # log M reads log a_i^2 at each point's own peak, so the grid's is the
    # one-point call's, bit for bit (an anchor at the grid's lowest peak left
    # cells here up to 2 ulps apart)
    code, out, _ = run_cli(capsys, "density", "--class", *cls, "--n", str(n), "--grid", "-3:3:61")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == 61 and rows[30][0] == 0.0
    table = None if family is None else coefficient_table(family, n)
    for x, f, log_m, s1, s2 in rows:
        t = kac_triple(n, abs(x)) if table is None else kac_rice_eval(table, abs(x))
        if x == 0.0:
            assert (f, log_m, s1, s2) == (t.f, t.log_m, 0.0, t.s2)
        assert f == pytest.approx(t.f, rel=4e-15)
        assert log_m == t.log_m
        assert s1 == pytest.approx(math.copysign(t.s1, x), rel=4e-15)
        assert s2 == pytest.approx(t.s2, rel=4e-15)
    f0 = 1.0 if table is None else math.exp(0.5 * table.log_ratio[0])
    assert rows[30][1:] == [f0, 0.0 if table is None else table.log_sq_coeff[0], 0.0, f0 * f0]


def test_render_csv_fast_path_matches_fmt_csv():
    # a numpy float is a float, so it prints as its Python value would
    row = (1.5, np.float64(2.5), 3, None, math.nan, math.inf, -math.inf, -0.0, 0.1, 1e-300,
           5e-324, np.float64(math.nan), "txt")
    cols = tuple(f"c{i}" for i in range(len(row)))
    want = "1.5,2.5,3,,nan,inf,-inf,-0,0.10000000000000001,1e-300,4.9406564584124654e-324,nan,txt"
    assert render_csv([Table("t", cols, [row])]) == ",".join(cols) + "\n" + want + "\n"


def test_render_csv_float_rows_match_fmt_csv():
    # a row of floats goes through one template, any other cell by cell: the
    # bytes are those of _fmt_csv in both cases
    rng = np.random.default_rng(8)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 0.1, 1e300, 2.0**53, -1.5]
    floats = [tuple(rng.choice(specials + rng.normal(0.0, 1e3, 5).tolist(), 5).tolist()) for _ in range(50)]
    mixed = [(3, 0.5, None, "txt", np.float64(0.25)), (1.0, 2.0, 3.0, 4.0, 10**20), (True, 1.0, 1.0, 1.0, 1.0)]
    table = Table("t", tuple("abcde"), floats + mixed)
    want = "a,b,c,d,e\n" + "\n".join(",".join(map(cli._fmt_csv, row)) for row in table.rows) + "\n"
    assert render_csv([table]) == want


def test_bounds_runs_one_eigensolve(capsys, monkeypatch):
    calls = {"eig": [], "roots": 0}
    eig, roots = jacobi.eigvalsh_tridiagonal, jacobi.jacobi_roots

    def counted_eig(*args, **kwargs):
        calls["eig"].append(kwargs.get("select"))
        return eig(*args, **kwargs)

    def counted_roots(*args, **kwargs):
        calls["roots"] += 1
        return roots(*args, **kwargs)

    monkeypatch.setattr(jacobi, "eigvalsh_tridiagonal", counted_eig)
    monkeypatch.setattr(jacobi, "jacobi_roots", counted_roots)
    for cls in (("legendre",), ("alpha-beta", "--alpha", "0.5", "--beta", "2")):
        calls.update(eig=[], roots=0)
        code, out, _ = run_cli(capsys, "bounds", "--class", *cls, "--n", "40")
        assert code == 0
        assert calls == {"eig": ["i"], "roots": 0}
        a, b = (0.0, 0.0) if len(cls) == 1 else (0.5, 2.0)
        s_max = out.strip().split("\n")[1].split(",")[5]
        assert s_max == f"{jacobi.root_bounds(40, a, b).s_max:.17g}"


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_bounds_wild_eigenvalue_exits_three(capsys, monkeypatch, bad):
    monkeypatch.setattr(jacobi, "eigvalsh_tridiagonal", lambda *args, **kwargs: np.array([bad]))
    code, out, err = run_cli(capsys, "bounds", "--class", "legendre", "--n", "40")
    assert code == 3
    assert out == ""
    assert "largest root" in err


def test_bounds_without_scipy_fails_on_the_import(monkeypatch):
    # a missing SciPy surfaces as the ImportError, not as exit 3 (numeric failure)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError):
        main(["bounds", "--class", "legendre", "--n", "40"])
    with pytest.raises(ImportError):
        jacobi.jacobi_roots(5, 0.0, 0.0)


def test_bounds_at_large_alpha_beta(capsys):
    # J_1000^(400,400) overflows a float on (-1, 1); the bracket must still
    # come out, with s_max the correctly rounded root, and hold the count
    cls = ("--class", "alpha-beta", "--alpha", "400", "--beta", "400", "--n", "1000")
    code, out, err = run_cli(capsys, "bounds", *cls)
    assert code == 0 and err == ""
    _, jac_lo, jac_hi, ultra_lo, ultra_hi, s_max = map(float, out.strip().split("\n")[1].split(","))
    assert abs(s_max - 0.95544000610076429) <= 2 * math.ulp(s_max)
    code, out, _ = run_cli(capsys, "expect", *cls)
    assert code == 0
    count = float(out.strip().split("\n")[1].split(",")[1])
    assert jac_lo <= count <= jac_hi and ultra_lo <= count <= ultra_hi


def test_bounds_past_the_double_range_exits_three(capsys):
    # (2 + alpha + beta)^2 in the recurrence matrix raised OverflowError: a traceback and exit 1
    code, out, err = run_cli(capsys, "bounds", "--class", "alpha-beta", "--alpha", "1e155",
                             "--beta", "1", "--n", "2")
    assert (code, out) == (3, "")
    assert err == ("randroot: numeric failure: recurrence matrix for n=2, alpha=1e+155, beta=1.0 "
                   "does not fit in a double\n")


@pytest.mark.parametrize("argv, module, name", [
    (["expect", "--class", "elliptic", "--n", "50"], "kacrice", "_log_ratio_array"),
    (["density", "--class", "gamma", "--gamma", "1", "--n", "50", "--grid", "0:1:3"], "kacrice", "_log_ratio_array"),
    (["scaling", "--class", "gamma", "--gamma", "1", "--n-list", "50,100,200,400"], "kacrice", "_log_ratio_array"),
    (["mc", "--class", "gamma", "--gamma", "1", "--n", "50", "--trials", "1"], "montecarlo", "_log_sq"),
    (["bounds", "--class", "legendre", "--n", "50"], "jacobi", "_recurrence_matrix"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.29 TiB", "Unable to allocate 1.29 TiB"), ("", "out of memory")], ids=["numpy", "bare"])
def test_arrays_that_do_not_fit_exit_three(argv, module, name, message, line, capsys, monkeypatch):
    # a degree such as 177712870421 asks for arrays of 1.3 TiB, and NumPy's
    # MemoryError was a traceback and exit 1.  The error is planted where each
    # command first builds an O(n) array, so nothing large is allocated
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(getattr(randroot, module), name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"randroot: numeric failure: {line}\n"


def test_density_grid_past_the_array_size_exits_two(capsys):
    # 10^20 steps: np.linspace raises ValueError before it allocates anything
    grid = "0:1:99999999999999999999"
    code, out, err = run_cli(capsys, "density", "--class", "gamma", "--gamma", "1", "--n", "3", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"randroot: error: grid {grid!r} has more steps than an array can hold\n"


def test_density_kac_route(capsys):
    code, out, _ = run_cli(capsys, "density", "--class", "kac", "--n", "50000",
                           "--grid", "0:2:9")
    assert code == 0
    assert len(out.strip().split("\n")) == 10


def test_bounds_legendre(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--class", "legendre", "--n", "25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,jacobi_lower,jacobi_upper,ultra_lower,ultra_upper,s_max"
    row = lines[1].split(",")
    assert float(row[1]) < math.sqrt(2 * 25) < float(row[2])
    assert float(row[3]) < math.sqrt(2 * 25) < float(row[4])
    assert 0.0 < float(row[5]) < 1.0


def test_bounds_asymmetric_leaves_ultra_empty(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--class", "alpha-beta",
                           "--alpha", "1", "--beta", "0", "--n", "10")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "" and row[4] == ""


def test_bounds_rejects_gamma_family(capsys):
    code, _, err = run_cli(capsys, "bounds", "--class", "gamma", "--gamma", "1", "--n", "10")
    assert code == 2
    assert "alpha/beta" in err


def test_mc_output_and_determinism(capsys):
    args = ("mc", "--class", "gamma", "--gamma", "1", "--n", "8", "--trials", "300")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # fixed default seed, byte-identical
    blocks = out1.strip().split("\n\n")
    assert blocks[0].split("\n")[0] == "trials,mean,std_error,parity_repairs,seed"
    assert blocks[1].split("\n")[0] == "count,frequency"
    freqs = [int(line.split(",")[1]) for line in blocks[1].split("\n")[1:]]
    assert sum(freqs) == 300


def test_mc_ignores_thread_env(capsys, monkeypatch):
    args = ("mc", "--class", "elliptic", "--n", "6", "--trials", "120", "--seed", "5")
    monkeypatch.delenv("RANDROOT_THREADS", raising=False)
    code_unset, unset, _ = run_cli(capsys, *args)
    monkeypatch.setenv("RANDROOT_THREADS", "not-a-number")
    code_set, with_env, err = run_cli(capsys, *args)
    assert code_unset == code_set == 0
    assert with_env == unset and err == ""


def test_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "--class", "elliptic", "--n", "49", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "results", "diagnostics"}
    assert payload["config"]["class"] == "gamma(0.5)"
    assert payload["diagnostics"]["converged"] is True
    value = payload["results"]["expect"][0]["value"]
    assert abs(value - 7.0) < 1e-8
    assert json.loads(json.dumps(payload)) == payload


def test_scaling_output(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--class", "elliptic", "--n-list", "16,25,100,400"
    )
    assert code == 0
    blocks = out.strip().split("\n\n")
    per_n = blocks[0].split("\n")
    assert per_n[0] == "n,en,leading_order,ratio"
    assert len(per_n) == 5
    fit = blocks[1].split("\n")
    assert fit[0] == "slope,intercept,r_squared,max_rel_dev"
    assert abs(float(fit[1].split(",")[0]) - 0.5) < 1e-6


def test_scaling_failure_keeps_completed_rows(capsys, monkeypatch):
    from randroot import asymptotic
    from randroot.errors import QuadratureError

    complete = asymptotic.expected_roots_real_line

    def fails_from_100(family, n, tol):
        if n >= 100:
            raise QuadratureError("no convergence")
        return complete(family, n, tol)

    monkeypatch.setattr(asymptotic, "expected_roots_real_line", fails_from_100)
    code, out, _ = run_cli(
        capsys, "scaling", "--class", "elliptic", "--n-list", "16,25,100,400"
    )
    assert code == 3
    header, *rows = out.strip().split("\n")  # no fit block
    assert header == "n,en,leading_order,ratio"
    assert [row.split(",")[0] for row in rows] == ["16", "25"]
    for row in rows:
        n, en, lead, ratio = map(float, row.split(","))
        assert lead == math.sqrt(n) and ratio == en / lead


@pytest.mark.parametrize("message", ["Unable to allocate 1.29 TiB", ""], ids=["numpy", "bare"])
def test_scaling_keeps_its_rows_when_a_degree_does_not_fit(capsys, monkeypatch, message):
    # n = 177712870421 asks for 1.3 TiB of ratios, and the run exited 3 without
    # the rows it had completed.  The MemoryError is planted where the kernel
    # builds them, so nothing large is allocated; a failure at the first degree
    # still exits 3 with one stderr line (test_arrays_that_do_not_fit_exit_three)
    from randroot import kacrice

    build = kacrice._log_ratio_array

    def refuse_huge(family, n):
        if n > 10**9:
            raise MemoryError(message)
        return build(family, n)

    monkeypatch.setattr(kacrice, "_log_ratio_array", refuse_huge)
    argv = ("scaling", "--class", "gamma", "--gamma", "1", "--n-list", "50,100,200,177712870421")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (3, "")
    header, *rows = out.strip().split("\n")
    assert header == "n,en,leading_order,ratio"
    assert [row.split(",")[0] for row in rows] == ["50", "100", "200"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    error = json.loads(out)["diagnostics"]["error"]
    assert code == 3 and error.startswith(f"count failed at n=177712870421 ({message or 'out of memory'})")


def test_scaling_rejects_short_lists(capsys):
    code, _, err = run_cli(capsys, "scaling", "--class", "elliptic", "--n-list", "16,25")
    assert code == 2
    assert "4" in err


def test_scaling_rejects_degree_one_before_any_count(capsys, monkeypatch):
    from randroot import asymptotic

    def no_count(family, n, tol):
        raise AssertionError(f"computed the count at n={n}")

    monkeypatch.setattr(asymptotic, "expected_roots_real_line", no_count)
    code, out, err = run_cli(
        capsys, "scaling", "--class", "gamma", "--gamma", "1", "--n-list", "1,10000,1000000,4000000"
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["randroot: error: scaling fit needs n >= 2, got 1"]


def test_verify_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert out.split("\n") == [f"PASS {name}" for name in (
        "variance_jacobi_identity", "gram_double_sum_identity", "derivative_recurrence", "density_endpoints",
        "density_envelope", "density_symmetry", "quadrature_reciprocity")] + [""]


def test_verify_reciprocity_catches_a_wrong_reversed_table(capsys, monkeypatch):
    import randroot.verify as vr
    from randroot.families import CoefficientTable, reciprocal_table

    def perturbed(table):
        # a_1^2 scaled by e^0.05 consistently: in log a_1^2 and in the ratios
        # on either side of it
        rev = reciprocal_table(table)
        log_sq, log_ratio = rev.log_sq_coeff.copy(), rev.log_ratio.copy()
        log_sq[1] += 0.05
        log_ratio[0] += 0.05
        log_ratio[1] -= 0.05
        return CoefficientTable(rev.family, rev.n, log_sq, log_ratio)

    monkeypatch.setattr(vr, "reciprocal_table", perturbed)
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 3
    assert "FAIL quadrature_reciprocity" in out


def test_validation_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "expect", "--class", "gamma", "--n", "5")
    assert code == 2 and "gamma" in err
    code, _, err = run_cli(capsys, "expect", "--class", "kac", "--gamma", "1", "--n", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "expect", "--class", "elliptic", "--n", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--class", "kac", "--n", "5", "--grid", "0:1")
    assert code == 2
    code, _, err = run_cli(capsys, "expect", "--class", "elliptic", "--n", "5",
                           "--interval", "2", "junk")
    assert code == 2
    for argv in (["density", "--class", "kac", "--n", "0", "--grid", "0:1:3"],
                 ["mc", "--class", "kac", "--n", "0", "--trials", "3"],
                 ["mc", "--class", "kac", "--n", "5", "--trials", "0"],
                 ["scaling", "--class", "kac", "--n-list", "10,20,40,80", "--tol", "0"],
                 ["bounds", "--class", "legendre", "--n", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("randroot: error: "), argv


@pytest.mark.parametrize("argv,line", [
    (["density", "--class", "kac", "--n", "5", "--grid", "0:1:x"], "bad grid '0:1:x'"),
    (["density", "--class", "kac", "--n", "5", "--grid", "1:0:5"], "bad grid '1:0:5'"),
    (["density", "--class", "kac", "--n", "5", "--grid", "0:inf:5"], "bad grid '0:inf:5'"),
    (["scaling", "--class", "kac", "--n-list", "10,x,30,40"], "bad n list '10,x,30,40'"),
    (["scaling", "--class", "kac", "--n-list", ","], "empty n list"),
    (["expect", "--class", "alpha-beta", "--alpha", "1", "--n", "5"],
     "--class alpha-beta takes exactly --alpha and --beta"),
    (["expect", "--class", "legendre", "--n", "5", "--interval", "1", "bogus"],
     "bad interval endpoint 'bogus'"),
    # the one degree rule's line, which `bounds` printed as "degree must be >= 1, got 0"
    (["bounds", "--class", "legendre", "--n", "0"], "degree n must be an integer >= 1, got 0"),
])
def test_validation_error_lines(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"randroot: error: {line}\n")


@pytest.mark.parametrize("token,want", [
    ("inf", math.inf), ("+INF", math.inf), (" -Inf ", -math.inf), ("Infinity", math.inf), (" 2.5 ", 2.5),
])
def test_interval_endpoints_read_as_floats(token, want):
    assert cli._parse_endpoint(token) == want


def test_unknown_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expect", "--class", "elliptic", "--n", "5", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["not-a-command"])
    assert info.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "expect", "--class", "elliptic", "--n", "4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("n,value,abs_err,evaluations\n")
    assert "\r" not in text


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_two(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "expect", "--class", "kac", "--n", "5", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("randroot: error: cannot open --output") and err.count("\n") == 1
    assert "Traceback" not in err


_PLAIN_RUNS = [
    ["density", "--class", "gamma", "--gamma", "1", "--n", "30", "--grid", "-2:2:9"],
    ["expect", "--class", "alpha-beta", "--alpha", "0.5", "--beta", "2", "--n", "40"],
    ["expect", "--class", "kac", "--n", "40", "--interval", "-inf", "0.5"],
    ["bounds", "--class", "legendre", "--n", "20"],
    ["bounds", "--class", "alpha-beta", "--alpha", "0.5", "--beta", "2", "--n", "20"],
    ["mc", "--class", "gamma", "--gamma", "1", "--n", "10", "--trials", "20"],
    ["scaling", "--class", "kac", "--n-list", "10,20,40,80"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cells_and_diagnostics_are_plain_python_values(capsys, monkeypatch, fmt):
    # the renderers print what they get: a bool cell would print as True in CSV
    # and a numpy integer would break json.dumps, so runners hand over plain values
    seen = {"tables": [], "diagnostics": []}
    render_csv, render_json = cli.render_csv, cli.render_json

    def csv_spy(tables):
        seen["tables"] += tables
        return render_csv(tables)

    def json_spy(config, tables, diagnostics):
        seen["tables"] += tables
        seen["diagnostics"].append(diagnostics)
        return render_json(config, tables, diagnostics)

    monkeypatch.setattr(cli, "render_csv", csv_spy)
    monkeypatch.setattr(cli, "render_json", json_spy)
    for argv in _PLAIN_RUNS:
        assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
    assert {table.name for table in seen["tables"]} == {
        "density", "expect", "bounds", "summary", "histogram", "per_n", "fit"}
    cells = {type(cell) for table in seen["tables"] for row in table.rows for cell in row}
    assert cells <= {int, float, str, type(None)}
    diagnostics = {type(v) for d in seen["diagnostics"] for v in d.values()}
    assert diagnostics == ({bool, float, str} if fmt == "json" else set())


def test_main_builds_its_parser_once_with_the_output_of_fresh_parsers(monkeypatch, capsys):
    # main reuses one parser; a fresh parser per call must print the same
    # bytes and exit codes, across subcommands, argparse errors and JSON
    sequence = [
        ["expect", "--class", "gamma", "--gamma", "1", "--n", "20"],
        ["mc", "--class", "kac", "--n", "6", "--trials", "4", "--format", "json"],
        ["expect", "--class", "elliptic", "--n", "5", "--bogus"],
        ["density", "--class", "legendre", "--n", "8", "--grid", "-1:1:5", "--format", "json"],
        ["expect", "--class", "gamma", "--n", "5"],
        ["bounds", "--class", "alpha-beta", "--alpha", "0.5", "--beta", "2", "--n", "30"],
        ["not-a-command"],
        ["scaling", "--class", "legendre", "--n-list", "10,20,40,80", "--format", "json"],
        ["expect", "--class", "legendre", "--n", "6", "--interval", "1", "inf"],
        ["expect", "--class", "gamma", "--gamma", "1", "--n", "20"],
    ]

    def run_all():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    reused = run_all()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == reused
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0, 2, 0, 0, 0]


_NO_SCIPY_CHILD = """
import contextlib, io, json, sys
from randroot import cli

runs = [
    ["expect", "--class", "gamma", "--gamma", "1", "--n", "200"],
    ["expect", "--class", "alpha-beta", "--alpha", "0.5", "--beta", "2", "--n", "200"],
    ["expect", "--class", "legendre", "--n", "40"],
    ["density", "--class", "gamma", "--gamma", "2", "--n", "50", "--grid", "0:3:31"],
    ["mc", "--class", "alpha-beta", "--alpha", "-0.9", "--beta", "0.5", "--n", "20", "--trials", "20"],
    ["scaling", "--class", "gamma", "--gamma", "1", "--n-list", "10,20,40,80"],
    ["verify", "--level", "fast"],
]
outputs = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        outputs.append((cli.main(argv), out.getvalue()))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
with contextlib.redirect_stdout(io.StringIO()) as out:
    bounds = (cli.main(["bounds", "--class", "legendre", "--n", "40"]), out.getvalue())
print(json.dumps({"outputs": outputs, "scipy_before_bounds": loaded, "bounds": bounds,
                  "linalg_after_bounds": "scipy.linalg" in sys.modules}))
"""


def test_commands_other_than_bounds_never_import_scipy():
    # a fresh interpreter: expect, density, mc, scaling and verify load no
    # SciPy module; bounds loads scipy.linalg on its first eigen-solve
    src = str(pathlib.Path(randroot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD], capture_output=True, text=True,
                           env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert [code for code, _ in report["outputs"]] == [0] * 7
    assert report["scipy_before_bounds"] == []
    code, text = report["bounds"]
    assert code == 0 and report["linalg_after_bounds"]
    _, lower, upper, ultra_lower, ultra_upper, s_max = map(float, text.split("\n")[1].split(","))
    assert s_max == jacobi.root_bounds(40, 0.0, 0.0).s_max
    count = float(report["outputs"][2][1].split("\n")[1].split(",")[1])  # legendre, n = 40
    assert lower <= count <= upper and ultra_lower <= count <= ultra_upper
