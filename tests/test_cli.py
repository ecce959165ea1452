import json
import math

import numpy as np
import pytest

from randroot import jacobi
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


@pytest.mark.parametrize("cls,family,n", [
    (("gamma", "--gamma", "1"), gamma_family(1.0), 50),
    (("alpha-beta", "--alpha", "0.5", "--beta", "2"), alpha_beta_family(0.5, 2.0), 40),
    (("kac",), None, 50),
    (("kac",), None, 1),
], ids=["gamma1", "ab", "kac50", "kac1"])
def test_density_grid_matches_pointwise(capsys, cls, family, n):
    # one array call over the grid against one call per point: negative x
    # (S1 flipped), x = 0 (exact limits) and x > 1 (the reflected side)
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
        assert log_m == pytest.approx(t.log_m, rel=4e-15, abs=1e-300)
        assert s1 == pytest.approx(math.copysign(t.s1, x), rel=4e-15)
        assert s2 == pytest.approx(t.s2, rel=4e-15)
    la = None if table is None else table.log_sq_coeff
    f0 = 1.0 if table is None else math.exp(0.5 * (la[1] - la[0]))
    assert rows[30][1:] == [f0, 0.0 if table is None else la[0], 0.0, f0 * f0]


def test_render_csv_fast_path_matches_fmt_csv():
    row = (1.5, np.float64(2.5), 3, np.int64(-4), True, np.bool_(False), None, math.nan,
           math.inf, -math.inf, -0.0, 0.1, 1e-300, 5e-324, np.float64(math.nan), "txt")
    cols = tuple(f"c{i}" for i in range(len(row)))
    want = ("1.5,2.5,3,-4,true,false,,nan,inf,-inf,-0,0.10000000000000001,1e-300,"
            "4.9406564584124654e-324,nan,txt")
    assert render_csv([Table("t", cols, [row])]) == ",".join(cols) + "\n" + want + "\n"


def test_bounds_runs_one_eigensolve(capsys, monkeypatch):
    calls = {"eig": 0, "roots": 0}
    eig, roots = jacobi.eigvalsh_tridiagonal, jacobi.jacobi_roots

    def counted_eig(*args, **kwargs):
        calls["eig"] += 1
        return eig(*args, **kwargs)

    def counted_roots(*args, **kwargs):
        calls["roots"] += 1
        return roots(*args, **kwargs)

    monkeypatch.setattr(jacobi, "eigvalsh_tridiagonal", counted_eig)
    monkeypatch.setattr(jacobi, "jacobi_roots", counted_roots)
    for cls in (("legendre",), ("alpha-beta", "--alpha", "0.5", "--beta", "2")):
        calls.update(eig=0, roots=0)
        code, out, _ = run_cli(capsys, "bounds", "--class", *cls, "--n", "40")
        assert code == 0
        assert calls == {"eig": 1, "roots": 1}
        a, b = (0.0, 0.0) if len(cls) == 1 else (0.5, 2.0)
        s_max = out.strip().split("\n")[1].split(",")[5]
        assert s_max == f"{float(roots(40, a, b).roots[-1]):.17g}"


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


def test_scaling_rejects_short_lists(capsys):
    code, _, err = run_cli(capsys, "scaling", "--class", "elliptic", "--n-list", "16,25")
    assert code == 2
    assert "4" in err


def test_verify_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_reciprocity_catches_a_wrong_reversed_table(capsys, monkeypatch):
    import randroot.kacrice as kr
    from randroot.families import CoefficientTable, reciprocal_table

    def perturbed(table):
        rev = reciprocal_table(table)
        log_sq = rev.log_sq_coeff.copy()
        log_sq[1] += 0.05
        return CoefficientTable(rev.family, rev.n, log_sq)

    monkeypatch.setattr(kr, "reciprocal_table", perturbed)
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
