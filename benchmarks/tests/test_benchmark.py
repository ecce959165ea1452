"""The benchmark's own tests: run with ``python3 -m pytest benchmarks/tests``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import AB, DEFAULT_TOL, WORKLOADS, all_ops, build_ops  # noqa: E402

ORACLE = json.loads((BENCH_DIR / "oracle.json").read_text())["ops"]


def _run(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_mode_passes_every_oracle():
    done = _run(["--smoke"], ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert " FAIL" not in done.stdout


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_every_op_has_an_oracle_entry():
    for scale in ("full", "smoke"):
        for op in all_ops(scale, seed=3):
            assert op.id in ORACLE, op.id


def test_seed_sets_mc_seeds_only():
    a, b = build_ops("mc_counts", 1), build_ops("mc_counts", 2)
    assert [op.seed for op in a] != [op.seed for op in b]
    assert build_ops("mc_counts", 1) == a
    assert build_ops("expect_large_n", 1) == build_ops("expect_large_n", 2)


def test_quadrature_metrics_come_from_traced_spans():
    op = next(op for op in build_ops("expect_large_n", 0, "smoke") if op.cls == AB)
    tracer = layers.Tracer()
    with layers.patched(tracer):
        result = layers.kacrice.expected_roots_real_line_result(op.family(), op.n, DEFAULT_TOL)
    profile = layers.quadrature_profile(tracer.spans)
    legs, calls, integrand_s, quadrature_s = profile
    assert legs == 2 and 15 * calls == result.evaluations  # the reciprocal leg is traced too
    assert 0 < integrand_s < quadrature_s
    found, _ = layers.quadrature_metrics(op, result.evaluations, [profile, profile])
    name = op.id.removeprefix("expect_")
    assert found[f"quadrature.panels.{name}"] == (calls + legs) / 2
    parts = ("evaluations", "panels", "integrand_ms", "self_ms")
    assert {f"quadrature.{part}.{name}" for part in parts} == set(found)


def test_patch_point_the_package_lacks_is_skipped(monkeypatch):
    monkeypatch.delattr(layers.cli, "kac_triple")
    table = layers.cli.coefficient_table
    tracer = layers.Tracer()
    with layers.patched(tracer):
        assert layers.cli.coefficient_table is not table
    assert tracer.unpatched == {"randroot.cli.kac_triple"}
    assert not hasattr(layers.cli, "kac_triple") and layers.cli.coefficient_table is table


@pytest.mark.parametrize("text, op_id", [
    ("n,value,abs_err,evaluations\n40,8.3379584086676604,1e-10,375\n", "expect_gamma1_n40"),
    ("n,value,abs_err,evaluations\n41,8.33795740866766,1e-10,375\n", "expect_gamma1_n40"),
    ("trials,mean,std_error,parity_repairs,seed\n4,3.5,0.5,0,{seed}\n\ncount,frequency\n3,2\n4,2\n",
     "mc_gamma1_n10_p0"),
    ("not,a\ncsv", "scaling_kac"),
    ("PASS variance_jacobi_identity\nFAIL gram_double_sum_identity\n", "verify_fast"),
])
def test_checks_reject_wrong_output(text, op_id):
    op = next(op for op in all_ops("smoke", seed=3) if op.id == op_id)
    found = checks.check_output(op, text.format(seed=op.seed), 0, ORACLE[op_id])
    assert not all(c.ok for c in found)


def test_without_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "small_n_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
