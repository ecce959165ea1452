"""randroot benchmark: CLI workloads checked against oracles, plus a traced run.

    python3 benchmarks/run.py --workload expect_large_n --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a checkout; ``randroot`` is imported from its ``src``.
Load is a closed loop with one caller: the ops of a workload run one after
another through ``randroot.cli.main(argv)`` in this process, so argument
parsing and serialisation are timed as users pay for them.  A pass runs every
op once, in an order the seed shuffles anew for each pass.  The first pass
warms caches, is checked against ``oracle.json`` and is not timed; each later
op must print the same bytes and exit code as its first run.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of one pass with the machine uncontended, the sum over
  ops of each op's fastest timed run (see ``uncontended_pass_s``);
* ``setup_s``: time for a fresh interpreter to import ``randroot`` and build
  the CLI parser, the fastest of several interpreters started between passes
  across the run;
* ``peak_rss_mb``: peak resident memory of this process.

Diagnostics, never gated: the median pass time with its quartiles and pass
count, a tail percentile once ten passes lie beyond it, each op's fastest and
median time and their ratio, every set-up time, ``cpu_s`` (CPU seconds per
pass; a parallel Monte Carlo would raise it while lowering ``wall_s``) and
``failed_frac``.

``--trace 1`` reports the per-layer metrics of ``layers.per_layer_spec``:
for half of ``--seconds`` passes alternate with and without spans at the layer
boundaries, which gives self time per layer and ``trace.overhead_s``; then
probes time each layer's public functions on fixed inputs and run every op of
every workload once more against its library calls; the ``expect_large_n`` ops
also run traced, for the quadrature metrics.  A probe that raises drops only
its own metrics; the diagnostics name them and the error.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An op fails if it raises, exits non-zero, misses
an oracle tolerance or prints other bytes than its first run.  Earlier lines
give the environment, every oracle check (deviation beside tolerance) and the
diagnostics; the same goes to ``benchmarks/out/BENCH_<workload>_s<seed>_t<trace>.json``.
``--smoke`` runs all three workloads at tiny sizes, one timed and one traced
pass each, and exits non-zero if any op fails.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

import numpy as np
import scipy

from checks import Check, check_output, max_abs_err, parse_blocks
from common import BENCH_DIR, ORACLE_PATH, ROOT, SRC, SourceMissing, use_repo_source
from workloads import WORKLOADS, all_ops, build_ops, pass_orders

SETUP_REPEATS = 10
QUADRATURE_REPEATS = 3
SETUP_TIMEOUT_S = 120
MIN_TIMED_PASSES = 3
MAX_FAILURE_NOTES = 20


class Runner:
    """Runs ops through the CLI, judges each run, and counts attempts and failures."""

    def __init__(self, oracle: dict, tracer=None) -> None:
        from randroot import cli

        self.main = cli.main
        self.oracle = oracle
        self.tracer = tracer
        self.first: dict[str, tuple[int | None, str]] = {}
        self.checks: dict = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _call(self, argv: list[str]) -> tuple[int | None, str, float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        return code, out.getvalue(), seconds, error

    def execute(self, op, traced: bool = False) -> float:
        """Run ``op`` once; returns its wall time in seconds."""
        self.attempted += 1
        if traced:
            with self.tracer.span(f"cli.{op.id}"):
                code, text, seconds, error = self._call(op.argv())
        else:
            code, text, seconds, error = self._call(op.argv())
        if op.id not in self.first:
            self.first[op.id] = (code, text)
            self.checks[op.id] = (check_output(op, text, code, self.oracle[op.id]) if error is None
                                  else [Check(op.id, f"raised[{error}]", float("inf"), 0.0)])
        if error is not None:
            self.fail(f"{op.id} raised {error}")
        elif (code, text) != self.first[op.id]:
            self.fail(f"{op.id} output differs from its first run")
        elif not all(c.ok for c in self.checks[op.id]):
            self.fail(f"{op.id} misses its oracle")
        return seconds

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def run_pass(self, ops, order, traced: bool = False) -> dict[str, float]:
        """One pass over ``ops`` in ``order``; the wall time of each op, by id."""
        return {ops[i].id: self.execute(ops[i], traced) for i in order}

    def check_lines(self) -> list[str]:
        return [c.line() for checks in self.checks.values() for c in checks]


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({type(exc).__name__})"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "RANDROOT_THREADS": os.environ.get("RANDROOT_THREADS", "unset"),
    }


def setup_once() -> float:
    """Wall time of one fresh interpreter importing randroot and building the CLI parser."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import randroot.cli; randroot.cli.build_parser()")
    t0 = perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL, cwd=ROOT)
    # wait() with a timeout polls in 50 ms steps; a blocking wait times exactly
    guard = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    guard.start()
    try:
        status = child.wait()
    finally:
        guard.cancel()
    if status != 0:
        raise RuntimeError(f"set-up interpreter exited with {status}")
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten passes beyond it."""
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100)[q - 1]
    return None


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _timed_passes(runner, ops, orders, seconds: float, traced_too: bool = False,
                  setups: list[float] | None = None):
    """Passes until ``seconds`` have gone; with ``traced_too`` they alternate untraced/traced.

    With ``setups``, ``SETUP_REPEATS`` set-up interpreters run between passes,
    spread evenly over the run, and their times are appended to it.
    """
    from layers import patched

    plain, traced, self_ms = [], [], []
    start = perf_counter()
    deadline = start + seconds
    setup_due = ([start + seconds * (i + 0.5) / SETUP_REPEATS for i in range(SETUP_REPEATS)]
                 if setups is not None else [])
    while perf_counter() < deadline or len(plain) < MIN_TIMED_PASSES:
        plain.append(runner.run_pass(ops, next(orders)))
        if traced_too:
            mark = len(runner.tracer.spans)
            with patched(runner.tracer):
                traced.append(runner.run_pass(ops, next(orders), traced=True))
            self_ms.append(runner.tracer.self_ms(mark))
            if len(traced) > 1:
                del runner.tracer.spans[mark:]  # keep the spans of the first traced pass
        if setup_due and perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setups.append(setup_once())
    for _ in setup_due:  # a run too short to reach them all
        setups.append(setup_once())
    return plain, traced, self_ms


def uncontended_pass_s(passes: list[dict[str, float]]) -> float:
    """Pass time with the machine uncontended: the sum over ops of each op's fastest run.

    On a shared machine a neighbour's load flips pass times between two
    levels for seconds at a time (e.g. 0.22 s and 0.35 s on small_n_sweep), so
    the median pass lands on either level depending on how long the neighbour
    ran.  Load only ever slows an op down, so each op's fastest run measures the
    program; the median pass is kept as a diagnostic.
    """
    return sum(min(p[op] for p in passes) for op in passes[0])


def run_untraced(ops, oracle, seed: int, seconds: float):
    setup_once()  # not measured: writes the bytecode caches that later interpreters find
    runner = Runner(oracle)
    orders = pass_orders(len(ops), seed)
    runner.run_pass(ops, next(orders))  # warm-up, checked, not timed
    setup: list[float] = []
    cpu0 = time.process_time()
    passes, _, _ = _timed_passes(runner, ops, orders, seconds, setups=setup)
    cpu_s = (time.process_time() - cpu0) / len(passes)
    pass_times = [sum(p.values()) for p in passes]
    metrics = {
        "wall_s": (uncontended_pass_s(passes), "s"),
        "setup_s": (min(setup), "s"),  # load only slows an interpreter down, as for wall_s
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    fastest = {op.id: min(p[op.id] for p in passes) for op in ops}
    median = {op.id: statistics.median(p[op.id] for p in passes) for op in ops}
    diagnostics = {
        "passes": len(passes),
        "pass_s_median": statistics.median(pass_times),
        "pass_s_quartiles": statistics.quantiles(pass_times, n=4),
        "pass_s_all": pass_times,
        "op_s_fastest": fastest,
        "op_s_median": median,
        "op_median_over_fastest": {op: median[op] / fastest[op] for op in fastest},
        "setup_s_all": setup,
        "setup_s_median": statistics.median(setup),
        "cpu_s": cpu_s,
        "closed_loop": "1 caller, sequential ops",
    }
    tail = tail_percentile(pass_times)
    if tail:
        diagnostics[f"pass_s_p{tail[0]}"] = tail[1]
    return runner, metrics, diagnostics, None


def _probe(values: dict, errors: dict, name: str, fn, *args) -> None:
    """Run one probe into ``values``; if it raises, keep the error and drop its metrics."""
    try:
        values.update(fn(*args))
    except Exception as exc:  # e.g. a renamed library function: the other probes still run
        errors[name] = f"{type(exc).__name__}: {exc}"


def _cli_overhead(op, cli_ms: float, repeats: int) -> dict[str, float]:
    """CLI time of ``op`` minus the median time of its library calls."""
    import layers

    lib = layers.library_call(op)
    return {f"cli.overhead_ms.{op.id}": cli_ms - 1e3 * statistics.median(_once(lib) for _ in range(repeats))}


def run_traced(ops, oracle, seed: int, seconds: float):
    import layers

    tracer = layers.Tracer()
    runner = Runner(oracle, tracer)
    orders = pass_orders(len(ops), seed)
    runner.run_pass(ops, next(orders))
    # half the run alternates untraced and traced passes; the fixed probes take about as long
    plain, traced, self_ms = _timed_passes(runner, ops, orders, seconds / 2, traced_too=True)
    workload_spans = list(tracer.spans)
    tracer.spans.clear()

    values: dict[str, float] = {}
    errors: dict[str, str] = {}
    tables: dict = {}
    _probe(values, errors, "families", layers.probe_families, tracer, tables)
    _probe(values, errors, "kacrice", layers.probe_kacrice, tracer, tables)

    # every op of every workload: CLI time against its library calls, and its oracle
    cli_ms = {}
    for op in all_ops("full", seed):
        if op.id not in runner.first:
            runner.execute(op)  # first run in this process: checked, not timed
        cli_s = [runner.execute(op)]
        repeats = 1 if cli_s[0] >= 0.1 else 5  # light ops: repeat for a steadier difference
        cli_s += [runner.execute(op) for _ in range(repeats - 1)]
        cli_ms[op.id] = 1e3 * statistics.median(cli_s)
        values[f"cli.output_bytes.{op.id}"] = float(len(runner.first[op.id][1].encode()))
        values[f"check.max_abs_err.{op.id}"] = max_abs_err(runner.checks[op.id])
        _probe(values, errors, f"cli.overhead_ms.{op.id}", _cli_overhead, op, cli_ms[op.id], repeats)
    if "families.conv_ms.n4000" in values:
        values["families.table_share.gamma1_n4000"] = (
            values["families.conv_ms.n4000"] / cli_ms["expect_gamma1_n4000"])

    # quadrature: legs and times from traced CLI runs, evaluation counts from the CLI output
    quadrature_notes = {}
    for op in build_ops("expect_large_n", seed):
        profiles = []
        for _ in range(QUADRATURE_REPEATS):
            mark = len(tracer.spans)
            with layers.patched(tracer):
                runner.execute(op, traced=True)
            profiles.append(layers.quadrature_profile(tracer.spans[mark:]))
        try:
            evaluations = int(parse_blocks(runner.first[op.id][1])[0][0]["evaluations"])
        except (KeyError, IndexError, ValueError):  # the op failed; its checks already say so
            errors[f"quadrature.{op.id}"] = "no evaluation count in the CLI output"
            continue
        found, quadrature_notes[op.id] = layers.quadrature_metrics(op, evaluations, profiles)
        values.update(found)
    _probe(values, errors, "jacobi", layers.probe_jacobi, tracer)
    _probe(values, errors, "montecarlo", layers.probe_montecarlo, tracer, seed)
    _probe(values, errors, "asymptotic", layers.probe_asymptotic, tracer,
           [op for op in build_ops("small_n_sweep", seed) if op.command == "scaling"])
    _probe(values, errors, "verify", layers.probe_verify, tracer)
    values["trace.overhead_s"] = uncontended_pass_s(traced) - uncontended_pass_s(plain)
    for layer in layers.LAYERS:
        values[f"trace.self_ms.{layer}"] = statistics.median(p[layer] for p in self_ms)

    spec = layers.per_layer_spec()
    unknown = set(values) - set(spec)
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from the spec: {sorted(unknown)}")
    metrics = {name: (values[name], unit) for name, unit in spec.items() if name in values}
    diagnostics = {
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "wall_s_untraced": uncontended_pass_s(plain),
        "wall_s_traced": uncontended_pass_s(traced),
        "dropped_metrics": [name for name in spec if name not in values],
        "probe_errors": errors,
        "unpatched": sorted(tracer.unpatched),
        "quadrature": quadrature_notes,
        "roadmap_baseline": {
            "expect_gamma1_n4000_ms": cli_ms["expect_gamma1_n4000"],
            "table_share": values.get("families.table_share.gamma1_n4000"),
            "mc_trial_us": {n: values.get(f"montecarlo.trial_us.n{n}") for n, _, _ in layers.MC_SIZES},
        },
    }
    spans = {"workload_pass": workload_spans, "probes": tracer.spans}
    return runner, metrics, diagnostics, spans


def _once(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def run_smoke(oracle, seed: int) -> int:
    """All workloads at tiny sizes: one warm-up, one timed and one traced pass each."""
    import layers

    failed = attempted = 0
    for workload in WORKLOADS:
        ops = build_ops(workload, seed, "smoke")
        runner = Runner(oracle, layers.Tracer())
        orders = pass_orders(len(ops), seed)
        runner.run_pass(ops, next(orders))
        wall = sum(runner.run_pass(ops, next(orders)).values())
        with layers.patched(runner.tracer):
            runner.run_pass(ops, next(orders), traced=True)
        self_ms = runner.tracer.self_ms()
        print("\n".join(runner.check_lines()))
        print(f"smoke {workload}: pass {wall:.3f} s, traced self ms "
              + json.dumps({k: round(v, 3) for k, v in self_ms.items()}))
        for note in runner.notes:
            print(f"failure: {note}")
        failed += runner.failed
        attempted += runner.attempted
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def _write_result(name: str, payload: dict) -> None:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        use_repo_source()
    except SourceMissing as exc:
        print(f"benchmark: {exc}; run from the root of a randroot checkout", file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE_PATH.read_text())["ops"]
    if args.smoke:
        return run_smoke(oracle, args.seed)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    ops = build_ops(args.workload, args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    mode = run_traced if args.trace else run_untraced
    runner, metrics, diagnostics, spans = mode(ops, oracle, args.seed, args.seconds)
    diagnostics["failed_frac"] = runner.failed / runner.attempted
    diagnostics["failures"] = runner.notes

    for line in runner.check_lines():
        print(line)
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    _write_result(f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": [op.argv() for op in ops], "env": env, "result": result,
        "diagnostics": diagnostics, "checks": runner.check_lines(), "spans": spans,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
