"""The traced run: spans around calls into each layer, and per-layer probes.

Spans are recorded from the benchmark's own files, never from inside the
package: a traced pass swaps the module attributes through which one layer
calls the next (``randroot.cli.coefficient_table``,
``randroot.kacrice.adaptive_quadrature``, ...) for wrappers that record a span
and restores them afterwards.  A span is ``[name, start, end, parent]``; the
layer is the name's first dotted component, and a layer's self time is its
spans' time minus the time of their child spans.

The probes then time the public functions of each module on fixed inputs.
A probe that raises drops only its own metrics (``run.py`` names them).
Each probe's metric names the end-to-end metric and workload it should move:

* ``families``, ``kacrice.density_us_per_point``, ``quadrature``: wall_s on
  expect_large_n;
* ``montecarlo``: wall_s on mc_counts;
* ``kacrice.eval_us_per_point``, ``kacrice.kac_density_us_per_point``,
  ``jacobi``, ``asymptotic``, ``cli``, ``verify``: wall_s on small_n_sweep.
"""
from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import randroot as rr
from randroot import asymptotic, cli, jacobi, kacrice, verify

from workloads import DEFAULT_TOL, GAMMA1, all_ops, build_ops

LAYERS = ("cli", "families", "kacrice", "quadrature", "jacobi", "montecarlo", "asymptotic", "verify")

PANEL = np.linspace(0.02, 0.98, 15)  # fixed 15-point panel for per-point kernel costs
CONV_N = (1000, 2000, 4000)
DENSITY_N = (100, 1000, 4000)
ROOTS_N = (100, 1000, 4000)
MC_SIZES = ((20, 200, 500), (100, 40, 50), (200, 15, 12))  # (n, single draws, trials)
EVAL_GRID = (50, 601)            # kac_rice_eval: the CLI density path, legendre
KAC_GRID = (1_000_000, 2001)     # kac_density: the Kac closed form


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index or -1]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unpatched: set[str] = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), math.nan, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_ms(self, start: int = 0) -> dict[str, float]:
        """Self time per layer, in ms, over the spans recorded since ``start``."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, t0, t1, _), inner in zip(spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + 1e3 * (t1 - t0 - inner)
        return out


def _patch_points():
    """(module, attribute, span name) for every cross-layer call the workloads make."""
    return [
        (cli, "coefficient_table", "families.coefficient_table"),
        (cli, "expected_roots_real_line_result", "kacrice.expected_roots_real_line_result"),
        (cli, "expected_roots_interval", "kacrice.expected_roots_interval"),
        (cli, "kac_expected_roots_interval", "kacrice.kac_expected_roots_interval"),
        (cli, "kac_rice_eval", "kacrice.kac_rice_eval"),
        (cli, "kac_triple", "kacrice.kac_triple"),
        (cli, "root_bounds", "jacobi.root_bounds"),
        (cli, "ultraspherical_bounds", "jacobi.ultraspherical_bounds"),
        (jacobi, "jacobi_roots", "jacobi.jacobi_roots"),
        (cli, "mc_expected_roots", "montecarlo.mc_expected_roots"),
        (cli, "scaling_fit", "asymptotic.scaling_fit"),
        (cli, "leading_order", "asymptotic.leading_order"),
        (asymptotic, "expected_roots_real_line", "kacrice.expected_roots_real_line"),
        (verify, "run_suite", "verify.run_suite"),
        (kacrice, "coefficient_table", "families.coefficient_table"),
        (kacrice, "reciprocal_table", "families.reciprocal_table"),
        (kacrice, "adaptive_quadrature", None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Record spans at the layer boundaries for the duration of the block.

    A patch point the package no longer has is skipped and named in
    ``tracer.unpatched``; its time then counts as its caller's self time.
    """
    saved = []
    try:
        for module, attr, name in _patch_points():
            original = getattr(module, attr, None)
            if original is None:
                tracer.unpatched.add(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            if name is None:  # quadrature: also time the integrand it calls back
                def quadrature(f, *args, _orig=original, **kwargs):
                    with tracer.span("quadrature.adaptive_quadrature"):
                        return _orig(tracer.wrap("kacrice.integrand", f), *args, **kwargs)

                setattr(module, attr, quadrature)
            else:
                setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer probes
# ---------------------------------------------------------------------------

def _median_s(tracer: Tracer, name: str, fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        with tracer.span(name):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
    return statistics.median(times)


def library_call(op):
    """The library calls the CLI makes for ``op``, without parsing or serialisation."""
    family = op.family() if op.cls else None
    if op.command == "expect" and op.interval is None:
        return lambda: rr.expected_roots_real_line_result(family, op.n, DEFAULT_TOL)
    if op.command == "expect":
        a, b = (float(v) for v in op.interval)
        return lambda: rr.expected_roots_interval(
            rr.coefficient_table(family, op.n, with_convolution=True), a, b, DEFAULT_TOL)
    if op.command == "mc":
        return lambda: rr.mc_expected_roots(family, op.n, op.trials, op.seed, threads=1)
    if op.command == "scaling":
        return lambda: (rr.scaling_fit(family, op.n_list, DEFAULT_TOL),
                        [rr.leading_order(family, n) for n in op.n_list])
    if op.command == "density":
        grid = np.abs(np.linspace(*op.grid[:2], op.grid[2]))
        if op.cls[0] == "kac":
            return lambda: [rr.kac_triple(op.n, float(x)) for x in grid]

        def density():
            table = rr.coefficient_table(family, op.n, with_convolution=True)
            return [rr.kac_rice_eval(table, float(x)) for x in grid]

        return density
    if op.command == "bounds":
        a, b = family.alpha, family.beta

        def bounds():
            rr.root_bounds(op.n, a, b)
            rr.jacobi_roots(op.n, a, b)
            if a == b:
                rr.ultraspherical_bounds(op.n, a)

        return bounds
    if op.command == "verify":
        return lambda: verify.run_suite(op.level)
    raise ValueError(f"no library call for {op.command}")


def probe_families(tracer: Tracer, tables: dict) -> dict[str, float]:
    gamma1, ab = rr.gamma_family(1.0), rr.alpha_beta_family(0.5, 2.0)
    out = {}
    for n in CONV_N:
        def build(n=n):
            tables[(GAMMA1, n)] = rr.coefficient_table(gamma1, n, with_convolution=True)

        out[f"families.conv_ms.n{n}"] = 1e3 * _median_s(tracer, f"families.conv.n{n}", build, 3)
    out["families.log_sq_ms.n4000"] = 1e3 * _median_s(
        tracer, "families.log_sq.n4000", lambda: rr.coefficient_table(gamma1, 4000), 20)
    table = rr.coefficient_table(ab, 2000, with_convolution=True)
    out["families.reciprocal_ms.n2000"] = 1e3 * _median_s(
        tracer, "families.reciprocal.n2000", lambda: rr.reciprocal_table(table), 20)
    return out


def probe_kacrice(tracer: Tracer, tables: dict) -> dict[str, float]:
    out = {}
    for n in DENSITY_N:
        if (GAMMA1, n) not in tables:
            tables[(GAMMA1, n)] = rr.coefficient_table(rr.gamma_family(1.0), n, with_convolution=True)
        table = tables[(GAMMA1, n)]
        seconds = _median_s(tracer, f"kacrice.density.n{n}", lambda: rr.density(table, PANEL), 20)
        out[f"kacrice.density_us_per_point.n{n}"] = 1e6 * seconds / len(PANEL)
    n, steps = EVAL_GRID
    table = rr.coefficient_table(rr.legendre(), n, with_convolution=True)
    grid = np.linspace(0.0, 3.0, steps)
    seconds = _median_s(tracer, f"kacrice.eval.n{n}",
                        lambda: [rr.kac_rice_eval(table, float(x)) for x in grid], 5)
    out[f"kacrice.eval_us_per_point.n{n}"] = 1e6 * seconds / steps
    n, steps = KAC_GRID
    grid = np.linspace(0.0, 3.0, steps)
    seconds = _median_s(tracer, f"kacrice.kac_density.n{n}", lambda: rr.kac_density(n, grid), 5)
    out[f"kacrice.kac_density_us_per_point.n{n}"] = 1e6 * seconds / steps
    return out


def quadrature_profile(spans) -> tuple[int, int, float, float]:
    """(legs, integrand calls, integrand s, quadrature s) of the spans of one traced op.

    ``patched`` records each ``adaptive_quadrature`` call as a
    ``quadrature.adaptive_quadrature`` span with a ``kacrice.integrand`` child
    for every call of the integrand it was given.
    """
    legs = calls = 0
    integrand_s = quadrature_s = 0.0
    for name, t0, t1, _ in spans:
        if name == "quadrature.adaptive_quadrature":
            legs += 1
            quadrature_s += t1 - t0
        elif name == "kacrice.integrand":
            calls += 1
            integrand_s += t1 - t0
    return legs, calls, integrand_s, quadrature_s


def quadrature_metrics(op, evaluations: int, profiles) -> tuple[dict[str, float], dict]:
    """Quadrature metrics of one expect op, from its CLI evaluation count and traced runs.

    Each leg starts with one 15-point panel and every split adds two, so a leg
    of e evaluations ends with (e/15 + 1)/2 panels.  Returns (metrics,
    diagnostics); the times are medians over the traced runs.
    """
    name = op.id.removeprefix("expect_")
    legs = {p[0] for p in profiles}
    out = {f"quadrature.evaluations.{name}": float(evaluations)}
    notes = {"legs": sorted(legs), "integrand_calls": [p[1] for p in profiles]}
    if len(legs) == 1 and 0 not in legs:
        out[f"quadrature.panels.{name}"] = (evaluations / 15 + legs.pop()) / 2
        out[f"quadrature.integrand_ms.{name}"] = 1e3 * statistics.median(p[2] for p in profiles)
        out[f"quadrature.self_ms.{name}"] = 1e3 * statistics.median(p[3] - p[2] for p in profiles)
    return out, notes


def probe_jacobi(tracer: Tracer) -> dict[str, float]:
    out = {}
    for n in ROOTS_N:
        seconds = _median_s(tracer, f"jacobi.roots.n{n}", lambda n=n: rr.jacobi_roots(n, 0.0, 0.0),
                            5 if n < 4000 else 3)
        out[f"jacobi.roots_ms.n{n}"] = 1e3 * seconds
    rs = rr.jacobi_roots(1000, 0.0, 0.0)
    seconds = _median_s(tracer, "jacobi.density_via_roots.n1000",
                        lambda: rr.density_via_roots(rs, PANEL), 50)
    out["jacobi.density_via_roots_us_per_point.n1000"] = 1e6 * seconds / len(PANEL)
    return out


def probe_montecarlo(tracer: Tracer, seed: int) -> dict[str, float]:
    family = rr.gamma_family(1.0)
    rng = np.random.default_rng(seed)
    out = {}
    for n, draws, trials in MC_SIZES:
        draw, eig, count = [], [], []
        with tracer.span(f"montecarlo.parts.n{n}"):
            for _ in range(draws):
                t0 = perf_counter()
                p = rr.sample_polynomial(family, n, rng)
                t1 = perf_counter()
                np.roots(p.coeffs[::-1])
                t2 = perf_counter()
                rr.count_real_roots(p)
                t3 = perf_counter()
                draw.append(t1 - t0)
                eig.append(t2 - t1)
                count.append(t3 - t2)
        with tracer.span(f"montecarlo.trials.n{n}"):
            t0 = perf_counter()
            summary = rr.mc_expected_roots(family, n, trials, seed, threads=1)
            trial_s = (perf_counter() - t0) / trials
        out[f"montecarlo.draw_us.n{n}"] = 1e6 * statistics.median(draw)
        out[f"montecarlo.eig_us.n{n}"] = 1e6 * statistics.median(eig)
        out[f"montecarlo.count_us.n{n}"] = 1e6 * statistics.median(count)
        out[f"montecarlo.classify_us.n{n}"] = 1e6 * statistics.median(c - e for c, e in zip(count, eig))
        out[f"montecarlo.trial_us.n{n}"] = 1e6 * trial_s
        out[f"montecarlo.parity_repairs.n{n}"] = float(summary.parity_repairs)
    return out


def probe_asymptotic(tracer: Tracer, scaling_ops) -> dict[str, float]:
    out = {}
    for op in scaling_ops:
        family = op.family()
        seconds = _median_s(tracer, f"asymptotic.{op.id}",
                            lambda: rr.scaling_fit(family, op.n_list, DEFAULT_TOL), 3)
        out[f"asymptotic.scaling_fit_ms.{op.id.removeprefix('scaling_')}"] = 1e3 * seconds
    return out


def probe_verify(tracer: Tracer) -> dict[str, float]:
    return {"verify.suite_ms.full": 1e3 * _median_s(tracer, "verify.full",
                                                    lambda: verify.run_suite("full"), 3)}


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in report order."""
    spec = {f"families.conv_ms.n{n}": "ms" for n in CONV_N}
    spec["families.log_sq_ms.n4000"] = "ms"
    spec["families.reciprocal_ms.n2000"] = "ms"
    spec["families.table_share.gamma1_n4000"] = "fraction"
    spec.update({f"kacrice.density_us_per_point.n{n}": "us" for n in DENSITY_N})
    spec[f"kacrice.eval_us_per_point.n{EVAL_GRID[0]}"] = "us"
    spec[f"kacrice.kac_density_us_per_point.n{KAC_GRID[0]}"] = "us"
    for op in build_ops("expect_large_n", 0):
        name = op.id.removeprefix("expect_")
        spec[f"quadrature.evaluations.{name}"] = "count"
        spec[f"quadrature.panels.{name}"] = "count"
        spec[f"quadrature.integrand_ms.{name}"] = "ms"
        spec[f"quadrature.self_ms.{name}"] = "ms"
    spec.update({f"jacobi.roots_ms.n{n}": "ms" for n in ROOTS_N})
    spec["jacobi.density_via_roots_us_per_point.n1000"] = "us"
    for n, _, _ in MC_SIZES:
        for part in ("draw", "eig", "count", "classify", "trial"):
            spec[f"montecarlo.{part}_us.n{n}"] = "us"
        spec[f"montecarlo.parity_repairs.n{n}"] = "count"
    for op in build_ops("small_n_sweep", 0):
        if op.command == "scaling":
            spec[f"asymptotic.scaling_fit_ms.{op.id.removeprefix('scaling_')}"] = "ms"
    for op in all_ops():
        spec[f"cli.overhead_ms.{op.id}"] = "ms"
        spec[f"cli.output_bytes.{op.id}"] = "bytes"
    spec["verify.suite_ms.full"] = "ms"
    for op in all_ops():
        spec[f"check.max_abs_err.{op.id}"] = "1"
    spec["trace.overhead_s"] = "s"
    spec.update({f"trace.self_ms.{layer}": "ms" for layer in LAYERS})
    return spec
