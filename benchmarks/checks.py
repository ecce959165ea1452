"""Judging one op's output against its oracle entry.

Every check yields a ``Check``: the measured deviation beside the tolerance it
must stay within.  Nothing is compared with pinned output bytes, so a change
that moves the last bits of a quadrature result still passes while it stays
inside the tolerance.  (Within one run, repeats of an op must match byte for
byte; that check lives in ``run.py``.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    op: str
    label: str
    dev: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.dev <= self.tol  # False for NaN

    def line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return f"check {self.op} {self.label}: dev={self.dev:.3e} tol={self.tol:.3e} {verdict}"


def parse_blocks(text: str) -> list[list[dict[str, str]]]:
    """CLI CSV output as blocks of rows keyed by the block's header."""
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        header, *rows = chunk.split("\n")
        columns = header.split(",")
        blocks.append([dict(zip(columns, row.split(","))) for row in rows])
    return blocks


def _count_dev(value: float, ref: float) -> float:
    return abs(value - ref) if math.isfinite(value) else math.inf


def _flag(ok: bool) -> float:
    """0 when a structural condition holds, inf when it does not."""
    return 0.0 if ok else math.inf


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_expect(op, blocks, ref) -> list[Check]:
    (row,), = blocks
    value = float(row["value"])
    out = [
        Check(op.id, "n", _flag(int(row["n"]) == op.n), 0.0),
        Check(op.id, "value", _count_dev(value, ref["value"]), ref["tol"]),
    ]
    if "bracket" in ref:
        lower, upper = ref["bracket"]
        outside = max(lower - value, value - upper, 0.0)
        out.append(Check(op.id, "in_root_bounds", outside, 0.0))
    return out


def check_mc(op, blocks, ref) -> list[Check]:
    (summary,), hist = blocks
    trials = int(summary["trials"])
    mean, std_error = float(summary["mean"]), float(summary["std_error"])
    counts = np.array([int(r["count"]) for r in hist])
    freqs = np.array([int(r["frequency"]) for r in hist])
    hist_mean = float((counts * freqs).sum()) / trials
    hist_var = float((freqs * (counts - hist_mean) ** 2).sum()) / (trials - 1)
    return [
        Check(op.id, "trials_seed", _flag(trials == op.trials and int(summary["seed"]) == op.seed), 0.0),
        Check(op.id, "mean_vs_expected", abs(mean - ref["value"]), ref["z"] * std_error),
        Check(op.id, "counts_le_n", _flag(bool((counts <= op.n).all() and (counts >= 0).all())), 0.0),
        Check(op.id, "counts_parity", _flag(bool(((counts - op.n) % 2 == 0).all())), 0.0),
        Check(op.id, "freq_sum_trials", _flag(int(freqs.sum()) == trials), 0.0),
        Check(op.id, "mean_vs_histogram", _rel(mean, hist_mean), 1e-12),
        Check(op.id, "std_error_vs_histogram",
              _rel(std_error, math.sqrt(hist_var / trials)), 1e-12),
    ]


def _leading_order(op, n: int) -> float:
    if op.cls[0] == "kac":
        return (2.0 / math.pi) * math.log(n)
    if op.cls[0] == "gamma":
        return math.sqrt(2.0 * op.cls[1] * n)
    return math.sqrt(2.0 * n)


def check_scaling(op, blocks, ref) -> list[Check]:
    rows, (fit,) = blocks
    out = [Check(op.id, "n_list", _flag([int(r["n"]) for r in rows] == list(op.n_list)), 0.0)]
    en = np.array([float(r["en"]) for r in rows])
    for row, (n, value, tol, _route) in zip(rows, ref["en"]):
        out.append(Check(op.id, f"en.n{n}", _count_dev(float(row["en"]), value), tol))
        lead = _leading_order(op, n)
        out.append(Check(op.id, f"leading_order.n{n}", _rel(float(row["leading_order"]), lead), 1e-14))
        out.append(Check(op.id, f"ratio.n{n}", _rel(float(row["ratio"]), float(row["en"]) / lead), 1e-14))
    # the fit block refitted from the printed counts: consistency of fit and serialisation
    log_n = np.log(np.array(op.n_list, dtype=float))
    y = en if op.cls[0] == "kac" else np.log(en)
    slope, intercept = np.polyfit(log_n, y, 1)
    out.append(Check(op.id, "fit.slope", abs(float(fit["slope"]) - slope), 1e-12))
    out.append(Check(op.id, "fit.intercept", abs(float(fit["intercept"]) - intercept), 1e-12))
    dev = max(abs(v / _leading_order(op, n) - 1.0) for n, v in zip(op.n_list, en))
    out.append(Check(op.id, "fit.max_rel_dev", abs(float(fit["max_rel_dev"]) - dev), 1e-12))
    return out


def check_density(op, blocks, ref) -> list[Check]:
    (rows,) = blocks
    a, b, steps = op.grid
    xs = np.linspace(a, b, steps)
    got_x = np.array([float(r["x"]) for r in rows])
    out = [Check(op.id, "grid", _flag(len(rows) == steps and np.array_equal(got_x, xs)), 0.0)]
    if len(rows) != steps:
        return out
    for i, x, f, tol, _route in ref["rows"]:
        out.append(Check(op.id, f"f(x={x:g})", abs(float(rows[i]["f"]) - f), tol))
    return out


def check_bounds(op, blocks, ref) -> list[Check]:
    (row,), = blocks
    out = [Check(op.id, "n", _flag(int(row["n"]) == op.n), 0.0)]
    for key in ("s_max", "jacobi_lower", "jacobi_upper", "ultra_lower", "ultra_upper"):
        if key in ref:
            value, tol = ref[key]
            out.append(Check(op.id, key, _count_dev(float(row[key]), value), tol))
        else:
            out.append(Check(op.id, f"{key}_empty", _flag(row[key] == ""), 0.0))
    expected = ref["expected"]
    for side in ("jacobi", "ultra"):
        if f"{side}_lower" in ref:
            lower, upper = float(row[f"{side}_lower"]), float(row[f"{side}_upper"])
            outside = max(lower - expected, expected - upper, 0.0)
            out.append(Check(op.id, f"expected_in_{side}_bracket", outside, 0.0))
    return out


def check_verify(op, text, ref) -> list[Check]:
    lines = text.splitlines()
    want = [f"PASS {name}" for name in ref["checks"]]
    failed = sum(1 for line in lines if not line.startswith("PASS "))
    return [
        Check(op.id, "all_pass", float(failed), 0.0),
        Check(op.id, "suite_names", _flag(lines == want), 0.0),
    ]


_CHECKERS = {
    "expect": check_expect,
    "mc": check_mc,
    "scaling": check_scaling,
    "density": check_density,
    "bounds": check_bounds,
}


def check_output(op, text: str, code: int, ref: dict) -> list[Check]:
    """All checks of one op's stdout and exit code; a malformed output fails."""
    out = [Check(op.id, "exit_code", float(code), 0.0)]
    try:
        if op.command == "verify":
            return out + check_verify(op, text, ref)
        return out + _CHECKERS[op.command](op, parse_blocks(text), ref)
    except (ValueError, KeyError, IndexError) as exc:
        return out + [Check(op.id, f"parse_error[{type(exc).__name__}]", math.inf, 0.0)]


def max_abs_err(checks: list[Check]) -> float:
    """Largest finite deviation among an op's numeric checks (structure checks excluded)."""
    devs = [c.dev for c in checks if c.tol > 0 and math.isfinite(c.dev)]
    return max(devs, default=0.0)
