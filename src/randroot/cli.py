"""Command line front end.

Subcommands:

* ``density``  - tabulate (x, f, log_M, S1, S2) on a grid
* ``expect``   - expected real-root count on an interval or the full line
* ``bounds``   - Jacobi-root and ultraspherical brackets (alpha/beta family)
* ``mc``       - Monte Carlo root counting summary plus histogram
* ``scaling``  - per-n counts against the leading order plus a growth fit
* ``verify``   - run the internal identity suites, print pass/fail lines

Output is CSV (17 significant digits, LF line endings) or JSON with top-level
``config``/``results``/``diagnostics`` keys.  Identical invocations produce
byte-identical output; Monte Carlo seeds default to a fixed constant.  Exit
codes: 0 success, 2 validation error, 3 numeric non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotic import ScalingFitError, leading_order, scaling_fit
from .errors import NumericError, ParameterDomainError
from .families import (
    FamilyKind,
    PolynomialClass,
    alpha_beta_family,
    elliptic,
    gamma_family,
    kac,
    legendre,
)
from .jacobi import root_bounds, ultraspherical_bounds
from .kacrice import expected_roots_interval_result, expected_roots_real_line_result, kernel
from .montecarlo import mc_expected_roots
from . import verify as verify_mod

# Nothing here calls these; benchmarks/layers.py patches them on this module to
# trace the CLI.
from .families import coefficient_table  # noqa: F401
from .kacrice import (  # noqa: F401
    expected_roots_interval,
    kac_expected_roots_interval,
    kac_rice_eval,
    kac_triple,
)

DEFAULT_SEED = 123456789
DEFAULT_TOL = 1e-9

CLASS_CHOICES = ("gamma", "alpha-beta", "kac", "elliptic", "legendre")


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# lets "-inf", "-2", "-0.5:1:9" pass as values rather than option flags
_VALUE_TOKEN = re.compile(r"^-(\d|\.\d|inf$)", re.IGNORECASE)


def _allow_negative_tokens(parser: argparse.ArgumentParser) -> None:
    parser._negative_number_matcher = _VALUE_TOKEN


def _add_class_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--class", dest="family_name", required=True, choices=CLASS_CHOICES,
                     help="polynomial family (kac/elliptic/legendre are fixed-parameter aliases)")
    sub.add_argument("--gamma", type=float, default=None, help="gamma family exponent (>= 0)")
    sub.add_argument("--alpha", type=float, default=None, help="alpha parameter (> -1)")
    sub.add_argument("--beta", type=float, default=None, help="beta parameter (> -1)")


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randroot",
        description="Expected real roots and internal equilibria of random game polynomials.",
    )
    _allow_negative_tokens(parser)
    parser.add_argument("--version", action="version", version=f"randroot {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("density", help="tabulate the root density on a grid")
    _allow_negative_tokens(p)
    _add_class_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True, metavar="A:B:STEPS",
                   help="inclusive linspace, e.g. 0:3:61")
    _add_output_options(p)

    p = subs.add_parser("expect", help="expected real-root count")
    _allow_negative_tokens(p)
    _add_class_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--interval", nargs=2, default=None, metavar=("A", "B"),
                   help="endpoints; accepts inf/-inf (default: full line)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(p)

    p = subs.add_parser("bounds", help="finite-n brackets on the full-line count")
    _allow_negative_tokens(p)
    _add_class_options(p)
    p.add_argument("--n", type=int, required=True)
    _add_output_options(p)

    p = subs.add_parser("mc", help="Monte Carlo root counting")
    _allow_negative_tokens(p)
    _add_class_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_options(p)

    p = subs.add_parser("scaling", help="growth of the count against n")
    _allow_negative_tokens(p)
    _add_class_options(p)
    p.add_argument("--n-list", required=True, help="comma-separated degrees, e.g. 50,100,200,400")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_output_options(p)

    p = subs.add_parser("verify", help="run the identity suites")
    _allow_negative_tokens(p)
    p.add_argument("--level", choices=("fast", "full"), default="fast")

    return parser


def _family_from_args(args: argparse.Namespace) -> PolynomialClass:
    name = args.family_name
    given = {k: getattr(args, k) for k in ("gamma", "alpha", "beta") if getattr(args, k) is not None}
    if name == "gamma":
        if "gamma" not in given or set(given) != {"gamma"}:
            raise ParameterDomainError("--class gamma takes exactly --gamma")
        return gamma_family(args.gamma)
    if name == "alpha-beta":
        if set(given) != {"alpha", "beta"}:
            raise ParameterDomainError("--class alpha-beta takes exactly --alpha and --beta")
        return alpha_beta_family(args.alpha, args.beta)
    if given:
        raise ParameterDomainError(f"--class {name} is a fixed alias and takes no parameters")
    return {"kac": kac, "elliptic": elliptic, "legendre": legendre}[name]()


def _parse_endpoint(token: str) -> float:
    t = token.strip().lower()
    if t in ("inf", "+inf"):
        return math.inf
    if t == "-inf":
        return -math.inf
    try:
        return float(t)
    except ValueError as exc:
        raise ParameterDomainError(f"bad interval endpoint {token!r}") from exc


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParameterDomainError(f"grid must be A:B:STEPS, got {raw!r}")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterDomainError(f"bad grid {raw!r}") from exc
    if steps < 1 or not (math.isfinite(a) and math.isfinite(b)) or b < a:
        raise ParameterDomainError(f"bad grid {raw!r}")
    return np.linspace(a, b, steps)


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterDomainError(f"bad n list {raw!r}") from exc
    if not values:
        raise ParameterDomainError("empty n list")
    return values


# ---------------------------------------------------------------------------
# subcommand execution
# ---------------------------------------------------------------------------

def _run_density(family: PolynomialClass, n: int, grid: np.ndarray) -> tuple[list[Table], dict, int]:
    log_m, s1, f, _ = kernel(family, n).rows(np.abs(grid))
    s1 = np.where(grid < 0, -s1, s1)  # B is odd in x
    rows = list(zip(grid.tolist(), f.tolist(), log_m.tolist(), s1.tolist(), (f * f + s1 * s1).tolist()))
    return [Table("density", ("x", "f", "log_M", "S1", "S2"), rows)], {}, 0


def _run_expect(family: PolynomialClass, n: int, interval, tol: float) -> tuple[list[Table], dict, int]:
    if interval is None:
        result = expected_roots_real_line_result(family, n, tol)
    else:
        result = expected_roots_interval_result(family, n, *interval, tol)
    rows = [(n, result.value, result.abs_error_estimate, result.evaluations)]
    diagnostics = {"converged": result.converged}
    return ([Table("expect", ("n", "value", "abs_err", "evaluations"), rows)],
            diagnostics, 0 if result.converged else 3)


def _run_bounds(family: PolynomialClass, n: int) -> tuple[list[Table], dict, int]:
    if family.kind is not FamilyKind.ALPHA_BETA:
        raise ParameterDomainError(
            "bounds requires an alpha/beta class (the Jacobi bracket has no gamma-family form)"
        )
    jac = root_bounds(n, family.alpha, family.beta)
    if family.alpha == family.beta:
        ultra = ultraspherical_bounds(n, family.alpha)
        ultra_lower, ultra_upper = ultra.lower, ultra.upper
    else:
        ultra_lower = ultra_upper = None
    rows = [(n, jac.lower, jac.upper, ultra_lower, ultra_upper, jac.s_max)]
    diagnostics = {"note": jac.note} if jac.note else {}
    return ([Table("bounds", ("n", "jacobi_lower", "jacobi_upper", "ultra_lower",
                              "ultra_upper", "s_max"), rows)], diagnostics, 0)


def _run_mc(family: PolynomialClass, n: int, trials: int, seed: int) -> tuple[list[Table], dict, int]:
    summary = mc_expected_roots(family, n, trials, seed)
    summary_rows = [(summary.trials, summary.mean, summary.std_error,
                     summary.parity_repairs, summary.seed)]
    hist_rows = [(k, summary.histogram[k]) for k in sorted(summary.histogram)]
    tables = [
        Table("summary", ("trials", "mean", "std_error", "parity_repairs", "seed"), summary_rows),
        Table("histogram", ("count", "frequency"), hist_rows),
    ]
    return tables, {"parity_repair_rate": summary.parity_repairs / summary.trials}, 0


def _run_scaling(family: PolynomialClass, n_values: list[int], tol: float) -> tuple[list[Table], dict, int]:
    def per_n(pairs) -> Table:
        rows = []
        for n, en in pairs:
            lead = leading_order(family, n)
            rows.append((n, en, lead, en / lead))
        return Table("per_n", ("n", "en", "leading_order", "ratio"), rows)

    try:
        fit = scaling_fit(family, n_values, tol)
    except ScalingFitError as exc:
        return [per_n(exc.rows)], {"error": str(exc)}, 3
    fit_rows = [(fit.slope, fit.intercept, fit.r_squared, fit.max_rel_dev_from_leading)]
    tables = [
        per_n(zip(fit.n_values, fit.en_values)),
        Table("fit", ("slope", "intercept", "r_squared", "max_rel_dev"), fit_rows),
    ]
    return tables, {}, 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_csv(value) -> str:
    if type(value) is float:  # the bulk of every table
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_safe(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def render_csv(tables: list[Table]) -> str:
    blocks = []
    for table in tables:
        lines = [",".join(table.columns)]
        lines.extend(",".join(map(_fmt_csv, row)) for row in table.rows)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_json(config: dict, tables: list[Table], diagnostics: dict) -> str:
    results = {
        table.name: [
            {col: _json_safe(v) for col, v in zip(table.columns, row)}
            for row in table.rows
        ]
        for table in tables
    }
    payload = {"config": config, "results": results,
               "diagnostics": {k: _json_safe(v) for k, v in diagnostics.items()}}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_echo(args: argparse.Namespace, family: PolynomialClass | None) -> dict:
    config = {"command": args.command}
    if family is not None:
        config["class"] = family.label()
    for key in ("n", "trials", "seed", "tol", "grid", "interval", "level"):
        if hasattr(args, key) and getattr(args, key) is not None:
            value = getattr(args, key)
            config[key] = list(value) if isinstance(value, (list, tuple)) else value
    if hasattr(args, "n_list"):
        config["n_list"] = args.n_list
    return config


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        failures = 0
        for name, passed, detail in verify_mod.run_suite(args.level):
            status = "PASS" if passed else "FAIL"
            line = f"{status} {name}"
            if detail and not passed:
                line += f"  ({detail})"
            print(line)
            failures += 0 if passed else 1
        return 0 if failures == 0 else 3

    try:
        family = _family_from_args(args)
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ParameterDomainError(f"n must be >= 1, got {args.n}")
        if getattr(args, "tol", None) is not None and not args.tol > 0:
            raise ParameterDomainError(f"tol must be positive, got {args.tol}")

        if args.command == "density":
            grid = _parse_grid(args.grid)
            tables, diagnostics, code = _run_density(family, args.n, grid)
        elif args.command == "expect":
            interval = None
            if args.interval is not None:
                interval = (_parse_endpoint(args.interval[0]), _parse_endpoint(args.interval[1]))
            tables, diagnostics, code = _run_expect(family, args.n, interval, args.tol)
        elif args.command == "bounds":
            tables, diagnostics, code = _run_bounds(family, args.n)
        elif args.command == "mc":
            if args.trials < 1:
                raise ParameterDomainError(f"trials must be >= 1, got {args.trials}")
            tables, diagnostics, code = _run_mc(family, args.n, args.trials, args.seed)
        elif args.command == "scaling":
            tables, diagnostics, code = _run_scaling(family, _parse_n_list(args.n_list), args.tol)
        else:  # pragma: no cover - argparse restricts the choices
            raise ParameterDomainError(f"unknown command {args.command!r}")
    except ParameterDomainError as exc:
        print(f"randroot: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"randroot: numeric failure: {exc}", file=sys.stderr)
        return 3

    if args.format == "json":
        text = render_json(_config_echo(args, family), tables, diagnostics)
    else:
        text = render_csv(tables)
    _write(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
