"""Regenerate ``oracle.json``: a reference value and tolerance for every op.

Run from the repository root:

    python3 benchmarks/make_oracle.py

Every reference comes from a route independent of the one the CLI takes:

* full-line and interval counts of alpha/beta families (gamma = 1 is
  alpha = beta = 0): the Jacobi root-sum density ``density_via_roots``
  integrated by ``scipy.integrate.quad``, with (1, inf) mapped onto (0, 1) by
  u = 1/x;
* elliptic: exactly sqrt(n);
* Kac: the generic log-sum-exp kernel at n = 1000 (the CLI takes the closed
  form), and (2/pi) ln n + C + 2/(pi n) for larger n;
* Kac density rows: the closed form f^2 = 1/(X-1)^2 - (n+1)^2 X^n/(X^(n+1)-1)^2,
  X = x^2, at 50 digits in mpmath;
* alpha/beta density rows: ``density_endpoints`` at x = 0 and x = 1, the root
  sum elsewhere;
* brackets: the largest Jacobi root from ``scipy.special.roots_jacobi``.

Tolerances are absolute.  Counts get 10 * tol of the CLI's requested --tol,
widened by the truncation of an asymptotic reference where one is used; other
tolerances are stated beside each entry.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
from scipy import integrate, special

from common import ORACLE_PATH, use_repo_source

use_repo_source()
import randroot as rr  # noqa: E402

from workloads import DEFAULT_TOL, all_ops  # noqa: E402

KAC_CONSTANT = 0.6257358072  # C in E N = (2/pi) ln n + C + 2/(pi n) + O(1/n^2)
COUNT_TOL_FACTOR = 10.0      # count tolerance = 10 * requested --tol
DENSITY_REL_TOL = 1e-10      # same relative tolerance as `verify`'s endpoint check
ROOT_ABS_TOL = 1e-13         # largest Jacobi root, two eigen-solvers compared
CLOSED_FORM_REL_TOL = 1e-13  # a float closed form against its 50-digit value


def _quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-13, limit=2000)
    return value


def root_sum_count(n, alpha, beta, interval=(-math.inf, math.inf)):
    """Expected roots in ``interval`` from the Jacobi root-sum density."""
    rs = rr.jacobi_roots(n, alpha, beta)
    inner = lambda x: rr.density_via_roots(rs, x) / math.pi
    outer = lambda u: rr.density_via_roots(rs, 1.0 / u) / (math.pi * u * u) if u > 0 else 0.0
    a, b = interval
    if (a, b) == (-math.inf, math.inf):
        return 2.0 * (_quad(inner, 0.0, 1.0) + _quad(outer, 0.0, 1.0))
    if (a, b) == (1.0, math.inf):
        return _quad(outer, 0.0, 1.0)
    raise ValueError(f"unsupported interval {interval}")


def generic_kac_count(n):
    """Full-line Kac count through the generic kernel on a convolution table."""
    table = rr.coefficient_table(rr.kac(), n, with_convolution=True)
    return 4.0 * _quad(lambda x: rr.density(table, x) / math.pi, 0.0, 1.0)


def kac_asymptotic(n):
    return (2.0 / math.pi) * math.log(n) + KAC_CONSTANT + 2.0 / (math.pi * n)


def bracket(n, alpha, beta):
    """(lower, upper, s_max, d upper/d s_max) from scipy's Jacobi roots."""
    s = float(special.roots_jacobi(n, alpha, beta)[0].max())
    root_n = math.sqrt(n)
    return root_n * (1 - s) / (1 + s), root_n * (1 + s) / (1 - s), s, 2 * root_n / (1 - s) ** 2


def kac_density_mp(n, x):
    with mp.workdps(50):
        if x == 0:
            return 1.0
        big = n + 1
        X = mp.mpf(x) ** 2
        if X == 1:
            return float(mp.sqrt(mp.mpf(n) * (n + 2) / 12))
        f2 = 1 / (X - 1) ** 2 - big**2 * X**n / (X**big - 1) ** 2
        return float(mp.sqrt(f2))


def ultraspherical_mp(n, alpha):
    with mp.workdps(50):
        n, a = mp.mpf(n), mp.mpf(alpha)
        lower = (2 / mp.pi) * mp.sqrt(n * (n + 2 * a) / (2 * n + 2 * a - 1))
        upper = (2 * mp.sqrt(n) / mp.pi) * (1 + mp.log(2) + mp.log((n + a) / (1 + a)) / 2)
        return float(lower), float(upper)


def full_line_reference(op):
    """(value, tol, route) for a full-line count."""
    count_tol = COUNT_TOL_FACTOR * DEFAULT_TOL
    ab = op.jacobi_params()
    if ab is not None:
        return root_sum_count(op.n, *ab), count_tol, "jacobi root sum + quad"
    if op.cls[0] == "elliptic":
        return math.sqrt(op.n), count_tol, "exact sqrt(n)"
    if op.cls[0] == "kac":
        if op.n <= 1000:
            return generic_kac_count(op.n), count_tol, "generic kernel + quad"
        return (kac_asymptotic(op.n), count_tol + 1.0 / op.n**2,
                "(2/pi) ln n + C + 2/(pi n); tol adds 1/n^2 for the O(1/n^2) remainder")
    raise ValueError(f"no independent route for {op.cls}")


def reference(op):
    count_tol = COUNT_TOL_FACTOR * DEFAULT_TOL
    if op.command == "expect" and op.interval is None:
        value, tol, route = full_line_reference(op)
        entry = {"value": value, "tol": tol, "route": route}
        if op.jacobi_params() is not None:
            lower, upper, _, _ = bracket(op.n, *op.jacobi_params())
            entry["bracket"] = [lower, upper]
        return entry
    if op.command == "expect":
        interval = tuple(float(v) for v in op.interval)
        return {"value": root_sum_count(op.n, *op.jacobi_params(), interval), "tol": count_tol,
                "route": "jacobi root sum + quad, u = 1/x"}
    if op.command == "mc":
        value, _, route = full_line_reference(op)
        return {"value": value, "z": 4.0, "route": f"{route}; |mean - value| <= z * std_error"}
    if op.command == "scaling":
        rows = []
        for n in op.n_list:
            value, tol, route = full_line_reference(replace(op, command="expect", n=n))
            rows.append([n, value, tol, route])
        return {"en": rows}
    if op.command == "density":
        xs = np.linspace(*op.grid[:2], op.grid[2])
        rows = []
        if op.cls[0] == "kac":
            picks = [0, int(np.argmin(np.abs(xs - 1.0))) - 1, int(np.argmin(np.abs(xs - 1.0))),
                     len(xs) // 2, len(xs) - 1]
            for i in sorted(set(picks)):
                f = kac_density_mp(op.n, float(xs[i]))
                rows.append([i, float(xs[i]), f, DENSITY_REL_TOL * f, "mpmath closed form"])
        else:
            alpha, beta = op.jacobi_params()
            f0, f1 = rr.density_endpoints(op.n, alpha, beta)
            rs = rr.jacobi_roots(op.n, alpha, beta)
            for i, x in enumerate(xs):
                if x == 0.0:
                    rows.append([i, 0.0, f0, DENSITY_REL_TOL * f0, "density_endpoints"])
                elif x == 1.0:
                    rows.append([i, 1.0, f1, DENSITY_REL_TOL * f1, "density_endpoints"])
                elif x in (0.5, 2.0, 3.0):
                    f = float(rr.density_via_roots(rs, x))
                    rows.append([i, float(x), f, DENSITY_REL_TOL * f, "jacobi root sum"])
        return {"rows": rows}
    if op.command == "bounds":
        alpha, beta = op.jacobi_params()
        lower, upper, s_max, d_upper = bracket(op.n, alpha, beta)
        d_lower = 2 * math.sqrt(op.n) / (1 + s_max) ** 2
        entry = {
            "s_max": [s_max, ROOT_ABS_TOL],
            "jacobi_lower": [lower, d_lower * ROOT_ABS_TOL],
            "jacobi_upper": [upper, d_upper * ROOT_ABS_TOL],
            "expected": root_sum_count(op.n, alpha, beta),
            "route": "scipy.special.roots_jacobi; tolerances propagate the root tolerance",
        }
        if alpha == beta:
            ul, uu = ultraspherical_mp(op.n, alpha)
            entry["ultra_lower"] = [ul, CLOSED_FORM_REL_TOL * ul]
            entry["ultra_upper"] = [uu, CLOSED_FORM_REL_TOL * uu]
        return entry
    if op.command == "verify":
        return {"checks": ["variance_jacobi_identity", "gram_double_sum_identity",
                           "derivative_recurrence", "density_endpoints", "density_envelope",
                           "density_symmetry", "quadrature_reciprocity"]}
    raise ValueError(f"no oracle for {op.command}")


def main() -> int:
    warnings.simplefilter("ignore")  # quad's roundoff notices at 1e-13 relative
    table = {}
    for scale in ("full", "smoke"):
        for op in all_ops(scale):
            if op.id not in table:
                table[op.id] = reference(op)
                print(f"{op.id}: {json.dumps(table[op.id])[:160]}", file=sys.stderr)
    ORACLE_PATH.write_text(json.dumps({"ops": table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
