"""The benchmark's workloads: the CLI operations each one runs.

An ``Op`` is one ``randroot`` invocation, described by its parameters so the
same description yields the argv given to ``randroot.cli.main``, the oracle
entry that ``make_oracle.py`` computes for it, and the library calls that the
traced run compares it with.  Two scales exist: ``full`` (what the benchmark
times) and ``smoke`` (tiny sizes, for the benchmark's own tests).

The workload seed chooses the Monte Carlo ``--seed`` values; ``pass_orders``
derives the order of the ops in every pass from it.  The program receives only
the generated argv.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_TOL = 1e-9  # the CLI's default --tol; tolerances below are derived from it

WORKLOADS = {
    "expect_large_n": "expect over the full line with tables of thousands of coefficients: "
                      "O(n^2) convolution build, density kernel and quadrature",
    "mc_counts": "Monte Carlo root counting: per-trial overhead at n=20, "
                 "companion eigen-solve at n=100 and n=200; no table or quadrature",
    "small_n_sweep": "many short ops: Kac closed forms, Jacobi roots, asymptotic fits, "
                     "tiny tables and CLI serialisation of thousands of rows",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation, described by its parameters."""

    id: str
    command: str
    cls: tuple = ()          # ("gamma", g) | ("alpha-beta", a, b) | ("kac",) | ("elliptic",) | ("legendre",)
    n: int | None = None
    n_list: tuple[int, ...] = ()
    grid: tuple[float, float, int] | None = None
    trials: int = 0
    seed: int = 0
    interval: tuple[str, str] | None = None
    level: str = ""

    def argv(self) -> list[str]:
        args = [self.command]
        if self.cls:
            args += ["--class", self.cls[0]]
            if self.cls[0] == "gamma":
                args += ["--gamma", f"{self.cls[1]:g}"]
            elif self.cls[0] == "alpha-beta":
                args += ["--alpha", f"{self.cls[1]:g}", "--beta", f"{self.cls[2]:g}"]
        if self.n is not None:
            args += ["--n", str(self.n)]
        if self.n_list:
            args += ["--n-list", ",".join(str(v) for v in self.n_list)]
        if self.grid is not None:
            a, b, steps = self.grid
            args += ["--grid", f"{a:g}:{b:g}:{steps}"]
        if self.command == "mc":
            args += ["--trials", str(self.trials), "--seed", str(self.seed)]
        if self.interval is not None:
            args += ["--interval", *self.interval]
        if self.level:
            args += ["--level", self.level]
        return args

    def family(self):
        """The ``randroot`` family object for ``cls``."""
        import randroot as rr

        name = self.cls[0]
        if name == "gamma":
            return rr.gamma_family(self.cls[1])
        if name == "alpha-beta":
            return rr.alpha_beta_family(self.cls[1], self.cls[2])
        return {"kac": rr.kac, "elliptic": rr.elliptic, "legendre": rr.legendre}[name]()

    def jacobi_params(self) -> tuple[float, float] | None:
        """(alpha, beta) when the family is an alpha/beta family.

        gamma = 1 is alpha = beta = 0: C(n, n-i) * C(n, i) = C(n, i)^2.
        """
        name = self.cls[0]
        if name == "alpha-beta":
            return float(self.cls[1]), float(self.cls[2])
        if name == "legendre" or (name == "gamma" and self.cls[1] == 1.0):
            return 0.0, 0.0
        return None


GAMMA1 = ("gamma", 1.0)
AB = ("alpha-beta", 0.5, 2.0)

# Per scale: degrees and sizes.  "smoke" keeps every op, with tiny inputs.
# "mc" gives (n, trials, ops): the trials at one degree are split over several
# ops with their own seeds, so that each op is short enough for its fastest run
# to find a quiet moment on a shared machine.
_SIZES = {
    "full": {
        "expect": (4000, 2000, 3000),
        "mc": ((20, 500, 4), (100, 50, 4), (200, 30, 1)),
        "density": ((50, 601), (1_000_000, 2001)),
        "bounds": (1000, 400),
        "verify": "full",
    },
    "smoke": {
        "expect": (40, 30, 25),
        "mc": ((10, 100, 2), (20, 25, 2), (20, 30, 1)),
        "density": ((50, 61), (1_000_000, 201)),
        "bounds": (100, 40),
        "verify": "fast",
    },
}


def _mc_ops(sizes, seed: int) -> list[Op]:
    rng = random.Random(f"mc-{seed}")
    ops = []
    for cls, (n, trials, parts) in zip((GAMMA1, GAMMA1, AB), sizes):
        name = f"mc_{'gamma1' if cls == GAMMA1 else 'ab'}_n{n}"
        for k in range(parts):
            ops.append(Op(f"{name}_p{k}" if parts > 1 else name, "mc", cls, n=n, trials=trials,
                          seed=rng.randrange(1, 2**31)))
    return ops


def build_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The ops of ``workload``; ``seed`` only sets the Monte Carlo seeds."""
    size = _SIZES[scale]
    if workload == "expect_large_n":
        n_g, n_ab, n_ell = size["expect"]
        return [
            Op(f"expect_gamma1_n{n_g}", "expect", GAMMA1, n=n_g),
            Op(f"expect_ab_n{n_ab}", "expect", AB, n=n_ab),
            Op(f"expect_elliptic_n{n_ell}", "expect", ("elliptic",), n=n_ell),
        ]
    if workload == "mc_counts":
        return _mc_ops(size["mc"], seed)
    if workload == "small_n_sweep":
        (n_leg, steps_leg), (n_kac, steps_kac) = size["density"]
        n_b1, n_b2 = size["bounds"]
        return [
            Op("scaling_kac", "scaling", ("kac",), n_list=(1000, 10_000, 100_000, 1_000_000)),
            Op("scaling_gamma1", "scaling", GAMMA1, n_list=(10, 20, 40, 80)),
            Op("scaling_ab", "scaling", AB, n_list=(10, 20, 40, 80)),
            Op(f"density_legendre_n{n_leg}_g{steps_leg}", "density", ("legendre",), n=n_leg,
               grid=(0.0, 3.0, steps_leg)),
            Op(f"density_kac_n{n_kac}_g{steps_kac}", "density", ("kac",), n=n_kac, grid=(0.0, 3.0, steps_kac)),
            Op("expect_legendre_n6_1inf", "expect", ("legendre",), n=6, interval=("1", "inf")),
            Op(f"bounds_legendre_n{n_b1}", "bounds", ("legendre",), n=n_b1),
            Op(f"bounds_ab_n{n_b2}", "bounds", AB, n=n_b2),
            Op(f"verify_{size['verify']}", "verify", level=size["verify"]),
        ]
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


def all_ops(scale: str = "full", seed: int = 0) -> list[Op]:
    return [op for w in WORKLOADS for op in build_ops(w, seed, scale)]


def pass_orders(n_ops: int, seed: int):
    """Endless per-pass op orders, a fresh shuffle for each pass, fixed by ``seed``."""
    rng = random.Random(f"order-{seed}")
    order = list(range(n_ops))
    while True:
        rng.shuffle(order)
        yield list(order)
