"""CLI output drift between two source trees.

Runs a fixed corpus of ``randroot`` command lines in-process, through
``randroot.cli.main``, once against each tree, and lists every invocation
whose stdout, stderr, exit code or ``--output`` file differs.  For each it
prints the first differing line of each stream, and for each CSV column the
number of cells that moved and the largest move: in ulps, or for integers
as a difference.  It uses the standard
library and ``randroot`` only.

    python tools/drift.py OLD_TREE NEW_TREE      # e.g. a git worktree of the parent, and .

A tree is a checkout whose ``src`` holds the ``randroot`` package.  Each tree
runs in its own interpreter, in an empty working directory, so output paths
and messages match.  The exit code is 0 whatever drifted, 1 if a tree could
not be run; the listing is the report.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time

CLASSES = {
    "gamma0.3": ["--class", "gamma", "--gamma", "0.3"],
    "gamma1": ["--class", "gamma", "--gamma", "1"],
    "gamma5": ["--class", "gamma", "--gamma", "5"],
    "elliptic": ["--class", "elliptic"],
    "legendre": ["--class", "legendre"],
    "kac": ["--class", "kac"],
    "ab(0.5,2)": ["--class", "alpha-beta", "--alpha", "0.5", "--beta", "2"],
    "ab(-0.9,3)": ["--class", "alpha-beta", "--alpha", "-0.9", "--beta", "3"],
    "ab(400,400)": ["--class", "alpha-beta", "--alpha", "400", "--beta", "400"],
}
ALPHA_BETA = ("legendre", "ab(0.5,2)", "ab(-0.9,3)", "ab(400,400)")


def corpus() -> list[list[str]]:
    """The command lines, in a fixed order; ``--output`` paths are relative to the working directory."""
    runs = []
    for cls in CLASSES.values():
        for n in (1, 2, 6, 25, 200, 1000, 4000, 10**5):
            for interval in ([], ["--interval", "0.5", "2"], ["--interval", "-inf", "-0.99"]):
                runs.append(["expect", *cls, "--n", str(n), *interval])
        for n in (3, 50, 4000, 10**5):
            for grid in ("0:1e-300:3", "0.99:1.01:41", "100:1e6:31", "0:3:61"):
                runs.append(["density", *cls, "--n", str(n), "--grid", grid])
        runs.append(["scaling", *cls, "--n-list", "50,100,200,400"])
        runs.append(["mc", *cls, "--n", "20", "--trials", "40", "--seed", "7"])
    for name in ALPHA_BETA:
        runs.append(["bounds", *CLASSES[name], "--n", "50"])
    runs += [
        ["bounds", *CLASSES["ab(400,400)"], "--n", "1000"],
        ["expect", "--class", "kac", "--n", "1000000000000"],
        ["expect", *CLASSES["gamma1"], "--n", "1000000"],
        ["expect", *CLASSES["ab(0.5,2)"], "--n", "1000000"],
        ["expect", "--class", "gamma", "--gamma", "20", "--n", "100"],
        ["expect", *CLASSES["gamma1"], "--n", "50", "--tol", "1e-30"],
        ["expect", *CLASSES["gamma1"], "--n", "50", "--tol", "2e-14"],
        ["expect", *CLASSES["gamma1"], "--n", "4000", "--format", "json"],
        ["expect", *CLASSES["ab(0.5,2)"], "--n", "2000", "--output", "expect.csv"],
        ["density", *CLASSES["legendre"], "--n", "50", "--grid", "-3:3:601", "--format", "json"],
        ["density", "--class", "kac", "--n", "1000000", "--grid", "0:2:2001", "--output", "density.csv"],
        ["mc", *CLASSES["gamma1"], "--n", "100", "--trials", "20", "--format", "json"],
        ["scaling", *CLASSES["gamma1"], "--n-list", "50,100,200,400", "--format", "json"],
        # exit 2: validation errors
        ["expect", "--class", "gamma", "--n", "5"],
        ["expect", *CLASSES["gamma1"], "--n", "0"],
        ["expect", *CLASSES["gamma1"], "--n", "5", "--interval", "2", "1"],
        ["expect", *CLASSES["gamma1"], "--n", "5", "--tol", "0"],
        ["expect", "--class", "alpha-beta", "--alpha", "-1", "--beta", "0", "--n", "5"],
        ["density", *CLASSES["gamma1"], "--n", "5", "--grid", "1:0"],
        ["density", *CLASSES["gamma1"], "--n", "5", "--grid", "-1:nan:3"],
        ["mc", *CLASSES["gamma1"], "--n", "5", "--trials", "0"],
        ["scaling", *CLASSES["gamma1"], "--n-list", "50,40,60,70"],
        ["bounds", *CLASSES["gamma1"], "--n", "50"],
        ["expect", "--class", "kac", "--n", "5", "--output", "missing/x.csv"],
        # exit 3: numeric failures
        ["density", "--class", "gamma", "--gamma", "400", "--n", "50", "--grid", "0:1:3"],
        ["density", "--class", "gamma", "--gamma", "400", "--n", "6", "--grid", "1e-320:1e-310:3"],
        ["density", "--class", "gamma", "--gamma", "100", "--n", "50", "--grid", "0:1e-300:3"],
        ["mc", *CLASSES["gamma1"], "--n", "1100", "--trials", "3"],
        ["verify", "--level", "fast"],
        ["verify", "--level", "full"],
    ]
    return runs


def record(src: str, out: str) -> None:
    """Run the corpus against the ``randroot`` in ``src`` and write the outputs as JSON to ``out``."""
    sys.path.insert(0, os.path.abspath(src))
    from randroot import cli

    results = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv in corpus():
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse
                    code = exc.code
            seconds = time.perf_counter() - start
            files = {}
            for name in sorted(os.listdir(work)):
                with open(name, newline="") as handle:
                    files[name] = handle.read()
                os.remove(name)
            results.append({"argv": argv, "code": code, "stdout": stdout.getvalue(),
                            "stderr": stderr.getvalue(), "files": files, "seconds": seconds})
    with open(out, "w") as handle:
        json.dump(results, handle)


def _ordered(x: float) -> int:
    """The float's rank among doubles, so that neighbours differ by 1."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def distance(a: str, b: str) -> tuple[float, str] | None:
    """How far apart two CSV fields are: (difference, "apart") for integers, (ulps, "ulps") for other
    numbers, inf if only one is finite, None if either is text."""
    try:
        return float(abs(int(a) - int(b))), "apart"
    except ValueError:
        pass
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, "ulps"
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, "ulps"
    return float(abs(_ordered(x) - _ordered(y))), "ulps"


def _first_difference(old: str, new: str) -> str:
    a, b = old.split("\n"), new.split("\n")
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            break
    else:
        k = min(len(a), len(b))
        x, y = (a[k] if k < len(a) else "<end>"), (b[k] if k < len(b) else "<end>")
    header, columns = None, {}
    for p, q in zip(a, b):
        if header is None:  # the first line of a CSV block, after a blank line, names its columns
            header = p.split(",")
            continue
        if not p:
            header = None
        for column, (u, v) in enumerate(zip(p.split(","), q.split(","))):
            d = distance(u, v)
            if d and d[0]:
                name = header[column] if header and column < len(header) else str(column)
                cells, most, unit = columns.get(name, (0, 0.0, d[1]))
                columns[name] = (cells + 1, max(most, d[0]), unit)
    text = f"line {k + 1}:\n      - {x}\n      + {y}"
    if columns:
        text += "\n      CSV cells moved: " + ", ".join(
            f"{name} {cells} (<= {most:g} {unit})" for name, (cells, most, unit) in columns.items())
    return text


def compare(old: list[dict], new: list[dict]) -> int:
    """Print every invocation whose outputs differ; return how many did."""
    moved = 0
    for a, b in zip(old, new):
        streams = [(name, a[name], b[name]) for name in ("stdout", "stderr") if a[name] != b[name]]
        streams += [(f"file {name}", a["files"].get(name, ""), b["files"].get(name, ""))
                    for name in sorted(set(a["files"]) | set(b["files"]))
                    if a["files"].get(name) != b["files"].get(name)]
        if not streams and a["code"] == b["code"]:
            continue
        moved += 1
        print(f"randroot {' '.join(a['argv'])}")
        if a["code"] != b["code"]:
            print(f"  exit code {a['code']} -> {b['code']}")
        for name, x, y in streams:
            print(f"  {name} {_first_difference(x, y)}")
    old_s, new_s = sum(r["seconds"] for r in old), sum(r["seconds"] for r in new)
    print(f"{moved} of {len(old)} invocations moved; in-process time {old_s:.1f} s -> {new_s:.1f} s")
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the tree to compare against (its src/ holds randroot)")
    parser.add_argument("new", nargs="?", help="the tree to compare")
    parser.add_argument("--record", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        record(os.path.join(args.old, "src"), args.record)
        return 0
    if args.new is None:
        parser.error("give two trees")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for k, tree in enumerate((args.old, args.new)):
            out = os.path.join(tmp, f"{k}.json")
            run = subprocess.run([sys.executable, os.path.abspath(__file__), tree, "--record", out])
            if run.returncode != 0:
                print(f"drift: the corpus did not run against {tree}", file=sys.stderr)
                return 1
            with open(out) as handle:
                outputs.append(json.load(handle))
    compare(*outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
