"""Locating the package source the benchmark measures."""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE_PATH = BENCH_DIR / "oracle.json"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/randroot`` to benchmark."""


def use_repo_source() -> None:
    """Import ``randroot`` from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "randroot" / "__init__.py").is_file():
        raise SourceMissing(f"no randroot package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    loaded = sys.modules.get("randroot")
    if loaded is not None and Path(loaded.__file__).resolve().parent != SRC / "randroot":
        raise SourceMissing(f"randroot already imported from {loaded.__file__}")
