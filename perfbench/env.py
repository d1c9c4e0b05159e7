"""Process environment for the benchmark: thread pinning, import path and
the record of where a result came from.

`pin_threads()` and `use_checkout_source()` must run before anything imports
numpy, so every entry point calls them first.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread for this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import `aglerlab` from this checkout's `src/`, never from elsewhere.

    Raises SystemExit when the checkout has no package source, so a bare
    benchmark directory fails without printing a result.
    """
    if not (SRC / "aglerlab" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly (no parent lookup)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _blas() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def describe() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }
