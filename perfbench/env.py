"""Process environment for the benchmark: BLAS thread pinning, the path to
the checkout's own kwspot sources, and a record of the machine.

`pin_threads` must run before numpy is first imported, because OpenBLAS
reads its thread count once, when the library loads. On a 2-vCPU machine
two BLAS threads instead of one moved featurize time about 4x, so the
thread count is fixed here rather than left to the caller's shell.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class MissingProgram(Exception):
    """The checkout does not hold the kwspot sources the benchmark runs."""


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_kwspot():
    """Import kwspot from <checkout>/src, never from an installed copy."""
    if not (SRC / "kwspot" / "__init__.py").is_file():
        raise MissingProgram(f"no kwspot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kwspot

    if Path(kwspot.__file__).resolve().parent != SRC / "kwspot":
        raise MissingProgram(f"kwspot imported from {kwspot.__file__}, not {SRC}")
    return kwspot


def describe(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "seed": seed,
    }
