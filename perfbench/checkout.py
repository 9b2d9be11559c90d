"""Locating the checkout's own coreflow source and pinning the thread count.

Both must happen before numpy or coreflow is imported, so the entry scripts
call them first.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """One BLAS and OpenMP thread: a plain single-threaded baseline.

    Child processes inherit the caps through the environment.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import coreflow from ``<checkout>/src`` and nowhere else.

    Exits with status 2 when the checkout holds no source, so a directory
    with only the benchmark in it yields no result.
    """
    if not (SRC / "coreflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coreflow source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coreflow

    if Path(coreflow.__file__).resolve().parent != SRC / "coreflow":
        sys.exit(f"perfbench: coreflow imported from {coreflow.__file__}, not {SRC}")
