"""Process set-up shared by the benchmark's scripts; imports only the stdlib.

``pin_blas`` must run before numpy is first imported, because OpenBLAS reads
its thread count once, when it loads. One thread is both faster and steadier
for these workloads on a 2-core machine, and leaves the other core free.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = "1"
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    for var in _BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def use_source() -> None:
    """Puts the checkout's ``src`` first on the import path.

    Raises:
        SystemExit: With code 2 if the checkout holds no confpce sources, so
            that the benchmark never measures some other installed copy.
    """
    if not (SRC / "confpce" / "__init__.py").is_file():
        print(f"error: no confpce sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
