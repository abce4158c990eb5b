"""Host fingerprint and peak memory of the benchmark's processes."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = ["BLAS_THREAD_VARS", "fingerprint", "peak_rss_mb", "reset_peak_rss"]

#: BLAS/OpenMP thread settings the entry point pins to 1 before NumPy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint(caller_env: Dict[str, Optional[str]]) -> dict:
    """Cores, BLAS thread settings (as found and as run), Python and NumPy."""
    return {
        "cores": os.cpu_count(),
        "cpus_run_on": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads_caller": caller_env,
        "blas_threads_run": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` at its current resident set.

    Called once the inputs exist, so the generator's temporaries do not
    count toward the system's peak.  The C allocator first returns the
    temporaries' freed pages, which it would otherwise keep resident in an
    amount that varies with the number of ticks generated.  Where the
    kernel refuses the reset the mark stays, and the peak then includes
    those temporaries.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed pages stay counted
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
