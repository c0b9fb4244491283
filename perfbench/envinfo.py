"""Record of the numerical environment that decides a run's bytes and speed.

Everything here is read only: the OpenBLAS thread count is queried on the
libraries already mapped into this process and never set.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
from concurrent.futures import ProcessPoolExecutor

import numpy
import scipy

_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _blas_config(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def _mapped_openblas() -> list:
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(path for path in paths if path.startswith("/"))


def openblas_threads() -> dict:
    """Effective thread count of every OpenBLAS mapped into this process."""
    out = {}
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                out[os.path.basename(path)] = int(query())
                break
    return out


def environment(scrubbed: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "openblas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "scrubbed_env": scrubbed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def probed_pool(peaks: list):
    """A ProcessPoolExecutor subclass that appends each worker's peak RSS
    (MB) to ``peaks`` before shutdown.

    Installed as ``rabi_lab.sweeps.ProcessPoolExecutor``; the workers are
    still alive (idle) when ``shutdown`` starts, so their high-water mark
    is readable from /proc.
    """

    class ProbedPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            peaks.extend(_vm_hwm_mb(pid) for pid in list(getattr(self, "_processes", None) or {}))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    return ProbedPool
