"""Native linear algebra of this process: its OpenBLAS thread counts, and one LAPACK binding.

The binding calls scipy's own ``dstebz`` and ``dstein`` through the
function pointers ``scipy.linalg.cython_lapack`` exports, as ctypes
foreign calls, which release the GIL while LAPACK runs; f2py's hold it.
"""

import ctypes
import os
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy
from scipy.linalg import cython_lapack


def _openblas_call(lib, name: str, *args, restype=ctypes.c_int):
    """lib's ``{scipy_,}openblas_<name>{64_,}`` on int args; None if it has none."""
    names = [f"{p}_{name}{s}" for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    for function in (getattr(lib, symbol) for symbol in names if hasattr(lib, symbol)):
        function.restype, function.argtypes = restype, [ctypes.c_int] * len(args)
        return function(*args)
    return None


@lru_cache(maxsize=None)
def _mapped_openblas() -> dict:
    """{path: handle} of every OpenBLAS mapped into this process; {} off Linux."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split(maxsplit=5)[-1].strip() for line in handle if "openblas" in line}
        return {path: ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in sorted(paths)}
    except (OSError, AttributeError):  # no /proc/self/maps, or no RTLD_NOLOAD
        return {}


def _package_openblas(package) -> Optional[str]:
    """Path of the mapped OpenBLAS a package ships (``numpy.libs``); None unless exactly one."""
    root = os.path.dirname(os.path.realpath(package.__file__))
    own = [path for path in _mapped_openblas() if path.startswith((root + "/", root + ".libs/"))]
    return own[0] if len(own) == 1 else None


def lapack_threads() -> int:
    """Thread count of scipy's own OpenBLAS, which runs its LAPACK; 1 when it cannot tell."""
    path = _package_openblas(scipy)
    count = _openblas_call(_mapped_openblas()[path], "get_num_threads") if path else None
    return max(count or 1, 1)


def _set_openblas_threads(counts: dict) -> dict:
    """Set each mapped OpenBLAS named in counts {path: threads}; every mapped one's count before."""
    libs = _mapped_openblas()
    before = {path: _openblas_call(lib, "get_num_threads") for path, lib in libs.items()}
    for path in counts.keys() & libs.keys():
        _openblas_call(libs[path], "set_num_threads", counts[path], restype=None)
    return before


def _blas_environment() -> dict:
    """Versions, and each mapped OpenBLAS's config, threads now and whether a job pins it."""
    own = _package_openblas(np)
    libs = [
        {"file": os.path.basename(path), "threads": _openblas_call(lib, "get_num_threads"),
         "config": (_openblas_call(lib, "get_config", restype=ctypes.c_char_p) or b"").decode(),
         "pinned": path == own}
        for path, lib in _mapped_openblas().items()
    ]
    pin = "numpy's OpenBLAS at one thread" if own else "nothing pinned: no separate numpy OpenBLAS"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": libs, "pin": pin}


def _lapack(name: str, arguments: int):
    """scipy's LAPACK routine ``name`` as a foreign function of pointer arguments."""
    capsule, api = cython_lapack.__pyx_capi__[name], ctypes.pythonapi
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * arguments)(
        pointer(capsule, signature(capsule)))


_STEBZ, _STEIN = _lapack("dstebz", 18), _lapack("dstein", 13)


def stebz_stein(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))``, by the same LAPACK calls:
    ``dstebz`` (levels 1..k, block order, abstol 0), ``dstein`` (Fortran order), ``np.argsort``."""
    from .eigensolve import SolverError  # eigensolve imports this module

    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    n, ref = len(d), ctypes.byref  # scalars by reference, arrays by address: cheap per call
    size, il, iu, m, nsplit, info = (ctypes.c_int(value) for value in (n, 1, k, 0, 0, 0))
    zero, w, work = ctypes.c_double(0.0), np.empty(n), np.empty(5 * n)
    iblock, isplit, iwork = (np.empty(length, np.intc) for length in (n, n, 3 * n))
    pd, pe, pw, pblock, psplit, pwork, piwork = (
        a.ctypes.data for a in (d, e, w, iblock, isplit, work, iwork))
    _STEBZ(b"I", b"B", ref(size), ref(zero), ref(zero), ref(il), ref(iu), ref(zero), pd, pe,
           ref(m), ref(nsplit), pw, pblock, psplit, pwork, piwork, ref(info))
    if info.value:
        raise SolverError(f"tridiagonal solve failed for dim={n}: dstebz info={info.value}")
    w, z, ifail = w[: m.value], np.empty((n, m.value), order="F"), np.empty(m.value, np.intc)
    _STEIN(ref(size), pd, pe, ref(m), pw, pblock, psplit, z.ctypes.data, ref(size), pwork, piwork,
           ifail.ctypes.data, ref(info))
    if info.value:
        raise SolverError(f"tridiagonal solve failed for dim={n}: dstein info={info.value}")
    order = np.argsort(w)
    return w[order], z[:, order]
