"""BLAS thread pinning and the machine record stored with every result.

``pin_blas_threads`` must run before NumPy is first imported: OpenBLAS
reads its thread count once, when the library loads. Trained weights
differ in their last bits between one and two BLAS threads, so every
workload runs single-threaded and counts itself failed if the loaded
BLAS reports more than one thread.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def pin_blas_threads() -> None:
    """Ask every BLAS NumPy may load for one thread (this process and children)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_libraries() -> list[str]:
    """Paths of the loaded shared libraries with "blas" in their name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(
        p for p in paths if p.startswith("/") and "blas" in os.path.basename(p).lower()
    )


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if none answers."""
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return out


def machine_record() -> dict:
    """Versions, CPU and thread settings; call after NumPy is imported."""
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
