"""Machine record written with every benchmark result (read-only probes)."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                   "openblas_get_num_threads", "MKL_Get_Max_Threads")


def _cpuinfo():
    info = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cache size") and key not in info:
                info[key] = value.strip()
    except OSError:
        pass
    return info


def _caches():
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas_libraries():
    """BLAS libraries mapped into this process, with their thread counts."""
    paths = set()
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if any(k in path.lower() for k in ("openblas", "mkl", "blis")):
                paths.add(path)
    except OSError:
        pass
    out = []
    for path in sorted(paths):
        entry = {"library": os.path.basename(path), "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                entry["threads"] = int(fn())
                break
        out.append(entry)
    return out


def record():
    """nproc, CPU model and caches, Python/numpy/scipy versions, BLAS.

    Call after cornerflow is imported, so numpy's and scipy's BLAS
    libraries are loaded."""
    import numpy
    import scipy

    cpu = _cpuinfo()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cpuinfo_cache_size": cpu.get("cache size"),
        "caches": _caches(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "scipy_blas": {"name": sblas.get("name"), "version": sblas.get("version")},
        "blas_loaded": _blas_libraries(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }
