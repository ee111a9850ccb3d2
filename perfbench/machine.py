"""The machine a result was measured on: cores, Python, numpy, BLAS, load."""
from __future__ import annotations

import ctypes
import os
import platform

# thread getters of the BLAS builds numpy wheels and distributions ship
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads",
)


def _loaded_blas_paths() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line or "mkl" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> tuple[str | None, int | None]:
    """(library file, threads it will use) for the BLAS numpy has loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)

    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return os.path.basename(path), int(getter())
    return None, None


def describe() -> dict:
    import numpy

    blas_build = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    library, threads = blas_threads()
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), None)
    except OSError:
        pass
    pressure = None
    try:
        with open("/proc/pressure/cpu", encoding="utf-8") as psi:
            pressure = psi.readline().strip()  # "some avg10=... avg60=... avg300=..."
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_library": library,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS", "HFC_THREADS")
                     if k in os.environ},
        "loadavg_at_start": list(os.getloadavg()),
        "cpu_pressure_at_start": pressure,
    }
