"""Run context recorded with every result: CPUs, Python, numpy, BLAS and its threads.

The BLAS thread count is read back from the loaded OpenBLAS library itself,
because an environment variable is only a request: ``threadpoolctl`` is
not available here, so nothing else reports the count actually in effect.
"""

import ctypes
import os
import platform

# Getter names exported by the OpenBLAS builds numpy ships with, tried in order.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas_paths():
    """Shared objects mapped into this process whose name mentions OpenBLAS."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 6 and "openblas" in os.path.basename(parts[-1]).lower():
                    paths.add(parts[-1])
    except OSError:
        return []
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_runtime():
    """(threads in effect, config string) from the loaded OpenBLAS, or (None, None)."""
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call(lib, _THREAD_GETTERS, ctypes.c_int)
        config = _call(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        if threads is not None:
            return int(threads), config.decode() if config else None
    return None, None


def run_context():
    """Everything about the machine and libraries that a timing depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "machine": platform.machine(),
    }
