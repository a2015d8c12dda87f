"""Facts about the machine and process that every result carries."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import time

import numpy as np

# Symbols that report the BLAS thread count, by library build.
_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads",
                   "MKL_Get_Max_Threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded BLAS reports, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*blas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def peak_rss_mb():
    """(peak resident set of this process in MB, where it was read)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0, "/proc/self/status VmHWM"
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, \
        "getrusage ru_maxrss"


# The speed probe's fixed work: small numpy calls driven from Python, as in
# the tiny workload, then BLAS-sized products, as in Swin-T.
_PROBE_SMALL = (np.ones((64, 32), np.float32), np.ones((32, 32), np.float32))
_PROBE_LARGE = np.ones((256, 256), np.float32)
# What the probe takes on a 2-vCPU "Intel(R) Xeon(R) Processor" VM (numpy
# 2.4.6, OpenBLAS at 2 threads) in its fast spells. Timings scaled by
# PROBE_REF_S / probe time read as if the machine ran at that speed.
PROBE_REF_S = 0.0022


def speed_probe_s() -> float:
    """Seconds the probe's fixed work takes now; it slows with the machine."""
    a, b = _PROBE_SMALL
    t0 = time.perf_counter()
    for _ in range(200):
        c = a @ b
        c = c + 1.0
        float(c.sum())
    for _ in range(4):
        _PROBE_LARGE @ _PROBE_LARGE
    return time.perf_counter() - t0


def cpu_steal_s():
    """CPU seconds the hypervisor gave to other guests, summed over the
    machine's CPUs since boot (the steal column of /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": _blas_vendor(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "peak_rss_source": peak_rss_mb()[1],
        "checkpoint_io": "page cache: each file is read back right after it is "
                         "written, so checkpoint throughput is not disk throughput",
    }
