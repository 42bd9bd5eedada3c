"""Machine fingerprint stamped on every benchmark result.

Two results are comparable only when their fingerprints are equal; the
compare script refuses otherwise.  Everything here is read-only: the
cgroup CPU quota and the loaded BLAS library are read, never set.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters exported by the BLAS builds numpy ships with.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build() -> tuple[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown", "unknown"
    return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))


def _loaded_blas_paths() -> list[str]:
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = {line.split()[-1] for line in lines if ".so" in line and ("blas" in line or "mkl" in line)}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> int | None:
    """Thread count the loaded BLAS library reports it will use."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def cgroup_cpu_quota() -> str:
    """CPU quota as 'quota/period' microseconds, 'max' when unlimited."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    try:
        if v2.exists():
            quota, period = v2.read_text().split()
            return f"{quota}/{period}"
        quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
        period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
    except (OSError, ValueError):
        return "unknown"
    return f"{'max' if quota == '-1' else quota}/{period}"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(nproc: int, pinned_cpu: int) -> dict:
    """Machine description; ``nproc`` is the CPU count before the run pinned
    itself to ``pinned_cpu``."""
    blas_name, blas_version = _blas_build()
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "cpu_model": _cpu_model(),
    }
