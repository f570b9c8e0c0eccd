"""Machine and software facts recorded with every benchmark result.

Cache sizes are read from sysfs; bytes the benchmark reports elsewhere are
computed from array shapes, not measured bandwidth.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("ES_RATE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _openblas_runtime() -> dict:
    """Version string and thread count of the OpenBLAS numpy actually loaded."""
    try:
        libs = sorted({
            line.split()[-1]
            for line in Path("/proc/self/maps").read_text().splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        })
    except OSError:
        return {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            return {
                "library": Path(path).name,
                "config": get_config().decode(errors="replace"),
                "threads": get_threads(),
            }
    return {}


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "esrate").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def collect(root: Path) -> dict:
    import numpy
    import scipy

    import esrate

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_runtime": _openblas_runtime(),
        "esrate_version": esrate.__version__,
        "esrate_file": str(Path(esrate.__file__).resolve().relative_to(root.resolve())),
        "esrate_git_commit": _git_commit(root),
        "esrate_source_sha256": _source_digest(root),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
