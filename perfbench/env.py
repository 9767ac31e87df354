"""The environment a result was measured in, recorded in every result file."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    """Hash of the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0, read from sysfs; None where it is not readable."""
    sizes = {"l2": None, "l3": None}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if f"l{level}" in sizes:
            sizes[f"l{level}"] = size
    return sizes


def blas_threads_in_use() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}) \
        if hasattr(np.__config__, "CONFIG") else {}
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": blas_threads_in_use(),
        "liptrack_workers": os.environ.get("LIPTRACK_WORKERS"),
        "nproc": nproc(),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "workload_seed": int(seed),
    }
