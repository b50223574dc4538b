"""The environment a run measured in: versions, BLAS threads, caches, commit.

The benchmark sets no BLAS thread variable; it records what it found, and the
thread count OpenBLAS reports when it can ask the loaded library.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _openblas_threads(np) -> int | None:
    """Ask the OpenBLAS that numpy's wheel bundles for its thread count."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_bytes() -> dict[str, int]:
    """Unified/data cache sizes by level, as the kernel lists them for CPU 0."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git. A checkout
    that is not a repository reads "unknown"; the source hash identifies it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, dims: tuple[int, int, int]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_bytes()
    x_bytes = int(np.prod(dims)) * 8
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "blas_threads_effective": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "dims": list(dims),
        "x_float64_mb": x_bytes / 2 ** 20,
        "cache_mb": {k: v / 2 ** 20 for k, v in caches.items()},
        "x_over_last_cache": x_bytes / caches[max(caches)] if caches else None,
        "git_commit": _git_commit(root),
        "src_sha256": _source_sha256(root),
    }
