"""Environment stamp recorded with every benchmark result.

Everything here is read, never set: the BLAS thread count is whatever the
library chose in this process, queried through its own API.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

# (num-threads getter, config getter) symbol pairs: the OpenBLAS bundled
# with numpy wheels, then a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def _loaded_blas_path() -> str | None:
    """Path of the BLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """The BLAS library numpy loaded, and its effective thread count."""
    import numpy  # noqa: F401  (links the BLAS library into the process)

    info = {"library": None, "config": None, "threads": None}
    path = _loaded_blas_path()
    if path is None:
        return info
    info["library"] = os.path.basename(path)
    lib = ctypes.CDLL(path)
    for threads_sym, config_sym in _OPENBLAS_SYMBOLS:
        if hasattr(lib, threads_sym):
            get_threads = getattr(lib, threads_sym)
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            info["threads"] = int(get_threads())
            if hasattr(lib, config_sym):
                get_config = getattr(lib, config_sym)
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode(errors="replace").strip()
            break
    return info


def git_state(root: Path) -> dict:
    """HEAD SHA and dirtiness, or ``None`` for both outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()) != root:
            return {"sha": None, "dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain",
                         "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def stamp(root: Path) -> dict:
    """Cores, interpreter, numpy, BLAS and git state of this process."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git": git_state(root),
        "platform": platform.platform(),
    }
