"""On-disk cache of trained zoo parameters.

Training is deterministic (seeded numpy end to end), so the cache is purely
an accelerator: deleting it and retraining reproduces identical weights.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

CACHE_VERSION = 4


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``<repo>/.cache/zoo``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        root = Path(env)
    else:
        root = Path(__file__).resolve().parents[3] / ".cache" / "zoo"
    root.mkdir(parents=True, exist_ok=True)
    return root


def _paths(name: str) -> tuple[Path, Path]:
    base = cache_dir() / f"{name}_v{CACHE_VERSION}"
    return base.with_suffix(".npz"), base.with_suffix(".json")


def save_trained(
    name: str,
    params: dict[str, np.ndarray],
    state: dict[str, dict[str, np.ndarray]],
    meta: dict,
) -> None:
    """Persist trained parameters, BN statistics, and training metadata."""
    npz_path, meta_path = _paths(name)
    arrays: dict[str, np.ndarray] = {}
    for key, value in params.items():
        arrays[f"p::{key}"] = value
    for bn_name, stats in state.items():
        for stat_key, value in stats.items():
            arrays[f"s::{bn_name}::{stat_key}"] = value
    np.savez_compressed(npz_path, **arrays)
    meta_path.write_text(json.dumps(meta, indent=2))


def trained_stamp(name: str) -> tuple | None:
    """``(path, st_mtime_ns, st_size)`` of both cache files, or ``None``.

    Anything that rewrites or relocates the cached weights (a retrain, a
    different ``$REPRO_CACHE_DIR``) changes the stamp, so callers that
    memoize on it rebuild.
    """
    stamp = []
    for path in _paths(name):
        try:
            st = path.stat()
        except FileNotFoundError:
            return None
        stamp.append((str(path), st.st_mtime_ns, st.st_size))
    return tuple(stamp)


def load_trained(
    name: str,
) -> tuple[dict[str, np.ndarray], dict[str, dict[str, np.ndarray]], dict] | None:
    """Load a cached training result, or ``None`` if absent."""
    npz_path, meta_path = _paths(name)
    if not npz_path.exists() or not meta_path.exists():
        return None
    params: dict[str, np.ndarray] = {}
    state: dict[str, dict[str, np.ndarray]] = {}
    with np.load(npz_path) as data:
        for key in data.files:
            if key.startswith("p::"):
                params[key[3:]] = data[key]
            elif key.startswith("s::"):
                _, bn_name, stat_key = key.split("::")
                state.setdefault(bn_name, {})[stat_key] = data[key]
    meta = json.loads(meta_path.read_text())
    return params, state, meta
