"""Float pooling kernels (NHWC)."""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    extract_patches,
    normalize_stride,
    resolve_padding,
)
from repro.util.errors import KernelError


def _pool_counts(
    in_h: int, in_w: int, kh: int, kw: int, sh: int, sw: int,
    pad: tuple[tuple[int, int], tuple[int, int]], dtype: np.dtype,
) -> np.ndarray:
    """Number of *valid* (non-padding) elements under each window position.

    TFLite average pooling divides by the count of in-bounds elements, not by
    the full window size; this matters for 'same'-padded edges. Counts come
    in ``dtype`` (the input's), so dividing by them keeps that dtype.
    """
    ones = np.ones((1, in_h, in_w, 1), dtype=dtype)
    counts = extract_patches(ones, kh, kw, sh, sw, pad).sum(axis=(3, 4))
    return counts[0, :, :, 0]


def avg_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Average pooling over spatial windows, excluding padding from the mean."""
    kh, kw = normalize_stride(pool_size)  # reuse the (h, w) pair validation
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x, kh, kw, sh, sw, pad)
    sums = patches.sum(axis=(3, 4))
    counts = _pool_counts(x.shape[1], x.shape[2], kh, kw, sh, sw, pad,
                          x.dtype)
    return sums / counts[None, :, :, None]


def max_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Max pooling over spatial windows (padding uses -inf, never wins)."""
    kh, kw = normalize_stride(pool_size)
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x, kh, kw, sh, sw, pad, pad_value=-np.inf)
    return patches.max(axis=(3, 4))


def global_avg_pool(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Mean over the full spatial extent (the TFLite ``Mean`` op over H, W)."""
    if x.ndim != 4:
        raise KernelError(f"expected NHWC input, got shape {x.shape}")
    return x.mean(axis=(1, 2), keepdims=keepdims)
