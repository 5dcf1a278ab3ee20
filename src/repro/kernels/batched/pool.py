"""Batched float pooling: tap-loop reductions without patch tensors.

Both kernels replace ``extract_patches`` (which materializes an
``(N, oh, ow, kh, kw, C)`` copy) with a loop over the kh*kw window taps,
reducing strided views of the padded input in place. Max pooling is exactly
equal to the builtin kernel (max is order-independent); average pooling
accumulates taps in a different order than the patch sum, so the last float
bit can differ.

TFLite semantics are preserved: average pooling divides by the count of
in-bounds elements under each window (not the full window size), and max
pooling pads with -inf so padding never wins.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.batched.conv import _pad_spatial, _tap_view
from repro.kernels.common import (
    Padding,
    conv_output_size,
    normalize_stride,
    resolve_padding,
)
from repro.util.errors import KernelError


def _geometry(
    x: np.ndarray,
    pool_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None,
    padding: Padding,
) -> tuple[int, int, int, int, int, int, tuple[tuple[int, int], tuple[int, int]]]:
    if x.ndim != 4:
        raise KernelError(f"expected NHWC input, got shape {x.shape}")
    kh, kw = normalize_stride(pool_size)
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    oh = conv_output_size(x.shape[1], kh, sh, pad[0])
    ow = conv_output_size(x.shape[2], kw, sw, pad[1])
    return kh, kw, sh, sw, oh, ow, pad


def batched_avg_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Average pooling as a tap-sum over the batch, excluding padding."""
    kh, kw, sh, sw, oh, ow, pad = _geometry(x, pool_size, stride, padding)
    xp = _pad_spatial(x, pad)
    acc = None
    for i in range(kh):
        for j in range(kw):
            tap = _tap_view(xp, i, j, oh, ow, sh, sw)
            if acc is None:
                acc = tap.copy()
            else:
                acc += tap
    # In-bounds element count per window position (TFLite divides by the
    # valid count, not kh*kw): the same tap-sum over an all-ones plane, in
    # the input's dtype so the division keeps it.
    ones = np.ones((1, x.shape[1], x.shape[2], 1), dtype=x.dtype)
    op = _pad_spatial(ones, pad)
    counts = None
    for i in range(kh):
        for j in range(kw):
            tap = _tap_view(op, i, j, oh, ow, sh, sw)
            counts = tap.copy() if counts is None else counts + tap
    acc /= counts
    return acc


def batched_max_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Max pooling as a running elementwise maximum over window taps."""
    kh, kw, sh, sw, oh, ow, pad = _geometry(x, pool_size, stride, padding)
    (pt, pb), (pl, pr) = pad
    if pt or pb or pl or pr:
        xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                    mode="constant", constant_values=-np.inf)
    else:
        xp = x
    out = None
    for i in range(kh):
        for j in range(kw):
            tap = _tap_view(xp, i, j, oh, ow, sh, sw)
            if out is None:
                out = tap.copy()
            else:
                np.maximum(out, tap, out=out)
    return out
