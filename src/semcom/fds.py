"""Receiver-side fast denoising of corrupted one-hot maps.

The paper's denoiser average pools the present-class planes (kills noise
spikes), max pools them (restores the 1-regions) and thresholds; absent
classes come back as exact zero planes. A window's max exceeds the threshold
exactly when one of its values does, so for finite planes thresholding the
average pool, then dilating the mask over each max-kernel window, gives the
same bits. The dilation grows class regions by up to one kernel radius (not
corrected). Inputs are the planes with the power scale undone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from . import tensor as T
from .channel import is_int


class FdsError(ValueError):
    """Input the denoiser cannot use, or planes whose average pool overflows."""


@dataclass(frozen=True)
class FdsConfig:
    # avg_kernel is at most T.POOL_KERNEL_MAX (11), above the 1, 3 and 5 that are swept.
    # The default threshold 0.8 stays clear of 2/3: a straight region edge pools to
    # 2/3 one pixel outside the boundary, so a threshold at or below 2/3 grows every
    # region by a full ring and loses to naive thresholding on mildly noisy maps.
    avg_kernel: int = 3
    max_kernel: int = 3
    threshold: float = 0.8

    def __post_init__(self):
        if not (is_int(self.avg_kernel, 1, T.POOL_KERNEL_MAX + 1) and is_int(self.max_kernel, 1)
                and self.avg_kernel % 2 and self.max_kernel % 2):
            raise FdsError(f"kernels must be odd integers >= 1, avg at most {T.POOL_KERNEL_MAX}, "
                           f"got avg={self.avg_kernel!r} max={self.max_kernel!r}")
        if not 0.0 < self.threshold < 1.0:
            raise FdsError(f"threshold must lie in (0, 1), got {self.threshold}")


def _require_pixels(stack, what):
    if stack.ndim != 3 or not stack.shape[1] * stack.shape[2]:
        raise FdsError(f"{what} must be C x H x W with pixels, got shape {stack.shape}")


def _checked_planes(planes, present_classes, c_total):
    """Float64 C_p x H x W planes, refused unless they match the header's classes."""
    planes = np.asarray(planes, dtype=np.float64)
    present = list(present_classes)
    if planes.ndim != 3 or planes.shape[0] != len(present):
        raise FdsError(f"{planes.shape[0] if planes.ndim == 3 else '?'} planes do not match "
                       f"header with {len(present)} classes")
    if not all(isinstance(c, (int, np.integer)) and 0 <= c < c_total for c in present):
        raise FdsError(f"header class ids {present} out of range [0, {c_total}) or not integers")
    if any(a >= b for a, b in zip(present, present[1:])):  # a repeated id would drop a plane
        raise FdsError(f"header class ids {present} must be strictly ascending")
    _require_pixels(planes, "planes")
    if not (np.isfinite(planes.max()) and np.isfinite(planes.min())):  # NaN fails too
        raise FdsError("planes must be finite")
    return planes


def pooled_planes(noisy_planes, cfg):
    """AvgPool(planes) with stride 1, edge-replicate padding."""
    planes = np.asarray(noisy_planes, dtype=np.float64)
    _require_pixels(planes, "planes")
    pooled = T.pool2d(planes, cfg.avg_kernel)
    if not (np.isfinite(pooled.max()) and np.isfinite(pooled.min())):  # window sums overflowed
        raise FdsError("average pool of the planes is not finite")
    return pooled


def fds(noisy_planes, present_classes, c_total, cfg=FdsConfig()):
    """Denoise received planes and pad the absent classes with clean zeros.

    Returns a binary uint8 stack of shape [C_total, H, W]; spatial shape is
    preserved for any kernel setting.
    """
    planes = _checked_planes(noisy_planes, present_classes, c_total)
    bits = pooled_planes(planes, cfg) > cfg.threshold
    for axis in (1, 2):  # max-kernel dilation: OR of shifted copies, rows then columns
        src, bits = np.moveaxis(bits, axis, 0), bits.copy()
        dst = np.moveaxis(bits, axis, 0)
        for s in range(1, cfg.max_kernel // 2 + 1):
            np.logical_or(dst[s:], src[:-s], out=dst[s:])
            np.logical_or(dst[:-s], src[s:], out=dst[:-s])
    return codec.pad_planes(bits.view(np.uint8), present_classes, c_total)


def naive_threshold(raw_planes, present_classes, c_total):
    """Baseline receiver: 0.5-threshold the raw planes, no pooling, no rescale."""
    planes = _checked_planes(raw_planes, present_classes, c_total)
    bits = (planes > 0.5).view(np.uint8)
    return codec.pad_planes(bits, present_classes, c_total)


def stack_agreement(a, b):
    """Fraction of pixels whose full across-plane bit vectors match."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise FdsError(f"stack shapes differ: {a.shape} vs {b.shape}")
    _require_pixels(a, "stacks")
    return float(np.mean((a == b).all(axis=0)))
