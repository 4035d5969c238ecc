"""Receiver-side fast denoising of corrupted one-hot maps.

The present-class planes go through average pooling (kills noise spikes),
max pooling (restores the 1-regions), and a binarization threshold; absent
classes come back as exact zero planes. The max stage dilates class regions
by up to one kernel radius; that artifact is documented, not corrected.
Inputs are the de-normalized plane values (the power scale is undone by the
caller using the out-of-band header before denoising).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec
from . import tensor as T


class FdsError(ValueError):
    pass


@dataclass(frozen=True)
class FdsConfig:
    # Threshold must exceed 2/3: a straight region edge pools to exactly 2/3
    # one pixel outside the boundary, so anything lower dilates every region
    # by a full ring and loses to naive thresholding on mildly noisy maps.
    avg_kernel: int = 3
    max_kernel: int = 3
    threshold: float = 0.8

    def __post_init__(self):
        if any(k < 1 or k % 2 == 0 for k in (self.avg_kernel, self.max_kernel)):
            raise FdsError(f"kernels must be odd and >= 1, got avg={self.avg_kernel} max={self.max_kernel}")
        if not 0.0 < self.threshold < 1.0:
            raise FdsError(f"threshold must lie in (0, 1), got {self.threshold}")


def _checked_planes(planes, present_classes, c_total):
    """Float64 C_p x H x W planes, refused unless they match the header's classes."""
    planes = np.asarray(planes, dtype=np.float64)
    present = list(present_classes)
    if planes.ndim != 3 or planes.shape[0] != len(present):
        raise FdsError(
            f"{planes.shape[0] if planes.ndim == 3 else '?'} planes do not match "
            f"header with {len(present)} classes")
    if any(c < 0 or c >= c_total for c in present):
        raise FdsError(f"header class ids {present} out of range [0, {c_total})")
    return planes


def pooled_planes(noisy_planes, cfg):
    """MaxPool(AvgPool(planes)) with stride 1, edge-replicate padding."""
    planes = np.asarray(noisy_planes, dtype=np.float64)
    if planes.ndim != 3:
        raise FdsError(f"expected C_p x H x W planes, got shape {planes.shape}")
    with T.no_grad():
        x = T.Tensor(planes[None, ...])
        x = T.pool2d(x, "avg", cfg.avg_kernel)
        x = T.pool2d(x, "max", cfg.max_kernel)
    return x.data[0]


def fds(noisy_planes, present_classes, c_total, cfg=FdsConfig()):
    """Denoise received planes and pad the absent classes with clean zeros.

    Returns a binary uint8 stack of shape [C_total, H, W]; spatial shape is
    preserved for any kernel setting.
    """
    planes = _checked_planes(noisy_planes, present_classes, c_total)
    pooled = pooled_planes(planes, cfg)
    bits = (pooled > cfg.threshold).astype(np.uint8)
    return codec.pad_planes(bits, present_classes, c_total)


def naive_threshold(raw_planes, present_classes, c_total):
    """Baseline receiver: 0.5-threshold the raw planes, no pooling, no rescale."""
    planes = _checked_planes(raw_planes, present_classes, c_total)
    bits = (planes > 0.5).astype(np.uint8)
    return codec.pad_planes(bits, present_classes, c_total)


def stack_agreement(a, b):
    """Fraction of pixels whose full across-plane bit vectors match."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise FdsError(f"stack shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a == b).all(axis=0)))
