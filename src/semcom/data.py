"""Synthetic shapes dataset with one fixed class-color palette, plus metrics.

Images are flat `PALETTE` colors per class region (a near-black background
and four body colors, so `NUM_CLASSES` is 5) with a uniform seeded texture of
amplitude `TEXTURE_AMPLITUDE` per channel, quantized to 8 bits: the 8-bit RGB
image that `codec.raw_rgb_bits` counts as the classical baseline. The palette
colors lie pairwise at least 0.3 apart (L2), and texture plus quantization
move a pixel by less than half of that, so nearest-color lookup recovers the
exact class map from every generated image; that makes mIoU an exact metric
here instead of depending on a pretrained segmenter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import is_int, is_seed

# background + four body colors, pairwise L2 >= 0.3 in [0,1]^3
PALETTE = (
    (0.10, 0.10, 0.12),  # 0: background, near-black
    (0.90, 0.15, 0.15),  # 1: red
    (0.10, 0.80, 0.20),  # 2: green
    (0.20, 0.30, 0.90),  # 3: blue
    (0.95, 0.85, 0.10),  # 4: yellow
)
NUM_CLASSES = len(PALETTE)
TEXTURE_AMPLITUDE = 0.05  # half-width of the uniform per-channel texture

SHAPE_TYPES = ("rectangle", "disk")


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class ShapesSpec:
    canvas: int = 32
    shapes_min: int = 1
    shapes_max: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.shapes_min, 1) and is_int(self.shapes_max, self.shapes_min)):
            raise DataError(f"shapes_min and shapes_max must be integers with 1 <= shapes_min <= shapes_max, "
                            f"got {self.shapes_min!r} and {self.shapes_max!r}")
        if not is_int(self.canvas, 4):  # smallest canvas where every shape covers a pixel
            raise DataError(f"canvas must be an integer >= 4, got {self.canvas!r}")
        if not is_seed(self.seed):
            raise DataError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def palette_array(self):
        return np.asarray(PALETTE, dtype=np.float64)


def _paint_shape(cmap, rng, spec):
    h = w = spec.canvas
    cls = int(rng.integers(1, NUM_CLASSES))
    kind = SHAPE_TYPES[int(rng.integers(0, len(SHAPE_TYPES)))]
    if kind == "rectangle":
        sh = int(rng.integers(h // 4, h // 2 + 1))
        sw = int(rng.integers(w // 4, w // 2 + 1))
        top = int(rng.integers(0, h - sh + 1))
        left = int(rng.integers(0, w - sw + 1))
        cmap[top:top + sh, left:left + sw] = cls
    else:
        r = int(rng.integers(h // 6, h // 3))
        cy = int(rng.integers(r, h - r))
        cx = int(rng.integers(r, w - r))
        yy, xx = np.ogrid[:h, :w]
        cmap[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls


def generate_shapes(spec, n):
    """n pixel-aligned (image, class map) pairs; image is float32 [3, H, W] in [0, 1]."""
    if n < 1:
        raise DataError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    pal = spec.palette_array
    pairs = []
    for _ in range(n):
        cmap = np.zeros((spec.canvas, spec.canvas), dtype=np.int32)
        for _ in range(int(rng.integers(spec.shapes_min, spec.shapes_max + 1))):
            _paint_shape(cmap, rng, spec)
        img = pal[cmap].transpose(2, 0, 1)
        img = img + rng.uniform(-TEXTURE_AMPLITUDE, TEXTURE_AMPLITUDE, size=img.shape)
        # quantize to 8-bit RGB, the image that raw_rgb_bits counts
        img = np.clip(np.round(np.clip(img, 0.0, 1.0) * 255.0), 0, 255) / 255.0
        pairs.append((img.astype(np.float32), cmap))
    return pairs


def recover_map(image, palette):
    """Nearest palette color per pixel (L2), ties to the lower class id."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3 or not img.size:
        raise DataError(f"image must be 3 x H x W with pixels, got {img.shape}")
    if not (img.min() >= 0.0 and img.max() <= 1.0):  # NaN fails both
        raise DataError("image values must lie in [0, 1]")
    pal = np.asarray(palette, dtype=np.float64)
    if pal.ndim != 2 or pal.shape[1] != 3 or not pal.size or not np.isfinite(pal).all():
        raise DataError(f"palette must be a finite K x 3 array with K >= 1, got shape {pal.shape}")
    d2 = np.sum((img[None, ...] - pal[:, :, None, None]) ** 2, axis=1)
    return np.argmin(d2, axis=0).astype(np.int32)  # argmin takes the first (lower) id


def miou(pred, ref, classes=None):
    """Mean IoU over classes present in pred or ref (others excluded)."""
    pred = np.asarray(pred)
    ref = np.asarray(ref)
    if pred.shape != ref.shape:
        raise DataError(f"map shapes differ: {pred.shape} vs {ref.shape}")
    if classes is None:
        classes = np.union1d(np.unique(pred), np.unique(ref))
    ious = []
    for c in classes:
        p = pred == c
        r = ref == c
        union = np.logical_or(p, r).sum()
        if union == 0:
            continue
        ious.append(np.logical_and(p, r).sum() / union)
    return float(np.mean(ious)) if ious else 1.0


PSNR_IDENTICAL = float("inf")


def pixel_metrics(a, b):
    """(MSE, empirical PSNR in dB); identical images report an inf sentinel.

    Images with a NaN or infinite pixel are refused.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"image shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if not mse < np.inf:  # NaN fails too
        raise DataError(f"images must be finite; their mean squared difference is {mse}")
    if mse == 0.0:
        return 0.0, PSNR_IDENTICAL
    return mse, float(10.0 * np.log10(1.0 / mse))
