"""Synthetic shapes dataset with an exact class-color palette, plus metrics.

Images are flat palette colors per class region with a low-amplitude seeded
texture, quantized to 8 bits: the 8-bit RGB image that `codec.raw_rgb_bits`
counts as the classical baseline. Because palette colors are well separated,
nearest-color lookup recovers the exact class map from any image perturbed by
less than half the minimum palette separation; that makes mIoU an exact
metric here instead of depending on a pretrained segmenter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_PALETTE_SEPARATION = 0.3

# background + four body colors, pairwise L2 >= 0.3 in [0,1]^3
DEFAULT_PALETTE = (
    (0.10, 0.10, 0.12),  # 0: background, near-black
    (0.90, 0.15, 0.15),  # 1: red
    (0.10, 0.80, 0.20),  # 2: green
    (0.20, 0.30, 0.90),  # 3: blue
    (0.95, 0.85, 0.10),  # 4: yellow
)

SHAPE_TYPES = ("rectangle", "disk")


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class ShapesSpec:
    canvas: int = 32
    palette: tuple = DEFAULT_PALETTE
    shapes_min: int = 1
    shapes_max: int = 3
    texture_amplitude: float = 0.05
    seed: int = 0

    def __post_init__(self):
        pal = np.asarray(self.palette, dtype=np.float64)
        if pal.ndim != 2 or pal.shape[1] != 3 or len(pal) < 2:  # background plus a shape color
            raise DataError(f"palette must be K x 3 with K >= 2, got {pal.shape}")
        if not (pal.min() >= 0.0 and pal.max() <= 1.0):  # NaN fails both
            # generate_shapes clips the image to [0, 1], which can merge two colors
            raise DataError(f"palette colors must lie in [0, 1], got {self.palette}")
        for i in range(len(pal)):
            for j in range(i + 1, len(pal)):
                d = float(np.linalg.norm(pal[i] - pal[j]))
                if d < MIN_PALETTE_SEPARATION:
                    raise DataError(
                        f"palette colors {i} and {j} separated by {d:.3f} "
                        f"< {MIN_PALETTE_SEPARATION}")
        if not 1 <= self.shapes_min <= self.shapes_max:
            raise DataError(f"bad shape count range [{self.shapes_min}, {self.shapes_max}]")
        if self.canvas < 4:  # smallest canvas where every shape covers a pixel
            raise DataError(f"canvas must be >= 4, got {self.canvas}")
        if not 0.0 <= self.texture_amplitude < np.inf:
            raise DataError(f"texture_amplitude must be finite and >= 0, got {self.texture_amplitude}")
        if not 0 <= self.seed < 2**64:
            raise DataError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def num_classes(self):
        return len(self.palette)

    @property
    def palette_array(self):
        return np.asarray(self.palette, dtype=np.float64)


def _paint_shape(cmap, rng, spec):
    h = w = spec.canvas
    cls = int(rng.integers(1, spec.num_classes))
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
        if spec.texture_amplitude > 0:
            img = img + rng.uniform(-spec.texture_amplitude, spec.texture_amplitude,
                                    size=img.shape)
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
