"""AWGN channel parameterized by PSNR, plus the full-image baseline path.

The sender's symbols have unit power (mean square 1), so PSNR =
10 log10(1 / sigma^2) dB and sigma = sqrt(10^(-PSNR/10)). A PSNR of 100 or
more gives sigma = 0, an exact noiseless switch. The noise of a frame is
numpy's standard normal stream (ziggurat method) of a Philox generator keyed by
the seed, so a fixed seed gives the same noise on every run; bitwise
reproducibility is promised within this implementation and numpy version only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISELESS_PSNR = 100.0


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    psnr_db: float
    seed: int = 0

    def __post_init__(self):
        if not self.psnr_db > -np.inf:
            raise ChannelError(f"psnr_db must be a number or +inf (noiseless), got {self.psnr_db}")
        if not 0 <= self.seed < 2**64:
            raise ChannelError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def sigma(self):
        """Invert PSNR = 10 log10(1 / sigma^2); exactly 0 in noiseless mode."""
        if self.psnr_db >= NOISELESS_PSNR:
            return 0.0
        return float(np.sqrt(10.0 ** (-self.psnr_db / 10.0)))


def noise_for_indices(seed, count, sigma):
    """Float64 Gaussian noise of std sigma for symbol indices [0, count).

    The first `count` standard normals of the Philox stream keyed by `seed`,
    scaled by sigma: a pure function of the seed, and the noise of index i
    does not depend on `count`.
    """
    noise = np.random.Generator(np.random.Philox(key=np.uint64(seed))).standard_normal(count)
    return np.multiply(noise, sigma, out=noise)


def transmit(frame, cfg):
    """Add i.i.d. Gaussian noise of std sigma to a power-normalized ChannelFrame.

    The frame's mean-square power must be 1 within 1e-6; a mismatch, or a
    non-finite symbol, is a contract violation.
    """
    symbols = np.asarray(frame.symbols, dtype=np.float64)
    ms = float(np.dot(symbols, symbols) / symbols.size)
    if not abs(ms - 1.0) <= 1e-6:  # NaN fails too
        raise ChannelError(f"frame mean-square power {ms:.9g} is not 1")
    if cfg.sigma == 0.0:
        return symbols.copy()
    noise = noise_for_indices(cfg.seed, symbols.size, cfg.sigma)
    return np.add(symbols, noise, out=noise)


def transmit_image(rgb, cfg):
    """Classical full-image baseline: normalize, corrupt, denormalize, clamp to [0, 1].

    Values must lie in [0, 1].
    """
    img = np.asarray(rgb, dtype=np.float64)
    if not img.size:
        raise ChannelError(f"image of shape {img.shape} has no pixels")
    if not (img.min() >= 0.0 and img.max() <= 1.0):  # NaN fails both
        raise ChannelError("image values must lie in [0, 1]")
    if cfg.sigma == 0.0:
        return img.copy()
    flat = img.reshape(-1)
    ms = float(np.mean(flat * flat))
    if ms == 0.0:
        raise ChannelError("cannot transmit an all-black image (zero power)")
    scale = np.sqrt(1.0 / ms)
    noisy = np.multiply(flat, scale)
    noisy += noise_for_indices(cfg.seed, flat.size, cfg.sigma)
    noisy /= scale
    return np.clip(noisy, 0.0, 1.0, out=noisy).reshape(img.shape)


def derive_seed(*entropy):
    """Stable 64-bit seed from a tuple of non-negative integers (master seed, indices...).

    Integers of any size are taken whole; a negative one raises ValueError.
    """
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])
