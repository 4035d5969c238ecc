"""AWGN channel parameterized by PSNR, plus the full-image baseline path.

The sender's symbols have unit power (mean square 1), so PSNR =
10 log10(1 / sigma^2) dB and sigma = sqrt(10^(-PSNR/10)). A PSNR of 100 or
more gives sigma = 0, an exact noiseless switch. The noise of a frame is drawn
from a Philox stream keyed by the seed (uniforms mapped through the inverse
normal CDF), so a fixed seed gives the same noise on every run; bitwise
reproducibility is promised within this implementation only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

NOISELESS_PSNR = 100.0


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    psnr_db: float
    seed: int = 0

    @property
    def sigma(self):
        return psnr_to_sigma(self.psnr_db)


def psnr_to_sigma(psnr_db):
    """Invert PSNR = 10 log10(1 / sigma^2); exactly 0 in noiseless mode."""
    if psnr_db >= NOISELESS_PSNR:
        return 0.0
    return float(np.sqrt(10.0 ** (-psnr_db / 10.0)))


def noise_for_indices(seed, count, sigma):
    """Gaussian noise for symbol indices [0, count): a pure function of the seed."""
    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(count)
    u = np.maximum(u, 2.0 ** -53)  # ndtri(0) = -inf
    return sigma * ndtri(u)


def transmit(frame, cfg):
    """Add i.i.d. Gaussian noise of std sigma to a power-normalized ChannelFrame.

    The frame's mean-square power must be 1 within 1e-6; a mismatch is a
    contract violation.
    """
    symbols = np.asarray(frame.symbols, dtype=np.float64)
    ms = float(np.mean(symbols * symbols))
    if abs(ms - 1.0) > 1e-6:
        raise ChannelError(f"frame mean-square power {ms:.9g} is not 1")
    if cfg.sigma == 0.0:
        return symbols.copy()
    return symbols + noise_for_indices(cfg.seed, symbols.size, cfg.sigma)


def transmit_image(rgb, cfg):
    """Classical full-image baseline: normalize, corrupt, denormalize, clamp to [0, 1].

    Values must lie in [0, 1].
    """
    img = np.asarray(rgb, dtype=np.float64)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ChannelError("image values must lie in [0, 1]")
    if cfg.sigma == 0.0:
        return img.copy()
    flat = img.reshape(-1)
    ms = float(np.mean(flat * flat))
    if ms == 0.0:
        raise ChannelError("cannot transmit an all-black image (zero power)")
    scale = np.sqrt(1.0 / ms)
    noisy = (flat * scale + noise_for_indices(cfg.seed, flat.size, cfg.sigma)) / scale
    return np.clip(noisy, 0.0, 1.0).reshape(img.shape)


def derive_seed(*entropy):
    """Stable 64-bit seed from a tuple of non-negative integers (master seed, indices...).

    Integers of any size are taken whole; a negative one raises ValueError.
    """
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])
