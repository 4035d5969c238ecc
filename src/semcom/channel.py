"""AWGN channel parameterized by PSNR, plus the full-image baseline path.

PSNR = 10 log10(P / sigma^2) dB, so sigma = sqrt(P * 10^(-PSNR/10)). A PSNR
of 100 or more is an exact noiseless switch. The noise of a frame is drawn
from a Philox stream keyed by the seed (uniforms mapped through the inverse
normal CDF), so a fixed seed gives the same noise on every run; bitwise
reproducibility is promised within this implementation only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

NOISELESS_PSNR = 100.0


class ChannelError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelConfig:
    psnr_db: float
    power: float = 1.0
    seed: int = 0
    noiseless: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "noiseless", self.psnr_db >= NOISELESS_PSNR)
        if self.power <= 0:
            raise ChannelError(f"channel power must be positive, got {self.power}")

    @property
    def sigma(self):
        return psnr_to_sigma(self.psnr_db, self.power)


def psnr_to_sigma(psnr_db, power=1.0):
    """Invert PSNR = 10 log10(P / sigma^2); exactly 0 in noiseless mode."""
    if power <= 0:
        raise ChannelError(f"power must be positive, got {power}")
    if psnr_db >= NOISELESS_PSNR:
        return 0.0
    return float(np.sqrt(power * 10.0 ** (-psnr_db / 10.0)))


def noise_for_indices(seed, count, sigma):
    """Gaussian noise for symbol indices [0, count): a pure function of the seed."""
    u = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(count)
    u = np.maximum(u, 2.0 ** -53)  # ndtri(0) = -inf
    return sigma * ndtri(u)


def transmit(frame, cfg):
    """Add i.i.d. Gaussian noise of std sigma to a power-normalized ChannelFrame.

    The frame's mean-square power must match cfg.power within 1e-6; a
    mismatch is a contract violation.
    """
    symbols = np.asarray(frame.symbols, dtype=np.float64)
    ms = float(np.mean(symbols * symbols))
    if abs(ms - cfg.power) > 1e-6 * max(1.0, cfg.power):
        raise ChannelError(
            f"frame mean-square power {ms:.9g} does not match configured {cfg.power:.9g}")
    if cfg.noiseless:
        return symbols.copy()
    return symbols + noise_for_indices(cfg.seed, symbols.size, cfg.sigma)


def transmit_image(rgb, cfg):
    """Classical full-image baseline: normalize, corrupt, denormalize, clamp to [0, 1].

    Values must lie in [0, 1].
    """
    img = np.asarray(rgb, dtype=np.float64)
    if img.min() < 0.0 or img.max() > 1.0:
        raise ChannelError("image values must lie in [0, 1]")
    if cfg.noiseless:
        return img.copy()
    flat = img.reshape(-1)
    ms = float(np.mean(flat * flat))
    if ms == 0.0:
        raise ChannelError("cannot transmit an all-black image (zero power)")
    scale = np.sqrt(cfg.power / ms)
    noisy = (flat * scale + noise_for_indices(cfg.seed, flat.size, cfg.sigma)) / scale
    return np.clip(noisy, 0.0, 1.0).reshape(img.shape)


def derive_seed(*entropy):
    """Stable 64-bit seed from a tuple of non-negative integers (master seed, indices...).

    Integers of any size are taken whole; a negative one raises ValueError.
    """
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])
