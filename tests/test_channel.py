import numpy as np
import pytest

from semcom.channel import (
    ChannelConfig,
    ChannelError,
    derive_seed,
    noise_for_indices,
    psnr_to_sigma,
    transmit,
    transmit_image,
)
from semcom.codec import ChannelFrame


class TestPsnrToSigma:
    def test_psnr20(self):
        assert psnr_to_sigma(20.0) == pytest.approx(0.1)

    def test_psnr10(self):
        assert psnr_to_sigma(10.0) == pytest.approx(0.31623, abs=1e-5)

    def test_formula_values_for_training_pool(self):
        # Always Eq-style inversion sigma = 10^(-PSNR/20); the loosely
        # rounded variance list floating around for these PSNRs is not asserted.
        expect = {1: 0.891251, 5: 0.562341, 10: 0.316228, 15: 0.177828,
                  20: 0.1, 30: 0.0316228, 100: 0.0}
        for psnr, sigma in expect.items():
            assert psnr_to_sigma(float(psnr)) == pytest.approx(sigma, abs=1e-6)

    def test_noneless_mode_flag(self):
        assert ChannelConfig(psnr_db=100.0).sigma == 0.0
        assert ChannelConfig(psnr_db=99.9).sigma > 0.0


class TestTransmit:
    def _frame(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        sym = rng.choice([0.0, 2.0], size=n, p=[0.75, 0.25])
        while abs(np.mean(sym**2) - 1.0) > 1e-12:  # exact quarter ones
            sym = rng.choice([0.0, 2.0], size=n, p=[0.75, 0.25])
        return ChannelFrame(sym, 2.0)

    def test_noiseless_identity_bitwise(self):
        frame = self._frame()
        out = transmit(frame, ChannelConfig(psnr_db=100.0, seed=3))
        assert np.array_equal(out, frame.symbols)

    def test_fixed_seed_reproducible_bitwise(self):
        frame = self._frame()
        cfg = ChannelConfig(psnr_db=10.0, seed=42)
        assert np.array_equal(transmit(frame, cfg), transmit(frame, cfg))

    def test_power_mismatch_rejected(self):
        bad = ChannelFrame(np.full(16, 0.5), 1.0)  # mean square 0.25
        with pytest.raises(ChannelError, match="power"):
            transmit(bad, ChannelConfig(psnr_db=10.0))

    def test_measured_psnr_calibration(self):
        n = 1_000_000
        sym = np.ones(n)
        cfg = ChannelConfig(psnr_db=10.0, seed=7)
        noise = transmit(ChannelFrame(sym, 1.0), cfg) - sym
        measured = 10 * np.log10(1.0 / np.mean(noise**2))
        assert abs(measured - 10.0) < 0.05

    def test_empirical_variance_within_one_percent(self):
        cfg = ChannelConfig(psnr_db=5.0, seed=11)
        noise = noise_for_indices(cfg.seed, 1_000_000, cfg.sigma)
        assert abs(np.var(noise) / cfg.sigma**2 - 1.0) < 0.01

    def test_disjoint_seeds_uncorrelated(self):
        n = 1_000_000
        a = noise_for_indices(1, n, 1.0)
        b = noise_for_indices(2, n, 1.0)
        assert not np.array_equal(a, b)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_elementwise_additivity(self):
        """transmit(z) - z is the same stream regardless of symbol values."""
        cfg = ChannelConfig(psnr_db=10.0, seed=9)
        f1 = self._frame(64, seed=1)
        f2 = self._frame(64, seed=2)
        d1 = transmit(f1, cfg) - f1.symbols
        d2 = transmit(f2, cfg) - f2.symbols
        assert np.allclose(d1, d2)


class TestTransmitImage:
    def test_noiseless_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, size=(3, 8, 8))
        out = transmit_image(img, ChannelConfig(psnr_db=100.0))
        assert np.array_equal(out, img)

    def test_out_of_range_rejected(self):
        with pytest.raises(ChannelError, match=r"\[0, 1\]"):
            transmit_image(np.full((3, 4, 4), 1.5), ChannelConfig(psnr_db=10.0))

    def test_low_psnr_mse_matches_prediction(self):
        # the sigma^2/scale^2 identity holds pre-clamp; at PSNR 1 the clamp
        # truncates a big noise tail, so measure it on the channel noise itself
        rng = np.random.default_rng(1)
        img = rng.uniform(0.2, 0.8, size=(3, 64, 64))
        cfg = ChannelConfig(psnr_db=1.0, seed=13)
        flat = img.reshape(-1)
        scale = np.sqrt(1.0 / np.mean(flat * flat))
        noise = noise_for_indices(cfg.seed, img.size, cfg.sigma)
        assert np.mean((noise / scale) ** 2) == pytest.approx(cfg.sigma**2 / scale**2, rel=0.05)
        expect = np.clip((flat * scale + noise) / scale, 0.0, 1.0).reshape(img.shape)
        assert np.array_equal(transmit_image(img, cfg), expect)

    def test_default_path_clamps_into_range(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(3, 32, 32))
        out = transmit_image(img, ChannelConfig(psnr_db=1.0, seed=3))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_midgray_psnr20_calibration(self):
        img = np.full((3, 64, 64), 0.5)
        cfg = ChannelConfig(psnr_db=20.0, seed=17)
        out = transmit_image(img, cfg)
        mse = np.mean((out - img) ** 2)
        measured = 10 * np.log10(np.mean(img**2) / mse)
        assert abs(measured - 20.0) < 0.3


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) == 12997252459554536576  # seeds in use keep their values


def test_derive_seed_takes_whole_integers():
    assert derive_seed(1, 2**32) != derive_seed(1, 0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)
