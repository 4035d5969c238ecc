import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import codec
from semcom.channel import (
    ChannelConfig,
    ChannelError,
    derive_seed,
    noise_for_indices,
    transmit,
    transmit_image,
)
from semcom.codec import ChannelFrame
from semcom.data import DataError, ShapesSpec
from semcom.diffusion import DiffusionError, SamplerConfig
from semcom.link import transmit_map
from semcom.training import TrainConfig, TrainError


def _fresh_noise(seed, count, sigma):
    """The first `count` normals of a new SFC64 stream seeded by `seed`, times sigma."""
    return np.random.Generator(np.random.SFC64(seed)).standard_normal(count) * sigma


class TestPsnrToSigma:
    def test_psnr20(self):
        assert ChannelConfig(20.0).sigma == pytest.approx(0.1)

    def test_psnr10(self):
        assert ChannelConfig(10.0).sigma == pytest.approx(0.31623, abs=1e-5)

    def test_formula_values_for_training_pool(self):
        # Always Eq-style inversion sigma = 10^(-PSNR/20); the loosely
        # rounded variance list floating around for these PSNRs is not asserted.
        expect = {1: 0.891251, 5: 0.562341, 10: 0.316228, 15: 0.177828,
                  20: 0.1, 30: 0.0316228, 100: 0.0}
        for psnr, sigma in expect.items():
            assert ChannelConfig(float(psnr)).sigma == pytest.approx(sigma, abs=1e-6)

    def test_noneless_mode_flag(self):
        assert ChannelConfig(psnr_db=100.0).sigma == 0.0
        assert ChannelConfig(psnr_db=99.9).sigma > 0.0

    def test_infinite_psnr_is_noiseless(self):
        img = np.full((3, 2, 2), 0.5)
        assert np.array_equal(transmit_image(img, ChannelConfig(float("inf"), seed=1)), img)

    @pytest.mark.parametrize("psnr", [float("nan"), float("-inf")])
    def test_nan_or_minus_inf_psnr_refused(self, psnr):
        """NaN gave sigma = NaN and an all-NaN image past the [0, 1] clamp;
        -inf gave sigma = inf."""
        with pytest.raises(ChannelError, match="psnr_db"):
            ChannelConfig(psnr, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.2, 1.7])
    def test_seed_outside_uint64_refused(self, seed):
        """An integer out of range failed only inside transmit, with numpy's OverflowError;
        a float was truncated, so seeds 1.2 and 1.7 drew the same noise."""
        with pytest.raises(ChannelError, match="seed"):
            ChannelConfig(10.0, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert ChannelConfig(10.0, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("make, error", [
    (lambda seed: ChannelConfig(5.0, seed=seed), ChannelError),
    (lambda seed: ShapesSpec(seed=seed), DataError),
    (lambda seed: TrainConfig(seed=seed), TrainError),
    (lambda seed: SamplerConfig(seed=seed), DiffusionError),
], ids=["ChannelConfig", "ShapesSpec", "TrainConfig", "SamplerConfig"])
@pytest.mark.parametrize("seed", [True, False])
def test_config_refuses_a_bool_seed(make, error, seed):
    """bool is an int subclass, so ChannelConfig(5.0, seed=True) drew the
    noise of seed=1 bit for bit, and every config took the same collision."""
    with pytest.raises(error, match="seed"):
        make(seed)


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

    def test_nan_symbol_rejected(self):
        symbols = np.ones(16)
        symbols[3] = np.nan
        with pytest.raises(ChannelError, match="power"):
            transmit(ChannelFrame(symbols, 1.0), ChannelConfig(psnr_db=10.0))

    @pytest.mark.parametrize("psnr", [5.0, 100.0])
    def test_frame_without_symbols_rejected(self, psnr):
        """The power check divided 0 by 0: numpy's RuntimeWarning, not ChannelError."""
        with pytest.raises(ChannelError, match="no symbols"):
            transmit(ChannelFrame(np.zeros(0), 1.0), ChannelConfig(psnr, seed=1))

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

    @pytest.mark.parametrize("m", [0, 1, 255, 256, 257, 4095])
    def test_noise_of_an_index_does_not_depend_on_count(self, m):
        assert np.array_equal(noise_for_indices(5, m, 0.3), noise_for_indices(5, 4096, 0.3)[:m])
        full = noise_for_indices(5, 4096, 0.3)  # the reverse order: m slices the kept normals
        assert np.array_equal(noise_for_indices(5, m, 0.3), full[:m])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([3, 77, 2**64 - 1]), st.integers(0, 5000),
                              st.sampled_from([0.3, 1.0])), min_size=1, max_size=8))
    def test_repeated_seeds_return_what_a_fresh_stream_would(self, calls):
        """Whatever the order of seeds and counts, each call equals a fresh draw,
        also after an earlier result was changed in place as `transmit` does."""
        for seed, count, sigma in calls:
            noise = noise_for_indices(seed, count, sigma)
            assert np.array_equal(noise, _fresh_noise(seed, count, sigma))
            np.add(1.0, noise, out=noise)

    def test_threads_keep_their_own_noise(self):
        """Two threads draw a shared seed and a seed of their own, with counts
        that often extend the kept normals, while the interpreter switches
        threads every microsecond; each call must equal a fresh draw."""
        calls = {own: [((3, own)[i % 2], 1 + (i * 997) % 4000) for i in range(500)] for own in (77, 2**64 - 1)}
        results = {}

        def worker(own):
            results[own] = [noise_for_indices(seed, count, 1.0) for seed, count in calls[own]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(own,)) for own in calls]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        wrong = [(own, k) for own in calls for k, (call, noise) in enumerate(zip(calls[own], results[own]))
                 if not np.array_equal(noise, _fresh_noise(*call, 1.0))]
        assert wrong == []

    def test_a_thread_never_extends_another_threads_generator(self, monkeypatch):
        """A worker extends seed 3's kept normals and pauses after its draw;
        the calling thread then asks for more of seed 3. With one kept entry
        for both threads, it would extend the worker's generator, which the
        worker's draw has already advanced."""
        real = np.random.Generator
        drawn, resume = threading.Event(), threading.Event()

        class PausingGenerator:
            def __init__(self, bit_generator):
                self.gen = real(bit_generator)

            def standard_normal(self, count):
                out = self.gen.standard_normal(count)
                if threading.current_thread() is not threading.main_thread() and count > 100:
                    drawn.set()
                    resume.wait(10)
                return out
        monkeypatch.setattr(np.random, "Generator", PausingGenerator)
        got = {}

        def worker():
            got["first"] = noise_for_indices(3, 10, 1.0)
            got["extended"] = noise_for_indices(3, 1000, 1.0)
        th = threading.Thread(target=worker)
        th.start()
        try:
            assert drawn.wait(10)
            got["caller"] = noise_for_indices(3, 2000, 1.0)
        finally:
            resume.set()
            th.join(10)
        monkeypatch.undo()
        assert not th.is_alive()
        for name, count in (("first", 10), ("extended", 1000), ("caller", 2000)):
            assert np.array_equal(got[name], _fresh_noise(3, count, 1.0)), name

    @pytest.mark.parametrize("seed", [True, 1.5, -1, 2**64], ids=["True", "1.5", "-1", "2**64"])
    def test_seed_outside_uint64_refused(self, seed):
        """True and 1.5 drew seed 1's stream, -1 raised numpy's bare OverflowError;
        seeding SFC64 directly would take 2**64 and raise TypeError or ValueError."""
        with pytest.raises(ChannelError, match="seed"):
            noise_for_indices(seed, 10, 1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), -1.0, float("inf")])
    def test_sigma_outside_zero_to_inf_refused(self, sigma):
        """NaN, -1 and inf gave NaN, negated and infinite noise."""
        with pytest.raises(ChannelError, match="sigma"):
            noise_for_indices(1, 10, sigma)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_normals_follow_the_standard_normal_law(self, seed):
        """Pins the law, not one generator's stream: the mean, the share inside
        one sigma and the share beyond three, each within four to six standard
        errors of 10**6 draws."""
        z = noise_for_indices(seed, 1_000_000, 1.0)
        inside = np.mean(np.abs(z) < 1.0)
        beyond = np.mean(np.abs(z) > 3.0)
        assert abs(z.mean()) < 0.005
        assert abs(inside - 0.6827) < 0.002
        assert abs(beyond - 0.0027) < 0.0003

    def test_extreme_seeds_give_distinct_streams_that_repeat(self):
        low = noise_for_indices(0, 1000, 1.0)
        high = noise_for_indices(2**64 - 1, 1000, 1.0)
        assert not np.array_equal(low, high)
        assert np.array_equal(noise_for_indices(0, 1000, 1.0), low)  # drawn again, not kept
        assert np.array_equal(noise_for_indices(2**64 - 1, 1000, 1.0), high)

    def test_negative_count_refused(self):
        """numpy raised its own ValueError here; a slice of kept normals would raise nothing."""
        noise_for_indices(1, 10, 1.0)
        with pytest.raises(ChannelError, match="count"):
            noise_for_indices(1, -1, 1.0)

    def test_noise_scales_with_sigma_bitwise(self):
        assert np.array_equal(noise_for_indices(8, 1000, 0.3), 0.3 * noise_for_indices(8, 1000, 1.0))

    def test_noise_is_float64(self):
        assert noise_for_indices(8, 10, 0.3).dtype == np.float64

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

    def test_nan_image_rejected(self):
        """NaN fails both range comparisons; it came out as a NaN image."""
        img = np.full((3, 4, 4), 0.5)
        img[1, 2, 3] = np.nan
        with pytest.raises(ChannelError, match=r"\[0, 1\]"):
            transmit_image(img, ChannelConfig(psnr_db=10.0, seed=1))

    @pytest.mark.parametrize("shape", [(3, 0, 4), (0,)])
    def test_image_without_pixels_rejected(self, shape):
        """The range check's min() raised numpy's zero-size reduction ValueError."""
        with pytest.raises(ChannelError, match="no pixels"):
            transmit_image(np.zeros(shape), ChannelConfig(psnr_db=10.0, seed=1))

    def test_low_psnr_mse_matches_prediction(self):
        # the sigma^2/scale^2 identity holds pre-clamp; at PSNR 1 the clamp
        # truncates a big noise tail, so measure it on the channel noise itself
        rng = np.random.default_rng(1)
        img = rng.uniform(0.2, 0.8, size=(3, 64, 64))
        cfg = ChannelConfig(psnr_db=1.0, seed=13)
        flat = img.reshape(-1)
        scale = np.sqrt(1.0 / (np.dot(flat, flat) / flat.size))
        noise = noise_for_indices(cfg.seed, img.size, cfg.sigma)
        assert np.mean((noise / scale) ** 2) == pytest.approx(cfg.sigma**2 / scale**2, rel=0.05)
        expect = np.clip((flat * scale + noise) / scale, 0.0, 1.0).reshape(img.shape)
        assert np.array_equal(transmit_image(img, cfg), expect)

    def test_default_path_clamps_into_range(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(3, 32, 32))
        out = transmit_image(img, ChannelConfig(psnr_db=1.0, seed=3))
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("classes", [2, 5], ids=["image-draws-past-map", "image-within-map"])
    def test_map_then_image_under_one_config_match_fresh_streams(self, classes):
        """The classical baseline sends a map and then its image with one ChannelConfig."""
        cmap = np.arange(16 * 16).reshape(16, 16) % classes
        img = np.random.default_rng(4).uniform(0.1, 0.9, size=(3, 16, 16))
        cfg = ChannelConfig(psnr_db=5.0, seed=derive_seed(13, classes))
        frame = codec.power_normalize(codec.one_hot_encode(cmap, 5))
        raw = transmit_map(cmap, 5, cfg).received_raw.reshape(-1)
        assert np.array_equal(raw, frame.symbols + _fresh_noise(cfg.seed, frame.symbols.size, cfg.sigma))
        flat = img.reshape(-1)
        scale = np.sqrt(1.0 / (np.dot(flat, flat) / flat.size))
        expect = (flat * scale + _fresh_noise(cfg.seed, flat.size, cfg.sigma)) / scale
        assert np.array_equal(transmit_image(img, cfg), np.clip(expect, 0.0, 1.0).reshape(img.shape))

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
    assert derive_seed(np.uint64(1), np.int64(2), 3) == derive_seed(1, 2, 3)
    with pytest.raises(ValueError):
        derive_seed(1, -1)
    with pytest.raises(TypeError):  # a float was floored: derive_seed(1.9, 2) == derive_seed(1, 2)
        derive_seed(1.9, 2)
