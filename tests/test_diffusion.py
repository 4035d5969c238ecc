import threading

import numpy as np
import pytest

from semcom import tensor as T
from semcom.diffusion import (
    LAMBDA_KL,
    DiffusionError,
    SamplerConfig,
    SamplingError,
    build_schedule,
    guidance_conditions,
    guided_eps,
    model_log_variance,
    null_condition,
    p_sample_loop,
    posterior_mean,
    q_sample,
    respace,
    total_loss,
)
from semcom.tensor import Tensor
from semcom.unet import ModelConfig, UNet


class StubModel:
    """Fixed-response model for loss/guidance contracts, with the UNet's
    encode/condition/decode protocol: the features are (x, t) and the
    condition is the stack itself."""

    def __init__(self, eps_fn, var_fn, image_size=8, cond_channels=2):
        self.eps_fn = eps_fn
        self.var_fn = var_fn
        self.config = ModelConfig(image_size=image_size, cond_channels=cond_channels, base_channels=8,
                                  channel_multipliers=(1,), attention_resolutions=(),
                                  head_channels=8, spade_hidden=8)
        self.encodes = 0
        self.decodes = []  # the stack of each decode call

    def encode(self, x_t, t):
        self.encodes += 1
        return np.asarray(x_t.data if isinstance(x_t, Tensor) else x_t), t

    def condition(self, y):
        return np.asarray(y)

    def decode(self, features, y):
        x, t = features
        self.decodes.append(np.asarray(y).copy())
        return Tensor(np.concatenate([self.eps_fn(x, y, t), self.var_fn(x, y, t)], axis=1))

    def forward(self, x_t, y, t):
        return self.decode(self.encode(x_t, t), self.condition(y))


class TestBuildSchedule:
    def test_two_step_cumulative_product(self):
        sched = build_schedule(2, 0.5, 0.5)
        assert np.allclose(sched.alpha_bars, [0.5, 0.25])

    def test_alpha_bar_strictly_decreasing(self):
        sched = build_schedule(50, 1e-3, 0.1)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert sched.alpha_bars[-1] < sched.alpha_bars[0]

    def test_reference_endpoint_against_product_oracle(self):
        sched = build_schedule(1000, 1e-4, 0.02)
        # independent plain-python product oracle
        prod = 1.0
        for t in range(1000):
            prod *= 1.0 - (1e-4 + (0.02 - 1e-4) * t / 999)
        assert sched.alpha_bars[-1] == pytest.approx(prod, rel=1e-10)
        assert sched.alpha_bars[-1] == pytest.approx(4.0e-5, rel=0.02)

    def test_desk_default_matches_full_scale_endpoint(self):
        desk = build_schedule(200, 5e-4, 0.0974)
        assert desk.alpha_bars[-1] == pytest.approx(4.0e-5, rel=0.02)

    def test_posterior_variance_formula(self):
        sched = build_schedule(10, 0.01, 0.2)
        ab = sched.alpha_bars
        prev = np.concatenate([[1.0], ab[:-1]])
        expect = (1 - prev) / (1 - ab) * sched.betas
        assert expect[0] == 0.0  # exact at t=1, so the log is clipped to the t=2 value
        assert np.array_equal(sched.alpha_bars_prev, prev)
        variances = np.exp(sched.log_posterior_clipped)
        assert np.allclose(variances[1:], expect[1:])
        assert variances[0] == pytest.approx(expect[1])

    def test_invalid_range_rejected(self):
        with pytest.raises(DiffusionError):
            build_schedule(10, 0.2, 0.1)
        with pytest.raises(DiffusionError):
            build_schedule(10, 0.0, 0.1)


class TestQSample:
    def test_zero_noise(self):
        sched = build_schedule(100, 1e-3, 0.1)
        x0 = np.full((2, 1, 2, 2), 0.7, dtype=np.float32)
        out = q_sample(x0, 40, np.zeros_like(x0), sched)
        assert np.allclose(out, np.sqrt(sched.alpha_bars[39]) * 0.7, atol=1e-6)

    def test_deep_noise_limit(self):
        sched = build_schedule(200, 5e-4, 0.0974)
        x0 = np.ones((1, 1, 4, 4), dtype=np.float32)
        eps = np.random.default_rng(0).standard_normal(x0.shape).astype(np.float32)
        out = q_sample(x0, 200, eps, sched)
        assert np.allclose(out, eps, atol=0.02)  # abar_T ~ 4e-5

    def test_monte_carlo_statistics(self):
        sched = build_schedule(200, 5e-4, 0.0974)
        rng = np.random.default_rng(1)
        for t in (50, 100, 150):
            x0 = np.full(100_000, 1.0)
            eps = rng.standard_normal(100_000)
            xt = q_sample(x0, t, eps, sched)
            ab = sched.alpha_bars[t - 1]
            assert abs(xt.mean() - np.sqrt(ab)) < 0.01
            assert abs(xt.std() / np.sqrt(1 - ab) - 1.0) < 0.01

    def test_out_of_range_t(self):
        sched = build_schedule(10, 1e-3, 0.1)
        with pytest.raises(DiffusionError, match="range"):
            q_sample(np.zeros(3), 11, np.zeros(3), sched)
        with pytest.raises(DiffusionError, match="range"):
            q_sample(np.zeros(3), 0, np.zeros(3), sched)


class TestTotalLoss:
    def _setup(self, t=5):
        sched = build_schedule(20, 1e-3, 0.1)
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, size=(2, 3, 8, 8)).astype(np.float32)
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        t = np.full(2, t)
        return sched, x0, q_sample(x0, t, eps, sched), eps, t

    @staticmethod
    def _out(eps_hat, var_raw):
        """A U-Net output of the given noise and raw variance."""
        return Tensor(np.concatenate([eps_hat, var_raw], axis=1))

    def test_timesteps_neither_one_nor_one_per_sample_rejected(self):
        sched, x0, x_t, eps, _ = self._setup()
        out = self._out(eps, np.zeros_like(x0))
        with pytest.raises(DiffusionError, match="one per sample"):
            total_loss(out, x0, x_t, np.array([5, 5, 5]), eps, sched)
        with pytest.raises(DiffusionError, match="one per sample"):
            q_sample(x0, np.full((2, 1), 5), eps, sched)
        assert q_sample(x0, 5, eps, sched).shape == x0.shape  # one timestep for the batch

    def test_perfect_eps_prediction_zeroes_ld(self):
        sched, x0, x_t, eps, t = self._setup()
        loss, comps = total_loss(self._out(eps, np.zeros_like(x0)), x0, x_t, t, eps, sched)
        assert comps["L_d"] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_posterior_match_zeroes_kl(self):
        sched, x0, x_t, eps, t = self._setup(t=7)
        loss, comps = total_loss(self._out(eps, np.full_like(x0, -1.0)), x0, x_t, t, eps, sched)
        assert comps["L_KL"] == pytest.approx(0.0, abs=1e-8)
        assert comps["total"] == pytest.approx(0.0, abs=1e-8)

    def test_lambda_default_is_0_001(self):
        assert LAMBDA_KL == 0.001
        sched, x0, x_t, eps, t = self._setup()
        rng = np.random.default_rng(4)
        out = self._out(rng.standard_normal(x0.shape).astype(np.float32),
                        rng.uniform(-2, 2, x0.shape).astype(np.float32))
        _, comps = total_loss(out, x0, x_t, t, eps, sched)
        assert comps["L_KL"] > 0
        assert comps["total"] == pytest.approx(comps["L_d"] + 0.001 * comps["L_KL"], rel=1e-6)

    def test_components_non_negative(self):
        sched, x0, x_t, eps, t = self._setup()
        rng = np.random.default_rng(3)
        out = self._out(rng.standard_normal(x0.shape).astype(np.float32),
                        rng.uniform(-2, 2, x0.shape).astype(np.float32))
        _, comps = total_loss(out, x0, x_t, t, eps, sched)
        assert comps["L_d"] >= 0 and comps["L_KL"] >= -1e-9

    def test_kl_gradient_reaches_variance_head_only(self):
        sched, x0, x_t, eps, t = self._setup()
        eps_param = Tensor(np.zeros((2, 3, 8, 8), np.float32), requires_grad=True)
        var_param = Tensor(np.zeros((2, 3, 8, 8), np.float32), requires_grad=True)

        loss, _ = total_loss(T.concat(eps_param, var_param), x0, x_t, t, eps, sched)
        loss.backward()
        # the KL mean term is detached: eps gradient comes only from L_d
        sd = Tensor(np.asarray(eps, np.float32))
        ld_only = T.mean(T.square(T.sub(T.add(eps_param, 0.0), sd)))
        eps_param2 = eps_param.grad.copy()
        eps_param.grad = None
        ld_only.backward()
        assert np.allclose(eps_param2, eps_param.grad, atol=1e-7)
        assert var_param.grad is not None and np.abs(var_param.grad).max() > 0

    def test_ld_is_mean_square(self):
        sched, x0, x_t, eps, t = self._setup()
        _, comps = total_loss(self._out(np.zeros_like(x0), np.zeros_like(x0)), x0, x_t, t, eps, sched)
        assert comps["L_d"] == pytest.approx(np.mean(eps**2), rel=1e-5)


def _sampler_log_variance(var_raw, t, sched):
    """The sampler's log-variance of a raw variance array: model_log_variance
    of the array clamped to [-1, 1], in float64."""
    return model_log_variance(Tensor(np.clip(var_raw, -1.0, 1.0).astype(np.float64)), t, sched).data


def _array_log_variance(var_raw, t, sched):
    """The former array form of model_log_variance, which clamped v = (var_raw
    + 1)/2 to [0, 1]: the oracle of the sampler's clamped call."""
    log_hi = np.log(sched.betas)[t - 1].reshape((-1,) + (1,) * (var_raw.ndim - 1))
    log_lo = sched.log_posterior_clipped[t - 1].reshape(log_hi.shape)
    v = np.clip((np.asarray(var_raw, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)
    return v * log_hi + (1.0 - v) * log_lo


class TestVarianceInterpolation:
    def test_bounds_by_construction(self):
        sched = build_schedule(30, 1e-3, 0.1)
        rng = np.random.default_rng(4)
        raw = rng.uniform(-3, 3, size=(4, 1, 2, 2))  # includes out-of-band values
        for t in (1, 2, 15, 30):
            lv = _sampler_log_variance(raw, np.full(4, t), sched)
            lo = sched.log_posterior_clipped[t - 1]
            hi = np.log(sched.betas[t - 1])
            assert np.all(lv >= lo - 1e-12) and np.all(lv <= hi + 1e-12)

    def test_midpoint_is_geometric_mean(self):
        sched = build_schedule(30, 1e-3, 0.1)
        lv = _sampler_log_variance(np.zeros((1, 1, 1, 1)), np.array([10]), sched)
        expect = 0.5 * (np.log(sched.betas[9]) + sched.log_posterior_clipped[9])
        assert lv.reshape(-1)[0] == pytest.approx(expect)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampler_clamp_equals_the_array_formula_bitwise(self, seed):
        """Clamping var_raw to [-1, 1] before the Tensor formula gives the
        bits of clamping v to [0, 1] after it: on float32 draws at and past
        +-1, tiny values that vanish next to 1, and every timestep."""
        sched = build_schedule(30, 1e-3, 0.1)
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-3, 3, size=(30, 3, 4, 4)).astype(np.float32)
        raw.reshape(-1)[:8] = [-1.0, 1.0, -3.5, 3.5, 1e-30, -1e-30, np.nextafter(np.float32(1), 2), -0.0]
        t = rng.permutation(np.arange(1, 31))
        got, expect = _sampler_log_variance(raw, t, sched), _array_log_variance(raw, t, sched)
        assert got.dtype == expect.dtype == np.float64
        assert got.tobytes() == expect.tobytes()


class TestGuidedEps:
    def _model(self, cond_val=1.0, uncond_val=0.0):
        def eps_fn(x, y, t):
            if np.all(np.asarray(y) == 0):
                return np.full_like(x, uncond_val)
            return np.full_like(x, cond_val)
        return StubModel(eps_fn, lambda x, y, t: np.zeros_like(x))

    def test_s0_is_conditional_only(self):
        model = self._model()
        x = np.zeros((1, 3, 8, 8), np.float32)
        y = np.ones((1, 2, 8, 8), np.float32)
        eps, _ = guided_eps(model, x, y, np.array([1]), 0.0)
        assert np.all(eps == 1.0)
        assert len(model.decodes) == 1  # the null branch is never evaluated

    def test_equal_estimates_collapse(self):
        model = self._model(cond_val=0.7, uncond_val=0.7)
        x = np.zeros((1, 3, 8, 8), np.float32)
        y = np.ones((1, 2, 8, 8), np.float32)
        for s in (0.0, 1.0, 2.5):
            eps, _ = guided_eps(model, x, y, np.array([1]), s)
            assert np.allclose(eps, 0.7, atol=1e-6)

    def test_s1_doubles_conditional_minus_unconditional(self):
        model = self._model(cond_val=1.0, uncond_val=0.25)
        x = np.zeros((1, 3, 8, 8), np.float32)
        y = np.ones((1, 2, 8, 8), np.float32)
        eps, _ = guided_eps(model, x, y, np.array([1]), 1.0)
        assert np.allclose(eps, 2 * 1.0 - 0.25)
        assert model.encodes == 1  # both branches decode one encoding
        assert len(model.decodes) == 2

    def test_affine_in_s(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        u = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        model = StubModel(
            lambda x, y, t: u if np.all(np.asarray(y) == 0) else c,
            lambda x, y, t: np.zeros_like(x))
        x = np.zeros((1, 3, 8, 8), np.float32)
        y = np.ones((1, 2, 8, 8), np.float32)
        e0, _ = guided_eps(model, x, y, np.array([1]), 0.0)
        e1, _ = guided_eps(model, x, y, np.array([1]), 1.0)
        for s in (0.3, 2.0, 3.0):
            es, _ = guided_eps(model, x, y, np.array([1]), s)
            assert np.max(np.abs((es - e0) - s * (e1 - e0))) < 1e-6

    def test_negative_scale_rejected(self):
        with pytest.raises(DiffusionError, match=">= 0"):
            guided_eps(self._model(), np.zeros((1, 3, 8, 8)), np.ones((1, 2, 8, 8)),
                       np.array([1]), -0.5)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, s):
        with pytest.raises(DiffusionError, match="finite"):
            guided_eps(self._model(), np.zeros((1, 3, 8, 8)), np.ones((1, 2, 8, 8)),
                       np.array([1]), s)

    CFG = ModelConfig(image_size=8, cond_channels=2, base_channels=8, channel_multipliers=(1, 2),
                      num_res_blocks=1, attention_resolutions=(4,), head_channels=8, spade_hidden=8)

    def _unet(self, seed):
        model = UNet(self.CFG, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.params.values():  # nonzero heads, so both branches matter
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
        return model

    @pytest.mark.parametrize("s", [0.0, 2.0])
    @pytest.mark.parametrize("n", [1, 4])
    def test_equals_two_forwards_bitwise(self, n, s):
        """One encode and two decodes give the bits of two whole forwards,
        on the stack and on the batch-1 null stack."""
        model = self._unet(30 + n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
        y = (rng.uniform(size=(n, 2, 8, 8)) < 0.4).astype(np.float32)
        t = rng.integers(1, 100, size=n)
        eps, var = guided_eps(model, x, y, t, s)
        with T.no_grad():
            eps_c, var_c = T.halves(model.forward(x, y, t))
            eps_u, _ = T.halves(model.forward(x, null_condition(y), t))
        assert not np.array_equal(eps_c.data, eps_u.data)
        expect = eps_c.data + s * (eps_c.data - eps_u.data) if s else eps_c.data  # s=0 never adds 0*(...)
        assert eps.tobytes() == expect.tobytes() and var.tobytes() == var_c.data.tobytes()

    def test_first_decoder_conv_runs_once_per_step(self, monkeypatch):
        """The first decoder block's input convs see no condition, so a guided
        step runs them once for both branches, as a forward does."""
        model = self._unet(40)
        top = len(self.CFG.channel_multipliers) - 1
        watched = {id(model.params[f"dec.l{top}.b0.{name}.w"]): name for name in ("conv1", "skip")}
        calls = []
        real = T.conv2d

        def counting(x, w, *args, **kw):
            if id(w) in watched:
                calls.append(watched[id(w)])
            return real(x, w, *args, **kw)
        monkeypatch.setattr(T, "conv2d", counting)
        x = np.zeros((2, 3, 8, 8), np.float32)
        y = np.ones((2, 2, 8, 8), np.float32)
        guided_eps(model, x, y, np.array([3, 3]), 2.0)
        assert calls == ["conv1", "skip"]
        calls.clear()
        with T.no_grad():
            model.forward(x, y, np.array([3, 3]))
        assert calls == ["conv1", "skip"]

    @pytest.mark.parametrize("kw, match", [
        ({"guidance_scale": float("nan")}, "guidance scale"), ({"guidance_scale": float("inf")}, "guidance scale"),
        ({"guidance_scale": -1.0}, "guidance scale"), ({"steps": -1}, "steps"),
        ({"seed": -3}, "seed"), ({"seed": 2**64}, "seed"), ({"seed": 3.5}, "seed"),
        ({"steps": 2.5}, "steps"), ({"steps": True}, "steps")])
    def test_sampler_config_refuses_bad_settings(self, kw, match):
        with pytest.raises(DiffusionError, match=match):
            SamplerConfig(**kw)


class TestPSampleLoop:
    UNET_CFG = ModelConfig(image_size=8, cond_channels=2, base_channels=8,
                           channel_multipliers=(1,), num_res_blocks=1,
                           attention_resolutions=(), head_channels=8, spade_hidden=8)

    def test_same_seed_bitwise_identical(self):
        model = UNet(self.UNET_CFG, seed=0)
        sched = build_schedule(10, 1e-3, 0.1)
        y = np.zeros((1, 2, 8, 8), np.float32)
        cfg = SamplerConfig(guidance_scale=1.0, seed=11, steps=0)
        a = p_sample_loop(model, y, sched, cfg)
        b = p_sample_loop(model, y, sched, cfg)
        assert np.array_equal(a, b)

    def test_s0_equals_conditional_only_sampler(self):
        model = UNet(self.UNET_CFG, seed=1)
        sched = build_schedule(10, 1e-3, 0.1)
        y = np.ones((1, 2, 8, 8), np.float32)
        out = p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=0.0, seed=3))

        # scripted conditional-only recursion with the same draws
        from semcom.diffusion import eps_to_mean
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        x = rng.standard_normal((1, 3, 8, 8), dtype=np.float32)
        for i in reversed(range(10)):
            t = np.array([i + 1])
            with T.no_grad():
                e, v = T.halves(model.forward(x, y, t))
            mean = eps_to_mean(e.data, x, t, sched)
            if i > 0:
                z = rng.standard_normal(x.shape, dtype=np.float32)
                x = (mean + np.exp(0.5 * _sampler_log_variance(v.data, t, sched)) * z).astype(np.float32)
            else:
                x = mean.astype(np.float32)
        assert np.array_equal(out, x)

    def test_guided_sampler_matches_two_forward_recursion(self):
        """Oracle: two full forwards per step, the null branch on a full-batch zero stack."""
        model = UNet(self.UNET_CFG, seed=4)
        rng = np.random.default_rng(40)
        for p in model.params.values():  # nonzero heads, so both branches matter
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
        sched = build_schedule(10, 1e-3, 0.1)
        y = (rng.uniform(size=(3, 2, 8, 8)) < 0.4).astype(np.float32)
        s = 1.5
        out = p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=s, seed=9))

        from semcom.diffusion import eps_to_mean
        draws = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        x = draws.standard_normal((3, 3, 8, 8), dtype=np.float32)
        for i in reversed(range(10)):
            t = np.full(3, i + 1)
            with T.no_grad():
                e_c, v = T.halves(model.forward(x, y, t))
                e_u, _ = T.halves(model.forward(x, np.zeros_like(y), t))
            assert not np.array_equal(e_c.data, e_u.data)
            mean = eps_to_mean(e_c.data + s * (e_c.data - e_u.data), x, t, sched)
            if i > 0:
                z = draws.standard_normal(x.shape, dtype=np.float32)
                x = (mean + np.exp(0.5 * _sampler_log_variance(v.data, t, sched)) * z).astype(np.float32)
            else:
                x = mean.astype(np.float32)
        assert np.array_equal(out, x)

    def test_zero_init_model_matches_recursion_oracle(self):
        """Zero eps head: the update collapses to x/sqrt(1-beta) plus noise."""
        model = UNet(self.UNET_CFG, seed=2)  # eps and var heads zero at init
        sched = build_schedule(10, 1e-3, 0.1)
        y = np.zeros((2, 2, 8, 8), np.float32)
        out = p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=0.0, seed=5))

        rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
        x = rng.standard_normal((2, 3, 8, 8), dtype=np.float32)
        for i in reversed(range(10)):
            beta = sched.betas[i]
            mean = x / np.sqrt(1.0 - beta)
            if i > 0:
                # var head 0 -> v=1/2: geometric mean of beta and clipped posterior
                logvar = 0.5 * (np.log(beta) + sched.log_posterior_clipped[i])
                z = rng.standard_normal(x.shape, dtype=np.float32)
                x = (mean + np.exp(0.5 * logvar) * z).astype(np.float32)
            else:
                x = mean.astype(np.float32)
        assert np.allclose(out, x, atol=1e-5)

    def test_respaced_steps_run_and_shorten(self):
        model = UNet(self.UNET_CFG, seed=3)
        sched = build_schedule(50, 1e-3, 0.1)
        y = np.zeros((1, 2, 8, 8), np.float32)
        calls = []
        out = p_sample_loop(model, y, sched, SamplerConfig(seed=7, steps=10),
                            callback=lambda i, x: calls.append(i))
        assert len(calls) == 10
        assert out.shape == (1, 3, 8, 8)

    def test_non_finite_eps_raises_sampling_error_naming_the_step(self):
        # eps is 1e300 from timestep 4 down: a finite float64 output, so it
        # passes the forward's non-finite check, but its sample overflows
        # float32, so step index 4 is the first non-finite sample (the
        # sampler raises SamplingError, not numpy's overflow warning)
        model = StubModel(lambda x, yy, tt: np.full(x.shape, 1e300 if tt[0] <= 4 else 0.0),
                          lambda x, yy, tt: np.zeros(x.shape))
        seen = []
        with pytest.raises(SamplingError, match=r"step index 4 \(t=4\)"):
            p_sample_loop(model, np.zeros((2, 2, 8, 8), np.float32), build_schedule(10, 1e-3, 0.1),
                          SamplerConfig(seed=5), callback=lambda i, x: seen.append(i))
        assert seen == [9, 8, 7, 6, 5, 4]

    def _randomized_unet(self, seed):
        model = UNet(self.UNET_CFG, seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.params.values():  # nonzero heads, so both branches matter
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
        return model

    @pytest.mark.parametrize("s, batches", [(1.5, [1, 2, 2]), (0.0, [2, 2])])
    def test_conditions_once_per_run(self, monkeypatch, s, batches):
        """One condition for each half of a batch-4 stack, and one for the
        batch-1 null stack, shared by the halves, only when s > 0."""
        model = self._randomized_unet(6)
        calls, main = [], []
        real = UNet.condition

        def counting(self, y):
            calls.append(np.asarray(y).shape[0])
            main.append(threading.current_thread() is threading.main_thread())
            return real(self, y)
        monkeypatch.setattr(UNet, "condition", counting)
        y = np.ones((4, 2, 8, 8), np.float32)
        p_sample_loop(model, y, build_schedule(10, 1e-3, 0.1), SamplerConfig(guidance_scale=s, seed=1))
        assert calls == batches
        # the null in the calling thread, then each half's in its own thread
        assert main[:len(main) - 2] == [True] * (len(main) - 2) and sorted(main[-2:]) == [False, True]

    # the desk U-Net's widths: time embedding [N, 32] @ [32, 128] and [N, 128] @ [128, 128]
    WIDE_CFG = ModelConfig(image_size=8, cond_channels=2, base_channels=32, channel_multipliers=(1,),
                           num_res_blocks=1, attention_resolutions=(8,), head_channels=16, spade_hidden=8)

    @pytest.mark.parametrize("s", [0.0, 2.0])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 16, 32])
    def test_halves_equal_a_whole_batch_replay_bitwise(self, monkeypatch, n, s):
        """From batch 4 on, the sampler runs guided_eps on [0, n//2) in the
        calling thread and on [n//2, n) in the worker; a smaller batch runs
        whole in the calling thread. Either way, a single-thread replay of
        the same update with guided_eps on the whole batch gives the same
        bits. Batches 16 and 32 put 8 and 16 rows in each half's matmuls."""
        from semcom import diffusion
        from semcom.diffusion import eps_to_mean
        model = UNet(self.WIDE_CFG, seed=12)
        rng = np.random.default_rng(120 + n)
        for p in model.params.values():  # nonzero heads, so both branches matter
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
        sched = build_schedule(6, 1e-3, 0.1)
        y = (rng.uniform(size=(n, 2, 8, 8)) < 0.4).astype(np.float32)
        threads = []
        real = diffusion.guided_eps

        def recording(model, x, conds, t, s):
            threads.append((threading.current_thread() is threading.main_thread(), len(x)))
            return real(model, x, conds, t, s)
        monkeypatch.setattr(diffusion, "guided_eps", recording)
        out = p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=s, seed=21))
        halves = [(True, n // 2), (False, n - n // 2)] if n >= 4 else [(True, n)]
        assert sorted(threads) == sorted(halves * 6)
        monkeypatch.undo()

        draws = np.random.Generator(np.random.Philox(key=np.uint64(21)))
        x = draws.standard_normal((n, 3, 8, 8), dtype=np.float32)
        conds = guidance_conditions(model, y, s)
        for i in reversed(range(6)):
            t = np.full(n, i + 1)
            eps, var = guided_eps(model, x, conds, t, s)
            mean = eps_to_mean(eps, x, t, sched)
            if i > 0:
                z = draws.standard_normal(x.shape, dtype=np.float32)
                x = (mean + np.exp(0.5 * _sampler_log_variance(var, t, sched)) * z).astype(np.float32)
            else:
                x = mean.astype(np.float32)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("raising", ["first", "second"])
    def test_a_half_that_raises_leaves_both_threads_clean(self, monkeypatch, raising):
        """A NonFiniteError in either half reaches the caller after the worker
        has finished; grad mode and the scope stack are then as they were in
        both threads, and the next run still samples its halves on two threads."""
        from semcom import diffusion
        model = self._randomized_unet(9)
        real_encode = model.encode

        def encode(x_t, t):
            if (threading.current_thread() is threading.main_thread()) == (raising == "first"):
                with T.scope("probe"):
                    T.add(Tensor(np.array([np.inf], np.float32)), 0.0)
            return real_encode(x_t, t)
        model.encode = encode
        calls, states = [], []
        real = diffusion.guided_eps

        def recording(*args):
            entry = ["main" if threading.current_thread() is threading.main_thread() else "worker"]
            calls.append(entry)
            try:
                out = real(*args)
            finally:  # the state this half leaves in its thread, raised or not
                states.append((T._state.grad_enabled, list(T._state.scope)))
            entry.append("done")
            return out
        monkeypatch.setattr(diffusion, "guided_eps", recording)
        y = np.ones((4, 2, 8, 8), np.float32)
        sched = build_schedule(4, 1e-3, 0.1)
        with pytest.raises(T.NonFiniteError, match="add in probe"):
            p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=1.5, seed=3))
        # the half that did not raise finished first: the caller joined its worker
        assert sorted(calls) == {"first": [["main"], ["worker", "done"]],
                                 "second": [["main", "done"], ["worker"]]}[raising]
        assert states == [(True, [])] * 2
        assert (T._state.grad_enabled, T._state.scope) == (True, [])

        del model.encode
        calls.clear()
        out = p_sample_loop(model, y, sched, SamplerConfig(guidance_scale=1.5, seed=3))
        assert sorted(c[0] for c in calls) == ["main"] * 4 + ["worker"] * 4
        assert all(c[1:] == ["done"] for c in calls) and np.isfinite(out).all()

    def test_guided_eps_called_through_the_module_once_per_step(self, monkeypatch):
        from semcom import diffusion
        model = self._randomized_unet(7)
        calls = []
        real = diffusion.guided_eps

        def counting(*args):
            calls.append(args[3][0])  # the step's timestep
            return real(*args)
        monkeypatch.setattr(diffusion, "guided_eps", counting)
        y = np.ones((1, 2, 8, 8), np.float32)
        p_sample_loop(model, y, build_schedule(10, 1e-3, 0.1), SamplerConfig(guidance_scale=1.5, seed=2))
        assert calls == list(range(10, 0, -1))

    @pytest.mark.parametrize("s", [0.0, 2.0])
    def test_guided_eps_of_a_stack_equals_precomputed_conditions(self, s):
        model = self._randomized_unet(8)
        rng = np.random.default_rng(80)
        x = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
        y = (rng.uniform(size=(3, 2, 8, 8)) < 0.4).astype(np.float32)
        t = np.array([3, 5, 7])
        eps_a, var_a = guided_eps(model, x, y, t, s)
        eps_b, var_b = guided_eps(model, x, guidance_conditions(model, y, s), t, s)
        assert np.array_equal(eps_a, eps_b) and np.array_equal(var_a, var_b)

    def test_guided_eps_refuses_conditions_without_the_null_branch(self):
        model = self._randomized_unet(8)
        y = np.ones((1, 2, 8, 8), np.float32)
        conds = guidance_conditions(model, y, 0.0)
        with pytest.raises(DiffusionError, match="null branch"):
            guided_eps(model, np.zeros((1, 3, 8, 8), np.float32), conds, np.array([3]), 2.0)

    def test_respace_preserves_alpha_bars(self):
        sched = build_schedule(100, 1e-3, 0.1)
        sub = respace(sched, 13)
        assert np.allclose(sub.alpha_bars, sched.alpha_bars[sub.timestep_map - 1])
        assert sub.timestep_map[-1] == 100

    def test_respace_refuses_more_steps_than_the_schedule(self):
        """500 steps on a 100-step schedule returned the schedule, so a sampler ran 100 silently."""
        sched = build_schedule(100, 1e-3, 0.1)
        assert respace(sched, 100) is sched
        for steps in (0, 101, 500):
            with pytest.raises(DiffusionError, match="sampling steps"):
                respace(sched, steps)


def test_posterior_mean_matches_bayes_oracle():
    """Brute-force check of the posterior mean against the two-Gaussian product."""
    sched = build_schedule(10, 0.01, 0.2)
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((1, 1, 2, 2))
    xt = rng.standard_normal((1, 1, 2, 2))
    t = np.array([4])
    ab, abp, beta = sched.alpha_bars[3], sched.alpha_bars[2], sched.betas[3]
    # q(x_{t-1}|x_t, x0) proportional to q(x_t|x_{t-1}) q(x_{t-1}|x0)
    var1 = beta                      # x_t | x_{t-1} ~ N(sqrt(1-beta) x_{t-1}, beta)
    mu2, var2 = np.sqrt(abp) * x0, 1 - abp
    # product of Gaussians in x_{t-1}
    a = np.sqrt(1 - beta)
    prec = a * a / var1 + 1 / var2
    mean = (a * xt / var1 + mu2 / var2) / prec
    assert np.allclose(posterior_mean(x0, xt, t, sched), mean, rtol=1e-10)
