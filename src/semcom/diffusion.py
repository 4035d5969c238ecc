"""Noise schedule, forward corruption, training losses, guided ancestral sampling.

Timesteps run 1..T; array index t-1 holds the values for timestep t. The
variance head output interpolates log-space between the forward variance
beta_t and the posterior variance; the posterior variance at t=1 is zero, so
its log is clipped to the t=2 value (standard practice for this recipe).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .unet import IMAGE_CHANNELS


class DiffusionError(ValueError):
    pass


class SamplingError(RuntimeError):
    """Numerical failure during ancestral sampling; carries the step index."""


@dataclass(frozen=True)
class NoiseSchedule:
    betas: np.ndarray              # [T] float64
    alpha_bars: np.ndarray         # cumulative products of (1 - beta)
    posterior_variances: np.ndarray  # exact: (1-abar_{t-1})/(1-abar_t) * beta_t
    timestep_map: np.ndarray       # original timestep for each index (respacing)

    @property
    def steps(self):
        return len(self.betas)

    @property
    def alpha_bars_prev(self):
        return np.concatenate([[1.0], self.alpha_bars[:-1]])

    @property
    def log_posterior_clipped(self):
        pv = self.posterior_variances
        return np.log(np.concatenate([[pv[1] if len(pv) > 1 else self.betas[0]], pv[1:]]))


def build_schedule(num_steps, beta_start, beta_end):
    """Linear variance schedule with precomputed cumulative products."""
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise DiffusionError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    if num_steps < 1:
        raise DiffusionError(f"need at least one step, got {num_steps}")
    betas = np.linspace(beta_start, beta_end, num_steps, dtype=np.float64)
    return _from_betas(betas, np.arange(1, num_steps + 1))


def _from_betas(betas, timestep_map):
    alpha_bars = np.cumprod(1.0 - betas)
    prev = np.concatenate([[1.0], alpha_bars[:-1]])
    posterior = (1.0 - prev) / (1.0 - alpha_bars) * betas
    return NoiseSchedule(betas, alpha_bars, posterior, np.asarray(timestep_map))


def respace(sched, steps):
    """Evenly spaced sub-schedule with equivalent cumulative products."""
    if steps >= sched.steps:
        return sched
    if steps < 1:
        raise DiffusionError(f"need at least one sampling step, got {steps}")
    idx = np.unique(np.round(np.linspace(1, sched.steps, steps)).astype(int))
    abar = sched.alpha_bars[idx - 1]
    abar_prev = np.concatenate([[1.0], abar[:-1]])
    betas = 1.0 - abar / abar_prev
    return _from_betas(betas, sched.timestep_map[idx - 1])


def _at(arr, t, ndim=0):
    """arr value at timestep(s) t (1-based), shaped for broadcasting."""
    t = np.asarray(t)
    vals = arr[t - 1]
    if ndim and t.ndim:
        vals = vals.reshape((-1,) + (1,) * (ndim - 1))
    return vals


def _check_t(t, num_steps):
    t = np.atleast_1d(np.asarray(t))
    if t.dtype.kind not in "iu":
        raise DiffusionError(f"timesteps must be integers, got dtype {t.dtype}")
    if np.any(t < 1) or np.any(t > num_steps):
        raise DiffusionError(f"timestep out of range [1, {num_steps}]: {t}")
    return t


def q_sample(x0, t, eps, sched):
    """Forward corruption: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if eps.shape != x0.shape:
        raise DiffusionError(f"noise shape {eps.shape} does not match data {x0.shape}")
    t = _check_t(t, sched.steps)
    ab = _at(sched.alpha_bars, t, x0.ndim)
    return (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).astype(x0.dtype)


def posterior_mean(x0, x_t, t, sched):
    """Mean of q(x_{t-1} | x_t, x0)."""
    t = _check_t(t, sched.steps)
    ab = _at(sched.alpha_bars, t, x_t.ndim)
    abp = _at(sched.alpha_bars_prev, t, x_t.ndim)
    beta = _at(sched.betas, t, x_t.ndim)
    c0 = np.sqrt(abp) * beta / (1.0 - ab)
    ct = np.sqrt(1.0 - beta) * (1.0 - abp) / (1.0 - ab)
    return c0 * x0 + ct * x_t


def eps_to_mean(eps_hat, x_t, t, sched):
    """Reverse-step mean from a noise estimate (closed form)."""
    t = _check_t(t, sched.steps)
    ab = _at(sched.alpha_bars, t, x_t.ndim)
    beta = _at(sched.betas, t, x_t.ndim)
    return (x_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(1.0 - beta)


def model_log_variance(var_raw, t, sched):
    """Log-space interpolation between the posterior floor and beta ceiling.

    v = (var_raw + 1)/2. For an array (the sampler) v is clamped to [0, 1],
    which keeps the sampled variance inside [posterior, beta]. For a Tensor
    (the loss) v is left unclamped so the gradient stays alive when the head
    drifts outside the band.
    """
    t = _check_t(t, sched.steps)
    ndim = var_raw.ndim
    log_hi = _at(np.log(sched.betas), t, ndim)
    log_lo = _at(sched.log_posterior_clipped, t, ndim)
    if isinstance(var_raw, Tensor):
        v = T.mul(T.add(var_raw, 1.0), 0.5)
        lo = Tensor(log_lo.astype(var_raw.dtype))
        hi = Tensor(log_hi.astype(var_raw.dtype))
        return T.add(T.mul(v, hi), T.mul(T.sub(1.0, v), lo))
    v = np.clip((np.asarray(var_raw, dtype=np.float64) + 1.0) / 2.0, 0.0, 1.0)
    return v * log_hi + (1.0 - v) * log_lo


def gaussian_kl(mean_p, logvar_p, mean_q, logvar_q):
    """KL(p || q) for diagonal Gaussians, elementwise.

    logvar_p is a Tensor; the means and logvar_q enter as constant arrays.
    """
    lq = Tensor(np.asarray(logvar_q, dtype=logvar_p.dtype))
    delta2 = Tensor(((mean_p - mean_q) ** 2).astype(logvar_p.dtype))
    ratio = T.div(T.add(T.exp(logvar_p), delta2), T.exp(lq))
    return T.mul(T.add(T.sub(lq, logvar_p), T.add(ratio, -1.0)), 0.5)


def total_loss(model, x0, y, t, eps, sched, lambda_kl=0.001):
    """Hybrid loss of improved DDPM: L = L_d + lambda * L_KL.

    L_d = mean((eps - eps_hat)^2), the mean-square error between the injected
    and the predicted noise over every element of the batch. L_KL is the
    Gaussian KL between the predicted reverse transition and the forward
    posterior, with the predicted mean detached so only the variance head
    learns from it. Returns (loss Tensor, components dict).
    """
    x0 = np.asarray(x0, dtype=np.float32)
    t = _check_t(t, sched.steps)
    x_t = q_sample(x0, t, eps, sched)
    eps_pred, var_raw = model.forward(x_t, y, t)

    target = Tensor(np.asarray(eps, dtype=np.float32))
    l_d = T.mean(T.square(T.sub(eps_pred, target)))

    # variance-only KL: means enter as constants
    mean_p = eps_to_mean(eps_pred.data, x_t, t, sched)
    mean_q = posterior_mean(x0, x_t, t, sched)
    logvar_p = model_log_variance(var_raw, t, sched)
    logvar_q = np.broadcast_to(_at(sched.log_posterior_clipped, t, x_t.ndim), x_t.shape)
    l_kl = T.mean(gaussian_kl(mean_p, logvar_p, mean_q, logvar_q))

    loss = T.add(l_d, T.mul(l_kl, lambda_kl))
    components = {"L_d": l_d.item(), "L_KL": l_kl.item(), "total": loss.item()}
    return loss, components


@dataclass(frozen=True)
class SamplerConfig:
    guidance_scale: float = 2.0
    seed: int = 7
    steps: int = 0               # 0 means the full schedule

    def __post_init__(self):
        if not 0 <= self.guidance_scale < np.inf:
            raise DiffusionError(f"guidance scale must be finite and >= 0, got {self.guidance_scale}")
        if self.steps < 0:
            raise DiffusionError(f"steps must be >= 0 (0 is the full schedule), got {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise DiffusionError(f"seed must lie in [0, 2**64), got {self.seed}")


def null_condition(y):
    """The null label: an all-zero semantic stack of batch 1, shared by every sample."""
    y = np.asarray(y)
    return np.zeros((1,) + y.shape[1:], dtype=y.dtype)


def guidance_conditions(model, y, s):
    """Decoder conditions of both guidance branches for the stack y.

    Returns (model.condition(y), model.condition(null_condition(y))); the
    null branch is None at s=0, where guidance never evaluates it.
    """
    y = np.asarray(y, dtype=np.float32)
    with T.no_grad():
        return model.condition(y), (model.condition(null_condition(y)) if s else None)


def guided_eps(model, x_t, y, t, s):
    """Classifier-free guidance: eps_c + s * (eps_c - eps_u).

    y is a semantic stack, or its `guidance_conditions`, which a sampler
    computes once per run. Returns (eps_hat, var_raw) as arrays; the variance
    comes from the conditional pass. The encoder never sees the stack, so x_t
    is encoded once and only the decoder runs per branch. s=0 never evaluates
    the unconditional branch, so it is bitwise identical to conditional-only
    prediction.
    """
    if not 0 <= s < np.inf:
        raise DiffusionError(f"guidance scale must be finite and >= 0, got {s}")
    if not isinstance(y, tuple):
        y = guidance_conditions(model, y, s)
    cond, null = y
    with T.no_grad():
        features = model.encode(x_t, t)
        eps_c, var_raw = model.decode(features, cond)
        if s == 0:
            return eps_c.data, var_raw.data
        eps_u, _ = model.decode(features, null)
    return eps_c.data + s * (eps_c.data - eps_u.data), var_raw.data


def p_sample_loop(model, y, sched, cfg, callback=None):
    """Ancestral sampling from t=T down to 1; deterministic given cfg.seed.

    y is a [N, C_total, H, W] conditioning stack; its decoder conditions are
    computed once, before the first step. Returns float32 images in model
    space (approximately [-1, 1]); callers map to display range.
    """
    y = np.asarray(y, dtype=np.float32)
    if y.ndim != 4:
        raise DiffusionError(f"conditioning must be 4-d, got shape {y.shape}")
    sub = respace(sched, cfg.steps) if cfg.steps else sched
    n = y.shape[0]
    shape = (n, IMAGE_CHANNELS, model.config.image_size, model.config.image_size)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    x = rng.standard_normal(shape, dtype=np.float32)
    conds = guidance_conditions(model, y, cfg.guidance_scale)
    for i in reversed(range(sub.steps)):
        t_model = np.full(n, sub.timestep_map[i], dtype=np.int64)
        t_sub = np.full(n, i + 1, dtype=np.int64)
        eps_hat, var_raw = guided_eps(model, x, conds, t_model, cfg.guidance_scale)
        mean = eps_to_mean(eps_hat, x, t_sub, sub)
        if i > 0:
            logvar = model_log_variance(var_raw, t_sub, sub)
            z = rng.standard_normal(shape, dtype=np.float32)
            x = (mean + np.exp(0.5 * logvar) * z).astype(np.float32)
        else:
            x = mean.astype(np.float32)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite sample at step index {i + 1} (t={sub.timestep_map[i]})")
        if callback is not None:
            callback(i, x)
    return x
