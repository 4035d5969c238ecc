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
from .channel import is_int, is_seed
from .tensor import Tensor
from .unet import IMAGE_CHANNELS


LAMBDA_KL = 0.001  # weight of L_KL in the hybrid loss (improved DDPM)


class DiffusionError(ValueError):
    pass


class SamplingError(RuntimeError):
    """Numerical failure during ancestral sampling; carries the step index."""


@dataclass(frozen=True)
class NoiseSchedule:
    betas: np.ndarray              # [T] float64
    alpha_bars: np.ndarray         # cumulative products of (1 - beta)
    alpha_bars_prev: np.ndarray    # abar_{t-1}, with abar_0 = 1
    log_posterior_clipped: np.ndarray  # log((1-abar_{t-1})/(1-abar_t) * beta_t), t=1 clipped
    timestep_map: np.ndarray       # original timestep for each index (respacing)

    @property
    def steps(self):
        return len(self.betas)


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
    pv = (1.0 - prev) / (1.0 - alpha_bars) * betas
    log_clipped = np.log(np.concatenate([[pv[1] if len(pv) > 1 else betas[0]], pv[1:]]))
    return NoiseSchedule(betas, alpha_bars, prev, log_clipped, np.asarray(timestep_map))


def respace(sched, steps):
    """Evenly spaced sub-schedule with equivalent cumulative products."""
    if not 1 <= steps <= sched.steps:
        raise DiffusionError(f"need 1 to {sched.steps} sampling steps, got {steps}")
    if steps == sched.steps:
        return sched
    idx = np.unique(np.round(np.linspace(1, sched.steps, steps)).astype(int))
    abar = sched.alpha_bars[idx - 1]
    abar_prev = np.concatenate([[1.0], abar[:-1]])
    betas = 1.0 - abar / abar_prev
    return _from_betas(betas, sched.timestep_map[idx - 1])


def _at(arr, t, ndim):
    """arr values at the 1-d timesteps t (1-based), shaped to broadcast
    against an ndim-d batch."""
    return arr[t - 1].reshape((-1,) + (1,) * (ndim - 1))


def _check_t(t, num_steps, batch):
    """t as a 1-d integer array of one timestep, or of one per sample of the batch."""
    t = np.atleast_1d(np.asarray(t))
    if t.dtype.kind not in "iu":
        raise DiffusionError(f"timesteps must be integers, got dtype {t.dtype}")
    if t.shape not in ((1,), (batch,)):
        raise DiffusionError(f"need one timestep or one per sample of batch {batch}, got shape {t.shape}")
    if np.any(t < 1) or np.any(t > num_steps):
        raise DiffusionError(f"timestep out of range [1, {num_steps}]: {t}")
    return t


def q_sample(x0, t, eps, sched):
    """Forward corruption: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0)
    eps = np.asarray(eps)
    if eps.shape != x0.shape:
        raise DiffusionError(f"noise shape {eps.shape} does not match data {x0.shape}")
    t = _check_t(t, sched.steps, len(x0))
    ab = _at(sched.alpha_bars, t, x0.ndim)
    return (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).astype(x0.dtype)


def posterior_mean(x0, x_t, t, sched):
    """Mean of q(x_{t-1} | x_t, x0)."""
    t = _check_t(t, sched.steps, len(x_t))
    ab = _at(sched.alpha_bars, t, x_t.ndim)
    abp = _at(sched.alpha_bars_prev, t, x_t.ndim)
    beta = _at(sched.betas, t, x_t.ndim)
    c0 = np.sqrt(abp) * beta / (1.0 - ab)
    ct = np.sqrt(1.0 - beta) * (1.0 - abp) / (1.0 - ab)
    return c0 * x0 + ct * x_t


def eps_to_mean(eps_hat, x_t, t, sched):
    """Reverse-step mean from a noise estimate (closed form)."""
    t = _check_t(t, sched.steps, len(x_t))
    ab = _at(sched.alpha_bars, t, x_t.ndim)
    beta = _at(sched.betas, t, x_t.ndim)
    return (x_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(1.0 - beta)


def model_log_variance(var_raw, t, sched):
    """Log-space interpolation between the posterior floor and beta ceiling
    by v = (var_raw + 1)/2 of a Tensor, unclamped so that the loss's gradient
    stays alive when the head drifts outside the band. The sampler clamps
    var_raw to [-1, 1] first, keeping the variance inside [posterior, beta].
    """
    t = _check_t(t, sched.steps, var_raw.shape[0])
    log_hi = _at(np.log(sched.betas), t, var_raw.ndim)
    log_lo = _at(sched.log_posterior_clipped, t, var_raw.ndim)
    v = T.mul(T.add(var_raw, 1.0), 0.5)
    return T.add(T.mul(v, log_hi), T.mul(T.sub(1.0, v), log_lo))


def gaussian_kl(mean_p, logvar_p, mean_q, logvar_q):
    """KL(p || q) for diagonal Gaussians, elementwise.

    logvar_p is a Tensor; the means and logvar_q enter as constant arrays.
    """
    lq = Tensor(np.asarray(logvar_q, dtype=logvar_p.dtype))
    ratio = T.div(T.add(T.exp(logvar_p), (mean_p - mean_q) ** 2), T.exp(lq))
    return T.mul(T.add(T.sub(lq, logvar_p), T.add(ratio, -1.0)), 0.5)


def total_loss(out, x0, x_t, t, eps, sched):
    """Hybrid loss of improved DDPM: L = L_d + LAMBDA_KL * L_KL, of the
    U-Net output `out` on x_t = q_sample(x0, t, eps, sched).

    out is [N, 2*IMAGE_CHANNELS, H, W], the predicted noise and then the raw
    variance, which `T.halves` splits. L_d = mean((eps - eps_hat)^2), the
    mean-square error between the injected and the predicted noise over
    every element of the batch. L_KL is the Gaussian KL between the
    predicted reverse transition and the forward posterior, with the
    predicted mean detached so only the variance half learns from it.
    Returns (loss Tensor, components dict).
    """
    t = _check_t(t, sched.steps, len(x0))
    eps_pred, var_raw = T.halves(out)
    l_d = T.mean(T.square(T.sub(eps_pred, eps)))

    # variance-only KL: means enter as constants
    mean_p = eps_to_mean(eps_pred.data, x_t, t, sched)
    mean_q = posterior_mean(x0, x_t, t, sched)
    logvar_p = model_log_variance(var_raw, t, sched)
    logvar_q = np.broadcast_to(_at(sched.log_posterior_clipped, t, x_t.ndim), x_t.shape)
    l_kl = T.mean(gaussian_kl(mean_p, logvar_p, mean_q, logvar_q))

    loss = T.add(l_d, T.mul(l_kl, LAMBDA_KL))
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
        if not is_int(self.steps, 0):
            raise DiffusionError(f"steps must be an integer >= 0 (0 is the full schedule), got {self.steps!r}")
        if not is_seed(self.seed):
            raise DiffusionError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


def null_condition(y):
    """The null label: an all-zero semantic stack of batch 1, shared by every sample."""
    y = np.asarray(y)
    return np.zeros((1,) + y.shape[1:], dtype=y.dtype)


def guidance_conditions(model, y, s):
    """Decoder conditions of both guidance branches for the stack y.

    Returns (model.condition(y), model.condition(null_condition(y))); the
    null branch is None at s=0, where guidance never evaluates it.

    p_sample_loop builds the same pair per half of a batch of four or more
    instead, one condition per half and one null for both, and decodes each
    half in its own thread; its bits equal those of this whole-batch pair
    (see `tensor.split_batch`). The batch-1 null condition is broadcast over
    either half as over the whole batch.
    """
    y = np.asarray(y, dtype=np.float32)
    with T.no_grad():
        return model.condition(y), (model.condition(null_condition(y)) if s else None)


def guided_eps(model, x_t, y, t, s):
    """Classifier-free guidance: eps_c + s * (eps_c - eps_u).

    y is a semantic stack, or a (condition, null condition) pair as
    `guidance_conditions` returns (built at a nonzero scale when s is),
    which a sampler computes once per run for each half of its batch. Returns
    (eps_hat, var_raw) as arrays, from the `T.halves` of each decode's
    output; the variance comes from the conditional pass. The encoder never
    sees the stack, so x_t is encoded once (with the first decoder block's
    condition-free convs, see `UNet.encode`) and only the rest of the
    decoder runs per branch. s=0 never evaluates the unconditional branch,
    so it is bitwise identical to conditional-only prediction.
    """
    if not 0 <= s < np.inf:
        raise DiffusionError(f"guidance scale must be finite and >= 0, got {s}")
    if not isinstance(y, tuple):
        y = guidance_conditions(model, y, s)
    cond, null = y
    if s and null is None:
        raise DiffusionError(f"guidance scale {s} needs the null branch, which conditions built at s=0 lack")
    with T.no_grad():
        features = model.encode(x_t, t)
        eps_c, var_raw = T.halves(model.decode(features, cond))
        if s == 0:
            return eps_c.data, var_raw.data
        eps_u, _ = T.halves(model.decode(features, null))
    return eps_c.data + s * (eps_c.data - eps_u.data), var_raw.data


def _copied(cond):
    """A `UNet.condition` result with its arrays copied by the calling thread."""
    return [tuple((Tensor(scale.data.copy()), Tensor(beta.data.copy())) for scale, beta in pair) for pair in cond]


def p_sample_loop(model, y, sched, cfg, callback=None):
    """Ancestral sampling from t=T down to 1; deterministic given cfg.seed.

    y is a [N, C_total, H, W] conditioning stack. A batch of four or more is
    split into the halves [0, N//2) and [N//2, N); a smaller one runs whole,
    on one thread (`tensor.split_batch`). The null branch's condition is
    computed once for both halves in the calling thread, then each half's
    condition once in its own thread, before the first step.
    Each step runs guided_eps on the second half in a worker thread while
    the calling thread runs it on the first, so the two halves' encodes and
    decodes run on two cores (numpy and BLAS release the GIL for the heavy
    work). The update (its variance from var_raw clamped to [-1, 1]) and the
    noise draw then run on the whole batch. The samples equal those of
    guided_eps on the whole batch, bit for bit.
    Returns float32 images in model space
    (approximately [-1, 1]); callers map to display range.
    """
    y = np.asarray(y, dtype=np.float32)
    if y.ndim != 4:
        raise DiffusionError(f"conditioning must be 4-d, got shape {y.shape}")
    sub = respace(sched, cfg.steps) if cfg.steps else sched
    n = y.shape[0]
    s = cfg.guidance_scale
    shape = (n, IMAGE_CHANNELS, model.config.image_size, model.config.image_size)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    x = rng.standard_normal(shape, dtype=np.float32)
    with T.split_batch(n) as split:
        with T.no_grad():
            null = model.condition(null_condition(y)) if s else None

        def condition(k, part):
            with T.no_grad():  # grad mode is per thread
                return model.condition(y[part])
        # the run keeps each half's condition to its end, so the worker's is
        # copied into this thread's memory: left in the worker's allocator
        # arena it lies under every step's transients there, which raised
        # the receive-guided benchmark's peak RSS by about 2.8 MB
        conds = [(cond if k == 0 else _copied(cond), null) for k, cond in enumerate(split.run(condition))]
        for i in reversed(range(sub.steps)):
            t_model = np.full(n, sub.timestep_map[i], dtype=np.int64)
            t_sub = np.full(n, i + 1, dtype=np.int64)
            halves = split.run(lambda k, part: guided_eps(model, x[part], conds[k], t_model[part], s))
            eps_hat, var_raw = (np.concatenate(pair) for pair in zip(*halves))
            mean = eps_to_mean(eps_hat, x, t_sub, sub)
            if i > 0:
                clamped = Tensor(np.clip(var_raw, -1.0, 1.0).astype(np.float64))
                logvar = model_log_variance(clamped, t_sub, sub).data
                z = rng.standard_normal(shape, dtype=np.float32)
            # an update that overflows float32 is left to the check below, which names the step
            with np.errstate(over="ignore"):
                x = (mean + np.exp(0.5 * logvar) * z if i > 0 else mean).astype(np.float32)
            if not np.all(np.isfinite(x)):
                raise SamplingError(f"non-finite sample at step index {i + 1} (t={sub.timestep_map[i]})")
            if callback is not None:
                callback(i, x)
    return x
