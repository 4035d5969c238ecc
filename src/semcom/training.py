"""Noisy-conditioning training: channel draws, AdamW, EMA, checkpointing.

Each training sample gets its own channel condition drawn from a weighted
PSNR pool (clean conditions weighted higher by default); the map is
normalized, corrupted, de-scaled, and fed to the model raw (the fast
denoiser stays off during training and on at inference, asserted here).
Non-finite gradients skip the step and are counted; a non-finite forward
aborts the run.

A training checkpoint holds exactly the entries `<name>`, `opt.m.<name>`,
`opt.v.<name>` and `ema.<name>` for every model parameter `<name>` (the layout
of `Trainer.state_arrays`), and the extra state `step`, `skipped`, `opt_t`
(counters) and `rng_state`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, derive_seed
from .checkpoint import load_checkpoint, save_checkpoint
from .diffusion import total_loss
from .link import receiver_condition, transmit_map


class TrainError(ValueError):
    pass


DEFAULT_PSNR_POOL = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 100.0)
DEFAULT_PSNR_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0)
GRAD_CLIP = 1.0  # global L2 norm the gradients are scaled down to


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 1e-4
    ema_decay: float = 0.9999
    cond_drop_prob: float = 0.2
    psnr_pool: tuple = DEFAULT_PSNR_POOL
    psnr_weights: tuple = DEFAULT_PSNR_WEIGHTS
    seed: int = 0
    weight_decay: float = 0.0
    checkpoint_every: int = 1000

    def __post_init__(self):
        if not self.psnr_pool:
            raise TrainError("psnr_pool must not be empty")
        if len(self.psnr_pool) != len(self.psnr_weights):
            raise TrainError(f"{len(self.psnr_pool)} pool entries vs {len(self.psnr_weights)} weights")
        if not all(0 < w < np.inf for w in self.psnr_weights):
            raise TrainError(f"psnr weights must be positive and finite, got {self.psnr_weights}")
        if not all(p > -np.inf for p in self.psnr_pool):
            raise TrainError(f"psnr pool entries must be numbers or +inf (noiseless), got {self.psnr_pool}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise TrainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise TrainError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 <= self.seed < 2**64:
            raise TrainError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 0.0 < self.ema_decay < 1.0:
            raise TrainError(f"ema_decay must lie in (0, 1), got {self.ema_decay}")
        if not 0.0 <= self.cond_drop_prob <= 1.0:
            raise TrainError(f"cond_drop_prob must lie in [0, 1], got {self.cond_drop_prob}")


@dataclass
class RunMetrics:
    step: int
    L_d: float
    L_KL: float
    total: float
    grad_norm: float
    wall_ms: float
    psnr_counts: dict = field(default_factory=dict)


def sample_channel_condition(rng, psnr_pool, weights):
    """Categorical draw of a channel PSNR from the (normalized) weighted pool."""
    pool = list(psnr_pool)
    if not pool:
        raise TrainError("psnr_pool must not be empty")
    p = np.asarray(weights, dtype=np.float64)
    p /= p.sum()
    return float(pool[rng.choice(len(pool), p=p)])


class AdamW:
    """Decoupled-weight-decay adaptive moments, with bias correction, for every parameter."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        """One update of every parameter that has a gradient (.grad)."""
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            v = self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * (g * g)
            update = (m / b1c) / (np.sqrt(v / b2c) + self.EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def state_arrays(self):
        return {f"opt.{k}.{name}": getattr(self, k)[name] for name in self.params for k in "mv"}


def ema_update(shadow, params, decay):
    """shadow <- decay * shadow + (1 - decay) * params, per {name: Tensor} entry."""
    for name, p in params.items():
        shadow[name] = decay * shadow[name] + (1.0 - decay) * p.data
    return shadow


def clip_gradients(params, max_norm):
    """Scale the gradients down to global L2 norm max_norm; returns the norm before.

    The norm is summed in float64, so it is finite exactly when every gradient is.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and np.isfinite(norm):
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


METRICS_SCHEMA = "metrics.v1"
METRICS_HEADER = "step,L_d,L_KL,total,grad_norm,wall_ms"


class MetricsWriter:
    def __init__(self, path):
        self.path = path
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {METRICS_SCHEMA}\n{METRICS_HEADER}\n")

    def append(self, m):
        with open(self.path, "a", encoding="utf-8") as f:
            f.write("%d,%.8g,%.8g,%.8g,%.8g,%.0f\n"
                    % (m.step, m.L_d, m.L_KL, m.total, m.grad_norm, m.wall_ms))


class Trainer:
    """Owns the model parameters, optimizer state, EMA shadow, and RNG."""

    def __init__(self, model, sched, cfg, pairs, config_hash=""):
        if not pairs:
            raise TrainError("no training pairs")
        self.model = model
        self.sched = sched
        self.cfg = cfg
        self.config_hash = config_hash
        self.images = np.stack([img for img, _ in pairs]).astype(np.float32)
        self.maps = [cmap for _, cmap in pairs]
        self.c_total = model.config.cond_channels
        self.rng = np.random.default_rng(cfg.seed)
        self.opt = AdamW(model.params, cfg.learning_rate, cfg.weight_decay)
        self.ema = {name: p.data.copy() for name, p in model.params.items()}
        self.step_index = 0
        self.skipped = 0

    # -- conditioning -------------------------------------------------------
    def _condition(self, cmap, psnr_db, sample_tag):
        ch_cfg = ChannelConfig(
            psnr_db=psnr_db, seed=derive_seed(self.cfg.seed, self.step_index, sample_tag))
        link = transmit_map(cmap, self.c_total, ch_cfg)
        # training consumes raw noisy maps: the fast denoiser stays inference-only
        return receiver_condition(link, self.c_total, fds_cfg=None)

    def train_step(self):
        """One optimizer update; returns RunMetrics (grad_norm NaN on skip)."""
        cfg = self.cfg
        t0 = time.perf_counter()
        n = len(self.maps)
        idx = self.rng.integers(0, n, size=cfg.batch_size)
        psnr_counts = {}
        conds = []
        for j, i in enumerate(idx):
            psnr = sample_channel_condition(self.rng, cfg.psnr_pool, cfg.psnr_weights)
            psnr_counts[psnr] = psnr_counts.get(psnr, 0) + 1
            cond = self._condition(self.maps[i], psnr, j)
            if self.rng.uniform() < cfg.cond_drop_prob:
                cond = np.zeros_like(cond)
            conds.append(cond)
        y = np.stack(conds)
        x0 = self.images[idx] * 2.0 - 1.0
        t = self.rng.integers(1, self.sched.steps + 1, size=cfg.batch_size)
        eps = self.rng.standard_normal(x0.shape, dtype=np.float32)

        self.model.zero_grad()
        loss, comps = total_loss(self.model, x0, y, t, eps, self.sched)
        loss.backward()

        norm = clip_gradients(self.model.params, GRAD_CLIP)
        if np.isfinite(norm):
            self.opt.step()
            # warm-up, so the shadow leaves the initialization; opt.t counts
            # applied updates only, so skipped steps do not advance it
            decay = min(cfg.ema_decay, (1 + self.opt.t) / (10 + self.opt.t))
            ema_update(self.ema, self.model.params, decay)
        else:
            self.skipped += 1
            norm = float("nan")
        self.step_index += 1
        return RunMetrics(self.step_index, comps["L_d"], comps["L_KL"], comps["total"],
                          norm, 1e3 * (time.perf_counter() - t0), psnr_counts)

    # -- checkpointing -------------------------------------------------------
    def state_arrays(self):
        """Every array of the training state by its checkpoint name."""
        return {**self.model.state(), **self.opt.state_arrays(), **{f"ema.{k}": v for k, v in self.ema.items()}}

    def save(self, path):
        """Write `<name>`, `opt.m.<name>`, `opt.v.<name>` and `ema.<name>` for every
        parameter, and the extra state `step`, `skipped`, `opt_t` and `rng_state`."""
        save_checkpoint(path, self.state_arrays(), self.config_hash, {
            "step": self.step_index, "skipped": self.skipped, "opt_t": self.opt.t,
            "rng_state": self.rng.bit_generator.state})

    def restore(self, path):
        """Resume from a file written by `save`. Every entry, counter and the RNG state is
        checked before anything is assigned, so a refused file leaves the trainer as it was."""
        arrays, manifest = load_checkpoint(path)
        if manifest["config_hash"] != self.config_hash:
            raise TrainError(f"checkpoint config hash {manifest['config_hash']!r} does not match "
                             f"this run's {self.config_hash!r}")
        want = self.state_arrays()
        missing, unknown = sorted(want.keys() - arrays.keys()), sorted(arrays.keys() - want.keys())
        if missing or unknown:
            raise TrainError(f"checkpoint is not this trainer's state (weights, AdamW moments, EMA): "
                             f"missing {missing[:3]}, unknown {unknown[:3]}")
        for name, arr in want.items():
            if arrays[name].shape != arr.shape:
                raise TrainError(f"{name}: shape {arrays[name].shape} != {arr.shape}")
        extra = manifest["extra"]
        counters = [extra.get(key) for key in ("step", "skipped", "opt_t")]
        if not all(type(c) is int and c >= 0 for c in counters) or counters[0] != counters[1] + counters[2]:
            raise TrainError(f"bad checkpoint counters (step, skipped, opt_t): {counters}")
        rng = type(self.rng.bit_generator)()  # a state that parses round-trips through a fresh one
        try:
            rng.state = extra.get("rng_state")
            if rng.state != extra["rng_state"]:
                raise ValueError("it does not round-trip")
        except (TypeError, ValueError, KeyError, OverflowError) as e:
            raise TrainError(f"bad checkpoint RNG state: {e!r}") from None

        for name, arr in want.items():  # every state array is written in place
            arr[...] = arrays[name]
        self.step_index, self.skipped, self.opt.t = counters
        self.rng.bit_generator.state = rng.state
