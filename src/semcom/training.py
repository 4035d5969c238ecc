"""Noisy-conditioning training: channel draws, AdamW, EMA, checkpointing.

Each training sample gets its own channel condition drawn from one fixed
PSNR pool, `PSNR_POOL` with weights `PSNR_WEIGHTS`: 1 to 30 dB once each and
the near-noiseless 100 dB four times, so 40% of the conditions are clean. The
map is normalized, corrupted, de-scaled, and fed to the model raw (the fast
denoiser stays off during training and on at inference, asserted here). A
condition is then dropped to zeros with probability `COND_DROP_PROB`, which
trains the unconditional branch of classifier-free guidance. Gradients are
scaled down to global norm `GRAD_CLIP`. Non-finite gradients skip the step
and are counted; a non-finite forward aborts the run.

A training checkpoint holds exactly the entries `<name>`, `opt.m.<name>`,
`opt.v.<name>` and `ema.<name>` for every model parameter `<name>` (the layout
of `Trainer.state_arrays`), and the extra state `step`, `skipped`, `opt_t`
(counters) and `rng_state`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .channel import ChannelConfig, derive_seed, is_int, is_seed
from .checkpoint import copy_into, load_checkpoint, save_checkpoint
from .diffusion import q_sample, total_loss
from .link import receiver_condition, transmit_map
from .tensor import Tensor


class TrainError(ValueError):
    pass


PSNR_POOL = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 100.0)  # channel PSNRs (dB) a condition is drawn from
PSNR_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0)
_PSNR_P = np.asarray(PSNR_WEIGHTS) / sum(PSNR_WEIGHTS)
COND_DROP_PROB = 0.2  # share of conditions zeroed for classifier-free guidance
GRAD_CLIP = 1.0  # global L2 norm the gradients are scaled down to


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 1e-4
    ema_decay: float = 0.9999
    seed: int = 0
    checkpoint_every: int = 1000

    def __post_init__(self):
        if not is_int(self.batch_size, 1):
            raise TrainError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if not is_int(self.checkpoint_every, 1):
            raise TrainError(f"checkpoint_every must be an integer >= 1, got {self.checkpoint_every!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise TrainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not is_seed(self.seed):
            raise TrainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not 0.0 < self.ema_decay < 1.0:
            raise TrainError(f"ema_decay must lie in (0, 1), got {self.ema_decay}")


@dataclass
class RunMetrics:
    step: int
    L_d: float
    L_KL: float
    total: float
    grad_norm: float
    wall_ms: float
    psnr_counts: dict = field(default_factory=dict)


def sample_channel_condition(rng):
    """Categorical draw of a channel PSNR from `PSNR_POOL` with weights `PSNR_WEIGHTS`."""
    return PSNR_POOL[rng.choice(len(PSNR_POOL), p=_PSNR_P)]


class AdamW:
    """Adam: adaptive moments, with bias correction, for every parameter (no weight decay)."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
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
            p.data = p.data - self.lr * ((m / b1c) / (np.sqrt(v / b2c) + self.EPS))

    def state_arrays(self):
        return {f"opt.{k}.{name}": getattr(self, k)[name] for name in self.params for k in "mv"}


def ema_update(shadow, params, decay):
    """shadow <- decay * shadow + (1 - decay) * params, per {name: Tensor} entry."""
    for name, p in params.items():
        shadow[name] = decay * shadow[name] + (1.0 - decay) * p.data
    return shadow


def clip_gradients(params):
    """Scale the gradients down to global L2 norm `GRAD_CLIP`; returns the norm before.

    The norm is summed in float64, so it is finite exactly when every gradient is.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > GRAD_CLIP and np.isfinite(norm):
        scale = GRAD_CLIP / norm
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
        self.opt = AdamW(model.params, cfg.learning_rate)
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

    def _batch(self):
        """The step's inputs, drawn from self.rng: (x0, y, t, eps, psnr_counts)."""
        cfg = self.cfg
        idx = self.rng.integers(0, len(self.maps), size=cfg.batch_size)
        psnr_counts = {}
        conds = []
        for j, i in enumerate(idx):
            psnr = sample_channel_condition(self.rng)
            psnr_counts[psnr] = psnr_counts.get(psnr, 0) + 1
            cond = self._condition(self.maps[i], psnr, j)
            if self.rng.uniform() < COND_DROP_PROB:
                cond = np.zeros_like(cond)
            conds.append(cond)
        y = np.stack(conds)
        x0 = self.images[idx] * 2.0 - 1.0
        t = self.rng.integers(1, self.sched.steps + 1, size=cfg.batch_size)
        eps = self.rng.standard_normal(x0.shape, dtype=np.float32)
        return x0, y, t, eps, psnr_counts

    def _apply_gradients(self):
        """Clip the parameters' gradients and update, or count a skip when
        they are not finite; returns the norm before clipping (NaN on skip)."""
        norm = clip_gradients(self.model.params)
        if not np.isfinite(norm):
            self.skipped += 1
            return float("nan")
        self.opt.step()
        # warm-up, so the shadow leaves the initialization; opt.t counts
        # applied updates only, so skipped steps do not advance it
        decay = min(self.cfg.ema_decay, (1 + self.opt.t) / (10 + self.opt.t))
        ema_update(self.ema, self.model.params, decay)
        return norm

    def train_step(self):
        """One optimizer update; returns RunMetrics (grad_norm NaN on skip).

        A batch of four or more runs as two halves (`tensor.split_batch`):
        each half's forward runs in its own thread, and their outputs are
        joined along the batch axis into one leaf. `total_loss` of that leaf
        is built and walked backward in the calling thread, and each half's
        graph is then walked backward from its rows of the leaf's gradient,
        in its own thread. Every rule that contracts over the batch meets its
        twin in the other half and runs once on the whole batch, so the step
        equals a single-thread whole-batch step bit for bit. A smaller batch
        runs whole on the calling thread. A forward or backward that raises
        (NonFiniteError) leaves the weights, moments and EMA as they were and
        no gradient behind; the step's draws are spent.
        """
        t0 = time.perf_counter()
        x0, y, t, eps, psnr_counts = self._batch()
        x_t = q_sample(x0, t, eps, self.sched)
        try:
            with T.split_batch(len(x0)) as split:
                outs = split.run(lambda k, part: self.model.forward(x_t[part], y[part], t[part]))
                out = Tensor(np.concatenate([o.data for o in outs]), requires_grad=True)
                loss, comps = total_loss(out, x0, x_t, t, eps, self.sched)
                loss.backward()
                split.run(lambda k, part: T.backward_from(outs[k], out.grad[part]))
            norm = self._apply_gradients()
        finally:
            self.model.zero_grad()  # nothing reads .grad after the update; free it now
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
        copy_into(self.state_arrays(), arrays, TrainError,
                  "checkpoint is not this trainer's state (weights, AdamW moments, EMA)")
        self.step_index, self.skipped, self.opt.t = counters
        self.rng.bit_generator.state = rng.state
