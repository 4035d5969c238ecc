"""Conditional U-Net predicting noise and variance-interpolation coefficients.

The network is levels of `ResBlock`s, one level per channel multiplier. Each
block injects the timestep by scaling and shifting its features (per channel,
from the time embedding), and at the configured resolutions ends with
self-attention of cosine-normalized similarity. The encoder levels end in a
stride-2 conv and the decoder levels in a nearest-neighbour upsample and a
conv; those resampling convs are plain weights of the U-Net. Two blocks form
the mid block. Decoder blocks swap plain group normalization for
spatially-adaptive modulation (SPADE) driven by the semantic stack, which
conditions the decoder only; the encoder never sees it.

Two output heads of the input image shape: predicted noise and raw variance
coefficients. Both final projections are zero-initialized.

`UNet.forward` is `decode(encode(x_t, t), condition(y))`, in three parts:

- `encode` runs everything that does not depend on the condition: the time
  embedding, the encoder, the mid block, and the first decoder block's input
  convs (its conv1 and its skip conv, on the mid output joined with the last
  skip). It returns their pair in place of the mid output.
- `condition` runs every stack-only part of the decoder: it builds the
  condition pyramid and returns each decoder SPADE's modulation (gamma + 1,
  beta). It depends on the stack and the weights, never on x_t or t, so a
  sampler computes it once per run, not once per step.
- `decode` runs the SPADE decoder and the output heads on the features and
  a condition, and leaves the features intact, so one encoding can be
  decoded under several conditions (the conditional and the null branch of
  classifier-free guidance), and the condition-free convs run once for both.

A stack of batch 1 conditions every sample of the batch: its modulation is
computed at batch 1 and broadcast over the feature maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import copy_into
from .tensor import Tensor


IMAGE_CHANNELS = 3  # RGB
GROUPS = 8  # group-norm groups of every normalization


class ModelConfigError(ValueError):
    """A config, a weight state or an input that does not fit the model."""


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    cond_channels: int = 5
    base_channels: int = 64
    channel_multipliers: tuple = (1, 2, 2)
    num_res_blocks: int = 2
    attention_resolutions: tuple = (16, 8)
    head_channels: int = 32
    spade_hidden: int = 64

    def __post_init__(self):
        s = self.image_size
        if s < 8 or s & (s - 1):
            raise ModelConfigError(f"image_size must be a power of two >= 8, got {s}")
        if not self.channel_multipliers:
            raise ModelConfigError("need at least one channel multiplier")
        for name in ("cond_channels", "base_channels", "spade_hidden", "head_channels"):
            if getattr(self, name) < 1:
                raise ModelConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.base_channels % 2:  # the sinusoid time embedding has base_channels entries
            raise ModelConfigError(f"base_channels must be even, got {self.base_channels}")
        if min(self.channel_multipliers) < 1:
            raise ModelConfigError(f"channel multipliers must be >= 1, got {self.channel_multipliers}")
        if self.num_res_blocks < 0:
            raise ModelConfigError(f"num_res_blocks must be >= 0, got {self.num_res_blocks}")
        realized = set(self.level_resolutions)
        extra = set(self.attention_resolutions) - realized
        if extra:
            raise ModelConfigError(
                f"attention resolutions {sorted(extra)} not among realized levels {sorted(realized)}")
        for res, ch in zip(self.level_resolutions, self.level_channels):
            if ch % GROUPS:
                raise ModelConfigError(f"{ch} channels at {res}x{res} not divisible by {GROUPS} groups")
            if res in self.attention_resolutions and ch % self.head_channels:
                raise ModelConfigError(
                    f"head_channels {self.head_channels} does not divide attention width {ch}")

    @property
    def level_channels(self):
        return tuple(self.base_channels * m for m in self.channel_multipliers)

    @property
    def level_resolutions(self):
        return tuple(self.image_size >> i for i in range(len(self.channel_multipliers)))

    @property
    def time_embed_dim(self):
        return 4 * self.base_channels


class ParamStore:
    """Flat registry of learnable tensors with a stable naming scheme."""

    def __init__(self, rng):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def _register(self, name, array):
        if name in self.params:
            raise ModelConfigError(f"duplicate parameter name {name}")
        t = Tensor(array.astype(np.float32), requires_grad=True)
        self.params[name] = t
        return t

    def conv(self, name, cout, cin, k, init="he", bias=True):
        if init == "zero":
            w = np.zeros((cout, cin, k, k))
        else:
            std = math.sqrt(2.0 / (cin * k * k))
            w = self.rng.normal(0.0, std, size=(cout, cin, k, k))
        wt = self._register(f"{name}.w", w)
        bt = self._register(f"{name}.b", np.zeros(cout)) if bias else None
        return wt, bt

    def dense(self, name, din, dout, init="normal"):
        if init == "zero":
            w = np.zeros((din, dout))
        else:
            w = self.rng.normal(0.0, math.sqrt(1.0 / din), size=(din, dout))
        wt = self._register(f"{name}.w", w)
        bt = self._register(f"{name}.b", np.zeros(dout))
        return wt, bt


def sinusoid_embedding(t, dim):
    """Deterministic base embedding: [sin(t*f_i)..., cos(t*f_i)...]."""
    if dim % 2:
        raise ModelConfigError(f"sinusoid dimension must be even, got {dim}")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


class TimeEmbed:
    """Sinusoidal base vector followed by two dense layers with SiLU."""

    def __init__(self, store, base_dim, emb_dim):
        self.base_dim = base_dim
        self.w1, self.b1 = store.dense("time.fc1", base_dim, emb_dim)
        self.w2, self.b2 = store.dense("time.fc2", emb_dim, emb_dim)

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t))
        if np.any(t < 0):
            raise ModelConfigError(f"timestep out of range [0, inf): {t}")
        h = Tensor(sinusoid_embedding(t, self.base_dim))
        h = T.matmul(h, self.w1, self.b1)
        h = T.silu(h)
        return T.matmul(h, self.w2, self.b2)


class Film:
    """Per-channel scale/shift of the mid-block features from the time embedding."""

    def __init__(self, store, name, emb_dim, channels):
        self.channels = channels
        self.w, self.b = store.dense(name, emb_dim, 2 * channels, init="zero")

    def __call__(self, h, temb):
        n, c = h.shape[0], self.channels
        wb = T.reshape(T.matmul(T.silu(temb), self.w, self.b), (n, 2 * c, 1, 1))
        w, b = T.halves(wb)
        return T.add(T.mul(h, T.add(w, 1.0)), b)


class Spade:
    """Group-normalize, then modulate with maps conditioned on the semantics.

    `modulation(y)` is the stack-only part; calling the block applies it.
    """

    def __init__(self, store, name, channels, cond_channels, hidden):
        self.shared_w, self.shared_b = store.conv(f"{name}.shared", hidden, cond_channels, 3)
        self.gamma_w, self.gamma_b = store.conv(f"{name}.gamma", channels, hidden, 3, init="zero")
        self.beta_w, self.beta_b = store.conv(f"{name}.beta", channels, hidden, 3, init="zero")

    def modulation(self, y):
        """(gamma + 1, beta) from a semantic stack y of batch N or 1."""
        s = T.silu(T.conv2d(y, self.shared_w, self.shared_b))
        scale = T.add(T.conv2d(s, self.gamma_w, self.gamma_b), 1.0)
        return scale, T.conv2d(s, self.beta_w, self.beta_b)

    def __call__(self, a, mod):
        """a: features [N, C, H, W]; mod: `modulation` of a stack of batch N or 1."""
        scale, beta = mod
        if scale.shape[2:] != a.shape[2:]:
            raise ModelConfigError(
                f"SPADE conditioning resolution {scale.shape[2:]} does not match features {a.shape[2:]}")
        return T.add(T.mul(T.group_norm(a, GROUPS), scale), beta)


class AttentionBlock:
    """Self-attention over spatial sites with cosine-normalized similarity.

    Per head, the f and g projections of each site are scaled to unit length,
    so the similarity fᵀg of two sites is a cosine in [-1, 1]. T.attention
    takes its softmax over the sites v for each site u and mixes the h
    projection with those weights; a zero-initialized 1x1 projection adds the
    mix to the input.
    """

    EPS = 1e-6

    def __init__(self, store, name, channels, cfg):
        self.channels = channels
        self.heads = channels // cfg.head_channels
        self.wf, _ = store.conv(f"{name}.wf", channels, channels, 1, bias=False)
        self.wg, _ = store.conv(f"{name}.wg", channels, channels, 1, bias=False)
        self.wh, self.bh = store.conv(f"{name}.wh", channels, channels, 1)
        self.wv, self.bv = store.conv(f"{name}.wv", channels, channels, 1, init="zero")

    def _heads(self, t, n, hw):
        dh = self.channels // self.heads
        return T.reshape(t, (n, self.heads, dh, hw))

    def _unit(self, t):
        norm = T.sqrt(T.sum_(T.square(t), axis=2))
        return T.div(t, T.add(norm, self.EPS))

    def _projections(self, x):
        """Unit-length f and g projections of x, each [N, heads, d, sites]."""
        n, c, h, w = x.shape
        f = self._unit(self._heads(T.conv2d(x, self.wf, None), n, h * w))
        g = self._unit(self._heads(T.conv2d(x, self.wg, None), n, h * w))
        return f, g

    def __call__(self, x):
        n, c, h, w = x.shape
        f, g = self._projections(x)
        hv = self._heads(T.conv2d(x, self.wh, self.bh), n, h * w)
        out = T.reshape(T.attention(f, g, hv), (n, c, h, w))  # sum_v attn(u,v) h(x_v)
        return T.add(x, T.conv2d(out, self.wv, self.bv))


class ResBlock:
    """The one U-Net block: conv -> norm -> time scale/shift -> SiLU -> conv -> norm -> SiLU.

    A residual skip (a 1x1 conv when the width changes) is added, and a block
    built with `attention` ends with its `AttentionBlock`. A conditioned
    (decoder) block owns two SPADEs and normalizes with them when called with
    their modulation pair; without one it uses plain group norm, as the
    encoder and mid blocks do.

    Calling the block is `rest(inputs(x), ...)`. `inputs` holds the two convs
    that read x (conv1, and the skip conv or identity), which use neither
    the time embedding nor the condition, so `UNet.encode` runs them once
    for the first decoder block and its guidance branches share them.
    """

    def __init__(self, store, name, cin, cout, emb_dim, cfg, conditioned, attention):
        self.conv1_w, self.conv1_b = store.conv(f"{name}.conv1", cout, cin, 3)
        self.conv2_w, self.conv2_b = store.conv(f"{name}.conv2", cout, cout, 3, init="zero")
        self.film = Film(store, f"{name}.film", emb_dim, cout)
        if conditioned:
            self.norm1 = Spade(store, f"{name}.spade1", cout, cfg.cond_channels, cfg.spade_hidden)
            self.norm2 = Spade(store, f"{name}.spade2", cout, cfg.cond_channels, cfg.spade_hidden)
        if cin != cout:
            self.skip_w, self.skip_b = store.conv(f"{name}.skip", cout, cin, 1)
        else:
            self.skip_w = None
        self.attn = AttentionBlock(store, f"{name}.attn", cout, cfg) if attention else None

    def __call__(self, x, temb, mods=None):
        return self.rest(self.inputs(x), temb, mods)

    def inputs(self, x):
        """(conv1(x), skip of x): the block's only work on x itself."""
        h = T.conv2d(x, self.conv1_w, self.conv1_b)
        return h, x if self.skip_w is None else T.conv2d(x, self.skip_w, self.skip_b)

    def rest(self, pair, temb, mods=None):
        """The block from the `inputs` pair on: norm, time, conv2, norm, skip and attention."""
        h, skip = pair
        h = T.group_norm(h, GROUPS) if mods is None else self.norm1(h, mods[0])
        h = self.film(h, temb)
        h = T.silu(h)
        h = T.conv2d(h, self.conv2_w, self.conv2_b)
        h = T.group_norm(h, GROUPS) if mods is None else self.norm2(h, mods[1])
        h = T.silu(h)
        h = T.add(h, skip)
        return h if self.attn is None else self.attn(h)


class UNet:
    """Encoder/decoder noise-and-variance predictor conditioned through SPADE."""

    def __init__(self, config, seed=0):
        self.config = config
        store = ParamStore(np.random.default_rng(seed))
        cfg = config
        emb = cfg.time_embed_dim
        self.time = TimeEmbed(store, cfg.base_channels, emb)

        chans = cfg.level_channels
        attn = [res in cfg.attention_resolutions for res in cfg.level_resolutions]
        self.in_w, self.in_b = store.conv("enc.in", chans[0], IMAGE_CHANNELS, 3)

        self.enc = []          # per level: (i, blocks, stride-2 conv or None)
        skip_chans = [chans[0]]
        ch = chans[0]
        for i, cout in enumerate(chans):
            blocks = []
            for j in range(cfg.num_res_blocks):
                blocks.append(ResBlock(store, f"enc.l{i}.b{j}", ch, cout, emb, cfg, False, attn[i]))
                ch = cout
                skip_chans.append(ch)
            down = None
            if i < len(chans) - 1:
                down = store.conv(f"enc.l{i}.down", ch, ch, 3)
                skip_chans.append(ch)
            self.enc.append((i, blocks, down))

        self.mid = [ResBlock(store, "mid.b0", ch, ch, emb, cfg, False, attn[-1]),
                    ResBlock(store, "mid.b1", ch, ch, emb, cfg, False, False)]

        self.dec = []          # per level, deepest first: (i, blocks, upsampling conv or None)
        for i in reversed(range(len(chans))):
            blocks = []
            for j in range(cfg.num_res_blocks + 1):
                blocks.append(ResBlock(store, f"dec.l{i}.b{j}", ch + skip_chans.pop(), chans[i], emb, cfg,
                                       True, attn[i]))
                ch = chans[i]
            up = store.conv(f"dec.l{i}.up", ch, ch, 3) if i > 0 else None
            self.dec.append((i, blocks, up))
        assert not skip_chans

        self.out_w, self.out_b = store.conv("out.conv", 2 * IMAGE_CHANNELS, chans[0], 3, init="zero")
        self.params = store.params

    # -- parameter plumbing ---------------------------------------------------
    def state(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, arrays):
        """Write `arrays` in place into the parameter arrays, all or none, so an earlier `state()` sees them."""
        copy_into(self.state(), arrays, ModelConfigError, "parameter mismatch")

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    # -- forward ----------------------------------------------------------------
    def forward(self, x_t, y, t):
        """Returns (eps_pred, var_raw), each shaped like the input image batch."""
        return self.decode(self.encode(x_t, t), self.condition(y))

    def encode(self, x_t, t):
        """Time embedding, encoder, mid block and the first decoder block's
        `ResBlock.inputs`, run under that block's scope: returns (pair,
        skips, temb), the skips without the one that pair consumed."""
        cfg = self.config
        x = Tensor(np.asarray(x_t, dtype=np.float32))
        if x.ndim != 4 or x.shape[1:] != (IMAGE_CHANNELS, cfg.image_size, cfg.image_size):
            raise ModelConfigError(f"input shape {x.shape} does not match config "
                                   f"[N,{IMAGE_CHANNELS},{cfg.image_size},{cfg.image_size}]")
        if np.atleast_1d(np.asarray(t)).shape != (x.shape[0],):
            raise ModelConfigError(f"need one timestep per sample of batch {x.shape[0]}, got {t!r}")
        with T.scope("time"):
            temb = self.time(t)

        skips = []
        with T.scope("enc.in"):
            h = T.conv2d(x, self.in_w, self.in_b)
        skips.append(h)
        for i, blocks, down in self.enc:
            for j, block in enumerate(blocks):
                with T.scope(f"enc.l{i}.b{j}"):
                    h = block(h, temb)
                skips.append(h)
            if down is not None:
                with T.scope(f"enc.l{i}.down"):
                    h = T.conv2d(h, *down, stride=2)
                skips.append(h)
        with T.scope("mid"):
            for block in self.mid:
                h = block(h, temb)
        i, blocks, _ = self.dec[0]
        with T.scope(f"dec.l{i}.b0"):
            pair = blocks[0].inputs(T.concat(h, skips.pop()))
        return pair, skips, temb

    def condition(self, y):
        """Modulation of every decoder SPADE from a semantic stack of batch N or 1.

        The condition pyramid samples the stack at each level's resolution.
        Returns one (spade1, spade2) modulation pair per decoder block, in
        `decode` order.
        """
        cfg = self.config
        y = np.asarray(y, dtype=np.float32)
        if y.shape[1:] != (cfg.cond_channels, cfg.image_size, cfg.image_size):
            raise ModelConfigError(f"conditioning shape {y.shape} does not match "
                                   f"[N or 1,{cfg.cond_channels},{cfg.image_size},{cfg.image_size}]")
        cond = []
        for i, blocks, _ in self.dec:
            y_i = Tensor(np.ascontiguousarray(y[:, :, ::1 << i, ::1 << i]))
            for j, block in enumerate(blocks):
                with T.scope(f"dec.l{i}.b{j}.cond"):
                    cond.append((block.norm1.modulation(y_i), block.norm2.modulation(y_i)))
        return cond

    def decode(self, features, cond):
        """SPADE decoder and output heads on `encode` features, which it leaves intact.

        cond is `condition(y)` of a stack of the features' batch or of batch 1.
        Returns (eps_pred, var_raw).
        """
        pair, skips, temb = features
        n = pair[0].shape[0]
        batch = cond[0][0][0].shape[0]  # gamma + 1 of the first SPADE
        if batch not in (1, n):
            raise ModelConfigError(f"conditioning batch {batch} is neither 1 nor the features' batch {n}")
        mods = iter(cond)
        skip = reversed(skips)
        for i, blocks, up in self.dec:
            for j, block in enumerate(blocks):
                with T.scope(f"dec.l{i}.b{j}"):
                    if pair is None:
                        pair = block.inputs(T.concat(h, next(skip)))
                    h = block.rest(pair, temb, next(mods))
                pair = None
            if up is not None:
                with T.scope(f"dec.l{i}.up"):
                    h = T.conv2d(T.upsample_nearest2(h), *up)
        assert next(skip, None) is None and next(mods, None) is None
        with T.scope("out"):
            h = T.silu(T.group_norm(h, GROUPS))
            h = T.conv2d(h, self.out_w, self.out_b)
        return T.halves(h)
