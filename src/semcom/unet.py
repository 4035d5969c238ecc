"""Conditional U-Net predicting noise and variance-interpolation coefficients.

Encoder blocks inject the timestep by scaling and shifting the mid-block features
(per-channel, from the time embedding); attention blocks with cosine-normalized
similarity run at the configured resolutions; decoder blocks swap plain group
normalization for spatially-adaptive modulation driven by the semantic stack.
The semantic stack conditions the decoder only; the encoder never sees it.

Two output heads of the input image shape: predicted noise and raw variance
coefficients. Both final projections are zero-initialized.

`UNet.forward` is `decode(encode(x_t, t), y)`. `encode` runs the time
embedding, the encoder and the mid block; `decode` runs the SPADE decoder and
the output heads on those features and leaves them intact, so one encoding
can be decoded under several stacks (the conditional and the null branch of
classifier-free guidance). A stack of batch 1 conditions every sample of the
batch: SPADE computes its scale and shift at batch 1 and broadcasts them over
the feature maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ModelConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    in_channels: int = 3
    cond_channels: int = 5
    base_channels: int = 64
    channel_multipliers: tuple = (1, 2, 2)
    num_res_blocks: int = 2
    attention_resolutions: tuple = (16, 8)
    head_channels: int = 32
    attention_scale: float = 1.0
    spade_hidden: int = 64
    groups: int = 8

    def __post_init__(self):
        s = self.image_size
        if s < 8 or s & (s - 1):
            raise ModelConfigError(f"image_size must be a power of two >= 8, got {s}")
        if not self.channel_multipliers:
            raise ModelConfigError("need at least one channel multiplier")
        realized = set(self.level_resolutions)
        extra = set(self.attention_resolutions) - realized
        if extra:
            raise ModelConfigError(
                f"attention resolutions {sorted(extra)} not among realized levels {sorted(realized)}")
        for res, ch in zip(self.level_resolutions, self.level_channels):
            if ch % self.groups:
                raise ModelConfigError(f"{ch} channels at {res}x{res} not divisible by {self.groups} groups")
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


def _dense(x, w, b):
    out = T.matmul(x, w)
    return T.add(out, T.broadcast_to(T.reshape(b, (1, b.shape[0])), out.shape))


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

    def __call__(self, t, t_max=None):
        t = np.atleast_1d(np.asarray(t))
        if np.any(t < 0) or (t_max is not None and np.any(t > t_max)):
            raise ValueError(f"timestep out of range [0, {t_max}]: {t}")
        h = Tensor(sinusoid_embedding(t, self.base_dim))
        h = _dense(h, self.w1, self.b1)
        h = T.silu(h)
        return _dense(h, self.w2, self.b2)


class Film:
    """Per-channel scale/shift of the mid-block features from the time embedding."""

    def __init__(self, store, name, emb_dim, channels):
        self.channels = channels
        self.w, self.b = store.dense(name, emb_dim, 2 * channels, init="zero")

    def __call__(self, h, temb):
        n, c = h.shape[0], self.channels
        wb = _dense(T.silu(temb), self.w, self.b)
        w, b = T.split(wb, [c, c], axis=1)
        w = T.broadcast_to(T.reshape(w, (n, c, 1, 1)), h.shape)
        b = T.broadcast_to(T.reshape(b, (n, c, 1, 1)), h.shape)
        return T.add(T.mul(h, T.add(w, 1.0)), b)


class Spade:
    """Group-normalize, then modulate with maps conditioned on the semantics."""

    def __init__(self, store, name, channels, cond_channels, hidden, groups):
        self.groups = groups
        self.shared_w, self.shared_b = store.conv(f"{name}.shared", hidden, cond_channels, 3)
        self.gamma_w, self.gamma_b = store.conv(f"{name}.gamma", channels, hidden, 3, init="zero")
        self.beta_w, self.beta_b = store.conv(f"{name}.beta", channels, hidden, 3, init="zero")

    def __call__(self, a, y):
        """a: features [N, C, H, W]; y: semantic stack of batch N or 1."""
        if y.shape[2:] != a.shape[2:]:
            raise ValueError(
                f"SPADE conditioning resolution {y.shape[2:]} does not match features {a.shape[2:]}")
        norm = T.group_norm(a, self.groups)
        s = T.silu(T.conv2d(y, self.shared_w, self.shared_b))
        scale = T.add(T.conv2d(s, self.gamma_w, self.gamma_b), 1.0)
        beta = T.conv2d(s, self.beta_w, self.beta_b)
        if scale.shape != norm.shape:
            scale = T.broadcast_to(scale, norm.shape)
            beta = T.broadcast_to(beta, norm.shape)
        return T.add(T.mul(norm, scale), beta)


class ResBlock:
    """conv -> norm -> time scale/shift -> SiLU -> conv -> norm -> SiLU, residual skip.

    Decoder blocks pass a semantic stack and use SPADE in place of group norm.
    """

    def __init__(self, store, name, cin, cout, emb_dim, cfg, conditioned):
        self.conditioned = conditioned
        self.groups = cfg.groups
        self.conv1_w, self.conv1_b = store.conv(f"{name}.conv1", cout, cin, 3)
        self.conv2_w, self.conv2_b = store.conv(f"{name}.conv2", cout, cout, 3, init="zero")
        self.film = Film(store, f"{name}.film", emb_dim, cout)
        if conditioned:
            self.norm1 = Spade(store, f"{name}.spade1", cout, cfg.cond_channels, cfg.spade_hidden, cfg.groups)
            self.norm2 = Spade(store, f"{name}.spade2", cout, cfg.cond_channels, cfg.spade_hidden, cfg.groups)
        if cin != cout:
            self.skip_w, self.skip_b = store.conv(f"{name}.skip", cout, cin, 1)
        else:
            self.skip_w = None

    def _norm(self, which, h, y):
        if self.conditioned:
            return (self.norm1 if which == 1 else self.norm2)(h, y)
        return T.group_norm(h, self.groups)

    def __call__(self, x, temb, y=None):
        h = T.conv2d(x, self.conv1_w, self.conv1_b)
        h = self._norm(1, h, y)
        h = self.film(h, temb)
        h = T.silu(h)
        h = T.conv2d(h, self.conv2_w, self.conv2_b)
        h = self._norm(2, h, y)
        h = T.silu(h)
        skip = x if self.skip_w is None else T.conv2d(x, self.skip_w, self.skip_b)
        return T.add(h, skip)


class AttentionBlock:
    """Self-attention over spatial sites with cosine-normalized similarity."""

    EPS = 1e-6

    def __init__(self, store, name, channels, cfg):
        self.channels = channels
        self.heads = channels // cfg.head_channels
        self.wf, _ = store.conv(f"{name}.wf", channels, channels, 1, bias=False)
        self.wg, _ = store.conv(f"{name}.wg", channels, channels, 1, bias=False)
        self.wh, self.bh = store.conv(f"{name}.wh", channels, channels, 1)
        self.wv, self.bv = store.conv(f"{name}.wv", channels, channels, 1, init="zero")
        self.alpha = float(cfg.attention_scale)

    def _heads(self, t, n, hw):
        dh = self.channels // self.heads
        return T.reshape(t, (n, self.heads, dh, hw))

    def _unit(self, t):
        norm = T.sqrt(T.sum_(T.square(t), axis=2, keepdims=True))
        norm = T.broadcast_to(T.add(norm, self.EPS), t.shape)
        return T.div(t, norm)

    def similarity(self, x):
        """Cosine similarity matrix between projected site features."""
        n, c, h, w = x.shape
        f = self._unit(self._heads(T.conv2d(x, self.wf, None), n, h * w))
        g = self._unit(self._heads(T.conv2d(x, self.wg, None), n, h * w))
        return T.matmul(T.transpose(f, (0, 1, 3, 2)), g)  # [n, heads, site_u, site_v]

    def __call__(self, x):
        n, c, h, w = x.shape
        m = self.similarity(x)
        attn = T.softmax(T.mul(m, self.alpha), axis=-1)
        hv = self._heads(T.conv2d(x, self.wh, self.bh), n, h * w)
        out = T.matmul(hv, T.transpose(attn, (0, 1, 3, 2)))  # sum_v attn(u,v) h(x_v)
        out = T.reshape(out, (n, c, h, w))
        return T.add(x, T.conv2d(out, self.wv, self.bv))


class Downsample:
    def __init__(self, store, name, channels):
        self.w, self.b = store.conv(name, channels, channels, 3)

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=2)


class Upsample:
    def __init__(self, store, name, channels):
        self.w, self.b = store.conv(name, channels, channels, 3)

    def __call__(self, x):
        return T.conv2d(T.upsample_nearest2(x), self.w, self.b)


class UNet:
    """Encoder/decoder noise-and-variance predictor conditioned through SPADE."""

    def __init__(self, config, seed=0, params=None):
        self.config = config
        store = ParamStore(np.random.default_rng(seed))
        cfg = config
        emb = cfg.time_embed_dim
        self.time = TimeEmbed(store, cfg.base_channels, emb)

        chans = cfg.level_channels
        resos = cfg.level_resolutions
        self.in_w, self.in_b = store.conv("enc.in", chans[0], cfg.in_channels, 3)

        self.enc = []          # list of (kind, module) in execution order
        skip_chans = [chans[0]]
        ch = chans[0]
        for i, (cout, res) in enumerate(zip(chans, resos)):
            for j in range(cfg.num_res_blocks):
                block = [ResBlock(store, f"enc.l{i}.b{j}", ch, cout, emb, cfg, conditioned=False)]
                ch = cout
                if res in cfg.attention_resolutions:
                    block.append(AttentionBlock(store, f"enc.l{i}.b{j}.attn", ch, cfg))
                self.enc.append(block)
                skip_chans.append(ch)
            if i < len(chans) - 1:
                self.enc.append([Downsample(store, f"enc.l{i}.down", ch)])
                skip_chans.append(ch)

        self.mid = [ResBlock(store, "mid.b0", ch, ch, emb, cfg, conditioned=False)]
        if resos[-1] in cfg.attention_resolutions:
            self.mid.append(AttentionBlock(store, "mid.attn", ch, cfg))
        self.mid.append(ResBlock(store, "mid.b1", ch, ch, emb, cfg, conditioned=False))

        self.dec = []
        for i in reversed(range(len(chans))):
            cout, res = chans[i], resos[i]
            level = []
            for j in range(cfg.num_res_blocks + 1):
                cin = ch + skip_chans.pop()
                block = [ResBlock(store, f"dec.l{i}.b{j}", cin, cout, emb, cfg, conditioned=True)]
                ch = cout
                if res in cfg.attention_resolutions:
                    block.append(AttentionBlock(store, f"dec.l{i}.b{j}.attn", ch, cfg))
                level.append(block)
            up = Upsample(store, f"dec.l{i}.up", ch) if i > 0 else None
            self.dec.append((i, level, up))
        assert not skip_chans

        self.out_w, self.out_b = store.conv("out.conv", 2 * cfg.in_channels, chans[0], 3, init="zero")
        self.params = store.params
        if params is not None:
            self.load_state(params)

    # -- parameter plumbing ---------------------------------------------------
    def state(self):
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, arrays):
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ModelConfigError(f"parameter mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        for name, t in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float32)
            if arr.shape != t.data.shape:
                raise ModelConfigError(f"{name}: shape {arr.shape} != {t.data.shape}")
            t.data = arr.copy()

    def param_count(self):
        return sum(t.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    # -- forward ----------------------------------------------------------------
    def _cond_pyramid(self, y):
        levels = {}
        for res in self.config.level_resolutions:
            f = self.config.image_size // res
            levels[res] = Tensor(np.ascontiguousarray(y[:, :, ::f, ::f]))
        return levels

    def forward(self, x_t, y, t):
        """Returns (eps_pred, var_raw), each shaped like the input image batch."""
        return self.decode(self.encode(x_t, t), y)

    def encode(self, x_t, t):
        """Time embedding, encoder and mid block: returns (h, skips, temb)."""
        cfg = self.config
        x = x_t if isinstance(x_t, Tensor) else Tensor(np.asarray(x_t, dtype=np.float32))
        if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.image_size:
            raise ValueError(f"input shape {x.shape} does not match config "
                             f"[N,{cfg.in_channels},{cfg.image_size},{cfg.image_size}]")
        with T.scope("time"):
            temb = self.time(t)

        skips = []
        with T.scope("enc.in"):
            h = T.conv2d(x, self.in_w, self.in_b)
        skips.append(h)
        for idx, block in enumerate(self.enc):
            with T.scope(f"enc.{idx}"):
                for mod in block:
                    h = mod(h, temb) if isinstance(mod, ResBlock) else mod(h)
            skips.append(h)
        with T.scope("mid"):
            for mod in self.mid:
                h = mod(h, temb) if isinstance(mod, ResBlock) else mod(h)
        return h, skips, temb

    def decode(self, features, y):
        """SPADE decoder and output heads on `encode` features, which it leaves intact.

        y is the semantic stack, of the features' batch or of batch 1.
        Returns (eps_pred, var_raw).
        """
        cfg = self.config
        h, skips, temb = features
        y = np.asarray(y, dtype=np.float32)
        if (y.shape[1:] != (cfg.cond_channels, cfg.image_size, cfg.image_size)
                or y.shape[0] not in (1, h.shape[0])):
            raise ValueError(f"conditioning shape {y.shape} does not match "
                             f"[N or 1,{cfg.cond_channels},{cfg.image_size},{cfg.image_size}]")
        cond = self._cond_pyramid(y)
        skip = reversed(skips)
        for i, level, up in self.dec:
            y_i = cond[cfg.level_resolutions[i]]
            for j, block in enumerate(level):
                with T.scope(f"dec.l{i}.b{j}"):
                    h = T.concat([h, next(skip)], axis=1)
                    for mod in block:
                        h = mod(h, temb, y_i) if isinstance(mod, ResBlock) else mod(h)
            if up is not None:
                with T.scope(f"dec.l{i}.up"):
                    h = up(h)
        assert next(skip, None) is None
        with T.scope("out"):
            h = T.silu(T.group_norm(h, cfg.groups))
            h = T.conv2d(h, self.out_w, self.out_b)
        eps, var_raw = T.split(h, [cfg.in_channels, cfg.in_channels], axis=1)
        return eps, var_raw
