"""In-memory spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each semcom module with
thin wrappers that open a span, call the original and close the span;
`uninstall()` puts every original back. Nothing is wrapped while tracing is
off, so an untraced run executes the program exactly as shipped.

A span has a name, start and end (integer nanoseconds), a parent span and a
work-unit id. Integer times make the self-time identity exact: a span's self
time plus its children's durations equals its own duration.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np

from semcom import channel, checkpoint, codec, data, diffusion, fds, link, training, unet
from semcom import tensor as T

SETUP = -1      # unit id of spans opened while a workload sets up
OUTSIDE = -2    # unit id of spans opened by the benchmark's own checks
ROOT = "unit"   # the benchmark's span around one unit of work

# Spans the tracer opens, in report order. Each is reported per unit of work
# as `<name>.calls` and `<name>.self_ms`.
SPAN_NAMES = (
    "tensor.conv2d.fwd", "tensor.conv2d.bwd", "tensor.group_norm", "tensor.matmul",
    "tensor.backward", "tensor.pool2d",
    "unet.forward", "unet.time", "unet.enc", "unet.mid", "unet.dec", "unet.out",
    "unet.spade", "unet.attention",
    "diffusion.total_loss", "diffusion.guided_eps", "diffusion.sampler",
    "training.condition", "training.optimizer", "training.ema", "training.clip",
    "training.step",
    "checkpoint.save", "checkpoint.load",
    "codec.one_hot", "codec.rle_pack", "codec.rle_unpack", "codec.power_normalize",
    "channel.transmit", "channel.noise", "channel.transmit_image",
    "fds.fds", "fds.pooled_planes", "fds.naive_threshold",
    "link.transmit_map", "link.receiver_condition",
    "data.recover_map", "data.generate_shapes",
)

# `semcom.tensor.scope` labels rolled up into U-Net regions.
_REGIONS = {"time": "unet.time", "enc": "unet.enc", "mid": "unet.mid",
            "dec": "unet.dec", "out": "unet.out"}


class Tracer:
    """Span and counter store for one run; see the module docstring."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.units = [], [], [], [], []
        self.stack = []
        self.unit = SETUP
        self.counters = {}
        self._patches = []

    # -- recording -------------------------------------------------------------
    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.units.append(self.unit)
        self.ends.append(0)
        self.stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, name, value=1):
        """Add to a counter; only work inside a unit is counted."""
        if self.unit >= 0:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ------------------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced call; `after(args, result)` runs once the span is closed."""
        fn = vars(owner)[attr]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, out)
            return out
        self._patch(owner, attr, traced)

    def install(self):
        w = self.wrap
        w(T, "conv2d", "tensor.conv2d.fwd", after=self._conv2d_counts)
        w(T, "group_norm", "tensor.group_norm")
        w(T, "matmul", "tensor.matmul")
        w(T, "pool2d", "tensor.pool2d")
        w(T.Tensor, "backward", "tensor.backward")
        self._patch(T, "scope", self._region_scope(vars(T)["scope"]))
        w(unet.UNet, "forward", "unet.forward")
        w(unet.Spade, "__call__", "unet.spade")
        w(unet.AttentionBlock, "__call__", "unet.attention")
        # training.py imports some functions by name, so its bindings are wrapped too
        for owner in (diffusion, training):
            w(owner, "total_loss", "diffusion.total_loss", after=lambda a, o: self.count("steps"))
        w(diffusion, "guided_eps", "diffusion.guided_eps", after=lambda a, o: self.count("steps"))
        w(diffusion, "p_sample_loop", "diffusion.sampler")
        w(training.Trainer, "_condition", "training.condition")
        w(training.AdamW, "step", "training.optimizer")
        w(training, "ema_update", "training.ema")
        w(training, "clip_gradients", "training.clip")
        w(training.Trainer, "train_step", "training.step",
          after=lambda a, o: self.count("training.skipped_steps", int(np.isnan(o.grad_norm))))
        for owner in (checkpoint, training):
            w(owner, "save_checkpoint", "checkpoint.save", after=self._checkpoint_bytes)
            w(owner, "load_checkpoint", "checkpoint.load")
        w(codec, "one_hot_encode", "codec.one_hot")
        w(codec, "rle_pack", "codec.rle_pack", after=self._payload_counts)
        w(codec, "rle_unpack", "codec.rle_unpack")
        w(codec, "power_normalize", "codec.power_normalize")
        w(channel, "transmit", "channel.transmit",
          after=lambda a, o: self.count("channel.symbols", o.size))
        w(channel, "noise_for_indices", "channel.noise")
        w(channel, "transmit_image", "channel.transmit_image")
        w(fds, "fds", "fds.fds")
        w(fds, "pooled_planes", "fds.pooled_planes")
        w(fds, "naive_threshold", "fds.naive_threshold")
        for owner in (link, training):
            w(owner, "transmit_map", "link.transmit_map")
            w(owner, "receiver_condition", "link.receiver_condition")
        w(data, "recover_map", "data.recover_map")
        w(data, "generate_shapes", "data.generate_shapes")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters fed by wrappers ------------------------------------------------------
    def _region_scope(self, scope):
        tracer = self

        @contextlib.contextmanager
        def region_scope(name):
            head = name.split(".", 1)[0]
            if name == "enc.in":
                tracer.count("unet.enc.passes")
            with scope(name):
                i = tracer.open(_REGIONS.get(head, "unet.other"))
                try:
                    yield
                finally:
                    tracer.close(i)
        return region_scope

    def _conv2d_counts(self, args, out):
        x, w = args[0], args[1]
        n, f, ho, wo = out.shape
        flop = 2 * n * f * ho * wo * w.shape[1] * w.shape[2] * w.shape[3]
        self.count("tensor.conv2d.gflop", flop / 1e9)
        self.count("tensor.conv2d.mbytes", (x.data.nbytes + w.data.nbytes + out.data.nbytes) / 1e6)
        bwd = out._bwd
        if bwd is None:
            return
        # one GEMM per differentiated operand, each as large as the forward GEMM
        gemms = int(x._tracked) + int(w._tracked)
        tracer = self

        def traced_bwd(g):
            i = tracer.open("tensor.conv2d.bwd")
            try:
                bwd(g)
            finally:
                tracer.close(i)
            tracer.count("tensor.conv2d.gflop", gemms * flop / 1e9)
            tracer.count("tensor.conv2d.mbytes",
                         (g.nbytes + gemms * (x.data.nbytes + w.data.nbytes)) / 1e6)
        out._bwd = traced_bwd

    def _payload_counts(self, args, payload):
        body = np.frombuffer(payload.body, dtype=np.uint8)
        # every varint ends in a byte below 0x80; one per plane is the sentinel
        runs = int(np.count_nonzero(body < 0x80)) - len(payload.present_classes)
        self.count("codec.packs")
        self.count("codec.runs", runs)
        self.count("codec.bits", payload.bit_count)

    def _checkpoint_bytes(self, args, out):
        self.count("checkpoint.saves")
        self.count("checkpoint.bytes", os.path.getsize(args[0]))

    # -- analysis -----------------------------------------------------------------------
    def self_times(self):
        """Per-span (duration, self time) in integer nanoseconds."""
        start = np.asarray(self.starts, dtype=np.int64)
        end = np.asarray(self.ends, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def layer_stats(self, unit_kind=None):
        """Per-layer metrics: span calls and self time per unit, counts, coverage.

        `unit_kind` maps unit ids to a kind label; self time of
        `codec.rle_unpack` is then also reported per unit of each kind.
        """
        dur, self_ns = self.self_times()
        names = np.asarray(self.names, dtype=object)
        units = np.asarray(self.units, dtype=np.int64)
        roots = (names == ROOT) & (units >= 0)
        n_units = max(int(roots.sum()), 1)
        in_unit = units >= 0
        setup = units == SETUP
        n_setups = max(int(((names == ROOT) & setup).sum()), 1)
        out = {}
        for name in SPAN_NAMES:
            mine = names == name
            # set-up work is reported per set-up, everything else per unit
            sel, n = (mine & setup, n_setups) if name == "data.generate_shapes" else (mine & in_unit, n_units)
            out[f"{name}.calls"] = float(sel.sum()) / n
            out[f"{name}.self_ms"] = float(self_ns[sel].sum()) / 1e6 / n
        c = self.counters
        for name in ("tensor.conv2d.gflop", "tensor.conv2d.mbytes", "channel.symbols"):
            out[name] = c.get(name, 0) / n_units
        steps = c.get("steps", 0)
        out["unet.enc.passes_per_step"] = c.get("unet.enc.passes", 0) / steps if steps else 0.0
        out["training.skipped_steps"] = float(c.get("training.skipped_steps", 0))
        saves = c.get("checkpoint.saves", 0)
        out["checkpoint.bytes"] = c.get("checkpoint.bytes", 0) / saves if saves else 0.0
        packs = c.get("codec.packs", 0)
        out["codec.runs"] = c.get("codec.runs", 0) / packs if packs else 0.0
        out["codec.bits"] = c.get("codec.bits", 0) / packs if packs else 0.0
        for kind in ("shapes", "fragmented"):
            ids = [u for u, k in (unit_kind or {}).items() if k == kind]
            sel = (names == "codec.rle_unpack") & np.isin(units, ids)
            out[f"codec.rle_unpack.self_ms.{kind}"] = float(self_ns[sel].sum()) / 1e6 / max(len(ids), 1)
        root_ns = dur[roots].sum()
        out["trace.coverage"] = 100.0 * (1.0 - self_ns[roots].sum() / root_ns) if root_ns else 0.0
        return out

    def dump(self, path, meta):
        """Write every span (columnar) with run metadata; schema `semcom.spans.v1`."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        doc = {
            "schema": "semcom.spans.v1",
            "meta": meta,
            "names": table,
            "name": [index[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "unit": self.units,
            "counters": self.counters,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
