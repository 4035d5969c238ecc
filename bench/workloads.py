"""The three workloads and the recorder that times them.

Each workload sets itself up from the workload seed (model build, data
generation, warm-up) and then runs units of work one after another: a closed
loop with one client, because this is an offline simulator with no arrival
schedule. A unit times only the program's work; digests and correctness
checks run after the timed region and outside every unit span.

Functions are called through their modules (`codec.rle_pack`, not a name
imported from it) so that the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import time
from types import SimpleNamespace

import numpy as np

from semcom import channel, codec, data, diffusion, fds, link
from semcom.channel import ChannelConfig, derive_seed
from semcom.data import ShapesSpec
from semcom.diffusion import SamplerConfig, build_schedule
from semcom.fds import FdsConfig
from semcom.training import TrainConfig, Trainer
from semcom.unet import ModelConfig, UNet

from spans import OUTSIDE, ROOT

# Both model workloads share one model so that a tensor/unet change trading
# forward speed for backward speed shows on one of them.
DESK = ModelConfig(image_size=32, cond_channels=5, base_channels=32, channel_multipliers=(1, 2),
                   num_res_blocks=1, attention_resolutions=(16,), head_channels=32, spade_hidden=32)
BATCH = 4
SCHEDULE = (200, 5e-4, 0.0974)
CLASSES = 5
FDS = FdsConfig()

TRAIN_PAIRS = 64
SAVE_EVERY = 4                 # checkpoint cadence, in train steps
LOSS_UNITS = range(4, 8)       # train.loss_last: mean total loss of these units

RECEIVE_MAPS = 48
RECEIVE_PSNRS = (5.0, 10.0, 20.0)
GUIDANCE = 2.0
SAMPLER_STEPS = 5

LINK_CANVAS = 128
LINK_MAPS = 16                 # of each kind
FRAGMENT_CELL = 4              # side of the one-class squares of a fragmented map
LINK_PSNRS = (1.0, 5.0, 10.0, 20.0, 100.0)


class Recorder:
    """Wall times, step times, items, checks and digests of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.walls = []
        self.steps = []
        self.wall_scale = []  # factor to the reference speed, per wall and per step
        self.step_scale = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []
        self.kind = {}  # unit id -> kind of input, where a workload mixes kinds

    @contextlib.contextmanager
    def timed(self, unit):
        """Time one unit of work; when tracing, it is also the unit's root span."""
        timing = SimpleNamespace(seconds=0.0)
        tr = self.tracer
        if tr is not None:
            tr.unit = unit
            i = tr.open(ROOT)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - t0
            self.walls.append(timing.seconds)
            if tr is not None:
                tr.close(i)
                tr.unit = OUTSIDE

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def randomize(model, seed, scale=0.05):
    """Fill every parameter with small seeded noise so zero-initialised heads
    do not leave whole branches at zero."""
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.normal(0, scale, p.shape).astype(np.float32)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    """What the three workloads share; `setup_s` is the median of `setups`."""

    setups = 5
    min_units = 1

    def __init__(self, workdir):
        self.workdir = workdir

    def finish(self, st, rec):
        """Checks that need the whole run."""

    def outputs(self, st):
        """Deterministic outputs of the run, by name."""
        return {}


class TrainWorkload(Workload):
    """Repeated Trainer.train_step on the desk model, batch 4, with checkpoint
    writes at a fixed cadence and one restore at the end."""

    name = "train"
    min_units = LOSS_UNITS[-1] + 1

    @property
    def path(self):
        return os.path.join(self.workdir, "train.ckpt")

    def setup(self, seed):
        model = UNet(DESK, seed=seed)
        randomize(model, seed)
        pairs = data.generate_shapes(ShapesSpec(seed=seed), TRAIN_PAIRS)
        cfg = TrainConfig(batch_size=BATCH, seed=seed)
        trainer = Trainer(model, build_schedule(*SCHEDULE), cfg, pairs, config_hash="desk")
        first = trainer.train_step()  # warm-up, and the probe every set-up must repeat
        return SimpleNamespace(trainer=trainer, first=self._digest(trainer, first),
                               losses=[], saved=None)

    @staticmethod
    def _digest(trainer, m):
        params = [p.data for p in trainer.model.params.values()]
        return _digest(np.array([m.L_d, m.L_KL, m.total, m.grad_norm]), *params)

    def run_unit(self, st, k, rec):
        trainer = st.trainer
        save = (k + 1) % SAVE_EVERY == 0
        with rec.timed(k):
            t0 = time.perf_counter()
            m = trainer.train_step()
            rec.steps.append(time.perf_counter() - t0)
            if save:
                trainer.save(self.path)
        rec.items += BATCH
        if save:
            st.saved = self._snapshot(trainer)
        rec.check(bool(np.isfinite([m.L_d, m.L_KL, m.total]).all()), f"train step {k}: loss not finite")
        st.losses.append(m.total)
        rec.digests.append(self._digest(trainer, m))

    @staticmethod
    def _snapshot(trainer):
        arrays = dict(trainer.model.state())
        arrays.update(trainer.opt.state_arrays())
        arrays.update({f"ema.{k}": v for k, v in trainer.ema.items()})
        return {"arrays": {k: np.array(v, copy=True) for k, v in arrays.items()},
                "step": trainer.step_index, "rng": repr(trainer.rng.bit_generator.state)}

    def finish(self, st, rec):
        trainer = st.trainer
        trainer.restore(self.path)
        got = dict(trainer.model.state())
        got.update(trainer.opt.state_arrays())
        got.update({f"ema.{k}": v for k, v in trainer.ema.items()})
        want = st.saved["arrays"]
        ok = (set(got) == set(want) and all(_bitwise_equal(got[k], want[k]) for k in want)
              and trainer.step_index == st.saved["step"]
              and repr(trainer.rng.bit_generator.state) == st.saved["rng"])
        rec.check(ok, "checkpoint restore is not bitwise equal to the saved state")

    def outputs(self, st):
        return {"train.loss_last": float(np.mean([st.losses[i] for i in LOSS_UNITS]))}


class ReceiveGuidedWorkload(Workload):
    """Batches of shapes maps through the link with FDS, then guided sampling
    and map recovery."""

    name = "receive-guided"

    def setup(self, seed):
        model = UNet(DESK, seed=seed)
        randomize(model, seed)
        spec = ShapesSpec(seed=seed)
        maps = [cmap for _, cmap in data.generate_shapes(spec, RECEIVE_MAPS)]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((BATCH, 3, DESK.image_size, DESK.image_size), dtype=np.float32)
        y = np.zeros((BATCH, CLASSES, DESK.image_size, DESK.image_size), np.float32)
        diffusion.guided_eps(model, x, y, np.full(BATCH, SCHEDULE[0]), GUIDANCE)  # warm-up
        return SimpleNamespace(model=model, maps=maps, palette=spec.palette_array,
                               sched=build_schedule(*SCHEDULE), seed=seed, first=None)

    def run_unit(self, st, k, rec):
        stamps = []
        with rec.timed(k):
            conds = []
            for j in range(BATCH):
                n = BATCH * k + j
                cfg = ChannelConfig(RECEIVE_PSNRS[n % len(RECEIVE_PSNRS)], seed=derive_seed(st.seed, k, j))
                received = link.transmit_map(st.maps[n % len(st.maps)], CLASSES, cfg)
                conds.append(link.receiver_condition(received, CLASSES, FDS))
            y = np.stack(conds)
            sampler = SamplerConfig(guidance_scale=GUIDANCE, seed=derive_seed(st.seed, k),
                                    steps=SAMPLER_STEPS)
            stamps.append(time.perf_counter())
            x = diffusion.p_sample_loop(st.model, y, st.sched, sampler,
                                        callback=lambda i, x: stamps.append(time.perf_counter()))
            maps = [data.recover_map(np.clip((img + 1.0) / 2.0, 0.0, 1.0), st.palette) for img in x]
        rec.steps.extend(np.diff(stamps).tolist())
        rec.items += BATCH
        rec.check(bool(np.isfinite(x).all()), f"batch {k}: sample not finite")
        rec.check(len(stamps) == SAMPLER_STEPS + 1, f"batch {k}: {len(stamps) - 1} sampler steps")
        rec.check(all(m.shape == (DESK.image_size,) * 2 and 0 <= m.min() and m.max() < CLASSES
                      for m in maps), f"batch {k}: recovered map out of range")
        rec.digests.append(_digest(y, x, *maps))


class LinkSweepWorkload(Workload):
    """No model: 128x128 maps through codec, channel, FDS and the image
    baseline. A unit is one map; a step is one shapes map plus one fragmented
    map, so that step times are not split between two modes."""

    name = "link-sweep"

    def setup(self, seed):
        spec = ShapesSpec(canvas=LINK_CANVAS, shapes_min=1, shapes_max=6, seed=seed)
        shapes = [(img.astype(np.float64), cmap) for img, cmap in data.generate_shapes(spec, LINK_MAPS)]
        rng = np.random.default_rng(derive_seed(seed, 1))
        palette = spec.palette_array
        side = LINK_CANVAS // FRAGMENT_CELL
        fragmented = []
        for _ in range(LINK_MAPS):
            cells = rng.integers(0, CLASSES, size=(side, side)).astype(np.int32)
            cmap = np.repeat(np.repeat(cells, FRAGMENT_CELL, axis=0), FRAGMENT_CELL, axis=1)
            fragmented.append((palette[cmap].transpose(2, 0, 1), cmap))
        st = SimpleNamespace(shapes=shapes, fragmented=fragmented, seed=seed, agreements=[],
                             bits=[], first=None)
        self.run_unit(st, 0, Recorder())  # warm-up
        st.agreements.clear()
        st.bits.clear()
        return st

    def _one_map(self, st, image, cmap, unit):
        stack = codec.one_hot_encode(cmap, CLASSES)
        payload = codec.rle_pack(stack)
        decoded = codec.rle_unpack(payload.to_bytes())
        clean = codec.pad_stack(stack)
        sweep = []
        for psnr in LINK_PSNRS:
            cfg = ChannelConfig(psnr, seed=derive_seed(st.seed, unit, int(psnr)))
            received = link.transmit_map(cmap, CLASSES, cfg)
            cleaned = link.receiver_condition(received, CLASSES, FDS)
            naive = fds.naive_threshold(received.received_raw, stack.present_classes, CLASSES)
            agreement = fds.stack_agreement(cleaned, clean)
            image_rx = channel.transmit_image(image, cfg)
            sweep.append((psnr, received, cleaned, naive, agreement, image_rx))
        return stack, payload, decoded, sweep

    def run_unit(self, st, k, rec):
        step = 0.0
        pairs = (("shapes", st.shapes), ("fragmented", st.fragmented))
        for j, (kind, maps) in enumerate(pairs):
            unit = 2 * k + j
            image, cmap = maps[k % len(maps)]
            rec.kind[unit] = kind
            with rec.timed(unit) as timing:
                stack, payload, decoded, sweep = self._one_map(st, image, cmap, unit)
            step += timing.seconds
            self._check(st, rec, unit, kind, image, stack, payload, decoded, sweep)
        rec.steps.append(step)
        rec.items += len(pairs)

    def _check(self, st, rec, unit, kind, image, stack, payload, decoded, sweep):
        rec.check(decoded.present_classes == stack.present_classes
                  and _bitwise_equal(decoded.planes, stack.planes),
                  f"map {unit}: rle_unpack(to_bytes()) differs from the sent stack")
        frame = codec.power_normalize(stack).symbols
        for psnr, received, cleaned, naive, agreement, image_rx in sweep:
            rec.check(cleaned.shape == naive.shape == (CLASSES, LINK_CANVAS, LINK_CANVAS)
                      and np.isin(cleaned, (0, 1)).all() and np.isin(naive, (0, 1)).all()
                      and 0.0 <= image_rx.min() and image_rx.max() <= 1.0,
                      f"map {unit} at {psnr} dB: receiver output out of range")
            if psnr >= channel.NOISELESS_PSNR:
                rec.check(_bitwise_equal(received.received_raw.reshape(-1), frame)
                          and _bitwise_equal(image_rx, image),
                          f"map {unit}: noiseless channel changed the frame")
            if kind == "shapes":
                st.agreements.append(agreement)
        st.bits.append(payload.bit_count)
        rec.digests.append(_digest(decoded.planes, *[a for s in sweep for a in (s[2], s[3], s[5])]))

    def outputs(self, st):
        return {"link.bits_per_map": float(np.mean(st.bits)),
                "link.fds_agreement": float(np.mean(st.agreements))}


WORKLOADS = {w.name: w for w in (TrainWorkload, ReceiveGuidedWorkload, LinkSweepWorkload)}
