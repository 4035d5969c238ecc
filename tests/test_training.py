import contextlib
import dataclasses
import json
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import tensor as T
from semcom import training
from semcom.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semcom.data import ShapesSpec, generate_shapes
from semcom.diffusion import build_schedule, q_sample, total_loss
from semcom.tensor import Tensor
from semcom.training import (
    AdamW,
    MetricsWriter,
    TrainConfig,
    TrainError,
    Trainer,
    clip_gradients,
    ema_update,
    sample_channel_condition,
)
from semcom.unet import ModelConfig, UNet

from memtrace import graph_and_backward_peak, step_peak

TINY_MODEL = ModelConfig(image_size=16, cond_channels=5, base_channels=16,
                         channel_multipliers=(1, 2), num_res_blocks=1,
                         attention_resolutions=(8,), head_channels=8, spade_hidden=16)
TINY_DATA = ShapesSpec(canvas=16, shapes_min=1, shapes_max=2, seed=5)


def _trainer(steps_seed=0, config_hash="testhash", **kw):
    defaults = dict(batch_size=2, learning_rate=3e-4, ema_decay=0.99, seed=steps_seed)
    defaults.update(kw)
    cfg = TrainConfig(**defaults)
    model = UNet(TINY_MODEL, seed=steps_seed)
    sched = build_schedule(20, 1e-3, 0.1)
    pairs = generate_shapes(TINY_DATA, 8)
    return Trainer(model, sched, cfg, pairs, config_hash=config_hash)


def _poison_gradient(monkeypatch, trainer, value):
    """After the real backward of every step, fill the first parameter's gradient with `value`."""
    param = next(iter(trainer.model.params.values()))
    real = training.clip_gradients

    def clip_gradients(params):  # the step's first use of the gradients
        param.grad = np.full_like(param.grad, value)
        return real(params)
    monkeypatch.setattr(training, "clip_gradients", clip_gradients)


class TestSampleChannelCondition:
    def test_default_weights_frequency(self):
        assert training.PSNR_POOL == (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 100.0)
        rng = np.random.default_rng(1)
        draws = np.array([sample_channel_condition(rng) for _ in range(100_000)])
        freq100 = np.mean(draws == 100.0)
        assert abs(freq100 - 0.4) < 0.01


class TestTrainConfig:
    @pytest.mark.parametrize("name, value", [
        ("learning_rate", float("nan")), ("learning_rate", 0.0), ("learning_rate", float("inf")),
        ("seed", -1), ("seed", 2**64), ("seed", 2.5),
        ("ema_decay", 1.0),
        ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True),
        ("checkpoint_every", 0), ("checkpoint_every", 2.5), ("checkpoint_every", True),
    ])
    def test_refuses_bad_settings(self, name, value):
        with pytest.raises(TrainError, match=name.replace("_", ".")):
            TrainConfig(**{name: value})


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor(np.ones(4), requires_grad=True)
        p.grad = np.zeros(4)
        opt = AdamW({"p": p}, lr=0.1)
        opt.step()
        assert np.allclose(p.data, 1.0)

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=6)
        p = Tensor(np.zeros(6), requires_grad=True)
        p.grad = g.copy()
        opt = AdamW({"p": p}, lr=0.01)
        opt.step()
        expect = -0.01 * g / (np.sqrt(g * g) + AdamW.EPS)
        assert np.allclose(p.data, expect, atol=1e-12)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01)
        prev = p.data.copy()
        for _ in range(500):
            p.grad = np.full(1, 0.37)
            opt.step()
            delta = abs(float(p.data[0] - prev[0]))
            prev = p.data.copy()
        assert delta == pytest.approx(0.01, rel=1e-3)

    def test_every_parameter_has_zero_moments_from_the_start(self):
        params = {"a": Tensor(np.ones(3, np.float32), requires_grad=True),
                  "b": Tensor(np.ones((2, 2), np.float32), requires_grad=True)}
        opt = AdamW(params, lr=0.1)
        params["a"].grad = np.ones(3, np.float32)
        opt.step()  # "b" has no gradient: it keeps its zero moments and its value
        assert list(opt.state_arrays()) == ["opt.m.a", "opt.v.a", "opt.m.b", "opt.v.b"]
        assert opt.m["a"].any() and opt.v["a"].any()
        for arr in (opt.m["b"], opt.v["b"]):
            assert arr.shape == (2, 2) and arr.dtype == np.float32 and not arr.any()
        assert np.array_equal(params["b"].data, np.ones((2, 2)))


class TestEma:
    def test_shadow_equals_params_is_fixed_point(self):
        shadow = {"w": np.full(3, 1.5)}
        ema_update(shadow, {"w": Tensor(np.full(3, 1.5))}, 0.9999)
        assert np.allclose(shadow["w"], 1.5)

    def test_closed_form_over_many_steps(self):
        decay = 0.9999
        shadow = {"w": np.zeros(1, dtype=np.float64)}
        p = {"w": Tensor(np.ones(1, dtype=np.float64))}
        for _ in range(10_000):
            ema_update(shadow, p, decay)
        expect = decay**10_000 * (0.0 - 1.0) + 1.0
        # float64-exact: the geometric recursion and the closed form agree to rounding
        assert shadow["w"][0] == pytest.approx(expect, rel=1e-10)
        assert shadow["w"][0] == pytest.approx(0.632, abs=5e-4)

    def test_shadow_finite_when_params_finite(self):
        rng = np.random.default_rng(3)
        shadow = {"w": rng.normal(size=8)}
        for _ in range(100):
            ema_update(shadow, {"w": Tensor(rng.normal(size=8))}, 0.99)
        assert np.all(np.isfinite(shadow["w"]))


class TestTrainStep:
    def test_ema_tracks_params_after_warm_up(self):
        tr = _trainer(4, ema_decay=0.9999)
        init = {k: v.copy() for k, v in tr.ema.items()}
        for _ in range(30):
            tr.train_step()

        def dist(a, b):
            return np.sqrt(sum(np.sum((a[k] - b[k]) ** 2, dtype=np.float64) for k in a))

        params = {k: p.data for k, p in tr.model.params.items()}
        assert dist(tr.ema, params) < dist(tr.ema, init)

    def test_step0_deterministic_across_reruns(self):
        a = _trainer(0).train_step()
        b = _trainer(0).train_step()
        assert a.total == b.total
        assert a.L_d == b.L_d and a.L_KL == b.L_KL and a.grad_norm == b.grad_norm

    def test_metrics_finite_and_counted(self):
        tr = _trainer(1)
        m = tr.train_step()
        assert np.isfinite([m.L_d, m.L_KL, m.total, m.grad_norm]).all()
        assert sum(m.psnr_counts.values()) == tr.cfg.batch_size
        assert tr.skipped == 0

    def test_noiseless_pool_reduces_to_clean_conditioning(self):
        tr = _trainer(2)
        for tag, cmap in enumerate(tr.maps[:2]):
            cond = tr._condition(cmap, 100.0, tag)
            assert np.isin(cond, (0.0, 1.0)).all()  # exact binary planes

    @pytest.mark.slow
    def test_loss_decreases_on_shapes(self):
        """Median first-vs-last loss trend over 5 seeds, 500 steps each."""
        gains = []
        for seed in range(5):
            tr = _trainer(seed, batch_size=2, learning_rate=3e-4)
            losses = [tr.train_step().L_d for _ in range(500)]
            gains.append(np.mean(losses[:50]) - np.mean(losses[-50:]))
        assert np.median(gains) > 0

    def test_non_finite_gradient_skips_the_step(self, monkeypatch):
        tr = _trainer(5)
        _poison_gradient(monkeypatch, tr, np.nan)
        params = {k: p.data.copy() for k, p in tr.model.params.items()}
        ema = {k: v.copy() for k, v in tr.ema.items()}
        m = tr.train_step()
        assert tr.skipped == 1 and tr.step_index == 1 and tr.opt.t == 0
        assert np.isnan(m.grad_norm)
        assert np.isfinite([m.L_d, m.L_KL, m.total]).all()
        for name, arr in params.items():
            assert np.array_equal(arr, tr.model.params[name].data), name
            assert np.array_equal(ema[name], tr.ema[name]), name

    def test_large_finite_gradient_is_clipped_and_applied(self, monkeypatch):
        tr = _trainer(5)
        _poison_gradient(monkeypatch, tr, 1e37)
        params = {k: p.data.copy() for k, p in tr.model.params.items()}
        m = tr.train_step()
        assert tr.skipped == 0 and tr.opt.t == 1
        assert np.isfinite(m.grad_norm) and m.grad_norm > 1e37
        first = next(iter(params))
        assert not np.array_equal(params[first], tr.model.params[first].data)
        assert all(np.isfinite(p.data).all() for p in tr.model.params.values())

    @pytest.mark.parametrize("poison", [None, np.nan], ids=["applied", "skipped"])
    def test_no_gradient_kept_between_steps(self, monkeypatch, poison):
        """Nothing reads .grad after the update, so a step frees every gradient."""
        tr = _trainer(6)
        if poison is not None:
            _poison_gradient(monkeypatch, tr, poison)
        tr.train_step()
        assert tr.skipped == (poison is not None)
        assert all(p.grad is None for p in tr.model.params.values())

    def test_training_keeps_fds_off(self):
        """The conditioning path never binarizes during training."""
        tr = _trainer(3)
        conds = [tr._condition(cmap, 1.0, tag) for tag, cmap in enumerate(tr.maps[:2])]
        # raw noisy planes are continuous, not {0,1}: FDS would have binarized
        assert any(np.unique(c).size > 2 for c in conds)


class TestCheckpointResume:
    def test_resume_reproduces_unbroken_run(self, tmp_path):
        a = _trainer(7)
        for _ in range(6):
            a.train_step()
        final_a = {k: v.data.copy() for k, v in a.model.params.items()}

        b = _trainer(7)
        for _ in range(3):
            b.train_step()
        path = tmp_path / "mid.ckpt"
        b.save(path)

        # a resumed run shares the resolved config; all state comes from the file
        c = _trainer(7)
        c.model.load_state({k: np.zeros_like(v.data) for k, v in c.model.params.items()})
        c.restore(path)
        assert c.step_index == 3 and c.opt.t == 3
        assert set(c.ema) == set(b.ema)
        for name, arr in b.ema.items():
            assert np.array_equal(arr, c.ema[name]), name
        for _ in range(3):
            c.train_step()
        for name, arr in final_a.items():
            assert np.array_equal(arr, c.model.params[name].data), name

    def test_resume_under_other_config_hash_rejected(self, tmp_path):
        a = _trainer(10, config_hash="a")
        a.train_step()
        a.save(tmp_path / "a.ckpt")
        b = _trainer(10, config_hash="b")
        before = {k: v.data.copy() for k, v in b.model.params.items()}
        with pytest.raises(TrainError, match="config hash"):
            b.restore(tmp_path / "a.ckpt")
        assert b.step_index == 0 and b.opt.t == 0
        for name, arr in before.items():
            assert np.array_equal(arr, b.model.params[name].data), name

    def test_resume_from_ema_rejected(self, tmp_path):
        """An EMA-only file (weights under the bare parameter names) is not a training state."""
        tr = _trainer(9)
        tr.train_step()
        path = tmp_path / "ema.ckpt"
        tr.save(path)
        save_checkpoint(path, tr.ema, tr.config_hash, load_checkpoint(path)[1]["extra"])
        params = {k: p.data.copy() for k, p in tr.model.params.items()}
        ema = {k: v.copy() for k, v in tr.ema.items()}
        with pytest.raises(TrainError, match="EMA"):
            tr.restore(path)
        assert tr.step_index == 1 and tr.opt.t == 1
        for name, arr in params.items():
            assert np.array_equal(arr, tr.model.params[name].data), name
            assert np.array_equal(ema[name], tr.ema[name]), name


    def test_restore_of_a_mis_shaped_array_leaves_the_weights(self, tmp_path):
        tr = _trainer(11)
        tr.train_step()
        path = tmp_path / "good.ckpt"
        tr.save(path)
        arrays, manifest = load_checkpoint(path)
        last = list(tr.model.params)[-1]
        arrays[last] = np.zeros(arrays[last].shape + (1,), np.float32)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, arrays, tr.config_hash, manifest["extra"])
        tr.train_step()  # the weights now differ from those in the file
        params = {k: p.data.copy() for k, p in tr.model.params.items()}
        with pytest.raises(TrainError, match=last):
            tr.restore(bad)
        for name, arr in params.items():
            assert np.array_equal(arr, tr.model.params[name].data), name

    def test_restore_of_mis_shaped_moments_and_ema_leaves_the_state(self, tmp_path):
        tr = _trainer(12)
        tr.train_step()
        path = tmp_path / "good.ckpt"
        tr.save(path)
        arrays, manifest = load_checkpoint(path)
        first = next(iter(tr.model.params))
        arrays[f"ema.{first}"] = np.zeros(1, np.float32)
        arrays[f"opt.m.{first}"] = np.zeros(1, np.float32)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, arrays, tr.config_hash, manifest["extra"])
        tr.train_step()  # the state now differs from that in the file
        params = {k: p.data.copy() for k, p in tr.model.params.items()}
        moments = {k: v.copy() for k, v in tr.opt.state_arrays().items()}
        ema = {k: v.copy() for k, v in tr.ema.items()}
        with pytest.raises(TrainError, match=f"{first}: shape"):
            tr.restore(bad)
        assert tr.step_index == 2 and tr.opt.t == 2
        for name, arr in params.items():
            assert np.array_equal(arr, tr.model.params[name].data), name
            assert np.array_equal(ema[name], tr.ema[name]), name
        after = tr.opt.state_arrays()
        assert set(after) == set(moments)
        for key, arr in moments.items():
            assert np.array_equal(arr, after[key]), key

    @pytest.mark.parametrize("change, missing_or_unknown", [
        (lambda arrays: [arrays.pop(f"opt.{k}.out.conv.w") for k in "mv"], "opt.m.out.conv.w"),
        (lambda arrays: arrays.update({"opt.m.no.such.param": np.zeros(3, np.float32)}), "no.such.param"),
    ], ids=["missing-moment", "unknown-entry"])
    def test_restore_of_other_entries_leaves_the_state(self, tmp_path, change, missing_or_unknown):
        """Every parameter has its moments, so a file must hold exactly the trainer's entries."""
        tr, good = _trained_checkpoint(tmp_path)
        arrays, manifest = load_checkpoint(good)
        change(arrays)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, arrays, tr.config_hash, manifest["extra"])
        tr.train_step()
        before = _training_state(tr)
        with pytest.raises(TrainError, match=missing_or_unknown):
            tr.restore(bad)
        _assert_same_state(before, _training_state(tr))

    @pytest.mark.parametrize("damage", [
        lambda extra: extra.pop("opt_t"),
        lambda extra: extra.pop("step"),
        lambda extra: extra.update(skipped="0"),
        lambda extra: extra.update(step=extra["step"] + 1),
        lambda extra: extra.pop("rng_state"),
        lambda extra: extra.update(rng_state={"bit_generator": "PCG64"}),
        lambda extra: extra.update(rng_state=dict(extra["rng_state"], bit_generator="MT19937")),
        lambda extra: extra["rng_state"].update(state=5),
        lambda extra: extra["rng_state"]["state"].update(state=-1),
        lambda extra: extra["rng_state"]["state"].update(inc=0.5),
    ], ids=["no-opt_t", "no-step", "skipped-str", "step-off", "no-rng", "rng-no-state",
            "rng-other-kind", "rng-state-int", "rng-negative", "rng-float"])
    def test_restore_with_damaged_extra_leaves_the_state(self, tmp_path, damage):
        tr, good = _trained_checkpoint(tmp_path)
        arrays, manifest = load_checkpoint(good)
        extra = manifest["extra"]
        damage(extra)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, arrays, tr.config_hash, extra)
        tr.train_step()
        before = _training_state(tr)
        with pytest.raises(TrainError, match="counters|RNG"):
            tr.restore(bad)
        _assert_same_state(before, _training_state(tr))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_damaged_files_are_refused_or_restored(self, fuzz_target, data):
        """Mutated checkpoint bytes, mostly in the header and the manifest:
        restore succeeds or raises CheckpointError or TrainError, and a raise
        leaves the whole training state as it was."""
        tr, raw, path = fuzz_target
        raw = bytearray(raw)
        manifest_end = 9 + int.from_bytes(raw[5:9], "little")
        extra_at = raw.index(b'"extra"')  # the counters and the RNG state
        regions = [(0, 9), (9, manifest_end), (extra_at, manifest_end), (extra_at, manifest_end),
                   (0, len(raw))]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            lo, hi = data.draw(st.sampled_from(regions), label="region")
            at = data.draw(st.integers(min(lo, len(raw)), min(hi, len(raw))), label="at")
            op = data.draw(st.sampled_from(["set", "set", "insert", "delete", "truncate"]), label="op")
            byte = data.draw(st.sampled_from(b'0129",:{}[]-.e') | st.integers(0, 255), label="byte")
            if op == "set" and at < len(raw):
                raw[at] = byte
            elif op == "insert":
                raw.insert(at, byte)
            elif op == "delete" and at < len(raw):
                del raw[at]
            elif op == "truncate":
                del raw[at:]
        path.write_bytes(raw)
        before = _training_state(tr)
        try:
            tr.restore(path)
        except (CheckpointError, TrainError):
            _assert_same_state(before, _training_state(tr))


def _trained_checkpoint(tmp_path, seed=13):
    """A trainer one step in, and the checkpoint it wrote then."""
    tr = _trainer(seed)
    tr.train_step()
    path = tmp_path / "good.ckpt"
    tr.save(path)
    return tr, path


def _buffered_checkpoint_bytes(arrays, config_hash, extra):
    """The bytes of the former save_checkpoint, which converted every entry before it wrote any."""
    entries, blobs = [], []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype("<f4").tobytes())
    manifest = {"format_version": 1, "config_hash": config_hash, "entries": entries, "extra": extra}
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return b"SCKP" + bytes([1]) + struct.pack("<I", len(payload)) + payload + b"".join(blobs)


def test_checkpoint_bytes_equal_the_buffered_writer(tmp_path):
    """Writing each entry as it is converted gives the bytes of converting them all first."""
    tr, path = _trained_checkpoint(tmp_path)
    extra = load_checkpoint(path)[1]["extra"]
    assert path.read_bytes() == _buffered_checkpoint_bytes(tr.state_arrays(), tr.config_hash, extra)
    rng = np.random.default_rng(3)
    odd = {"float64": rng.standard_normal((3, 4)),
           "big_endian": rng.standard_normal((2, 3)).astype(">f4"),
           "f_ordered": np.asfortranarray(rng.standard_normal((4, 3)).astype(np.float32)),
           "strided": rng.standard_normal((6, 5)).astype(np.float32)[::2, 1:],
           "scalar": np.float64(2.5),
           "empty": np.zeros((0, 3), np.float32),
           "ints": np.arange(5)}
    save_checkpoint(tmp_path / "odd.ckpt", odd, "h", {"k": [1, 2]})
    assert (tmp_path / "odd.ckpt").read_bytes() == _buffered_checkpoint_bytes(odd, "h", {"k": [1, 2]})


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    """One trainer, the bytes of its checkpoint and a path for damaged copies,
    shared by every fuzz example."""
    tr, good = _trained_checkpoint(tmp_path_factory.mktemp("fuzz"))
    return tr, good.read_bytes(), good.with_name("damaged.ckpt")


def _training_state(tr):
    """A copy of everything restore may assign."""
    sources = {"param": {k: p.data for k, p in tr.model.params.items()}, "ema": tr.ema,
               "m": tr.opt.m, "v": tr.opt.v}
    return {"arrays": {(kind, k): v.copy() for kind, named in sources.items() for k, v in named.items()},
            "counters": (tr.step_index, tr.skipped, tr.opt.t),
            "rng": repr(tr.rng.bit_generator.state)}


def _assert_same_state(before, after):
    assert before["counters"] == after["counters"]
    assert before["rng"] == after["rng"]
    assert before["arrays"].keys() == after["arrays"].keys()
    for name, arr in before["arrays"].items():  # bitwise, so NaN from damaged data compares equal
        other = after["arrays"][name]
        assert arr.shape == other.shape and arr.tobytes() == other.tobytes(), name


def _tiny_loss():
    """A TINY_MODEL and a function that builds one training loss of it at batch 2."""
    model = UNet(TINY_MODEL, seed=0)
    sched = build_schedule(20, 1e-3, 0.1)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1.0, 1.0, (2, 3, 16, 16)).astype(np.float32)
    y = rng.uniform(0.0, 1.0, (2, TINY_MODEL.cond_channels, 16, 16)).astype(np.float32)
    t = rng.integers(1, 21, size=2)
    eps = rng.standard_normal(x0.shape, dtype=np.float32)
    x_t = q_sample(x0, t, eps, sched)
    return model, lambda: total_loss(model.forward(x_t, y, t), x0, x_t, t, eps, sched)[0]


def _tiny_step_memory():
    """(graph, backward peak) in bytes of one TINY_MODEL training loss at batch 2."""
    return graph_and_backward_peak(_tiny_loss()[1])


def test_every_gradient_is_c_ordered():
    """clip_gradients' float64 sum and AdamW's moments run over each gradient
    in memory order, so a gradient in another layout (an F-ordered conv weight
    gradient, say) would change the bits of every training run."""
    model, loss = _tiny_loss()
    loss().backward()
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.flags.c_contiguous, name


def test_backward_peak_stays_near_the_forward_graph():
    """Backward frees the graph as it walks it, so its peak stays close to the graph's size."""
    graph, peak = _tiny_step_memory()
    assert peak <= 1.25 * graph, (peak, graph)


# Graph of _tiny_step_memory when every rule kept its parents' values alive.
ALL_VALUES_GRAPH_BYTES = 5.9e6


def test_forward_graph_keeps_only_what_backward_reads():
    """Outputs that no gradient rule reads (conv into add or group_norm, silu
    into add, ...) are freed during the forward. The attention logits are no
    separate array: each block of them becomes, in place, a block of the
    weights that attention's rule keeps."""
    graph, _ = _tiny_step_memory()
    assert graph <= 0.7 * ALL_VALUES_GRAPH_BYTES, graph


def test_metrics_writer_schema(tmp_path):
    from semcom.training import RunMetrics
    path = tmp_path / "metrics.csv"
    w = MetricsWriter(path)
    w.append(RunMetrics(1, 0.5, 0.25, 0.75, 1.25, 12.0))
    lines = path.read_text().splitlines()
    assert lines[0] == "# metrics.v1"
    assert lines[1] == "step,L_d,L_KL,total,grad_norm,wall_ms"
    assert lines[2].startswith("1,0.5,0.25,0.75,1.25,")


def test_clip_gradients_scales_to_max_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 3.0)
    norm = clip_gradients({"p": p})
    assert norm == pytest.approx(6.0)
    assert np.linalg.norm(p.grad) == pytest.approx(training.GRAD_CLIP)


# The desk U-Net of the benchmark's model workloads.
DESK_MODEL = ModelConfig(image_size=32, cond_channels=5, base_channels=32, channel_multipliers=(1, 2),
                         num_res_blocks=1, attention_resolutions=(16,), head_channels=32, spade_hidden=32)


def _desk_trainer(batch_size, seed=21, image_size=32):
    """A trainer of the desk U-Net's widths; at image_size 16 it attends at 8x8."""
    config = dataclasses.replace(DESK_MODEL, image_size=image_size, attention_resolutions=(image_size // 2,))
    model = UNet(config, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params.values():  # nonzero heads, so every parameter gets a gradient that matters
        p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
    pairs = generate_shapes(ShapesSpec(canvas=image_size, seed=seed), 16)
    return Trainer(model, build_schedule(200, 5e-4, 0.0974), TrainConfig(batch_size=batch_size, seed=seed), pairs)


def _replay_step(tr):
    """Trainer.train_step on the calling thread and the whole batch: the same
    draws and update around one total_loss of the model's output and its
    backward."""
    x0, y, t, eps, _ = tr._batch()
    x_t = q_sample(x0, t, eps, tr.sched)
    loss, comps = total_loss(tr.model.forward(x_t, y, t), x0, x_t, t, eps, tr.sched)
    loss.backward()
    norm = tr._apply_gradients()
    tr.model.zero_grad()
    tr.step_index += 1
    return comps, norm


def _recording_forwards(monkeypatch):
    """Record (on the main thread, batch) of every UNet.forward."""
    calls = []
    real = UNet.forward

    def forward(self, x_t, y, t):
        calls.append((threading.current_thread() is threading.main_thread(), len(x_t)))
        return real(self, x_t, y, t)
    monkeypatch.setattr(UNet, "forward", forward)
    return calls


class TestBatchHalves:
    """Trainer.train_step runs a batch of four or more as two halves, one per thread."""

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_steps_equal_a_whole_batch_replay_bitwise(self, monkeypatch, tmp_path, n):
        """Two steps, a save, a restore into a fresh trainer and one more
        step equal three single-thread whole-batch steps bit for bit. From
        batch 4 on, [0, n//2) runs on the calling thread and [n//2, n) on
        the worker; a smaller batch runs whole on the calling thread."""
        split, replay = _desk_trainer(n), _desk_trainer(n)
        forwards = _recording_forwards(monkeypatch)
        got = [split.train_step() for _ in range(2)]
        split.save(tmp_path / "step2.ckpt")
        split = _desk_trainer(n)
        split.restore(tmp_path / "step2.ckpt")
        got.append(split.train_step())
        monkeypatch.undo()
        parts = [(True, n // 2), (False, n - n // 2)] if n >= 4 else [(True, n)]
        assert sorted(forwards) == sorted(parts * 3)

        for m in got:
            comps, norm = _replay_step(replay)
            assert (m.L_d, m.L_KL, m.total, m.grad_norm) == (comps["L_d"], comps["L_KL"], comps["total"], norm)
            assert np.isfinite(norm)
        _assert_same_state(_training_state(replay), _training_state(split))

    @pytest.mark.parametrize("where", ["first forward", "second forward", "backward"])
    def test_a_half_that_raises_leaves_the_step_undone(self, monkeypatch, tmp_path, where):
        """A NonFiniteError in either half's forward, or in a gradient rule of
        the second half, reaches the caller after the worker has finished.
        Every forward and backward walk leaves its thread with grad on and no
        scope, no meeting place keeps operands, no parameter keeps a
        gradient, and the weights, moments and EMA are as before the step.
        The next step still runs its halves on two threads and equals a
        whole-batch replay."""
        tr = _desk_trainer(4)
        tr.train_step()
        before = _training_state(tr)
        splits, workers, states, armed = [], [], [], []
        real_split, real_forward = T.split_batch, UNet.forward
        real_group_norm, real_backward_from = T.group_norm, T.backward_from

        @contextlib.contextmanager
        def split_batch(n):
            with real_split(n) as split:
                splits.append(split)
                yield split

        def forward(self, x_t, y, t):
            main = threading.current_thread() is threading.main_thread()
            if not main:
                workers.append(threading.current_thread())
            try:
                if where == ("first forward" if main else "second forward"):
                    with T.scope("probe"):
                        T.add(Tensor(np.array([np.inf], np.float32)), 0.0)
                return real_forward(self, x_t, y, t)
            finally:  # the state this half leaves in its thread, raised or not
                states.append((T._state.grad_enabled, list(T._state.scope)))

        def group_norm(x, groups):
            # the second half's first group norm: its rule runs near the end
            # of that half's backward, when many parameters have a gradient
            out = real_group_norm(x, groups)
            if where == "backward" and not armed and threading.current_thread() is not threading.main_thread():
                armed.append(out)

                def rule(g):
                    raise T.NonFiniteError("non-finite gradient in probe")
                out._bwd = rule
            return out

        def backward_from(output, grad):
            try:
                return real_backward_from(output, grad)
            finally:
                states.append((T._state.grad_enabled, list(T._state.scope)))
        monkeypatch.setattr(T, "split_batch", split_batch)
        monkeypatch.setattr(UNet, "forward", forward)
        monkeypatch.setattr(T, "group_norm", group_norm)
        monkeypatch.setattr(T, "backward_from", backward_from)
        with pytest.raises(T.NonFiniteError, match="probe"):
            tr.train_step()
        monkeypatch.undo()

        assert len(workers) == 1 and not workers[0].is_alive()
        assert splits[-1].slots == {} and splits[-1].ready == []
        # two forwards, then the loss's backward and both halves' walks
        assert states == [(True, [])] * (5 if where == "backward" else 2)
        assert (T._state.grad_enabled, T._state.scope, T._state.half) == (True, [], None)
        assert all(p.grad is None for p in tr.model.params.values())
        after = _training_state(tr)
        _assert_same_state({**before, "rng": after["rng"]}, after)

        tr.save(tmp_path / "after.ckpt")
        replay = _desk_trainer(4)
        replay.restore(tmp_path / "after.ckpt")
        forwards = _recording_forwards(monkeypatch)
        m = tr.train_step()
        monkeypatch.undo()
        assert sorted(forwards) == [(False, 2), (True, 2)]
        comps, norm = _replay_step(replay)
        assert (m.L_d, m.L_KL, m.total, m.grad_norm) == (comps["L_d"], comps["L_KL"], comps["total"], norm)
        _assert_same_state(_training_state(replay), _training_state(tr))

    def test_every_meeting_of_a_step_is_at_a_parameter(self, monkeypatch):
        """A desk batch-4 step meets 75 times per half, once for each conv2d
        and matmul of a half's forward: no other rule sums over the batch."""
        tr = _desk_trainer(4)
        meetings, ops = {0: 0, 1: 0}, {0: 0, 1: 0}
        real_meet, real_conv2d, real_matmul = T.BatchSplit.meet, T.conv2d, T.matmul

        def meet(self, key, k, operands, accumulate):
            meetings[k] += 1
            return real_meet(self, key, k, operands, accumulate)

        def counted(op):
            def call(*args, **kwargs):
                ops[int(threading.current_thread() is not threading.main_thread())] += 1
                return op(*args, **kwargs)
            return call
        monkeypatch.setattr(T.BatchSplit, "meet", meet)
        monkeypatch.setattr(T, "conv2d", counted(real_conv2d))
        monkeypatch.setattr(T, "matmul", counted(real_matmul))
        tr.train_step()
        assert meetings == ops == {0: 75, 1: 75}

    def test_steps_equal_a_replay_while_threads_switch_every_microsecond(self):
        """The halves share the meeting place's slots, ready list and busy
        flag under one lock; with the interpreter switching threads every
        microsecond, a lost or doubled update of them would lose or double a
        parameter's gradient and show in the weights."""
        split, replay = _desk_trainer(4, image_size=16), _desk_trainer(4, image_size=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [split.train_step() for _ in range(2)]
        finally:
            sys.setswitchinterval(interval)
        for m in got:
            comps, norm = _replay_step(replay)
            assert (m.L_d, m.L_KL, m.total, m.grad_norm) == (comps["L_d"], comps["L_KL"], comps["total"], norm)
        _assert_same_state(_training_state(replay), _training_state(split))

    def test_peak_stays_near_a_whole_batch_replay(self):
        """The halves' graphs together hold the whole batch's, and each
        gradient that contracts over the batch runs once on the whole batch,
        so a batch-4 step in two threads peaks at most 10% above a
        single-thread whole-batch step of the same state."""
        split, replay = _desk_trainer(4), _desk_trainer(4)
        split.train_step()
        _replay_step(replay)
        two_threads = step_peak(split.train_step)
        one_thread = step_peak(lambda: _replay_step(replay))
        assert two_threads <= 1.10 * one_thread, (two_threads, one_thread)
