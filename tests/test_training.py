import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import training
from semcom.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semcom.data import ShapesSpec, generate_shapes
from semcom.diffusion import build_schedule, total_loss
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

from memtrace import graph_and_backward_peak

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
    real = training.total_loss

    class PoisonedLoss:
        def __init__(self, loss):
            self.loss = loss

        def backward(self):
            self.loss.backward()
            param.grad = np.full_like(param.grad, value)

    def total_loss(*args, **kwargs):
        loss, comps = real(*args, **kwargs)
        return PoisonedLoss(loss), comps
    monkeypatch.setattr(training, "total_loss", total_loss)


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
        ("seed", -1), ("seed", 2**64),
        ("ema_decay", 1.0),
        ("batch_size", 0),
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
        save_checkpoint(path, tr.ema, tr.config_hash, {"step": tr.step_index})
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
    return model, lambda: total_loss(model, x0, y, t, eps, sched)[0]


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
