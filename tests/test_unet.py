import json

import numpy as np
import pytest

from semcom import tensor as T
from semcom.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semcom.diffusion import build_schedule, total_loss
from semcom.tensor import Tensor
from semcom.unet import (
    AttentionBlock,
    Film,
    ModelConfig,
    ModelConfigError,
    ParamStore,
    ResBlock,
    Spade,
    TimeEmbed,
    GROUPS,
    IMAGE_CHANNELS,
    UNet,
    sinusoid_embedding,
)

TOY = ModelConfig(image_size=16, cond_channels=4, base_channels=16,
                  channel_multipliers=(1, 2), num_res_blocks=1,
                  attention_resolutions=(8,), head_channels=8, spade_hidden=16)


def _store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def _randomize(model, seed, scale=0.05, dtype=np.float32):
    """Fill every parameter (including zero-initialized heads) with noise."""
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.data = rng.normal(0, scale, p.shape).astype(dtype)


class TestModelConfig:
    def test_attention_must_hit_realized_resolution(self):
        with pytest.raises(ModelConfigError, match="attention"):
            ModelConfig(image_size=16, channel_multipliers=(1, 2), attention_resolutions=(4,),
                        base_channels=16, head_channels=8)

    def test_head_channels_must_divide(self):
        with pytest.raises(ModelConfigError, match="head_channels"):
            ModelConfig(image_size=16, base_channels=24, channel_multipliers=(1,),
                        attention_resolutions=(16,), head_channels=16)

    def test_image_size_power_of_two(self):
        with pytest.raises(ModelConfigError, match="power of two"):
            ModelConfig(image_size=20)

    @pytest.mark.parametrize("settings, field", [
        ({"image_size": 4}, "image_size"),
        ({"cond_channels": 0}, "cond_channels"),
        ({"base_channels": 0}, "base_channels"),
        ({"spade_hidden": 0}, "spade_hidden"),
        ({"head_channels": 0}, "head_channels"),
        ({"channel_multipliers": ()}, "multiplier"),
        ({"channel_multipliers": (1, 0, 2)}, "multipliers"),
        ({"num_res_blocks": -1}, "num_res_blocks"),
    ])
    def test_sizes_below_minimum_refused(self, settings, field):
        with pytest.raises(ModelConfigError, match=field):
            ModelConfig(**settings)

    @pytest.mark.parametrize("base", [1, 3])
    def test_odd_base_channels_refused(self, base):
        """The sinusoid time embedding has base_channels entries, half sines and
        half cosines; an odd width built a UNet that failed at its first forward."""
        with pytest.raises(ModelConfigError, match="base_channels must be even"):
            ModelConfig(image_size=8, base_channels=base, channel_multipliers=(8,),
                        attention_resolutions=(), head_channels=8)


class TestTimeEmbed:
    def test_deterministic(self):
        te = TimeEmbed(_store(), 16, 32)
        a = te(np.array([3, 7])).data
        b = te(np.array([3, 7])).data
        assert np.array_equal(a, b)

    def test_t0_base_vector(self):
        base = sinusoid_embedding(0, 16)[0]
        assert np.allclose(base[:8], 0.0)
        assert np.allclose(base[8:], 1.0)

    def test_no_collisions_up_to_200(self):
        te = TimeEmbed(_store(1), 16, 32)
        emb = te(np.arange(201)).data
        # exhaustive pairwise distinctness
        d = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
        d[np.diag_indices(201)] = np.inf
        assert d.min() > 1e-6

    def test_out_of_range_rejected(self):
        te = TimeEmbed(_store(), 16, 32)
        with pytest.raises(ValueError, match="range"):
            te(np.array([-1]))


class TestEncoderBlock:
    def test_identity_modulation_at_init(self):
        """Zero-init FiLM dense gives w(t)=1, b(t)=0: plain residual conv block."""
        store = _store(2)
        blk = ResBlock(store, "b", 8, 8, 16, TOY, conditioned=False, attention=False)
        temb = Tensor(np.random.default_rng(3).normal(size=(2, 16)).astype(np.float32))
        x = Tensor(np.random.default_rng(4).normal(size=(2, 8, 6, 6)).astype(np.float32))
        out = blk(x, temb)

        # manual unmodulated forward with the same params
        h = T.conv2d(x, blk.conv1_w, blk.conv1_b)
        h = T.group_norm(h, GROUPS)
        h = T.silu(h)
        h = T.conv2d(h, blk.conv2_w, blk.conv2_b)
        h = T.group_norm(h, GROUPS)
        h = T.silu(h)
        expect = T.add(h, x)
        assert np.allclose(out.data, expect.data, atol=1e-6)

    def test_zero_input_zero_biases_gives_zero(self):
        store = _store(5)
        blk = ResBlock(store, "b", 8, 8, 16, TOY, conditioned=False, attention=False)
        temb = Tensor(np.zeros((1, 16), np.float32))
        out = blk(Tensor(np.zeros((1, 8, 4, 4), np.float32)), temb)
        assert np.all(out.data == 0.0)

    def test_gradient_flows_to_time_embedding(self):
        store = _store(6)
        blk = ResBlock(store, "b", 8, 8, 8, TOY, conditioned=False, attention=False)
        # zero-initialized conv2/film would block the time path at init
        rng = np.random.default_rng(7)
        for p in (blk.film.w, blk.conv2_w):
            p.data = rng.normal(0, 0.2, p.shape).astype(np.float64)
        for p in (blk.conv1_w, blk.conv1_b, blk.conv2_b, blk.film.b):
            p.data = p.data.astype(np.float64)
        temb = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)))
        T.sum_(T.square(blk(x, temb))).backward()
        assert temb.grad is not None and np.abs(temb.grad).max() > 0

        # finite-difference probe on one embedding element
        def loss_at(eps):
            t2 = Tensor(temb.data.copy())
            t2.data[0, 0] += eps
            return T.sum_(T.square(blk(x, t2))).item()
        fd = (loss_at(1e-5) - loss_at(-1e-5)) / 2e-5
        assert fd == pytest.approx(float(temb.grad[0, 0]), rel=1e-4, abs=1e-8)


class TestAttention:
    def _block(self, channels=16, seed=10):
        store = _store(seed)
        cfg = ModelConfig(image_size=8, base_channels=channels, channel_multipliers=(1,),
                          attention_resolutions=(8,), head_channels=8, cond_channels=4,
                          spade_hidden=8)
        return AttentionBlock(store, "attn", channels, cfg)

    def test_zero_value_projection_is_identity(self):
        blk = self._block()
        x = Tensor(np.random.default_rng(11).normal(size=(2, 16, 8, 8)).astype(np.float32))
        out = blk(x)
        assert np.array_equal(out.data, x.data)  # w_v zero-init

    def test_self_similarity_is_one_when_f_equals_g(self):
        blk = self._block(seed=12)
        blk.wg.data = blk.wf.data.copy()
        x = Tensor(np.random.default_rng(13).normal(size=(1, 16, 4, 4)).astype(np.float32))
        f, g = blk._projections(x)
        m = np.swapaxes(f.data, -1, -2) @ g.data  # the logits T.attention takes the softmax of
        diag = m[:, :, np.arange(16), np.arange(16)]
        assert np.allclose(diag, 1.0, atol=1e-4)
        assert m.max() <= 1.0 + 1e-5 and m.min() >= -1.0 - 1e-5  # cosine range

    def test_single_site_softmax_degenerates(self):
        """1x1 spatial input: softmax over one site is 1, y = x + w_v h(x)."""
        blk = self._block(seed=14)
        rng = np.random.default_rng(15)
        blk.wv.data = rng.normal(0, 0.2, blk.wv.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(1, 16, 1, 1)).astype(np.float32))
        out = blk(x)
        h = T.conv2d(x, blk.wh, blk.bh)
        expect = T.add(x, T.conv2d(h, blk.wv, blk.bv))
        assert np.allclose(out.data, expect.data, atol=1e-6)


class TestSpade:
    def _spade(self, seed=16):
        store = _store(seed)
        return Spade(store, "sp", 8, 4, 8)

    def test_zero_init_heads_give_plain_group_norm(self):
        sp = self._spade()
        x = Tensor(np.random.default_rng(17).normal(size=(2, 8, 4, 4)).astype(np.float32))
        y = Tensor(np.zeros((2, 4, 4, 4), np.float32))  # null label
        out = sp(x, sp.modulation(y))
        assert np.allclose(out.data, T.group_norm(x, GROUPS).data, atol=1e-7)

    def test_identity_modulation_equals_group_norm(self):
        sp = self._spade(seed=18)
        rng = np.random.default_rng(19)
        sp.shared_w.data = rng.normal(0, 0.3, sp.shared_w.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        y = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
        # gamma/beta heads still zero-initialized: effective gamma 1, beta 0
        assert np.allclose(sp(x, sp.modulation(y)).data, T.group_norm(x, GROUPS).data, atol=1e-7)

    def test_different_conditioning_changes_output(self):
        sp = self._spade(seed=20)
        rng = np.random.default_rng(21)
        sp.shared_w.data = rng.normal(0, 0.3, sp.shared_w.shape).astype(np.float32)
        sp.gamma_w.data = rng.normal(0, 0.3, sp.gamma_w.shape).astype(np.float32)
        sp.beta_w.data = rng.normal(0, 0.3, sp.beta_w.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        y1 = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
        y2 = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
        assert not np.allclose(sp(x, sp.modulation(y1)).data, sp(x, sp.modulation(y2)).data)

    def test_resolution_mismatch_rejected(self):
        sp = self._spade(seed=22)
        with pytest.raises(ValueError, match="resolution"):
            sp(Tensor(np.zeros((1, 8, 4, 4), np.float32)),
               sp.modulation(Tensor(np.zeros((1, 4, 8, 8), np.float32))))


class TestUNet:
    def _inputs(self, n=2, cfg=TOY, seed=23):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, IMAGE_CHANNELS, cfg.image_size, cfg.image_size)).astype(np.float32)
        y = (rng.uniform(size=(n, cfg.cond_channels, cfg.image_size, cfg.image_size)) < 0.3).astype(np.float32)
        t = rng.integers(1, 100, size=n)
        return x, y, t

    def test_output_shapes_match_input(self):
        model = UNet(TOY, seed=0)
        x, y, t = self._inputs()
        with T.no_grad():
            eps, var = model.forward(x, y, t)
        assert eps.shape == x.shape and var.shape == x.shape

    def test_zero_init_heads_give_zero_outputs(self):
        model = UNet(TOY, seed=1)
        x, y, t = self._inputs()
        with T.no_grad():
            eps, var = model.forward(x, y, t)
        assert np.all(eps.data == 0.0) and np.all(var.data == 0.0)

    def test_forward_deterministic_bitwise(self):
        model = UNet(TOY, seed=2)
        x, y, t = self._inputs()
        with T.no_grad():
            a = model.forward(x, y, t)[0].data
            b = model.forward(x, y, t)[0].data
        assert np.array_equal(a, b)

    def test_param_count_stable(self):
        a = UNet(TOY, seed=3)
        b = UNet(TOY, seed=4)
        assert list(a.params) == list(b.params)
        assert [p.shape for p in a.params.values()] == [p.shape for p in b.params.values()]
        # frozen value catches silent architecture drift
        assert sum(p.size for p in a.params.values()) == 250262

    def test_gradient_reaches_spade_heads(self):
        model = UNet(TOY, seed=5)
        _randomize(model, seed=50, dtype=np.float64)  # zero heads block gradients at init
        x, y, t = self._inputs(n=1)
        model.zero_grad()
        eps, _ = model.forward(x.astype(np.float64), y, t)
        loss = T.mean(T.square(T.sub(eps, Tensor(np.ones_like(eps.data)))))
        loss.backward()
        name = "dec.l0.b0.spade1.gamma.w"
        g = model.params[name].grad
        assert g is not None and np.abs(g).max() > 0

        # finite-difference probe on one gamma-head weight
        w = model.params[name]
        idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)

        def loss_at(eps_bump):
            w.data[idx] += eps_bump
            try:
                with T.no_grad():
                    e, _ = model.forward(x.astype(np.float64), y, t)
                    return float(np.mean((e.data - 1.0) ** 2))
            finally:
                w.data[idx] -= eps_bump
        fd = (loss_at(1e-5) - loss_at(-1e-5)) / 2e-5
        assert fd == pytest.approx(float(g[idx]), rel=1e-4, abs=1e-9)

    def test_conditioning_changes_output_after_training_params(self):
        model = UNet(TOY, seed=6)
        _randomize(model, seed=60)
        x, y, t = self._inputs(n=1)
        y2 = np.roll(y, 3, axis=2)
        with T.no_grad():
            a = model.forward(x, y, t)[0].data
            b = model.forward(x, y2, t)[0].data
        assert not np.allclose(a, b)

    def test_bad_input_shapes_rejected(self):
        model = UNet(TOY, seed=8)
        x, y, t = self._inputs()
        with pytest.raises(ValueError, match="conditioning"):
            model.forward(x, y[:, :2], t)
        with pytest.raises(ValueError, match="input shape"):
            model.forward(x[:, :1], y, t)
        with pytest.raises(ValueError, match="input shape"):
            model.forward(x[..., :TOY.image_size // 2], y, t)  # width checked too
        with pytest.raises(ValueError, match="conditioning"):
            model.forward(x, y[:1].repeat(3, axis=0), t)  # neither batch 1 nor N

    def test_batch1_stack_decodes_like_repeated_stack(self):
        model = UNet(TOY, seed=12)
        _randomize(model, seed=120)
        x, y, t = self._inputs(n=3)
        with T.no_grad():
            features = model.encode(x, t)
            one = model.decode(features, model.condition(y[:1]))
            full = model.decode(features, model.condition(np.repeat(y[:1], 3, axis=0)))
        for a, b in zip(one, full):
            assert np.array_equal(a.data, b.data)

    def test_nan_input_aborts_with_layer_name(self):
        model = UNet(TOY, seed=9)
        x, y, t = self._inputs()
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(T.NonFiniteError, match="enc.in"):
            model.forward(x, y, t)

    @pytest.mark.parametrize("param, where", [
        ("enc.l0.b0.conv1.w", r"enc\.l0\.b0"),
        ("enc.l0.down.w", r"enc\.l0\.down"),
    ])
    def test_nan_weight_aborts_with_encoder_block_name(self, param, where):
        model = UNet(TOY, seed=9)
        model.params[param].data[0, 0, 0, 0] = np.nan
        x, y, t = self._inputs()
        with pytest.raises(T.NonFiniteError, match=where):
            model.forward(x, y, t)

    def test_nan_stack_aborts_with_decoder_block_name(self):
        model = UNet(TOY, seed=9)
        x, y, t = self._inputs()
        y[0, 0, 0, 0] = np.nan
        with pytest.raises(T.NonFiniteError, match=r"dec\.l\d\.b\d\.cond"):
            model.forward(x, y, t)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_depths_other_than_one(self, depth):
        """Skip bookkeeping with no encoder blocks per level, and with two."""
        cfg = ModelConfig(image_size=8, cond_channels=4, base_channels=16,
                          channel_multipliers=(1, 2), num_res_blocks=depth,
                          attention_resolutions=(8, 4), head_channels=8, spade_hidden=8)
        model = UNet(cfg, seed=14)
        _randomize(model, seed=140)
        x, y, t = self._inputs(cfg=cfg)
        with T.no_grad():
            whole = model.forward(x, y, t)
            parts = model.decode(model.encode(x, t), model.condition(y))
        for a, b in zip(whole, parts):
            assert np.array_equal(a.data, b.data)

        eps = np.random.default_rng(141).normal(size=x.shape).astype(np.float32)
        loss, _ = total_loss(model, x, y, t, eps, build_schedule(100, 1e-4, 0.02))
        model.zero_grad()
        loss.backward()
        for name, p in model.params.items():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name

    def test_rejected_load_state_leaves_every_parameter_unchanged(self):
        model = UNet(TOY, seed=13)
        before = {k: p.data.copy() for k, p in model.params.items()}
        arrays = {k: np.full(p.shape, 0.5, np.float32) for k, p in model.params.items()}
        last = list(arrays)[-1]
        arrays[last] = np.zeros(arrays[last].shape + (1,), np.float32)
        with pytest.raises(ModelConfigError, match=last):
            model.load_state(arrays)
        for name, arr in before.items():
            assert np.array_equal(arr, model.params[name].data), name


class TestCheckpoint:
    def test_round_trip_preserves_forward_bitwise(self, tmp_path):
        model = UNet(TOY, seed=10)
        rng = np.random.default_rng(11)
        for p in model.params.values():  # make weights nontrivial
            p.data = rng.normal(0, 0.05, p.shape).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.state(), config_hash="abc123", extra={"step": 5})
        arrays, manifest = load_checkpoint(path)
        assert manifest["config_hash"] == "abc123"
        assert manifest["extra"]["step"] == 5

        clone = UNet(TOY, seed=99)
        clone.load_state(arrays)
        x, y, t = TestUNet()._inputs()
        with T.no_grad():
            a = model.forward(x, y, t)[0].data
            b = clone.forward(x, y, t)[0].data
        assert np.array_equal(a, b)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_damaged_header_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, UNet(TOY, seed=1).state(), config_hash="abc123", extra={"step": 5})
        blob = path.read_bytes()
        header = 9 + int.from_bytes(blob[5:9], "little")
        bad = tmp_path / "bad.ckpt"
        for cut in range(header + 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)
        manifests = [b"\xff\xfe", b"{not json", b"[1, 2]", b'{"config_hash": "a", "extra": {}}',
                     b'{"config_hash": "a", "extra": {}, "entries": [{"name": "w"}]}',
                     b'{"config_hash": "a", "extra": {}, "entries": [{"name": "w", "shape": [-1]}]}',
                     b'{"config_hash": "a", "extra": [], "entries": []}']
        # zero-size entries need no data, so these reach the shape and the name checks
        manifests += [json.dumps({"config_hash": "a", "extra": {}, "entries": entries}).encode()
                      for entries in ([{"name": "w", "shape": [0, 2**70]}],
                                      [{"name": "w", "shape": [0] * 65}], [{"name": "w", "shape": [0]}] * 2)]
        for manifest in manifests:
            bad.write_bytes(blob[:5] + len(manifest).to_bytes(4, "little") + manifest)
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)

    def test_huge_entry_shapes_raise_checkpoint_error(self, tmp_path):
        """A shape whose element count overflows int64 or wraps to 0 is refused
        for not matching the data in the file, before any of it is read."""
        bad = tmp_path / "bad.ckpt"
        for shape in ([2**70], [2**40, 2**40], [2**62, 4], [1000]):
            manifest = json.dumps({"config_hash": "a", "extra": {},
                                   "entries": [{"name": "w", "shape": shape}]}).encode()
            bad.write_bytes(b"SCKP\x01" + len(manifest).to_bytes(4, "little") + manifest + b"\0" * 64)
            with pytest.raises(CheckpointError, match="data bytes"):
                load_checkpoint(bad)
