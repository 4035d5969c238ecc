import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from semcom import tensor as T
from semcom.tensor import NonFiniteError, Tensor, TensorError

from gradcases import build_cases


def _pool_oracle(x, kind, kernel):
    """Window enumeration with edge-replicate padding, stride 1."""
    h, w = x.shape
    p = (kernel - 1) // 2
    xp = np.pad(x, p, mode="edge")
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            win = xp[i:i + kernel, j:j + kernel]
            out[i, j] = win.mean() if kind == "avg" else win.max()
    return out


def _window_pool(x, kind, kernel, stride, pad):
    """A copy of every window, then mean or max: the former pool2d forward,
    which also took a stride and "valid" (no) padding."""
    p = (kernel - 1) // 2 if pad == "same" else 0
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge") if p else x
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(win.shape[:4] + (kernel * kernel,))
    return flat.mean(axis=-1, dtype=x.dtype) if kind == "avg" else flat.max(axis=-1)


class TestConv2d:
    def test_1x1_kernel_scales(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        b = Tensor(np.zeros(1))
        out = T.conv2d(x, w, b)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        b = Tensor(np.zeros(4))
        out = T.conv2d(x, w, b)
        assert np.all(out.data == 0.0)

    def test_averaging_kernel_center_is_neighborhood_mean(self):
        ramp = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = Tensor(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = T.conv2d(Tensor(ramp), w, None)
        # direct-summation oracle for the (1,1) center position
        expect = ramp[0, 0, 0:3, 0:3].sum() / 9.0
        assert out.data[0, 0, 1, 1] == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 5, 3, 3)))
        with pytest.raises(TensorError, match=r"\(1, 3, 4, 4\).*\(2, 5, 3, 3\)"):
            T.conv2d(x, w)

    def test_even_kernel_same_pad_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(TensorError, match="odd"):
            T.conv2d(x, w)

    def test_stride2_output_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        out = T.conv2d(x, w, stride=2)
        assert out.shape == (2, 5, 4, 4)


class TestGroupNorm:
    def test_constant_input_gives_zeros(self):
        out = T.group_norm(Tensor(np.full((2, 4, 3, 3), 5.0)), groups=2)
        assert np.allclose(out.data, 0.0)

    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        x = (x - x.mean(axis=(2, 3), keepdims=True)) / x.std(axis=(2, 3), keepdims=True)
        out = T.group_norm(Tensor(x), groups=2, eps=1e-12)
        assert np.max(np.abs(out.data - x)) < 1e-6

    def test_hand_computed_two_groups(self):
        x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 2, 1, 2))
        eps = 1e-5
        out = T.group_norm(x, groups=2, eps=eps)
        scale = 1.0 / np.sqrt(1.0 + eps)  # per-group variance is exactly 1
        expect = np.array([-scale, scale, -scale, scale]).reshape(1, 2, 1, 2)
        assert np.allclose(out.data, expect, atol=1e-7)

    def test_indivisible_groups_rejected(self):
        with pytest.raises(TensorError, match="divisible"):
            T.group_norm(Tensor(np.zeros((1, 3, 2, 2))), groups=2)

    def test_moment_invariant(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 8, 5, 5)))
        out = T.group_norm(x, groups=4).data.reshape(3, 4, -1)
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-6
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4


class TestPool2d:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 1, 5, 5), 3.25))
        for kind in ("avg", "max"):
            out = T.pool2d(x, kind, 3)
            assert np.array_equal(out.data, x.data)

    def test_avg_spike_spread_matches_enumeration(self):
        plane = np.zeros((5, 5))
        plane[2, 2] = 1.0
        out = T.pool2d(Tensor(plane.reshape(1, 1, 5, 5)), "avg", 3)
        oracle = _pool_oracle(plane, "avg", 3)
        assert np.allclose(out.data[0, 0], oracle)
        assert np.sum(np.abs(out.data[0, 0] - 1.0 / 9.0) < 1e-12) == 9

    def test_max_of_avg_plateau_matches_enumeration(self):
        plane = np.zeros((5, 5))
        plane[2, 2] = 1.0
        avg = _pool_oracle(plane, "avg", 3)
        out = T.pool2d(Tensor(avg.reshape(1, 1, 5, 5)), "max", 3)
        oracle = _pool_oracle(avg, "max", 3)
        assert np.allclose(out.data[0, 0], oracle)
        assert np.allclose(out.data[0, 0], 1.0 / 9.0)  # plateau spans the 5x5 grid

    def test_avg_commutes_with_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 6))
        a = T.pool2d(Tensor(3.7 * x), "avg", 3).data
        b = 3.7 * T.pool2d(Tensor(x), "avg", 3).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_max_ties_give_the_tied_value(self):
        x = Tensor(np.array([[1.0, 1.0]]).reshape(1, 1, 1, 2))
        assert np.array_equal(T.pool2d(x, "max", 1).data, x.data)
        assert np.array_equal(T.pool2d(x, "max", 3).data, x.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("pad", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["avg", "max"])
    def test_bitwise_equal_to_window_formula(self, kind, kernel, stride, pad, dtype):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.normal(size=(2, 3, 11, 9)) * 10.0 ** rng.uniform(-6, 6, size=(2, 3, 11, 9))
        x = x.astype(dtype)
        out = T.pool2d(Tensor(x), kind, kernel).data
        # pool2d is same-padded at stride 1: a "valid" window is one that does
        # not reach the padding, and a stride keeps every stride-th window
        crop = (kernel - 1) // 2 if pad == "valid" else 0
        out = out[:, :, crop:out.shape[2] - crop:stride, crop:out.shape[3] - crop:stride]
        expect = _window_pool(x, kind, kernel, stride, pad)
        assert out.dtype == expect.dtype
        assert np.array_equal(out, expect)

    def test_avg_over_more_than_128_values_bitwise(self):
        # 13 x 13 = 169 values: numpy splits pairwise sums above 128 terms
        x = np.random.default_rng(8).normal(size=(1, 2, 20, 17)) * 1e3
        out = T.pool2d(Tensor(x), "avg", 13).data
        assert np.array_equal(out, _window_pool(x, "avg", 13, 1, "same"))

    def test_even_or_nonpositive_kernel_rejected(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        with pytest.raises(TensorError, match="odd"):
            T.pool2d(x, "avg", 2)
        with pytest.raises(TensorError, match=">= 1"):
            T.pool2d(x, "max", -1)

    def test_tracked_input_rejected(self):
        x = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        with pytest.raises(TensorError, match="no backward"):
            T.pool2d(x, "avg", 3)
        with T.no_grad():
            out = T.pool2d(x, "avg", 3)
        assert np.array_equal(out.data, x.data)


class TestActivations:
    def test_silu_zero(self):
        assert T.silu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]

    def test_silu_one(self):
        out = T.silu(Tensor(np.array([1.0])))
        assert out.data[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-7)
        assert out.data[0] == pytest.approx(0.7311, abs=1e-4)

    def test_softmax_equal_logits(self):
        out = T.softmax(Tensor(np.zeros((2, 4))), axis=-1)
        assert np.allclose(out.data, 0.25)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = T.softmax(Tensor(rng.normal(size=(3, 7))), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_bad_axis(self):
        with pytest.raises(TensorError, match="axis"):
            T.softmax(Tensor(np.zeros((2, 2))), axis=5)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 4, 2)), requires_grad=True)
        T.sum_(x).backward()
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_half_sum_square_gradient_is_x(self):
        x = Tensor(np.random.default_rng(6).normal(size=(4, 4)), requires_grad=True)
        T.mul(T.sum_(T.square(x)), 0.5).backward()
        assert np.allclose(x.grad, x.data, atol=1e-7)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(TensorError, match="scalar"):
            T.mul(x, 2.0).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.sum_(x)
        loss.backward()
        loss.backward()
        assert np.allclose(x.grad, 2.0)

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = T.mul(x, 2.0)
        assert out._parents == ()


class TestInvariants:
    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)

        def run():
            h = T.conv2d(Tensor(x), Tensor(w))
            h = T.group_norm(h, groups=2)
            h = T.silu(h)
            return T.pool2d(h, "avg", 3).data
        assert np.array_equal(run(), run())

    def test_nonfinite_forward_raises_with_scope(self):
        x = Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError, match="enc/block0"):
            with T.scope("enc"), T.scope("block0"):
                T.mul(x, 1.0)

    def test_grad_dtype_follows_input(self):
        x = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        T.sum_(T.square(x)).backward()
        assert x.grad.dtype == np.float64
        y = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        T.sum_(T.square(y)).backward()
        assert y.grad.dtype == np.float32

    def test_mismatched_binary_shapes_rejected(self):
        with pytest.raises(TensorError, match="same-shape"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_size1_operand_of_higher_rank_rejected(self):
        with pytest.raises(TensorError, match="more dimensions"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 1, 1))))
        with pytest.raises(TensorError, match="more dimensions"):
            T.mul(Tensor(np.ones((1, 1))), Tensor(np.zeros(3)))


def test_gradcheck_smoke_every_op():
    """One randomized case per op; the full 50-case sweep runs in acceptance."""
    rng = np.random.default_rng(123)
    for name, fn, inputs in build_cases(rng):
        err = T.gradcheck(fn, [Tensor(np.asarray(i)) for i in inputs])
        assert err < 1e-4, f"{name}: worst rel err {err}"
