import contextlib
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from semcom import tensor as T
from semcom.tensor import NonFiniteError, Tensor, TensorError

from gradcases import build_cases, gradcheck, run_suite


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


def _conv2d_whole_batch(x, w, b, stride):
    """The former conv2d forward: one [F, C*k*k] @ [C*k*k, N*Ho*Wo] GEMM over
    the whole batch, then the transpose to NCHW."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    p = (k - 1) // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xcn = np.zeros((c, n, h + 2 * p, wd + 2 * p), x.dtype)
    xcn[:, :, p:p + h, p:p + wd] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, ho, wo), x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xcn[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    out = w.reshape(f, c * k * k) @ cols.reshape(c * k * k, n * ho * wo)
    out += b[:, None]
    return np.ascontiguousarray(out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3))


def _conv2d_backward_reference(x, w, g, stride):
    """The former conv2d backward: (x, w, b) gradients of an output gradient g
    from whole-batch GEMMs, gt @ cols.T for the weights, and a col2im that adds
    each tap's gradient through a strided slice of the padded input."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    p = (k - 1) // 2
    ho, wo = g.shape[2:]
    xcn = np.zeros((c, n, h + 2 * p, wd + 2 * p), x.dtype)
    xcn[:, :, p:p + h, p:p + wd] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, ho, wo), x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xcn[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
    gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, n * ho * wo)
    gb = gt.sum(axis=1, dtype=g.dtype)
    gw = (gt @ cols.reshape(c * k * k, n * ho * wo).T).reshape(w.shape)
    gcols = w.reshape(f, c * k * k).T @ gt
    if k == 1 and stride == 1:
        return gcols.reshape(c, n, ho, wo).transpose(1, 0, 2, 3), gw, gb
    gcols = gcols.reshape(c, k, k, n, ho, wo)
    gx = np.zeros((c, n, h + 2 * p, wd + 2 * p), g.dtype)
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += gcols[:, i, j]
    return gx[:, :, p:p + h, p:p + wd].transpose(1, 0, 2, 3), gw, gb


class TestConv2dBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(32, 32), (7, 8)])
    @pytest.mark.parametrize("c", [3, 32, 128])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_equals_strided_scatter_bitwise(self, k, stride, n, c, size, dtype):
        """col2im on the padded grid adds each input element's addends in the
        same order, plus exact zeros; the weight GEMM is taken transposed.
        Neither moves a bit on these shapes. This rests on the BLAS summing
        every GEMM column in one order: OpenBLAS 0.3.31's float64 kernel sums
        the columns of a last partial tile in another, so for map sizes where
        a real column falls there the float64 gradients may differ in the
        last bit."""
        rng = np.random.default_rng(100 * k + 10 * stride + c + n)
        h, wd = size
        x = rng.standard_normal((n, c, h, wd)).astype(dtype)
        w = rng.standard_normal((16, c, k, k)).astype(dtype)
        b = rng.standard_normal(16).astype(dtype)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(xt, wt, bt, stride=stride)
        g = rng.standard_normal(out.shape).astype(dtype)
        T.sum_(T.mul(out, Tensor(g))).backward()
        for got, expect in zip((xt.grad, wt.grad, bt.grad), _conv2d_backward_reference(x, w, g, stride)):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
        assert wt.grad.flags.c_contiguous and bt.grad.flags.c_contiguous


class TestConv2dPerSampleForward:
    """conv2d runs one forward GEMM per sample instead of one over the batch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [5, 32, 128])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_equals_whole_batch_gemm_bitwise(self, n, k, stride, c, dtype):
        """At the U-Net's feature sizes (32x32 and 16x16 maps, 32 filters).

        Per-sample GEMMs under about 10^6 multiply-adds can go to the BLAS
        small-matrix kernel while the whole-batch GEMM does not; with a long
        contraction (C*k*k of several hundred) the two then sum in another
        order and may differ in the last bit.
        """
        rng = np.random.default_rng(1000 * c + 10 * n + k)
        x = rng.standard_normal((n, c, 32, 32)).astype(dtype)
        w = rng.standard_normal((32, c, k, k)).astype(dtype)
        b = rng.standard_normal(32).astype(dtype)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        expect = _conv2d_whole_batch(x, w, b, stride)
        assert out.dtype == expect.dtype and out.flags.c_contiguous
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("c", [3, 64, 128])
    def test_each_sample_is_independent_of_the_batch(self, size, c):
        """A sample's output does not depend on the rest of its batch, at any
        size. On small maps it stays within float32 rounding of the
        whole-batch GEMM, which may sum in another order there."""
        rng = np.random.default_rng(size + c)
        x = rng.standard_normal((3, c, size, size)).astype(np.float32)
        w = Tensor(rng.standard_normal((8, c, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(8).astype(np.float32))
        for stride in (1, 2):
            batch = T.conv2d(Tensor(x), w, b, stride=stride).data
            for i in range(3):
                assert np.array_equal(batch[i:i + 1], T.conv2d(Tensor(x[i:i + 1]), w, b, stride=stride).data)
            # float32 sums of up to 1,152 unit-scale products
            np.testing.assert_allclose(batch, _conv2d_whole_batch(x, w.data, b.data, stride),
                                       rtol=1e-5, atol=1e-3)


class TestGroupNorm:
    def test_constant_input_gives_zeros(self):
        out = T.group_norm(Tensor(np.full((2, 4, 3, 3), 5.0)), groups=2)
        assert np.allclose(out.data, 0.0)

    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        x = (x - x.mean(axis=(2, 3), keepdims=True)) / x.std(axis=(2, 3), keepdims=True)
        out = T.group_norm(Tensor(x), groups=2)
        assert np.max(np.abs(out.data - x / np.sqrt(1.0 + 1e-5))) < 1e-6

    def test_hand_computed_two_groups(self):
        x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 2, 1, 2))
        out = T.group_norm(x, groups=2)
        scale = 1.0 / np.sqrt(1.0 + 1e-5)  # per-group variance is exactly 1
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


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _attention_chain(f, g, v, go):
    """The former attention in numpy: matmul(transpose(f), g), softmax,
    matmul(v, transpose(weights)), and its backward from the output gradient
    go through the rules of those ops, expression for expression."""
    def t(a):
        return np.swapaxes(a, -1, -2)
    m = t(f) @ g
    y = m - np.max(m, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)
    out = v @ t(y)
    dv = go @ y
    da = t(t(v) @ go)
    gy = da * y
    dot = np.sum(gy, axis=-1, keepdims=True)
    dm = np.multiply(y, np.subtract(da, dot, out=gy), out=gy)
    return out, dv, t(dm @ t(g)), f @ dm


class TestAttention:
    @staticmethod
    def _operands(shape, dtype=np.float32, seed=30, requires_grad=False):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(0, 0.5, shape).astype(dtype), requires_grad=requires_grad)
                for _ in range(3)]

    @pytest.mark.parametrize("shape,dtype", [((4, 2, 32, 256), np.float32),
                                             ((2, 3, 8, 15), np.float32),
                                             ((2, 3, 8, 15), np.float64)],
                             ids=["desk-float32", "odd-float32", "odd-float64"])
    def test_equals_the_softmax_chain_bitwise(self, shape, dtype):
        f, g, v = self._operands(shape, dtype, requires_grad=True)
        go = np.random.default_rng(31).uniform(0.2, 1.0, shape).astype(dtype)
        out = T.attention(f, g, v)
        T.sum_(T.mul(out, Tensor(go))).backward()
        want = _attention_chain(f.data, g.data, v.data, go)
        for name, got, ref in zip(("out", "v", "f", "g"), (out.data, v.grad, f.grad, g.grad), want):
            assert _same_bits(got, ref), name
            assert got.strides == ref.strides, name  # later rules reduce in memory order

    def test_untracked_operands_get_no_gradient(self):
        f, g, _ = self._operands((1, 2, 4, 5))
        v = Tensor(np.ones(f.shape, np.float32), requires_grad=True)
        T.sum_(T.attention(f, g, v)).backward()
        assert f.grad is None and g.grad is None and v.grad.shape == v.shape

    def test_equal_logits_give_the_mean_of_v(self):
        _, g, v = self._operands((2, 2, 4, 6), np.float64)
        out = T.attention(Tensor(np.zeros(g.shape)), g, v)
        assert np.allclose(out.data, np.broadcast_to(v.data.mean(axis=-1, keepdims=True), v.shape))

    def test_weights_sum_to_one(self):
        f, g, _ = self._operands((2, 3, 4, 7), np.float64)
        out = T.attention(f, g, Tensor(np.ones(f.shape)))
        assert np.allclose(out.data, 1.0)

    def test_infinite_logit_raises(self):
        f, g, v = self._operands((1, 2, 4, 5))
        # every logit against site 3 is -inf, which a softmax turns into a
        # weight of 0 without a NaN or Inf in its output
        f.data[0, 1, 2] = np.abs(f.data[0, 1, 2]) + 0.1
        g.data[0, 1, 2, 3] = -np.inf
        with pytest.raises(NonFiniteError, match="attention in mid"):
            with T.scope("mid"), np.errstate(invalid="ignore"):
                T.attention(f, g, v)

    def test_mismatched_shapes_rejected(self):
        f, g, v = self._operands((1, 2, 4, 5))
        with pytest.raises(TensorError, match="attention"):
            T.attention(f, Tensor(np.zeros((1, 2, 4, 6))), v)
        with pytest.raises(TensorError, match="attention"):
            T.attention(f, g, Tensor(np.zeros((1, 2, 3, 5))))
        with pytest.raises(TensorError, match="attention"):
            T.attention(*(Tensor(np.zeros((2, 4, 5))) for _ in range(3)))
        with pytest.raises(TensorError, match="attention"):
            T.attention(*(Tensor(np.zeros((1, 2, 4, 0))) for _ in range(3)))

    def test_no_grad_allocates_no_weights_array(self):
        shape = (2, 2, 8, 128)
        weights = 2 * 2 * 128 * 128 * 4

        def peak(build_graph):
            f, g, v = self._operands(shape, requires_grad=True)
            tracemalloc.start()
            try:
                with contextlib.nullcontext() if build_graph else T.no_grad():
                    out = T.attention(f, g, v)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()
        graph_peak, out = peak(True)
        assert out._tracked and graph_peak >= weights
        no_grad_peak, out = peak(False)
        assert not out._tracked and no_grad_peak < weights / 2, no_grad_peak


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
        """Leaves accumulate across graphs; each backward needs a graph of its own."""
        x = Tensor(np.ones(3), requires_grad=True)
        T.sum_(x).backward()
        T.sum_(x).backward()
        assert np.allclose(x.grad, 2.0)

    def test_backward_frees_interior_activations(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        h = T.exp(T.mul(x, 2.0))
        ref = weakref.ref(h.data)
        loss = T.sum_(T.square(h))
        del h
        assert ref() is not None
        loss.backward()
        assert ref() is None and loss.grad is None
        assert np.allclose(x.grad, 4.0 * np.exp(4.0))

    def test_second_backward_on_one_graph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = T.sum_(T.mul(x, 3.0))
        loss.backward()
        with pytest.raises(TensorError, match="consumed"):
            loss.backward()
        assert np.array_equal(x.grad, np.full(3, 3.0))

    def test_backward_through_a_released_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        h = T.mul(x, 3.0)
        T.sum_(h).backward()
        # the new loss is tracked through h; nothing is written before the raise
        loss = T.sum_(T.add(T.mul(w, 2.0), h))
        with pytest.raises(TensorError, match="consumed"):
            loss.backward()
        assert w.grad is None and np.array_equal(x.grad, np.full(3, 3.0))

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = T.mul(x, 2.0)
        assert out._node is None and out.grad is None

    def test_graph_keeps_only_the_arrays_rules_read(self):
        """exp's rule reads its own output, so its input is freed in the
        forward; silu's rule reads its input, which lives until backward."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        m = T.mul(x, 2.0)
        unread = weakref.ref(m.data)
        e = T.exp(m)
        del m
        assert unread() is None
        h = T.mul(e, 0.5)
        read = weakref.ref(h.data)
        loss = T.sum_(T.silu(h))
        del e, h
        assert read() is not None
        loss.backward()
        assert read() is None
        u = 0.5 * np.exp(2.0)
        s = 1.0 / (1.0 + np.exp(-u))
        assert np.allclose(x.grad, s * (1.0 + u * (1.0 - s)) * u * 2.0)

    def test_backward_of_an_untracked_value_raises(self):
        with pytest.raises(TensorError, match="no tracked tensor"):
            T.sum_(Tensor(np.ones(3))).backward()

    def test_item_needs_a_single_element(self):
        assert T.sum_(Tensor(np.full((2, 2), 0.5))).item() == 2.0
        assert Tensor(np.full((1, 1), 3.0)).item() == 3.0
        with pytest.raises(TensorError, match="size-1"):
            Tensor(np.ones(2)).item()


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

    def test_finite_values_whose_sum_overflows_pass_the_check(self):
        big = Tensor(np.full(4, 2e38, np.float32))
        with np.errstate(over="raise", invalid="raise"):  # the float32 sum overflows; the values do not
            out = T.mul(big, 1.0)
            assert np.array_equal(out.data, big.data)
            with pytest.raises(NonFiniteError, match="enc"):
                with T.scope("enc"):
                    T.mul(Tensor(np.array([2e38, 2e38, np.nan], np.float32)), 1.0)

    def test_grad_dtype_follows_input(self):
        x = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        T.sum_(T.square(x)).backward()
        assert x.grad.dtype == np.float64
        y = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        T.sum_(T.square(y)).backward()
        assert y.grad.dtype == np.float32

    def test_mismatched_binary_shapes_rejected(self):
        with pytest.raises(TensorError, match="do not broadcast"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(TensorError, match="do not broadcast"):  # each would broadcast
            T.mul(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 1))))

    def test_size1_operand_of_higher_rank_rejected(self):
        with pytest.raises(TensorError, match="do not broadcast"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 1, 1))))
        with pytest.raises(TensorError, match="do not broadcast"):
            T.mul(Tensor(np.ones((1, 1))), Tensor(np.zeros(3)))

    def test_negative_split_size_rejected(self):
        with pytest.raises(TensorError, match="negative"):
            T.split(Tensor(np.arange(5.0)), [6, -1], 0)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_conv2d_stride_below_one_rejected(self, stride):
        with pytest.raises(TensorError, match="stride"):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), stride=stride)


def test_gradcheck_smoke_every_op():
    """One randomized case per op; test_gradcheck_sweep runs 50 of each."""
    rng = np.random.default_rng(123)
    for name, fn, inputs in build_cases(rng):
        err = gradcheck(fn, [Tensor(np.asarray(i)) for i in inputs])
        assert err < 1e-4, f"{name}: worst rel err {err}"


@pytest.mark.slow
def test_gradcheck_sweep():
    """Every gradcheck case at 50 random draws."""
    count, worst = run_suite(50)
    assert count == 50 * len(build_cases(np.random.default_rng(0)))
    assert worst < 1e-4, worst
