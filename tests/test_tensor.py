import contextlib
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from semcom import tensor as T
from semcom.fds import FdsConfig, fds
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
    @pytest.mark.parametrize("size", [(32, 32), (7, 8), (16, 16)])
    @pytest.mark.parametrize("c", [3, 32, 64, 96, 128])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_equals_strided_scatter_bitwise(self, k, stride, n, c, size, dtype):
        """col2im on the padded grid adds each input element's addends in the
        same order, plus exact zeros; the input-gradient GEMM's rows are
        ordered by tap and its columns run on past the plane into a zero
        tail, and the weight GEMM is taken transposed. None of this moves a
        bit on these shapes, the U-Net's 32x32 and 16x16 maps and its 64 and
        96 input channels among them. This rests on the BLAS summing every
        GEMM row and column in one order wherever it sits, whatever tiles the
        tail columns shift it into: OpenBLAS 0.3.31's float64 kernel sums the
        columns of a last partial tile in another, so for map sizes where a
        real column falls there the float64 gradients may differ in the last
        bit. The input gradient is one C-ordered array."""
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
        assert xt.grad.flags.c_contiguous and wt.grad.flags.c_contiguous and bt.grad.flags.c_contiguous


def _upsample_backward_reference(g):
    """The former upsample_nearest2 gradient: numpy's sum over each 2x2 block."""
    n, c, h2, w2 = g.shape
    return g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5), dtype=g.dtype)


class TestUpsampleBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 64, 16, 16), (4, 32, 8, 8), (1, 3, 5, 7)])
    def test_equals_the_block_reduction_bitwise(self, shape, dtype):
        """The rule's adds equal numpy's reduction over each 2x2 block bit for
        bit: on a C-ordered gradient with signed zeros (a block of four -0.0
        sums to +0.0), and on the gradient that a decoder up conv (3x3,
        stride 1, as `dec.l*.up`) delivers to the upsample before it."""
        n, c, h, w = shape
        rng = np.random.default_rng(sum(shape))
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        g = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(dtype)
        g[rng.random(g.shape) < 0.1] = -0.0
        g[:, :, :2, :2] = -0.0
        T.backward_from([T.upsample_nearest2(x)], [g])
        assert _same_bits(x.grad, _upsample_backward_reference(g))

        x = Tensor(x.data, requires_grad=True)
        w = Tensor(rng.standard_normal((c, c, 3, 3)).astype(dtype))
        up = T.upsample_nearest2(x)
        u = Tensor(up.data, requires_grad=True)  # the conv's input gradient alone
        go = rng.standard_normal(up.shape).astype(dtype)
        T.backward_from([T.conv2d(u, w)], [go])
        T.backward_from([T.conv2d(up, w)], [go])
        assert u.grad.flags.c_contiguous
        assert _same_bits(x.grad, _upsample_backward_reference(u.grad))


class TestConv2dPerSampleForward:
    """conv2d runs its forward GEMMs per sample and per band of output rows
    instead of one over the batch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [5, 32, 128])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_equals_whole_batch_gemm_bitwise(self, n, k, stride, c, dtype):
        """At the U-Net's feature sizes (32x32 and 16x16 maps, 32 filters),
        and at 64x64, whose output splits into 8 bands of rows at stride 1
        and 2 at stride 2 (2 and 1 at 32x32); a 1x1 stride-1 kernel's output
        is one band.

        Per-sample GEMMs under about 10^6 multiply-adds can go to the BLAS
        small-matrix kernel while the whole-batch GEMM does not; with a long
        contraction (C*k*k of several hundred) the two then sum in another
        order and may differ in the last bit.
        """
        rng = np.random.default_rng(1000 * c + 10 * n + k)
        for size, bands in ((32, {1: 2, 2: 1}), (64, {1: 8, 2: 2})):
            ho = (size - 1) // stride + 1
            assert k == 1 and stride == 1 or -(-ho // max(1, T.BAND_COLUMNS // ho)) == bands[stride]
            x = rng.standard_normal((n, c, size, size)).astype(dtype)
            w = rng.standard_normal((32, c, k, k)).astype(dtype)
            b = rng.standard_normal(32).astype(dtype)
            out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
            expect = _conv2d_whole_batch(x, w, b, stride)
            assert out.dtype == expect.dtype and out.flags.c_contiguous
            assert np.array_equal(out, expect), size

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


def _dilated(x, kernel, threshold=0.5):
    """The max stage of the receiver's denoiser on a C x H x W stack: with no
    average pooling, fds thresholds the planes and ORs each kernel x kernel
    window (edge-replicate padding), which is the threshold of a max pool."""
    c = x.shape[0]
    cfg = FdsConfig(avg_kernel=1, max_kernel=kernel, threshold=threshold)
    return fds(x, range(c), c, cfg)


class TestPool2d:
    """Average pooling. The max-pool cases check the receiver's dilation,
    which stands in for a max pool followed by a threshold, against the
    thresholded max-pool oracles."""

    def test_constant_preserved(self):
        x = np.full((1, 5, 5), 3.25)
        assert np.array_equal(T.pool2d(x, 3), x)
        for value in (0.25, 0.75):
            plane = np.full((1, 5, 5), value)
            assert np.array_equal(_dilated(plane, 3), plane > 0.5)

    def test_avg_spike_spread_matches_enumeration(self):
        plane = np.zeros((5, 5))
        plane[2, 2] = 1.0
        out = T.pool2d(plane.reshape(1, 5, 5), 3)
        oracle = _pool_oracle(plane, "avg", 3)
        assert np.allclose(out[0], oracle)
        assert np.sum(np.abs(out[0] - 1.0 / 9.0) < 1e-12) == 9

    def test_max_of_avg_plateau_matches_enumeration(self):
        plane = np.zeros((5, 5))
        plane[2, 2] = 1.0
        avg = _pool_oracle(plane, "avg", 3)
        out = _dilated(avg.reshape(1, 5, 5), 3, threshold=0.1)
        oracle = _pool_oracle(avg, "max", 3) > 0.1
        assert np.array_equal(out[0], oracle)
        assert np.all(out[0] == 1)  # the 1/9 plateau spans the 5x5 grid

    def test_avg_commutes_with_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 6))
        a = T.pool2d(3.7 * x, 3)
        b = 3.7 * T.pool2d(x, 3)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_max_ties_give_the_tied_value(self):
        x = np.array([[0.75, 0.75]]).reshape(1, 1, 2)
        assert np.array_equal(_dilated(x, 1), x > 0.5)
        assert np.array_equal(_dilated(x, 3), x > 0.5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("pad", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["avg", "max"])
    def test_bitwise_equal_to_window_formula(self, kind, kernel, stride, pad, dtype):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.normal(size=(2, 3, 11, 9)) * 10.0 ** rng.uniform(-6, 6, size=(2, 3, 11, 9))
        x = x.astype(dtype)
        if kind == "avg":
            out = T.pool2d(x.reshape(6, 11, 9), kernel).reshape(x.shape)
        else:  # the dilation of the thresholded planes against the threshold of a max pool
            out = _dilated(x.reshape(6, 11, 9), kernel).reshape(x.shape)
        # pool2d is same-padded at stride 1: a "valid" window is one that does
        # not reach the padding, and a stride keeps every stride-th window
        crop = (kernel - 1) // 2 if pad == "valid" else 0
        out = out[:, :, crop:out.shape[2] - crop:stride, crop:out.shape[3] - crop:stride]
        expect = _window_pool(x, kind, kernel, stride, pad)
        if kind == "max":
            expect = (expect.astype(np.float64) > 0.5).astype(np.uint8)
        assert out.dtype == expect.dtype
        assert np.array_equal(out, expect)

    def test_avg_over_more_than_128_values_bitwise(self):
        # 13 x 13 = 169 values: numpy splits pairwise sums above 128 terms
        x = np.random.default_rng(8).normal(size=(1, 2, 20, 17)) * 1e3
        out = T.pool2d(x[0], 13)
        assert np.array_equal(out, _window_pool(x, "avg", 13, 1, "same")[0])

    def test_even_or_nonpositive_kernel_rejected(self):
        x = np.ones((1, 4, 4))
        with pytest.raises(TensorError, match="odd"):
            T.pool2d(x, 2)
        with pytest.raises(TensorError, match=">= 1"):
            T.pool2d(x, -1)


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


# The U-Net's dense layers, [k, n]: desk 32->128, 128->128 and 128->64/128
# (time embedding and FiLM); tiny 16->64, 64->64 and 64->32/64.
DENSE_SHAPES = [(32, 128), (128, 128), (128, 64), (16, 64), (64, 64), (64, 32)]


class TestMatmulBias:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 4, 8])
    @pytest.mark.parametrize("k, n", DENSE_SHAPES)
    def test_equals_the_dense_chain_bitwise(self, k, n, rows, dtype):
        """matmul(a, b, bias) and its three gradients equal those of
        add(matmul(a, b), reshape(bias, (1, n))) bit for bit."""
        rng = np.random.default_rng(1000 * k + 10 * n + rows)
        arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((rows, k), (k, n), (n,))]
        g = Tensor(rng.standard_normal((rows, n)).astype(dtype))
        fused = [Tensor(x, requires_grad=True) for x in arrays]
        chain = [Tensor(x, requires_grad=True) for x in arrays]
        out = T.matmul(*fused)
        expect = T.add(T.matmul(chain[0], chain[1]), T.reshape(chain[2], (1, n)))
        assert _same_bits(out.data, expect.data)
        T.sum_(T.mul(out, g)).backward()
        T.sum_(T.mul(expect, g)).backward()
        for got, ref in zip(fused, chain):
            assert _same_bits(got.grad, ref.grad)

    def test_bias_is_the_only_tracked_operand(self):
        a = Tensor(np.ones((3, 2)))
        b = Tensor(np.ones((2, 4)))
        bias = Tensor(np.zeros(4), requires_grad=True)
        T.sum_(T.matmul(a, b, bias)).backward()
        assert np.array_equal(bias.grad, np.full(4, 3.0))

    @pytest.mark.parametrize("shape", [(5,), (1, 4), (4, 1), ()])
    def test_bias_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(TensorError, match="bias shape"):
            T.matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(shape)))

    def test_rule_keeps_the_factors_but_not_the_bias_or_the_output(self):
        """The rule reads a and b, for each other's gradients; the bias's
        gradient and the output are never read, so their arrays are freed as
        soon as the forward drops them, and backward frees a and b."""
        x = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        y = Tensor(np.full((3, 4), 2.0), requires_grad=True)
        z = Tensor(np.full(4, 1.5), requires_grad=True)
        a, b, bias = T.mul(x, 2.0), T.mul(y, 3.0), T.mul(z, 0.5)  # mul's rules read x, y and z
        out = T.matmul(a, b, bias)
        refs = [weakref.ref(t.data) for t in (a, b, bias, out)]
        loss = T.sum_(out)
        del a, b, bias, out
        assert [ref() is not None for ref in refs] == [True, True, False, False]
        loss.backward()
        assert all(ref() is None for ref in refs)
        assert x.grad is not None and y.grad is not None and z.grad is not None


def _split_layer(kind, seed):
    """(forward of a part's rows with a given weight and bias, weight leaf,
    bias leaf) of a conv2d or a dense layer at the U-Net's widths, batch 4."""
    rng = np.random.default_rng(seed)
    op, xshape, wshape, nb = ((T.conv2d, (4, 32, 16, 16), (32, 32, 3, 3), 32) if kind == "conv2d"
                              else (T.matmul, (4, 32), (32, 128), 128))
    x, w, b = (rng.standard_normal(shape).astype(np.float32) for shape in (xshape, wshape, nb))

    def forward(part, wt, bt):
        return op(Tensor(x[part]), wt, bt)
    return forward, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


class TestSplitMeetings:
    """In a half of a split batch only parameters take a gradient over the
    batch: it meets its twin and accumulates later, after the walk has
    gone on."""

    @pytest.mark.parametrize("kind", ["conv2d", "matmul"])
    def test_a_gradient_over_the_batch_into_an_interior_node_raises(self, kind):
        fwd, w, b = _split_layer(kind, 5)
        workers = []

        def half(k, part):
            if threading.current_thread() is not threading.main_thread():
                workers.append(threading.current_thread())
            T.sum_(fwd(part, T.mul(w, 1.0), b)).backward()
        with T.split_batch(4) as split:
            with pytest.raises(TensorError, match="interior node"):
                split.run(half)
            assert split.slots == {} and split.ready == []
        assert len(workers) == 1 and not workers[0].is_alive()
        assert T._state.half is None
        assert w.grad is None and b.grad is None

    @pytest.mark.parametrize("kind", ["conv2d", "matmul"])
    def test_leaf_parameters_get_the_whole_batchs_gradients(self, kind):
        fwd, w, b = _split_layer(kind, 6)
        fwd_whole, w_whole, b_whole = _split_layer(kind, 6)
        with T.split_batch(4) as split:
            split.run(lambda k, part: T.sum_(fwd(part, w, b)).backward())
            assert split.slots == {} and split.ready == []
        T.sum_(fwd_whole(slice(0, 4), w_whole, b_whole)).backward()
        assert _same_bits(w.grad, w_whole.grad) and _same_bits(b.grad, b_whole.grad)


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

    @pytest.mark.parametrize("op, reads", [
        (lambda x: T.reshape(x, (4, 4)), None),
        (lambda x: T.sum_(x, axis=2), None),
        (T.upsample_nearest2, None),
        (lambda x: T.halves(x)[1], None),
        (T.square, "input"),
        (T.silu, "input"),
        (T.sqrt, "output"),
        (T.exp, "output"),
    ], ids=["reshape", "sum_", "upsample_nearest2", "halves", "square", "silu", "sqrt", "exp"])
    def test_unary_rule_keeps_only_the_arrays_it_reads(self, op, reads):
        """A one-operand op's graph keeps its input or its output only when
        its rule reads it. (group_norm's output is a view of the normalized
        values its rule reads, so a weak reference cannot tell them apart.)"""
        x = Tensor(np.full((2, 2, 2, 2), 0.5), requires_grad=True)
        h = T.mul(x, 2.0)  # mul's rule reads x, not h
        out = op(h)
        arrays = {"input": weakref.ref(h.data), "output": weakref.ref(out.data)}
        loss = T.sum_(out)  # sum_'s rule reads neither
        del h, out
        for name, ref in arrays.items():
            assert (ref() is not None) == (name == reads), name
        loss.backward()
        assert all(ref() is None for ref in arrays.values()) and x.grad is not None

    @pytest.mark.parametrize("op, reads", [
        (T.add, False), (T.sub, False), (T.concat, False),
        (T.mul, True), (T.div, True), (T.matmul, True),
    ], ids=["add", "sub", "concat", "mul", "div", "matmul"])
    def test_binary_rules_keep_only_the_arrays_they_read(self, op, reads):
        """A two-operand op with both operands tracked keeps their arrays only
        when its rules read them, so no rule captures an operand it does not
        read; backward frees them all."""
        x = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        y = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        a, b = T.mul(x, 2.0), T.mul(y, 3.0)  # mul's rules read x and y, not a and b
        refs = [weakref.ref(a.data), weakref.ref(b.data)]
        loss = T.sum_(op(a, b))
        del a, b
        assert [ref() is not None for ref in refs] == [reads, reads]
        loss.backward()
        assert all(ref() is None for ref in refs)
        assert x.grad is not None and y.grad is not None

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
            return T.pool2d(h.data[0], 3)
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

    def test_halves_of_an_odd_channel_axis_rejected(self):
        with pytest.raises(TensorError, match="even channel axis"):
            T.halves(Tensor(np.zeros((1, 5, 2, 2))))

    def test_matmul_of_non_matrices_rejected(self):
        with pytest.raises(TensorError, match="matrices"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))
        with pytest.raises(TensorError, match="matrices"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_conv2d_stride_below_one_rejected(self, stride):
        with pytest.raises(TensorError, match="stride"):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), stride=stride)


class TestThreadState:
    """Grad mode and the scope stack are per thread: the sampler runs the two
    halves of a batch in two threads."""

    def test_no_grad_in_a_worker_leaves_the_callers_grad_mode_alone(self):
        w = Tensor(np.ones(3, np.float32), requires_grad=True)
        entered, leave = threading.Event(), threading.Event()

        def worker():
            with T.no_grad(), T.scope("worker"):
                entered.set()
                leave.wait(10)
        th = threading.Thread(target=worker)
        th.start()
        try:
            assert entered.wait(10)
            assert T.mul(w, 2.0)._tracked  # the worker's no_grad does not reach this thread
            with pytest.raises(NonFiniteError, match=r"in caller$"), T.scope("caller"):
                T.mul(Tensor(np.array([np.inf])), 1.0)  # nor does its scope
            with T.no_grad():
                leave.set()  # the worker leaves its no_grad while this thread is in one
                th.join(10)
                assert not T.mul(w, 2.0)._tracked
        finally:
            leave.set()
            th.join(10)
        assert not th.is_alive() and T.mul(w, 2.0)._tracked

    def test_threads_switching_often_each_keep_their_own_state(self):
        """Four threads (more than the two cores) enter and leave no_grad and
        scopes while the interpreter switches threads every microsecond; a
        shared grad flag or scope list would show another thread's state."""
        w = Tensor(np.ones(3, np.float32), requires_grad=True)
        errors = []

        def worker(name):
            try:
                for _ in range(300):
                    assert T.mul(w, 2.0)._tracked and T._state.scope == []
                    with T.no_grad(), T.scope(name):
                        assert not T.mul(w, 2.0)._tracked and T._state.scope == [name]
            except AssertionError as e:
                errors.append((name, e))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and errors == []
        assert T._state.grad_enabled and T._state.scope == []

    def test_each_new_thread_starts_with_grad_on_and_no_scope(self):
        seen = []
        with T.no_grad(), T.scope("caller"):
            th = threading.Thread(target=lambda: seen.append((T._state.grad_enabled, list(T._state.scope))))
            th.start()
            th.join(10)
        assert seen == [(True, [])]


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
