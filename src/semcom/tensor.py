"""Minimal numpy-backed tensors with reverse-mode automatic differentiation.

Supplies exactly the operations the conditional U-Net and its losses need,
each with one way to call it:

- add/sub/mul/div take operands of the same shape, one operand of size 1
  (a python scalar included) whose rank is no higher than the other's, or
  operands of equal rank where one operand's every axis is 1 or the other's
  extent. The result has the larger operand's shape; two operands that would
  each broadcast along some axis are refused.
- conv2d (zero padding, optional stride) and pool2d (edge padding, stride 1)
  pad "same" and take odd kernels only. Both treat each padded plane as flat,
  so that one kernel tap of every window is one contiguous slice: pool2d in
  its forward, conv2d in the col2im of its input gradient.
- attention(f, g, v) is the whole softmax attention of [N, heads, d, S]
  operands in one op, computed one (sample, head) block of S x S weights at
  a time; there is no separate softmax or transpose.
- Avg/max pooling (the receiver's map denoiser) is forward only and refuses
  an input that would need a gradient.

A tracked Tensor is a value (.data) plus a graph node. The node holds the
gradient slot, the gradient rule and the nodes of the parents; each rule
captures exactly the arrays it reads (conv2d its input and weight, silu and
square their inputs, mul/div/matmul their operands, exp/sqrt/group_norm
their own outputs, attention its weights and its three operands) and never a
parent Tensor. A graph therefore keeps its nodes plus the arrays its rules
read: an output that no rule reads is freed as soon as the forward drops it.
no_grad builds no node at all.

A graph is consumed by its backward, which frees each node once its
gradient rule has run; a second backward through it raises. Leaves
(parameters) keep accumulating .grad across graphs.

Every forward result is checked for NaN/Inf. Training runs in float32;
gradient checking promotes to float64.
"""
from __future__ import annotations

import contextlib
import functools
import math

import numpy as np


class TensorError(ValueError):
    """Shape/usage violation in a tensor operation."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


_grad_enabled = True
_scope: list[str] = []


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (forward passes only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def scope(name):
    """Label a region of the forward pass for non-finite diagnostics."""
    _scope.append(name)
    try:
        yield
    finally:
        _scope.pop()


class _Node:
    """A tracked value's place in the graph.

    `rule` is None for a leaf; for an interior node it takes the gradient of
    the node's value and accumulates into the parents' nodes, from the arrays
    it captured in the forward. `parents` (tracked parents only) orders the
    backward walk.
    """
    __slots__ = ("grad", "rule", "parents")

    def __init__(self, parents=()):
        self.grad = None
        self.rule = None
        self.parents = parents

    def accum(self, g):
        # grad arrays are never mutated in place, so aliasing the first
        # contribution is safe and accumulation always allocates fresh
        if self.grad is None:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self._node = _Node() if requires_grad else None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self):
        """True for a leaf that collects a gradient (a parameter)."""
        return self._node is not None and self._node.rule is None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        if self.size != 1:
            raise TensorError(f"item: only a size-1 tensor converts to a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        if self._node is None:
            raise TensorError("grad: an untracked tensor has no gradient")
        self._node.grad = g

    @property
    def _tracked(self):
        return self._node is not None

    @property
    def _bwd(self):
        """The gradient rule of this value's node; None for leaves and untracked values."""
        return None if self._node is None else self._node.rule

    @_bwd.setter
    def _bwd(self, rule):
        self._node.rule = rule

    def backward(self):
        """Populate .grad on every tracked ancestor of this scalar, consuming the graph.

        Each interior node is released as soon as its rule has run: its .grad,
        its rule (with the arrays it captured) and its parent links are
        dropped, so activations and interior gradients are freed while the
        walk goes on. A released node stays tracked, and a later backward
        through it raises TensorError before any gradient is written. Leaves
        keep accumulating .grad across graphs.
        """
        if self.size != 1:
            raise TensorError(f"backward requires a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:
            raise TensorError("backward of a value that no tracked tensor produced")
        topo = []
        seen = {id(root)}
        stack = [(root, iter(root.parents))]
        while stack:
            node, it = stack[-1]
            for p in it:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            else:
                if node.rule is _released:
                    _released(None)
                topo.append(node)
                stack.pop()
        root.accum(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node.rule is None:  # a leaf
                continue
            if node.grad is not None:
                node.rule(node.grad)
            node.grad = None
            node.rule = _released
            node.parents = ()


def _released(g):
    """The rule a released node keeps: a gradient reaching it would be lost."""
    raise TensorError("backward through a graph that an earlier backward consumed")


def _nonfinite(op):
    where = "/".join(_scope) or "<top>"
    return NonFiniteError(f"non-finite values produced by {op} in {where}")


def _make(data, parents, op):
    """Wrap a forward result, with a node when grad is on and a parent is tracked.

    A non-empty result is checked for NaN/Inf. The caller then sets the
    node's rule (out._bwd) when out._tracked.
    """
    # max and min propagate NaN, cannot overflow (so never warn or raise under
    # np.seterr) and need no boolean temporary: an exact and cheap check
    if data.size and not (np.isfinite(data.max()) and np.isfinite(data.min())):
        raise _nonfinite(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _grad_enabled:
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            out._node = _Node(nodes)
    return out


def _reduce_to(g, shape):
    """Sum a gradient down to `shape`: its own, that of a size-1 operand, or
    that of an equal-rank operand, over the axes where that operand is 1."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g, dtype=g.dtype).reshape(shape)
    keep = tuple(i for i, (sx, sg) in enumerate(zip(shape, g.shape)) if sx == 1 and sg != 1)
    return g.sum(axis=keep, keepdims=True, dtype=g.dtype)


def _broadcasts(small, big):
    """True when `small` broadcasts to `big` as _binary allows."""
    if small.size == 1:
        return small.ndim <= big.ndim
    return small.ndim == big.ndim and all(s in (1, b) for s, b in zip(small.shape, big.shape))


# -- elementwise arithmetic ------------------------------------------------
# Each binary op is a forward ufunc plus one gradient rule per operand,
# g -> d(out)/d(operand) * g, applied to the operands' arrays. Only the
# rules of an op that `reads` its operands keep the operands' arrays.

def _binary(a, b, op, fwd, grad_a, grad_b, reads):
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype if isinstance(b, Tensor) else np.float32))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape and not (_broadcasts(a, b) or _broadcasts(b, a)):
        raise TensorError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast "
                          "(one operand must be size 1 or of equal rank with axes 1 or equal)")
    out = _make(fwd(a.data, b.data), (a, b), op)
    if out._tracked:
        an, bn, sa, sb = a._node, b._node, a.shape, b.shape
        ad, bd = (a.data, b.data) if reads else (None, None)

        def bwd(g):
            if an is not None:
                an.accum(_reduce_to(grad_a(g, ad, bd), sa))
            if bn is not None:
                bn.accum(_reduce_to(grad_b(g, ad, bd), sb))
        out._bwd = bwd
    return out


def _grad_same(g, a, b):
    return g


def _grad_negated(g, a, b):
    return -g


def _grad_times_b(g, a, b):
    return g * b


def _grad_times_a(g, a, b):
    return g * a


def _grad_over_b(g, a, b):
    return g / b


def _grad_div_b(g, a, b):
    return -g * a / (b * b)


def add(a, b):
    return _binary(a, b, "add", np.add, _grad_same, _grad_same, False)


def sub(a, b):
    return _binary(a, b, "sub", np.subtract, _grad_same, _grad_negated, False)


def mul(a, b):
    return _binary(a, b, "mul", np.multiply, _grad_times_b, _grad_times_a, True)


def div(a, b):
    return _binary(a, b, "div", np.divide, _grad_over_b, _grad_div_b, True)


def square(x):
    out = _make(x.data * x.data, (x,), "square")
    if out._tracked:
        xn, xd = x._node, x.data
        out._bwd = lambda g: xn.accum(2.0 * xd * g)
    return out


def sqrt(x):
    r = np.sqrt(x.data)
    out = _make(r, (x,), "sqrt")
    if out._tracked:
        xn = x._node
        out._bwd = lambda g: xn.accum(g / (2.0 * r))
    return out


def exp(x):
    e = np.exp(x.data)
    out = _make(e, (x,), "exp")
    if out._tracked:
        xn = x._node
        out._bwd = lambda g: xn.accum(g * e)
    return out


# -- reductions --------------------------------------------------------------

def _axes(x, axis):
    if axis is None:
        return tuple(range(x.ndim))
    return (axis,) if isinstance(axis, int) else tuple(axis)


def sum_(x, axis=None, keepdims=False):
    out = _make(np.sum(x.data, axis=axis, keepdims=keepdims, dtype=x.dtype), (x,), "sum")
    if out._tracked:
        xn, shape, axes = x._node, x.shape, _axes(x, axis)

        def bwd(g):
            gs = g if keepdims else np.expand_dims(g, axes)
            xn.accum(np.broadcast_to(gs, shape))
        out._bwd = bwd
    return out


def mean(x, axis=None, keepdims=False):
    n = int(np.prod([x.shape[a] for a in _axes(x, axis)]))
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape manipulation -------------------------------------------------------

def reshape(x, shape):
    out = _make(x.data.reshape(shape), (x,), "reshape")
    if out._tracked:
        xn, xshape = x._node, x.shape
        out._bwd = lambda g: xn.accum(g.reshape(xshape))
    return out


def concat(tensors, axis):
    tensors = list(tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat")
    if out._tracked:
        nodes = [t._node for t in tensors]
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

        def bwd(g):
            for tn, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
                if tn is not None:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    tn.accum(g[tuple(idx)])
        out._bwd = bwd
    return out


def split(x, sizes, axis):
    """Split along `axis` into consecutive chunks of the given sizes."""
    if any(size < 0 for size in sizes):
        raise TensorError(f"split: sizes {sizes} include a negative size")
    if sum(sizes) != x.shape[axis]:
        raise TensorError(f"split: sizes {sizes} do not cover axis {axis} of {x.shape}")
    outs = []
    xn, xshape = x._node, x.shape
    offsets = np.cumsum([0] + list(sizes))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(int(lo), int(hi))
        idx = tuple(idx)
        piece = _make(x.data[idx], (x,), "split")
        if piece._tracked:
            def bwd(g, idx=idx):
                full = np.zeros(xshape, dtype=g.dtype)
                full[idx] = g
                xn.accum(full)
            piece._bwd = bwd
        outs.append(piece)
    return outs


# -- nonlinearities ------------------------------------------------------------

def silu(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _make(x.data * s, (x,), "silu")
    if out._tracked:
        del s  # recomputed in backward; cheaper than retaining a copy per call
        xn, xd = x._node, x.data

        def bwd(g):
            s = 1.0 / (1.0 + np.exp(-xd))
            xn.accum(g * (s * (1.0 + xd * (1.0 - s))))
        out._bwd = bwd
    return out


# -- matmul ---------------------------------------------------------------------

def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise TensorError(f"matmul: incompatible ranks/batch dims {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise TensorError(f"matmul: inner dims differ {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b), "matmul")
    if out._tracked:
        an, bn, ad, bd = a._node, b._node, a.data, b.data

        def bwd(g):
            if an is not None:
                an.accum(g @ np.swapaxes(bd, -1, -2))
            if bn is not None:
                bn.accum(np.swapaxes(ad, -1, -2) @ g)
        out._bwd = bwd
    return out


# -- attention ------------------------------------------------------------------

def attention(f, g, v):
    """v @ softmax(fᵀg, axis=-1)ᵀ per sample and head of [N, heads, d, S] operands.

    Works on one (sample, head) block of S x S weights at a time: the
    similarity GEMM writes into the block, the row-max shift, exp and row-sum
    division run in place, and a second GEMM writes straight into the output.
    Under no_grad one scratch block serves every head; when a graph is built,
    each block is a slice of the [N, heads, S, S] weights that the rule keeps,
    with f, g and v. Each similarity block is checked for NaN/Inf, since the
    softmax would absorb an -inf logit.

    The output and the gradients equal, bit for bit, those of the chain
    transpose(f) @ g, softmax, v @ transpose(weights): each block runs that
    chain's GEMMs, reductions and elementwise rules on the same layouts. The
    gradient of f is the transposed view of a C-ordered [N, heads, S, d]
    array, as the chain's transpose delivered it, because the rules that
    receive it reduce in memory order.
    """
    if f.ndim != 4 or f.shape != g.shape or f.shape != v.shape or not f.shape[3]:
        raise TensorError(
            f"attention: need f, g and v of one [N, heads, d, S] shape with S >= 1, "
            f"got {f.shape}, {g.shape} and {v.shape}")
    n, heads, d, s = f.shape
    fd, gd, vd = f.data, g.data, v.data
    dtype = np.result_type(fd, gd, vd)
    keep = _grad_enabled and any(t._node is not None for t in (f, g, v))
    weights = np.empty((n, heads, s, s) if keep else (s, s), dtype=dtype)
    data = np.empty((n, heads, d, s), dtype=dtype)
    for k in range(n):
        for h in range(heads):
            w = weights[k, h] if keep else weights
            np.matmul(fd[k, h].T, gd[k, h], out=w)
            top = w.max(axis=-1, keepdims=True)
            # _make's check on the block, whose max is the largest row max
            if not (np.isfinite(top.max()) and np.isfinite(w.min())):
                raise _nonfinite("attention")
            w -= top
            np.exp(w, out=w)
            w /= w.sum(axis=-1, keepdims=True)
            np.matmul(vd[k, h], w.T, out=data[k, h])
    # parents in the order the chain reached them, so the backward walk
    # (and so every gradient summed from these branches) runs as it did
    out = _make(data, (v, f, g), "attention")
    if out._tracked:
        fn, gn, vn = f._node, g._node, v._node

        def bwd(go):
            # all three gradients, so each block is walked once; in the
            # U-Net every operand is tracked
            dt = np.result_type(go, weights)
            dv = np.empty((n, heads, d, s), dtype=dt)
            dg = np.empty((n, heads, d, s), dtype=dt)
            dft = np.empty((n, heads, s, d), dtype=dt)
            dat = np.empty((s, s), dtype=dt)
            dm = np.empty((s, s), dtype=dt)
            for k in range(n):
                for h in range(heads):
                    y, gk = weights[k, h], go[k, h]
                    np.matmul(gk, y, out=dv[k, h])
                    # dA = (vᵀ go)ᵀ, then softmax's rule y * (dA - Σ dA·y)
                    np.matmul(vd[k, h].T, gk, out=dat)
                    np.multiply(dat.T, y, out=dm)
                    dot = dm.sum(axis=-1, keepdims=True)
                    np.multiply(y, np.subtract(dat.T, dot, out=dm), out=dm)
                    np.matmul(fd[k, h], dm, out=dg[k, h])
                    np.matmul(dm, gd[k, h].T, out=dft[k, h])
            for node, grad in ((vn, dv), (gn, dg), (fn, dft.transpose(0, 1, 3, 2))):
                if node is not None:
                    node.accum(grad)
        out._bwd = bwd
    return out


# -- padding helpers ---------------------------------------------------------

def _same_pad(kernel, op):
    """Padding on each side that keeps the extent of an odd kernel's input."""
    if kernel % 2 == 0:
        raise TensorError(f"{op}: 'same' padding requires an odd kernel, got {kernel}")
    return (kernel - 1) // 2


# -- conv2d ----------------------------------------------------------------------

def conv2d(x, w, b=None, stride=1):
    """Cross-correlation with "same" zero padding; differentiable in x, w, b.

    Patches are gathered channels-first into a [C*k*k, n*Ho*Wo] matrix whose
    reshapes are all free (axis-aligned copies only), then contracted with
    BLAS. The forward runs one GEMM per sample: the patch matrix is then one
    sample big instead of N, and each sample's [F, Ho*Wo] product is written
    straight into the NCHW output, with no transposed copy. The backward keeps
    whole-batch GEMMs, since the weight gradient contracts over every sample.
    The weight gradient is (cols @ gt.T).T, copied to C order. The input
    gradient's GEMM runs on the zero-padded input grid [F, n*Hp*Wp], so that
    its col2im is k*k contiguous adds. Both sum exactly as gt @ cols.T and a
    strided scatter of [C*k*k, n*Ho*Wo] would, provided the BLAS sums every
    GEMM column in one order wherever it sits. Measured with OpenBLAS 0.3.31
    on an AVX-512 x86_64, its float32 kernels do; its float64 kernel does not
    for the columns of a last partial tile, which may then differ in the last
    bit.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise TensorError(f"conv2d: need 4-d input and weight, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    f, cw, kh, kw = w.shape
    if kh != kw:
        raise TensorError(f"conv2d: only square kernels, got {w.shape}")
    if c != cw:
        raise TensorError(f"conv2d: input channels {x.shape} do not match weight {w.shape}")
    if b is not None and b.shape != (f,):
        raise TensorError(f"conv2d: bias shape {b.shape} does not match {f} filters")
    if stride < 1:
        raise TensorError(f"conv2d: stride must be >= 1, got {stride}")
    p = _same_pad(kh, "conv2d")
    s = stride
    ho = (h - 1) // s + 1
    wo = (wd - 1) // s + 1

    def pad_cn(arr):
        """[m, C, H, W] -> zero-padded channels-first [C, m, Hp, Wp]."""
        xcn = arr.transpose(1, 0, 2, 3)
        if not p:
            return np.ascontiguousarray(xcn)
        padded = np.zeros((c, arr.shape[0], h + 2 * p, wd + 2 * p), dtype=arr.dtype)
        padded[:, :, p:-p, p:-p] = xcn
        return padded

    def im2col(src):
        """Patch matrix [C*k*k, m*Ho*Wo] of a padded slice [C, m, Hp, Wp]."""
        m = src.shape[1]
        if kh == 1 and s == 1:
            return src.reshape(c, m * ho * wo)
        cols = np.empty((c, kh, kw, m, ho, wo), dtype=src.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = src[:, :, i:i + s * ho:s, j:j + s * wo:s]
        return cols.reshape(c * kh * kw, m * ho * wo)

    w2 = w.data.reshape(f, c * kh * kw)
    data = np.empty((n, f, ho, wo), dtype=np.result_type(x.data, w.data))
    for k in range(n):
        out_k = data[k].reshape(f, ho * wo)
        np.matmul(w2, im2col(pad_cn(x.data[k:k + 1])), out=out_k)
        if b is not None:
            out_k += b.data[:, None]
    parents = (x, w) if b is None else (x, w, b)
    out = _make(data, parents, "conv2d")
    if out._tracked:
        xn, wn, bn = x._node, w._node, None if b is None else b._node
        xd = x.data

        def bwd(g):
            gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, n * ho * wo)
            if bn is not None:
                bn.accum(gt.sum(axis=1, dtype=g.dtype))
            if wn is not None:
                cols = im2col(pad_cn(xd)).astype(g.dtype, copy=False)
                # the same sums as gt @ cols.T, faster on the U-Net's shapes;
                # the copy keeps w.grad C-ordered, the memory order that
                # clip_gradients and AdamW reduce in
                gw = np.ascontiguousarray((cols @ gt.T).T)
                del cols
                wn.accum(gw.reshape(f, c, kh, kw))
            if xn is not None:
                w2t = w2.T.astype(g.dtype, copy=False)
                if kh == 1 and s == 1:
                    gx = (w2t @ gt).reshape(c, n, ho, wo)
                else:
                    # col2im on the padded grid: with the output gradient laid
                    # at its strided places in a zero [F, n, Hp, Wp] grid, tap
                    # (i, j) of every output is one contiguous slice of the flat
                    # input gradient, at offset i*Wp + j; the zero tail takes
                    # the taps of the last plane's pad columns. Each input
                    # element gets its taps' addends in (i, j) order plus exact
                    # ±0 from the zero columns, which change no bit of a sum
                    # that starts at +0.0 and so never holds -0.0.
                    hp, wp = h + 2 * p, wd + 2 * p
                    size = n * hp * wp
                    gtp = np.zeros((f, n, hp, wp), dtype=g.dtype)
                    gtp[:, :, :s * ho:s, :s * wo:s] = gt.reshape(f, n, ho, wo)
                    del gt
                    gcols = (w2t @ gtp.reshape(f, size)).reshape(c, kh * kw, size)
                    del gtp
                    flat = np.zeros((c, size + (kh - 1) * (wp + 1)), dtype=g.dtype)
                    for t in range(kh * kw):
                        off = (t // kw) * wp + t % kw
                        flat[:, off:off + size] += gcols[:, t]
                    gx = flat[:, :size].reshape(c, n, hp, wp)[:, :, p:hp - p, p:wp - p]
                xn.accum(gx.transpose(1, 0, 2, 3))
        out._bwd = bwd
    return out


# -- pooling -----------------------------------------------------------------------

def _pairwise_sum(terms):
    """Sum equal-shape arrays in the order numpy's pairwise summation adds a
    reduction of len(terms) values, so the result matches a `sum`/`mean` over
    a stacked axis of those values bit for bit."""
    n = len(terms)
    if n < 8:
        return functools.reduce(np.add, terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        acc = _pairwise_sum(terms[:half])
        acc += _pairwise_sum(terms[half:])
        return acc
    m = n - n % 8
    r = [functools.reduce(np.add, terms[j:m:8]) for j in range(8)]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[m:]:
        acc += t
    return acc


def pool2d(x, kind, kernel):
    """Window-wise mean or max at stride 1; forward only.

    "same" padding replicates edges (keeps binary maps binary). Both reduce
    the kernel*kernel shifted slices of the padded input; the mean adds them
    in numpy's pairwise order, so it equals a `mean` over each window.
    """
    if kind not in ("avg", "max"):
        raise TensorError(f"pool2d: kind must be 'avg' or 'max', got {kind!r}")
    if x.ndim != 4:
        raise TensorError(f"pool2d: need 4-d input, got {x.shape}")
    if kernel < 1:
        raise TensorError(f"pool2d: kernel must be >= 1, got {kernel}")
    if _grad_enabled and x._tracked:
        raise TensorError("pool2d: has no backward; call it under no_grad or on an untracked input")
    p = _same_pad(kernel, "pool2d")
    n, c, h, w = x.shape
    hp, wp = h + 2 * p, w + 2 * p
    data = np.empty(x.shape, dtype=x.dtype)
    # The edge-padded plane, flat, plus a zero tail makes the shift (i, j) of
    # every window one contiguous slice; positions whose window wraps past a
    # row are computed too and dropped when the result is copied out. Planes
    # are pooled one at a time, which measured faster than all at once; each
    # rewrites every cell of the padded plane and none of the tail, so one
    # buffer and one set of window slices serve them all.
    size = hp * wp
    flat = np.zeros(size + (kernel - 1) * (wp + 1), dtype=x.dtype)
    xp = flat[:size].reshape(hp, wp)
    terms = [flat[i * wp + j:i * wp + j + size] for i in range(kernel) for j in range(kernel)]
    for src, dst in zip(x.data.reshape(n * c, h, w), data.reshape(n * c, h, w)):
        xp[p:p + h, p:p + w] = src
        if p:
            xp[p:p + h, :p] = src[:, :1]
            xp[p:p + h, p + w:] = src[:, -1:]
            xp[:p] = xp[p]
            xp[p + h:] = xp[p + h - 1]
        acc = _pairwise_sum(terms) if kind == "avg" else functools.reduce(np.maximum, terms)
        win = acc.reshape(hp, wp)[:h, :w]
        dst[...] = win / (kernel * kernel) if kind == "avg" else win
    return _make(data, (), "pool2d")


# -- group normalization ---------------------------------------------------------------

def group_norm(x, groups):
    """Per (sample, group) (x - mean) / sqrt(var + 1e-5), no affine."""
    if x.ndim != 4:
        raise TensorError(f"group_norm: need 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if groups < 1 or c % groups != 0:
        raise TensorError(f"group_norm: {c} channels not divisible by {groups} groups")
    m = (c // groups) * h * w
    xr = x.data.reshape(n, groups, m)
    mu = xr.mean(axis=-1, keepdims=True, dtype=x.dtype)
    xc = xr - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True, dtype=x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(1e-5, dtype=x.dtype))
    y = xc * inv
    out = _make(y.reshape(n, c, h, w), (x,), "group_norm")
    if out._tracked:
        xn, xshape = x._node, x.shape

        def bwd(g):
            gr = g.reshape(n, groups, m)
            gm = gr.mean(axis=-1, keepdims=True, dtype=g.dtype)
            gy = np.mean(gr * y, axis=-1, keepdims=True, dtype=g.dtype)
            xn.accum((inv * (gr - gm - y * gy)).reshape(xshape))
        out._bwd = bwd
    return out


# -- resampling --------------------------------------------------------------------------

def upsample_nearest2(x):
    """Nearest-neighbor 2x spatial upsampling."""
    if x.ndim != 4:
        raise TensorError(f"upsample_nearest2: need 4-d input, got {x.shape}")
    d = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    out = _make(d, (x,), "upsample_nearest2")
    if out._tracked:
        xn = x._node
        n, c, h, w = x.shape

        def bwd(g):
            xn.accum(g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5), dtype=g.dtype))
        out._bwd = bwd
    return out
