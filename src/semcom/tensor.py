"""Minimal numpy-backed tensors with reverse-mode automatic differentiation.

Supplies exactly the operations the conditional U-Net and its losses need,
each with one way to call it:

- add/sub/mul/div take operands of the same shape, or one operand of size 1
  (a python scalar included) whose rank is no higher than the other's. Any
  other broadcast goes through broadcast_to, so the gradient surface stays small.
- conv2d (zero padding, optional stride) and pool2d (edge padding, stride 1)
  pad "same" and take odd kernels only.
- Avg/max pooling (the receiver's map denoiser) is forward only and refuses
  an input that would need a gradient.

Every forward result is checked for NaN/Inf. Training runs in float32;
gradient checking promotes to float64.
"""
from __future__ import annotations

import contextlib
import functools

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._bwd = None

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data.reshape(-1)[0])

    @property
    def _tracked(self):
        return self.requires_grad or bool(self._parents)

    def _accum(self, g):
        # grad arrays are never mutated in place, so aliasing the first
        # contribution is safe and accumulation always allocates fresh
        if self.grad is None:
            self.grad = g if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self):
        """Populate .grad on every tracked ancestor of this scalar.

        Repeated calls without clearing .grad accumulate gradients.
        """
        if self.size != 1:
            raise TensorError(f"backward requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, iter(self._parents))]
        seen.add(id(self))
        while stack:
            node, it = stack[-1]
            advanced = False
            for p in it:
                if id(p) not in seen and p._tracked:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        for node in topo:
            if node._parents:  # leaves keep accumulating across backward calls
                node.grad = None
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)


def _make(data, parents, op):
    # single-pass reduction: NaN/Inf propagate into the sum, so this is a
    # cheap full check (no boolean temporary) at float magnitudes we use
    if not np.isfinite(float(data.sum())):
        where = "/".join(_scope) or "<top>"
        raise NonFiniteError(f"non-finite values produced by {op} in {where}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._bwd = None
    if _grad_enabled and any(p._tracked for p in parents):
        out._parents = tuple(parents)
    else:
        out._parents = ()
    return out


def _reduce_to(g, shape):
    """Sum a gradient down to `shape`: its own, or that of a size-1 operand."""
    return g if g.shape == shape else np.sum(g, dtype=g.dtype).reshape(shape)


# -- elementwise arithmetic ------------------------------------------------
# Each binary op is a forward ufunc plus one gradient rule per operand,
# g -> d(out)/d(operand) * g, applied to the operands' arrays.

def _binary(a, b, op, fwd, grad_a, grad_b):
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype if isinstance(b, Tensor) else np.float32))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape:
        if a.size != 1 and b.size != 1:
            raise TensorError(f"{op}: shapes {a.shape} and {b.shape} differ (only same-shape or scalar operands)")
        one, other = (a, b) if a.size == 1 else (b, a)
        if other.size != 1 and one.ndim > other.ndim:
            raise TensorError(f"{op}: size-1 operand {one.shape} has more dimensions than {other.shape}")
    out = _make(fwd(a.data, b.data), (a, b), op)
    if out._parents:
        def bwd(g):
            if a._tracked:
                a._accum(_reduce_to(grad_a(g, a.data, b.data), a.shape))
            if b._tracked:
                b._accum(_reduce_to(grad_b(g, a.data, b.data), b.shape))
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
    return _binary(a, b, "add", np.add, _grad_same, _grad_same)


def sub(a, b):
    return _binary(a, b, "sub", np.subtract, _grad_same, _grad_negated)


def mul(a, b):
    return _binary(a, b, "mul", np.multiply, _grad_times_b, _grad_times_a)


def div(a, b):
    return _binary(a, b, "div", np.divide, _grad_over_b, _grad_div_b)


def square(x):
    out = _make(x.data * x.data, (x,), "square")
    if out._parents:
        out._bwd = lambda g: x._accum(2.0 * x.data * g)
    return out


def sqrt(x):
    r = np.sqrt(x.data)
    out = _make(r, (x,), "sqrt")
    if out._parents:
        out._bwd = lambda g: x._accum(g / (2.0 * r))
    return out


def exp(x):
    e = np.exp(x.data)
    out = _make(e, (x,), "exp")
    if out._parents:
        out._bwd = lambda g: x._accum(g * e)
    return out


# -- reductions --------------------------------------------------------------

def _axes(x, axis):
    if axis is None:
        return tuple(range(x.ndim))
    return (axis,) if isinstance(axis, int) else tuple(axis)


def sum_(x, axis=None, keepdims=False):
    out = _make(np.sum(x.data, axis=axis, keepdims=keepdims, dtype=x.dtype), (x,), "sum")
    if out._parents:
        def bwd(g):
            gs = g if keepdims else np.expand_dims(g, _axes(x, axis))
            x._accum(np.broadcast_to(gs, x.shape))
        out._bwd = bwd
    return out


def mean(x, axis=None, keepdims=False):
    n = int(np.prod([x.shape[a] for a in _axes(x, axis)]))
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape manipulation -------------------------------------------------------

def reshape(x, shape):
    out = _make(x.data.reshape(shape), (x,), "reshape")
    if out._parents:
        out._bwd = lambda g: x._accum(g.reshape(x.shape))
    return out


def transpose(x, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = _make(x.data.transpose(axes), (x,), "transpose")
    if out._parents:
        out._bwd = lambda g: x._accum(g.transpose(inv))
    return out


def broadcast_to(x, shape):
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as e:
        raise TensorError(f"broadcast_to: {x.shape} -> {shape}: {e}") from None
    out = _make(data, (x,), "broadcast_to")
    if out._parents:
        def bwd(g):
            extra = g.ndim - x.ndim
            if extra:
                g = g.sum(axis=tuple(range(extra)), dtype=g.dtype)
            keep = tuple(i for i, (sx, sg) in enumerate(zip(x.shape, g.shape)) if sx == 1 and sg != 1)
            if keep:
                g = g.sum(axis=keep, keepdims=True, dtype=g.dtype)
            x._accum(g)
        out._bwd = bwd
    return out


def concat(tensors, axis):
    tensors = list(tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat")
    if out._parents:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def bwd(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t._tracked:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    t._accum(g[tuple(idx)])
        out._bwd = bwd
    return out


def split(x, sizes, axis):
    """Split along `axis` into consecutive chunks of the given sizes."""
    if sum(sizes) != x.shape[axis]:
        raise TensorError(f"split: sizes {sizes} do not cover axis {axis} of {x.shape}")
    outs = []
    offsets = np.cumsum([0] + list(sizes))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(int(lo), int(hi))
        idx = tuple(idx)
        piece = _make(x.data[idx], (x,), "split")
        if piece._parents:
            def bwd(g, idx=idx):
                full = np.zeros(x.shape, dtype=g.dtype)
                full[idx] = g
                x._accum(full)
            piece._bwd = bwd
        outs.append(piece)
    return outs


# -- nonlinearities ------------------------------------------------------------

def silu(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = _make(x.data * s, (x,), "silu")
    if out._parents:
        del s  # recomputed in backward; cheaper than retaining a copy per call

        def bwd(g):
            s = 1.0 / (1.0 + np.exp(-x.data))
            x._accum(g * (s * (1.0 + x.data * (1.0 - s))))
        out._bwd = bwd
    return out


def softmax(x, axis):
    if not -x.ndim <= axis < x.ndim:
        raise TensorError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = _make(y, (x,), "softmax")
    if out._parents:
        def bwd(g):
            dot = np.sum(g * y, axis=axis, keepdims=True)
            x._accum(y * (g - dot))
        out._bwd = bwd
    return out


# -- matmul ---------------------------------------------------------------------

def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise TensorError(f"matmul: incompatible ranks/batch dims {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise TensorError(f"matmul: inner dims differ {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b), "matmul")
    if out._parents:
        def bwd(g):
            if a._tracked:
                a._accum(g @ np.swapaxes(b.data, -1, -2))
            if b._tracked:
                b._accum(np.swapaxes(a.data, -1, -2) @ g)
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

    Patches are gathered into an [N, C*k*k, Ho*Wo] matrix whose reshapes are
    all free (axis-aligned copies only), then contracted with BLAS.
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
    p = _same_pad(kh, "conv2d")
    s = stride
    ho = (h - 1) // s + 1
    wo = (wd - 1) // s + 1
    # channels-first patch matrix [C*k*k, N*M]: the transpose is paid once on
    # an input-sized array, every patch copy is axis-aligned, and the whole
    # contraction is a single fat GEMM instead of N skinny ones
    def im2col_cn(src_cn):
        if kh == 1 and s == 1:
            return src_cn.reshape(c, n * ho * wo)
        cols = np.empty((c, kh, kw, n, ho, wo), dtype=src_cn.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = src_cn[:, :, i:i + s * ho:s, j:j + s * wo:s]
        return cols.reshape(c * kh * kw, n * ho * wo)

    def pad_cn(arr):
        xcn = arr.transpose(1, 0, 2, 3)
        if not p:
            return np.ascontiguousarray(xcn)
        padded = np.zeros((c, n, h + 2 * p, wd + 2 * p), dtype=arr.dtype)
        padded[:, :, p:-p, p:-p] = xcn
        return padded

    xcn = pad_cn(x.data)
    cols2 = im2col_cn(xcn)
    w2 = w.data.reshape(f, c * kh * kw)
    out2 = w2 @ cols2  # [F, N*M]
    if b is not None:
        out2 += b.data[:, None]
    data = out2.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)
    parents = (x, w) if b is None else (x, w, b)
    out = _make(np.ascontiguousarray(data), parents, "conv2d")
    if out._parents:
        del cols2, xcn, data  # rebuilt in backward; retaining them per-conv is costly

        def bwd(g):
            gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, n * ho * wo)
            if b is not None and b._tracked:
                b._accum(gt.sum(axis=1, dtype=g.dtype))
            if w._tracked:
                gw = gt @ im2col_cn(pad_cn(x.data)).T.astype(g.dtype, copy=False)
                w._accum(gw.reshape(f, c, kh, kw))
            if x._tracked:
                gcols = w2.T.astype(g.dtype, copy=False) @ gt
                if kh == 1 and s == 1:
                    gx = gcols.reshape(c, n, ho, wo)
                else:
                    gcols = gcols.reshape(c, kh, kw, n, ho, wo)
                    gx = np.zeros((c, n, h + 2 * p, wd + 2 * p), dtype=g.dtype)
                    for i in range(kh):
                        for j in range(kw):
                            gx[:, :, i:i + s * ho:s, j:j + s * wo:s] += gcols[:, i, j]
                    if p:
                        gx = gx[:, :, p:-p, p:-p]
                x._accum(gx.transpose(1, 0, 2, 3))
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
    # Plane by plane, so that the work buffers stay small enough to be reused
    # from the heap rather than faulted in afresh. The edge-padded plane,
    # flat, plus a zero tail makes the shift (i, j) of every window one
    # contiguous slice; positions whose window wraps past a row are computed
    # too and dropped when the result is copied out.
    size = hp * wp
    for src, dst in zip(x.data.reshape(n * c, h, w), data.reshape(n * c, h, w)):
        flat = np.zeros(size + (kernel - 1) * (wp + 1), dtype=x.dtype)
        xp = flat[:size].reshape(hp, wp)
        xp[p:p + h, p:p + w] = src
        if p:
            xp[p:p + h, :p] = src[:, :1]
            xp[p:p + h, p + w:] = src[:, -1:]
            xp[:p] = xp[p]
            xp[p + h:] = xp[p + h - 1]
        terms = [flat[i * wp + j:i * wp + j + size] for i in range(kernel) for j in range(kernel)]
        acc = _pairwise_sum(terms) if kind == "avg" else functools.reduce(np.maximum, terms)
        win = acc.reshape(hp, wp)[:h, :w]
        dst[...] = win / (kernel * kernel) if kind == "avg" else win
    return _make(data, (), "pool2d")


# -- group normalization ---------------------------------------------------------------

def group_norm(x, groups, eps=1e-5):
    """Per (sample, group) zero-mean unit-variance normalization, no affine."""
    if x.ndim != 4:
        raise TensorError(f"group_norm: need 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if eps <= 0:
        raise TensorError(f"group_norm: eps must be > 0, got {eps}")
    if groups < 1 or c % groups != 0:
        raise TensorError(f"group_norm: {c} channels not divisible by {groups} groups")
    m = (c // groups) * h * w
    xr = x.data.reshape(n, groups, m)
    mu = xr.mean(axis=-1, keepdims=True, dtype=x.dtype)
    xc = xr - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True, dtype=x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    y = xc * inv
    out = _make(y.reshape(n, c, h, w), (x,), "group_norm")
    if out._parents:
        ydata = out.data  # capture the array, not the Tensor (no reference cycle)
        del y, xc

        def bwd(g):
            yr = ydata.reshape(n, groups, m)
            gr = g.reshape(n, groups, m)
            gm = gr.mean(axis=-1, keepdims=True, dtype=g.dtype)
            gy = np.mean(gr * yr, axis=-1, keepdims=True, dtype=g.dtype)
            x._accum((inv * (gr - gm - yr * gy)).reshape(x.shape))
        out._bwd = bwd
    return out


# -- resampling --------------------------------------------------------------------------

def upsample_nearest2(x):
    """Nearest-neighbor 2x spatial upsampling."""
    if x.ndim != 4:
        raise TensorError(f"upsample_nearest2: need 4-d input, got {x.shape}")
    d = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    out = _make(d, (x,), "upsample_nearest2")
    if out._parents:
        n, c, h, w = x.shape

        def bwd(g):
            x._accum(g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5), dtype=g.dtype))
        out._bwd = bwd
    return out


# -- gradient checking ---------------------------------------------------------------------

def gradcheck(fn, inputs, rtol=1e-4, h=1e-5, atol=1e-7):
    """Compare analytic gradients of scalar fn(*inputs) with central differences.

    Inputs are promoted to float64. Returns the worst relative error; raises
    AssertionError when any element violates |a - n| <= atol + rtol*|n|.
    """
    ts = [Tensor(np.asarray(i.data if isinstance(i, Tensor) else i, dtype=np.float64).copy(),
                 requires_grad=True) for i in inputs]
    out = fn(*ts)
    out.backward()
    worst = 0.0
    for t in ts:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(*[Tensor(u.data) for u in ts]).item()
            flat[i] = orig - h
            fm = fn(*[Tensor(u.data) for u in ts]).item()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)
        err = np.abs(analytic - numeric)
        bound = atol + rtol * np.abs(numeric)
        if np.any(err > bound):
            k = int(np.argmax(err - bound))
            raise AssertionError(
                f"gradcheck failed: analytic {analytic.reshape(-1)[k]:.8g} vs numeric "
                f"{numeric.reshape(-1)[k]:.8g} (|diff| {err.reshape(-1)[k]:.3g})")
        denom = np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(err / denom)))
    return worst
