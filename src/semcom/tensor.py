"""Minimal numpy-backed tensors with reverse-mode automatic differentiation.

Supplies exactly the operations the conditional U-Net and its losses need,
each with one way to call it:

- add/sub/mul/div take operands of the same shape, one operand of size 1
  (a python scalar included) whose rank is no higher than the other's, or
  operands of equal rank where one operand's every axis is 1 or the other's
  extent. The result has the larger operand's shape; two operands that would
  each broadcast along some axis are refused.
- conv2d (zero padding, optional stride) and pool2d (a window mean, edge
  padding, stride 1) pad "same", take odd kernels only and treat each padded
  plane as flat, so that one kernel tap of every window is one contiguous
  slice: pool2d in its forward, and conv2d in the col2im of its input
  gradient, where each plane runs on into a zero tail so that a tap of
  every window of all of a sample's channels is one contiguous block.
- sum_(x) sums every value; sum_(x, axis) sums one axis and keeps it at
  extent 1. concat(a, b) joins two tensors along the channel axis (axis 1),
  and halves(x) returns the two halves of that axis. matmul(a, b, bias) is
  a @ b of two matrices plus an optional bias row; no batched products.
- attention(f, g, v) is the whole softmax attention of [N, heads, d, S]
  operands in one op, computed one (sample, head) block of S x S weights at
  a time; there is no separate softmax or transpose.
- pool2d (the receiver's average pool) is forward only, on plain [C, H, W]
  arrays; it stays here because the benchmark's tracer wraps `T.pool2d`.

Every differentiable op but conv2d, matmul and attention builds its node
through _op, from its forward value and one gradient rule per operand. The
three set one fused rule on a _make node instead, because one backward pass
yields all of their gradients: attention walks each block once, conv2d frees
the weight GEMM's patch matrix before its input-gradient GEMM runs, and
conv2d and matmul take their weight and bias gradients in one call.

A tracked Tensor is a value (.data) plus a graph node. The node holds the
gradient slot, the gradient rule and the nodes of the parents; each rule
captures exactly the arrays it reads (conv2d its input and weight, silu and
square their inputs, mul/div/matmul their operands, exp/sqrt/group_norm
their own outputs, attention its weights and its three operands) and never a
parent Tensor. A graph therefore keeps its nodes plus the arrays its rules
read: an output that no rule reads is freed as soon as the forward drops it.
no_grad builds no node at all.

Grad mode (no_grad) and the scope stack are per thread, so two threads can
run forwards at once; each new thread starts with grad on and no scope.
`split_batch` runs the two halves of a batch of four or more that way: the
sampler runs each half's guided step in its own thread, and the trainer each
half's forward and then its backward. Each op computes every sample on its
own (per-sample conv GEMMs, per-sample group norm and attention, matmul
rows), so a half's values and gradients equal its rows of the whole batch
(see `split_batch` for what was checked). Only the weight and bias
gradients of conv2d and matmul contract over the batch. In a half's
backward they meet the other half's twin, numbered in the order the walk
reaches them, and run once on the whole batch (see `_over_batch`), so every
parameter still gets one whole-batch accumulation per use.

A graph is consumed by its backward (Tensor.backward, or backward_from for
several outputs with given gradients), which frees each node once its
gradient rule has run; a second backward through it raises. Leaves
(parameters) keep accumulating .grad across graphs.

Every forward result is checked for NaN/Inf. Training runs in float32;
gradient checking promotes to float64.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class TensorError(ValueError):
    """Shape/usage violation in a tensor operation."""


class NonFiniteError(ArithmeticError):
    """A forward operation produced NaN or Inf."""


class _ThreadState(threading.local):
    """Grad mode, scope stack and batch half, one of each per thread:
    `split_batch` runs the two halves of a batch in two threads, and a no_grad
    or scope that one of them enters (or leaves by an exception) must not
    reach the other. `half` is (split, k, keys) while this thread runs part k
    of a BatchSplit, else None."""

    def __init__(self):
        self.grad_enabled = True
        self.scope = []
        self.half = None


_state = _ThreadState()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction in this thread (forward passes only)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextlib.contextmanager
def scope(name):
    """Label a region of this thread's forward pass for non-finite diagnostics."""
    _state.scope.append(name)
    try:
        yield
    finally:
        _state.scope.pop()


class BatchSplit:
    """The parts a batch runs in: [0, n//2) and [n//2, n) for n of four or
    more, else one part, the whole batch; made by `split_batch`.

    run(fn) returns [fn(k, part) for each part k]. With two parts the
    second runs in the worker thread while the calling thread runs the
    first, and the worker is always waited for, even when the first part
    raised. Each thread keeps its own grad mode and scope stack, and runs
    its part with this split as its half.

    It is also where the halves' weight and bias gradients of conv2d and
    matmul meet (see `_over_batch`). Both halves walk the same graph in the
    same order, so the n-th such call of one walk is the twin of the other's
    n-th. The half that calls first leaves its operands in `slots` and goes
    on. When the twin arrives, the gradient from both halves' operands joins
    `ready`, and whichever half next ends a gradient rule computes it, so the
    weight GEMMs do not all fall on the half that runs behind. One is computed
    at a time, since each holds a whole-batch transient (conv2d's patch
    matrix), and no thread waits for the other. A part computes what is still
    ready before it returns, so `run` returns with every gradient accumulated.
    """

    def __init__(self, n, pool):
        self.parts = [slice(0, n // 2), slice(n // 2, n)] if pool is not None else [slice(0, n)]
        self._pool = pool
        self._lock = threading.Lock()
        self.slots = {}  # rule number -> operands left by the half whose rule ran first
        self.ready = []  # gradients whose operands have both arrived, each a call that accumulates it
        self._busy = False  # a thread is computing one of them

    def run(self, fn):
        if self._pool is None:
            return [fn(0, self.parts[0])]
        second = self._pool.submit(self._half, fn, 1)
        try:
            first = self._half(fn, 0)
        finally:
            wait([second])  # never leave the worker running, even when the first half raised
        return [first, second.result()]

    def _half(self, fn, k):
        prev, _state.half = _state.half, (self, k, itertools.count())
        try:
            out = fn(k, self.parts[k])
            self.run_ready()
            return out
        finally:
            _state.half = prev

    def meet(self, key, k, operands, accumulate):
        """Half k's rule `key` with its operands: accumulate(first half's
        operands, second half's) joins `ready` once both twins have met."""
        with self._lock:
            other = self.slots.pop(key, None)
            if other is None:
                self.slots[key] = operands
            else:
                self.ready.append(functools.partial(accumulate, *((other, operands) if k else (operands, other))))

    def run_ready(self):
        """Compute the ready gradients, unless another thread is computing one."""
        while True:
            with self._lock:
                if self._busy or not self.ready:
                    return
                job = self.ready.pop(0)
                self._busy = True
            try:
                job()
            finally:
                with self._lock:
                    self._busy = False


@contextlib.contextmanager
def split_batch(n):
    """A BatchSplit of a batch of n, with a one-worker pool when n >= 4.

    The two halves' values and gradients equal their rows of the whole
    batch, bit for bit, because every op computes each sample on its own:
    conv2d one GEMM per sample, group norm per (sample, group), attention per
    (sample, head), and matmul per row. A matmul row has the same bits in a
    GEMM of 2 to 32 rows as in the whole batch's GEMM (checked with OpenBLAS
    at the U-Net's widths, for halves of batches up to 64); numpy sends a
    one-row product to gemv instead, whose sums can differ in the last bit,
    so batches below four are not split. Only the weight and bias gradients
    of conv2d and matmul sum over the batch, and they run once on the whole
    batch (see `_over_batch`); div's rule keeps its gradient's layout at
    every batch size, so the per-sample sums that follow add in one order.
    Each parameter gradient is then the whole batch's, as long as the halves
    share no node but parameters, each a weight or bias of conv2d or matmul
    used once per forward, as in the U-Net: the twins of a second use could
    accumulate in either thread and in either order.

    The pool is made per call: a module-level one would need a fork hook and
    would share one worker among concurrent callers, to save one thread
    start. On exit the worker is joined and no slot keeps operands.
    """
    if n < 4:
        yield BatchSplit(n, None)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        split = BatchSplit(n, pool)
        try:
            yield split
        finally:
            split.slots.clear()
            split.ready.clear()


def _over_batch(grads, nodes, *operands):
    """Accumulate grads(*parts) into nodes (None nodes are skipped), for
    the weight and bias gradients of conv2d and matmul, which contract over
    the batch: each operand reaches grads as a tuple of its parts in batch
    order, which `_join` joins. Outside a half of a BatchSplit each tuple
    holds the graph's one part and the gradients accumulate at once. In a
    half the call takes the half's next number in its backward walk and the
    gradients accumulate once the twin has met it, from the whole batch's
    operands (see BatchSplit). The nodes must then be leaves: a gradient
    queued for an interior node could arrive after its rule has run.
    """
    def accumulate(*parts):
        for node, grad in zip(nodes, grads(*parts)):
            if node is not None:
                node.accum(grad)
    if _state.half is None:
        return accumulate(*((x,) for x in operands))
    if any(node is not None and node.rule is not None for node in nodes):
        raise TensorError("a gradient over a split batch would reach an interior node, not a parameter")
    split, k, keys = _state.half
    split.meet(next(keys), k, operands, lambda first, second: accumulate(*zip(first, second)))


def _join(parts, axis=0):
    """The parts of a batch as one array (the part itself when it is the whole)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


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
        backward_from([self], [np.ones_like(self.data)])


def backward_from(outputs, grads):
    """Tensor.backward from several tracked outputs, each given the gradient
    of its value (an array of its shape).

    The nodes run in reverse post-order of a depth-first walk from the
    outputs in turn, so an ancestor below a single node (the U-Net's heads
    share their parent) is walked in the order a backward from a loss over
    them would take, and its gradients add up in that order. A walk in one
    half of a BatchSplit computes the ready whole-batch gradients between
    its rules.
    """
    roots = [t._node for t in outputs]
    if any(root is None for root in roots):
        raise TensorError("backward of a value that no tracked tensor produced")
    for t, g in zip(outputs, grads):
        if g.shape != t.shape:
            raise TensorError(f"backward_from: gradient of shape {g.shape} for a value of shape {t.shape}")
    topo = []
    seen = set()
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
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
    for root, g in zip(roots, grads):
        root.accum(g)
    half = _state.half
    while topo:
        node = topo.pop()
        if node.rule is None:  # a leaf
            continue
        if node.grad is not None:
            node.rule(node.grad)
            if half is not None:
                half[0].run_ready()
        node.grad = None
        node.rule = _released
        node.parents = ()


def _released(g):
    """The rule a released node keeps: a gradient reaching it would be lost."""
    raise TensorError("backward through a graph that an earlier backward consumed")


def _nonfinite(op):
    where = "/".join(_state.scope) or "<top>"
    return NonFiniteError(f"non-finite values produced by {op} in {where}")


def _make(data, parents, op):
    """Wrap a forward result, with a node when grad is on and a parent is tracked.

    A non-empty result is checked for NaN/Inf. When out._tracked, the caller
    sets the node's rule (out._bwd): _op a rule per operand, conv2d and
    attention one fused rule for all of theirs.
    """
    # max and min propagate NaN, cannot overflow (so never warn or raise under
    # np.seterr) and need no boolean temporary: an exact and cheap check
    if data.size and not (np.isfinite(data.max()) and np.isfinite(data.min())):
        raise _nonfinite(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _state.grad_enabled:
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
    """True when `small` broadcasts to `big` as add/sub/mul/div allow."""
    if small.size == 1:
        return small.ndim <= big.ndim
    return small.ndim == big.ndim and all(s in (1, b) for s, b in zip(small.shape, big.shape))


def _op(parents, data, op, *rules):
    """Wrap the forward value of an op; when a graph is built, rules[i](g)
    gives the gradient of parents[i] from the arrays that rule captured,
    summed down to that parent's shape (see _reduce_to). These rules never
    meet (see _over_batch): in a half of a split batch each tracked operand
    must have the batch axis, as every one in the U-Net has."""
    out = _make(data, parents, op)
    if out._tracked:
        nodes = tuple(p._node for p in parents)
        shapes = tuple(p.shape for p in parents)

        def bwd(g):
            for node, shape, rule in zip(nodes, shapes, rules):
                if node is not None:
                    node.accum(_reduce_to(rule(g), shape))
        out._bwd = bwd
    return out


# -- elementwise arithmetic ------------------------------------------------
# Each rule is g -> d(out)/d(operand) * g, summed down to the operand's shape.

def _operands(a, b, op):
    """a and b as Tensors (a python scalar takes the other's dtype), refused
    unless they broadcast as add/sub/mul/div allow."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype if isinstance(b, Tensor) else np.float32))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape and not (_broadcasts(a, b) or _broadcasts(b, a)):
        raise TensorError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast "
                          "(one operand must be size 1 or of equal rank with axes 1 or equal)")
    return a, b


def add(a, b):
    a, b = _operands(a, b, "add")
    return _op((a, b), a.data + b.data, "add", lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _operands(a, b, "sub")
    return _op((a, b), a.data - b.data, "sub", lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _operands(a, b, "mul")
    ad, bd = a.data, b.data
    return _op((a, b), ad * bd, "mul", lambda g: g * bd, lambda g: g * ad)


def div(a, b):
    a, b = _operands(a, b, "div")
    ad, bd = a.data, b.data

    def rule_b(g):
        # -g * ad / (bd * bd), laid out as g at every batch size: numpy lays
        # out g * ad as g from batch 4 on but in C order below when g is a
        # transposed view (attention's gradient of f), and the sum down to
        # b's shape adds in memory order
        r = np.multiply(g, ad, out=np.empty_like(g, dtype=np.result_type(g, ad, bd)))
        np.negative(r, out=r)
        return np.divide(r, bd * bd, out=r)
    return _op((a, b), ad / bd, "div", lambda g: g / bd, rule_b)


def square(x):
    xd = x.data
    return _op((x,), xd * xd, "square", lambda g: 2.0 * xd * g)


def sqrt(x):
    r = np.sqrt(x.data)
    return _op((x,), r, "sqrt", lambda g: g / (2.0 * r))


def exp(x):
    e = np.exp(x.data)
    return _op((x,), e, "exp", lambda g: g * e)


# -- reductions --------------------------------------------------------------

def sum_(x, axis=None):
    """Sum of every value, or of one axis, which is kept at extent 1."""
    shape = x.shape
    data = np.sum(x.data, axis=axis, keepdims=axis is not None, dtype=x.dtype)
    return _op((x,), data, "sum", lambda g: np.broadcast_to(g, shape))


def mean(x):
    return mul(sum_(x), 1.0 / x.size)


# -- shape manipulation -------------------------------------------------------

def reshape(x, shape):
    xshape = x.shape
    return _op((x,), x.data.reshape(shape), "reshape", lambda g: g.reshape(xshape))


def concat(a, b):
    """Join a and b along the channel axis (axis 1)."""
    ca = a.shape[1]
    return _op((a, b), np.concatenate([a.data, b.data], axis=1), "concat",
               lambda g: g[:, :ca], lambda g: g[:, ca:])


def halves(x):
    """The first and the second half of x along the channel axis (axis 1)."""
    if x.ndim < 2 or x.shape[1] % 2:
        raise TensorError(f"halves: need an even channel axis (axis 1), got shape {x.shape}")
    shape, c = x.shape, x.shape[1] // 2

    def half(part):
        def rule(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[:, part] = g
            return full
        return _op((x,), x.data[:, part], "halves", rule)
    return half(slice(0, c)), half(slice(c, 2 * c))


# -- nonlinearities ------------------------------------------------------------

def silu(x):
    xd = x.data
    # s stays a named local: inline, numpy would write the product into the
    # sigmoid's temporary, which raised training's peak RSS. The rule
    # recomputes s, which is cheaper than retaining a copy per call.
    s = 1.0 / (1.0 + np.exp(-xd))

    def rule(g):
        s = 1.0 / (1.0 + np.exp(-xd))
        return g * (s * (1.0 + xd * (1.0 - s)))
    return _op((x,), xd * s, "silu", rule)


# -- matmul ---------------------------------------------------------------------

def matmul(a, b, bias=None):
    """[m, k] @ [k, n] plus a bias [n] in each row when given. The gradients
    of b and the bias sum over the rows, the batch, in one `_over_batch`
    call, also when the bias is the only tracked operand."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul: need matrices [m, k] @ [k, n], got {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != b.shape[1:]:
        raise TensorError(f"matmul: bias shape {bias.shape} does not match {b.shape[1]} columns")
    ad, bd = a.data, b.data
    data = ad @ bd
    if bias is not None:
        data += bias.data
    out = _make(data, (a, b) if bias is None else (a, b, bias), "matmul")
    if out._tracked:
        an, bn, cn = a._node, b._node, None if bias is None else bias._node

        def param_grads(ads, gs):
            g = _join(gs)
            return (_join(ads).T @ g if bn is not None else None,
                    g.sum(axis=0, dtype=g.dtype) if cn is not None else None)

        def bwd(g):
            if bn is not None or cn is not None:
                _over_batch(param_grads, (bn, cn), ad, g)
            if an is not None:
                an.accum(g @ bd.T)
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
    chain's GEMMs, reductions and elementwise rules on the same layouts, but
    for the weights' gradient, which the chain took as the transpose of
    vᵀ go and the rule computes as goᵀ v: the same products summed in the
    same order, so that the softmax rule reads it in memory order. The
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
    keep = _state.grad_enabled and any(t._node is not None for t in (f, g, v))
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
                    # dA = goᵀ v, then softmax's rule y * (dA - Σ dA·y)
                    np.matmul(gk.T, vd[k, h], out=dat)
                    np.multiply(dat, y, out=dm)
                    dot = dm.sum(axis=-1, keepdims=True)
                    np.multiply(y, np.subtract(dat, dot, out=dm), out=dm)
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

BAND_COLUMNS = 512  # output columns (Ho*Wo positions) per forward GEMM at most
BAND_CHANNELS = 32  # input channels per weight-gradient GEMM of a k > 1 kernel at most


def conv2d(x, w, b=None, stride=1):
    """Cross-correlation with "same" zero padding; differentiable in x, w, b.

    Patches are gathered channels-first into a [C*k*k, m*rows*Wo] matrix of
    m samples and a band of output rows, in one copy from a read-only strided
    view [C, k, k, m, rows, Wo] of the zero-padded input, then contracted
    with BLAS. (k*k slice copies would each return to the interpreter, where
    the two threads of a split batch take turns.) The forward runs one GEMM
    per sample and per band of output rows, each band at most BAND_COLUMNS
    output positions (two bands of a 32x32 output, one of 16x16). The patch
    matrix is then one band of one sample instead of N samples, and each
    [F, band] product is written straight into the NCHW output, with no
    transposed copy. The bands bound the largest transient of a forward,
    which matters when the sampler runs two batch halves at once; a band's
    GEMM sums each output column as the whole GEMM does, and two bands take
    about the time of one whole GEMM at the U-Net's shapes. A 1x1 stride-1
    kernel runs one GEMM per sample: its patch matrix is a free view of the
    input, so there is no transient to bound. The bias is added once, over
    the whole output.

    The weight and bias gradients contract over every sample, so they run
    on the whole batch, also when the trainer runs two halves (see
    `_over_batch`). The weight gradient is (cols @ gt.T).T, copied to C
    order; for a kernel above 1x1 it runs one GEMM per band of BAND_CHANNELS
    input channels, k*k*BAND_CHANNELS rows of cols, which bounds the whole
    batch's patch matrix. The input gradient is one C-ordered [N, C, H, W]
    array. A 1x1 stride-1 kernel gets it from one GEMM; any other runs one
    sample at a time. The sample's output gradient is laid at positions
    (s*y, s*x) of a zero [F, Hp*Wp] grid that runs on into a zero tail of
    (k-1)*(Wp+1) columns, and the GEMM takes the weight's rows in tap order,
    [k*k*C, F], so that each tap's product for all C channels is one
    contiguous [C*(Hp*Wp + tail)] block. The col2im is then k*k
    one-dimensional adds per sample, tap (i, j) at offset i*Wp + j of the
    sample's part of one flat buffer of the batch's N*C planes with their
    tails (and one tail more), which is then cropped. (numpy adds into a
    row-strided slice on a slower path: 2.5 to 4 times as long for a
    [32, 1156] float32 block.) Each input element gets its taps' addends in
    (i, j) order, as a strided scatter adds them, plus exact ±0 from the
    zero columns: those of the grid's pad and stride gaps, and those of the
    tail, which land on the first positions of the next channel or sample.
    Such zeros change no bit of a sum that starts at +0.0 and so never holds
    -0.0. At stride 2 the gaps quadruple the GEMM: the desk U-Net's down
    conv (3x3, 32 channels, half batch 2, one BLAS thread, 2-core x86_64)
    takes 1.05 ms to backward at 32x32 and 0.35 ms at 16x16, against 0.80
    and 0.32 ms for a strided scatter (medians of 250).

    All of this sums exactly as gt @ cols.T and a strided scatter of
    [C*k*k, n*Ho*Wo] would, provided the BLAS sums every GEMM row and column
    in one order wherever it sits, also where the tail columns shift the
    GEMM's column tiles. Measured with OpenBLAS 0.3.31 on an AVX-512 x86_64,
    its kernels do for bands of 32 or more channels of a 3x3 or 5x5 kernel
    (not for bands of 8 or 16, nor for bands of a 1x1 kernel, which is
    therefore not banded), and its float32 kernels do for columns; its
    float64 kernel does not for the columns of a last partial tile,
    which may then differ in the last bit.
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

    def pad_cn(*parts):
        """[m, C, H, W] parts -> one zero-padded channels-first [C, sum of m, Hp, Wp]
        (without padding, one part is returned as a transposed view)."""
        if not p:
            return _join([part.transpose(1, 0, 2, 3) for part in parts], axis=1)
        padded = np.zeros((c, sum(map(len, parts)), h + 2 * p, wd + 2 * p), dtype=parts[0].dtype)
        i = 0
        for part in parts:
            padded[:, i:i + len(part), p:-p, p:-p] = part.transpose(1, 0, 2, 3)
            i += len(part)
        return padded

    def im2col(src, r0=0, r1=ho):
        """Patch matrix [C'*k*k, m*(r1-r0)*Wo] of output rows [r0, r1) of a padded slice [C', m, Hp, Wp]."""
        cs, m, rows = src.shape[0], src.shape[1], r1 - r0
        if kh == 1 and s == 1:
            return src[:, :, r0:r1].reshape(cs, m * rows * wo)
        # a read-only view [C', k, k, m, rows, Wo] of every patch value, whose
        # reshape is the one copy: one pass over the band, not k*k slice copies
        sc, sm, sh, sw = src.strides
        view = np.lib.stride_tricks.as_strided(
            src[:, :, s * r0:], (cs, kh, kw, m, rows, wo), (sc, sh, sw, sm, s * sh, s * sw), writeable=False)
        return view.reshape(cs * kh * kw, m * rows * wo)

    w2 = w.data.reshape(f, c * kh * kw)
    data = np.empty((n, f, ho, wo), dtype=np.result_type(x.data, w.data))
    # output rows per forward GEMM; a 1x1 stride-1 patch matrix is a free view, with no transient to bound
    band = ho if kh == 1 and s == 1 else max(1, BAND_COLUMNS // wo)
    padded = pad_cn(x.data)
    for k in range(n):
        src = padded[:, k:k + 1]
        out_k = data[k].reshape(f, ho * wo)
        for r0 in range(0, ho, band):
            r1 = min(r0 + band, ho)
            np.matmul(w2, im2col(src, r0, r1), out=out_k[:, r0 * wo:r1 * wo])
    if b is not None:
        data += b.data[:, None, None]
    parents = (x, w) if b is None else (x, w, b)
    out = _make(data, parents, "conv2d")
    if out._tracked:
        xn, wn, bn = x._node, w._node, None if b is None else b._node
        xd = x.data

        def param_grads(xds, gts):
            """Bias and weight gradients (None where untracked) of the samples in the parts of x and gt."""
            gt = _join(gts, axis=1)
            gb = gt.sum(axis=1, dtype=gt.dtype) if bn is not None else None
            if wn is None:
                return gb, None
            # (cols @ gt.T).T: the same sums as gt @ cols.T, faster on the
            # U-Net's shapes, one GEMM per band of input channels (a 1x1
            # kernel's patch matrix is no larger than its input and runs
            # whole); the copy keeps w.grad C-ordered, the memory order that
            # clip_gradients and AdamW reduce in
            src = pad_cn(*xds)
            band = c if kh == 1 else BAND_CHANNELS
            gwt = np.empty((c * kh * kw, f), dtype=gt.dtype)
            for c0 in range(0, c, band):
                rows = slice(c0 * kh * kw, min(c0 + band, c) * kh * kw)
                np.matmul(im2col(src[c0:c0 + band]).astype(gt.dtype, copy=False), gt.T, out=gwt[rows])
            return gb, np.ascontiguousarray(gwt.T).reshape(f, c, kh, kw)

        def bwd(g):
            gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, n * ho * wo)
            if wn is not None or bn is not None:
                _over_batch(param_grads, (bn, wn), xd, gt)
            if xn is None:
                return
            hp, wp = h + 2 * p, wd + 2 * p
            if kh == 1 and s == 1:
                gx = (w2.T.astype(g.dtype, copy=False) @ gt).reshape(c, n, ho, wo).transpose(1, 0, 2, 3)
            else:
                # col2im on the padded grid (see the docstring): g[k] at stride s
                # in a zero [F, Hp*Wp] plane and tail, a GEMM with its rows in tap
                # order, and tap (i, j) of all channels one add at offset i*Wp + j
                del gt  # not read on this path: freed before the buffers are allocated
                plane, tail = hp * wp, (kh - 1) * (wp + 1)
                span = plane + tail
                wtap = w2.reshape(f, c, kh, kw).transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
                wtap = wtap.astype(g.dtype, copy=False)
                gtp = np.zeros((f, span), dtype=g.dtype)
                grid = gtp[:, :plane].reshape(f, hp, wp)[:, :s * ho:s, :s * wo:s]
                flat = np.zeros(n * c * span + tail, dtype=g.dtype)
                for k in range(n):
                    grid[...] = g[k]
                    taps = (wtap @ gtp).reshape(kh * kw, c * span)
                    for t in range(kh * kw):
                        off = k * c * span + (t // kw) * wp + t % kw
                        flat[off:off + c * span] += taps[t]
                    del taps  # before the next sample's is allocated
                del gtp, grid
                gx = flat[:n * c * span].reshape(n, c, span)[:, :, :plane].reshape(n, c, hp, wp)
                gx = gx[:, :, p:hp - p, p:wp - p]
            # one C-ordered array: the rules that receive it read it in memory order
            xn.accum(np.ascontiguousarray(gx))
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


def pool2d(x, kernel):
    """Window-wise mean at stride 1 of a float [C, H, W] array; forward only.

    "same" padding replicates edges (a constant plane pools to itself). The
    kernel*kernel shifted slices of the padded input are added in numpy's
    pairwise order, so the result equals a `mean` over each window.
    """
    if kernel < 1:
        raise TensorError(f"pool2d: kernel must be >= 1, got {kernel}")
    p = _same_pad(kernel, "pool2d")
    c, h, w = x.shape
    hp, wp = h + 2 * p, w + 2 * p
    out = np.empty(x.shape, dtype=x.dtype)
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
    for src, dst in zip(x, out):
        xp[p:p + h, p:p + w] = src
        if p:
            xp[p:p + h, :p] = src[:, :1]
            xp[p:p + h, p + w:] = src[:, -1:]
            xp[:p] = xp[p]
            xp[p + h:] = xp[p + h - 1]
        dst[...] = _pairwise_sum(terms).reshape(hp, wp)[:h, :w] / (kernel * kernel)
    return out


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

    def rule(g):
        gr = g.reshape(n, groups, m)
        gm = gr.mean(axis=-1, keepdims=True, dtype=g.dtype)
        gy = np.mean(gr * y, axis=-1, keepdims=True, dtype=g.dtype)
        return (inv * (gr - gm - y * gy)).reshape(n, c, h, w)
    return _op((x,), y.reshape(n, c, h, w), "group_norm", rule)


# -- resampling --------------------------------------------------------------------------

def upsample_nearest2(x):
    """Nearest-neighbor 2x spatial upsampling.

    The gradient adds each 2x2 block of g as (g00 + g01) + (g10 + g11), then
    +0.0: the order in which numpy's reduction g.reshape(n, c, h, 2, w, 2).sum(
    axis=(3, 5)) adds them at any width above 1, and its +0.0 for four -0.0,
    so the two agree bit for bit, at a tenth of the time on the U-Net's shapes.
    """
    if x.ndim != 4:
        raise TensorError(f"upsample_nearest2: need 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    d = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def rule(g):
        g6 = g.reshape(n, c, h, 2, w, 2)
        gx = g6[:, :, :, 0, :, 0] + g6[:, :, :, 0, :, 1]
        gx += g6[:, :, :, 1, :, 0] + g6[:, :, :, 1, :, 1]
        gx += 0.0
        return gx
    return _op((x,), d, "upsample_nearest2", rule)
