"""Randomized gradient-check cases covering every differentiable tensor op.

Each case builds a scalar loss through one op (plus a fixed random projection
so every output element matters) and is verified against central finite
differences at float64.
"""
import numpy as np

from semcom import tensor as T


def gradcheck(fn, inputs, rtol=1e-4, h=1e-5, atol=1e-7):
    """Compare analytic gradients of scalar fn(*inputs) with central differences.

    Inputs are promoted to float64. Returns the worst relative error; raises
    AssertionError when any element violates |a - n| <= atol + rtol*|n|.
    """
    ts = [T.Tensor(np.asarray(i.data if isinstance(i, T.Tensor) else i, dtype=np.float64).copy(),
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
            fp = fn(*[T.Tensor(u.data) for u in ts]).item()
            flat[i] = orig - h
            fm = fn(*[T.Tensor(u.data) for u in ts]).item()
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


def _projector(rng, shape):
    """Fixed random projection so every output element matters; frozen per case."""
    w = rng.uniform(0.2, 1.0, size=shape)

    def loss(out):
        return T.sum_(T.mul(out, T.Tensor(np.asarray(w, dtype=out.dtype))))
    return loss


def _rand(rng, *shape):
    return rng.uniform(-1.5, 1.5, size=shape)


def _rand_pos(rng, *shape):
    return rng.uniform(0.5, 2.0, size=shape)


def build_cases(rng):
    """Return a list of (op_name, fn, inputs) gradcheck cases."""
    cases = []

    def proj(*shape):
        return _projector(rng, shape)

    a = _rand(rng, 3, 4)
    b = _rand(rng, 3, 4)
    p34 = proj(3, 4)
    cases.append(("add", lambda x, y: p34(T.add(x, y)), [a, b]))
    cases.append(("sub", lambda x, y: p34(T.sub(x, y)), [a, b]))
    cases.append(("mul", lambda x, y: p34(T.mul(x, y)), [a, b]))
    cases.append(("div", lambda x, y: p34(T.div(x, y)), [_rand(rng, 3, 4), _rand_pos(rng, 3, 4)]))
    p25 = proj(2, 5)
    cases.append(("scalar_ops", lambda x: p25(T.add(T.mul(x, 0.7), 0.3)), [_rand(rng, 2, 5)]))
    cases.append(("size1_operand", lambda x, y: p34(T.div(T.mul(x, y), T.add(y, 2.0))),
                  [_rand(rng, 3, 4), _rand(rng, 1, 1)]))
    p33 = proj(3, 3)
    cases.append(("square", lambda x: p33(T.square(x)), [_rand(rng, 3, 3)]))
    cases.append(("sqrt", lambda x: p33(T.sqrt(x)), [_rand_pos(rng, 3, 3)]))
    cases.append(("exp", lambda x: p33(T.exp(x)), [_rand(rng, 3, 3)]))

    p2214 = proj(2, 2, 1, 4)
    # the reduction that AttentionBlock._unit differentiates
    cases.append(("sum_axis", lambda x: p2214(T.sum_(x, axis=2)), [_rand(rng, 2, 2, 3, 4)]))
    p46 = proj(4, 6)
    cases.append(("reshape", lambda x: p46(T.reshape(x, (4, 6))), [_rand(rng, 2, 3, 4)]))
    p435 = proj(4, 3, 5)
    for small in ((1, 3, 1), (4, 1, 1)):
        cases.append((f"mul_broadcast{small}", lambda x, y: p435(T.mul(x, y)),
                      [_rand(rng, 4, 3, 5), _rand(rng, *small)]))
        cases.append((f"add_broadcast{small}", lambda x, y: p435(T.add(x, y)),
                      [_rand(rng, *small), _rand(rng, 4, 3, 5)]))
    pcat = proj(2, 5)
    cases.append(("concat", lambda x, y: pcat(T.concat(x, y)),
                  [_rand(rng, 2, 3), _rand(rng, 2, 2)]))
    pfirst, psecond = proj(2, 3), proj(2, 3)

    def both_halves(x):
        first, second = T.halves(x)
        return T.add(pfirst(first), psecond(second))
    cases.append(("halves", both_halves, [_rand(rng, 2, 6)]))

    pmm = proj(3, 2)
    cases.append(("matmul2d", lambda x, y: pmm(T.matmul(x, y)),
                  [_rand(rng, 3, 4), _rand(rng, 4, 2)]))

    cases.append(("silu", lambda x: p34(T.silu(x)), [_rand(rng, 3, 4)]))
    # d 3 and S 4 differ, so a rule that swaps the two axes cannot pass
    patt = proj(2, 2, 3, 4)
    cases.append(("attention", lambda f, g, v: patt(T.attention(f, g, v)),
                  [_rand(rng, 2, 2, 3, 4), _rand(rng, 2, 2, 3, 4), _rand(rng, 2, 2, 3, 4)]))
    pgn = proj(2, 4, 3, 3)
    cases.append(("group_norm", lambda x: pgn(T.group_norm(x, groups=2)),
                  [_rand(rng, 2, 4, 3, 3)]))

    pc1 = proj(1, 3, 5, 5)
    cases.append(("conv2d_same", lambda x, w, b: pc1(T.conv2d(x, w, b)),
                  [_rand(rng, 1, 2, 5, 5), _rand(rng, 3, 2, 3, 3), _rand(rng, 3)]))
    pc2 = proj(1, 2, 3, 3)
    cases.append(("conv2d_stride2", lambda x, w, b: pc2(T.conv2d(x, w, b, stride=2)),
                  [_rand(rng, 1, 2, 6, 6), _rand(rng, 2, 2, 3, 3), _rand(rng, 2)]))
    pc4 = proj(2, 2, 4, 4)
    cases.append(("conv2d_1x1", lambda x, w, b: pc4(T.conv2d(x, w, b)),
                  [_rand(rng, 2, 3, 4, 4), _rand(rng, 2, 3, 1, 1), _rand(rng, 2)]))
    # batch 2 on maps of odd, unequal sides: taps of the padded-grid col2im
    # run past a row's end and past a sample's plane into the next one
    pc5 = proj(2, 2, 6, 7)
    cases.append(("conv2d_5x5_batch2", lambda x, w, b: pc5(T.conv2d(x, w, b)),
                  [_rand(rng, 2, 2, 6, 7), _rand(rng, 2, 2, 5, 5), _rand(rng, 2)]))
    pc6 = proj(2, 3, 4, 3)
    cases.append(("conv2d_stride2_batch2", lambda x, w, b: pc6(T.conv2d(x, w, b, stride=2)),
                  [_rand(rng, 2, 2, 7, 5), _rand(rng, 3, 2, 3, 3), _rand(rng, 3)]))

    pup = proj(1, 2, 6, 6)
    cases.append(("upsample_nearest2", lambda x: pup(T.upsample_nearest2(x)),
                  [_rand(rng, 1, 2, 3, 3)]))
    cases.append(("mean", T.mean, [_rand(rng, 3, 4)]))  # scalar already: no projection
    return cases


def run_suite(cases_per_op, seed=0):
    """Run the randomized gradcheck suite; returns (num_checks, worst_rel_err)."""
    worst = 0.0
    count = 0
    for i in range(cases_per_op):
        rng = np.random.default_rng(seed + i)
        for name, fn, inputs in build_cases(rng):
            err = gradcheck(fn, [T.Tensor(np.asarray(x)) for x in inputs])
            worst = max(worst, err)
            count += 1
    return count, worst
