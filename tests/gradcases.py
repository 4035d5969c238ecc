"""Randomized gradient-check cases covering every differentiable tensor op.

Each case builds a scalar loss through one op (plus a fixed random projection
so every output element matters) and is verified against central finite
differences at float64.
"""
import numpy as np

from semcom import tensor as T


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

    p32 = proj(3, 2)
    cases.append(("sum_axis", lambda x: p32(T.sum_(x, axis=1)), [_rand(rng, 3, 4, 2)]))
    p142 = proj(1, 4, 1)
    cases.append(("mean_axis", lambda x: p142(T.mean(x, axis=(0, 2), keepdims=True)), [_rand(rng, 3, 4, 2)]))
    p46 = proj(4, 6)
    cases.append(("reshape", lambda x: p46(T.reshape(x, (4, 6))), [_rand(rng, 2, 3, 4)]))
    p423 = proj(4, 2, 3)
    cases.append(("transpose", lambda x: p423(T.transpose(x, (2, 0, 1))), [_rand(rng, 2, 3, 4)]))
    p435 = proj(4, 3, 5)
    cases.append(("broadcast_to", lambda x: p435(T.broadcast_to(x, (4, 3, 5))), [_rand(rng, 1, 3, 1)]))
    pcat = proj(2, 5)
    cases.append(("concat", lambda x, y: pcat(T.concat([x, y], axis=1)),
                  [_rand(rng, 2, 3), _rand(rng, 2, 2)]))
    psplit = proj(2, 3)
    cases.append(("split", lambda x: psplit(T.split(x, [2, 3], axis=1)[1]), [_rand(rng, 2, 5)]))

    pmm = proj(3, 2)
    cases.append(("matmul2d", lambda x, y: pmm(T.matmul(x, y)),
                  [_rand(rng, 3, 4), _rand(rng, 4, 2)]))
    pbmm = proj(2, 2, 3, 2)
    cases.append(("matmul_batched", lambda x, y: pbmm(T.matmul(x, y)),
                  [_rand(rng, 2, 2, 3, 4), _rand(rng, 2, 2, 4, 2)]))

    cases.append(("silu", lambda x: p34(T.silu(x)), [_rand(rng, 3, 4)]))
    p35 = proj(3, 5)
    cases.append(("softmax", lambda x: p35(T.softmax(x, axis=-1)), [_rand(rng, 3, 5)]))
    pgn = proj(2, 4, 3, 3)
    cases.append(("group_norm", lambda x: pgn(T.group_norm(x, groups=2, eps=1e-5)),
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

    pup = proj(1, 2, 6, 6)
    cases.append(("upsample_nearest2", lambda x: pup(T.upsample_nearest2(x)),
                  [_rand(rng, 1, 2, 3, 3)]))
    return cases


def run_suite(cases_per_op, seed=0):
    """Run the randomized gradcheck suite; returns (num_checks, worst_rel_err)."""
    worst = 0.0
    count = 0
    for i in range(cases_per_op):
        rng = np.random.default_rng(seed + i)
        for name, fn, inputs in build_cases(rng):
            err = T.gradcheck(fn, [T.Tensor(np.asarray(x)) for x in inputs])
            worst = max(worst, err)
            count += 1
    return count, worst
