import numpy as np
import pytest

from semcom.channel import ChannelConfig, transmit
from semcom.codec import one_hot_encode, pad_stack, power_normalize
from semcom.fds import FdsConfig, FdsError, fds, naive_threshold, pooled_planes, stack_agreement


def _pool_oracle(plane, kind, kernel):
    h, w = plane.shape
    p = (kernel - 1) // 2
    xp = np.pad(plane, p, mode="edge")
    out = np.zeros_like(plane, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            win = xp[i:i + kernel, j:j + kernel]
            out[i, j] = win.mean() if kind == "avg" else win.max()
    return out


def _solid_block_map(h=16, w=16):
    cmap = np.zeros((h, w), int)
    cmap[4:12, 5:13] = 2
    return cmap


class TestFds:
    def test_clean_input_interior_preserved(self):
        cmap = _solid_block_map()
        stack = one_hot_encode(cmap, c_total=4)
        out = fds(stack.planes.astype(float), stack.present_classes, 4)
        # window-enumeration oracle on the class-2 plane
        oracle = (_pool_oracle(_pool_oracle(stack.planes[1].astype(float), "avg", 3), "max", 3)
                  > FdsConfig().threshold)
        assert np.array_equal(out[2].astype(bool), oracle)
        # interior plateaus (>= kernel radius away from boundaries) survive exactly
        assert np.all(out[2][5:11, 6:12] == 1)
        assert np.all(out[0][:3, :] == 1)  # deep background stays background

    def test_single_spike_removed(self):
        planes = np.zeros((1, 5, 5))
        planes[0, 2, 2] = 1.0
        pooled = pooled_planes(planes, FdsConfig())
        assert pooled.max() == pytest.approx(1.0 / 9.0)
        out = fds(planes, [3], c_total=8)
        assert out.sum() == 0

    def test_absent_classes_padded_with_zeros(self):
        planes = np.ones((2, 4, 4))
        out = fds(planes, [2, 5], c_total=8)
        for c in (0, 1, 3, 4, 6, 7):
            assert np.all(out[c] == 0)
        for c in (2, 5):
            assert np.all(out[c] == 1)

    def test_header_plane_mismatch_rejected(self):
        with pytest.raises(FdsError, match="header"):
            fds(np.zeros((2, 4, 4)), [1], c_total=4)

    @pytest.mark.parametrize("planes, present, match", [
        (np.zeros((2, 4, 4)), (0, 1, 2), "header"),
        (np.zeros((1, 4, 4)), (7,), "out of range"),
    ], ids=["plane-count", "class-id"])
    def test_naive_threshold_checks_the_header(self, planes, present, match):
        """The baseline receiver raised numpy's ValueError or IndexError here."""
        with pytest.raises(FdsError, match=match):
            naive_threshold(planes, present, 5)

    @pytest.mark.parametrize("receiver", [fds, naive_threshold])
    def test_repeated_class_ids_rejected(self, receiver):
        """Planes under a repeated id were written to the same padded plane,
        so one of them was dropped without a word."""
        with pytest.raises(FdsError, match="ascending"):
            receiver(np.ones((2, 4, 4)) * 0.9, (1, 1), 5)
        with pytest.raises(FdsError, match="ascending"):
            receiver(np.ones((2, 4, 4)) * 0.9, (3, 1), 5)

    @pytest.mark.parametrize("receiver", [fds, naive_threshold])
    @pytest.mark.parametrize("present", [(1.5,), (2.0,), ("1",)], ids=["fraction", "float", "str"])
    def test_non_integer_class_ids_rejected(self, receiver, present):
        """A float id raised numpy's bare IndexError from codec.pad_planes, and
        a string id a TypeError from the range check."""
        with pytest.raises(FdsError, match="not integers"):
            receiver(np.ones((1, 4, 4)), present, 5)

    @pytest.mark.parametrize("receiver", [fds, naive_threshold])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_planes_rejected(self, receiver, bad):
        """fds raised NonFiniteError from T.pool2d, and naive_threshold read NaN as 0."""
        planes = np.full((2, 4, 4), 0.9)
        planes[1, 2, 3] = bad
        with pytest.raises(FdsError, match="finite"):
            receiver(planes, (0, 3), 5)

    @pytest.mark.parametrize("avg", [1, 3, 5])
    @pytest.mark.parametrize("mx", [1, 3, 5])
    @pytest.mark.parametrize("threshold", [0.7, 0.8, 0.95])
    def test_equals_max_pool_of_average_pool_then_threshold(self, avg, mx, threshold):
        """Thresholding before the dilation gives the bits of the paper's order:
        average pool, max pool, threshold."""
        rng = np.random.default_rng(avg * 100 + mx * 10 + int(threshold * 100))
        cmap = rng.integers(0, 3, size=(3, 4)).repeat(4, axis=0).repeat(3, axis=1)[:11, :9]
        stack = one_hot_encode(cmap, 4)
        noisy = stack.planes + rng.normal(scale=0.4, size=stack.planes.shape)
        out = fds(noisy, stack.present_classes, 4, FdsConfig(avg, mx, threshold))
        for plane, c in zip(noisy, stack.present_classes):
            oracle = _pool_oracle(_pool_oracle(plane, "avg", avg), "max", mx) > threshold
            assert np.array_equal(out[c], oracle.astype(np.uint8))

    @pytest.mark.parametrize("receiver", [fds, naive_threshold])
    @pytest.mark.parametrize("shape", [(1, 0, 0), (1, 0, 4), (1, 4, 0)])
    def test_planes_without_pixels_rejected(self, receiver, shape):
        """fds raised numpy's ValueError from T.pool2d here."""
        with pytest.raises(FdsError, match="with pixels"):
            receiver(np.zeros(shape), (0,), 5)

    def test_pooling_without_pixels_rejected(self):
        """numpy's ValueError from T.pool2d's edge padding came out here."""
        with pytest.raises(FdsError, match="with pixels"):
            pooled_planes(np.zeros((1, 0, 0)), FdsConfig())

    def test_overflowing_pool_rejected(self):
        """Finite planes whose window sums overflow float64: T.pool2d's own
        check raised NonFiniteError here."""
        planes = np.full((1, 4, 4), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(FdsError, match="not finite"):
                fds(planes, (0,), 5)
            with pytest.raises(FdsError, match="not finite"):
                pooled_planes(planes, FdsConfig())

    def test_shape_preserved_for_any_kernels(self):
        rng = np.random.default_rng(0)
        planes = rng.uniform(size=(3, 11, 7))
        for ak, mk in [(1, 1), (3, 3), (5, 3), (3, 5)]:
            out = fds(planes, [0, 1, 2], 5, FdsConfig(avg_kernel=ak, max_kernel=mk))
            assert out.shape == (5, 11, 7)

    def test_idempotent_on_clean_interiors(self):
        cmap = _solid_block_map()
        stack = one_hot_encode(cmap, c_total=4)
        once = fds(stack.planes.astype(float), stack.present_classes, 4)
        twice = fds(once[list(stack.present_classes)].astype(float), stack.present_classes, 4)
        # pixels >= kernel radius away from any class boundary never change
        interior = np.zeros((16, 16), bool)
        interior[6:10, 7:11] = True   # deep inside the block
        interior[:2, :] = True        # deep background
        for c in range(4):
            assert np.array_equal(once[c][interior], twice[c][interior])

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        planes = rng.uniform(-0.3, 1.3, size=(2, 12, 12))
        prev = None
        for th in (0.3, 0.5, 0.7, 0.9):
            out = fds(planes, [0, 1], 3, FdsConfig(threshold=th))
            if prev is not None:
                assert np.all(out <= prev)  # raising threshold never flips 0 -> 1
            prev = out

    def test_even_kernel_rejected(self):
        with pytest.raises(FdsError, match="odd"):
            FdsConfig(avg_kernel=2)

    @pytest.mark.parametrize("settings", [{"avg_kernel": -1}, {"max_kernel": -3}],
                             ids=["avg", "max"])
    def test_kernel_below_one_rejected(self, settings):
        with pytest.raises(FdsError, match=">= 1"):
            FdsConfig(**settings)

    @pytest.mark.parametrize("settings", [{"avg_kernel": 2.5}, {"avg_kernel": True},
                                          {"max_kernel": 2.5}, {"max_kernel": True}])
    def test_kernel_that_is_not_an_integer_rejected(self, settings):
        """avg_kernel=True pooled with a kernel of 1; 2.5 failed later, in numpy."""
        with pytest.raises(FdsError, match="integers"):
            FdsConfig(**settings)


class TestFdsBeatsNaive:
    def _received(self, cmap, c_total, psnr, seed):
        stack = one_hot_encode(cmap, c_total)
        frame = power_normalize(stack)
        noisy = transmit(frame, ChannelConfig(psnr_db=psnr, seed=seed))
        raw_planes = noisy.reshape(stack.planes.shape)           # still scaled
        descaled = raw_planes / frame.scale                      # receiver undoes the scale
        return stack, raw_planes, descaled

    def test_agreement_beats_naive_thresholding(self):
        from semcom.data import NUM_CLASSES, ShapesSpec, generate_shapes

        spec = ShapesSpec(seed=99)
        pairs = generate_shapes(spec, 30)
        margins = {}
        for psnr in (1.0, 5.0, 10.0):
            gains = []
            for i, (_, cmap) in enumerate(pairs):
                stack, raw, descaled = self._received(cmap, NUM_CLASSES, psnr, seed=1000 + i)
                clean = pad_stack(stack)
                denoised = fds(descaled, stack.present_classes, NUM_CLASSES)
                naive = naive_threshold(raw, stack.present_classes, NUM_CLASSES)
                gains.append(stack_agreement(denoised, clean) - stack_agreement(naive, clean))
            margins[psnr] = float(np.mean(gains))
            assert margins[psnr] > 0, f"FDS does not beat naive at PSNR {psnr}"
        assert margins[10.0] >= 0.02


def test_stack_agreement_counts_full_pixel_vectors():
    a = np.zeros((2, 2, 2), np.uint8)
    b = a.copy()
    b[0, 0, 0] = 1
    assert stack_agreement(a, b) == pytest.approx(0.75)


@pytest.mark.parametrize("shape", [(5, 0, 0), (5, 4, 0), (4, 4)])
def test_stack_agreement_refuses_stacks_without_pixels(shape):
    """Two (5, 0, 0) stacks gave NaN with numpy's "Mean of empty slice" warning."""
    a = np.zeros(shape, np.uint8)
    with pytest.raises(FdsError, match="with pixels"):
        stack_agreement(a, a.copy())
