import numpy as np
import pytest

from semcom.channel import ChannelConfig, transmit
from semcom.codec import one_hot_encode, pad_planes, power_normalize, stack_to_map
from semcom import data
from semcom.data import (
    DataError,
    ShapesSpec,
    generate_shapes,
    miou,
    pixel_metrics,
    recover_map,
    PSNR_IDENTICAL,
)


class TestGenerateShapes:
    def test_texture_stays_within_its_amplitude(self):
        """Texture moves each channel by at most TEXTURE_AMPLITUDE, plus the 8-bit rounding."""
        spec = ShapesSpec(seed=1)
        img, cmap = generate_shapes(spec, 1)[0]
        clean = spec.palette_array[cmap].transpose(2, 0, 1)
        assert np.abs(img - clean).max() <= data.TEXTURE_AMPLITUDE + 0.5 / 255 + 1e-7
        assert np.array_equal(np.round(img * 255), img * 255)  # 8-bit levels

    def test_closed_loop_recovery_is_exact(self):
        spec = ShapesSpec(seed=2)
        for img, cmap in generate_shapes(spec, 8):
            assert miou(recover_map(img, spec.palette_array), cmap) == 1.0

    def test_fixed_seed_reproducible(self):
        a = generate_shapes(ShapesSpec(seed=3), 4)
        b = generate_shapes(ShapesSpec(seed=3), 4)
        for (ia, ma), (ib, mb) in zip(a, b):
            assert np.array_equal(ia, ib) and np.array_equal(ma, mb)

    def test_palette_separation_enforced(self):
        """The palette lies in [0, 1], where generate_shapes clips, its colors lie
        pairwise at least 0.3 apart, and the largest L2 move of a pixel (the
        texture plus the 8-bit rounding on each of 3 channels) stays below half
        the closest separation, so recover_map finds every generated class."""
        pal = np.asarray(data.PALETTE, dtype=np.float64)
        assert pal.shape == (data.NUM_CLASSES, 3) and data.NUM_CLASSES >= 2
        assert pal.min() >= 0.0 and pal.max() <= 1.0
        closest = min(np.linalg.norm(pal[i] - pal[j])
                      for i in range(len(pal)) for j in range(i + 1, len(pal)))
        assert closest >= 0.3
        assert np.sqrt(3) * (data.TEXTURE_AMPLITUDE + 0.5 / 255) < closest / 2

    def test_palette_on_unit_cube_corners_recovers_exactly(self):
        """recover_map takes any palette: five corners of the unit cube, on the
        texture-free images of generated maps."""
        pal = np.array([(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)], np.float64)
        for _, cmap in generate_shapes(ShapesSpec(seed=1), 20):
            assert np.array_equal(recover_map(pal[cmap].transpose(2, 0, 1), pal), cmap)

    @pytest.mark.parametrize("settings, field", [
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"canvas": 3}, "canvas"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_undrawable_spec_refused(self, settings, field):
        with pytest.raises(DataError, match=field):
            ShapesSpec(**settings)

    def test_smallest_canvas_paints_every_shape(self):
        # canvas 4: every rectangle and disk covers at least one pixel
        for seed in range(20):
            spec = ShapesSpec(canvas=4, shapes_max=1, seed=seed)
            assert all(cmap.any() for _, cmap in generate_shapes(spec, 8))


class TestRecoverMap:
    def test_noise_below_half_separation_is_harmless(self):
        spec = ShapesSpec(seed=4)
        cmap = generate_shapes(spec, 1)[0][1]
        pal = spec.palette_array
        img = pal[cmap].transpose(2, 0, 1)
        radius = 0.5 * min(np.linalg.norm(pal[i] - pal[j])
                           for i in range(len(pal)) for j in range(i + 1, len(pal)))
        rng = np.random.default_rng(5)
        direction = rng.normal(size=img.shape)
        direction /= np.linalg.norm(direction, axis=0, keepdims=True)
        eps = 1e-3
        bumped = np.clip(img + direction * (radius - eps) / np.sqrt(3), 0, 1)
        # uniform perturbation of L-inf norm below radius/sqrt(3) keeps L2 below radius
        assert np.array_equal(recover_map(bumped, spec.palette_array), cmap)

    def test_boundary_crossing_flips_class(self):
        pal = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        mid = (pal[0] + pal[1]) / 2
        d = np.linalg.norm(pal[1] - pal[0])
        toward1 = (pal[1] - pal[0]) / d
        below = (mid - 1e-6 * toward1).reshape(3, 1, 1)
        above = (mid + 1e-6 * toward1).reshape(3, 1, 1)
        assert recover_map(below, pal)[0, 0] == 0
        assert recover_map(above, pal)[0, 0] == 1

    def test_equidistant_ties_take_lower_id(self):
        pal = np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        gray = np.full((3, 2, 2), 0.5)
        assert np.all(recover_map(gray, pal) == 0)

    def test_nan_image_rejected(self):
        """NaN fails both range comparisons; it came out as the all-background map."""
        img = np.full((3, 2, 2), 0.5)
        img[0, 1, 1] = np.nan
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            recover_map(img, np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]))

    def test_image_without_pixels_rejected(self):
        """The range check's min() raised numpy's zero-size reduction ValueError."""
        with pytest.raises(DataError, match="with pixels"):
            recover_map(np.zeros((3, 0, 4)), np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]))

    @pytest.mark.parametrize("palette", [np.zeros((0, 3)), np.zeros((4, 2)), np.zeros(3),
                                         np.zeros((2, 3, 1)), [[0.2, 0.2, np.nan]],
                                         [[0.2, 0.2, 0.2], [np.inf, 0.8, 0.8]]],
                             ids=["empty", "two-channel", "1-d", "3-d", "nan", "inf"])
    def test_bad_palette_rejected(self, palette):
        """An empty palette raised numpy's argmin ValueError, a [4, 2] one a
        broadcast ValueError, a 1-d one an IndexError; a 3-d one gave a map of
        the wrong shape, and non-finite colors were taken as given."""
        with pytest.raises(DataError, match="palette"):
            recover_map(np.full((3, 2, 2), 0.5), palette)


class TestMiou:
    def test_identical_maps(self):
        m = np.random.default_rng(6).integers(0, 4, size=(8, 8))
        assert miou(m, m) == 1.0

    def test_swapped_labels_give_zero(self):
        a = np.array([[0, 0], [1, 1]])
        b = 1 - a
        assert miou(a, b) == 0.0

    def test_half_wrong_two_class_split(self):
        # top half correct, bottom half uniformly wrong
        ref = np.zeros((4, 4), int)
        ref[:, 2:] = 1  # vertical split: left class 0, right class 1
        pred = ref.copy()
        pred[2:, :] = 1  # bottom rows all class 1
        # set-count oracle
        inter0, union0 = 4, 8
        inter1, union1 = 8, 12
        expect = ((inter0 / union0) + (inter1 / union1)) / 2
        assert miou(pred, ref) == pytest.approx(expect)

    def test_symmetry_and_relabel_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 4, size=(10, 10))
        b = rng.integers(0, 4, size=(10, 10))
        assert miou(a, b) == pytest.approx(miou(b, a))
        perm = np.array([2, 3, 0, 1])
        assert miou(perm[a], perm[b]) == pytest.approx(miou(a, b))

    def test_absent_classes_excluded(self):
        a = np.zeros((4, 4), int)
        b = np.zeros((4, 4), int)
        assert miou(a, b, classes=range(5)) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="differ"):
            miou(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPixelMetrics:
    def test_identical_images_sentinel(self):
        img = np.random.default_rng(8).uniform(size=(3, 4, 4))
        mse, psnr = pixel_metrics(img, img)
        assert mse == 0.0 and psnr == PSNR_IDENTICAL

    def test_constant_offset(self):
        a = np.full((3, 4, 4), 0.4)
        mse, psnr = pixel_metrics(a, a + 0.1)
        assert mse == pytest.approx(0.01)
        assert psnr == pytest.approx(20.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        a = np.full((3, 4, 4), 0.4)
        b = a.copy()
        b[1, 2, 3] = bad
        with pytest.raises(DataError, match="finite"):
            pixel_metrics(a, b)

    def test_awgn_empirical_psnr(self):
        rng = np.random.default_rng(9)
        img = rng.uniform(0.3, 0.7, size=(3, 128, 128))
        from semcom.channel import transmit_image
        out = transmit_image(img, ChannelConfig(psnr_db=15.0, seed=21))
        # measured against the *channel* power normalization (P/sigma^2)
        mse, _ = pixel_metrics(np.clip(out, 0, 1), img)
        scale2 = 1.0 / np.mean(img**2)
        measured = 10 * np.log10((1.0 / scale2) / mse)
        assert abs(measured - 15.0) < 0.3


def test_closed_loop_through_noiseless_channel():
    """generate -> one-hot -> normalize -> noiseless channel -> maps identical."""
    spec = ShapesSpec(seed=11)
    for img, cmap in generate_shapes(spec, 4):
        stack = one_hot_encode(cmap, data.NUM_CLASSES)
        frame = power_normalize(stack)
        received = transmit(frame, ChannelConfig(psnr_db=100.0, seed=0))
        planes = (received / frame.scale).reshape(stack.planes.shape)
        assert np.array_equal(planes.astype(np.uint8), stack.planes)  # bitwise exact
        full = pad_planes(planes.astype(np.uint8), stack.present_classes, stack.c_total)
        assert np.array_equal(np.argmax(full, axis=0), cmap)
