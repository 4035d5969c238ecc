import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom import codec
from semcom.codec import (
    CodecError,
    FormatError,
    OneHotStack,
    TransmitPayload,
    one_hot_encode,
    power_normalize,
    inverse_normalize,
    raw_rgb_bits,
    rle_pack,
    rle_unpack,
    stack_to_map,
)


class TestOneHotEncode:
    def test_single_class_map(self):
        stack = one_hot_encode(np.full((2, 2), 3), c_total=8)
        assert stack.present_classes == (3,)
        assert np.array_equal(stack.planes, np.ones((1, 2, 2), np.uint8))

    def test_two_pixel_map(self):
        stack = one_hot_encode(np.array([[0, 1]]), c_total=2)
        assert stack.present_classes == (0, 1)
        assert np.array_equal(stack.planes[0], [[1, 0]])
        assert np.array_equal(stack.planes[1], [[0, 1]])

    def test_partition_property_random_map(self):
        rng = np.random.default_rng(0)
        cmap = rng.integers(0, 5, size=(16, 16))
        stack = one_hot_encode(cmap, c_total=5)
        assert np.array_equal(stack.planes.sum(axis=0), np.ones((16, 16)))
        assert np.array_equal(stack_to_map(stack), cmap)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(CodecError, match="out of range"):
            one_hot_encode(np.array([[9]]), c_total=8)

    @pytest.mark.parametrize("cmap, bad", [([[-1, 3]], -1), ([[0, 5]], 5), ([[2, -4, 1]], -4)])
    def test_error_names_the_out_of_range_id(self, cmap, bad):
        with pytest.raises(CodecError, match=rf"class id {bad} out of range"):
            one_hot_encode(np.array(cmap), c_total=5)

    def test_present_classes_match_unique_ids(self):
        rng = np.random.default_rng(5)
        for dtype in (np.uint8, np.int32, np.int64):
            cmap = rng.choice([1, 4, 6], size=(9, 7)).astype(dtype)
            assert one_hot_encode(cmap, c_total=8).present_classes == tuple(np.unique(cmap).tolist())

    @pytest.mark.parametrize("cmap, match", [(np.zeros((0, 4), int), "empty"),
                                             (np.zeros((4, 0), int), "empty"),
                                             (np.zeros((2, 2)), "integers")])
    def test_empty_or_non_integer_map_rejected(self, cmap, match):
        with pytest.raises(CodecError, match=match):
            one_hot_encode(cmap, c_total=5)

    def test_violated_partition_rejected(self):
        planes = np.ones((2, 2, 2), np.uint8)  # both planes claim every pixel
        with pytest.raises(CodecError, match="partition"):
            OneHotStack((0, 1), planes, 4)

    def test_partition_sum_does_not_wrap(self):
        # 257 planes claiming every pixel sum to 1 in a uint8 accumulator
        planes = np.ones((257, 2, 2), np.uint8)
        with pytest.raises(CodecError, match="partition"):
            OneHotStack(tuple(range(257)), planes, 300)

    def test_non_binary_plane_rejected(self):
        planes = np.array([[[2, 0]], [[0, 1]]], np.uint8)
        with pytest.raises(CodecError, match="binary uint8"):
            OneHotStack((0, 1), planes, 2)

    def test_empty_plane_rejected(self):
        planes = np.array([[[1, 1]], [[0, 0]]], np.uint8)
        with pytest.raises(CodecError, match="empty plane"):
            OneHotStack((0, 1), planes, 2)


class TestWireFormat:
    def test_runs_start_with_zero_run(self):
        body, stack = _two_class_body([3, 3])  # plane 0 is [0, 0, 0, 1, 1, 1]
        assert body == b"\x03\x03\x00" + b"\x00\x03\x03\x00"  # plane 1 opens with a 0-run
        assert np.array_equal(codec._decode_planes(body, 2, 6), stack.planes.reshape(-1))

    def test_all_ones_plane_runs_and_varints(self):
        # a one-class map: its plane is all ones, so no second class can be present
        stack = one_hot_encode(np.zeros((32, 32), np.int64), 1)
        assert rle_pack(stack).body == b"\x00\x80\x08\x00"  # runs 0, 1024 + sentinel

    def test_golden_payload_bytes(self):
        # 2x2 map [[0,1],[1,1]], C_total=3: hand-assembled wire image
        stack = one_hot_encode(np.array([[0, 1], [1, 1]]), c_total=3)
        raw = rle_pack(stack).to_bytes()
        expect = (
            b"SCPM" + bytes([1])
            + (2).to_bytes(2, "big") + (2).to_bytes(2, "big")
            + (3).to_bytes(2, "big") + (2).to_bytes(2, "big")
            + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
            + bytes([0x00, 0x01, 0x03, 0x00])   # plane 0: runs 0,1,3
            + bytes([0x01, 0x03, 0x00])          # plane 1: runs 1,3
        )
        assert raw == expect
        assert rle_pack(stack).bit_count == 8 * len(expect)

    def test_round_trip_random_stacks(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(1, 24, size=2)
            cmap = rng.integers(0, 6, size=(h, w))
            stack = one_hot_encode(cmap, c_total=8)
            back = rle_unpack(rle_pack(stack).to_bytes())
            assert back.present_classes == stack.present_classes
            assert np.array_equal(back.planes, stack.planes)
            assert back.c_total == stack.c_total

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, ids):
        cmap = np.array(ids).reshape(1, -1)
        stack = one_hot_encode(cmap, c_total=4)
        back = rle_unpack(rle_pack(stack).to_bytes())
        assert np.array_equal(stack_to_map(back), cmap)

    @pytest.mark.parametrize("shape, c_total, field", [((70000, 1), 2, "height"),
                                                       ((1, 70000), 2, "width"),
                                                       ((1, 1), 70001, "c_total")])
    def test_header_fields_beyond_u16_refused(self, shape, c_total, field):
        stack = one_hot_encode(np.zeros(shape, np.int64), c_total)
        with pytest.raises(CodecError, match=field):
            rle_pack(stack)

    def test_corrupt_magic_rejected(self):
        raw = bytearray(rle_pack(one_hot_encode(np.array([[0]]), 2)).to_bytes())
        raw[0] = ord("X")
        with pytest.raises(FormatError, match="magic"):
            TransmitPayload.from_bytes(bytes(raw))

    def test_corrupt_version_rejected(self):
        raw = bytearray(rle_pack(one_hot_encode(np.array([[0]]), 2)).to_bytes())
        raw[4] = 9
        with pytest.raises(FormatError, match="version"):
            TransmitPayload.from_bytes(bytes(raw))

    def test_truncated_body_rejected(self):
        raw = rle_pack(one_hot_encode(np.array([[0, 1], [1, 0]]), 3)).to_bytes()
        with pytest.raises(FormatError):
            rle_unpack(raw[:-2])


class TestPowerNormalize:
    def test_quarter_ones_scale_two(self):
        cmap = np.repeat(np.arange(4), 4).reshape(4, 4)  # C_p=4, ones fraction 1/4
        stack = one_hot_encode(cmap, c_total=4)
        frame = power_normalize(stack)
        raw_ms = np.mean(stack.planes.astype(float) ** 2)
        assert raw_ms == pytest.approx(0.25)
        assert frame.scale == pytest.approx(2.0)
        assert set(np.unique(frame.symbols)) == {0.0, 2.0}

    def test_single_all_ones_plane_unchanged(self):
        stack = one_hot_encode(np.zeros((4, 4), int), c_total=2)
        frame = power_normalize(stack)
        assert frame.scale == pytest.approx(1.0)
        assert np.array_equal(frame.symbols, np.ones(16))

    def test_mean_square_is_power(self):
        cmap = np.random.default_rng(2).integers(0, 5, size=(8, 8))
        frame = power_normalize(one_hot_encode(cmap, 5))
        assert abs(np.mean(frame.symbols ** 2) - 1.0) < 1e-9

    def test_inverse_recovers_planes(self):
        cmap = np.random.default_rng(3).integers(0, 4, size=(6, 6))
        stack = one_hot_encode(cmap, 4)
        frame = power_normalize(stack)
        planes = inverse_normalize(frame.symbols, frame.scale).reshape(stack.planes.shape)
        assert np.max(np.abs(planes - stack.planes)) < 1e-9

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (32, 32), (128, 128)])
    def test_closed_form_equals_mean_square_form(self, shape):
        """The scale and symbols equal those of the mean(flat * flat) pass, bit for bit."""
        rng = np.random.default_rng(shape[0])
        pixels = shape[0] * shape[1]
        for c_p in range(1, min(8, pixels) + 1):
            cmap = rng.permutation(np.concatenate([np.arange(c_p), rng.integers(0, c_p, pixels - c_p)]))
            stack = one_hot_encode(cmap.reshape(shape), c_total=8)
            assert len(stack.present_classes) == c_p
            flat = stack.planes.reshape(-1).astype(np.float64)
            scale = float(np.sqrt(1.0 / float(np.mean(flat * flat))))
            frame = power_normalize(stack)
            assert frame.scale == scale
            assert frame.symbols.dtype == np.float64
            assert np.array_equal(frame.symbols, flat * scale)

    def test_all_zero_rejected(self):
        """A stack with no classes, the one pixel-less stack that was accepted
        (power_normalize then refused it), is refused when it is built."""
        with pytest.raises(CodecError, match="at least one class"):
            OneHotStack((), np.zeros((0, 0, 3), np.uint8), 3)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_inverse_rejects_bad_scale(self, scale):
        with pytest.raises(CodecError, match="scale"):
            inverse_normalize(np.ones(4), scale)


class TestBitBudget:
    def test_raw_rgb(self):
        assert raw_rgb_bits(256, 512) == 3_145_728

    def test_paper_reported_reduction(self):
        # Reported full-image vs semantic payload budgets; the ~92% reduction
        # is quoted, not reproduced (the underlying image codec is unspecified).
        assert round(100 * (1 - 119_000 / 1_464_000)) == 92

    def test_payload_well_below_raw(self):
        rng = np.random.default_rng(4)
        cmap = np.zeros((32, 32), int)
        cmap[4:12, 6:20] = 1
        cmap[18:28, 10:18] = 3
        payload = rle_pack(one_hot_encode(cmap, 5))
        assert payload.bit_count <= 0.10 * raw_rgb_bits(32, 32)

    def test_budget_decreases_with_simplicity(self):
        base = np.zeros((32, 32), int)
        base[4:12, 6:20] = 1
        base[18:28, 10:18] = 2
        simpler = base.copy()
        simpler[18:28, 10:18] = 0  # drop one class/shape
        bits_base = rle_pack(one_hot_encode(base, 5)).bit_count
        bits_simpler = rle_pack(one_hot_encode(simpler, 5)).bit_count
        assert bits_simpler < bits_base


def _varint(n):
    """Scalar LEB128 varint: the reference for the array encoder."""
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _header(height, width, c_total, ids):
    return codec.MAGIC + struct.pack(f">BHHHH{len(ids)}H", codec.VERSION, height, width,
                                     c_total, len(ids), *ids)


def _two_class_body(runs, width=None):
    """rle_pack's body for the two-class stack, rows of `width` (default: one
    row), whose plane 0 has `runs` (the first counts zeros) and plane 1 is its
    complement, and the stack."""
    plane = np.repeat(np.resize(np.array([0, 1], np.uint8), len(runs)), runs)
    stack = OneHotStack((0, 1), np.stack([plane, 1 - plane]).reshape(2, -1, width or plane.size), 2)
    return rle_pack(stack).body, stack


def _oracle_plane_runs(plane):
    """Row-major run lengths, first run counting zeros (may be 0): the former
    per-plane packer, kept as the reference for rle_pack."""
    flat = np.asarray(plane, dtype=np.uint8).reshape(-1)
    change = np.flatnonzero(np.diff(flat)) + 1
    runs = np.diff(np.concatenate([[0], change, [flat.size]])).tolist()
    return [0] + runs if flat[0] == 1 else runs


def _oracle_body(planes):
    return b"".join(_varint(r) for plane in planes for r in _oracle_plane_runs(plane) + [0])


class TestVarintRuns:
    def test_encode_plane_matches_scalar_varints_at_byte_boundaries(self):
        # the header holds u16 sides: a last run of 32481 fills 33 rows of 65535
        runs = [0, 127, 128, 16383, 16384, 2 ** 21, 32481]
        body, stack = _two_class_body(runs, 65535)
        assert stack.planes.shape == (2, 33, 65535)
        assert _oracle_plane_runs(stack.planes[0]) == runs
        assert body == b"".join(_varint(r) for r in runs + [0] + runs[1:] + [0])
        assert [len(_varint(r)) for r in runs] == [1, 1, 2, 2, 3, 4, 3]
        assert np.array_equal(codec._decode_planes(body, 2, 33 * 65535), stack.planes.reshape(-1))

    def test_runs_around_the_one_and_two_byte_limits(self):
        runs = list(range(1, 300)) + list(range(16370, 16400))
        body, stack = _two_class_body(runs, 35759)  # 15 rows
        assert body == b"".join(_varint(r) for r in runs + [0, 0] + runs + [0])
        assert np.array_equal(codec._decode_planes(body, 2, 15 * 35759), stack.planes.reshape(-1))


class TestPackerMatchesPerPlaneOracle:
    """rle_pack's one pass over the stack gives the former per-plane packer's bytes."""

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.sampled_from(["pixels", "blocks", "single", "checkerboard"]))
    @settings(max_examples=150, deadline=None)
    def test_body_equals_oracle(self, h, w, k, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "pixels":
            cmap = rng.integers(0, k, size=(h, w))
        elif kind == "blocks":  # few long runs, some crossing rows
            cmap = np.repeat(rng.integers(0, k, size=h * w // 7 + 1), 7)[:h * w].reshape(h, w)
        elif kind == "single":
            cmap = np.full((h, w), k - 1)
        else:
            cmap = np.indices((h, w)).sum(axis=0) % 2 * (k - 1)
        stack = one_hot_encode(cmap, 5)
        assert rle_pack(stack).body == _oracle_body(stack.planes)


class TestDecodeBounds:
    def test_huge_header_without_planes_rejected(self):
        with pytest.raises(FormatError, match="exceeds"):
            rle_unpack(_header(65535, 65535, 8, ()))

    def test_oversized_map_rejected_before_decoding(self):
        # the body would be a valid single-plane run list; the size bound fires first
        side = 4097
        raw = _header(side, 4096, 2, (0,)) + b"\x00" + _varint(side * 4096) + b"\x00"
        with pytest.raises(FormatError, match="exceeds"):
            rle_unpack(raw)

    def test_no_planes_for_nonempty_map_rejected(self):
        with pytest.raises(FormatError, match="no class planes"):
            rle_unpack(_header(4096, 4096, 8, ()))

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_PIXELS", 16)
        stack = one_hot_encode(np.arange(16).reshape(4, 4) % 3, c_total=3)
        assert np.array_equal(rle_unpack(rle_pack(stack).to_bytes()).planes, stack.planes)
        wider = one_hot_encode(np.arange(20).reshape(4, 5) % 3, c_total=3)
        with pytest.raises(FormatError, match="exceeds"):
            rle_unpack(rle_pack(wider).to_bytes())

    def test_many_planes_over_large_map_refused_before_decoding(self, monkeypatch):
        # 8 horizontal bands of a 4096x4096 map: 126 bytes that would decode to 2^27
        side = 4096
        band = side * side // 8
        planes = [[k * band, band, (7 - k) * band] for k in range(8)]
        planes[-1].pop()  # the last band ends its plane
        body = b"".join(_varint(r) for runs in planes for r in runs + [0])
        raw = _header(side, side, 8, tuple(range(8))) + body
        assert len(raw) < 128

        def no_decode(*args):
            raise AssertionError("a plane was decoded")

        monkeypatch.setattr(codec, "_decode_planes", no_decode)
        with pytest.raises(FormatError, match="stack bound"):
            rle_unpack(raw)

    def test_over_long_body_refused_before_decoding(self, monkeypatch):
        # one 1x1 plane is at most 3 varints; a 4 MiB body cannot be a valid one
        raw = _header(1, 1, 1, (0,)) + b"\x01" * (4 << 20)

        def no_decode(*args):
            raise AssertionError("the body was decoded")

        monkeypatch.setattr(codec, "_decode_planes", no_decode)
        with pytest.raises(FormatError, match="longer than"):
            rle_unpack(raw)

    def test_body_bound_is_inclusive(self):
        # runs 0, 1 and the sentinel, each padded with 0x80 to 10 bytes: 10 * 1 * (1 + 2)
        body = b"".join(bytes([v | 0x80] + [0x80] * 8 + [0]) for v in (0, 1, 0))
        assert len(body) == 30
        back = rle_unpack(_header(1, 1, 1, (0,)) + body)
        assert np.array_equal(back.planes, np.ones((1, 1, 1), np.uint8))
        with pytest.raises(FormatError, match="longer than"):
            rle_unpack(_header(1, 1, 1, (0,)) + body + b"\x00")

    def test_stack_bound_is_inclusive(self, monkeypatch):
        stack = one_hot_encode(np.arange(20).reshape(4, 5) % 3, c_total=3)
        raw = rle_pack(stack).to_bytes()
        monkeypatch.setattr(codec, "MAX_STACK_BYTES", 3 * 20)
        assert np.array_equal(rle_unpack(raw).planes, stack.planes)
        monkeypatch.setattr(codec, "MAX_STACK_BYTES", 3 * 20 - 1)
        with pytest.raises(FormatError, match="stack bound"):
            rle_unpack(raw)

    def test_decoding_memory_is_linear_in_the_body(self):
        """A checkerboard is one run per pixel. Decoding it holds at most 32 bytes
        per body byte at any one time, the decoded stack included; int64
        arrays indexed by body byte would take about 60."""
        cmap = np.indices((256, 256)).sum(axis=0) % 2
        raw = rle_pack(one_hot_encode(cmap, 2)).to_bytes()
        tracemalloc.start()
        try:
            rle_unpack(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * len(raw)

    def test_empty_map_rejected(self):
        for height, width, ids in [(0, 7, ()), (7, 0, ()), (0, 0, (1,))]:
            with pytest.raises(FormatError, match="no pixels"):
                rle_unpack(_header(height, width, 3, ids))


class TestDecodeFuzz:
    @given(st.one_of(st.binary(max_size=80),
                     st.binary(max_size=80).map(lambda b: codec.MAGIC + bytes([codec.VERSION]) + b)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_raise_only_codec_errors(self, raw):
        try:
            rle_unpack(raw)
        except CodecError:
            pass

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_payloads_raise_only_codec_errors(self, data):
        try:
            rle_unpack(_mutated_payload(data))
        except CodecError:
            pass


def _valid_payload(data):
    h = data.draw(st.integers(1, 8), label="height")
    w = data.draw(st.integers(1, 8), label="width")
    ids = data.draw(st.lists(st.integers(0, 3), min_size=h * w, max_size=h * w), label="map")
    return rle_pack(one_hot_encode(np.array(ids).reshape(h, w), 4)).to_bytes()


def _mutated_payload(data):
    raw = bytearray(_valid_payload(data))
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        at = data.draw(st.integers(0, len(raw)), label="at")
        op = data.draw(st.sampled_from(["set", "insert", "delete", "truncate"]), label="op")
        byte = data.draw(st.integers(0, 255), label="byte")
        if op == "set" and at < len(raw):
            raw[at] = byte
        elif op == "insert":
            raw.insert(at, byte)
        elif op == "delete" and at < len(raw):
            del raw[at]
        elif op == "truncate":
            del raw[at:]
    return bytes(raw)


# -- the former per-byte decoder, kept as the reference for rle_unpack ---------------

def _oracle_read_varint(buf, pos):
    shift = 0
    value = 0
    while True:
        if pos >= len(buf):
            raise FormatError("truncated varint in payload body")
        b = buf[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError("oversized varint in payload body")


def _oracle_decode_plane(buf, pos, height, width):
    n = height * width
    runs = []
    total = 0
    while True:
        r, pos = _oracle_read_varint(buf, pos)
        if r == 0 and runs:
            break
        runs.append(r)
        total += r
        if total > n:
            raise FormatError("plane runs exceed plane size")
    if total != n:
        raise FormatError(f"plane runs cover {total} of {n} pixels")
    values = np.resize(np.array([0, 1], dtype=np.uint8), len(runs))
    plane = np.repeat(values, runs).reshape(height, width)
    return plane, pos


def _oracle_unpack(raw):
    payload = TransmitPayload.from_bytes(raw)
    pixels = payload.height * payload.width
    if not pixels:
        raise FormatError(f"{payload.height}x{payload.width} map has no pixels")
    if pixels > codec.MAX_PIXELS:
        raise FormatError(f"{payload.height}x{payload.width} map exceeds {codec.MAX_PIXELS} pixels")
    if not payload.present_classes:
        raise FormatError("no class planes for a non-empty map")
    if len(payload.present_classes) * pixels > codec.MAX_STACK_BYTES:
        raise FormatError("stack bound")
    planes = []
    pos = 0
    for _ in payload.present_classes:
        plane, pos = _oracle_decode_plane(payload.body, pos, payload.height, payload.width)
        planes.append(plane)
    if pos != len(payload.body):
        raise FormatError(f"{len(payload.body) - pos} trailing bytes after last plane")
    return OneHotStack(payload.present_classes, np.stack(planes), payload.c_total)


def _outcome(decode, raw):
    """The decoded stack's fields, or the class of the CodecError raised."""
    try:
        stack = decode(raw)
    except CodecError as err:
        return type(err)
    return stack.present_classes, stack.c_total, stack.planes.shape, stack.planes.tobytes()


class TestDecoderMatchesPerByteOracle:
    """rle_unpack and the former per-byte decoder accept the same byte strings
    with the same planes, and refuse the same ones with the same error class."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_valid_payloads(self, data):
        raw = _valid_payload(data)
        assert _outcome(rle_unpack, raw) == _outcome(_oracle_unpack, raw)
        assert isinstance(_outcome(rle_unpack, raw), tuple)

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_mutated_payloads(self, data):
        raw = _mutated_payload(data)
        assert _outcome(rle_unpack, raw) == _outcome(_oracle_unpack, raw)

    @pytest.mark.parametrize("planes, body, accepted", [
        (1, b"\x00\x04\x00", True),
        (2, b"\x00\x02\x02\x00\x02\x02\x00", True),
        (1, b"\x01\x00\x03\x00", False),
        (1, b"\x00\x00\x04\x00", False),
        (1, b"\x00\x84" + b"\x80" * 8 + b"\x00\x00", True),
        (1, b"\x00\x04" + b"\x80" * 9 + b"\x00", True),
        (1, b"\x80" * 9 + b"\x00\x04\x00", True),
        (1, b"\x00\x84" + b"\x80" * 9 + b"\x00\x00", False),
        (1, b"\x00" + b"\x80" * 9 + b"\x7f\x00", False),
        (1, b"\x00" + b"\x80" * 4 + b"\x81\x00", False),
        (1, b"\x00\x05\x00", False),
        (1, b"\x03\x03\x00", False),
        (1, b"\x00\x03\x00", False),
        (1, b"\x00\x04\x00\x00", False),
        (1, b"\x00\x04\x00\x01", False),
        (1, b"\x00\x04\x00\x80", False),
        (1, b"\x00\x04", False),
        (1, b"\x00\x04\x80", False),
        (1, b"", False),
    ], ids=["leading-zero-run", "two-planes-one-leading-zero", "zero-run-mid-plane",
            "zero-runs-only", "run-padded-to-10-bytes", "sentinel-padded-to-10-bytes",
            "leading-zero-padded-to-10-bytes", "11-byte-varint", "10th-byte-value-bits",
            "run-of-2^28", "run-overshoots", "runs-overshoot", "runs-fall-short",
            "trailing-zero", "trailing-run", "trailing-truncated-varint", "no-sentinel",
            "truncated-sentinel", "no-body"])
    def test_hand_written_bodies(self, planes, body, accepted):
        """Bodies of 1 x 4 planes under class ids 0 (and 1)."""
        raw = _header(1, 4, 4, tuple(range(planes))) + body
        new, old = _outcome(rle_unpack, raw), _outcome(_oracle_unpack, raw)
        assert new == old
        assert isinstance(new, tuple) == accepted

    @pytest.mark.parametrize("run, accepted", [(b"\x80\x80\x80\x01", True),
                                               (b"\x80\x80\x80\x80\x01", False),
                                               (b"\x80\x80\x80\x81\x80\x00", True)],
                             ids=["2^21", "2^28", "2^21-padded"])
    def test_runs_of_a_large_plane(self, run, accepted):
        """A 2048 x 1024 plane is one run of 2^21 ones; the fifth group of a
        varint always makes a run longer than any plane."""
        raw = _header(2048, 1024, 4, (2,)) + b"\x00" + run + b"\x00"
        new, old = _outcome(rle_unpack, raw), _outcome(_oracle_unpack, raw)
        assert new == old
        assert isinstance(new, tuple) == accepted
