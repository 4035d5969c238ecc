"""Sender-side semantic map processing.

A semantic map (H x W array of class ids) becomes a stack of per-class binary
planes for the classes actually present, which is then (a) run-length packed
into the lossless `SCPM` wire format for bandwidth accounting and (b)
power-normalized into real channel symbols. Every lossless step has an exact
inverse.

Wire format (all integers big-endian):

    magic  b"SCPM"
    u8     version (1)
    u16    height, width, C_total, C_p
    u16[]  present class ids (C_p entries, ascending)
    body   per plane: varint run lengths, row-major scan, first run counts
           zeros, terminated by a zero-length sentinel varint
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SCPM"
VERSION = 1
MAX_PIXELS = 1 << 24  # largest height * width that rle_unpack decodes
MAX_STACK_BYTES = 1 << 26  # largest C_p * height * width (uint8 planes) that rle_unpack decodes


class CodecError(ValueError):
    """Invalid input to a codec operation."""


class FormatError(CodecError):
    """Malformed or corrupt payload bytes."""


class DegenerateInputError(CodecError):
    """Input that cannot be processed (e.g. a stack with no pixels)."""


@dataclass(frozen=True)
class OneHotStack:
    """Binary planes for the classes present in a map."""

    present_classes: tuple
    planes: np.ndarray  # uint8, [C_p, H, W]
    c_total: int

    def __post_init__(self):
        ids = self.present_classes
        if list(ids) != sorted(set(ids)):
            raise CodecError(f"present_classes must be sorted and duplicate-free, got {ids}")
        if len(ids) and ids[-1] >= self.c_total:
            raise CodecError(f"class id {ids[-1]} >= C_total {self.c_total}")
        if self.planes.shape[0] != len(ids):
            raise CodecError(f"{self.planes.shape[0]} planes for {len(ids)} classes")
        planes = self.planes
        if planes.dtype != np.uint8 or planes.max(initial=0) > 1:
            raise CodecError("planes must be binary uint8")
        # binary planes sum to at most len(ids), which this accumulator holds
        if not (planes.sum(axis=0, dtype=np.min_scalar_type(len(ids))) == 1).all():
            raise CodecError("partition property violated: some pixel is not covered exactly once")
        if not planes.max(axis=(1, 2), initial=0).all():
            raise CodecError("a listed class has an empty plane")

    @property
    def height(self):
        return self.planes.shape[1]

    @property
    def width(self):
        return self.planes.shape[2]


@dataclass(frozen=True)
class TransmitPayload:
    """Compressed wire form of a one-hot stack plus its header."""

    height: int
    width: int
    c_total: int
    present_classes: tuple
    body: bytes

    @property
    def header_bytes(self):
        return len(MAGIC) + 1 + 4 * 2 + 2 * len(self.present_classes)

    @property
    def bit_count(self):
        return 8 * (self.header_bytes + len(self.body))

    def to_bytes(self):
        head = MAGIC + struct.pack(
            ">BHHHH", VERSION, self.height, self.width, self.c_total, len(self.present_classes)
        )
        ids = struct.pack(f">{len(self.present_classes)}H", *self.present_classes)
        return head + ids + self.body

    @classmethod
    def from_bytes(cls, raw):
        if len(raw) < 13 or raw[:4] != MAGIC:
            raise FormatError("bad magic: not an SCPM payload")
        version, h, w, c_total, c_p = struct.unpack(">BHHHH", raw[4:13])
        if version != VERSION:
            raise FormatError(f"unsupported SCPM version {version}")
        end = 13 + 2 * c_p
        if len(raw) < end:
            raise FormatError("truncated class-id list")
        ids = struct.unpack(f">{c_p}H", raw[13:end])
        return cls(h, w, c_total, tuple(ids), bytes(raw[end:]))


@dataclass(frozen=True)
class ChannelFrame:
    """Power-normalized real symbols plus the scale that undoes normalization."""

    symbols: np.ndarray  # float64, flat
    scale: float


# -- one-hot encoding -----------------------------------------------------------

def one_hot_encode(class_map, c_total):
    """Binary plane per distinct class id of the map, ascending id order."""
    cmap = np.asarray(class_map)
    if cmap.ndim != 2:
        raise CodecError(f"semantic map must be 2-d, got shape {cmap.shape}")
    if cmap.size == 0:
        raise CodecError(f"semantic map is empty, got shape {cmap.shape}")
    if cmap.dtype.kind not in "biu":
        raise CodecError(f"class ids must be integers, got dtype {cmap.dtype}")
    lo, hi = int(cmap.min()), int(cmap.max())
    if lo < 0 or hi >= c_total:
        raise CodecError(f"class id {lo if lo < 0 else hi} out of range [0, {c_total})")
    present = tuple(np.flatnonzero(np.bincount(cmap.ravel(), minlength=c_total)).tolist())
    planes = np.stack([(cmap == c) for c in present]).astype(np.uint8)
    return OneHotStack(present, planes, int(c_total))


def stack_to_map(stack):
    """Exact inverse of one_hot_encode for valid stacks."""
    idx = np.argmax(stack.planes, axis=0)
    return np.asarray(stack.present_classes, dtype=np.int32)[idx]


def pad_planes(planes, present_classes, c_total):
    """Place C_p planes at their class ids in a C_total stack of zero planes."""
    full = np.zeros((c_total,) + planes.shape[1:], dtype=planes.dtype)
    full[list(present_classes)] = planes
    return full


def pad_stack(stack):
    """Expand the stack's C_p planes to the full C_total stack, zeros for absent classes."""
    return pad_planes(stack.planes, stack.present_classes, stack.c_total)


# -- run-length wire format ------------------------------------------------------

def plane_runs(plane):
    """Row-major run lengths, first run counting zeros (may be 0)."""
    flat = np.asarray(plane, dtype=np.uint8).reshape(-1)
    if flat.size == 0:
        return []
    change = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs.insert(0, 0)
    return runs


def _varints(values):
    """Concatenated LEB128 varints (7 bits per byte, low group first) of
    non-negative integers."""
    v = np.asarray(values, dtype=np.int64)
    count = 1 + sum((v >> s) > 0 for s in range(7, 63, 7))  # bytes per value
    col = np.arange(int(count.max()))
    groups = (v[:, None] >> (7 * col)) & 0x7F
    groups |= np.where(col < count[:, None] - 1, 0x80, 0)
    return groups[col < count[:, None]].astype(np.uint8).tobytes()


def _read_varint(buf, pos):
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


def encode_plane(plane):
    """Varint run list for one plane, terminated by a zero-length sentinel."""
    return _varints(plane_runs(plane) + [0])


def decode_plane(buf, pos, height, width):
    n = height * width
    runs = []
    total = 0
    while True:
        r, pos = _read_varint(buf, pos)
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


def rle_pack(stack):
    """Lossless compression of a one-hot stack into a TransmitPayload."""
    # the header holds each as a u16; class ids and C_p are below C_total
    for name in ("height", "width", "c_total"):
        if getattr(stack, name) > 0xFFFF:
            raise CodecError(f"{name} {getattr(stack, name)} does not fit the u16 SCPM header")
    body = bytearray()
    for plane in stack.planes:
        body += encode_plane(plane)
    return TransmitPayload(stack.height, stack.width, stack.c_total,
                           stack.present_classes, bytes(body))


def rle_unpack(raw):
    """Exact inverse of rle_pack, from the wire bytes of its payload."""
    payload = TransmitPayload.from_bytes(raw)
    pixels = payload.height * payload.width
    if not pixels:
        raise FormatError(f"{payload.height}x{payload.width} map has no pixels")
    if pixels > MAX_PIXELS:
        raise FormatError(f"{payload.height}x{payload.width} map exceeds {MAX_PIXELS} pixels")
    if not payload.present_classes:
        raise FormatError("no class planes for a non-empty map")
    if len(payload.present_classes) * pixels > MAX_STACK_BYTES:
        raise FormatError(f"{len(payload.present_classes)} planes of {payload.height}x{payload.width} "
                          f"exceed the {MAX_STACK_BYTES}-byte stack bound")
    planes = []
    pos = 0
    for _ in payload.present_classes:
        plane, pos = decode_plane(payload.body, pos, payload.height, payload.width)
        planes.append(plane)
    if pos != len(payload.body):
        raise FormatError(f"{len(payload.body) - pos} trailing bytes after last plane")
    return OneHotStack(payload.present_classes, np.stack(planes), payload.c_total)


# -- power normalization -----------------------------------------------------------

def power_normalize(stack):
    """Scale the planes of a OneHotStack so the flat symbol vector has mean square 1."""
    if not stack.planes.size:
        raise DegenerateInputError(f"cannot power-normalize a {stack.height}x{stack.width} stack "
                                   "with no pixels")
    flat = stack.planes.reshape(-1).astype(np.float64)
    ms = float(np.mean(flat * flat))
    scale = float(np.sqrt(1.0 / ms))
    return ChannelFrame(flat * scale, scale)


def inverse_normalize(symbols, scale):
    """Undo power normalization; the scale must be finite and positive."""
    if not 0.0 < scale < np.inf:  # NaN fails both
        raise CodecError(f"power scale must be finite and > 0, got {scale}")
    return np.asarray(symbols, dtype=np.float64) / scale


# -- bandwidth accounting --------------------------------------------------------------

def raw_rgb_bits(height, width):
    """Bit budget of an uncompressed 8-bit RGB image."""
    return height * width * 3 * 8

