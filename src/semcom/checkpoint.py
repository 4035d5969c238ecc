"""Checkpoint file format.

Layout: magic b"SCKP", version byte, u32 little-endian manifest length, UTF-8
JSON manifest (format version, config hash, named entries with shapes, an
extra-state object), then the raw float32 data: little-endian, row-major, in
manifest order. Writes are atomic (temp file + rename) so an aborted run
leaves the previous checkpoint intact.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"SCKP"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays, config_hash, extra):
    """arrays: ordered mapping name -> ndarray (stored as float32); extra: a JSON object.

    The manifest is built from the shapes, then each entry is converted and
    written in turn, so no more than one entry's converted bytes are held at
    a time (none for an entry already C-ordered float32)."""
    # an entry is written as np.ascontiguousarray makes it: 0-d as shape [1]
    entries = [{"name": name, "shape": list(np.atleast_1d(arr).shape)} for name, arr in arrays.items()]
    manifest = {
        "format_version": FORMAT_VERSION,
        "config_hash": config_hash,
        "entries": entries,
        "extra": extra,
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(bytes([FORMAT_VERSION]))
            f.write(struct.pack("<I", len(payload)))
            f.write(payload)
            for arr in arrays.values():
                f.write(np.ascontiguousarray(arr, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (arrays dict, manifest dict); any damage raises CheckpointError."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"no checkpoint at {path}: {e.strerror}") from None
    with f:
        magic = f.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        head = f.read(5)
        if len(head) != 5:
            raise CheckpointError("truncated checkpoint header")
        if head[0] != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {head[0]}")
        (mlen,) = struct.unpack("<I", head[1:])
        raw = f.read(mlen)
        if len(raw) != mlen:
            raise CheckpointError("truncated checkpoint manifest")
        manifest, entries = _parse_manifest(raw)
        # sizes in Python integers, so a huge shape neither overflows nor wraps
        nbytes = [4 * math.prod(shape) for _, shape in entries]
        left = os.fstat(f.fileno()).st_size - f.tell()
        if sum(nbytes) != left:
            raise CheckpointError(f"checkpoint entries need {sum(nbytes)} data bytes, the file holds {left}")
        try:
            arrays = {name: np.frombuffer(f.read(n), dtype="<f4").reshape(shape).astype(np.float32)
                      for (name, shape), n in zip(entries, nbytes)}
        except ValueError as e:  # a shape numpy cannot hold, such as (0, 2**70)
            raise CheckpointError(f"bad checkpoint entry shape: {e}") from None
    return arrays, manifest


def copy_into(live, arrays, error, what):
    """Write `arrays` in place into the `live` arrays of their names, so a dict from an earlier
    `state()` sees them; raise `error`, writing nothing, unless the names and shapes match `live`."""
    missing, unknown = sorted(live.keys() - arrays.keys()), sorted(arrays.keys() - live.keys())
    if missing or unknown:
        raise error(f"{what}: missing {missing[:3]}, unknown {unknown[:3]}")
    for name, arr in live.items():
        if np.shape(arrays[name]) != arr.shape:
            raise error(f"{name}: shape {np.shape(arrays[name])} != {arr.shape}")
    for name, arr in live.items():
        arr[...] = arrays[name]


def _parse_manifest(raw):
    """The manifest dict and its entries as (name, shape) pairs."""
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"checkpoint manifest is not JSON: {e}") from None
    if (not isinstance(manifest, dict) or not {"config_hash", "entries", "extra"} <= manifest.keys()
            or not isinstance(manifest["extra"], dict)):
        raise CheckpointError("checkpoint manifest lacks config_hash, entries or an extra object")
    try:
        entries = [(e["name"], tuple(e["shape"])) for e in manifest["entries"]]
    except (TypeError, KeyError) as e:
        raise CheckpointError(f"bad checkpoint entries: {e!r}") from None
    for name, shape in entries:
        if not isinstance(name, str) or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"bad checkpoint entry {name!r} of shape {list(shape)}")
    if len({name for name, _ in entries}) != len(entries):
        raise CheckpointError("checkpoint entries repeat a name")
    return manifest, entries
