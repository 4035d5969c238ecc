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
    """arrays: ordered mapping name -> ndarray (stored as float32); extra: a JSON object."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype("<f4").tobytes())
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
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (arrays dict, manifest dict); any damage raises CheckpointError."""
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path}")
    with open(path, "rb") as f:
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
        if not isinstance(name, str) or not all(isinstance(d, int) and d >= 0 for d in shape):
            raise CheckpointError(f"bad checkpoint entry {name!r} of shape {list(shape)}")
    if len({name for name, _ in entries}) != len(entries):
        raise CheckpointError("checkpoint entries repeat a name")
    return manifest, entries
