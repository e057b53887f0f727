"""Deterministic binary container for named tensors.

Layout: magic line, 8-byte big-endian header length, JSON header, then the
raw buffers concatenated in header order. The header records kind, format
version, user metadata, and per-tensor name/dtype/shape. Writing the same
content always produces the same bytes (sorted JSON keys, no timestamps),
which checkpoint hashing relies on.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"MPTENS1\n"

_DTYPES = {
    "float64": "<f8",
    "int64": "<i8",
}


def save_tensors(path: str | Path, kind: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` to `path`. Floats are stored as little-endian float64,
    integers as little-endian int64; other dtypes are rejected."""
    entries = []
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype("<f8")
            dtype = "float64"
        elif np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype("<i8")
            dtype = "int64"
        else:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(np.ascontiguousarray(arr).tobytes())
    header = {"kind": kind, "version": 1, "meta": meta, "tensors": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "big"))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_tensors(path: str | Path, expected_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by `save_tensors`; returns (meta, tensors).
    Anything else, including a truncated file, a malformed header or bytes
    after the last tensor, raises CheckpointError."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no such file: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a motionprim tensor file")
        prefix = len(MAGIC) + 8
        if size < prefix:
            raise CheckpointError(f"{path}: truncated before the header length")
        header_len = int.from_bytes(fh.read(8), "big")
        if header_len > size - prefix:
            raise CheckpointError(f"{path}: header length {header_len} exceeds the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep nesting recurses
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("version") != 1:
            raise CheckpointError(f"{path}: unsupported container version {header.get('version')}")
        if expected_kind is not None and header.get("kind") != expected_kind:
            raise CheckpointError(
                f"{path}: expected kind {expected_kind!r}, found {header.get('kind')!r}"
            )
        meta, entries = header.get("meta"), header.get("tensors")
        if not isinstance(meta, dict) or not isinstance(entries, list):
            raise CheckpointError(f"{path}: header needs a 'meta' object and a 'tensors' list")
        remaining = size - prefix - header_len
        tensors: dict[str, np.ndarray] = {}
        for entry in entries:
            name, dtype, shape = _entry_fields(path, entry)
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            nbytes = 8 * math.prod(shape)
            if nbytes > remaining:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            tensors[name] = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape).copy()
            remaining -= nbytes
        if remaining:
            raise CheckpointError(f"{path}: {remaining} trailing bytes after the last tensor")
    return meta, tensors


def _entry_fields(path: Path, entry) -> tuple[str, str, tuple[int, ...]]:
    """(name, numpy dtype, shape) of one header tensor entry, validated."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: tensor entry {entry!r} is not an object")
    name, shape = entry.get("name"), entry.get("shape")
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: tensor entry without a name: {entry!r}")
    dtype = _DTYPES.get(entry.get("dtype")) if isinstance(entry.get("dtype"), str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: unknown dtype {entry.get('dtype')!r} for tensor {name!r}")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise CheckpointError(f"{path}: bad shape {shape!r} for tensor {name!r}")
    return name, dtype, tuple(shape)
