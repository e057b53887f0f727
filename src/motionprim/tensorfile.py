"""Deterministic binary container for named tensors.

Layout: magic line, 8-byte big-endian header length, JSON header, then the
raw buffers concatenated in header order. The header records kind, format
version, user metadata, and per-tensor name/dtype/shape. Writing the same
content always produces the same bytes (sorted JSON keys, no timestamps),
which checkpoint hashing relies on. `publish` is the package's one file
writer: every artifact reaches disk through it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import CheckpointError

MAGIC = b"MPTENS1\n"

# numpy's limits on an array: its dimension count, and its byte count
_MAX_DIMS = 64
_MAX_BYTES = np.iinfo(np.intp).max

_DTYPES = {
    "float64": "<f8",
    "int64": "<i8",
}


def publish(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Write one artifact file: `write(fh)` fills a uniquely named temporary
    binary file in `path`'s directory, which then replaces `path` in one
    rename. A write that fails or is killed leaves any previous file at
    `path` whole. A failed write removes its temporary file and re-raises
    its error unchanged."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def save_tensors(
    path: str | Path, kind: str, meta: dict, tensors: dict[str, np.ndarray | list[np.ndarray]]
) -> None:
    """Write `tensors` to `path` through `publish`. Floats are stored as
    little-endian float64, integers as little-endian int64; other dtypes are
    rejected. An array already in its stored form is written from its own
    buffer, uncopied; any other is converted as it is written. A tensor
    given as a list is its row chunks: arrays of one stored dtype and one
    shape past the first axis, stored as their concatenation but written
    one chunk at a time, so the whole tensor is never held."""
    entries = []
    parts = []
    for name, arr in tensors.items():
        chunks = [np.asarray(chunk) for chunk in arr] if isinstance(arr, list) else [np.asarray(arr)]
        stored = {_stored_dtype(chunk.dtype, name) for chunk in chunks}
        if isinstance(arr, list):
            tails = {chunk.shape[1:] if chunk.ndim else None for chunk in chunks}
            if len(stored) != 1 or len(tails) != 1 or None in tails:
                raise CheckpointError(
                    f"the row chunks of tensor {name!r} must share a stored dtype and every axis but the first"
                )
            shape = [sum(map(len, chunks)), *tails.pop()]
        else:
            shape = list(chunks[0].shape)
        ((stored, dtype),) = stored
        entries.append({"name": name, "dtype": dtype, "shape": shape})
        parts.append((stored, chunks))
    header = {"kind": kind, "version": 1, "meta": meta, "tensors": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def write(fh: BinaryIO) -> None:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "big"))
        fh.write(header_bytes)
        for stored, chunks in parts:
            for chunk in chunks:
                if chunk.size:  # a memoryview with a zero in its shape cannot be cast
                    fh.write(memoryview(np.asarray(chunk, dtype=stored, order="C")).cast("B"))

    publish(path, write)


def _stored_dtype(dtype: np.dtype, name: str) -> tuple[str, str]:
    """(stored numpy dtype, header dtype name) of a tensor of `dtype`."""
    if np.issubdtype(dtype, np.floating):
        return "<f8", "float64"
    if np.issubdtype(dtype, np.integer):
        return "<i8", "int64"
    raise CheckpointError(f"unsupported dtype {dtype} for tensor {name!r}")


def load_tensors(
    path: str | Path,
    expected_kind: str,
    into: Callable[[str, str, tuple[int, ...]], np.ndarray | None] | None = None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container of `expected_kind` written by `save_tensors`;
    returns (meta, tensors). Anything else, including another kind, a
    truncated file, a malformed header or bytes after the last tensor,
    raises CheckpointError. `into(name, dtype, shape)`, asked before each
    tensor is read, may return the C-contiguous array of that dtype and
    shape to read it into; None reads it into a new array."""
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"no such file: {path}")
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open: {exc}") from exc
    with fh:
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
        if header.get("kind") != expected_kind:
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
            arr = None if into is None else into(name, dtype, shape)
            if arr is None:
                arr = np.empty(shape, dtype=dtype)
            if nbytes and fh.readinto(memoryview(arr).cast("B")) != nbytes:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            tensors[name] = arr
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
    if not isinstance(shape, list) or len(shape) > _MAX_DIMS or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise CheckpointError(f"{path}: bad shape {shape!r} for tensor {name!r}")
    # numpy refuses a shape whose nonzero dims overflow its byte count, even
    # when a zero dim leaves the tensor empty
    if 8 * math.prod(dim for dim in shape if dim) > _MAX_BYTES:
        raise CheckpointError(f"{path}: shape {shape!r} of tensor {name!r} is too large")
    return name, dtype, tuple(shape)
