"""Channel metadata to text-embedding vectors, via pluggable providers.
The model's `adapter.*` tensors project these vectors into model space.

Providers are read-only after construction and embed deterministically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MetadataProviderError
from .ingest import ChannelMetadata

DEFAULT_EMBED_DIM = 768


@dataclass
class MetadataVector:
    values: np.ndarray
    descriptor: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError("metadata vector must be 1-d")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"metadata vector for {self.descriptor!r} has non-finite entries")


def canonical_descriptor(meta: ChannelMetadata) -> str:
    """The exact text form a channel is embedded under."""
    return f"body_part: {meta.body_part}, sensor: {meta.sensor}, axis: {meta.axis}"


class HashProvider:
    """Deterministic pseudo-embeddings: sha256(seed:descriptor) seeds a
    generator that draws N unit-variance normals, then L2-normalizes.

    Distinct descriptors land nearly orthogonal for N >= 64, which is all
    the downstream model needs from metadata: a stable channel identity.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, seed: int = 0):
        if dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        self.dim = dim
        self.seed = seed

    def embed(self, descriptor: str) -> MetadataVector:
        digest = hashlib.sha256(f"{self.seed}:{descriptor}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        values = rng.normal(0.0, 1.0, size=self.dim)
        norm = np.linalg.norm(values)
        if norm == 0:  # unreachable for continuous draws; belt and braces
            values = np.full(self.dim, 1.0 / np.sqrt(self.dim))
        else:
            values = values / norm
        return MetadataVector(values, descriptor)


class FileLookupProvider:
    """Embeddings replayed from a JSON cache file {descriptor: [floats]}."""

    def __init__(self, path: str | Path):
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise MetadataProviderError(f"cannot read embedding file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise MetadataProviderError(f"embedding file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or not raw:
            raise MetadataProviderError(f"embedding file {path} must map descriptors to vectors")
        self._table: dict[str, np.ndarray] = {}
        dims = set()
        for key, vec in raw.items():
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.ndim != 1:
                raise MetadataProviderError(f"embedding for {key!r} is not a flat list of numbers")
            self._table[key] = arr
            dims.add(arr.size)
        if len(dims) != 1:
            raise MetadataProviderError(f"embedding file {path} mixes dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self.name = f"file-lookup({path.name})"

    def embed(self, descriptor: str) -> MetadataVector:
        if descriptor not in self._table:
            raise MetadataProviderError(
                f"{self.name}: no embedding stored for descriptor {descriptor!r}"
            )
        return MetadataVector(self._table[descriptor].copy(), descriptor)


def make_provider(kind: str, *, dim: int = DEFAULT_EMBED_DIM, seed: int = 0, path: str | Path | None = None):
    """Provider factory used by config loading."""
    if kind == "deterministic-hash":
        return HashProvider(dim=dim, seed=seed)
    if kind == "file-lookup":
        if path is None:
            raise ConfigError("file-lookup provider needs an embedding file path")
        return FileLookupProvider(path)
    raise ConfigError(f"unknown metadata provider {kind!r}")


def embed_channels(channels: list[ChannelMetadata], provider) -> list[MetadataVector]:
    return [provider.embed(canonical_descriptor(meta)) for meta in channels]
