"""Channel metadata to text-embedding vectors, via pluggable providers.
The model's `adapter.*` tensors project these vectors into model space.

Providers are read-only after construction and embed deterministically,
each at one width N: the CLI builds its provider at the model's `meta_dim`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MetadataProviderError
from .ingest import ChannelMetadata
from .schema import read_json


def canonical_descriptor(meta: ChannelMetadata) -> str:
    """The exact text form a channel is embedded under."""
    return f"body_part: {meta.body_part}, sensor: {meta.sensor}, axis: {meta.axis}"


class HashProvider:
    """Deterministic pseudo-embeddings: sha256(seed:descriptor) seeds a
    generator that draws N unit-variance normals, then L2-normalizes.

    Distinct descriptors land nearly orthogonal for N >= 64, which is all
    the downstream model needs from metadata: a stable channel identity.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        self.dim, self.seed = dim, seed

    def embed(self, descriptor: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}:{descriptor}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        values = rng.normal(0.0, 1.0, size=self.dim)
        return values / np.linalg.norm(values)


class FileLookupProvider:
    """Embeddings replayed from a JSON cache file {descriptor: [floats]}."""

    def __init__(self, path: str | Path):
        path = Path(path)
        try:
            raw = read_json(path, "embedding file")
        except (ConfigError, DataError) as exc:
            raise MetadataProviderError(str(exc)) from exc
        if not isinstance(raw, dict) or not raw:
            raise MetadataProviderError(f"embedding file {path} must map descriptors to vectors")
        self._table: dict[str, np.ndarray] = {}
        for key, vec in raw.items():
            try:
                arr = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if arr is None or arr.ndim != 1:
                raise MetadataProviderError(f"embedding for {key!r} is not a flat list of numbers")
            if not np.all(np.isfinite(arr)):
                raise MetadataProviderError(f"embedding for {key!r} has non-finite entries")
            self._table[key] = arr
        dims = {arr.size for arr in self._table.values()}
        if len(dims) != 1:
            raise MetadataProviderError(f"embedding file {path} mixes dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self.name = f"file-lookup({path.name})"

    def embed(self, descriptor: str) -> np.ndarray:
        if descriptor not in self._table:
            raise MetadataProviderError(f"{self.name}: no embedding stored for descriptor {descriptor!r}")
        return self._table[descriptor].copy()


def make_provider(kind: str, *, dim: int, seed: int = 0, path: str | Path | None = None):
    """The provider of `kind`; a hash provider embeds at `dim`, a file's width is its own."""
    if kind == "deterministic-hash":
        return HashProvider(dim=dim, seed=seed)
    if kind == "file-lookup":
        if path is None:
            raise ConfigError("file-lookup provider needs an embedding file path")
        return FileLookupProvider(path)
    raise ConfigError(f"unknown metadata provider {kind!r}")


def embed_channels(channels: list[ChannelMetadata], provider) -> np.ndarray:
    """The (C, N) matrix of the channels' vectors, one row per channel."""
    return np.stack([provider.embed(canonical_descriptor(meta)) for meta in channels])
