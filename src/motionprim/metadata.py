"""Channel metadata to text-embedding vectors, via pluggable providers.
The model's `adapter.*` tensors project these vectors into model space.

Providers are read-only after construction. The remote provider is never
instantiated unless explicitly requested and is off by default everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MetadataProviderError
from .ingest import ChannelMetadata

DEFAULT_EMBED_DIM = 768

ENDPOINT_ENV = "MOTIONPRIM_EMBED_ENDPOINT"
API_KEY_ENV = "MOTIONPRIM_EMBED_API_KEY"


@dataclass
class MetadataVector:
    values: np.ndarray
    descriptor: str
    provider: str

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
        self.name = f"deterministic-hash(dim={dim},seed={seed})"

    def embed(self, descriptor: str) -> MetadataVector:
        digest = hashlib.sha256(f"{self.seed}:{descriptor}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        values = rng.normal(0.0, 1.0, size=self.dim)
        norm = np.linalg.norm(values)
        if norm == 0:  # unreachable for continuous draws; belt and braces
            values = np.full(self.dim, 1.0 / np.sqrt(self.dim))
        else:
            values = values / norm
        return MetadataVector(values, descriptor, self.name)


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
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise MetadataProviderError(f"embedding for {key!r} is not a flat list")
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
        return MetadataVector(self._table[descriptor].copy(), descriptor, self.name)


class RemoteProvider:
    """Thin HTTP client for a text-embedding endpoint.

    Endpoint and key come from environment variables only; requests retry
    3 times with exponential backoff and every failure names the provider.
    Off by default; nothing in this package calls it implicitly.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, timeout: float = 10.0, retries: int = 3):
        endpoint = os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ConfigError(f"remote provider requires the {ENDPOINT_ENV} environment variable")
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.dim = dim
        self.timeout = timeout
        self.retries = retries
        self.name = f"remote({endpoint})"
        self.request_log: list[dict] = []

    def embed(self, descriptor: str) -> MetadataVector:
        payload = json.dumps({"text": descriptor}).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.retries):
            request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = json.loads(response.read().decode())
                self.request_log.append({"descriptor": descriptor, "attempt": attempt, "ok": True})
                values = np.asarray(body["embedding"], dtype=np.float64)
                if values.size != self.dim:
                    raise MetadataProviderError(
                        f"{self.name}: endpoint returned {values.size} dims, expected {self.dim}"
                    )
                return MetadataVector(values, descriptor, self.name)
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last_error = exc
                self.request_log.append(
                    {"descriptor": descriptor, "attempt": attempt, "ok": False, "error": str(exc)}
                )
                if attempt + 1 < self.retries:
                    time.sleep(0.5 * 2**attempt)
        raise MetadataProviderError(
            f"{self.name}: embedding {descriptor!r} failed after {self.retries} attempts: {last_error}"
        )


class CachingProvider:
    """Memoizes an inner provider so a descriptor is embedded once per run."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.dim = inner.dim
        self.name = inner.name
        self._cache: dict[str, MetadataVector] = {}

    def embed(self, descriptor: str) -> MetadataVector:
        if descriptor not in self._cache:
            self._cache[descriptor] = self.inner.embed(descriptor)
        return self._cache[descriptor]

    def dump_cache(self, path: str | Path) -> None:
        """Write accumulated embeddings in the file-lookup schema so a remote
        fetch can be replayed offline."""
        table = {desc: vec.values.tolist() for desc, vec in self._cache.items()}
        Path(path).write_text(json.dumps(table, indent=2, sort_keys=True))


def make_provider(kind: str, *, dim: int = DEFAULT_EMBED_DIM, seed: int = 0, path: str | Path | None = None):
    """Provider factory used by config loading; always cache-wrapped."""
    if kind == "deterministic-hash":
        return CachingProvider(HashProvider(dim=dim, seed=seed))
    if kind == "file-lookup":
        if path is None:
            raise ConfigError("file-lookup provider needs an embedding file path")
        return CachingProvider(FileLookupProvider(path))
    if kind == "remote":
        return CachingProvider(RemoteProvider(dim=dim))
    raise ConfigError(f"unknown metadata provider {kind!r}")


def embed_channels(channels: list[ChannelMetadata], provider) -> list[MetadataVector]:
    return [provider.embed(canonical_descriptor(meta)) for meta in channels]
