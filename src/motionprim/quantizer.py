"""Codebook of motion primitives: codebook initialization, nearest-prototype
quantization, and usage monitoring. The prototypes are a (K, L) array
trained like every other parameter (see `model.backward`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

KMEANS_ITERS = 25
# broadcasting over (chunk, K, L) keeps peak memory bounded
_QUANTIZE_CHUNK = 256


def init_codebook(
    K: int,
    L: int,
    strategy: str = "random-normal",
    sample: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Create a (K, L) prototype array.

    random-normal draws entries ~ N(0, 1/L) so random prototypes have about
    unit norm, matching the scale of normalized segments. kmeans-seeded runs
    a fixed 25 Lloyd iterations on `sample` (shape (n, L), n >= K), starting
    from a seeded without-replacement draw of K sample points; clusters that
    lose all members keep their previous centroid.
    """
    if K < 2:
        raise ConfigError("codebook size K must be >= 2")
    if L < 1:
        raise ConfigError("segment length L must be >= 1")
    rng = np.random.default_rng(seed)
    if strategy == "random-normal":
        return rng.normal(0.0, 1.0 / np.sqrt(L), size=(K, L))
    if strategy == "kmeans-seeded":
        if sample is None:
            raise ConfigError("kmeans-seeded init needs a sample of segments")
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim != 2 or sample.shape[1] != L:
            raise DataError(f"kmeans sample must be (n, {L})")
        if sample.shape[0] < K:
            raise DataError(f"kmeans-seeded needs >= {K} sample segments, got {sample.shape[0]}")
        picks = rng.choice(sample.shape[0], size=K, replace=False)
        centroids = sample[picks].copy()
        for _ in range(KMEANS_ITERS):
            assign = nearest_prototypes(sample, centroids)[0]
            for k in range(K):
                members = sample[assign == k]
                if members.shape[0] > 0:
                    centroids[k] = members.mean(axis=0)
        return centroids
    raise ConfigError(f"unknown codebook init strategy {strategy!r}")


def nearest_prototypes(segments: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-neighbor scan: (indices, squared distances) for a
    (n, L) stack of segments. Ties resolve to the lowest index. Non-finite
    segments or prototypes are rejected: a nan distance never loses an
    argmin, so it would silently take every assignment."""
    segments = np.asarray(segments, dtype=np.float64)
    single = segments.ndim == 1
    if single:
        segments = segments[None, :]
    if segments.shape[1] != prototypes.shape[1]:
        raise DataError(
            f"segment length {segments.shape[1]} does not match codebook dim {prototypes.shape[1]}"
        )
    if not (np.all(np.isfinite(segments)) and np.all(np.isfinite(prototypes))):
        raise DataError("nearest_prototypes needs finite segments and prototypes")
    n = segments.shape[0]
    indices = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, _QUANTIZE_CHUNK):
        chunk = segments[start : start + _QUANTIZE_CHUNK]
        diff = chunk[:, None, :] - prototypes[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        idx = np.argmin(d2, axis=1)  # argmin takes the first minimum: lowest index wins ties
        indices[start : start + chunk.shape[0]] = idx
        distances[start : start + chunk.shape[0]] = d2[np.arange(chunk.shape[0]), idx]
    if single:
        return indices[:1], distances[:1]
    return indices, distances


def usage_report(counts: np.ndarray) -> tuple[int, float]:
    """(active code count, exp-entropy perplexity) of a usage histogram."""
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        raise DataError("usage_report needs at least one recorded usage")
    p = counts / total
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log(nonzero)).sum())
    return int((counts > 0).sum()), float(np.exp(entropy))
