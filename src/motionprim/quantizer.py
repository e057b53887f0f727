"""Codebook of motion primitives: nearest-prototype quantization, the
commitment loss and its gradients, codebook initialization, EMA updates,
dead-code reseeding, and usage monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .tensorfile import load_tensors, save_tensors

DEFAULT_BETA = 0.25
KMEANS_ITERS = 25
# broadcasting over (chunk, K, L) keeps peak memory bounded
_QUANTIZE_CHUNK = 256


@dataclass
class Codebook:
    """K learnable prototypes in normalized-segment space plus usage state.

    `usage_counts` holds one tally per code (training fills it with a usage
    pass over the data); the EMA accumulators exist only after the first EMA
    update.
    """

    prototypes: np.ndarray
    usage_counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    ema_cluster_size: np.ndarray | None = None
    ema_mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 2:
            raise DataError("codebook needs a (K>=2, L) prototype matrix")
        if not np.all(np.isfinite(self.prototypes)):
            raise DataError("codebook prototypes must be finite")
        if self.usage_counts is None:
            self.usage_counts = np.zeros(self.prototypes.shape[0], dtype=np.int64)
        else:
            self.usage_counts = np.asarray(self.usage_counts, dtype=np.int64)
            if self.usage_counts.shape != (self.prototypes.shape[0],):
                raise DataError("usage_counts length must equal K")
            if np.any(self.usage_counts < 0):
                raise DataError("usage_counts must be >= 0")

    @property
    def size(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def reset_usage(self) -> None:
        self.usage_counts[:] = 0


def init_codebook(
    K: int,
    L: int,
    strategy: str = "random-normal",
    sample: np.ndarray | None = None,
    seed: int = 0,
) -> Codebook:
    """Create a codebook.

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
        protos = rng.normal(0.0, 1.0 / np.sqrt(L), size=(K, L))
        return Codebook(protos)
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
        return Codebook(centroids)
    raise ConfigError(f"unknown codebook init strategy {strategy!r}")


def nearest_prototypes(segments: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-neighbor scan: (indices, squared distances) for a
    (n, L) stack of segments. Ties resolve to the lowest index."""
    segments = np.asarray(segments, dtype=np.float64)
    single = segments.ndim == 1
    if single:
        segments = segments[None, :]
    if segments.shape[1] != prototypes.shape[1]:
        raise DataError(
            f"segment length {segments.shape[1]} does not match codebook dim {prototypes.shape[1]}"
        )
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


def vq_loss(
    segment_norm: np.ndarray,
    codeword: np.ndarray,
    beta: float = DEFAULT_BETA,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Commitment loss with both stop-gradient branches resolved analytically.

    loss = ||sg(s) - z||^2 + beta * ||s - sg(z)||^2; the codeword gradient
    comes only from the first term, the input gradient only from the second.
    Returns (loss, grad_wrt_input, grad_wrt_codeword).
    """
    if beta < 0:
        raise ConfigError("beta must be >= 0")
    s = np.asarray(segment_norm, dtype=np.float64)
    z = np.asarray(codeword, dtype=np.float64)
    if s.shape != z.shape:
        raise DataError(f"segment shape {s.shape} does not match codeword shape {z.shape}")
    diff = s - z
    sq = float(np.dot(diff, diff))
    loss = sq + beta * sq
    grad_input = 2.0 * beta * diff
    grad_codeword = -2.0 * diff
    return loss, grad_input, grad_codeword


def update_codebook(
    codebook: Codebook,
    segments: np.ndarray,
    indices: np.ndarray,
    rate: float = 0.05,
) -> Codebook:
    """One EMA codebook update from a batch of (normalized segment, index)
    pairs: cluster-size / cluster-sum moving averages with decay `rate`, and
    z_k set to their ratio. Rows with no assignments in the batch are
    untouched. Returns a new Codebook; the input is not mutated.
    """
    if not (0 <= rate <= 1):
        raise ConfigError("rate must be in [0, 1]")
    segments = np.asarray(segments, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    K, L = codebook.prototypes.shape
    protos = codebook.prototypes.copy()
    ema_size = None if codebook.ema_cluster_size is None else codebook.ema_cluster_size.copy()
    ema_mean = None if codebook.ema_mean is None else codebook.ema_mean.copy()
    if segments.size == 0:
        return Codebook(protos, codebook.usage_counts.copy(), ema_size, ema_mean)
    if segments.ndim != 2 or segments.shape[1] != L:
        raise DataError(f"update batch must be (n, {L})")
    if indices.shape != (segments.shape[0],):
        raise DataError("one index per segment required")
    if np.any((indices < 0) | (indices >= K)):
        raise DataError("assignment index out of range")

    counts = np.bincount(indices, minlength=K).astype(np.float64)
    sums = np.zeros((K, L), dtype=np.float64)
    np.add.at(sums, indices, segments)
    assigned = counts > 0
    if ema_size is None:
        ema_size = np.zeros(K, dtype=np.float64)
    if ema_mean is None:
        ema_mean = np.zeros((K, L), dtype=np.float64)
    ema_size[assigned] = rate * ema_size[assigned] + (1.0 - rate) * counts[assigned]
    ema_mean[assigned] = rate * ema_mean[assigned] + (1.0 - rate) * sums[assigned]
    protos[assigned] = ema_mean[assigned] / ema_size[assigned][:, None]
    return Codebook(protos, codebook.usage_counts.copy(), ema_size, ema_mean)


def reseed_dead_codes(codebook: Codebook, sample: np.ndarray, seed: int) -> tuple[Codebook, int]:
    """Replace rows with zero recorded usage by random sample segments.
    Guards against collapse; opt-in (callers decide when). Returns the new
    codebook and how many rows moved."""
    sample = np.asarray(sample, dtype=np.float64)
    dead = np.flatnonzero(codebook.usage_counts == 0)
    if dead.size == 0 or sample.shape[0] == 0:
        return codebook, 0
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, sample.shape[0], size=dead.size)
    protos = codebook.prototypes.copy()
    protos[dead] = sample[picks]
    return (
        Codebook(
            protos,
            codebook.usage_counts.copy(),
            None if codebook.ema_cluster_size is None else codebook.ema_cluster_size.copy(),
            None if codebook.ema_mean is None else codebook.ema_mean.copy(),
        ),
        int(dead.size),
    )


def usage_report(codebook: Codebook) -> tuple[int, float]:
    """(active code count, exp-entropy perplexity) of the usage histogram."""
    total = int(codebook.usage_counts.sum())
    if total == 0:
        raise DataError("usage_report needs at least one recorded usage")
    p = codebook.usage_counts / total
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log(nonzero)).sum())
    return int((codebook.usage_counts > 0).sum()), float(np.exp(entropy))


def save_codebook(codebook: Codebook, path: str | Path) -> None:
    tensors = {
        "prototypes": codebook.prototypes,
        "usage_counts": codebook.usage_counts,
    }
    if codebook.ema_cluster_size is not None:
        tensors["ema_cluster_size"] = codebook.ema_cluster_size
    if codebook.ema_mean is not None:
        tensors["ema_mean"] = codebook.ema_mean
    save_tensors(path, "codebook", {"K": codebook.size, "L": codebook.dim}, tensors)


def load_codebook(path: str | Path) -> Codebook:
    _, tensors = load_tensors(path, expected_kind="codebook")
    return Codebook(
        tensors["prototypes"],
        tensors["usage_counts"],
        tensors.get("ema_cluster_size"),
        tensors.get("ema_mean"),
    )
