"""Codebook of motion primitives: codebook initialization, nearest-prototype
quantization, and usage monitoring. The prototypes are a (K, L) array
trained like every other parameter (see `model.backward`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

KMEANS_ITERS = 25
# rows per exact rescan: its (rows, K, L) difference tensor bounds peak memory
_QUANTIZE_CHUNK = 256
# entries of one GEMM block's (rows, K) distance matrix: 1 MiB of float64, so
# a scan's temporaries stay cache-sized and are reused from one block to the
# next instead of being mapped afresh on every call
_SCAN_BLOCK = 1 << 17


def init_codebook(
    K: int,
    L: int,
    strategy: str = "random-normal",
    sample: np.ndarray | None = None,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Create a (K, L) prototype array.

    random-normal draws entries ~ N(0, 1/L) so random prototypes have about
    unit norm, matching the scale of normalized segments. kmeans-seeded runs
    at most 25 Lloyd iterations on `sample` (shape (n, L), n >= K), starting
    from a seeded without-replacement draw of K sample points; clusters that
    lose all members keep their previous centroid. It stops early once an
    assignment repeats the previous one: the centroids are then at a fixed
    point, so the result has the bits all 25 iterations would give.
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
        columns = np.ascontiguousarray(sample.T)
        assign = None
        for _ in range(KMEANS_ITERS):
            previous, assign = assign, nearest_prototypes(sample, centroids)[0]
            if previous is not None and np.array_equal(assign, previous):
                break
            counts = np.bincount(assign, minlength=K)
            # a weighted bincount adds each cluster's members in sample order:
            # the same sequential sum as members.mean(axis=0) computes
            sums = np.stack([np.bincount(assign, weights=c, minlength=K) for c in columns], axis=1)
            live = counts > 0
            centroids[live] = sums[live] / counts[live, None]
        return centroids
    raise ConfigError(f"unknown codebook init strategy {strategy!r}")


def nearest_prototypes(segments: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-neighbor scan: (indices, squared distances) for a
    (n, L) stack of segments. Ties resolve to the lowest index. Non-finite
    segments or prototypes are rejected: a nan distance never loses an
    argmin, so it would silently take every assignment.

    Distances are ranked through the expansion |s|^2 - 2 s.z + |z|^2, one
    GEMM per chunk. Its rounding error is bounded per row (`_gemm_slack`);
    a row whose runner-up lies within that bound of its minimum is rescanned
    exactly, so indices and distances equal the exhaustive scan
    sum((s - z)^2) bit for bit.
    """
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim != 2:
        raise DataError(f"nearest_prototypes needs an (n, L) segment stack, got shape {segments.shape}")
    if segments.shape[1] != prototypes.shape[1]:
        raise DataError(
            f"segment length {segments.shape[1]} does not match codebook dim {prototypes.shape[1]}"
        )
    if not (np.all(np.isfinite(segments)) and np.all(np.isfinite(prototypes))):
        raise DataError("nearest_prototypes needs finite segments and prototypes")
    n, L = segments.shape
    proto_sq = np.sum(prototypes * prototypes, axis=1)
    max_proto_sq = float(proto_sq.max())
    rows = max(1, _SCAN_BLOCK // prototypes.shape[0])
    indices = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, rows):
        chunk = segments[start : start + rows]
        seg_sq = np.sum(chunk * chunk, axis=1)
        approx = chunk @ prototypes.T
        approx *= -2.0
        approx += seg_sq[:, None]
        approx += proto_sq
        idx = np.argmin(approx, axis=1)
        best = approx[np.arange(chunk.shape[0]), idx]
        cutoff = best + _gemm_slack(L, seg_sq, max_proto_sq)
        # a unique candidate is the scan's answer; ties, near-ties and rows
        # whose squares overflow (no candidate at all) are rescanned
        ambiguous = np.flatnonzero(np.count_nonzero(approx <= cutoff[:, None], axis=1) != 1)
        for lo in range(0, ambiguous.size, _QUANTIZE_CHUNK):
            rescan = ambiguous[lo : lo + _QUANTIZE_CHUNK]
            diff = chunk[rescan, None, :] - prototypes[None, :, :]
            idx[rescan] = np.argmin(np.sum(diff * diff, axis=2), axis=1)  # first minimum: lowest index
        diff = chunk - prototypes[idx]
        indices[start : start + chunk.shape[0]] = idx
        distances[start : start + chunk.shape[0]] = np.sum(diff * diff, axis=1)
    return indices, distances


def _gemm_slack(L: int, seg_sq: np.ndarray, max_proto_sq: float) -> np.ndarray:
    """Per-row gap below which the GEMM ranking may disagree with the
    exhaustive scan.

    With unit roundoff u = eps/2 and M = |s|^2 + max |z|^2 (so |s||z| <= M/2
    and every true distance d <= 2M): the three length-L dot products are off
    by at most L u(1 + O(Lu)) times |s|^2, 2|s||z| and |z|^2, 2 L u M in all,
    and the two additions by u(2M) + u(3M), so the expansion is within
    (2L + 5) u M of d. The scan's own sum((s - z)^2) is within (L + 2) u d
    <= (2L + 4) u M of d. Any index the scan can return is therefore within
    2 ((2L + 5) + (2L + 4)) u M = (8L + 18) u M of the GEMM minimum. The
    slack below, 8 (L + 4) eps M = (16L + 64) u M, is about twice that, which
    also covers the O(L^2 u^2) terms and the rounding of M and of the
    comparison itself.
    """
    return 8.0 * (L + 4) * np.finfo(np.float64).eps * (seg_sq + max_proto_sq)


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
