"""Codebook of motion primitives: codebook initialization, nearest-prototype
quantization, and usage monitoring. The prototypes are a (K, L) array
trained like every other parameter (see `model.backward`).
"""

from __future__ import annotations

import functools

import numpy as np

from . import _parallel
from .errors import ConfigError, DataError

KMEANS_ITERS = 25
# rows per exact rescan: its (rows, K, L) difference tensor bounds peak memory
_QUANTIZE_CHUNK = 256
# entries of one GEMM block's (rows, K) distance matrix: 1 MiB of float64, so
# a scan's temporaries stay cache-sized and are reused from one block to the
# next instead of being mapped afresh on every call
_SCAN_BLOCK = 1 << 17


def init_codebook(sample: np.ndarray, K: int, seed: int) -> np.ndarray:
    """A (K, L) prototype array fitted by k-means to an (n, L) segment
    sample, n >= K: at most 25 Lloyd iterations from a seeded
    without-replacement draw of K sample points; clusters that lose all
    members keep their previous centroid. It stops early once an assignment
    repeats the previous one: the centroids are then at a fixed point, so
    the result has the bits all 25 iterations would give.
    """
    if K < 2:
        raise ConfigError("codebook size K must be >= 2")
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2:
        raise DataError(f"kmeans sample must be (n, L), got shape {sample.shape}")
    if sample.shape[0] < K:
        raise DataError(f"kmeans-seeded needs >= {K} sample segments, got {sample.shape[0]}")
    if not np.all(np.isfinite(sample)):
        raise DataError("kmeans sample must be finite")
    picks = np.random.default_rng(seed).choice(sample.shape[0], size=K, replace=False)
    centroids = sample[picks].copy()
    columns = np.ascontiguousarray(sample.T)
    # the sample is the same in every iteration: its squared norms are too
    sample_sq = np.sum(sample * sample, axis=1)
    assign = None
    for _ in range(KMEANS_ITERS):
        previous, assign = assign, _nearest_indices(sample, centroids, sample_sq)
        if previous is not None and np.array_equal(assign, previous):
            break
        counts = np.bincount(assign, minlength=K)
        # a weighted bincount adds each cluster's members in sample order:
        # the same sequential sum as members.mean(axis=0) computes
        sums = np.stack([np.bincount(assign, weights=c, minlength=K) for c in columns], axis=1)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
    return centroids


def nearest_prototypes(segments: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-neighbor scan: (indices, squared distances) for a
    (n, L) stack of segments. Ties resolve to the lowest index. Non-finite
    segments or prototypes are rejected: a nan distance never loses an
    argmin, so it would silently take every assignment.

    The indices are `_nearest_indices`'; each block then computes its rows'
    distances exactly, sum((s - z)^2), so they equal the exhaustive scan's
    bit for bit.
    """
    segments = np.asarray(segments, dtype=np.float64)
    # shape[:1] is () for a 0-d input, which the scan refuses before it writes
    distances = np.empty(segments.shape[:1], dtype=np.float64)
    return _nearest_indices(segments, prototypes, distances=distances), distances


def _nearest_indices(
    segments: np.ndarray,
    prototypes: np.ndarray,
    seg_sq: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> np.ndarray:
    """The nearest prototype of each row of a (n, L) segment stack, ties to
    the lowest index: the certified ranking, which reads no distance.

    Distances are ranked through the expansion |s|^2 + s.(-2z) + |z|^2, one
    GEMM per block of rows; the -2 is folded into the prototypes, which
    scaling by a power of two leaves exact. The expansion's rounding error
    is bounded per row (`_gemm_slack`). A row is certified when its
    runner-up, found by a second argmin once its winner is set to +inf,
    lies beyond that bound of the winner; every other row (ties, near-ties,
    and rows whose squares overflow to inf or nan, which fail the
    comparison) is rescanned exactly, so every index is the exhaustive
    scan's. A scan of more than one block deals its blocks over the threads
    of `_parallel.run_parallel`; every row is exact whichever thread scans
    it, so the result does not depend on the CPU count.

    `seg_sq`, the rows' squared norms np.sum(s * s, axis=1), is passed by a
    caller that ranks one checked, finite sample against many codebooks
    (k-means); otherwise the segments are checked here and each block
    squares its own rows. The prototypes are checked on every call.
    `distances`, if given, receives each row's exact squared distance to
    its prototype, computed in the row's block (`nearest_prototypes`).
    """
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim != 2:
        raise DataError(f"nearest-prototype scan needs an (n, L) segment stack, got shape {segments.shape}")
    if segments.shape[1] != prototypes.shape[1]:
        raise DataError(
            f"segment length {segments.shape[1]} does not match codebook dim {prototypes.shape[1]}"
        )
    if seg_sq is None and not np.all(np.isfinite(segments)):
        raise DataError("nearest-prototype scan needs finite segments")
    if not np.all(np.isfinite(prototypes)):
        raise DataError("nearest-prototype scan needs finite prototypes")
    n, L = segments.shape
    scaled = prototypes.T * -2.0
    proto_sq = np.sum(prototypes * prototypes, axis=1)
    max_proto_sq = float(proto_sq.max())
    rows = max(1, _SCAN_BLOCK // prototypes.shape[0])
    indices = np.empty(n, dtype=np.int64)

    def scan(starts: range) -> None:
        for start in starts:
            block = slice(start, start + rows)
            chunk = segments[block]
            sq = np.sum(chunk * chunk, axis=1) if seg_sq is None else seg_sq[block]
            approx = chunk @ scaled
            approx += sq[:, None]
            approx += proto_sq
            at = np.arange(chunk.shape[0])
            idx = np.argmin(approx, axis=1)
            cutoff = approx[at, idx] + _gemm_slack(L, sq, max_proto_sq)
            approx[at, idx] = np.inf
            runner_up = approx[at, np.argmin(approx, axis=1)]
            # freed before the distance temporaries are made: holding it
            # past them grew the heap, and a call page-faulted on fresh pages
            del approx
            ambiguous = np.flatnonzero(~(runner_up > cutoff))
            for lo in range(0, ambiguous.size, _QUANTIZE_CHUNK):
                rescan = ambiguous[lo : lo + _QUANTIZE_CHUNK]
                diff = chunk[rescan, None, :] - prototypes[None, :, :]
                idx[rescan] = np.argmin(np.sum(diff * diff, axis=2), axis=1)  # first minimum: lowest index
            indices[block] = idx
            if distances is not None:
                diff = chunk - prototypes[idx]
                distances[block] = np.sum(diff * diff, axis=1)

    blocks = range(0, n, rows)
    k = max(1, min(_parallel.cpus(), len(blocks)))
    _parallel.run_parallel([functools.partial(scan, blocks[g::k]) for g in range(k)])
    return indices


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
