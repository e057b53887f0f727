"""Interpretability reports over a trained model: primitive-embedding
cosine similarity, token frequency with per-class composition, and the
within-channel Markov transition matrix. Exports are deterministic and
round-trip bit-exactly (floats are written with repr precision).

File naming convention: <run_id>_<report>.<ext>.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import Model

DEFAULT_TOP_N = 32


# ---------------------------------------------------------------------------
# Similarity


@dataclass
class SimilarityMatrix:
    values: np.ndarray  # (n, n); rows for zero-norm embeddings are NaN
    token_ids: np.ndarray  # (n,)
    defined: np.ndarray  # (n,) False where the embedding row has zero norm


def similarity(token_ids: np.ndarray, model: Model) -> SimilarityMatrix:
    """Pairwise cosine similarity of the primitive embedding rows E_VQ[id]."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    K = model.config.codebook_size
    if token_ids.ndim != 1 or token_ids.size == 0:
        raise DataError("token_ids must be a non-empty 1-d array")
    if np.any((token_ids < 0) | (token_ids >= K)):
        raise DataError(f"token ids must lie in [0, {K})")
    vectors = model.params["embed.rows"][token_ids]
    norms = np.linalg.norm(vectors, axis=1)
    defined = norms > 0
    safe = np.where(defined, norms, 1.0)
    unit = vectors / safe[:, None]
    values = unit @ unit.T
    values[~defined, :] = np.nan
    values[:, ~defined] = np.nan
    return SimilarityMatrix(values, token_ids, defined)


# ---------------------------------------------------------------------------
# Frequency


@dataclass
class FrequencyReport:
    indices: np.ndarray  # VQ indices, descending count order (ties: lower id)
    counts: np.ndarray  # aligned totals
    fractions: np.ndarray  # (n, num_classes) label composition per index
    num_classes: int
    total_tokens: int
    top_n: int


def frequency(
    streams: list[tuple[np.ndarray, int]],
    top_n: int = DEFAULT_TOP_N,
    num_classes: int | None = None,
    codebook_size: int | None = None,
) -> FrequencyReport:
    """Tally motion tokens over labeled streams.

    streams: (token index array, activity label) pairs, one per channel of
    each window. Composition fractions per index sum to 1 over classes.
    """
    if not streams:
        raise DataError("frequency needs at least one stream")
    labels = [int(lab) for _, lab in streams]
    if min(labels) < 0:
        raise DataError("stream labels must be >= 0")
    ncls = (max(labels) + 1) if num_classes is None else num_classes
    K = codebook_size
    if K is None:
        K = max(int(np.max(tokens)) for tokens, _ in streams if np.asarray(tokens).size) + 1
    table = np.zeros((K, ncls), dtype=np.int64)
    total = 0
    for tokens, label in streams:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0:
            continue
        if np.any((tokens < 0) | (tokens >= K)):
            raise DataError(f"token index outside [0, {K})")
        if not (0 <= label < ncls):
            raise DataError(f"label {label} outside [0, {ncls})")
        table[:, label] += np.bincount(tokens, minlength=K)
        total += tokens.size
    counts = table.sum(axis=1)
    # descending by count, ascending index as the tie-break
    order = np.lexsort((np.arange(K), -counts))
    keep = order[: min(top_n, K)]
    kept_counts = counts[keep]
    fractions = np.zeros((keep.size, ncls), dtype=np.float64)
    nonzero = kept_counts > 0
    fractions[nonzero] = table[keep[nonzero]] / kept_counts[nonzero, None]
    return FrequencyReport(
        indices=keep.astype(np.int64),
        counts=kept_counts,
        fractions=fractions,
        num_classes=ncls,
        total_tokens=total,
        top_n=top_n,
    )


# ---------------------------------------------------------------------------
# Transitions


@dataclass
class TransitionMatrix:
    probabilities: np.ndarray  # (K, K); unobserved rows all zero
    row_counts: np.ndarray  # (K,) outgoing transition observations
    observed: np.ndarray  # (K,) bool
    total_transitions: int


def transitions(streams: list[np.ndarray], codebook_size: int) -> TransitionMatrix:
    """First-order transition probabilities between consecutive motion
    tokens. Counting never crosses a stream boundary, so adjacency is only
    claimed within one channel of one window."""
    K = codebook_size
    counts = np.zeros((K, K), dtype=np.int64)
    total = 0
    for tokens in streams:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size < 2:
            continue
        if np.any((tokens < 0) | (tokens >= K)):
            raise DataError(f"token index outside [0, {K})")
        np.add.at(counts, (tokens[:-1], tokens[1:]), 1)
        total += tokens.size - 1
    row_counts = counts.sum(axis=1)
    observed = row_counts > 0
    probabilities = np.zeros((K, K), dtype=np.float64)
    probabilities[observed] = counts[observed] / row_counts[observed, None]
    return TransitionMatrix(probabilities, row_counts, observed, total)


# ---------------------------------------------------------------------------
# Stream extraction


def token_streams(indices: np.ndarray, labels: np.ndarray | None) -> list[tuple[np.ndarray, int]]:
    """Flatten a (B, C, S) assignment block into per-channel streams.
    With labels, each stream carries its window's label; without, label -1."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 3:
        raise DataError("indices must be (B, C, S)")
    B, C, S = indices.shape
    if labels is not None and len(labels) != B:
        raise DataError("one label per window required")
    out = []
    for b in range(B):
        label = int(labels[b]) if labels is not None else -1
        for c in range(C):
            out.append((indices[b, c].copy(), label))
    return out


# ---------------------------------------------------------------------------
# Export / import


def report_path(out_dir: str | Path, run_id: str, report: str, ext: str) -> Path:
    return Path(out_dir) / f"{run_id}_{report}.{ext}"


def _write_rows(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_similarity_csv(matrix: SimilarityMatrix, path: str | Path) -> None:
    """Schema: token_id, sim_<id>...; one row and one column per token."""
    ids = [str(int(i)) for i in matrix.token_ids]
    header = ["token_id"] + [f"sim_{i}" for i in ids]
    rows = [
        [ids[r]] + [repr(float(v)) for v in matrix.values[r]]
        for r in range(matrix.values.shape[0])
    ]
    _write_rows(path, header, rows)


def read_similarity_csv(path: str | Path) -> SimilarityMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids = np.array([int(h[len("sim_"):]) for h in header[1:]], dtype=np.int64)
        values = np.array([[float(v) for v in row[1:]] for row in reader])
    defined = ~np.isnan(values).all(axis=1)
    return SimilarityMatrix(values, ids, defined)


def export_frequency_csv(report: FrequencyReport, path: str | Path) -> None:
    """Schema: rank, vq_index, count, frac_<class>..."""
    header = ["rank", "vq_index", "count"] + [f"frac_{c}" for c in range(report.num_classes)]
    rows = [
        [r, int(report.indices[r]), int(report.counts[r])]
        + [repr(float(v)) for v in report.fractions[r]]
        for r in range(report.indices.size)
    ]
    _write_rows(path, header, rows)


def read_frequency_csv(path: str | Path) -> FrequencyReport:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncls = len(header) - 3
        indices, counts, fractions = [], [], []
        for row in reader:
            indices.append(int(row[1]))
            counts.append(int(row[2]))
            fractions.append([float(v) for v in row[3:]])
    counts_arr = np.array(counts, dtype=np.int64)
    return FrequencyReport(
        indices=np.array(indices, dtype=np.int64),
        counts=counts_arr,
        fractions=np.array(fractions, dtype=np.float64),
        num_classes=ncls,
        total_tokens=int(counts_arr.sum()),
        top_n=len(indices),
    )


def export_transitions_csv(matrix: TransitionMatrix, path: str | Path) -> None:
    """Schema: from_index, observed, row_count, p_<to>... (row-stochastic
    where observed, zeros elsewhere)."""
    K = matrix.probabilities.shape[0]
    header = ["from_index", "observed", "row_count"] + [f"p_{k}" for k in range(K)]
    rows = [
        [k, int(matrix.observed[k]), int(matrix.row_counts[k])]
        + [repr(float(v)) for v in matrix.probabilities[k]]
        for k in range(K)
    ]
    _write_rows(path, header, rows)


def read_transitions_csv(path: str | Path) -> TransitionMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        observed, row_counts, probs = [], [], []
        for row in reader:
            observed.append(bool(int(row[1])))
            row_counts.append(int(row[2]))
            probs.append([float(v) for v in row[3:]])
    row_counts_arr = np.array(row_counts, dtype=np.int64)
    return TransitionMatrix(
        probabilities=np.array(probs, dtype=np.float64),
        row_counts=row_counts_arr,
        observed=np.array(observed, dtype=bool),
        total_transitions=int(row_counts_arr.sum()),
    )


def export_report_json(report, path: str | Path) -> None:
    """Structured-text twin of the CSV exports (arrays nested as lists)."""
    if isinstance(report, SimilarityMatrix):
        payload = {
            "report": "similarity",
            "token_ids": report.token_ids.tolist(),
            "defined": report.defined.tolist(),
            "values": [[None if np.isnan(v) else v for v in row] for row in report.values],
        }
    elif isinstance(report, FrequencyReport):
        payload = {
            "report": "frequency",
            "top_n": report.top_n,
            "num_classes": report.num_classes,
            "total_tokens": report.total_tokens,
            "indices": report.indices.tolist(),
            "counts": report.counts.tolist(),
            "fractions": report.fractions.tolist(),
        }
    elif isinstance(report, TransitionMatrix):
        payload = {
            "report": "transitions",
            "total_transitions": report.total_transitions,
            "observed": report.observed.tolist(),
            "row_counts": report.row_counts.tolist(),
            "probabilities": report.probabilities.tolist(),
        }
    else:
        raise DataError(f"unknown report type {type(report).__name__}")
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
