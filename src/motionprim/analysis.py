"""Interpretability reports over a trained model: primitive-embedding
cosine similarity, token frequency with per-class composition, and the
within-channel Markov transition matrix. Each report is a table and a JSON
payload; `export_report` writes both, deterministically, and the CSV
round-trips bit-exactly (floats are written with repr precision).

File naming convention: <run_id>_<report>.<ext>.
"""

from __future__ import annotations

import codecs
import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .encoder import _scatter_add
from .errors import ConfigError, DataError
from .model import Model
from .tensorfile import publish

DEFAULT_TOP_N = 32


# ---------------------------------------------------------------------------
# Similarity


@dataclass
class SimilarityMatrix:
    values: np.ndarray  # (n, n); rows for zero-norm embeddings are NaN
    token_ids: np.ndarray  # (n,)
    defined: np.ndarray  # (n,) False where the embedding row has zero norm

    name: ClassVar[str] = "similarity"

    def table(self) -> tuple[list[str], list[list]]:
        """Schema: token_id, sim_<id>...; one row and one column per token."""
        ids = [str(int(i)) for i in self.token_ids]
        header = ["token_id"] + [f"sim_{i}" for i in ids]
        rows = [[ids[r]] + [repr(float(v)) for v in self.values[r]] for r in range(self.values.shape[0])]
        return header, rows

    def payload(self) -> dict:
        return {
            "report": self.name,
            "token_ids": self.token_ids.tolist(),
            "defined": self.defined.tolist(),
            "values": [[None if np.isnan(v) else v for v in row] for row in self.values],
        }


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


def rank_tokens(counts: np.ndarray) -> np.ndarray:
    """The token ids of per-id `counts` by descending count, ties to the lower id."""
    return np.argsort(-counts, kind="stable")


@dataclass
class FrequencyReport:
    indices: np.ndarray  # VQ indices, descending count order (ties: lower id)
    counts: np.ndarray  # aligned totals
    fractions: np.ndarray  # (n, num_classes) label composition per index
    num_classes: int
    total_tokens: int
    top_n: int

    name: ClassVar[str] = "frequency"

    def table(self) -> tuple[list[str], list[list]]:
        """Schema: rank, vq_index, count, frac_<class>..."""
        header = ["rank", "vq_index", "count"] + [f"frac_{c}" for c in range(self.num_classes)]
        rows = [
            [r, int(self.indices[r]), int(self.counts[r])] + [repr(float(v)) for v in self.fractions[r]]
            for r in range(self.indices.size)
        ]
        return header, rows

    def payload(self) -> dict:
        return {
            "report": self.name,
            "top_n": self.top_n,
            "num_classes": self.num_classes,
            "total_tokens": self.total_tokens,
            "indices": self.indices.tolist(),
            "counts": self.counts.tolist(),
            "fractions": self.fractions.tolist(),
        }


def frequency(
    streams: list[tuple[np.ndarray, int]],
    codebook_size: int,
    num_classes: int,
    top_n: int = DEFAULT_TOP_N,
) -> FrequencyReport:
    """Tally motion tokens in [0, codebook_size) over streams labeled in
    [0, num_classes).

    streams: (token index array, activity label) pairs, one per channel of
    each window. Composition fractions per index sum to 1 over classes.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    if not streams:
        raise DataError("frequency needs at least one stream")
    if min(int(lab) for _, lab in streams) < 0:
        raise DataError("stream labels must be >= 0")
    K, ncls = codebook_size, num_classes
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
    keep = rank_tokens(counts)[:top_n]
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

    name: ClassVar[str] = "transitions"

    def table(self) -> tuple[list[str], list[list]]:
        """Schema: from_index, observed, row_count, p_<to>... (row-stochastic
        where observed, zeros elsewhere)."""
        K = self.probabilities.shape[0]
        header = ["from_index", "observed", "row_count"] + [f"p_{k}" for k in range(K)]
        rows = [
            [k, int(self.observed[k]), int(self.row_counts[k])] + [repr(float(v)) for v in self.probabilities[k]]
            for k in range(K)
        ]
        return header, rows

    def payload(self) -> dict:
        return {
            "report": self.name,
            "total_transitions": self.total_transitions,
            "observed": self.observed.tolist(),
            "row_counts": self.row_counts.tolist(),
            "probabilities": self.probabilities.tolist(),
        }


def transitions(streams: list[np.ndarray], codebook_size: int) -> TransitionMatrix:
    """First-order transition probabilities between consecutive motion
    tokens. Counting never crosses a stream boundary, so adjacency is only
    claimed within one channel of one window."""
    K = codebook_size
    streams = [tokens for tokens in (np.asarray(s, dtype=np.int64) for s in streams) if tokens.size >= 2]
    # the (from, to) tokens of every step within a stream
    firsts = np.empty(sum(tokens.size - 1 for tokens in streams), dtype=np.int64)
    seconds = np.empty_like(firsts)
    start = 0
    for tokens in streams:
        if np.any((tokens < 0) | (tokens >= K)):
            raise DataError(f"token index outside [0, {K})")
        stop = start + tokens.size - 1
        firsts[start:stop], seconds[start:stop] = tokens[:-1], tokens[1:]
        start = stop
    counts = _scatter_add((K, K), firsts, seconds)
    total = firsts.size
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


def export_report(
    report: SimilarityMatrix | FrequencyReport | TransitionMatrix, out_dir: str | Path, run_id: str
) -> list[Path]:
    """Write `report` into `out_dir` as <run_id>_<name>.csv, its table, and
    <run_id>_<name>.json, its payload (NaN as null), each through
    `tensorfile.publish`; returns the two paths."""
    csv_path, json_path = (Path(out_dir) / f"{run_id}_{report.name}.{ext}" for ext in ("csv", "json"))
    header, rows = report.table()

    def write_csv(fh) -> None:
        writer = csv.writer(codecs.getwriter("utf-8")(fh))
        writer.writerow(header)
        writer.writerows(rows)

    publish(csv_path, write_csv)
    publish(json_path, lambda fh: fh.write(json.dumps(report.payload(), indent=2, sort_keys=True).encode()))
    return [csv_path, json_path]


def read_similarity_csv(path: str | Path) -> SimilarityMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ids = np.array([int(h[len("sim_"):]) for h in header[1:]], dtype=np.int64)
        values = np.array([[float(v) for v in row[1:]] for row in reader])
    defined = ~np.isnan(values).all(axis=1)
    return SimilarityMatrix(values, ids, defined)


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
