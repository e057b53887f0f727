"""Transformer input construction: the sequence layout and the batched sum
of code, statistical, metadata and position embeddings, with its gradient.

Index conventions, all 0-based:
  rows 0..K-1 of the embedding table are the codebook entries,
  row K is [MASK], row K+1 is [START], row K+2 is [END];
  [CLS] is a separate vector with no table row (sentinel index -1).
Position slots: a motion token at time t uses slot t; the top three rows of
the position table are reserved for CLS, START, END, from the top down
(shared by channels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import _scatter_add, _weight_grad
from .errors import ConfigError, DataError

KIND_CLS = 0
KIND_START = 1
KIND_MOTION = 2
KIND_END = 3

CLS_SENTINEL = -1


def mask_row(K: int) -> int:
    return K


def start_row(K: int) -> int:
    return K + 1


def end_row(K: int) -> int:
    return K + 2


# ---------------------------------------------------------------------------
# Sequence layout


@dataclass
class SequenceLayout:
    """Structural description shared by every window with the same channel
    count and segment count: token kind, owning channel and position slot
    for each of the Seq = 1 + C*(S+2) positions."""

    kinds: np.ndarray
    channel_of: np.ndarray
    position_slot: np.ndarray

    @property
    def seq_len(self) -> int:
        return self.kinds.shape[0]

    @property
    def motion_mask(self) -> np.ndarray:
        return self.kinds == KIND_MOTION

    @property
    def motion_positions(self) -> np.ndarray:
        return np.flatnonzero(self.motion_mask)

    @property
    def channel_positions(self) -> np.ndarray:
        """Positions owned by a channel: every token but CLS."""
        return np.flatnonzero(self.channel_of >= 0)


def build_layout(num_channels: int, segments_per_channel: int, position_rows: int) -> SequenceLayout:
    """Layout [CLS] then per channel [START] t_0 .. t_{S-1} [END], against a
    position table of `position_rows` rows whose top three are reserved."""
    if num_channels < 1:
        raise DataError("layout needs at least one channel")
    if segments_per_channel < 0:
        raise DataError("segments_per_channel must be >= 0")
    S = segments_per_channel
    if position_rows < S + 3:
        raise ConfigError(
            f"position table has {position_rows} slots; needs {S} motion slots + 3 reserved"
        )
    seq_len = 1 + num_channels * (S + 2)
    kinds = np.empty(seq_len, dtype=np.int8)
    channel_of = np.full(seq_len, -1, dtype=np.int64)
    slots = np.empty(seq_len, dtype=np.int64)
    kinds[0] = KIND_CLS
    slots[0] = position_rows - 1
    pos = 1
    for c in range(num_channels):
        kinds[pos] = KIND_START
        channel_of[pos] = c
        slots[pos] = position_rows - 2
        pos += 1
        for t in range(S):
            kinds[pos] = KIND_MOTION
            channel_of[pos] = c
            slots[pos] = t
            pos += 1
        kinds[pos] = KIND_END
        channel_of[pos] = c
        slots[pos] = position_rows - 3
        pos += 1
    return SequenceLayout(kinds, channel_of, slots)


# ---------------------------------------------------------------------------
# Input construction


def table_rows(
    params: dict[str, np.ndarray],
    layout: SequenceLayout,
    indices: np.ndarray,
    mask_positions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The embedding-table row of every token of B windows that share one
    layout, and the masked tokens' targets.

    indices (B, C, S) fill the motion tokens in channel-major order; START
    and END take their table rows and CLS the sentinel (it uses the separate
    CLS vector). mask_positions (B, m) swaps those motion tokens' rows for
    [MASK]. Returns (table rows (B, Seq), pre-mask targets (B, m) or None).
    """
    K = params["embed.rows"].shape[0] - 3
    B = indices.shape[0]
    motion_pos = layout.motion_positions
    rows = np.empty((B, layout.seq_len), dtype=np.int64)
    rows[:, layout.kinds == KIND_START] = start_row(K)
    rows[:, layout.kinds == KIND_END] = end_row(K)
    rows[:, 0] = CLS_SENTINEL
    rows[:, motion_pos] = indices.reshape(B, -1)

    mask_targets = None
    if mask_positions is not None:
        if mask_positions.ndim != 2 or mask_positions.shape[0] != B:
            raise DataError("mask_positions must be (B, m)")
        if mask_positions.size and (mask_positions.min() < 0 or mask_positions.max() >= layout.seq_len):
            raise DataError(f"mask positions must lie in [0, {layout.seq_len})")
        if not layout.motion_mask[mask_positions].all():
            raise DataError("mask plan touches a special token")
        row_ids = np.repeat(np.arange(B), mask_positions.shape[1])
        flat_pos = mask_positions.reshape(-1)
        mask_targets = rows[row_ids, flat_pos].reshape(B, -1).copy()
        rows[row_ids, flat_pos] = mask_row(K)
    return rows, mask_targets


def embed_rows(
    params: dict[str, np.ndarray],
    layout: SequenceLayout,
    rows: np.ndarray,
    stats: np.ndarray,
    meta: np.ndarray,
) -> np.ndarray:
    """The encoder input x (B, Seq, D), given the windows' `table_rows`, raw
    stats (B, C, S, 2) and the per-channel metadata vectors meta (C, N).

    Every position sums its table row (CLS uses the separate CLS vector),
    the stat affine (motion tokens only: specials skip it, bias included),
    its channel's adapter output (every token but CLS) and its position
    row; a masked token keeps its stat and metadata terms. Each window's x
    depends on its own rows and stats alone, so the x of a window slice is
    the same slice of a whole-batch x, bit for bit."""
    B = rows.shape[0]
    motion_pos = layout.motion_positions
    meta_proj = meta @ params["adapter.weight"].T + params["adapter.bias"]
    channel_pos = layout.channel_positions
    x = np.empty((B, layout.seq_len, params["embed.rows"].shape[1]), dtype=np.float64)
    x[:, 0] = params["embed.cls_vector"]
    x[:, 1:] = params["embed.rows"][rows[:, 1:]]
    x[:, motion_pos] += stats.reshape(B, -1, 2) @ params["stat.weight"].T + params["stat.bias"]
    x[:, channel_pos] += meta_proj[layout.channel_of[channel_pos]]
    return x + params["pos.rows"][layout.position_slot][None, :, :]


def embed_backward(
    params: dict[str, np.ndarray],
    layout: SequenceLayout,
    rows: np.ndarray,
    stats: np.ndarray,
    meta: np.ndarray,
    d_x: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of the `pos`, `embed`, `stat` and `adapter` tensors, given
    d_x (B, Seq, D) at the output x of `embed_rows` and the table rows,
    stats and meta it took."""
    D = d_x.shape[2]
    # every position slot and table row accumulates across the batch
    grads = {
        "pos.rows": _scatter_add(params["pos.rows"].shape, layout.position_slot, weights=d_x.sum(axis=0)),
        "embed.rows": _scatter_add(params["embed.rows"].shape, rows[:, 1:], weights=d_x[:, 1:]),
        "embed.cls_vector": d_x[:, 0].sum(axis=0),
    }
    d_motion = d_x[:, layout.motion_positions]
    grads["stat.weight"] = _weight_grad(d_motion, stats)
    grads["stat.bias"] = d_motion.sum(axis=(0, 1))
    # the adapter output is shared by every token of its channel
    channel_pos = layout.channel_positions
    channel_sums = d_x[:, channel_pos].sum(axis=0)
    d_meta_proj = _scatter_add((meta.shape[0], D), layout.channel_of[channel_pos], weights=channel_sums)
    grads["adapter.weight"] = _weight_grad(d_meta_proj, meta)
    grads["adapter.bias"] = d_meta_proj.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Masking


def mask_count(num_motion: int, ratio: float) -> int:
    """Round-half-up of ratio * count, floored at 1 whenever ratio > 0."""
    if not (0 <= ratio < 1):
        raise ConfigError("mask ratio must be in [0, 1)")
    if ratio == 0 or num_motion == 0:
        return 0
    return max(1, int(np.floor(ratio * num_motion + 0.5)))
