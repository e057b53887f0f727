import numpy as np
import pytest

import oracles
from motionprim.embedder import (
    CLS_SENTINEL,
    KIND_CLS,
    KIND_END,
    KIND_MOTION,
    KIND_START,
    build_layout,
    embed_batch,
    end_row,
    mask_count,
    mask_row,
    start_row,
)
from motionprim.errors import ConfigError, DataError
from motionprim.ingest import ChannelMetadata, SensorWindow
from motionprim.metadata import make_provider
from motionprim.model import ModelConfig, init_model, mask_positions_for, prepare_windows, tiny_config
from motionprim.training import refresh_usage, tokenize_dataset

K, D, C, S = 6, 8, 2, 3
B = 2


def channels():
    return [
        ChannelMetadata("wrist", "accelerometer", "x", 100.0),
        ChannelMetadata("ankle", "gyroscope", "y", 100.0),
    ]


def tokens(seed=0):
    """(indices, raw stats, per-channel metadata) for B windows."""
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, K, size=(B, C, S)),
        rng.normal(size=(B, C, S, 2)) ** 2,
        rng.normal(size=(C, D)),
    )


def embed_params(seed=0):
    """Input-side parameters of a tiny model (K=6, D=8, S=3) with a random
    stat bias and an identity metadata adapter, so each channel's adapter
    output is its metadata row exactly."""
    model = init_model(tiny_config(), seed=seed)
    params = dict(model.params)
    params["stat.bias"] = np.random.default_rng(seed + 3).normal(size=D)
    params["adapter.weight"] = np.eye(D)
    params["adapter.bias"] = np.zeros(D)
    return params, model.layout_for(C, S)


# ---------------------------------------------------------------------------
# special rows and tables


def test_special_row_indices():
    assert mask_row(K) == K
    assert start_row(K) == K + 1
    assert end_row(K) == K + 2


def test_table_shapes_and_init():
    params = init_model(tiny_config(), seed=0).params
    assert params["embed.rows"].shape == (K + 3, D)
    assert params["embed.cls_vector"].shape == (D,)
    assert params["stat.weight"].shape == (D, 2)
    np.testing.assert_array_equal(params["stat.bias"], np.zeros(D))
    assert params["pos.rows"].shape == (S + 3, D)
    cfg = ModelConfig(codebook_size=512, model_dim=128, meta_dim=4, depth=0)
    big = init_model(cfg, seed=3).params
    assert big["embed.rows"].std() == pytest.approx(0.02, rel=0.05)
    assert big["pos.rows"].std() == pytest.approx(0.02, rel=0.1)
    np.testing.assert_array_equal(big["embed.rows"], init_model(cfg, seed=3).params["embed.rows"])


def test_position_slots_are_reserved_at_the_top():
    # the reserved slots follow the table's top rows, not the segment count
    rows = S + 5
    layout = build_layout(C, S, rows)
    assert layout.position_slot[0] == rows - 1
    assert set(layout.position_slot[layout.kinds == KIND_START].tolist()) == {rows - 2}
    assert set(layout.position_slot[layout.kinds == KIND_END].tolist()) == {rows - 3}
    assert layout.position_slot[layout.kinds == KIND_MOTION].max() == S - 1


# ---------------------------------------------------------------------------
# layout


def test_layout_structure():
    layout = build_layout(C, S, S + 3)
    assert layout.seq_len == 1 + C * (S + 2)
    kinds = layout.kinds.tolist()
    per_channel = [KIND_START] + [KIND_MOTION] * S + [KIND_END]
    assert kinds == [KIND_CLS] + per_channel * C
    # channel ownership: CLS owns nothing
    assert layout.channel_of[0] == -1
    assert layout.channel_of[1 : S + 3].tolist() == [0] * (S + 2)
    assert layout.channel_of[S + 3 :].tolist() == [1] * (S + 2)


def test_layout_position_slots_shared_across_channels():
    layout = build_layout(C, S, S + 3)
    motion = layout.kinds == KIND_MOTION
    # motion token at time t uses slot t in every channel
    assert layout.position_slot[motion].tolist() == [0, 1, 2, 0, 1, 2]
    assert layout.position_slot[0] == S + 2
    starts = layout.kinds == KIND_START
    ends = layout.kinds == KIND_END
    assert set(layout.position_slot[starts].tolist()) == {S + 1}
    assert set(layout.position_slot[ends].tolist()) == {S}


def test_layout_rejects_overflow():
    with pytest.raises(ConfigError):
        build_layout(C, S, S + 2)  # one slot short


def test_layout_embed_rows_and_stats():
    indices, stats, meta = tokens()
    params, layout = embed_params()
    x, rows, targets = embed_batch(params, layout, indices, stats, meta)
    assert targets is None
    assert rows.shape == (B, layout.seq_len)
    assert np.all(rows[:, 0] == CLS_SENTINEL)
    assert np.all(rows[:, 1] == start_row(K))
    assert np.all(rows[:, S + 2] == end_row(K))
    np.testing.assert_array_equal(rows[:, layout.motion_mask], indices.reshape(B, -1))
    # the stat term lands on motion tokens only, in channel-major order
    x0, _, _ = embed_batch(params, layout, indices, np.zeros_like(stats), meta)
    stat_term = x - x0
    np.testing.assert_array_equal(stat_term[:, ~layout.motion_mask], 0.0)
    np.testing.assert_allclose(
        stat_term[:, layout.motion_mask], stats.reshape(B, -1, 2) @ params["stat.weight"].T, atol=1e-15
    )


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_window_matches_quantizer():
    # the production path (prepare_windows, then tokenize_dataset) against
    # loop references: raw stats, instance normalization, exhaustive scan
    cfg = tiny_config()
    model = init_model(cfg, seed=8)
    rng = np.random.default_rng(8)
    windows = [SensorWindow(rng.normal(size=(15, C)), channels(), label=0) for _ in range(3)]
    batch = prepare_windows(windows, cfg, make_provider("deterministic-hash", dim=cfg.meta_dim))
    indices = tokenize_dataset(model, batch)
    assert indices.shape == (3, C, 3)
    for b, win in enumerate(windows):
        for c in range(C):
            for t in range(3):
                raw = win.samples[t * 5 : (t + 1) * 5, c]
                want, _ = oracles.nearest_scan(oracles.normalize(raw), model.params["codebook"])
                assert indices[b, c, t] == want
                mu, var = oracles.mean_and_popvar(raw)
                assert batch.stats[b, c, t, 0] == pytest.approx(mu, abs=1e-12)
                assert batch.stats[b, c, t, 1] == pytest.approx(var, abs=1e-12)
    np.testing.assert_array_equal(batch.labels, 0)


def test_tokenize_window_usage_recording():
    cfg = tiny_config()
    model = init_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    windows = [SensorWindow(rng.normal(size=(15, C)), channels()) for _ in range(4)]
    batch = prepare_windows(windows, cfg, make_provider("deterministic-hash", dim=cfg.meta_dim))
    tokenize_dataset(model, batch)
    assert model.usage_counts.sum() == 0
    indices = tokenize_dataset(model, batch, record_usage=True)
    np.testing.assert_array_equal(model.usage_counts, np.bincount(indices.reshape(-1), minlength=cfg.codebook_size))
    # refresh_usage resets, then tallies every segment exactly once
    refresh_usage(model, [batch])
    assert model.usage_counts.sum() == 4 * C * 3


# ---------------------------------------------------------------------------
# assembly


def test_assemble_against_handmade_tokens():
    indices, stats, meta = tokens(seed=1)
    params, layout = embed_params(seed=1)
    x, _, _ = embed_batch(params, layout, indices, stats, meta)
    table, pos = params["embed.rows"], params["pos.rows"]
    cls_slot, start_slot, end_slot = S + 2, S + 1, S

    # CLS: separate vector, no stats, no metadata
    np.testing.assert_array_equal(x[1, 0], params["embed.cls_vector"] + pos[cls_slot])
    # START token of channel 1: table row + channel meta, NO stat affine
    p = 1 + (S + 2)  # first position of channel 1
    want = table[start_row(K)] + meta[1] + pos[start_slot]
    np.testing.assert_allclose(x[1, p], want, atol=1e-15)
    # motion token (c=1, t=2): all four parts
    p_motion = 1 + (S + 2) + 1 + 2
    stat_embed = params["stat.weight"] @ stats[1, 1, 2] + params["stat.bias"]
    want = table[indices[1, 1, 2]] + stat_embed + meta[1] + pos[2]
    np.testing.assert_allclose(x[1, p_motion], want, atol=1e-15)
    # END token of channel 0
    p_end = S + 2
    want = table[end_row(K)] + meta[0] + pos[end_slot]
    np.testing.assert_allclose(x[0, p_end], want, atol=1e-15)


def test_specials_skip_stat_bias_entirely():
    # nonzero stat bias must not leak into special tokens
    indices, stats, _ = tokens(seed=2)
    params, layout = embed_params(seed=2)
    params["stat.bias"][:] = 7.7
    x, _, _ = embed_batch(params, layout, indices, stats, np.zeros((C, D)))
    want = params["embed.rows"][start_row(K)] + params["pos.rows"][S + 1]
    np.testing.assert_array_equal(x[:, 1], np.broadcast_to(want, (B, D)))


def test_assemble_with_mask_keeps_stats_meta():
    indices, stats, meta = tokens(seed=3)
    params, layout = embed_params(seed=3)
    masked_pos = np.array([[2], [3]])  # (c=0, t=0) in window 0, (c=0, t=1) in window 1
    x, rows, targets = embed_batch(params, layout, indices, stats, meta, mask_positions=masked_pos)
    stat_embed = params["stat.weight"] @ stats[0, 0, 0] + params["stat.bias"]
    want = params["embed.rows"][mask_row(K)] + stat_embed + meta[0] + params["pos.rows"][0]
    np.testing.assert_allclose(x[0, 2], want, atol=1e-15)
    assert rows[0, 2] == mask_row(K)
    assert rows[1, 3] == mask_row(K)
    np.testing.assert_array_equal(targets, [[indices[0, 0, 0]], [indices[1, 0, 1]]])


def test_assemble_rejects_masking_specials():
    indices, stats, meta = tokens()
    params, layout = embed_params()
    for bad in (np.array([[0], [2]]), np.array([[2], [S + 2]]), np.array([2, 3])):
        with pytest.raises(DataError):
            embed_batch(params, layout, indices, stats, meta, mask_positions=bad)


def test_add_positions_once():
    indices, stats, meta = tokens(seed=5)
    params, layout = embed_params(seed=5)
    x, _, _ = embed_batch(params, layout, indices, stats, meta)
    no_pos, _, _ = embed_batch({**params, "pos.rows": np.zeros_like(params["pos.rows"])}, layout, indices, stats, meta)
    # exactly one position row per token
    added = params["pos.rows"][layout.position_slot]
    np.testing.assert_allclose(x - no_pos, np.broadcast_to(added, x.shape), atol=1e-15)
    # shared slots: motion t=0 gets the same position row in both channels
    np.testing.assert_array_equal(added[2], added[2 + S + 2])


# ---------------------------------------------------------------------------
# masking


def test_mask_count_table():
    assert mask_count(30, 0.25) == 8  # floor(7.5 + 0.5)
    assert mask_count(10, 0.25) == 3  # floor(2.5 + 0.5) = 3, round half up
    assert mask_count(4, 0.25) == 1
    assert mask_count(2, 0.25) == 1  # floor-at-one
    assert mask_count(1, 0.05) == 1
    assert mask_count(10, 0.0) == 0
    assert mask_count(0, 0.25) == 0
    for n in range(1, 50):
        assert mask_count(n, 0.25) == oracles.mask_budget(n, 0.25)
    with pytest.raises(ConfigError):
        mask_count(10, 1.0)


def test_plan_mask_never_touches_specials():
    indices, stats, meta = tokens(seed=6)
    params, layout = embed_params()
    windows = 50
    indices = np.resize(indices, (windows, C, S))
    stats = np.resize(stats, (windows, C, S, 2))
    _, rows, _ = embed_batch(params, layout, indices, stats, meta)
    plan = mask_positions_for(layout, 0.5, run_seed=0, epoch=0, window_ids=np.arange(windows))
    assert plan.shape == (windows, mask_count(C * S, 0.5))
    assert np.all(layout.motion_mask[plan])
    _, masked_rows, targets = embed_batch(params, layout, indices, stats, meta, mask_positions=plan)
    for b in range(windows):
        np.testing.assert_array_equal(targets[b], rows[b, plan[b]])
        assert np.all(masked_rows[b, plan[b]] == mask_row(K))
        untouched = np.setdiff1d(np.arange(layout.seq_len), plan[b])
        np.testing.assert_array_equal(masked_rows[b, untouched], rows[b, untouched])


def test_plan_mask_deterministic_and_seed_sensitive():
    _, layout = embed_params()
    ids = np.arange(5)
    a = mask_positions_for(layout, 0.4, 123, 0, ids)
    b = mask_positions_for(layout, 0.4, 123, 0, ids)
    np.testing.assert_array_equal(a, b)
    seen = {tuple(mask_positions_for(layout, 0.4, s, 0, ids[:1])[0].tolist()) for s in range(20)}
    assert len(seen) > 1


def test_plan_mask_positions_sorted_unique():
    _, layout = embed_params()
    plan = mask_positions_for(layout, 0.9, 5, 0, np.arange(20))
    assert np.all(np.diff(plan, axis=1) > 0)
