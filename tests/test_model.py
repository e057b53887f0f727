import numpy as np
import pytest

import oracles
from motionprim.errors import ConfigError, DataError, NumericError
from motionprim.ingest import ChannelMetadata, SensorWindow
from motionprim.metadata import make_provider
from motionprim.model import (
    FINETUNE_WEIGHTS,
    PRETRAIN_WEIGHTS,
    LossWeights,
    Model,
    ModelConfig,
    backward,
    forward,
    gradient_suite,
    init_model,
    loss_closure,
    mask_positions_for,
    param_shapes,
    prepare_windows,
    reinit_cls_head,
    tiny_batch,
    tiny_config,
    zero_grads,
)
from motionprim.quantizer import nearest_prototypes
from motionprim.training import refresh_usage


# ---------------------------------------------------------------------------
# config


def test_config_round_trip_and_unknown_keys():
    cfg = tiny_config()
    back = ModelConfig.from_dict(cfg.to_dict())
    assert back == cfg
    for key, value in (("hidden_size", 32), ("dropout", 0.0), ("norm_placement", "pre")):
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict({**cfg.to_dict(), key: value})


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=30, heads=4)  # not divisible
    with pytest.raises(ConfigError):
        ModelConfig(mask_ratio=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(codebook_size=0)


@pytest.mark.parametrize("key, value", [
    ("codebook_size", "six"), ("depth", 2.5), ("heads", True), ("num_classes", None),
    ("mlp_ratio", "2"), ("beta", False), ("mask_ratio", [0.25]),
])
def test_config_rejects_mistyped_values(key, value):
    with pytest.raises(ConfigError, match=key):
        ModelConfig.from_dict({key: value})


def test_config_accepts_ints_for_floats():
    assert ModelConfig.from_dict({"mlp_ratio": 2, "beta": 0}).mlp_ratio == 2


def test_encoder_config_mapping():
    cfg = tiny_config()
    enc = cfg.encoder_config()
    assert enc.depth == cfg.depth
    assert enc.model_dim == cfg.model_dim
    assert enc.heads == cfg.heads


def test_loss_weights_not_all_zero():
    with pytest.raises(ConfigError):
        LossWeights(0.0, 0.0, 0.0)
    assert PRETRAIN_WEIGHTS.lambda_mae == 1.0
    assert PRETRAIN_WEIGHTS.lambda_cls == 0.0
    assert FINETUNE_WEIGHTS.lambda_cls == 1.0


# ---------------------------------------------------------------------------
# parameters


def test_param_names_cover_every_component():
    cfg = tiny_config()
    names = list(param_shapes(cfg))
    assert "embed.rows" in names
    assert "codebook" in names
    assert "enc.0.attn.wq" in names
    assert "enc.1.mlp.w2" in names
    assert "cls_head.weight" in names
    assert len(names) == len(set(names))


def test_init_model_shapes_and_determinism():
    cfg = tiny_config()
    model = init_model(cfg, seed=3)
    assert {n: t.shape for n, t in model.params.items()} == param_shapes(cfg)
    assert model.params["embed.rows"].shape == (cfg.codebook_size + 3, cfg.model_dim)
    assert model.params["codebook"].shape == (cfg.codebook_size, cfg.segment_len)
    assert model.params["pos.rows"].shape == (cfg.segments_per_channel + 3, cfg.model_dim)
    assert model.params["adapter.weight"].shape == (cfg.model_dim, cfg.meta_dim)
    assert model.params["mae.weight"].shape == (cfg.codebook_size, cfg.model_dim)
    assert model.params["cls_head.weight"].shape == (cfg.num_classes, cfg.model_dim)
    again = init_model(cfg, seed=3)
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], again.params[name])
    other = init_model(cfg, seed=4)
    assert any(
        not np.array_equal(model.params[n], other.params[n]) for n in model.params
    )


def test_model_rejects_wrong_param_set():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    params = dict(model.params)
    del params["codebook"]
    with pytest.raises(DataError):
        Model(cfg, params, model.usage_counts)


def test_model_rejects_wrong_param_shapes():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    for name, bad in (("enc.0.attn.wq", np.zeros((3, 3))), ("mae.bias", np.zeros(cfg.codebook_size + 1))):
        with pytest.raises(DataError, match=name):
            Model(cfg, {**model.params, name: bad}, model.usage_counts)
    with pytest.raises(DataError, match="usage_counts"):
        Model(cfg, model.params, np.zeros(cfg.codebook_size - 1))


def test_reinit_cls_head_only_touches_head():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    wider = reinit_cls_head(model, num_classes=5, seed=1)
    assert wider.params["cls_head.weight"].shape == (5, cfg.model_dim)
    for name in model.params:
        if name.startswith("cls_head."):
            continue
        np.testing.assert_array_equal(wider.params[name], model.params[name])


# ---------------------------------------------------------------------------
# batch preparation


def make_windows(n=4, length=15, channels=None, labeled=True, seed=0):
    rng = np.random.default_rng(seed)
    channels = channels or [
        ChannelMetadata("wrist", "accelerometer", "x", 100.0),
        ChannelMetadata("ankle", "gyroscope", "y", 100.0),
    ]
    return [
        SensorWindow(
            rng.normal(size=(length, len(channels))),
            channels,
            label=(int(rng.integers(0, 3)) if labeled else None),
        )
        for _ in range(n)
    ]


def test_prepare_windows_shapes_and_normalization():
    cfg = tiny_config()
    provider = make_provider("deterministic-hash", dim=cfg.meta_dim, seed=0)
    windows = make_windows()
    batch = prepare_windows(windows, cfg, provider)
    assert batch.norm_segments.shape == (4, 2, 3, 5)
    assert batch.stats.shape == (4, 2, 3, 2)
    assert batch.meta.shape == (2, cfg.meta_dim)
    np.testing.assert_array_equal(batch.window_ids, np.arange(4))
    # spot-check stats and normalization against the oracle
    raw = windows[1].samples[5:10, 1]
    mu, var = oracles.mean_and_popvar(raw)
    assert batch.stats[1, 1, 1, 0] == pytest.approx(mu, abs=1e-12)
    assert batch.stats[1, 1, 1, 1] == pytest.approx(var, abs=1e-12)
    np.testing.assert_allclose(
        batch.norm_segments[1, 1, 1], oracles.normalize(raw), atol=1e-12
    )


def test_prepare_windows_validations():
    cfg = tiny_config()
    provider = make_provider("deterministic-hash", dim=cfg.meta_dim, seed=0)
    with pytest.raises(DataError):
        prepare_windows([], cfg, provider)
    mixed_len = make_windows(2) + make_windows(1, length=20)
    with pytest.raises(DataError):
        prepare_windows(mixed_len, cfg, provider)
    mixed_meta = make_windows(2) + make_windows(
        1, channels=[
            ChannelMetadata("hip", "accelerometer", "x", 100.0),
            ChannelMetadata("ankle", "gyroscope", "y", 100.0),
        ]
    )
    with pytest.raises(DataError):
        prepare_windows(mixed_meta, cfg, provider)
    part_labeled = make_windows(2) + make_windows(1, labeled=False)
    with pytest.raises(DataError):
        prepare_windows(part_labeled, cfg, provider)
    with pytest.raises(ConfigError):
        prepare_windows(make_windows(2, length=40), cfg, provider)  # S=8 > capacity 3
    wrong_dim = make_provider("deterministic-hash", dim=cfg.meta_dim + 1, seed=0)
    with pytest.raises(ConfigError):
        prepare_windows(make_windows(2), cfg, wrong_dim)


def test_prepare_windows_unlabeled_ok():
    cfg = tiny_config()
    provider = make_provider("deterministic-hash", dim=cfg.meta_dim, seed=0)
    batch = prepare_windows(make_windows(3, labeled=False), cfg, provider)
    assert batch.labels is None


# ---------------------------------------------------------------------------
# masking plans


def test_mask_positions_subset_invariance():
    # a window's plan depends on (run_seed, epoch, window_id) only, so a
    # subset of the batch gets exactly the same rows
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    layout = model.layout_for(2, 3)
    ids = np.arange(10, dtype=np.int64)
    full = mask_positions_for(layout, 0.3, run_seed=4, epoch=2, window_ids=ids)
    sub = mask_positions_for(layout, 0.3, run_seed=4, epoch=2, window_ids=ids[[7, 2, 5]])
    np.testing.assert_array_equal(sub, full[[7, 2, 5]])


def test_mask_positions_change_with_epoch_and_seed():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    layout = model.layout_for(2, 3)
    ids = np.arange(30, dtype=np.int64)
    a = mask_positions_for(layout, 0.3, 0, 0, ids)
    b = mask_positions_for(layout, 0.3, 0, 1, ids)
    c = mask_positions_for(layout, 0.3, 1, 0, ids)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (30, 2)  # floor(0.3*6+0.5) = 2 per window


def test_mask_positions_ratio_zero_is_none():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    layout = model.layout_for(2, 3)
    assert mask_positions_for(layout, 0.0, 0, 0, np.arange(3)) is None


# ---------------------------------------------------------------------------
# forward


def test_forward_indices_match_quantizer():
    cfg = tiny_config()
    model = init_model(cfg, seed=1)
    batch = tiny_batch(seed=2)
    res = forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)
    B, C, S, L = batch.norm_segments.shape
    flat = batch.norm_segments.reshape(-1, L)
    want_idx, want_dist = nearest_prototypes(flat, model.params["codebook"])
    np.testing.assert_array_equal(res.indices.reshape(-1), want_idx)
    # commitment value: mean distance * (1 + beta) when prototypes not frozen
    want_vq = float(np.mean(want_dist)) * (1.0 + cfg.beta)
    assert res.vq_loss == pytest.approx(want_vq, rel=1e-12)


def test_forward_fixed_indices_reproduces_live_path():
    cfg = tiny_config()
    model = init_model(cfg, seed=3)
    batch = tiny_batch(seed=4)
    live = forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)
    pinned = forward(
        model, batch, PRETRAIN_WEIGHTS,
        fixed_indices=live.indices, frozen_prototypes=model.params["codebook"].copy(),
        need_backward=False,
    )
    assert pinned.loss == pytest.approx(live.loss, rel=1e-12)
    np.testing.assert_array_equal(pinned.indices, live.indices)


def test_forward_cls_probs_and_predictions():
    cfg = tiny_config()
    model = init_model(cfg, seed=5)
    batch = tiny_batch(seed=6)
    res = forward(model, batch, FINETUNE_WEIGHTS, need_backward=False)
    np.testing.assert_allclose(res.cls_probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(res.predictions, np.argmax(res.cls_probs, axis=1))
    assert res.cls_loss == pytest.approx(
        oracles.cross_entropy_mean(res.cls_probs, batch.labels), rel=1e-10
    )


def test_forward_masking_bookkeeping():
    cfg = tiny_config()
    model = init_model(cfg, seed=7)
    batch = tiny_batch(seed=8)
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, cfg.mask_ratio, 0, 0, batch.window_ids)
    res = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=mask, need_backward=False)
    assert res.mask_positions is not None
    # targets are the pre-mask assignments at the masked positions
    motion_pos = np.flatnonzero(layout.motion_mask)
    for b in range(batch.size):
        for j, p in enumerate(mask[b]):
            slot = np.searchsorted(motion_pos, p)
            c, t = divmod(slot, batch.segments_per_channel)
            assert res.mask_targets[b, j] == res.indices[b, c, t]
    assert res.masked_fraction == pytest.approx(mask.shape[1] / (layout.motion_mask.sum()))


def test_forward_usage_recording():
    # forward never tallies usage; the usage pass does, once per segment
    cfg = tiny_config()
    model = init_model(cfg, seed=9)
    batch = tiny_batch(seed=10)
    res = forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)
    assert model.usage_counts.sum() == 0
    refresh_usage(model, [batch])
    np.testing.assert_array_equal(
        model.usage_counts, np.bincount(res.indices.reshape(-1), minlength=cfg.codebook_size)
    )


def test_forward_nonfinite_guard():
    cfg = tiny_config()
    model = init_model(cfg, seed=11)
    model.params["embed.rows"][0, 0] = np.inf
    batch = tiny_batch(seed=12)
    with pytest.raises(NumericError):
        forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)


# ---------------------------------------------------------------------------
# backward plumbing


def test_zero_grads_shapes():
    model = init_model(tiny_config(), seed=0)
    grads = zero_grads(model)
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape
        assert not g.any()


def test_backward_frozen_paths_get_zero_grad():
    # with lambda_cls = 0 the classifier head receives no gradient, and with
    # lambda_mae = 0 the MAE head receives none
    cfg = tiny_config()
    model = init_model(cfg, seed=13)
    batch = tiny_batch(seed=14)
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, cfg.mask_ratio, 0, 0, batch.window_ids)
    res = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=mask)
    grads = backward(model, res)
    assert not grads["cls_head.weight"].any()
    assert grads["mae.weight"].any()
    res2 = forward(model, batch, FINETUNE_WEIGHTS)
    grads2 = backward(model, res2)
    assert not grads2["mae.weight"].any()
    assert grads2["cls_head.weight"].any()
    assert not grads2["codebook"].any()  # lambda_vq = 0


def test_loss_closure_matches_forward():
    cfg = tiny_config()
    model = init_model(cfg, seed=15)
    batch = tiny_batch(seed=16)
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, cfg.mask_ratio, 0, 0, batch.window_ids)
    live = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=mask, need_backward=False)
    fn = loss_closure(
        cfg, batch, PRETRAIN_WEIGHTS,
        mask_positions=mask,
        fixed_indices=live.indices,
        frozen_prototypes=model.params["codebook"].copy(),
    )
    loss, grads = fn(model.params)
    assert loss == pytest.approx(live.loss, rel=1e-12)
    assert set(grads) == set(model.params)


def test_gradient_suite_full_model_checks_every_input_coordinate():
    # the input-side tensors and the codebook are small enough that the
    # full-model check covers each of their coordinates through backward
    reports = gradient_suite(seed=0)
    assert set(reports) == {"encoder", "full_model"}
    checked = {}
    for entry in reports["full_model"].entries:
        checked.setdefault(entry.name, set()).add(entry.coordinate)
    params = init_model(tiny_config(), seed=0).params
    for name in ("adapter.weight", "adapter.bias", "stat.weight", "stat.bias", "codebook"):
        assert len(checked[name]) == params[name].size, name
    assert reports["full_model"].passed
