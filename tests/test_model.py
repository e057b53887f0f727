import itertools
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import oracles
from conftest import bench_model_config
from motionprim import encoder
from motionprim import model as model_module
from motionprim.encoder import FORWARD_CHUNK, grad_check
from motionprim.errors import ConfigError, DataError, NumericError
from motionprim.ingest import ChannelMetadata, SensorWindow
from motionprim.metadata import make_provider
from motionprim.model import (
    FINETUNE_WEIGHTS,
    PARAM_GROUPS,
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
    param_group,
    param_shapes,
    prepare_windows,
    reinit_cls_head,
    tiny_batch,
    tiny_config,
)
from motionprim.quantizer import nearest_prototypes
from motionprim.schema import from_dict
from motionprim.training import refresh_usage


# ---------------------------------------------------------------------------
# config


def test_config_round_trip_and_unknown_keys():
    cfg = tiny_config()
    back = from_dict(ModelConfig, asdict(cfg), "model")
    assert back == cfg
    for key, value in (("hidden_size", 32), ("dropout", 0.0), ("norm_placement", "pre")):
        with pytest.raises(ConfigError, match=key):
            from_dict(ModelConfig, {**asdict(cfg), key: value}, "model")


def test_config_validation():
    for bad in (
        dict(model_dim=30, heads=4),  # not divisible
        dict(heads=0),
        dict(depth=-1),
        dict(mlp_ratio=0.001),  # MLP width rounds to 0
        dict(mask_ratio=1.0),
        dict(codebook_size=0),
    ):
        with pytest.raises(ConfigError):
            ModelConfig(**bad)
    assert ModelConfig(depth=0).depth == 0
    assert ModelConfig(model_dim=8, mlp_ratio=0.07).mlp_hidden == 1


@pytest.mark.parametrize("key, value", [
    ("codebook_size", "six"), ("depth", 2.5), ("heads", True), ("num_classes", None),
    ("mlp_ratio", "2"), ("beta", False), ("mask_ratio", [0.25]),
])
def test_config_rejects_mistyped_values(key, value):
    with pytest.raises(ConfigError, match=key):
        from_dict(ModelConfig, {key: value}, "model")
    with pytest.raises(ConfigError, match=key):
        ModelConfig(**{key: value})


def test_config_accepts_ints_for_floats():
    built = from_dict(ModelConfig, {"mlp_ratio": 2, "beta": 0}, "model")
    assert (built.mlp_ratio, built.beta) == (2.0, 0.0)
    assert type(built.mlp_ratio) is type(built.beta) is float
    assert ModelConfig(mlp_ratio=2).mlp_ratio == 2  # direct construction checks, stores as given


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
    assert {param_group(n) for n in names} == set(PARAM_GROUPS)


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
        Model(cfg, model.params, np.zeros(cfg.codebook_size - 1, dtype=np.int64))


def test_model_rejects_non_float64_params_and_bad_usage_counts():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    wq = model.params["enc.0.attn.wq"]
    for bad in (wq.astype(np.int64), wq.astype(np.float32), wq.tolist()):
        with pytest.raises(DataError, match="enc.0.attn.wq"):
            Model(cfg, {**model.params, "enc.0.attn.wq": bad})
    K = cfg.codebook_size
    # floats would be truncated; a uint64 count past the int64 range would wrap
    for bad in (np.full(K, 3.0), np.full(K, -1), np.full(K, 2**63, dtype=np.uint64)):
        with pytest.raises(DataError, match="usage_counts"):
            Model(cfg, model.params, bad)
    assert Model(cfg, model.params, np.arange(K, dtype=np.uint8)).usage_counts.dtype == np.int64


def test_reinit_cls_head_only_touches_head():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    wider = reinit_cls_head(model, num_classes=5, seed=1)
    assert wider.params["cls_head.weight"].shape == (5, cfg.model_dim)
    for name in model.params:
        if name.startswith("cls_head."):
            continue
        np.testing.assert_array_equal(wider.params[name], model.params[name])
    for name, want in oracles.reinit_cls_head_params(cfg, num_classes=5, seed=1).items():
        assert wider.params[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "cfg", [tiny_config(), replace(tiny_config(), depth=0), ModelConfig()], ids=["tiny", "depth0", "default"]
)
def test_init_model_matches_the_explicit_reference(cfg):
    got = init_model(cfg, seed=7).params
    want = oracles.init_params(cfg, seed=7)
    assert list(got) == list(want) == list(param_shapes(cfg))
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


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


def test_forward_rejects_mask_positions_outside_the_sequence():
    # 11 positions per window; -2 would wrap to a motion token
    model = init_model(tiny_config(), seed=0)
    batch = tiny_batch(seed=1, num_windows=2)
    for bad in ([[99], [2]], [[-2], [2]], [[2], [11]]):
        for need_backward in (True, False):
            with pytest.raises(DataError, match="mask positions"):
                forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=bad, need_backward=need_backward)


def test_forward_rejects_fractional_mask_positions():
    # a cast to int64 would truncate 2.7 and mask position 2 in silence
    model = init_model(tiny_config(), seed=0)
    batch = tiny_batch(seed=1, num_windows=2)
    for bad in ([[2.7], [2]], [[2], [np.nan]], [[np.inf], [2]]):
        for need_backward in (True, False):
            with pytest.raises(DataError, match="mask positions must be whole numbers"):
                forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=bad, need_backward=need_backward)
    whole = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=[[2.0], [3.0]], need_backward=False)
    ints = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=[[2], [3]], need_backward=False)
    assert (whole.loss, whole.mae_loss) == (ints.loss, ints.mae_loss)


def test_forward_nonfinite_guard():
    cfg = tiny_config()
    model = init_model(cfg, seed=11)
    model.params["embed.rows"][0, 0] = np.inf
    batch = tiny_batch(seed=12)
    with pytest.raises(NumericError):
        forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)


# ---------------------------------------------------------------------------
# backward plumbing


def test_backward_frozen_paths_get_zero_grad():
    # with lambda_cls = 0 the classifier head receives no gradient, and with
    # lambda_mae = 0 the MAE head receives none
    cfg = tiny_config()
    model = init_model(cfg, seed=13)
    batch = tiny_batch(seed=14)
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, cfg.mask_ratio, 0, 0, batch.window_ids)
    res = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=mask)
    grads = backward(res)
    assert not grads["cls_head.weight"].any()
    assert grads["mae.weight"].any()
    res2 = forward(model, batch, FINETUNE_WEIGHTS)
    grads2 = backward(res2)
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
    assert all(grads[name].shape == tensor.shape for name, tensor in model.params.items())


def test_repeated_mask_position_keeps_exact_gradients():
    # a position masked twice is read twice by the MAE head: the backward
    # adds both rows' gradients into the encoder output's gradient
    cfg = tiny_config()
    model = init_model(cfg, seed=17)
    batch = tiny_batch(seed=18, num_windows=2)
    motion = model.layout_for(batch.num_channels, batch.segments_per_channel).motion_positions
    mask = np.array([[motion[1], motion[1], motion[4]], [motion[0], motion[3], motion[3]]])
    fixed_indices, _ = nearest_prototypes(batch.norm_segments.reshape(-1, cfg.segment_len), model.params["codebook"])
    fn = loss_closure(cfg, batch, LossWeights(1.0, 1.0, 1.0), mask, fixed_indices, model.params["codebook"].copy())
    report = grad_check(fn, model.params, max_coords_per_tensor=30)
    assert report.passed, report.worst


def test_training_pass_embeds_once_per_shard_slice(shards, monkeypatch, bench_batch_400):
    # the encoder input is built shard by shard: a 40-window training pass
    # embeds 40 windows at one CPU and two slices of 20 at two
    model = init_model(bench_model_config(), seed=6)
    batch = bench_batch_400.subset(np.arange(40))
    built = []
    real = model_module.embed_rows

    def recording_embed_rows(params, layout, rows, *rest):
        built.append(len(rows))
        return real(params, layout, rows, *rest)

    monkeypatch.setattr(model_module, "embed_rows", recording_embed_rows)
    for cpus, want in ((1, [40]), (2, [20, 20])):
        shards(cpus)
        built.clear()
        forward(model, batch, FINETUNE_WEIGHTS)
        assert sorted(built) == want, cpus


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


# ---------------------------------------------------------------------------
# forward-only passes


def test_forward_only_pass_keeps_no_encoder_layer_cache(monkeypatch, config_case):
    caches = []
    encoder_forward = model_module.encoder_forward

    def recording_encoder_forward(*args, **kwargs):
        out, cache = encoder_forward(*args, **kwargs)
        caches.append(cache)
        return out, cache

    monkeypatch.setattr(model_module, "encoder_forward", recording_encoder_forward)
    for which in ("tiny", "bench", "default"):
        caches.clear()
        model, batch = config_case(which, 4, model_seed=2, batch_seed=5)
        full = forward(model, batch, FINETUNE_WEIGHTS)
        bare = forward(model, batch, FINETUNE_WEIGHTS, need_backward=False)
        assert len(caches[0].layers) == model.config.depth, which
        assert caches[1].layers == [], which
        assert bare._backward is None
        np.testing.assert_array_equal(bare.cls_probs, full.cls_probs)
        # both passes return the [CLS] row alone, the same bits
        for result in (full, bare):
            np.testing.assert_array_equal(result.hidden_rows, np.zeros((batch.size, 1)))
        np.testing.assert_array_equal(bare.hidden, full.hidden)


def test_chunked_cls_probs_equal_one_full_batch_forward(bench_shape_eval):
    # at the acceptance config, 32-window passes (as evaluate runs them) give
    # the same bits as one pass over all windows; 1-window passes differ in
    # the last place, so chunks that small are not part of the contract
    model, batch = bench_shape_eval
    full = forward(model, batch, FINETUNE_WEIGHTS, need_backward=False).cls_probs
    chunks = [np.arange(i, min(i + 32, batch.size)) for i in range(0, batch.size, 32)]
    assert [len(c) for c in chunks] == [32, 32, 16]
    chunked = np.concatenate(
        [forward(model, batch.subset(idx), FINETUNE_WEIGHTS, need_backward=False).cls_probs for idx in chunks]
    )
    assert np.array_equal(chunked, full)


def _held_out_mask(model, batch):
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    return mask_positions_for(layout, model.config.mask_ratio, 9, 0, batch.window_ids)


@pytest.mark.parametrize("which", ["tiny", "tiny-depth0", "tiny-depth1", "bench", "default"])
def test_sliced_forward_only_pass_equals_one_training_mode_pass(which, shards, config_case):
    # a forward-only pass runs the encoder in FORWARD_CHUNK-window groups, a
    # training-mode pass over all windows at once, each split into window
    # shards at 1 and 2 CPUs. Both return only the rows their heads read,
    # the [CLS] row (computed with row 1 beside it), the mask positions or
    # both, and the forward-only pass's last block runs its query side at
    # those rows alone; they and every other output are the same bits,
    # whether the last group is full, 1 window (33, 65) or the only one
    # (1-31). The default config (D=256, depth 5) runs fewer batch sizes.
    model, batch = config_case(which.split("-")[0], 200 if which == "default" else 400)
    if which.startswith("tiny-"):
        model = init_model(replace(tiny_config(), depth=int(which[-1])), seed=4)
    sizes = (1, 2, 17, 33) if which == "default" else (1, 2, 15, 16, 17, 31, 33, 65, 400)
    for cpus, n in itertools.product((1, 2), sizes):
        shards(cpus)
        sub = batch.subset(np.arange(n))
        mask = _held_out_mask(model, sub)
        for heads, weights, m, want_rows in [
            ("cls", LossWeights(1.0, 1.0, 1.0), None, np.zeros((n, 1))),
            ("mae", PRETRAIN_WEIGHTS, mask, mask),
            ("both", LossWeights(1.0, 1.0, 1.0), mask, np.concatenate([mask, np.zeros((n, 1))], axis=1)),
        ]:
            sliced = forward(model, sub, weights, mask_positions=m, need_backward=False)
            whole = forward(model, sub, weights, mask_positions=m)
            where = f"{which}: {cpus} CPUs, {n} windows, {heads}"
            assert sliced._backward is None and whole._backward is not None, where
            assert np.array_equal(sliced.hidden_rows, want_rows), where
            assert np.array_equal(whole.hidden_rows, want_rows), where
            assert np.array_equal(sliced.hidden, whole.hidden), f"{where}: hidden"
            assert np.array_equal(sliced.indices, whole.indices), f"{where}: indices"
            assert (sliced.cls_probs is None) == (whole.cls_probs is None) == (heads == "mae"), where
            assert heads == "mae" or np.array_equal(sliced.cls_probs, whole.cls_probs), f"{where}: cls_probs"
            assert (sliced.mae_loss, sliced.cls_loss, sliced.vq_loss, sliced.loss) == (
                whole.mae_loss, whole.cls_loss, whole.vq_loss, whole.loss
            ), where
            assert (sliced.mae_loss > 0) == (m is not None), where


def test_forward_only_peak_memory_does_not_grow_with_the_batch(shards, bench_batch_400):
    # tracemalloc sees numpy's buffers: over 8 encoder slices the peak, less
    # the returned hidden states, stays below twice that of a 1-slice pass
    # (it was 7.6 times as large when the whole batch went through at once),
    # at 1 and 2 CPUs
    model = init_model(bench_model_config(), seed=4)

    def peak(n):
        sub = bench_batch_400.subset(np.arange(n))
        mask = _held_out_mask(model, sub)
        tracemalloc.start()
        try:
            result = forward(model, sub, PRETRAIN_WEIGHTS, mask_positions=mask, need_backward=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned hidden states are the masked rows alone
        np.testing.assert_array_equal(result.hidden_rows, mask)
        return peak, result.hidden.nbytes

    for cpus in (1, 2):
        shards(cpus)
        one, _ = peak(FORWARD_CHUNK)
        eight, hidden_bytes = peak(8 * FORWARD_CHUNK)
        assert eight - hidden_bytes < 2 * one, (cpus, one, eight, hidden_bytes)


@pytest.mark.parametrize("weights", [PRETRAIN_WEIGHTS, FINETUNE_WEIGHTS], ids=["pretrain", "finetune"])
def test_gradients_are_the_same_bits_at_any_shard_count(shards, monkeypatch, weights, bench_batch_400):
    # 40 windows: one shard, or two of 20 windows each on two threads
    model = init_model(bench_model_config(), seed=6)
    batch = bench_batch_400.subset(np.arange(40))
    mask = _held_out_mask(model, batch) if weights.lambda_mae > 0 else None
    used = []
    real = encoder._shard_slices
    monkeypatch.setattr(encoder, "_shard_slices", lambda n: used.append(len(real(n))) or real(n))
    runs = []
    for cpus in (1, 2):
        shards(cpus)
        result = forward(model, batch, weights, mask_positions=mask)
        runs.append((result.loss, result.hidden, backward(result)))
    assert used == [1, 2]
    (loss1, hidden1, grads1), (loss2, hidden2, grads2) = runs
    assert loss1 == loss2
    assert np.array_equal(hidden1, hidden2)
    assert grads1.keys() == grads2.keys()
    for name in grads1:
        assert np.array_equal(grads1[name], grads2[name]), name
