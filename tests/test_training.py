import json
import logging
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import oracles
from motionprim.errors import CheckpointError, ConfigError, DataError, NumericError
from motionprim.model import (
    FINETUNE_WEIGHTS,
    PRETRAIN_WEIGHTS,
    LossWeights,
    forward,
    init_model,
    mask_positions_for,
    param_shapes,
    reinit_cls_head,
    tiny_batch,
    tiny_config,
)
from motionprim.tensorfile import load_tensors, save_tensors
from motionprim.training import (
    ENCODER_FINETUNE,
    LINEAR_PROBE,
    PRETRAIN_POLICY,
    AdamW,
    FreezePolicy,
    OptimizerConfig,
    _epoch_plan,
    checkpoint_hash,
    copy_model,
    evaluate,
    finetune,
    load_checkpoint,
    metrics_from_confusion,
    policy_by_name,
    pretrain,
    run_training,
    save_checkpoint,
    stratified_split,
    tokenize_dataset,
    write_log,
)


def small_opt(**overrides):
    base = dict(learning_rate=3e-3, weight_decay=1e-5, batch_size=6, micro_batch=3, epochs=2)
    base.update(overrides)
    return OptimizerConfig(**base)


def masked_forward(model, batch, weights, **kwargs):
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, model.config.mask_ratio, 0, 0, batch.window_ids)
    return forward(model, batch, weights, mask_positions=mask, **kwargs), mask


# ---------------------------------------------------------------------------
# heads and losses (model.forward against loop references)


def test_mae_logits_and_loss():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    model.params["mae.bias"][:] = np.random.default_rng(0).normal(size=cfg.codebook_size)
    batch = tiny_batch(seed=1)
    res, mask = masked_forward(model, batch, PRETRAIN_WEIGHTS)
    h = res.hidden[np.repeat(np.arange(batch.size), mask.shape[1]), mask.reshape(-1)]
    want = oracles.softmax_rows(h @ model.params["mae.weight"].T + model.params["mae.bias"])
    np.testing.assert_allclose(res._cache["mae_probs"], want, atol=1e-12)
    assert res.mae_loss == pytest.approx(
        oracles.cross_entropy_mean(want, res.mask_targets.reshape(-1)), rel=1e-12
    )


def test_mae_loss_empty_mask_is_zero():
    cfg = tiny_config()
    model = init_model(cfg, seed=0)
    batch = tiny_batch(seed=1)
    empty = np.zeros((batch.size, 0), dtype=np.int64)
    res = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=empty, need_backward=False)
    assert res.mae_loss == 0.0
    assert res.masked_fraction == 0.0


def test_cls_loss_and_total():
    cfg = tiny_config()
    model = init_model(cfg, seed=1)
    batch = tiny_batch(seed=2)
    weights = LossWeights(0.5, 2.0, 3.0)
    res, _ = masked_forward(model, batch, weights, need_backward=False)
    want = oracles.softmax_rows(res.hidden[:, 0] @ model.params["cls_head.weight"].T + model.params["cls_head.bias"])
    np.testing.assert_allclose(res.cls_probs, want, atol=1e-12)
    assert res.cls_loss == pytest.approx(oracles.cross_entropy_mean(want, batch.labels), rel=1e-12)
    assert res.loss == pytest.approx(0.5 * res.mae_loss + 2.0 * res.cls_loss + 3.0 * res.vq_loss, rel=1e-12)
    bad = replace(batch, labels=np.full(batch.size, cfg.num_classes))
    with pytest.raises(DataError):
        forward(model, bad, FINETUNE_WEIGHTS, need_backward=False)


def test_uniform_mae_predictions_hit_log_k():
    # chance level: a zeroed MAE head scores ln K exactly
    for K in (2, 7, 64):
        model = init_model(replace(tiny_config(), codebook_size=K), seed=3)
        model.params["mae.weight"][:] = 0.0
        res, _ = masked_forward(model, tiny_batch(seed=4), PRETRAIN_WEIGHTS, need_backward=False)
        assert res.mae_loss == pytest.approx(math.log(K), abs=1e-12)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_single_step_matches_oracle():
    opt = AdamW(OptimizerConfig(learning_rate=0.01, weight_decay=0.1), {"w"})
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, 0.5, -1.0])}
    want, m, v = oracles.adamw_step(
        params["w"].tolist(), grads["w"].tolist(), [0, 0, 0], [0, 0, 0],
        t=1, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1,
    )
    opt.step(params, grads)
    np.testing.assert_allclose(params["w"], want, atol=1e-14)
    # second step carries moments
    want2, _, _ = oracles.adamw_step(want, grads["w"].tolist(), m, v,
                                     t=2, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1)
    opt.step(params, grads)
    np.testing.assert_allclose(params["w"], want2, atol=1e-13)


def test_adamw_decay_is_decoupled():
    # with zero gradient and nonzero decay, a TRAINABLE param shrinks by
    # exactly lr * wd * p; an untracked (frozen) one must not move
    opt = AdamW(OptimizerConfig(learning_rate=0.1, weight_decay=0.5), {"a"})
    params = {"a": np.array([2.0]), "frozen": np.array([2.0])}
    grads = {"a": np.zeros(1), "frozen": np.ones(1)}
    opt.step(params, grads)
    assert params["a"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
    assert params["frozen"][0] == 2.0
    assert set(opt.moments) == {"a"}


def test_adamw_rejects_nonfinite_grads():
    opt = AdamW(OptimizerConfig(), {"w"})
    with pytest.raises(NumericError):
        opt.step({"w": np.ones(2)}, {"w": np.array([1.0, np.nan])})


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(micro_batch=0)
    with pytest.raises(ConfigError):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(epochs=-1)


# ---------------------------------------------------------------------------
# freeze policies


def test_policy_groups():
    names = list(param_shapes(tiny_config()))
    pre = PRETRAIN_POLICY.trainable_names(names)
    assert pre == {n for n in names if not n.startswith("cls_head.")}
    assert "codebook" in pre
    assert "enc.0.attn.wq" in pre
    assert "mae.weight" in pre
    assert "cls_head.weight" not in pre
    probe = LINEAR_PROBE.trainable_names(names)
    assert probe == {"cls_head.weight", "cls_head.bias"}
    ft = ENCODER_FINETUNE.trainable_names(names)
    assert "enc.1.mlp.w1" in ft
    assert "cls_head.bias" in ft
    assert "embed.rows" not in ft
    assert "codebook" not in ft
    assert "mae.weight" not in ft
    assert FreezePolicy("mae-only", frozenset({"mae"})).trainable_names(names) == {"mae.weight", "mae.bias"}


def test_policy_rejects_unknown_and_empty_groups():
    # a misspelt group would otherwise freeze that group without a word
    with pytest.raises(ConfigError, match="encoder"):
        FreezePolicy("typo", frozenset({"enc", "encoder"}))
    with pytest.raises(ConfigError, match="nothing trainable"):
        FreezePolicy("none", frozenset()).trainable_names(list(param_shapes(tiny_config())))


def test_policy_by_name():
    assert policy_by_name("linear-probe") is LINEAR_PROBE
    assert policy_by_name("encoder-finetune") is ENCODER_FINETUNE
    assert policy_by_name("pretrain-all") is PRETRAIN_POLICY
    with pytest.raises(ConfigError):
        policy_by_name("everything")


# ---------------------------------------------------------------------------
# micro-batching


def micro_batches(plan):
    return [chunk for step in plan for chunk in step]


def test_micro_batches_cover_and_interleave():
    a = tiny_batch(seed=0, num_windows=7)
    b = tiny_batch(seed=1, num_windows=4)
    chunks = micro_batches(_epoch_plan([a, b], epoch=0, run_seed=3, micro=3, batch_size=1))
    # coverage: each dataset's indices appear exactly once
    seen = {0: [], 1: []}
    for di, idx in chunks:
        seen[di].extend(idx.tolist())
    assert sorted(seen[0]) == list(range(7))
    assert sorted(seen[1]) == list(range(4))
    assert all(len(idx) <= 3 for _, idx in chunks)
    # round-robin: chunks alternate datasets while both have some left
    assert [di for di, _ in chunks] == [0, 1, 0, 1, 0]
    # grouping into steps neither drops nor reorders a micro-batch
    for batch_size in (1, 4, 6, 7, 100):
        grouped = micro_batches(_epoch_plan([a, b], epoch=0, run_seed=3, micro=3, batch_size=batch_size))
        assert [(di, idx.tolist()) for di, idx in grouped] == [(di, idx.tolist()) for di, idx in chunks]


def test_micro_batches_deterministic_and_epoch_dependent():
    a = tiny_batch(seed=0, num_windows=9)
    c1 = micro_batches(_epoch_plan([a], epoch=0, run_seed=5, micro=4, batch_size=4))
    c2 = micro_batches(_epoch_plan([a], epoch=0, run_seed=5, micro=4, batch_size=4))
    for (_, x), (_, y) in zip(c1, c2):
        np.testing.assert_array_equal(x, y)
    c3 = micro_batches(_epoch_plan([a], epoch=1, run_seed=5, micro=4, batch_size=4))
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(c1, c3))


def test_micro_batches_close_a_step_at_batch_size():
    # micro-batches of 3, 3, 3, 3, 1 windows: a step closes at the first
    # micro-batch that brings it to batch_size, the last step takes the rest
    a = tiny_batch(seed=0, num_windows=13)
    for batch_size, sizes in ((1, [[3], [3], [3], [3], [1]]), (5, [[3, 3], [3, 3], [1]]),
                              (6, [[3, 3], [3, 3], [1]]), (7, [[3, 3, 3], [3, 1]]), (50, [[3, 3, 3, 3, 1]])):
        plan = _epoch_plan([a], epoch=0, run_seed=1, micro=3, batch_size=batch_size)
        assert [[idx.size for _, idx in step] for step in plan] == sizes, batch_size


def test_accumulation_invariance():
    # one effective batch of 6 built from micro-batches of 3 equals a single
    # micro-batch of 6: the pooled gradient is identical because per-window
    # mask counts are constant
    cfg = tiny_config()
    batch = tiny_batch(seed=2, num_windows=6)
    results = []
    for micro in (6, 3):
        model = init_model(cfg, seed=9)
        opt = OptimizerConfig(
            learning_rate=1e-3, weight_decay=0.0, batch_size=6, micro_batch=micro, epochs=1
        )
        run_training(model, [batch], PRETRAIN_WEIGHTS, opt, PRETRAIN_POLICY, run_seed=4, stage="t")
        results.append(model)
    for name in results[0].params:
        np.testing.assert_allclose(
            results[0].params[name], results[1].params[name], atol=1e-12,
            err_msg=name,
        )


def test_run_training_records_and_determinism():
    cfg = tiny_config()
    batch = tiny_batch(seed=3, num_windows=6)
    model = init_model(cfg, seed=1)
    records = run_training(
        model, [batch], PRETRAIN_WEIGHTS, small_opt(), PRETRAIN_POLICY, run_seed=2, stage="pre"
    )
    assert len(records) == 2
    for r in records:
        for key in ("stage", "epoch", "total_loss", "mae_loss", "cls_loss", "vq_loss",
                    "perplexity", "masked_fraction", "windows", "steps", "active_codes"):
            assert key in r
        assert r["stage"] == "pre"
        assert r["windows"] == 6
    model2 = init_model(cfg, seed=1)
    records2 = run_training(
        model2, [batch], PRETRAIN_WEIGHTS, small_opt(), PRETRAIN_POLICY, run_seed=2, stage="pre"
    )
    assert records == records2
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], model2.params[name])


# ---------------------------------------------------------------------------
# pretrain / usage


def test_pretrain_runs_and_fills_usage():
    cfg = tiny_config()
    batch = tiny_batch(seed=4, num_windows=8)
    model, records = pretrain(cfg, [batch], small_opt(), run_seed=0)
    assert len(records) == 2
    B, C, S, _ = batch.norm_segments.shape
    assert model.usage_counts.sum() == B * C * S  # final deterministic pass
    model_rn, _ = pretrain(cfg, [batch], small_opt(), run_seed=0, codebook_init="random-normal")
    assert not np.array_equal(model.params["codebook"], model_rn.params["codebook"])
    with pytest.raises(ConfigError):
        pretrain(cfg, [batch], small_opt(), codebook_init="fancy")
    with pytest.raises(DataError):
        pretrain(cfg, [], small_opt())


def test_pretrain_skips_the_classification_head():
    # pretraining has lambda_cls = 0, so labels outside the config's class
    # count (a 4-class dataset under a 2-class config) are never checked
    cfg = replace(tiny_config(), num_classes=2)
    batch = replace(tiny_batch(seed=4, num_windows=8), labels=np.arange(8) % 4)
    res, _ = masked_forward(init_model(cfg, seed=0), batch, PRETRAIN_WEIGHTS, need_backward=False)
    assert res.cls_probs is None
    _, records = pretrain(cfg, [batch], small_opt(), run_seed=0)
    assert [r["cls_loss"] for r in records] == [0.0, 0.0]


def test_tokenize_dataset_matches_forward():
    cfg = tiny_config()
    batch = tiny_batch(seed=5, num_windows=4)
    model = init_model(cfg, seed=2)
    indices = tokenize_dataset(model, batch)
    res = forward(model, batch, PRETRAIN_WEIGHTS, need_backward=False)
    np.testing.assert_array_equal(indices, res.indices)


# ---------------------------------------------------------------------------
# split / metrics / evaluate


def test_stratified_split_counts_round_half_up():
    labels = np.array([0] * 10 + [1] * 5 + [2] * 3)
    train, held = stratified_split(labels, 0.25, seed=0)
    assert np.intersect1d(train, held).size == 0
    assert np.union1d(train, held).size == 18
    # per class: round(0.25*10)=3 (2.5 rounds up), round(0.25*5)=1, round(0.25*3)=1
    assert (labels[train] == 0).sum() == 3
    assert (labels[train] == 1).sum() == 1
    assert (labels[train] == 2).sum() == 1
    t2, h2 = stratified_split(labels, 0.25, seed=0)
    np.testing.assert_array_equal(train, t2)
    t3, _ = stratified_split(labels, 0.25, seed=1)
    assert not np.array_equal(train, t3)


def test_stratified_split_needs_leftovers():
    labels = np.array([0, 0, 1])
    with pytest.raises(DataError):
        stratified_split(labels, 0.9, seed=0)  # class 1 would keep nothing
    with pytest.raises(ConfigError):
        stratified_split(labels, 1.0, seed=0)


def test_metrics_match_oracles():
    rng = np.random.default_rng(6)
    y_true = rng.integers(0, 4, size=60)
    y_pred = rng.integers(0, 4, size=60)
    conf = oracles.confusion(y_true, y_pred, 4)
    metrics = metrics_from_confusion(conf)
    assert metrics.accuracy == pytest.approx(np.mean(y_true == y_pred), rel=1e-12)
    assert metrics.macro_f1 == pytest.approx(oracles.macro_f1(conf), rel=1e-12)
    assert metrics.excluded_classes == []
    assert metrics.num_windows == 60


def test_metrics_exclude_absent_classes():
    conf = np.array([[5, 0, 0], [2, 3, 0], [0, 0, 0]])
    metrics = metrics_from_confusion(conf)
    assert metrics.excluded_classes == [2]
    assert metrics.macro_f1 == pytest.approx(oracles.macro_f1(conf), rel=1e-12)
    round_trip = metrics.to_dict()
    assert round_trip["confusion"] == conf.tolist()


def test_evaluate_matches_forward_argmax_and_workers():
    cfg = tiny_config()
    batch = tiny_batch(seed=7, num_windows=10)
    model = init_model(cfg, seed=3)
    metrics = evaluate(model, batch, micro_batch=4)
    res = forward(model, batch, FINETUNE_WEIGHTS, need_backward=False)
    want = oracles.confusion(batch.labels, res.predictions, cfg.num_classes)
    np.testing.assert_array_equal(metrics.confusion, want)
    threaded = evaluate(model, batch, micro_batch=3, workers=2)
    np.testing.assert_array_equal(threaded.confusion, metrics.confusion)


def test_evaluate_confusion_does_not_depend_on_chunking(bench_shape_eval):
    model, batch = bench_shape_eval
    whole = evaluate(model, batch, micro_batch=batch.size)
    assert np.count_nonzero(whole.confusion.sum(axis=0)) > 1  # predictions spread over classes
    for kwargs in (dict(), dict(micro_batch=256), dict(workers=2), dict(micro_batch=7, workers=2)):
        np.testing.assert_array_equal(evaluate(model, batch, **kwargs).confusion, whole.confusion, err_msg=str(kwargs))


@pytest.mark.parametrize("kwargs", [dict(micro_batch=0), dict(micro_batch=-1), dict(workers=0)])
def test_evaluate_rejects_nonpositive_chunks_and_workers(kwargs):
    model = init_model(tiny_config(), seed=3)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        evaluate(model, tiny_batch(seed=7, num_windows=5), **kwargs)


# ---------------------------------------------------------------------------
# finetune


def test_finetune_trains_on_split_and_reports_held_out():
    cfg = tiny_config()
    batch = tiny_batch(seed=8, num_windows=12)
    pre, _ = pretrain(cfg, [batch], small_opt(), run_seed=1)
    result = finetune(pre, batch, small_opt(epochs=3), split_fraction=0.25, run_seed=2)
    assert np.intersect1d(result.train_indices, result.eval_indices).size == 0
    assert result.metrics.num_windows == result.eval_indices.size
    # the pretrained model is untouched
    res_pre = forward(pre, batch, PRETRAIN_WEIGHTS, need_backward=False)
    assert np.isfinite(res_pre.loss)


def test_finetune_reinits_head_on_class_mismatch(caplog):
    cfg = tiny_config()
    batch = tiny_batch(seed=9, num_windows=12)
    pre, _ = pretrain(cfg, [batch], small_opt(), run_seed=3)
    with caplog.at_level(logging.INFO, logger="motionprim"):
        result = finetune(
            pre, batch, small_opt(epochs=1), split_fraction=0.25, run_seed=0, num_classes=5
        )
    assert result.model.params["cls_head.weight"].shape[0] == 5
    assert any("head" in r.message.lower() for r in caplog.records)


def test_linear_probe_touches_only_cls_head():
    cfg = tiny_config()
    batch = tiny_batch(seed=10, num_windows=12)
    pre, _ = pretrain(cfg, [batch], small_opt(), run_seed=4)
    before = {k: v.copy() for k, v in pre.params.items()}
    result = finetune(
        pre, batch, small_opt(epochs=2), policy=LINEAR_PROBE, split_fraction=0.25, run_seed=5
    )
    for name, old in before.items():
        if name.startswith("cls_head."):
            assert not np.array_equal(result.model.params[name], old), name
        else:
            np.testing.assert_array_equal(result.model.params[name], old, err_msg=name)
    np.testing.assert_array_equal(result.model.usage_counts, pre.usage_counts)


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    batch = tiny_batch(seed=11, num_windows=6)
    model, _ = pretrain(cfg, [batch], small_opt(), run_seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {"stage": "pretrain"})
    back, meta = load_checkpoint(path)
    assert meta["stage"] == "pretrain"
    assert back.config == cfg
    for name in model.params:
        np.testing.assert_array_equal(back.params[name], model.params[name])
    np.testing.assert_array_equal(back.usage_counts, model.usage_counts)


def test_checkpoint_lists_tensors_in_param_shapes_order(tmp_path):
    model = init_model(tiny_config(), seed=0)
    path = tmp_path / "m.ckpt"
    for m in (model, reinit_cls_head(model, num_classes=5, seed=1)):
        save_checkpoint(path, m)
        _, tensors = load_tensors(path)
        assert list(tensors) == [*param_shapes(m.config), "usage_counts"]


def test_checkpoint_hash_is_content_hash(tmp_path):
    cfg = tiny_config()
    model = init_model(cfg, seed=7)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    assert checkpoint_hash(p1) == checkpoint_hash(p2)
    model.params["codebook"][0, 0] += 1e-9
    save_checkpoint(p2, model)
    assert checkpoint_hash(p1) != checkpoint_hash(p2)


def test_load_checkpoint_rejects_other_kinds(tmp_path):
    path = tmp_path / "other.bin"
    save_tensors(path, "other", {}, {"prototypes": np.zeros((2, 3))})
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_load_checkpoint_rejects_removed_config_keys(tmp_path):
    # checkpoints whose config echo carries the removed dropout or
    # norm_placement keys are refused, not silently reinterpreted
    model = init_model(tiny_config(), seed=0)
    for key, value in (("dropout", 0.0), ("norm_placement", "pre")):
        path = tmp_path / f"{key}.ckpt"
        save_tensors(path, "checkpoint", {"config": {**asdict(model.config), key: value}}, model.params)
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)


def test_load_checkpoint_rejects_mistyped_config_echo(tmp_path):
    model = init_model(tiny_config(), seed=0)
    for key, value in (("codebook_size", "six"), ("depth", 2.5), ("mlp_ratio", "1")):
        path = tmp_path / f"{key}.ckpt"
        save_tensors(path, "checkpoint", {"config": {**asdict(model.config), key: value}}, model.params)
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)


def test_load_checkpoint_rejects_tensor_shapes_that_disagree_with_config(tmp_path):
    model = init_model(tiny_config(), seed=0)
    cases = {
        "enc.0.attn.wq": {**model.params, "enc.0.attn.wq": np.zeros((3, 3))},
        "usage_counts": {**model.params, "usage_counts": np.zeros(2, dtype=np.int64)},
        "missing": {k: v for k, v in model.params.items() if k != "codebook"},
    }
    for label, tensors in cases.items():
        path = tmp_path / f"{label}.ckpt"
        save_tensors(path, "checkpoint", {"config": asdict(model.config)}, tensors)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_copy_model_is_deep():
    model = init_model(tiny_config(), seed=8)
    twin = copy_model(model)
    twin.params["codebook"][0, 0] += 1.0
    assert model.params["codebook"][0, 0] != twin.params["codebook"][0, 0]
    twin.usage_counts[0] += 5
    assert model.usage_counts[0] != twin.usage_counts[0]


def test_write_read_log_round_trip(tmp_path):
    records = [
        {"epoch": 0, "total_loss": 1.23456789012345678, "stage": "pre"},
        {"epoch": 1, "total_loss": 0.5, "stage": "pre"},
    ]
    path = tmp_path / "log.jsonl"
    write_log(path, records)
    back = oracles.read_log(path)
    assert back == records
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["epoch"] == 0
