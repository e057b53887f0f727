"""Acceptance gate: twelve graded checks over the full pipeline.

Each test prints one `CRITERION n: PASS/FAIL` line with the measured numbers
so the suite output doubles as the scorecard. Criterion 11 is reported but
never blocks.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import (
    BENCH_CLASSES,
    BENCH_SEEDS,
    FINETUNE_OPT,
    bench_model_config,
    bench_spec,
    median,
)
from motionprim import cli
from motionprim.analysis import (
    export_frequency_csv,
    export_similarity_csv,
    export_transitions_csv,
    frequency,
    read_frequency_csv,
    read_similarity_csv,
    read_transitions_csv,
    similarity,
    token_streams,
    transitions,
)
from motionprim.embedder import embed_batch
from motionprim.ingest import (
    ChannelMetadata,
    SyntheticClass,
    SyntheticSpec,
    WaveformSpec,
    generate_synthetic,
)
from motionprim.metadata import make_provider
from motionprim.model import (
    PRETRAIN_WEIGHTS,
    forward,
    gradient_suite,
    init_model,
    mask_positions_for,
    prepare_windows,
    tiny_batch,
    tiny_config,
)
from motionprim.quantizer import nearest_prototypes, usage_report
from motionprim.training import (
    LINEAR_PROBE,
    OptimizerConfig,
    checkpoint_hash,
    finetune,
    load_checkpoint,
    pretrain,
    read_log,
    save_checkpoint,
    tokenize_dataset,
)

# the acceptance criteria train the bench model (minutes); -m "not slow" skips them
pytestmark = pytest.mark.slow


def _report(capsys, n: int, ok: bool, detail: str, blocking: bool = True) -> str:
    tag = "PASS" if ok else "FAIL"
    if not blocking:
        tag += " (reported, non-blocking)"
    line = f"CRITERION {n}: {tag} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


# ---------------------------------------------------------------------------


def test_criterion_01_quantizer_matches_exhaustive_scan(capsys):
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    mism_index = 0
    worst_dist = 0.0
    for i in range(100):
        K = 16 if i % 2 == 0 else 64
        segments = rng.normal(size=(10, 50))
        prototypes = rng.normal(size=(K, 50))
        got_idx, got_dist = nearest_prototypes(segments, prototypes)
        for segment, idx, dist in zip(segments, got_idx, got_dist):
            want_idx, want_dist = oracles.nearest_scan(segment.tolist(), prototypes.tolist())
            if idx != want_idx:
                mism_index += 1
            worst_dist = max(worst_dist, abs(dist - want_dist) / max(1.0, want_dist))
    elapsed = time.perf_counter() - t0
    ok = mism_index == 0 and worst_dist < 1e-9 and elapsed < 10.0
    line = _report(
        capsys, 1, ok,
        f"1000/1000 segments (100 stacks of 10), index mismatches {mism_index}, "
        f"worst distance rel err {worst_dist:.2e}, {elapsed:.2f}s (< 10s)",
    )
    assert ok, line


def test_criterion_02_gradient_suite(capsys):
    t0 = time.perf_counter()
    reports = gradient_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in reports.values())
    all_pass = all(r.passed for r in reports.values()) and worst < 1e-4
    ok = all_pass and elapsed < 120.0
    line = _report(
        capsys, 2, ok,
        f"{len(reports)} components, worst rel err {worst:.2e} (< 1e-4), "
        f"{elapsed:.1f}s (< 120s)",
    )
    assert ok, line


def test_criterion_03_uniform_predictions_score_log_k(capsys):
    K = 1024
    model = init_model(replace(tiny_config(), codebook_size=K), seed=0)
    model.params["mae.weight"][:] = 0.0
    model.params["mae.bias"][:] = 0.0
    batch = tiny_batch(seed=0, num_windows=6)
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask = mask_positions_for(layout, model.config.mask_ratio, 0, 0, batch.window_ids)
    loss = forward(model, batch, PRETRAIN_WEIGHTS, mask_positions=mask, need_backward=False).mae_loss
    err = abs(loss - math.log(K))
    ok = err <= 1e-6
    line = _report(
        capsys, 3, ok,
        f"forward mae_loss over {mask.size} masked tokens with a zeroed K={K} head: {loss:.10f} "
        f"vs ln 1024 = {math.log(K):.10f}, |err| {err:.2e} (<= 1e-6)",
    )
    assert ok, line


def test_criterion_04_synthetic_end_to_end(bench_runs, capsys):
    accs = [bench_runs[s]["finetune"].metrics.accuracy for s in BENCH_SEEDS]
    f1s = [bench_runs[s]["finetune"].metrics.macro_f1 for s in BENCH_SEEDS]
    acc_med, f1_med = median(accs), median(f1s)
    elapsed = bench_runs["elapsed"]
    ok = acc_med >= 0.95 and f1_med >= 0.95 and elapsed < 600.0
    line = _report(
        capsys, 4, ok,
        f"median accuracy {acc_med:.4f} (>= 0.95), median macro-F1 {f1_med:.4f} (>= 0.95), "
        f"runtime {elapsed:.0f}s (< 600s); per-seed acc {[round(a, 4) for a in accs]}",
    )
    assert ok, line


def test_criterion_05_masked_prediction_learns(bench_runs, capsys):
    K = bench_runs["config"].codebook_size
    threshold = 0.5 * math.log(K)
    held = [bench_runs[s]["held_mae"] for s in BENCH_SEEDS]
    below = max(held) < threshold
    decreasing = 0
    for s in BENCH_SEEDS:
        first3 = [r["mae_loss"] for r in bench_runs[s]["records"][:3]]
        if first3[0] > first3[1] > first3[2]:
            decreasing += 1
    ok = below and decreasing >= 2
    line = _report(
        capsys, 5, ok,
        f"held-out masked loss {[round(h, 4) for h in held]} all < {threshold:.4f} "
        f"(0.5 ln {K}); loss decreasing over first 3 epochs for {decreasing}/3 seeds (need >= 2)",
    )
    assert ok, line


def test_criterion_06_codebook_utilization(bench_runs, capsys):
    details = []
    ok = True
    for s in BENCH_SEEDS:
        model = bench_runs[s]["model"]
        active, perplexity = usage_report(model.usage_counts)
        needed = oracles.zero_noise_shape_count(bench_spec(s))
        seed_ok = active >= needed and perplexity > 4.0
        ok = ok and seed_ok
        details.append(f"seed {s}: active {active} >= {needed} shapes, perplexity {perplexity:.1f}")
    line = _report(capsys, 6, ok, "; ".join(details) + " (perplexity > 4)")
    assert ok, line


def test_criterion_07_masking_contract(capsys):
    rng = np.random.default_rng(777)
    K = 64
    model = init_model(replace(tiny_config(), codebook_size=K, segments_per_channel=12), seed=0)
    count_ok = True
    specials_ok = True
    for _ in range(100):
        C = int(rng.integers(1, 5))
        S = int(rng.integers(2, 13))
        layout = model.layout_for(C, S)
        indices = rng.integers(0, K, size=(1, C, S))
        stats = np.stack([rng.normal(size=(1, C, S)), np.abs(rng.normal(size=(1, C, S)))], axis=-1)
        meta = rng.normal(size=(C, model.config.meta_dim))
        plan = mask_positions_for(layout, 0.25, int(rng.integers(0, 2**31)), 0, np.zeros(1, dtype=np.int64))
        _, rows, _ = embed_batch(model.params, layout, indices, stats, meta, mask_positions=plan)
        expected = int(math.floor(0.25 * C * S + 0.5))
        assert expected == oracles.mask_budget(C * S, 0.25)
        if plan.shape != (1, expected):
            count_ok = False
        if not np.all(layout.motion_mask[plan]):
            specials_ok = False
        if not np.array_equal(np.flatnonzero(rows[0] == K), plan[0]):
            specials_ok = False
    ok = count_ok and specials_ok
    line = _report(
        capsys, 7, ok,
        f"100/100 windows: count == round(0.25 x motion) {'held' if count_ok else 'VIOLATED'}, "
        f"only motion rows become [MASK] {'held' if specials_ok else 'VIOLATED'}",
    )
    assert ok, line


HET_CHANNELS_6 = [
    ChannelMetadata("chest", "accelerometer", "x", 50.0),
    ChannelMetadata("chest", "accelerometer", "y", 50.0),
    ChannelMetadata("chest", "accelerometer", "z", 50.0),
    ChannelMetadata("thigh", "gyroscope", "x", 50.0),
    ChannelMetadata("thigh", "gyroscope", "y", 50.0),
    ChannelMetadata("thigh", "gyroscope", "z", 50.0),
]

HET_CHANNELS_3 = [
    ChannelMetadata("hip", "accelerometer", "x", 50.0),
    ChannelMetadata("forearm", "gyroscope", "y", 50.0),
    ChannelMetadata("shin", "magnetometer", "z", 50.0),
]


def _six_waveform_classes() -> list[SyntheticClass]:
    out = []
    for cls in BENCH_CLASSES:
        extra = [
            WaveformSpec(w.kind, w.amplitude * 0.7, w.frequency, w.phase + 0.9, w.offset, w.noise_sigma)
            for w in cls.waveforms
        ]
        out.append(SyntheticClass(cls.name, list(cls.waveforms) + extra))
    return out


def test_criterion_08_heterogeneous_channel_transfer(tmp_path, capsys):
    config = bench_model_config(codebook_size=64)
    provider = make_provider("deterministic-hash", dim=config.meta_dim, seed=0)
    spec6 = SyntheticSpec(
        classes=_six_waveform_classes(),
        channels=HET_CHANNELS_6,
        windows_per_class=80,
        seed=7,
        rate=50.0,
        window_len=500,
    )
    batch6 = prepare_windows(generate_synthetic(spec6), config, provider, source="het6")
    opt = OptimizerConfig(learning_rate=1e-3, weight_decay=1e-5, batch_size=80, micro_batch=80, epochs=8)
    model, _ = pretrain(config, [batch6], opt, run_seed=0)
    ckpt = tmp_path / "het.ckpt"
    save_checkpoint(ckpt, model, {"stage": "pretrain"})

    reloaded, _ = load_checkpoint(ckpt)
    spec3 = SyntheticSpec(
        classes=BENCH_CLASSES,
        channels=HET_CHANNELS_3,
        windows_per_class=80,
        seed=11,
        rate=50.0,
        window_len=500,
    )
    batch3 = prepare_windows(generate_synthetic(spec3), reloaded.config, provider, source="het3")
    ft = finetune(reloaded, batch3, FINETUNE_OPT, split_fraction=0.2, run_seed=0)
    chance_plus = 1.0 / config.num_classes + 0.2
    acc = ft.metrics.accuracy
    ok = acc > chance_plus
    line = _report(
        capsys, 8, ok,
        f"6-channel pretrain -> 3-channel fine-tune with new descriptors: "
        f"accuracy {acc:.4f} > {chance_plus:.2f}",
    )
    assert ok, line


def test_criterion_09_linear_probe_touches_only_cls_head(bench_runs, tmp_path, capsys):
    model = bench_runs[BENCH_SEEDS[0]]["model"]
    batch = bench_runs[BENCH_SEEDS[0]]["batch"]
    before_path = tmp_path / "before.ckpt"
    save_checkpoint(before_path, model, {"stage": "pretrain"})
    probe = finetune(
        model,
        batch,
        OptimizerConfig(learning_rate=1e-3, weight_decay=1e-5, batch_size=32, micro_batch=32, epochs=2),
        policy=LINEAR_PROBE,
        split_fraction=0.2,
        run_seed=0,
    )
    after_path = tmp_path / "after.ckpt"
    save_checkpoint(after_path, probe.model, {"stage": "finetune"})

    before, _ = load_checkpoint(before_path)
    after, _ = load_checkpoint(after_path)
    changed = sorted(
        name for name in before.params
        if before.params[name].tobytes() != after.params[name].tobytes()
    )
    usage_same = before.usage_counts.tobytes() == after.usage_counts.tobytes()
    only_head = changed and all(name.startswith("cls_head.") for name in changed)
    ok = bool(only_head and usage_same)
    line = _report(
        capsys, 9, ok,
        f"changed tensors {changed or 'none'}; usage counts identical: {usage_same}",
    )
    assert ok, line


def test_criterion_10_analysis_properties(bench_runs, tmp_path, capsys):
    model = bench_runs[BENCH_SEEDS[0]]["model"]
    batch = bench_runs[BENCH_SEEDS[0]]["batch"]
    K = model.config.codebook_size
    indices = tokenize_dataset(model, batch)

    observed = np.flatnonzero(np.bincount(indices.reshape(-1), minlength=K))
    sim = similarity(observed, model)
    sym = float(np.nanmax(np.abs(sim.values - sim.values.T)))
    diag = float(np.nanmax(np.abs(np.diag(sim.values) - 1.0)))

    streams = token_streams(indices, batch.labels)
    freq = frequency(streams, top_n=K, num_classes=model.config.num_classes, codebook_size=K)
    conserve = int(freq.counts.sum()) == indices.size == freq.total_tokens

    trans = transitions([tokens for tokens, _ in streams], K)
    rows = trans.probabilities[trans.observed].sum(axis=1)
    row_err = float(np.max(np.abs(rows - 1.0))) if rows.size else 0.0

    paths = {
        "similarity": tmp_path / "sim.csv",
        "frequency": tmp_path / "freq.csv",
        "transitions": tmp_path / "trans.csv",
    }
    export_similarity_csv(sim, paths["similarity"])
    export_frequency_csv(freq, paths["frequency"])
    export_transitions_csv(trans, paths["transitions"])
    sim_back = read_similarity_csv(paths["similarity"])
    freq_back = read_frequency_csv(paths["frequency"])
    trans_back = read_transitions_csv(paths["transitions"])
    round_trip = (
        np.array_equal(sim_back.values, sim.values)
        and np.array_equal(sim_back.token_ids, sim.token_ids)
        and np.array_equal(freq_back.counts, freq.counts)
        and np.array_equal(freq_back.fractions, freq.fractions)
        and np.array_equal(trans_back.probabilities, trans.probabilities)
    )

    ok = sym <= 1e-9 and diag <= 1e-9 and conserve and row_err <= 1e-9 and round_trip
    line = _report(
        capsys, 10, ok,
        f"symmetry err {sym:.1e}, diagonal err {diag:.1e} (<= 1e-9); "
        f"counts conserved: {conserve} ({freq.total_tokens} tokens); "
        f"row-sum err {row_err:.1e} (<= 1e-9); bit-exact round-trip: {round_trip}",
    )
    assert ok, line


def test_criterion_11_codebook_size_direction(bench_runs, bench_runs_small_codebook, capsys):
    acc_large = median([bench_runs[s]["finetune"].metrics.accuracy for s in BENCH_SEEDS])
    acc_small = median(
        [bench_runs_small_codebook[s]["finetune"].metrics.accuracy for s in BENCH_SEEDS]
    )
    direction_holds = acc_large >= acc_small
    _report(
        capsys, 11, direction_holds,
        f"median accuracy K=64: {acc_large:.4f} vs K=8: {acc_small:.4f} "
        f"(direction {'holds' if direction_holds else 'reversed'})",
        blocking=False,
    )
    # reported only; never blocks


DET_SPEC = {
    "classes": [
        {"name": "slow", "waveforms": [
            {"kind": "sine", "frequency": 0.5, "noise_sigma": 0.05},
            {"kind": "square", "frequency": 0.5, "noise_sigma": 0.05},
        ]},
        {"name": "fast", "waveforms": [
            {"kind": "sine", "frequency": 2.0, "noise_sigma": 0.05},
            {"kind": "sawtooth", "frequency": 2.0, "noise_sigma": 0.05},
        ]},
    ],
    "channels": [
        {"body_part": "wrist", "sensor": "accelerometer", "axis": "x"},
        {"body_part": "ankle", "sensor": "gyroscope", "axis": "z"},
    ],
    "windows_per_class": 12,
    "seed": 21,
    "rate": 10.0,
    "window_len": 20,
}

DET_RUN = {
    "model": {
        "codebook_size": 8, "segment_len": 5, "model_dim": 8, "meta_dim": 16,
        "depth": 1, "heads": 2, "segments_per_channel": 4, "mask_ratio": 0.25,
        "num_classes": 2,
    },
    "optimizer": {"learning_rate": 1e-3, "batch_size": 8, "micro_batch": 4, "epochs": 3},
    "provider": {"dim": 16},
    "seed": 9,
    "workers": 1,
    "run_id": "det",
}


def test_criterion_12_repeated_pretraining_is_identical(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(DET_SPEC))
    data_dir = tmp_path / "data"
    assert cli.main(["synth", str(spec_path), str(data_dir)]) == 0

    logs, hashes = [], []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        cfg = dict(DET_RUN)
        cfg["datasets"] = [str(data_dir / "manifest.json")]
        cfg["out_dir"] = str(out_dir)
        cfg_path = tmp_path / f"run_{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["pretrain", "--config", str(cfg_path), "--set", "workers=1"]) == 0
        logs.append(read_log(out_dir / "det_train.jsonl"))
        hashes.append(checkpoint_hash(out_dir / "det.ckpt"))

    assert len(logs[0]) == len(logs[1]) == 3
    worst = 0.0
    for ra, rb in zip(logs[0], logs[1]):
        for key in ("total_loss", "mae_loss", "cls_loss", "vq_loss"):
            worst = max(worst, abs(ra[key] - rb[key]))
    same_hash = hashes[0] == hashes[1]
    ok = worst <= 1e-9 and same_hash
    line = _report(
        capsys, 12, ok,
        f"loss sequences differ by {worst:.1e} (<= 1e-9); "
        f"checkpoint hashes {'identical' if same_hash else 'DIFFER'}",
    )
    assert ok, line
