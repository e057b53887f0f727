"""Shared fixtures: the synthetic 4-class benchmark and trained runs.

The benchmark runs (3 seeds of pretrain + finetune) are expensive, so they
are built once per session and shared by every test that grades them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

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
    ModelConfig,
    forward,
    init_model,
    mask_positions_for,
    prepare_windows,
)
from motionprim.training import OptimizerConfig, finetune, pretrain

BENCH_SEEDS = (0, 1, 2)

BENCH_CHANNELS = [
    ChannelMetadata("wrist", "accelerometer", "x", 50.0),
    ChannelMetadata("wrist", "accelerometer", "y", 50.0),
    ChannelMetadata("ankle", "gyroscope", "z", 50.0),
]

# Four classes over three channels, all generators periodic so every class
# has a distinctive segment vocabulary; noise sigma 0.1 throughout.
BENCH_CLASSES = [
    SyntheticClass("walk", [
        WaveformSpec("sine", 1.0, 1.0, 0.0, 0.0, 0.1),
        WaveformSpec("sine", 0.8, 2.0, 0.4, 0.1, 0.1),
        WaveformSpec("square", 0.6, 1.0, 0.0, 0.0, 0.1),
    ]),
    SyntheticClass("run", [
        WaveformSpec("square", 1.0, 2.0, 0.0, 0.0, 0.1),
        WaveformSpec("sawtooth", 0.9, 1.0, 0.2, 0.0, 0.1),
        WaveformSpec("sine", 0.7, 3.0, 0.0, -0.1, 0.1),
    ]),
    SyntheticClass("wave", [
        WaveformSpec("sawtooth", 1.0, 2.0, 0.0, 0.0, 0.1),
        WaveformSpec("square", 0.5, 3.0, 0.1, 0.0, 0.1),
        WaveformSpec("sawtooth", 0.8, 0.5, 0.0, 0.2, 0.1),
    ]),
    SyntheticClass("shake", [
        WaveformSpec("sine", 1.0, 0.5, 0.0, 0.0, 0.1),
        WaveformSpec("sine", 0.6, 1.5, 0.8, 0.0, 0.1),
        WaveformSpec("square", 0.9, 2.5, 0.0, 0.0, 0.1),
    ]),
]


def bench_spec(seed: int, windows_per_class: int = 200) -> SyntheticSpec:
    return SyntheticSpec(
        classes=BENCH_CLASSES,
        channels=BENCH_CHANNELS,
        windows_per_class=windows_per_class,
        seed=seed,
        rate=50.0,
        window_len=500,
    )


def bench_model_config(codebook_size: int = 64) -> ModelConfig:
    return ModelConfig(
        codebook_size=codebook_size,
        segment_len=50,
        model_dim=64,
        meta_dim=768,
        depth=2,
        heads=4,
        mlp_ratio=2.0,
        segments_per_channel=10,
        mask_ratio=0.25,
        num_classes=4,
    )


PRETRAIN_OPT = OptimizerConfig(
    learning_rate=1e-3, weight_decay=1e-5, batch_size=100, micro_batch=100, epochs=12
)
FINETUNE_OPT = OptimizerConfig(
    learning_rate=1e-3, weight_decay=1e-5, batch_size=32, micro_batch=32, epochs=20
)


def _run_benchmark(codebook_size: int) -> dict:
    """Pretrain + finetune over the three benchmark seeds; returns per-seed
    models, logs, metrics, held-out masked-prediction loss, and wall time."""
    config = bench_model_config(codebook_size)
    provider = make_provider("deterministic-hash", dim=config.meta_dim, seed=0)
    runs = {}
    t_start = time.perf_counter()
    for seed in BENCH_SEEDS:
        batch = prepare_windows(
            generate_synthetic(bench_spec(seed)), config, provider, source=f"bench{seed}"
        )
        model, records = pretrain(config, [batch], PRETRAIN_OPT, run_seed=seed)

        held = prepare_windows(
            generate_synthetic(bench_spec(seed + 1000)), config, provider, source="held"
        )
        layout = model.layout_for(
            held.norm_segments.shape[1], held.norm_segments.shape[2]
        )
        mask = mask_positions_for(
            layout, config.mask_ratio, run_seed=seed + 500, epoch=0, window_ids=held.window_ids
        )
        held_result = forward(
            model, held, PRETRAIN_WEIGHTS, mask_positions=mask, need_backward=False
        )

        ft = finetune(model, batch, FINETUNE_OPT, split_fraction=0.2, run_seed=seed)
        runs[seed] = {
            "model": model,
            "records": records,
            "held_mae": held_result.mae_loss,
            "finetune": ft,
            "batch": batch,
        }
    runs["elapsed"] = time.perf_counter() - t_start
    runs["config"] = config
    return runs


@pytest.fixture(scope="session")
def bench_runs():
    return _run_benchmark(codebook_size=64)


@pytest.fixture(scope="session")
def bench_runs_small_codebook():
    return _run_benchmark(codebook_size=8)


@pytest.fixture(scope="session")
def bench_provider():
    return make_provider("deterministic-hash", dim=768, seed=0)


@pytest.fixture(scope="session")
def bench_shape_eval(bench_provider):
    """(model, batch): an untrained model at the acceptance config with every
    weight matrix but the codebook scaled by 25, so its predictions spread
    over the classes, and 80 labeled bench windows."""
    config = bench_model_config()
    model = init_model(config, seed=11)
    for name, tensor in model.params.items():
        if tensor.ndim == 2 and name != "codebook":
            model.params[name] = 25.0 * tensor
    batch = prepare_windows(generate_synthetic(bench_spec(11, 20)), config, bench_provider, source="chunks")
    return model, batch


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))
