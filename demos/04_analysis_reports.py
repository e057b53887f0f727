"""Interpretability reports over a trained tokenizer.

Pretrains at toy scale, tokenizes the dataset, and walks the three report
types: which codes dominate which class, how codes follow each other within
a channel, and how similar the learned code embeddings are. Each report is
also exported as CSV and JSON into a temporary directory.
"""

import tempfile
from pathlib import Path

import numpy as np

from motionprim.analysis import (
    export_report,
    frequency,
    similarity,
    token_streams,
    transitions,
)
from motionprim.ingest import (
    ChannelMetadata,
    SyntheticClass,
    SyntheticSpec,
    WaveformSpec,
    generate_synthetic,
)
from motionprim.metadata import make_provider
from motionprim.model import ModelConfig, prepare_windows
from motionprim.training import OptimizerConfig, pretrain, tokenize_dataset

SPEC = SyntheticSpec(
    classes=[
        SyntheticClass("walk", [
            WaveformSpec("sine", 1.0, 1.0, 0.0, 0.0, 0.1),
            WaveformSpec("square", 0.6, 1.0, 0.0, 0.0, 0.1),
        ]),
        SyntheticClass("run", [
            WaveformSpec("square", 1.0, 2.0, 0.0, 0.0, 0.1),
            WaveformSpec("sawtooth", 0.9, 1.0, 0.2, 0.0, 0.1),
        ]),
    ],
    channels=[
        ChannelMetadata("wrist", "accelerometer", "x", 50.0),
        ChannelMetadata("ankle", "gyroscope", "z", 50.0),
    ],
    windows_per_class=60,
    seed=5,
    rate=50.0,
    window_len=250,
)

CONFIG = ModelConfig(
    codebook_size=16,
    segment_len=50,
    model_dim=32,
    meta_dim=64,
    depth=1,
    heads=4,
    segments_per_channel=5,
    mask_ratio=0.25,
    num_classes=2,
)


def main() -> None:
    provider = make_provider("deterministic-hash", dim=CONFIG.meta_dim, seed=0)
    batch = prepare_windows(generate_synthetic(SPEC), CONFIG, provider, source="demo")
    opt = OptimizerConfig(
        learning_rate=1e-3, weight_decay=1e-5, batch_size=60, micro_batch=60, epochs=10
    )
    model, _ = pretrain(CONFIG, [batch], opt, run_seed=0)
    indices = tokenize_dataset(model, batch)
    streams = token_streams(indices, batch.labels)

    freq = frequency(streams, top_n=8, num_classes=2, codebook_size=CONFIG.codebook_size)
    print("top codes by count (fractions are per-class composition):")
    for rank in range(freq.indices.size):
        frac = " ".join(f"{v:.2f}" for v in freq.fractions[rank])
        print(f"  code {freq.indices[rank]:2d}  count {freq.counts[rank]:4d}  [{frac}]")

    trans = transitions([tokens for tokens, _ in streams], CONFIG.codebook_size)
    print(f"\n{trans.total_transitions} within-channel transitions observed")
    for k in np.flatnonzero(trans.observed)[:5]:
        follow = np.argmax(trans.probabilities[k])
        print(f"  code {k:2d} is followed by code {follow:2d} "
              f"{trans.probabilities[k, follow]:.0%} of the time")

    observed = np.flatnonzero(np.bincount(indices.reshape(-1), minlength=CONFIG.codebook_size))
    sim = similarity(observed, model)
    off = sim.values[~np.eye(len(observed), dtype=bool)]
    print(f"\nembedding cosine similarity over {len(observed)} active codes: "
          f"mean {off.mean():.3f}, extremes [{off.min():.3f}, {off.max():.3f}]")

    out = Path(tempfile.mkdtemp(prefix="motionprim_reports_"))
    for report in (freq, trans, sim):
        export_report(report, out, "demo")
    print(f"\nCSV and JSON reports (demo_<report>.csv, .json) written to {out}")


if __name__ == "__main__":
    main()
