"""Turn raw sensor windows into discrete motion tokens.

Builds a small synthetic dataset, fits a codebook with k-means on the
normalized segments, and prints the token stream for a few windows next to
the codebook utilization numbers.
"""

import numpy as np

from motionprim.ingest import (
    ChannelMetadata,
    SyntheticClass,
    SyntheticSpec,
    WaveformSpec,
    generate_synthetic,
    normalize_matrix,
    segment_matrix,
)
from motionprim.quantizer import init_codebook, nearest_prototypes, usage_report

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
    windows_per_class=40,
    seed=0,
    rate=50.0,
    window_len=250,
)

SEGMENT_LEN = 50
CODEBOOK_SIZE = 16


def main() -> None:
    windows = generate_synthetic(SPEC)
    print(f"{len(windows)} windows, {len(SPEC.channels)} channels, {SPEC.window_len} samples each")

    # normalized segments from every window feed the k-means fit
    segments, _ = segment_matrix(np.stack([w.samples for w in windows]), SEGMENT_LEN)
    norm = normalize_matrix(segments)  # (windows, channels, segments, length)
    sample = norm.reshape(-1, SEGMENT_LEN)
    print(f"fitting {CODEBOOK_SIZE} prototypes on {len(sample)} segments of length {SEGMENT_LEN}")

    codebook = init_codebook(CODEBOOK_SIZE, SEGMENT_LEN, "kmeans-seeded", sample=sample, seed=0)

    for win, win_norm in zip(windows[:3], norm):
        print(f"\nwindow label={win.label}")
        for meta, channel_segments in zip(win.channels, win_norm):
            indices, _ = nearest_prototypes(channel_segments, codebook.prototypes)
            codebook.usage_counts += np.bincount(indices, minlength=CODEBOOK_SIZE)
            print(f"  {meta.body_part}/{meta.sensor}/{meta.axis}: tokens {indices.tolist()}")

    active, perplexity = usage_report(codebook)
    print(f"\nutilization over the sampled windows: {active}/{CODEBOOK_SIZE} active codes, "
          f"perplexity {perplexity:.2f}")


if __name__ == "__main__":
    main()
