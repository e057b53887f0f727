#!/usr/bin/env bash
# Full command-line round trip: synthesize data, pretrain, fine-tune,
# evaluate, and export the analysis reports. Everything lands in a scratch
# directory printed at the end.
set -euo pipefail

work="$(mktemp -d -t motionprim_cli.XXXXXX)"
echo "working in $work"

cat > "$work/spec.json" <<'EOF'
{
  "classes": [
    {"name": "walk", "waveforms": [
      {"kind": "sine", "frequency": 1.0, "noise_sigma": 0.1},
      {"kind": "square", "frequency": 1.0, "amplitude": 0.6, "noise_sigma": 0.1}
    ]},
    {"name": "run", "waveforms": [
      {"kind": "square", "frequency": 2.0, "noise_sigma": 0.1},
      {"kind": "sawtooth", "frequency": 1.0, "amplitude": 0.9, "noise_sigma": 0.1}
    ]}
  ],
  "channels": [
    {"body_part": "wrist", "sensor": "accelerometer", "axis": "x"},
    {"body_part": "ankle", "sensor": "gyroscope", "axis": "z"}
  ],
  "windows_per_class": 60,
  "seed": 0,
  "rate": 50.0,
  "window_len": 250
}
EOF

cat > "$work/run.json" <<EOF
{
  "model": {
    "codebook_size": 32, "segment_len": 50, "model_dim": 32, "meta_dim": 64,
    "depth": 2, "heads": 4, "segments_per_channel": 5, "mask_ratio": 0.25,
    "num_classes": 2
  },
  "optimizer": {"learning_rate": 1e-3, "batch_size": 60, "micro_batch": 60, "epochs": 30},
  "datasets": ["$work/data/manifest.json"],
  "out_dir": "$work/runs",
  "run_id": "walkthrough",
  "seed": 0,
  "split_fraction": 0.3
}
EOF

motionprim synth "$work/spec.json" "$work/data"
motionprim pretrain --config "$work/run.json"
motionprim finetune --config "$work/run.json" \
  --set "run_id=walkthrough-ft" \
  --set "optimizer.epochs=60" --set "optimizer.learning_rate=2e-3" \
  "$work/runs/walkthrough.ckpt"
motionprim evaluate --config "$work/run.json" --set "run_id=walkthrough-eval" \
  "$work/runs/walkthrough-ft.ckpt" "$work/data/manifest.json"
motionprim analyze --config "$work/run.json" --set "run_id=walkthrough-reports" \
  "$work/runs/walkthrough-ft.ckpt" "$work/data/manifest.json"
motionprim gradcheck --out "$work/runs/gradcheck.json"

echo
echo "artifacts:"
find "$work/runs" -type f | sort
