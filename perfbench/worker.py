"""Runs one benchmark workload in this process; started by run.py.

Untraced (--trace 0): run the whole pipeline (build, then one read-only
pass) as many times as the workload asks (`pipeline_s` is their median),
repeat the set-up, then repeat the read-only pass until the passes have
taken `--seconds` in all (at least MIN_INFER_PASSES passes), and report
medians. Traced (--trace 1):
run the pipeline once untraced and once under the tracer, check that both
wrote the same checkpoints and losses, and report per-layer metrics.

Prints human-readable lines, then the result JSON as the last line, and
writes the full record (environment, stage metrics, checkpoint hashes,
per-layer table) to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"

MIN_INFER_PASSES = 5
SETUP_SAMPLES = 3  # the pipeline's own set-up plus this many minus one repeats

# Recorded in the results file and printed, but not every workload has them,
# so they are not among BENCHMARK.json's end-to-end metrics.
STAGE_METRICS = {
    "pretrain_windows_per_s": "windows/s",
    "finetune_windows_per_s": "windows/s",
    "synth_rows_per_s": "rows/s",
    "analyze_windows_per_s": "windows/s",
    "accuracy": "fraction",
    "heldout_mae_loss": "nats",
    "error_rate": "failed/attempted",
}


def environment(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = git.stdout.split()
        # only this checkout's own repository, not one that encloses it
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "motionprim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(workload, seed: int, seconds: float, workdir: Path, rec) -> dict:
    from tracer import Tracer

    pipelines, read_only = [], []
    for i in range(workload.pipeline_runs):
        start = time.perf_counter()
        probe = Tracer({"training.run_training"}) if workload.kind == "train" else None
        if probe is not None:
            probe.install()
        try:
            state = workload.build(rec, seed, workdir / f"pipeline{i}", probe)
        finally:
            if probe is not None:
                probe.restore()
        t0 = time.perf_counter()
        workload.infer(rec, state)
        read_only.append(time.perf_counter() - t0)
        pipelines.append(time.perf_counter() - start)
        if i == 0:
            checkpoints = dict(rec.checkpoints)
        else:
            rec.check("repeated pipeline writes identical checkpoints", rec.checkpoints == checkpoints)

    if workload.kind == "train":
        for _ in range(SETUP_SAMPLES - 1):
            rec.add("setup_s", rec.op(workload.setup, seed))
    while len(read_only) < MIN_INFER_PASSES or sum(read_only) < seconds:
        t0 = time.perf_counter()
        workload.infer(rec, state)
        read_only.append(time.perf_counter() - t0)
    workload.final_checks(rec, state, seed)
    return {
        "pipeline_s": statistics.median(pipelines),
        "pipeline_samples": pipelines,
        "infer_passes": len(read_only),
        "read_only_s": sum(read_only),
    }


def traced_run(workload, seed: int, workdir: Path, rec) -> dict:
    from tracer import Tracer
    from workloads import Record

    plain = Record()
    t0 = time.perf_counter()
    plain_state = workload.build(plain, seed, workdir / "plain", None)
    workload.infer(plain, plain_state, timed=False)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        state = workload.build(rec, seed, workdir / "traced", None)
        workload.infer(rec, state, timed=False)
    traced_s = time.perf_counter() - t0

    rec.check("untraced pipeline succeeded", plain.failed == 0, "; ".join(plain.failures))
    rec.check(
        "traced checkpoints byte-identical to untraced",
        rec.checkpoints == plain.checkpoints,
        f"{rec.checkpoints} != {plain.checkpoints}",
    )
    rec.check("traced outputs and losses identical to untraced", rec.outputs == plain.outputs)
    workload.final_checks(rec, state, seed)
    return {
        "pipeline_s": traced_s,
        "untraced_pipeline_s": plain_s,
        "per_layer": per_layer(tracer, traced_s, plain_s),
        "table": tracer.summary(),
        "counts": dict(tracer.counts),
        "spans": len(tracer.spans),
    }


def per_layer(tracer, traced_s: float, plain_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    from tracer import TRACED_MODULES

    table = tracer.summary()
    counts = tracer.counts

    def stat(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in (
        "quantizer.nearest_prototypes",
        "quantizer.init_codebook",
        "encoder.attention_forward",
        "encoder.attention_backward",
        "encoder.mlp_forward",
        "encoder.mlp_backward",
        "encoder.layernorm_forward",
        "encoder.layernorm_backward",
        "encoder.encoder_forward",
        "encoder.encoder_backward",
        "model.forward",
        "model.backward",
        "model.mask_positions_for",
        "model.prepare_windows",
        "training.run_training",
        "training.AdamW.step",
        "training.pretrain",
        "training.finetune",
        "training.evaluate",
        "training.tokenize_dataset",
        "training.refresh_usage",
        "training.save_checkpoint",
        "training.load_checkpoint",
        "tensorfile.save_tensors",
        "tensorfile.load_tensors",
        "ingest.generate_synthetic",
        "ingest.synthesize_streams",
        "ingest.window",
        "ingest.load_dataset",
        "ingest.write_synthetic_dataset",
        "analysis.similarity",
        "analysis.frequency",
        "analysis.transitions",
        "analysis.token_streams",
        "cli.main",
    ):
        out[f"{name}.self_s"] = stat(name, "self_s")
    # the four report writers: export_{similarity,frequency,transitions}_csv
    # and export_report_json
    out["analysis.export.self_s"] = sum(
        row["self_s"] for n, row in table.items() if n.startswith("analysis.export_")
    )
    for layer in ("attention", "mlp", "layernorm", "encoder"):
        out[f"encoder.{layer}.self_s"] = stat(f"encoder.{layer}_forward", "self_s") + stat(
            f"encoder.{layer}_backward", "self_s"
        )
    for module in TRACED_MODULES:
        out[f"{module}.self_s"] = sum(row["self_s"] for n, row in table.items() if n.split(".")[0] == module)
    for name in (
        "quantizer.nearest_prototypes",
        "model.forward",
        "model.backward",
        "encoder.encoder_backward",
        "training.AdamW.step",
        "metadata.embed_channels",
        "cli.main",
    ):
        out[f"{name}.calls"] = stat(name, "calls")
    for key in (
        "quantizer.nearest_prototypes.pairs",
        "encoder.flops",
        "training.AdamW.step.elements",
        "tensorfile.save_tensors.bytes",
        "tensorfile.load_tensors.bytes",
        "ingest.write_synthetic_dataset.rows",
        "ingest.write_synthetic_dataset.bytes",
        "ingest.load_dataset.rows",
        "ingest.load_dataset.bytes",
    ):
        out[key] = counts.get(key, 0)
    pairs = counts.get("quantizer.nearest_prototypes.pairs", 0)
    out["quantizer.nearest_prototypes.ns_per_pair"] = (
        stat("quantizer.nearest_prototypes", "self_s") * 1e9 / pairs if pairs else 0.0
    )
    encoder_s = sum(
        stat(f"encoder.encoder_{d}", "total_s") for d in ("forward", "backward")
    )
    out["encoder.gflops_per_s"] = counts.get("encoder.flops", 0) / encoder_s / 1e9 if encoder_s else 0.0
    computed = counts.get("training.grad_elements_computed", 0)
    out["training.trainable_grad_fraction"] = (
        counts.get("training.grad_elements_trainable", 0) / computed if computed else 0.0
    )
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.uncovered_s"] = traced_s - tracer.covered_s()
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args(argv)

    import motionprim

    if Path(motionprim.__file__).resolve().parent != (ROOT / "src" / "motionprim").resolve():
        print(f"imported motionprim from {motionprim.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Record

    workload = WORKLOADS[args.workload]
    rec = Record()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT / "work"))
    failed_run = False
    try:
        if args.trace:
            run = traced_run(workload, args.seed, workdir, rec)
        else:
            run = measured_run(workload, args.seed, args.seconds, workdir, rec)
    except Exception:
        traceback.print_exc()
        failed_run = True
        run = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stage = {name: statistics.median(v) for name, v in rec.values.items() if name in STAGE_METRICS}
    if "eval_metrics" in rec.outputs:
        stage["accuracy"] = rec.outputs["eval_metrics"]["accuracy"]
    if "heldout_mae_loss" in rec.outputs:
        stage["heldout_mae_loss"] = rec.outputs["heldout_mae_loss"]
    stage["error_rate"] = (rec.failed + failed_run) / (rec.attempted + failed_run or 1)

    if failed_run:
        computed = {}
    elif args.trace:
        computed = run["per_layer"]
    else:
        computed = {
            "setup_s": statistics.median(rec.values["setup_s"]),
            "pipeline_s": run["pipeline_s"],
            "eval_windows_per_s": statistics.median(rec.values["eval_windows_per_s"]),
            "peak_rss_mb": peak_rss_mb(),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in computed
    }
    result = {
        "correct": not failed_run and rec.failed == 0,
        "attempted": rec.attempted + failed_run,
        "failed": rec.failed + failed_run,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.blas_threads),
        "result": result,
        "stage_metrics": stage,
        "samples": rec.values,
        "checkpoint_sha256": rec.checkpoints,
        "outputs": rec.outputs,
        "failures": rec.failures,
        "run": {k: v for k, v in run.items() if k != "per_layer"},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str))

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for name, value in sorted(stage.items()):
        print(f"stage {name} {value!r} {STAGE_METRICS[name]}")
    for label, digest in sorted(rec.checkpoints.items()):
        print(f"checkpoint {label} sha256 {digest}")
    for failure in rec.failures:
        print(f"FAILED {failure}")
    if args.trace and "table" in run:
        print(f"{'layer':44s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}")
        for name, row in sorted(run["table"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:44s} {row['calls']:8d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 1 if failed_run else 0


if __name__ == "__main__":
    sys.exit(main())
