"""Command line entry point: synth, pretrain, finetune, evaluate, analyze,
gradcheck. Config precedence is defaults < config file < --set overrides,
every override logged; every run writes a run_manifest with the config hash,
seed, and library versions.

Exit codes: 0 ok, 2 config error, 3 data error, 4 checkpoint error,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    export_frequency_csv,
    export_report_json,
    export_similarity_csv,
    export_transitions_csv,
    frequency,
    report_path,
    similarity,
    token_streams,
    transitions,
)
from .errors import CheckpointError, ConfigError, DataError, MotionPrimError, NumericError
from .ingest import load_dataset, load_manifest, load_synthetic_spec, write_synthetic_dataset
from .metadata import make_provider
from .model import (
    FINETUNE_WEIGHTS,
    PRETRAIN_WEIGHTS,
    LossWeights,
    ModelConfig,
    PreparedBatch,
    gradient_suite,
    prepare_windows,
)
from .schema import check_fields, field_type, from_dict, read_json
from .training import (
    OptimizerConfig,
    checkpoint_hash,
    evaluate,
    finetune,
    load_checkpoint,
    policy_by_name,
    pretrain,
    save_checkpoint,
    tokenize_dataset,
    write_log,
)

logger = logging.getLogger("motionprim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_NUMERIC = 5


@dataclass
class ProviderConfig:
    kind: str = "deterministic-hash"
    dim: int = 768
    seed: int = 0
    path: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class RunConfig:
    """Everything a command reads from --config and --set."""

    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    loss_weights: LossWeights | None = None  # None -> stage preset
    datasets: list[str] = field(default_factory=list)
    seed: int = 0
    out_dir: str = "runs"
    run_id: str | None = None  # None -> derived from command + config hash
    freeze: str = "encoder-finetune"
    split_fraction: float = 0.2
    codebook_init: str = "kmeans-seeded"
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    workers: int = 1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # it names files inside out_dir, so a separator would point elsewhere
        if self.run_id and (self.run_id == ".." or Path(self.run_id).name != self.run_id):
            raise ConfigError(f"run_id {self.run_id!r} must be a plain file name, without a path separator")


def load_run_config(path: str | None, overrides: list[str]) -> tuple[RunConfig, dict, list[str]]:
    """The typed run config, the merged raw dict it was built from (what
    config_hash covers) and a log of applied override strings.

    The raw layers are RunConfig's defaults, with `model` and `optimizer`
    empty (they hold overrides of ModelConfig and OptimizerConfig
    defaults), then the config file, then each --set. A --set value is
    parsed as JSON; a bare string, or any text given for a str field, is
    kept as written."""
    merged = asdict(RunConfig())
    merged.update(model={}, optimizer={})
    if path is not None:
        raw = read_json(path, "config")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        for key, value in raw.items():
            if isinstance(merged.get(key), dict) and isinstance(value, dict):
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value
    applied = []
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override {override!r} is not of the form path.to.key=value")
        dotted, _, text = override.partition("=")
        parts = dotted.split(".")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if field_type(RunConfig, parts) is str and not isinstance(value, (str, type(None))):
            value = text
        target = merged
        for part in parts[:-1]:
            if part not in target or not isinstance(target[part], dict):
                raise ConfigError(f"override path {dotted!r} does not exist")
            target = target[part]
        leaf = parts[-1]
        old = target.get(leaf, "<unset>")
        target[leaf] = value
        applied.append(f"{dotted}: {old!r} -> {value!r}")
        logger.info("config override %s: %r -> %r", dotted, old, value)
    return from_dict(RunConfig, merged, "config"), merged, applied


def config_hash(merged: dict) -> str:
    return hashlib.sha256(json.dumps(merged, sort_keys=True).encode()).hexdigest()


def _run_id(merged: dict, command: str) -> str:
    return merged["run_id"] or f"{command}-{config_hash(merged)[:8]}"


def _output_dir(path: str | Path) -> Path:
    """Make a command's output directory, parents included, before the
    command loads data or trains; a path that cannot be a writable
    directory is a ConfigError."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {str(out_dir)!r} as the output directory: {exc}") from exc
    if not os.access(out_dir, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {str(out_dir)!r} is not writable")
    return out_dir


def _write_run_manifest(out_dir: Path, command: str, merged: dict, applied: list[str], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(merged),
        "seed": merged["seed"],
        "overrides": applied,
        "outputs": sorted(outputs),
        "versions": {
            "motionprim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _prepare_dataset(path: str, model_config: ModelConfig, provider) -> PreparedBatch:
    manifest = load_manifest(path)
    loaded = load_dataset(manifest)
    if not loaded.windows:
        raise DataError(f"dataset {manifest.name} produced no complete windows")
    return prepare_windows(loaded.windows, model_config, provider, source=loaded.name)


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synthetic_spec(args.spec)
    out_dir = _output_dir(args.out_dir)
    manifest_path = write_synthetic_dataset(spec, out_dir)
    _write_run_manifest(
        out_dir,
        "synth",
        {"spec": args.spec, "seed": spec.seed},
        [],
        [str(manifest_path), str(out_dir / "data.csv")],
    )
    print(f"wrote {manifest_path}")
    return EXIT_OK


def cmd_pretrain(args: argparse.Namespace) -> int:
    run, merged, applied = load_run_config(args.config, args.set or [])
    if not run.datasets:
        raise ConfigError("pretraining needs at least one dataset manifest in 'datasets'")
    provider = make_provider(**asdict(run.provider))
    out_dir = _output_dir(run.out_dir)
    run_id = _run_id(merged, "pretrain")
    datasets = [_prepare_dataset(p, run.model, provider) for p in run.datasets]
    model, records = pretrain(
        run.model,
        datasets,
        run.optimizer,
        run_seed=run.seed,
        codebook_init=run.codebook_init,
        weights=run.loss_weights or PRETRAIN_WEIGHTS,
    )
    ckpt_path = out_dir / f"{run_id}.ckpt"
    save_checkpoint(ckpt_path, model, {"stage": "pretrain", "seed": run.seed})
    log_path = out_dir / f"{run_id}_train.jsonl"
    write_log(log_path, records)
    _write_run_manifest(out_dir, "pretrain", merged, applied, [str(ckpt_path), str(log_path)])
    print(f"checkpoint {ckpt_path}")
    print(f"log {log_path}")
    print(f"checkpoint_hash {checkpoint_hash(ckpt_path)}")
    if records:
        last = records[-1]
        print(
            f"final mae_loss {last['mae_loss']!r} vq_loss {last['vq_loss']!r} "
            f"perplexity {last['perplexity']!r}"
        )
    return EXIT_OK


def cmd_finetune(args: argparse.Namespace) -> int:
    run, merged, applied = load_run_config(args.config, args.set or [])
    if len(run.datasets) != 1:
        raise ConfigError("fine-tuning needs exactly one dataset manifest in 'datasets'")
    provider = make_provider(**asdict(run.provider))
    out_dir = _output_dir(run.out_dir)
    run_id = _run_id(merged, "finetune")
    model, _ = load_checkpoint(args.checkpoint)
    batch = _prepare_dataset(run.datasets[0], model.config, provider)
    result = finetune(
        model,
        batch,
        run.optimizer,
        policy=policy_by_name(run.freeze),
        split_fraction=run.split_fraction,
        run_seed=run.seed,
        weights=run.loss_weights or FINETUNE_WEIGHTS,
    )
    ckpt_path = out_dir / f"{run_id}.ckpt"
    save_checkpoint(ckpt_path, result.model, {"stage": "finetune", "seed": run.seed})
    metrics_path = out_dir / f"{run_id}_metrics.json"
    metrics_path.write_text(json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True))
    log_path = out_dir / f"{run_id}_train.jsonl"
    write_log(log_path, result.records)
    _write_run_manifest(
        out_dir, "finetune", merged, applied, [str(ckpt_path), str(metrics_path), str(log_path)]
    )
    print(f"checkpoint {ckpt_path}")
    print(f"metrics {metrics_path}")
    print(f"accuracy {result.metrics.accuracy!r} macro_f1 {result.metrics.macro_f1!r}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    run, merged, applied = load_run_config(args.config, args.set or [])
    provider = make_provider(**asdict(run.provider))
    out_dir = _output_dir(run.out_dir)
    model, _ = load_checkpoint(args.checkpoint)
    batch = _prepare_dataset(args.manifest, model.config, provider)
    metrics = evaluate(model, batch, workers=run.workers)
    run_id = _run_id(merged, "evaluate")
    metrics_path = out_dir / f"{run_id}_metrics.json"
    metrics_path.write_text(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    _write_run_manifest(out_dir, "evaluate", merged, applied, [str(metrics_path)])
    print(f"metrics {metrics_path}")
    print(f"accuracy {metrics.accuracy!r} macro_f1 {metrics.macro_f1!r}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    run, merged, applied = load_run_config(args.config, args.set or [])
    wanted = [r.strip() for r in args.reports.split(",") if r.strip()]
    known = {"similarity", "frequency", "transitions"}
    unknown = set(wanted) - known
    if unknown:
        raise ConfigError(f"unknown reports: {sorted(unknown)}; known: {sorted(known)}")
    if args.top_n < 1 or args.sim_tokens < 1:
        raise ConfigError(f"--top-n and --sim-tokens must be >= 1, got {args.top_n} and {args.sim_tokens}")
    provider = make_provider(**asdict(run.provider))
    out_dir = _output_dir(run.out_dir)
    model, _ = load_checkpoint(args.checkpoint)
    batch = _prepare_dataset(args.manifest, model.config, provider)
    if "frequency" in wanted and batch.labels is None:
        # checked before any report is written, so a failed run leaves none
        raise DataError("frequency report needs labeled windows")
    indices = tokenize_dataset(model, batch)
    run_id = _run_id(merged, "analyze")
    outputs = []
    K = model.config.codebook_size

    if "similarity" in wanted:
        flat = indices.reshape(-1)
        counts = np.bincount(flat, minlength=K)
        observed = np.flatnonzero(counts)
        order = observed[np.lexsort((observed, -counts[observed]))]
        ids = np.sort(order[: min(args.sim_tokens, order.size)])
        matrix = similarity(ids, model)
        csv_path = report_path(out_dir, run_id, "similarity", "csv")
        json_path = report_path(out_dir, run_id, "similarity", "json")
        export_similarity_csv(matrix, csv_path)
        export_report_json(matrix, json_path)
        outputs += [str(csv_path), str(json_path)]

    streams = token_streams(indices, batch.labels)
    if "frequency" in wanted:
        report = frequency(
            streams, top_n=args.top_n, num_classes=model.config.num_classes, codebook_size=K
        )
        csv_path = report_path(out_dir, run_id, "frequency", "csv")
        json_path = report_path(out_dir, run_id, "frequency", "json")
        export_frequency_csv(report, csv_path)
        export_report_json(report, json_path)
        outputs += [str(csv_path), str(json_path)]

    if "transitions" in wanted:
        matrix = transitions([tokens for tokens, _ in streams], K)
        csv_path = report_path(out_dir, run_id, "transitions", "csv")
        json_path = report_path(out_dir, run_id, "transitions", "json")
        export_transitions_csv(matrix, csv_path)
        export_report_json(matrix, json_path)
        outputs += [str(csv_path), str(json_path)]

    _write_run_manifest(out_dir, "analyze", merged, applied, outputs)
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.out:
        _output_dir(Path(args.out).parent)
    reports = gradient_suite(seed=args.seed)
    payload = {}
    all_pass = True
    for name, report in sorted(reports.items()):
        payload[name] = {
            "max_rel_err": report.max_rel_err,
            "tolerance": report.tolerance,
            "passed": report.passed,
            "worst_tensor": report.worst.name if report.worst else None,
            "worst_coordinate": [int(c) for c in report.worst.coordinate] if report.worst else None,
            "coords_checked": len(report.entries),
        }
        all_pass = all_pass and report.passed
        print(
            f"{name}: max rel err {report.max_rel_err:.3e} "
            f"(tolerance {report.tolerance:.0e}) {'PASS' if report.passed else 'FAIL'}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"report {args.out}")
    return EXIT_OK if all_pass else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionprim",
        description="Motion-primitive tokenization, pretraining, fine-tuning, and analysis.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="materialize a synthetic dataset from a waveform spec")
    p.add_argument("spec", help="synthetic spec JSON")
    p.add_argument("out_dir", help="output directory for CSV + manifest")
    p.set_defaults(fn=cmd_synth)

    def common(p: argparse.ArgumentParser, config_required: bool) -> None:
        p.add_argument(
            "--config", required=config_required, default=None, help="run config JSON"
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a config value (repeatable), e.g. --set model.depth=2",
        )

    p = sub.add_parser("pretrain", help="stage 1: masked-reconstruction training")
    common(p, config_required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="stage 2: supervised fine-tuning from a checkpoint")
    common(p, config_required=True)
    p.add_argument("checkpoint", help="pretraining checkpoint path")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="metrics of a checkpoint on a labeled dataset")
    common(p, config_required=False)
    p.add_argument("checkpoint")
    p.add_argument("manifest", help="dataset manifest JSON")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("analyze", help="interpretability reports from a checkpoint")
    common(p, config_required=False)
    p.add_argument("checkpoint")
    p.add_argument("manifest")
    p.add_argument(
        "--reports", default="similarity,frequency,transitions", help="comma-separated subset"
    )
    p.add_argument("--top-n", type=int, default=32, help="frequency report row count")
    p.add_argument("--sim-tokens", type=int, default=64, help="max tokens in the similarity matrix")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except ConfigError as exc:
        _report_error("config", exc)
        return EXIT_CONFIG
    except CheckpointError as exc:
        _report_error("checkpoint", exc)
        return EXIT_CHECKPOINT
    except NumericError as exc:
        _report_error("numeric", exc)
        return EXIT_NUMERIC
    except DataError as exc:
        _report_error("data", exc)
        return EXIT_DATA
    except MotionPrimError as exc:  # pragma: no cover - catch-all for new subtypes
        _report_error("error", exc)
        return EXIT_CONFIG


def _report_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
