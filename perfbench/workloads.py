"""The benchmark workloads, driven through motionprim's public API and CLI.

Every input is derived from the workload seed: the training spec uses the
seed, the held-out spec uses seed + 1000, model initialisation uses the seed.
Each workload is one caller in one process (a closed loop). The benchmark
calls the program through module attributes (`training.pretrain`, not a
local import), so a tracer that rebinds those attributes sees every call.

A workload has two parts. `build` runs once per pipeline: it makes the data
and trains or writes whatever the read-only part needs. `infer` is one
read-only pass (evaluation, and for ingest-infer the CLI evaluate and analyze
commands); the worker repeats it to fill the measured time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from motionprim import analysis, cli, ingest, metadata, model, training
from motionprim.ingest import ChannelMetadata, SyntheticClass, SyntheticSpec, WaveformSpec

from tracer import Tracer

# The acceptance-bench data: four periodic classes over three channels.
CHANNELS = [
    ChannelMetadata("wrist", "accelerometer", "x", 50.0),
    ChannelMetadata("wrist", "accelerometer", "y", 50.0),
    ChannelMetadata("ankle", "gyroscope", "z", 50.0),
]
CLASSES = [
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

SMALL_MODEL = dict(
    codebook_size=64,
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

HELD_OUT_OFFSET = 1000
MASK_SEED_OFFSET = 500
QUANTIZER_SAMPLE_WINDOWS = 16


def bench_spec(seed: int, windows_per_class: int) -> SyntheticSpec:
    return SyntheticSpec(
        classes=CLASSES,
        channels=CHANNELS,
        windows_per_class=windows_per_class,
        seed=seed,
        rate=50.0,
        window_len=500,
    )


def spec_to_dict(spec: SyntheticSpec) -> dict:
    """The JSON form `motionprim synth` reads."""
    return {
        "seed": spec.seed,
        "rate": spec.rate,
        "window_len": spec.window_len,
        "windows_per_class": spec.windows_per_class,
        "channels": [
            {"body_part": c.body_part, "sensor": c.sensor, "axis": c.axis, "native_rate": c.native_rate}
            for c in spec.channels
        ],
        "classes": [
            {
                "name": cls.name,
                "waveforms": [
                    {
                        "kind": w.kind,
                        "amplitude": w.amplitude,
                        "frequency": w.frequency,
                        "phase": w.phase,
                        "offset": w.offset,
                        "noise_sigma": w.noise_sigma,
                    }
                    for w in cls.waveforms
                ],
            }
            for cls in spec.classes
        ],
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _provider(config: model.ModelConfig):
    return metadata.make_provider("deterministic-hash", dim=config.meta_dim, seed=0)


class Record:
    """Operations, checks, stage timings and outputs of one pipeline."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict[str, list[float]] = {}
        self.checkpoints: dict[str, str] = {}
        self.outputs: dict = {}

    def op(self, fn, *args, **kwargs):
        """One call into the program; an exception fails the run."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__qualname__', fn)} raised")
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))


def check_quantizer_sample(rec: Record, live: model.Model, batch: model.PreparedBatch, seed: int, label: str) -> None:
    """The live codebook's assignments on a seeded sample of windows must
    equal an exhaustive argmin computed here, ties to the lowest index."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 97]))
    pick = np.sort(rng.choice(batch.size, size=min(QUANTIZER_SAMPLE_WINDOWS, batch.size), replace=False))
    sample = batch.subset(pick)
    got = training.tokenize_dataset(live, sample).reshape(-1)
    segments = sample.norm_segments.reshape(-1, sample.norm_segments.shape[-1])
    prototypes = live.params["codebook"]
    want = np.empty(segments.shape[0], dtype=np.int64)
    for i, s in enumerate(segments):
        d2 = ((prototypes - s) ** 2).sum(axis=1)
        want[i] = int(np.flatnonzero(d2 == d2.min())[0])
    rec.check(
        f"quantizer matches exhaustive argmin ({label})",
        bool(np.array_equal(got, want)),
        f"{int((got != want).sum())} of {want.size} segments differ",
    )


# ---------------------------------------------------------------------------
# Training workloads


@dataclass
class TrainWorkload:
    name: str
    model: dict
    windows_per_class: int
    held_windows_per_class: int
    pretrain_opt: dict
    finetune_opt: dict
    split_fraction: float
    min_accuracy: float
    # whole pipelines per untraced run, `pipeline_s` being their median; one
    # takes about 35 s, long enough to time once
    pipeline_runs: int = field(default=1, init=False)
    kind: str = field(default="train", init=False)

    def config(self) -> model.ModelConfig:
        return model.ModelConfig(**self.model)

    def setup(self, seed: int) -> float:
        """Data generation + prepare_windows + codebook init, timed the way
        the pipeline times it: everything before the first training step."""
        probe = Tracer({"training.run_training"})
        t0 = time.perf_counter()
        config = self.config()
        batch, held = self._data(seed, config)
        with probe:
            training.pretrain(
                config,
                [batch],
                training.OptimizerConfig(**{**self.pretrain_opt, "epochs": 0}),
                run_seed=seed,
            )
        return probe.intervals("training.run_training")[0][0] - t0

    def _data(self, seed: int, config: model.ModelConfig):
        provider = _provider(config)
        windows = ingest.generate_synthetic(bench_spec(seed, self.windows_per_class))
        batch = model.prepare_windows(windows, config, provider, source="train")
        held_windows = ingest.generate_synthetic(bench_spec(seed + HELD_OUT_OFFSET, self.held_windows_per_class))
        held = model.prepare_windows(held_windows, config, provider, source="held")
        return batch, held

    def build(self, rec: Record, seed: int, workdir: Path, probe: Tracer | None) -> dict:
        """Setup, pretrain, held-out masked loss, finetune, checkpoint
        save/load. `probe` times run_training when given (untraced runs)."""
        workdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        config = self.config()
        batch, held = rec.op(self._data, seed, config)
        pre_opt = training.OptimizerConfig(**self.pretrain_opt)
        pretrained, pre_records = rec.op(
            training.pretrain, config, [batch], pre_opt, run_seed=seed
        )

        layout = pretrained.layout_for(held.num_channels, held.segments_per_channel)
        mask = rec.op(
            model.mask_positions_for, layout, config.mask_ratio, seed + MASK_SEED_OFFSET, 0, held.window_ids
        )
        held_result = rec.op(
            model.forward,
            pretrained,
            held,
            model.PRETRAIN_WEIGHTS,
            mask_positions=mask,
            need_backward=False,
        )
        rec.op(training.save_checkpoint, workdir / "pretrain.ckpt", pretrained, {"stage": "pretrain", "seed": seed})

        ft_opt = training.OptimizerConfig(**self.finetune_opt)
        ft = rec.op(training.finetune, pretrained, batch, ft_opt, split_fraction=self.split_fraction, run_seed=seed)
        rec.op(training.save_checkpoint, workdir / "finetune.ckpt", ft.model, {"stage": "finetune", "seed": seed})
        loaded, _ = rec.op(training.load_checkpoint, workdir / "finetune.ckpt")

        if probe is not None:
            (pre_start, pre_end), (ft_start, ft_end) = probe.intervals("training.run_training")
            rec.add("setup_s", pre_start - t0)
            rec.add("pretrain_windows_per_s", batch.size * pre_opt.epochs / (pre_end - pre_start))
            rec.add("finetune_windows_per_s", ft.train_indices.size * ft_opt.epochs / (ft_end - ft_start))

        rec.outputs["pretrain_losses"] = [r["total_loss"] for r in pre_records]
        rec.outputs["finetune_losses"] = [r["total_loss"] for r in ft.records]
        rec.outputs["heldout_mae_loss"] = held_result.mae_loss
        rec.outputs["finetune_split_accuracy"] = ft.metrics.accuracy
        for label in ("pretrain", "finetune"):
            rec.checkpoints[label] = sha256_file(workdir / f"{label}.ckpt")

        losses = [
            r[key] for r in pre_records + ft.records for key in ("total_loss", "mae_loss", "cls_loss", "vq_loss")
        ] + [held_result.mae_loss]
        rec.check("losses finite", all(math.isfinite(v) for v in losses))
        first, last = pre_records[0]["total_loss"], pre_records[-1]["total_loss"]
        rec.check("pretrain loss falls", last < first, f"first {first!r}, last {last!r}")
        same = set(loaded.params) == set(ft.model.params) and all(
            np.array_equal(loaded.params[n], ft.model.params[n]) for n in ft.model.params
        ) and np.array_equal(loaded.usage_counts, ft.model.usage_counts)
        rec.check("checkpoint round trip bit-exact", same)
        return {"model": loaded, "held": held, "batch": batch}

    def infer(self, rec: Record, state: dict, timed: bool = True) -> None:
        """One forward-only evaluate pass over the held-out windows."""
        held = state["held"]
        t0 = time.perf_counter()
        metrics = rec.op(training.evaluate, state["model"], held, workers=1)
        elapsed = time.perf_counter() - t0
        if timed:
            rec.add("eval_windows_per_s", held.size / elapsed)
        first = rec.outputs.setdefault("eval_metrics", metrics.to_dict())
        rec.check("evaluate repeats exactly", metrics.to_dict() == first)

    def final_checks(self, rec: Record, state: dict, seed: int) -> None:
        accuracy = rec.outputs["eval_metrics"]["accuracy"]
        rec.check(f"held-out accuracy >= {self.min_accuracy}", accuracy >= self.min_accuracy, f"accuracy {accuracy!r}")
        check_quantizer_sample(rec, state["model"], state["batch"], seed, "train")
        check_quantizer_sample(rec, state["model"], state["held"], seed + 1, "held-out")


# ---------------------------------------------------------------------------
# CSV ingest + read-only CLI workload


# Functions the CLI commands call, by defining module; the first four are
# a command's set-up.
CLI_STAGES = (
    "training.load_checkpoint",
    "ingest.load_manifest",
    "ingest.load_dataset",
    "model.prepare_windows",
    "training.evaluate",
)


@dataclass
class IngestWorkload:
    name: str
    model: dict
    windows_per_class: int
    # a pipeline takes about 8 s, so one sample would be noisy
    pipeline_runs: int = field(default=3, init=False)
    kind: str = field(default="ingest", init=False)

    def config(self) -> model.ModelConfig:
        return model.ModelConfig(**self.model)

    def build(self, rec: Record, seed: int, workdir: Path, probe: Tracer | None) -> dict:
        """Write the spec and a seeded checkpoint, then `motionprim synth`."""
        workdir.mkdir(parents=True, exist_ok=True)
        spec = bench_spec(seed, self.windows_per_class)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(spec)))
        generated = rec.op(model.init_model, self.config(), seed=seed)
        ckpt = workdir / "generated.ckpt"
        rec.op(training.save_checkpoint, ckpt, generated, {"stage": "generated", "seed": seed})
        t_synth = time.perf_counter()
        code = rec.op(cli.main, ["synth", str(spec_path), str(workdir / "data")])
        synth_s = time.perf_counter() - t_synth
        rec.check("synth exits 0", code == 0, f"exit {code}")
        rows = spec.windows_per_class * len(spec.classes) * spec.window_len
        rec.add("synth_rows_per_s", rows / synth_s)
        rec.checkpoints["generated"] = sha256_file(ckpt)
        return {
            "spec": spec,
            "checkpoint": ckpt,
            "generated": generated,
            "manifest": workdir / "data" / "manifest.json",
            "out": workdir / "out",
        }

    def _cli(self, rec: Record, state: dict, command: str, run_id: str, timed: bool) -> tuple[float, Tracer]:
        """Run one CLI command in process; returns its wall time and the
        probe that timed its stages (an empty probe when not timed)."""
        probe = Tracer(set(CLI_STAGES) if timed else set())
        argv = [
            command,
            str(state["checkpoint"]),
            str(state["manifest"]),
            "--set", f"out_dir={state['out']}",
            "--set", f"run_id={run_id}",
            "--set", "workers=1",
        ]
        t0 = time.perf_counter()
        with probe:
            code = rec.op(cli.main, argv)
        elapsed = time.perf_counter() - t0
        rec.check(f"{command} exits 0", code == 0, f"exit {code}")
        return elapsed, probe

    def infer(self, rec: Record, state: dict, timed: bool = True) -> None:
        """`motionprim evaluate` then `motionprim analyze` on the written data.
        When timed, a probe on the CLI's own bindings splits each command
        into set-up (checkpoint, manifest and CSV load, prepare_windows) and
        the rest."""
        _, eval_probe = self._cli(rec, state, "evaluate", "eval", timed)
        analyze_s, analyze_probe = self._cli(rec, state, "analyze", "analyze", timed)
        metrics = json.loads((state["out"] / "eval_metrics.json").read_text())
        windows = metrics["num_windows"]
        if timed:
            def busy(probe: Tracer, names) -> float:
                return sum(end - start for name in names for start, end in probe.intervals(name))

            setup = [busy(p, CLI_STAGES[:4]) for p in (eval_probe, analyze_probe)]
            rec.add("setup_s", sum(setup))
            rec.add("eval_windows_per_s", windows / busy(eval_probe, CLI_STAGES[4:]))
            rec.add("analyze_windows_per_s", windows / (analyze_s - setup[1]))
        first = rec.outputs.setdefault("eval_metrics", metrics)
        rec.check("evaluate repeats exactly", metrics == first)
        reports = {
            name: sha256_file(state["out"] / f"analyze_{name}.csv")
            for name in ("similarity", "frequency", "transitions")
        }
        first_reports = rec.outputs.setdefault("report_sha256", reports)
        rec.check("analyze repeats exactly", reports == first_reports)

    def final_checks(self, rec: Record, state: dict, seed: int) -> None:
        config = self.config()
        spec = state["spec"]
        generated = state["generated"]
        memory = ingest.generate_synthetic(spec)
        loaded = ingest.load_dataset(ingest.load_manifest(state["manifest"])).windows
        same_windows = len(memory) == len(loaded) and all(
            a.label == b.label
            and a.samples.tobytes() == b.samples.tobytes()
            and [vars(c) for c in a.channels] == [vars(c) for c in b.channels]
            for a, b in zip(memory, loaded)
        )
        rec.check("CSV windows bit-identical to generate_synthetic", same_windows)

        batch = model.prepare_windows(memory, config, _provider(config), source="memory")
        in_process = training.evaluate(generated, batch, workers=1).to_dict()
        rec.check("CLI metrics equal in-process evaluate", in_process == rec.outputs["eval_metrics"])

        out, run_id = state["out"], "analyze"
        indices = training.tokenize_dataset(generated, batch)
        K = config.codebook_size
        counts = np.bincount(indices.reshape(-1), minlength=K)
        observed = np.flatnonzero(counts)
        order = observed[np.lexsort((observed, -counts[observed]))]
        ids = np.sort(order[:64])
        sim = analysis.similarity(ids, generated)
        got = analysis.read_similarity_csv(out / f"{run_id}_similarity.csv")
        rec.check(
            "similarity CSV equals in-memory report",
            np.array_equal(got.token_ids, sim.token_ids) and np.array_equal(got.values, sim.values, equal_nan=True),
        )
        streams = analysis.token_streams(indices, batch.labels)
        freq = analysis.frequency(streams, top_n=32, num_classes=config.num_classes, codebook_size=K)
        got = analysis.read_frequency_csv(out / f"{run_id}_frequency.csv")
        rec.check(
            "frequency CSV equals in-memory report",
            np.array_equal(got.indices, freq.indices)
            and np.array_equal(got.counts, freq.counts)
            and np.array_equal(got.fractions, freq.fractions),
        )
        trans = analysis.transitions([tokens for tokens, _ in streams], K)
        got = analysis.read_transitions_csv(out / f"{run_id}_transitions.csv")
        rec.check(
            "transitions CSV equals in-memory report",
            np.array_equal(got.probabilities, trans.probabilities)
            and np.array_equal(got.row_counts, trans.row_counts)
            and np.array_equal(got.observed, trans.observed),
        )
        check_quantizer_sample(rec, generated, batch, seed, "csv")


WORKLOADS = {
    "train-small": TrainWorkload(
        name="train-small",
        model=SMALL_MODEL,
        windows_per_class=100,
        held_windows_per_class=100,
        # Half the acceptance bench's data. Pretrain micro/batch 50 rather
        # than 100 keeps its 8 optimizer steps per epoch, which the accuracy
        # gate needs (at 100, seed 2 reached only 0.745). Finetune takes 50
        # steps of 16 windows; 20 epochs at 32 took 60 steps at twice the
        # cost, with the same accuracy on seeds 0-9.
        pretrain_opt=dict(learning_rate=1e-3, weight_decay=1e-5, batch_size=50, micro_batch=50, epochs=12),
        finetune_opt=dict(learning_rate=1e-3, weight_decay=1e-5, batch_size=16, micro_batch=16, epochs=10),
        split_fraction=0.2,
        min_accuracy=0.95,
    ),
    "ingest-infer": IngestWorkload(
        name="ingest-infer",
        model=SMALL_MODEL,
        windows_per_class=250,
    ),
}
