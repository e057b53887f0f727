"""Training machinery: AdamW, freeze policies, the two-stage protocol
(pretrain then fine-tune), evaluation metrics, structured logs, and
checkpoint i/o.

Determinism contract: given the same config, seed, and data order, every
code path here is bit-reproducible at any `workers` count and on any number
of CPUs. Threads run read-only evaluation passes (`workers`); within any
pass, the encoder splits its windows into shards and the quantizer deals
its scan's blocks, over one thread pool with a thread per further CPU (see
motionprim.encoder and motionprim.quantizer). None of these changes a bit.

Memory: `run_training` holds one micro-batch's encoder cache at a time, in
the buffer of one `encoder.Workspace` (see there).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _parallel
from .encoder import Workspace, _scatter_add
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .model import (
    FINETUNE_WEIGHTS,
    PARAM_GROUPS,
    PRETRAIN_WEIGHTS,
    LossWeights,
    Model,
    ModelConfig,
    PreparedBatch,
    backward,
    forward,
    init_model,
    mask_positions_for,
    param_group,
    reinit_cls_head,
)
from .quantizer import _nearest_indices, init_codebook, usage_report
from .schema import check_fields, from_dict
from .tensorfile import load_tensors, publish, save_tensors

logger = logging.getLogger("motionprim")

CHECKPOINT_KIND = "checkpoint"
MAX_KMEANS_SAMPLE = 16384
SPLIT_FRACTION = 0.2  # fine-tuning's default share of each class's windows to train on


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 512
    micro_batch: int = 128
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 10

    def __post_init__(self) -> None:
        check_fields(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.micro_batch < 1:
            raise ConfigError("batch sizes must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must be in [0, 1)")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


class AdamW:
    """Decoupled weight decay with bias-corrected moments. State exists only
    for trainable tensors, so frozen tensors cannot drift."""

    def __init__(self, config: OptimizerConfig, trainable: set[str]):
        self.config = config
        self.trainable = set(trainable)
        self.step_count = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name in sorted(self.trainable):  # the same name in every process
            if not np.all(np.isfinite(grads[name])):
                raise NumericError(f"non-finite gradient for {name}; step aborted")
        self.step_count += 1
        c = self.config
        t = self.step_count
        bias1 = 1.0 - c.beta1**t
        bias2 = 1.0 - c.beta2**t
        for name in sorted(self.trainable):
            g = grads[name]
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(g), np.zeros_like(g))
            m, v = self.moments[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + c.eps)
            params[name] -= c.learning_rate * (update + c.weight_decay * params[name])


# ---------------------------------------------------------------------------
# Freeze policies


@dataclass(frozen=True)
class FreezePolicy:
    """The parameter groups (entries of model.PARAM_GROUPS) a stage trains;
    every other group stays frozen."""

    name: str
    groups: frozenset[str]

    def __post_init__(self) -> None:
        unknown = set(self.groups) - set(PARAM_GROUPS)
        if unknown:
            raise ConfigError(
                f"freeze policy {self.name!r} names unknown groups {sorted(unknown)}; known: {list(PARAM_GROUPS)}"
            )

    def trainable_names(self, names: list[str]) -> set[str]:
        out = {n for n in names if param_group(n) in self.groups}
        if not out:
            raise ConfigError(f"freeze policy {self.name!r} leaves nothing trainable")
        return out


# pretraining's fixed policy, then the fine-tune policies, which both train cls_head
PRETRAIN_POLICY = FreezePolicy("pretrain-all", frozenset(PARAM_GROUPS) - {"cls_head"})
LINEAR_PROBE = FreezePolicy("linear-probe", frozenset({"cls_head"}))
ENCODER_FINETUNE = FreezePolicy("encoder-finetune", frozenset({"enc", "cls_head"}))

_POLICIES = {p.name: p for p in (LINEAR_PROBE, ENCODER_FINETUNE)}


def check_head_loss(policy: FreezePolicy, weights: LossWeights) -> None:
    """ConfigError unless lambda_cls > 0 exactly when `policy` trains the
    classification head: a frozen head under a classification loss pulls
    the encoder toward a random head, and a trainable one without that loss
    gets no gradient."""
    trains_head = "cls_head" in policy.groups
    if weights.lambda_cls > 0 and not trains_head:
        raise ConfigError(
            f"policy {policy.name!r} freezes the classification head, so lambda_cls must be 0; "
            f"the policies that train it: {sorted(_POLICIES)}"
        )
    if weights.lambda_cls == 0 and trains_head:
        raise ConfigError(f"policy {policy.name!r} trains the classification head, so lambda_cls must be > 0")


def policy_by_name(name: str) -> FreezePolicy:
    """The fine-tune freeze policy called `name`."""
    if name not in _POLICIES:
        raise ConfigError(f"unknown fine-tune freeze policy {name!r}; known: {sorted(_POLICIES)}")
    return _POLICIES[name]


# ---------------------------------------------------------------------------
# Training loop


def _epoch_plan(
    datasets: list[PreparedBatch], epoch: int, run_seed: int, micro: int, batch_size: int
) -> list[list[tuple[int, np.ndarray]]]:
    """One epoch's optimizer steps, each a list of (dataset, window ids)
    micro-batches: seeded per-epoch shuffles, chopped and round-robin
    interleaved so a step mixes datasets, then grouped into steps that each
    close at the first micro-batch that brings them to `batch_size` windows."""
    per_dataset = []
    for di, ds in enumerate(datasets):
        rng = np.random.default_rng(np.random.SeedSequence([run_seed, epoch, di, 7]))
        order = rng.permutation(ds.size)
        per_dataset.append([(di, order[i : i + micro]) for i in range(0, ds.size, micro)])
    steps: list[list[tuple[int, np.ndarray]]] = [[]]
    held = 0
    for round_ in itertools.zip_longest(*per_dataset):
        for chunk in filter(None, round_):
            steps[-1].append(chunk)
            held += chunk[1].size
            if held >= batch_size:
                steps.append([])
                held = 0
    return [step for step in steps if step]


def run_training(
    model: Model,
    datasets: list[PreparedBatch],
    weights: LossWeights,
    opt_config: OptimizerConfig,
    policy: FreezePolicy,
    run_seed: int,
    stage: str,
) -> list[dict]:
    """Epoch loop with gradient accumulation up to the effective batch size.

    Masking is active exactly when the MAE objective is (lambda_mae > 0 and
    the model's mask ratio > 0); classification requires labeled batches.
    Returns the per-epoch log records. Every pass caches into one
    Workspace, which lives as long as this call (see the module docstring).
    """
    if not datasets:
        raise DataError("no datasets to train on")
    records: list[dict] = []
    optimizer = AdamW(opt_config, policy.trainable_names(list(model.params)))
    masking = weights.lambda_mae > 0 and model.config.mask_ratio > 0
    if weights.lambda_cls > 0 and any(ds.labels is None for ds in datasets):
        raise DataError("classification objective needs labeled windows")

    K = model.config.codebook_size
    # every dataset numbers its windows from 0; offsetting the ids by the
    # sizes of the datasets before it gives each window its own mask plan
    id_offsets = np.cumsum([0] + [ds.size for ds in datasets[:-1]])
    workspace = Workspace()
    for epoch in range(opt_config.epochs):
        plan = _epoch_plan(datasets, epoch, run_seed, opt_config.micro_batch, opt_config.batch_size)
        epoch_hist = np.zeros(K, dtype=np.int64)
        sums = {"total": 0.0, "mae": 0.0, "cls": 0.0, "vq": 0.0, "masked": 0.0}
        windows_seen = 0
        for step in plan:
            total = sum(idx.size for _, idx in step)
            accum = {name: np.zeros_like(model.params[name]) for name in optimizer.trainable}
            for di, idx in step:
                micro = datasets[di].subset(idx)
                mask_pos = None
                if masking:
                    mask_pos = mask_positions_for(
                        model.layout_for(micro.num_channels, micro.segments_per_channel),
                        model.config.mask_ratio,
                        run_seed,
                        epoch,
                        micro.window_ids + id_offsets[di],
                    )
                result = forward(model, micro, weights, mask_positions=mask_pos, workspace=workspace)
                grads = backward(result, optimizer.trainable)
                scale = micro.size / total
                for name in accum:
                    accum[name] += scale * grads[name]
                windows_seen += micro.size
                epoch_hist += np.bincount(result.indices.reshape(-1), minlength=K)
                sums["total"] += result.loss * micro.size
                sums["mae"] += result.mae_loss * micro.size
                sums["cls"] += result.cls_loss * micro.size
                sums["vq"] += result.vq_loss * micro.size
                sums["masked"] += result.masked_fraction * micro.size
                # the result holds the encoder cache: dropped before the next
                # forward claims the workspace
                del grads, result
            optimizer.step(model.params, accum)

        active_codes, perplexity = usage_report(epoch_hist)
        record = {
            "stage": stage,
            "epoch": epoch,
            "total_loss": sums["total"] / windows_seen,
            "mae_loss": sums["mae"] / windows_seen,
            "cls_loss": sums["cls"] / windows_seen,
            "vq_loss": sums["vq"] / windows_seen,
            "perplexity": perplexity,
            "masked_fraction": sums["masked"] / windows_seen,
            "windows": windows_seen,
            "steps": len(plan),
            "active_codes": active_codes,
        }
        records.append(record)
        logger.info(
            "%s epoch %d: total %.6f mae %.6f cls %.6f vq %.6f perplexity %.2f",
            stage, epoch, record["total_loss"], record["mae_loss"],
            record["cls_loss"], record["vq_loss"], perplexity,
        )
    return records


def tokenize_dataset(model: Model, batch: PreparedBatch) -> np.ndarray:
    """(B, C, S) assignment of every segment under the current prototypes:
    the quantizer's ranking alone, since no caller reads the distances."""
    B, C, S, L = batch.norm_segments.shape
    indices = _nearest_indices(batch.norm_segments.reshape(-1, L), model.params["codebook"])
    return indices.reshape(B, C, S)


def refresh_usage(model: Model, datasets: list[PreparedBatch]) -> None:
    """Deterministic usage pass: reset counts, then tally one assignment per
    segment over every dataset in order."""
    model.usage_counts[:] = 0
    for ds in datasets:
        indices = tokenize_dataset(model, ds).reshape(-1)
        model.usage_counts += np.bincount(indices, minlength=model.config.codebook_size)


# ---------------------------------------------------------------------------
# Stages


def copy_model(model: Model) -> Model:
    return Model(
        model.config,
        {name: tensor.copy() for name, tensor in model.params.items()},
        model.usage_counts.copy(),
    )


def pretrain(
    config: ModelConfig,
    datasets: list[PreparedBatch],
    opt_config: OptimizerConfig,
    run_seed: int = 0,
    weights: LossWeights = PRETRAIN_WEIGHTS,
) -> tuple[Model, list[dict]]:
    """Stage 1: joint optimization of codebook, embeddings, encoder, and
    the masked-reconstruction head over one or more datasets. Ends with a
    deterministic usage pass so the checkpoint carries real usage counts.
    `weights` with lambda_cls > 0 raise ConfigError before any work: the
    stage's policy freezes the classification head."""
    check_head_loss(PRETRAIN_POLICY, weights)
    if not datasets:
        raise DataError("pretraining needs at least one dataset")
    sample = np.concatenate([ds.norm_segments.reshape(-1, config.segment_len) for ds in datasets])
    if sample.shape[0] > MAX_KMEANS_SAMPLE:
        rng = np.random.default_rng(np.random.SeedSequence([run_seed, 3]))
        sample = sample[rng.choice(sample.shape[0], MAX_KMEANS_SAMPLE, replace=False)]
    seed = int(np.random.SeedSequence([run_seed, 4]).generate_state(1)[0])
    codebook = init_codebook(sample, config.codebook_size, seed)
    model = init_model(config, seed=run_seed, codebook=codebook)
    records = run_training(model, datasets, weights, opt_config, PRETRAIN_POLICY, run_seed, stage="pretrain")
    refresh_usage(model, datasets)
    return model, records


def stratified_split(labels: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: round(fraction * n_c) training windows per class
    (at least one), rest held out. Deterministic given the seed."""
    if not (0 < fraction < 1):
        raise ConfigError("split fraction must be in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    train_ids = []
    eval_ids = []
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        order = rng.permutation(ids.size)
        n_train = max(1, int(np.floor(fraction * ids.size + 0.5)))
        if n_train >= ids.size:
            raise DataError(f"class {c}: split leaves no held-out windows")
        train_ids.append(ids[order[:n_train]])
        eval_ids.append(ids[order[n_train:]])
    return np.sort(np.concatenate(train_ids)), np.sort(np.concatenate(eval_ids))


@dataclass
class EvalMetrics:
    accuracy: float
    macro_f1: float
    confusion: np.ndarray  # (num_classes, num_classes), rows = truth
    excluded_classes: list[int]
    num_windows: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion.tolist(),
            "excluded_classes": self.excluded_classes,
            "num_windows": self.num_windows,
        }


def metrics_from_confusion(confusion: np.ndarray) -> EvalMetrics:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = int(confusion.sum())
    if total == 0:
        raise DataError("empty confusion matrix")
    correct = int(np.trace(confusion))
    truth_counts = confusion.sum(axis=1)
    pred_counts = confusion.sum(axis=0)
    f1s = []
    excluded = []
    for c in range(confusion.shape[0]):
        if truth_counts[c] == 0 and pred_counts[c] == 0:
            excluded.append(c)  # class absent on both sides: F1 undefined
            continue
        tp = confusion[c, c]
        denom = truth_counts[c] + pred_counts[c]
        f1s.append(2.0 * tp / denom if denom else 0.0)
    if excluded:
        logger.info("macro-F1 excludes classes with no support: %s", excluded)
    return EvalMetrics(
        accuracy=correct / total,
        macro_f1=float(np.mean(f1s)),
        confusion=confusion,
        excluded_classes=excluded,
        num_windows=total,
    )


def evaluate(model: Model, batch: PreparedBatch, workers: int = 1) -> EvalMetrics:
    """Accuracy / macro-F1 / confusion on a labeled batch, without masking.

    The windows go through one forward-only `model.forward` pass per part,
    min(`workers`, CPUs, windows) contiguous slices of the batch, the first
    on the calling thread and each other on a thread of its own. Each pass's
    encoder runs FORWARD_CHUNK windows at a time, which keeps its largest
    array, the attention weights, small enough to stay in cache, and splits
    them into shards that run on every CPU (see motionprim.encoder), so one
    part already keeps them all busy. Only the [CLS] row is read, so the
    encoder's last block computes its query side at row 0 alone (see
    `model.forward`).
    """
    if workers < 1:
        raise ConfigError(f"evaluate workers must be >= 1, got {workers}")
    if batch.labels is None:
        raise DataError("evaluation needs labeled windows")
    if batch.size == 0:
        raise DataError("evaluation on an empty dataset")
    n = min(workers, _parallel.cpus(), batch.size)
    parts = [slice(batch.size * p // n, batch.size * (p + 1) // n) for p in range(n)]

    def run(part: slice) -> np.ndarray:
        return forward(model, batch.subset(part), FINETUNE_WEIGHTS, need_backward=False).predictions

    with ThreadPoolExecutor(max_workers=max(1, n - 1)) as pool:  # it starts a thread per part submitted
        rest = pool.map(run, parts[1:])
        predictions = np.concatenate([run(parts[0]), *rest])
    ncls = model.config.num_classes
    return metrics_from_confusion(_scatter_add((ncls, ncls), batch.labels, predictions))


@dataclass
class FinetuneResult:
    model: Model
    metrics: EvalMetrics
    records: list[dict]
    train_indices: np.ndarray
    eval_indices: np.ndarray


def finetune(
    pretrained: Model,
    batch: PreparedBatch,
    opt_config: OptimizerConfig,
    policy: FreezePolicy = ENCODER_FINETUNE,
    split_fraction: float = SPLIT_FRACTION,
    run_seed: int = 0,
    weights: LossWeights = FINETUNE_WEIGHTS,
    num_classes: int | None = None,
) -> FinetuneResult:
    """Stage 2: split the labeled dataset, train under the freeze policy,
    evaluate on the held-out windows. The head takes `num_classes` classes,
    the dataset's (None: as many as the pretrained head); a label outside
    the head raises DataError. A policy or loss weights that leave the head
    untrained raise ConfigError. The input model is left untouched."""
    check_head_loss(policy, weights)
    if weights.lambda_cls == 0:
        raise ConfigError(f"fine-tuning needs a policy that trains the classification head: {sorted(_POLICIES)}")
    if batch.labels is None:
        raise DataError("fine-tuning needs labeled windows")
    model = copy_model(pretrained)
    wanted = model.config.num_classes if num_classes is None else num_classes
    if wanted != model.config.num_classes:
        logger.info(
            "class count %d != checkpoint head %d: re-initializing the classification head",
            wanted, model.config.num_classes,
        )
        model = reinit_cls_head(model, wanted, seed=run_seed)
    train_idx, eval_idx = stratified_split(batch.labels, split_fraction, run_seed)
    train_batch = batch.subset(train_idx)
    records = run_training(
        model, [train_batch], weights, opt_config, policy, run_seed, stage="finetune"
    )
    metrics = evaluate(model, batch.subset(eval_idx))
    return FinetuneResult(model, metrics, records, train_idx, eval_idx)


# ---------------------------------------------------------------------------
# Checkpoints and logs


def save_checkpoint(path: str | Path, model: Model, extra_meta: dict | None = None) -> None:
    meta = {"config": asdict(model.config)}
    if extra_meta:
        overlap = set(extra_meta) & {"config"}
        if overlap:
            raise CheckpointError(f"extra metadata may not override {sorted(overlap)}")
        meta.update(extra_meta)
    tensors = dict(model.params)
    tensors["usage_counts"] = model.usage_counts
    save_tensors(path, CHECKPOINT_KIND, meta, tensors)


def load_checkpoint(path: str | Path) -> tuple[Model, dict]:
    """Read a checkpoint; tensors whose names or shapes disagree with its
    config echo raise CheckpointError."""
    meta, tensors = load_tensors(path, expected_kind=CHECKPOINT_KIND)
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: checkpoint missing config echo")
    config = from_dict(ModelConfig, meta["config"], f"{path}: config")
    usage = tensors.pop("usage_counts", None)
    try:
        return Model(config, tensors, usage), meta
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def checkpoint_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_log(path: str | Path, records: list[dict]) -> None:
    """Line-delimited JSON; floats keep full repr precision."""
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    publish(path, lambda fh: fh.write(text.encode()))

