"""End-to-end model: tokenization, context embedding, encoder, and heads,
composed into one batched forward/backward with a flat parameter dictionary.

Parameters live in a dict[str, ndarray] so the optimizer, freeze policies,
checkpointing, and finite-difference checks can treat every tensor uniformly.
The quantization argmin is recomputed from the current prototypes on every
forward pass; gradient checks can pin assignments to keep the loss smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .embedder import SequenceLayout, build_layout, embed_batch, mask_count
from .encoder import encoder_backward, encoder_forward, grad_check
from .errors import ConfigError, DataError, NumericError
from .ingest import ChannelMetadata, SensorWindow, normalize_matrix, segment_matrix
from .metadata import canonical_descriptor, embed_channels
from .quantizer import nearest_prototypes, init_codebook
from .schema import check_fields

# Every parameter tensor is named `<group>.<rest>`, or just `<group>` for the
# codebook. The group picks the tensor's init stream (one generator per group,
# spawned in this order) and its freeze group.
PARAM_GROUPS = ("embed", "stat", "adapter", "pos", "enc", "mae", "cls_head", "codebook")
# std of every normally initialized tensor: those whose names end in _NORMAL_INIT
INIT_STD = 0.02
_NORMAL_INIT = (".rows", ".cls_vector", ".weight", ".wq", ".wk", ".wv", ".wo", ".w1", ".w2")


@dataclass
class ModelConfig:
    codebook_size: int = 1024
    segment_len: int = 50
    model_dim: int = 256
    meta_dim: int = 768
    depth: int = 5
    heads: int = 8
    mlp_ratio: float = 1.0
    segments_per_channel: int = 10
    mask_ratio: float = 0.25
    beta: float = 0.25
    num_classes: int = 2

    def __post_init__(self) -> None:
        check_fields(self)
        if self.codebook_size < 2:
            raise ConfigError("codebook_size must be >= 2")
        if self.segment_len < 1:
            raise ConfigError("segment_len must be >= 1")
        if self.segments_per_channel < 1:
            raise ConfigError("segments_per_channel must be >= 1")
        if not (0 <= self.mask_ratio < 1):
            raise ConfigError("mask_ratio must be in [0, 1)")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        if self.heads < 1 or self.model_dim % self.heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} must be divisible by heads {self.heads}")
        if self.mlp_hidden < 1:
            raise ConfigError("mlp_ratio too small: hidden dim would be < 1")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.model_dim))


@dataclass
class LossWeights:
    lambda_mae: float = 1.0
    lambda_cls: float = 0.0
    lambda_vq: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if min(self.lambda_mae, self.lambda_cls, self.lambda_vq) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.lambda_mae == self.lambda_cls == self.lambda_vq == 0:
            raise ConfigError("at least one loss weight must be positive")


PRETRAIN_WEIGHTS = LossWeights(1.0, 0.0, 1.0)
FINETUNE_WEIGHTS = LossWeights(0.0, 1.0, 0.0)


class Model:
    """Flat-parameter model. `params` maps tensor names to fp64 arrays;
    `usage_counts` tracks quantizer usage outside the trainable set."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray], usage_counts: np.ndarray | None = None):
        self.config = config
        self.params = params
        if usage_counts is None:
            usage_counts = np.zeros(config.codebook_size, dtype=np.int64)
        self.usage_counts = np.asarray(usage_counts, dtype=np.int64)
        shapes = param_shapes(config)
        if set(shapes) != set(params):
            raise DataError(
                f"parameter set mismatch: missing {sorted(set(shapes) - set(params))}, "
                f"unexpected {sorted(set(params) - set(shapes))}"
            )
        for name, shape in shapes.items():
            if np.shape(params[name]) != shape:
                raise DataError(
                    f"parameter {name!r} has shape {np.shape(params[name])}, config needs {shape}"
                )
        if self.usage_counts.shape != (config.codebook_size,):
            raise DataError(
                f"usage_counts has shape {self.usage_counts.shape}, config needs ({config.codebook_size},)"
            )

    def layout_for(self, num_channels: int, segments: int) -> SequenceLayout:
        return build_layout(num_channels, segments, self.params["pos.rows"].shape[0])


def param_group(name: str) -> str:
    """The PARAM_GROUPS entry a tensor name belongs to: its first component."""
    return name.split(".", 1)[0]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor a config defines, in
    checkpoint order: the only list of the model's tensors."""
    K, D, H = config.codebook_size, config.model_dim, config.mlp_hidden
    shapes = {
        "embed.rows": (K + 3, D),
        "embed.cls_vector": (D,),
        "stat.weight": (D, 2),
        "stat.bias": (D,),
        "adapter.weight": (D, config.meta_dim),
        "adapter.bias": (D,),
        "pos.rows": (config.segments_per_channel + 3, D),
        "mae.weight": (K, D),
        "mae.bias": (K,),
        "cls_head.weight": (config.num_classes, D),
        "cls_head.bias": (config.num_classes,),
        "codebook": (K, config.segment_len),
    }
    layer = {
        "ln1.gamma": (D,), "ln1.beta": (D,),
        "attn.wq": (D, D), "attn.bq": (D,), "attn.wk": (D, D), "attn.bk": (D,),
        "attn.wv": (D, D), "attn.bv": (D,), "attn.wo": (D, D), "attn.bo": (D,),
        "ln2.gamma": (D,), "ln2.beta": (D,),
        "mlp.w1": (D, H), "mlp.b1": (H,), "mlp.w2": (H, D), "mlp.b2": (D,),
    }
    for i in range(config.depth):
        shapes.update({f"enc.{i}.{key}": shape for key, shape in layer.items()})
    return shapes


def _group_shapes(config: ModelConfig, group: str) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape in param_shapes(config).items() if param_group(name) == group}


def _init_tensors(
    shapes: dict[str, tuple[int, ...]], rngs: dict[str, np.random.Generator]
) -> dict[str, np.ndarray]:
    """Fresh tensors in `shapes` order: N(0, INIT_STD^2) draws from the
    group's generator for names ending in _NORMAL_INIT, ones for `*.gamma`,
    zeros for the rest."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith(_NORMAL_INIT):
            params[name] = rngs[param_group(name)].normal(0.0, INIT_STD, size=shape)
        elif name.endswith(".gamma"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return params


def encoder_layers(params: dict[str, np.ndarray], depth: int) -> list[dict[str, np.ndarray]]:
    """The `enc.<i>.<key>` tensors of `params` as `depth` per-layer
    {key: tensor} dicts, the form the encoder takes; other names are skipped."""
    layers: list[dict[str, np.ndarray]] = [{} for _ in range(depth)]
    for name, tensor in params.items():
        if param_group(name) == "enc":
            _, i, key = name.split(".", 2)
            layers[int(i)][key] = tensor
    return layers


def init_model(config: ModelConfig, seed: int = 0, codebook: np.ndarray | None = None) -> Model:
    """Deterministic init from one generator per PARAM_GROUPS entry, spawned
    from the run seed. A pre-trained (K, L) codebook (e.g. kmeans-seeded) can
    be passed in; otherwise the codebook group's generator draws one."""
    K, L = config.codebook_size, config.segment_len
    if codebook is not None and codebook.shape != (K, L):
        raise ConfigError(f"codebook shape {codebook.shape} does not match config ({K}, {L})")
    state = np.random.SeedSequence(seed).generate_state(len(PARAM_GROUPS))
    rngs = {group: np.random.default_rng(int(s)) for group, s in zip(PARAM_GROUPS, state)}
    params = _init_tensors(param_shapes(config), rngs)
    if codebook is None:
        codebook = init_codebook(K, L, "random-normal", seed=rngs["codebook"])
    params["codebook"] = np.array(codebook, dtype=np.float64)
    return Model(config, params)


def reinit_cls_head(model: Model, num_classes: int, seed: int = 0) -> Model:
    """Fresh classification head (used when fine-tuning onto a dataset with
    a different class count); everything else is shared by reference."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]).generate_state(1)[0])
    config = replace(model.config, num_classes=num_classes)
    head = _init_tensors(_group_shapes(config, "cls_head"), {"cls_head": rng})
    return Model(config, {**model.params, **head}, model.usage_counts)


# ---------------------------------------------------------------------------
# Dataset preparation


@dataclass
class PreparedBatch:
    """Windows of one dataset, segmented and normalized once. Quantization
    is deliberately NOT baked in: indices depend on the live codebook."""

    norm_segments: np.ndarray  # (B, C, S, L)
    stats: np.ndarray  # (B, C, S, 2) raw mean/variance
    labels: np.ndarray | None  # (B,) int64
    meta: np.ndarray  # (C, N) metadata vectors
    window_ids: np.ndarray  # (B,) stable ids for mask seeding
    channels: list[ChannelMetadata]
    source: str = ""

    @property
    def size(self) -> int:
        return self.norm_segments.shape[0]

    @property
    def num_channels(self) -> int:
        return self.norm_segments.shape[1]

    @property
    def segments_per_channel(self) -> int:
        return self.norm_segments.shape[2]

    def subset(self, idx: np.ndarray) -> "PreparedBatch":
        return PreparedBatch(
            self.norm_segments[idx],
            self.stats[idx],
            None if self.labels is None else self.labels[idx],
            self.meta,
            self.window_ids[idx],
            self.channels,
            self.source,
        )


def prepare_windows(
    windows: list[SensorWindow],
    config: ModelConfig,
    provider,
    source: str = "",
) -> PreparedBatch:
    """Segment + normalize every window and embed the channel metadata.

    All windows must share the same channel set and window length; labeled
    and unlabeled windows cannot be mixed.
    """
    if not windows:
        raise DataError("cannot prepare an empty window list")
    first = windows[0]
    descriptors = [canonical_descriptor(m) for m in first.channels]
    for w in windows:
        if w.window_len != first.window_len:
            raise DataError("windows of mixed length in one dataset")
        if [canonical_descriptor(m) for m in w.channels] != descriptors:
            raise DataError("windows with mixed channel metadata in one dataset")
    segments, stats = segment_matrix(np.stack([w.samples for w in windows]), config.segment_len)
    S = segments.shape[2]
    if S > config.segments_per_channel:
        raise ConfigError(
            f"{S} segments per channel exceeds the model's position capacity "
            f"({config.segments_per_channel})"
        )
    normalized = normalize_matrix(segments)

    labeled = [w.label is not None for w in windows]
    if any(labeled) and not all(labeled):
        raise DataError("dataset mixes labeled and unlabeled windows")
    labels = np.array([w.label for w in windows], dtype=np.int64) if all(labeled) else None

    meta_vectors = np.stack([v.values for v in embed_channels(first.channels, provider)])
    if meta_vectors.shape[1] != config.meta_dim:
        raise ConfigError(
            f"metadata provider dim {meta_vectors.shape[1]} does not match config meta_dim {config.meta_dim}"
        )
    return PreparedBatch(
        normalized,
        stats,
        labels,
        meta_vectors,
        np.arange(len(windows), dtype=np.int64),
        list(first.channels),
        source=source,
    )


# ---------------------------------------------------------------------------
# Masking


def mask_positions_for(
    layout: SequenceLayout,
    ratio: float,
    run_seed: int,
    epoch: int,
    window_ids: np.ndarray,
) -> np.ndarray | None:
    """Per-window masked sequence positions, shape (B, m). Seeding is
    per (run, epoch, window) so plans are reproducible and independent."""
    motion_pos = layout.motion_positions
    m = mask_count(motion_pos.size, ratio)
    if m == 0:
        return None
    out = np.empty((window_ids.size, m), dtype=np.int64)
    for row, wid in enumerate(window_ids):
        rng = np.random.default_rng(np.random.SeedSequence([run_seed, epoch, int(wid)]))
        out[row] = np.sort(rng.choice(motion_pos, size=m, replace=False))
    return out


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardResult:
    loss: float
    mae_loss: float
    cls_loss: float
    vq_loss: float
    indices: np.ndarray  # (B, C, S) assignment per segment
    mask_positions: np.ndarray | None  # (B, m)
    mask_targets: np.ndarray | None  # (B, m)
    cls_probs: np.ndarray | None
    hidden: np.ndarray
    masked_fraction: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def predictions(self) -> np.ndarray:
        if self.cls_probs is None:
            raise DataError("no classification pass was run (no labels)")
        return np.argmax(self.cls_probs, axis=1)


def _xent(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy and softmax probabilities."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    return np.log(z[:, 0]) - shifted[np.arange(len(targets)), targets], e / z


def forward(
    model: Model,
    batch: PreparedBatch,
    weights: LossWeights,
    mask_positions: np.ndarray | None = None,
    fixed_indices: np.ndarray | None = None,
    frozen_prototypes: np.ndarray | None = None,
    need_backward: bool = True,
) -> ForwardResult:
    """One batched pass over a homogeneous window batch.

    mask_positions (B, m) selects motion tokens replaced by [MASK]; None
    disables masked modeling. fixed_indices pins the quantizer assignment
    (for gradient checks); frozen_prototypes is the stop-gradient copy used
    by the commitment term's second half, defaulting to the live prototypes.
    need_backward=False keeps no backward cache, the encoder's per-layer one
    included, so `backward` refuses the result; the encoder then runs in
    slices of FORWARD_CHUNK windows, while the quantizer scan, the embedding,
    the heads and the loss reductions still run once over the whole batch.
    """
    cfg = model.config
    B, C, S, L = batch.norm_segments.shape
    if L != cfg.segment_len:
        raise DataError(f"batch segment length {L} does not match model ({cfg.segment_len})")
    prototypes = model.params["codebook"]

    flat_segments = batch.norm_segments.reshape(B * C * S, L)
    if fixed_indices is None:
        indices_flat, dist_first = nearest_prototypes(flat_segments, prototypes)
    else:
        indices_flat = np.asarray(fixed_indices, dtype=np.int64).reshape(B * C * S)
        diff = flat_segments - prototypes[indices_flat]
        dist_first = np.sum(diff * diff, axis=1)
    z0 = prototypes if frozen_prototypes is None else frozen_prototypes
    diff_second = flat_segments - z0[indices_flat]
    vq_value = float(dist_first.mean() + cfg.beta * np.sum(diff_second * diff_second, axis=1).mean())

    layout = model.layout_for(C, S)
    if mask_positions is not None:
        mask_positions = np.asarray(mask_positions, dtype=np.int64)
    x, rows, mask_targets = embed_batch(
        model.params, layout, indices_flat.reshape(B, C, S), batch.stats, batch.meta, mask_positions
    )

    hidden, enc_cache = encoder_forward(x, encoder_layers(model.params, cfg.depth), cfg.heads, need_backward)

    mae_value = 0.0
    mae_probs = None
    flat_mask_rows = flat_mask_pos = flat_targets = None
    if mask_positions is not None and mask_positions.size > 0:
        flat_mask_rows = np.repeat(np.arange(B), mask_positions.shape[1])
        flat_mask_pos = mask_positions.reshape(-1)
        flat_targets = mask_targets.reshape(-1)
        h_masked = hidden[flat_mask_rows, flat_mask_pos]
        logits = h_masked @ model.params["mae.weight"].T + model.params["mae.bias"]
        mae_losses, mae_probs = _xent(logits, flat_targets)
        mae_value = float(mae_losses.mean())

    cls_value = 0.0
    cls_probs = None
    if weights.lambda_cls > 0 and batch.labels is not None:
        if np.any((batch.labels < 0) | (batch.labels >= cfg.num_classes)):
            raise DataError("label outside [0, num_classes)")
        logits = hidden[:, 0] @ model.params["cls_head.weight"].T + model.params["cls_head.bias"]
        cls_losses, cls_probs = _xent(logits, batch.labels)
        cls_value = float(cls_losses.mean())

    total = weights.lambda_mae * mae_value + weights.lambda_cls * cls_value + weights.lambda_vq * vq_value
    if not np.isfinite(total):
        raise NumericError(
            f"non-finite loss: mae={mae_value}, cls={cls_value}, vq={vq_value}"
        )

    masked_fraction = 0.0 if mask_positions is None else mask_positions.shape[1] / (C * S)

    cache = {}
    if need_backward:
        cache = {
            "layout": layout,
            "rows": rows,
            "indices_flat": indices_flat,
            "flat_segments": flat_segments,
            "stats": batch.stats,
            "meta": batch.meta,
            "enc_cache": enc_cache,
            "hidden": hidden,
            "mae_probs": mae_probs,
            "flat_mask_rows": flat_mask_rows,
            "flat_mask_pos": flat_mask_pos,
            "flat_targets": flat_targets,
            "cls_probs": cls_probs,
            "labels": batch.labels,
            "weights": weights,
        }
    return ForwardResult(
        loss=float(total),
        mae_loss=mae_value,
        cls_loss=cls_value,
        vq_loss=vq_value,
        indices=indices_flat.reshape(B, C, S),
        mask_positions=mask_positions,
        mask_targets=mask_targets,
        cls_probs=cls_probs,
        hidden=hidden,
        masked_fraction=masked_fraction,
        _cache=cache,
    )


def zero_grads(model: Model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(tensor) for name, tensor in model.params.items()}


def backward(model: Model, result: ForwardResult) -> dict[str, np.ndarray]:
    """Gradients of result.loss for every parameter tensor."""
    cache = result._cache
    if not cache:
        raise DataError("forward was run with need_backward=False")
    cfg = model.config
    weights: LossWeights = cache["weights"]
    layout: SequenceLayout = cache["layout"]
    hidden = cache["hidden"]
    B, _, D = hidden.shape
    grads = zero_grads(model)

    d_hidden = np.zeros_like(hidden)

    if cache["mae_probs"] is not None and weights.lambda_mae != 0:
        probs = cache["mae_probs"].copy()
        flat_targets = cache["flat_targets"]
        n = probs.shape[0]
        probs[np.arange(n), flat_targets] -= 1.0
        d_logits = probs * (weights.lambda_mae / n)
        h_masked = hidden[cache["flat_mask_rows"], cache["flat_mask_pos"]]
        grads["mae.weight"] += d_logits.T @ h_masked
        grads["mae.bias"] += d_logits.sum(axis=0)
        np.add.at(d_hidden, (cache["flat_mask_rows"], cache["flat_mask_pos"]), d_logits @ model.params["mae.weight"])

    if cache["cls_probs"] is not None:
        probs = cache["cls_probs"].copy()
        probs[np.arange(B), cache["labels"]] -= 1.0
        d_logits = probs * (weights.lambda_cls / B)
        grads["cls_head.weight"] += d_logits.T @ hidden[:, 0]
        grads["cls_head.bias"] += d_logits.sum(axis=0)
        d_hidden[:, 0] += d_logits @ model.params["cls_head.weight"]

    d_x, enc_grads = encoder_backward(d_hidden, cache["enc_cache"], encoder_layers(model.params, cfg.depth))
    for i, layer_grads in enumerate(enc_grads):
        for key, value in layer_grads.items():
            grads[f"enc.{i}.{key}"] += value

    # positions: every sequence slot accumulates across the batch
    np.add.at(grads["pos.rows"], layout.position_slot, d_x.sum(axis=0))
    # CLS vector
    grads["embed.cls_vector"] += d_x[:, 0].sum(axis=0)
    # embedding table rows (motion + MASK + START + END)
    rows = cache["rows"]
    np.add.at(grads["embed.rows"], rows[:, 1:].reshape(-1), d_x[:, 1:].reshape(-1, D))
    # statistical projection (motion tokens only)
    d_motion = d_x[:, layout.motion_positions]
    grads["stat.weight"] += d_motion.reshape(-1, D).T @ cache["stats"].reshape(-1, 2)
    grads["stat.bias"] += d_motion.sum(axis=(0, 1))
    # metadata adapter via the per-channel projection
    channel_pos = layout.channel_positions
    d_meta_proj = np.zeros((cache["meta"].shape[0], D))
    np.add.at(d_meta_proj, layout.channel_of[channel_pos], d_x[:, channel_pos].sum(axis=0))
    grads["adapter.weight"] += d_meta_proj.T @ cache["meta"]
    grads["adapter.bias"] += d_meta_proj.sum(axis=0)

    # commitment loss: only the first term reaches the prototypes
    if weights.lambda_vq != 0:
        indices_flat = cache["indices_flat"]
        flat_segments = cache["flat_segments"]
        n_total = flat_segments.shape[0]
        counts = np.bincount(indices_flat, minlength=cfg.codebook_size).astype(np.float64)
        sums = np.zeros((cfg.codebook_size, cfg.segment_len))
        np.add.at(sums, indices_flat, flat_segments)
        grads["codebook"] += (
            weights.lambda_vq * (2.0 / n_total) * (counts[:, None] * model.params["codebook"] - sums)
        )
    return grads


# ---------------------------------------------------------------------------
# Loss closure for gradient checking


def loss_closure(
    model_config: ModelConfig,
    batch: PreparedBatch,
    weights: LossWeights,
    mask_positions: np.ndarray | None,
    fixed_indices: np.ndarray,
    frozen_prototypes: np.ndarray,
):
    """A (params dict) -> (loss, grads) function with the quantizer
    assignment and the commitment stop-gradient copy held fixed, so the
    loss is differentiable everywhere finite differences probe it."""

    def fn(params: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
        model = Model(model_config, params)
        result = forward(
            model,
            batch,
            weights,
            mask_positions=mask_positions,
            fixed_indices=fixed_indices,
            frozen_prototypes=frozen_prototypes,
        )
        return result.loss, backward(model, result)

    return fn


# ---------------------------------------------------------------------------
# Gradient suite


def tiny_config() -> ModelConfig:
    return ModelConfig(
        codebook_size=6,
        segment_len=5,
        model_dim=8,
        meta_dim=7,
        depth=2,
        heads=2,
        mlp_ratio=1.0,
        segments_per_channel=3,
        mask_ratio=0.3,
        num_classes=3,
    )


def tiny_batch(seed: int = 0, num_windows: int = 3) -> PreparedBatch:
    rng = np.random.default_rng(seed)
    cfg = tiny_config()
    C, S, L = 2, cfg.segments_per_channel, cfg.segment_len
    return PreparedBatch(
        norm_segments=rng.normal(size=(num_windows, C, S, L)),
        stats=np.stack(
            [rng.normal(size=(num_windows, C, S)), np.abs(rng.normal(size=(num_windows, C, S)))],
            axis=3,
        ),
        labels=rng.integers(0, cfg.num_classes, size=num_windows),
        meta=rng.normal(size=(C, cfg.meta_dim)),
        window_ids=np.arange(num_windows, dtype=np.int64),
        channels=[ChannelMetadata("na", "syn", str(c), 100.0) for c in range(C)],
        source="tiny",
    )


def gradient_suite(seed: int = 0, tolerance: float = 1e-4) -> dict:
    """Finite-difference verification of every analytic gradient, on shapes
    small enough to check densely: the encoder alone, then the production
    forward/backward over every model tensor. Returns {component:
    GradCheckReport}."""
    if seed < 0:
        raise ConfigError(f"gradient check seed must be >= 0, got {seed}")
    reports = {}
    # the checks draw from children 3-5 of a six-way spawn, which keeps the
    # checked points of earlier releases (and so their reports) reproducible
    children = np.random.SeedSequence(seed).spawn(6)

    # encoder alone, input gradient included: tiny_config's two layers of
    # width 8 and MLP width 8, run with 2 heads
    rng = np.random.default_rng(children[3])
    cfg = tiny_config()
    enc_rng = np.random.default_rng(int(children[3].generate_state(1)[0]))
    enc_point = _init_tensors(_group_shapes(cfg, "enc"), {"enc": enc_rng})
    enc_point["x"] = rng.normal(size=(2, 4, cfg.model_dim))
    scalarizer = rng.normal(size=(2, 4, cfg.model_dim))

    def enc_fn(point):
        layers = encoder_layers(point, cfg.depth)
        out, cache = encoder_forward(point["x"], layers, cfg.heads)
        value = float((out * scalarizer).sum())
        d_x, grads = encoder_backward(scalarizer, cache, layers)
        flat = {f"enc.{i}.{key}": g for i, layer in enumerate(grads) for key, g in layer.items()}
        flat["x"] = d_x
        return value, flat

    reports["encoder"] = grad_check(enc_fn, enc_point, tolerance=tolerance, max_coords_per_tensor=60)

    # full model: embedding scatter, positions, heads, commitment, all at once
    batch = tiny_batch(seed=int(children[4].generate_state(1)[0]))
    model = init_model(cfg, seed=int(children[5].generate_state(1)[0]))
    fixed_indices, _ = nearest_prototypes(
        batch.norm_segments.reshape(-1, cfg.segment_len), model.params["codebook"]
    )
    layout = model.layout_for(batch.num_channels, batch.segments_per_channel)
    mask_positions = mask_positions_for(layout, cfg.mask_ratio, seed, 0, batch.window_ids)
    fn = loss_closure(
        cfg,
        batch,
        LossWeights(1.0, 1.0, 1.0),
        mask_positions,
        fixed_indices,
        model.params["codebook"].copy(),
    )
    reports["full_model"] = grad_check(fn, model.params, tolerance=tolerance, max_coords_per_tensor=150)
    return reports
