"""End-to-end model: tokenization, context embedding, encoder, and heads,
composed into one batched forward/backward with a flat parameter dictionary.

Parameters live in a dict[str, ndarray] so the optimizer, freeze policies,
checkpointing, and finite-difference checks can treat every tensor uniformly.
The quantization argmin is recomputed from the current prototypes on every
forward pass; gradient checks can pin assignments to keep the loss smooth.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .embedder import SequenceLayout, build_layout, embed_backward, embed_rows, mask_count, table_rows
from .encoder import LazyInput, encoder_backward, encoder_forward, grad_check
from .errors import ConfigError, DataError, NumericError
from .ingest import SensorWindow, normalize_matrix, segment_matrix
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
        usage_counts = np.asarray(usage_counts)
        if usage_counts.dtype.kind not in "iu":
            raise DataError(f"usage_counts has dtype {usage_counts.dtype}, needs integers")
        # a uint64 count past the int64 range wraps negative here and is refused
        self.usage_counts = usage_counts.astype(np.int64, copy=False)
        if np.any(self.usage_counts < 0):
            raise DataError("usage_counts must be >= 0")
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
            if getattr(params[name], "dtype", None) != np.float64:
                raise DataError(f"parameter {name!r} is not a float64 array")
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
    # (B, r, D): the rows `hidden_rows` (B, r) of each window, those the
    # heads read (the mask positions, then the [CLS] row)
    hidden: np.ndarray
    hidden_rows: np.ndarray
    masked_fraction: float
    # the pass's gradients, or None without need_backward; see `backward`
    _backward: Callable[[], dict[str, np.ndarray]] | None = field(default=None, repr=False)

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

    The table rows of every token are looked up once; the encoder gets a
    `LazyInput`, so each of its window shards embeds its own windows, and
    it returns only the hidden rows the heads read, the mask positions then
    the [CLS] row, as `hidden` (B, r, D) with their positions in
    `hidden_rows`. The quantizer scan, the heads and the loss reductions
    run once over the whole batch. need_backward=False keeps nothing for a
    backward pass, the encoder's per-layer cache included, so `backward`
    refuses the result; the encoder then runs one group of FORWARD_CHUNK
    windows at a time and its last block computes its query side at the
    read rows alone (see `encoder_forward`), and the losses, `cls_probs`
    and `hidden` are the bits of a training pass.
    """
    cfg = model.config
    params = model.params
    B, C, S, L = batch.norm_segments.shape
    if L != cfg.segment_len:
        raise DataError(f"batch segment length {L} does not match model ({cfg.segment_len})")
    prototypes = params["codebook"]

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
    del diff_second  # a whole-batch array: not kept through the encoder

    layout = model.layout_for(C, S)
    if mask_positions is not None:
        given = np.asarray(mask_positions)
        if given.dtype.kind == "f":
            fractional = given[~(np.isfinite(given) & (given == np.floor(given)))]
            if fractional.size:
                raise DataError(f"mask positions must be whole numbers, got {fractional[0]}")
        mask_positions = given.astype(np.int64)
    indices = indices_flat.reshape(B, C, S)
    rows, mask_targets = table_rows(params, layout, indices, mask_positions)
    x = LazyInput(
        (B, layout.seq_len, cfg.model_dim),
        lambda sl: embed_rows(params, layout, rows[sl], batch.stats[sl], batch.meta),
    )
    # each head reads one hidden row per target: (tensor prefix, loss weight,
    # the (B, k) sequence positions of those rows, targets)
    heads = []
    if mask_positions is not None and mask_positions.size > 0:
        heads.append(("mae", weights.lambda_mae, mask_positions, mask_targets.reshape(-1)))
    if weights.lambda_cls > 0 and batch.labels is not None:
        if np.any((batch.labels < 0) | (batch.labels >= cfg.num_classes)):
            raise DataError("label outside [0, num_classes)")
        heads.append(("cls_head", weights.lambda_cls, np.zeros((B, 1), dtype=np.int64), batch.labels))
    # the encoder returns only the rows the heads read, head after head
    hidden_rows = np.concatenate(
        [np.zeros((B, 0), dtype=np.int64), *(positions for _, _, positions, _ in heads)], axis=1
    )
    layers = encoder_layers(params, cfg.depth)
    hidden, enc_cache = encoder_forward(x, layers, cfg.heads, need_backward, hidden_rows)
    # (window, row of `hidden`) of each head's targets, window by window
    reads, start = [], 0
    for _, _, positions, _ in heads:
        k = positions.shape[1]
        reads.append((np.repeat(np.arange(B), k), np.tile(np.arange(start, start + k), B)))
        start += k

    head_loss, head_probs = {"mae": 0.0, "cls_head": 0.0}, {}
    for (prefix, _, _, targets), (window, row) in zip(heads, reads):
        logits = hidden[window, row] @ params[f"{prefix}.weight"].T + params[f"{prefix}.bias"]
        losses, head_probs[prefix] = _xent(logits, targets)
        head_loss[prefix] = float(losses.mean())
    mae_value, cls_value = head_loss["mae"], head_loss["cls_head"]

    total = weights.lambda_mae * mae_value + weights.lambda_cls * cls_value + weights.lambda_vq * vq_value
    if not np.isfinite(total):
        raise NumericError(
            f"non-finite loss: mae={mae_value}, cls={cls_value}, vq={vq_value}"
        )

    def backward_pass() -> dict[str, np.ndarray]:
        grads = {}
        # the encoder's output gradient at every row; a position read twice
        # (a repeated mask position) adds both contributions
        d_hidden = np.zeros((B, layout.seq_len, cfg.model_dim))
        for (prefix, weight, _, targets), (window, row) in zip(heads, reads):
            if weight == 0:
                continue
            d_logits = head_probs[prefix].copy()
            n = len(targets)
            d_logits[np.arange(n), targets] -= 1.0
            d_logits *= weight / n
            grads[f"{prefix}.weight"] = d_logits.T @ hidden[window, row]
            grads[f"{prefix}.bias"] = d_logits.sum(axis=0)
            np.add.at(d_hidden, (window, hidden_rows[window, row]), d_logits @ params[f"{prefix}.weight"])
        if grads:  # the heads reach the encoder and the embedding
            d_x, enc_grads = encoder_backward(d_hidden, enc_cache, layers)
            for i, layer_grads in enumerate(enc_grads):
                grads.update({f"enc.{i}.{key}": g for key, g in layer_grads.items()})
            grads.update(embed_backward(params, layout, rows, batch.stats, batch.meta, d_x))
        # commitment loss: only the first term reaches the prototypes,
        # 2 (count * z - sum of its segments) / n per code; subtracting the
        # sums from zeros leaves an unused code's gradient +0.0, not -0.0
        if weights.lambda_vq != 0:
            pull = np.zeros_like(prototypes)
            np.subtract.at(pull, indices_flat, flat_segments)
            pull += np.bincount(indices_flat, minlength=cfg.codebook_size)[:, None] * prototypes
            grads["codebook"] = weights.lambda_vq * (2.0 / flat_segments.shape[0]) * pull
        return {name: grads[name] if name in grads else np.zeros_like(t) for name, t in params.items()}

    return ForwardResult(
        loss=float(total),
        mae_loss=mae_value,
        cls_loss=cls_value,
        vq_loss=vq_value,
        indices=indices,
        mask_positions=mask_positions,
        mask_targets=mask_targets,
        cls_probs=head_probs.get("cls_head"),
        hidden=hidden,
        hidden_rows=hidden_rows,
        masked_fraction=0.0 if mask_positions is None else mask_positions.shape[1] / (C * S),
        _backward=backward_pass if need_backward else None,
    )


def backward(result: ForwardResult) -> dict[str, np.ndarray]:
    """Gradients of result.loss for every parameter tensor, zeros for those
    the loss does not reach."""
    if result._backward is None:
        raise DataError("forward was run with need_backward=False")
    return result._backward()


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
        return result.loss, backward(result)

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
