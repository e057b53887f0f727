"""Small transformer encoder in plain numpy (fp64) with exact analytic
gradients and a finite-difference verification harness.

Forward passes cache every intermediate needed by the backward pass, so
encoder_backward is exact reverse mode, not an approximation. All shapes are
batch-first: (B, Seq, D).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DataError, NumericError

LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class EncoderConfig:
    depth: int = 5
    heads: int = 8
    model_dim: int = 256
    mlp_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        if self.heads < 1 or self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} must be divisible by heads {self.heads}"
            )
        if self.mlp_hidden < 1:
            raise ConfigError("mlp_ratio too small: hidden dim would be < 1")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.model_dim))


LAYER_PARAM_KEYS = (
    "ln1.gamma", "ln1.beta",
    "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv",
    "attn.wo", "attn.bo",
    "ln2.gamma", "ln2.beta",
    "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2",
)


def layer_param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every per-layer tensor, keyed in LAYER_PARAM_KEYS order."""
    D, H = config.model_dim, config.mlp_hidden
    shapes = {key: (D,) for key in LAYER_PARAM_KEYS}
    for name in ("wq", "wk", "wv", "wo"):
        shapes[f"attn.{name}"] = (D, D)
    shapes["mlp.w1"], shapes["mlp.b1"], shapes["mlp.w2"] = (D, H), (H,), (H, D)
    return shapes


def init_encoder_params(config: EncoderConfig, seed: int = 0) -> list[dict[str, np.ndarray]]:
    """Per-layer parameter dicts: LN scales 1 / offsets 0, linear weights
    ~ N(0, 0.02^2), biases 0."""
    rng = np.random.default_rng(seed)
    D, H = config.model_dim, config.mlp_hidden
    layers = []
    for _ in range(config.depth):
        layers.append(
            {
                "ln1.gamma": np.ones(D),
                "ln1.beta": np.zeros(D),
                "attn.wq": rng.normal(0.0, 0.02, size=(D, D)),
                "attn.bq": np.zeros(D),
                "attn.wk": rng.normal(0.0, 0.02, size=(D, D)),
                "attn.bk": np.zeros(D),
                "attn.wv": rng.normal(0.0, 0.02, size=(D, D)),
                "attn.bv": np.zeros(D),
                "attn.wo": rng.normal(0.0, 0.02, size=(D, D)),
                "attn.bo": np.zeros(D),
                "ln2.gamma": np.ones(D),
                "ln2.beta": np.zeros(D),
                "mlp.w1": rng.normal(0.0, 0.02, size=(D, H)),
                "mlp.b1": np.zeros(H),
                "mlp.w2": rng.normal(0.0, 0.02, size=(H, D)),
                "mlp.b2": np.zeros(D),
            }
        )
    return layers


# ---------------------------------------------------------------------------
# Primitive ops, each returning (value, cache)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact erf formulation: x * Phi(x). Returns (value, Phi(x)); the normal
    CDF is the cache `gelu_grad` reuses, so erf runs once per layer."""
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x phi(x), given cdf = Phi(x) from `gelu`."""
    return cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layernorm_backward(d_out: np.ndarray, cache):
    xhat, inv, gamma = cache
    d_gamma = (d_out * xhat).sum(axis=tuple(range(d_out.ndim - 1)))
    d_beta = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gamma
    mean_dxhat = d_xhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv * (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return d_x, d_gamma, d_beta


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, S, D = x.shape
    return x.reshape(B, S, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, h, S, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, S, h * dh)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over batch and sequence of x^T g: one (D, B*S) x (B*S, E) GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def attention_forward(x: np.ndarray, params: dict[str, np.ndarray], config: EncoderConfig):
    """softmax(Q K^T / sqrt(d_head)) V per head, merged and output-projected."""
    q = _split_heads(x @ params["attn.wq"] + params["attn.bq"], config.heads)
    k = _split_heads(x @ params["attn.wk"] + params["attn.bk"], config.heads)
    v = _split_heads(x @ params["attn.wv"] + params["attn.bv"], config.heads)
    scale = 1.0 / np.sqrt(config.head_dim)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    weights = softmax(scores)
    context = weights @ v
    merged = _merge_heads(context)
    out = merged @ params["attn.wo"] + params["attn.bo"]
    cache = (x, q, k, v, weights, merged, scale)
    return out, cache


def attention_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray], config: EncoderConfig):
    x, q, k, v, weights, merged, scale = cache
    grads = {}
    grads["attn.wo"] = _weight_grad(merged, d_out)
    grads["attn.bo"] = d_out.sum(axis=(0, 1))
    d_merged = d_out @ params["attn.wo"].T
    d_context = _split_heads(d_merged, config.heads)
    d_weights = d_context @ v.swapaxes(-1, -2)
    d_v = weights.swapaxes(-1, -2) @ d_context
    # softmax jacobian: dS = A * (dA - sum_j dA_j A_j)
    inner = (d_weights * weights).sum(axis=-1, keepdims=True)
    d_scores = weights * (d_weights - inner)
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.swapaxes(-1, -2) @ q) * scale

    d_x = np.zeros_like(x)
    for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
        flat = _merge_heads(dh)
        w = params[f"attn.w{name}"]
        grads[f"attn.w{name}"] = _weight_grad(x, flat)
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
        d_x += flat @ w.T
    return d_x, grads


def mlp_forward(x: np.ndarray, params: dict[str, np.ndarray]):
    pre = x @ params["mlp.w1"] + params["mlp.b1"]
    act, cdf = gelu(pre)
    out = act @ params["mlp.w2"] + params["mlp.b2"]
    return out, (x, pre, cdf, act)


def mlp_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray]):
    x, pre, cdf, act = cache
    grads = {
        "mlp.w2": _weight_grad(act, d_out),
        "mlp.b2": d_out.sum(axis=(0, 1)),
    }
    d_act = d_out @ params["mlp.w2"].T
    d_pre = d_act * gelu_grad(pre, cdf)
    grads["mlp.w1"] = _weight_grad(x, d_pre)
    grads["mlp.b1"] = d_pre.sum(axis=(0, 1))
    d_x = d_pre @ params["mlp.w1"].T
    return d_x, grads


# ---------------------------------------------------------------------------
# Full encoder


@dataclass
class EncoderCache:
    config: EncoderConfig
    layers: list = field(default_factory=list)


def encoder_forward(
    x: np.ndarray,
    layers: list[dict[str, np.ndarray]],
    config: EncoderConfig,
) -> tuple[np.ndarray, EncoderCache]:
    """Run `depth` pre-norm residual blocks: x + Attn(LN1(x)) then
    + MLP(LN2(.)), with no final normalization, so depth 0 is the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != config.model_dim:
        raise DataError(f"encoder input must be (B, Seq, {config.model_dim})")
    if len(layers) != config.depth:
        raise ConfigError(f"{len(layers)} layer params for depth {config.depth}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite encoder input")
    cache = EncoderCache(config)
    for i, params in enumerate(layers):
        normed1, ln1_cache = layernorm_forward(x, params["ln1.gamma"], params["ln1.beta"])
        attn_out, attn_cache = attention_forward(normed1, params, config)
        mid = x + attn_out
        normed2, ln2_cache = layernorm_forward(mid, params["ln2.gamma"], params["ln2.beta"])
        mlp_out, mlp_cache = mlp_forward(normed2, params)
        out = mid + mlp_out
        if not np.all(np.isfinite(out)):
            raise NumericError(f"non-finite activations after encoder layer {i}")
        cache.layers.append((ln1_cache, attn_cache, ln2_cache, mlp_cache))
        x = out
    return x, cache


def encoder_backward(
    d_out: np.ndarray,
    cache: EncoderCache,
    layers: list[dict[str, np.ndarray]],
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Exact reverse-mode pass; returns (d_input, per-layer grads)."""
    if len(cache.layers) != len(layers):
        raise DataError("cache does not match layer stack")
    config = cache.config
    d_x = np.asarray(d_out, dtype=np.float64)
    all_grads: list[dict[str, np.ndarray]] = [dict() for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        params = layers[i]
        ln1_cache, attn_cache, ln2_cache, mlp_cache = cache.layers[i]
        grads = all_grads[i]
        # out = mid + mlp(ln2(mid))
        d_normed2, mlp_grads = mlp_backward(d_x, mlp_cache, params)
        grads.update(mlp_grads)
        d_mid, d_g2, d_b2 = layernorm_backward(d_normed2, ln2_cache)
        d_mid = d_mid + d_x
        grads["ln2.gamma"], grads["ln2.beta"] = d_g2, d_b2
        # mid = x + attn(ln1(x))
        d_normed1, attn_grads = attention_backward(d_mid, attn_cache, params, config)
        grads.update(attn_grads)
        d_x_from_ln1, d_g1, d_b1 = layernorm_backward(d_normed1, ln1_cache)
        grads["ln1.gamma"], grads["ln1.beta"] = d_g1, d_b1
        d_x = d_mid + d_x_from_ln1
    return d_x, all_grads


# ---------------------------------------------------------------------------
# Finite-difference harness


@dataclass
class GradCheckEntry:
    name: str
    coordinate: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst: GradCheckEntry | None
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _relative_error(a: float, n: float) -> float:
    # the 1e-3 floor turns the quotient into an absolute error for vanishing
    # gradients, keeping finite-difference noise from reading as failure
    return abs(a - n) / max(abs(a) + abs(n), 1e-3)


def grad_check(
    fn,
    point: dict[str, np.ndarray],
    tolerance: float = 1e-4,
    step: float = 1e-5,
    max_coords_per_tensor: int | None = 200,
    seed: int = 0,
) -> GradCheckReport:
    """Compare fn's analytic gradients against central differences.

    fn(point) must return (scalar value, gradient dict matching point).
    Large tensors are subsampled to `max_coords_per_tensor` coordinates with
    a seeded rng; the report carries the worst coordinate found.
    """
    _, analytic = fn(point)
    missing = set(point) - set(analytic)
    if missing:
        raise DataError(f"fn returned no gradient for: {sorted(missing)}")
    rng = np.random.default_rng(seed)
    entries: list[GradCheckEntry] = []
    for name in sorted(point):
        tensor = point[name]
        size = tensor.size
        if size == 0:
            continue
        if max_coords_per_tensor is not None and size > max_coords_per_tensor:
            flat_ids = rng.choice(size, size=max_coords_per_tensor, replace=False)
        else:
            flat_ids = np.arange(size)
        grad_flat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        for flat in flat_ids:
            coord = np.unravel_index(int(flat), tensor.shape)
            original = tensor[coord]
            tensor[coord] = original + step
            plus = fn(point)[0]
            tensor[coord] = original - step
            minus = fn(point)[0]
            tensor[coord] = original
            numeric = (plus - minus) / (2.0 * step)
            entries.append(
                GradCheckEntry(
                    name=name,
                    coordinate=coord,
                    analytic=float(grad_flat[flat]),
                    numeric=float(numeric),
                    rel_err=_relative_error(float(grad_flat[flat]), float(numeric)),
                )
            )
    if not entries:
        raise DataError("nothing to check: empty point")
    worst = max(entries, key=lambda e: e.rel_err)
    return GradCheckReport(worst.rel_err, worst, entries, tolerance)
