"""Small transformer encoder in plain numpy (fp64) with exact analytic
gradients and a finite-difference verification harness.

Forward passes cache every intermediate needed by the backward pass, so
encoder_backward is exact reverse mode, not an approximation. All shapes are
batch-first: (B, Seq, D).

The elementwise work runs in place on each kernel's own fresh arrays, in the
same operation order as the plain one-temporary-per-operation expressions
(kept in tests/oracles.py), so the values are bit for bit the same while far
fewer full-size temporaries pass through the cache. No public function
writes to its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DataError, NumericError

LN_EPS = 1e-5
# windows per slice of a forward-only pass: its working set (the attention
# weights above all) is that of this many windows, whatever the batch size
FORWARD_CHUNK = 32
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Primitive ops, each returning (value, cache)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact erf formulation: x * Phi(x). Returns (value, Phi(x)); the normal
    CDF is the cache `gelu_grad` reuses, so erf runs once per layer."""
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x phi(x), given cdf = Phi(x) from `gelu`."""
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT2PI
    grad *= x
    grad += cdf
    return grad


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    # the variance, turned into 1 / sqrt(var + eps) in place
    inv = out.mean(axis=-1, keepdims=True)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, (xhat, inv, gamma)


def layernorm_backward(d_out: np.ndarray, cache):
    xhat, inv, gamma = cache
    lead = tuple(range(d_out.ndim - 1))
    scratch = d_out * xhat
    d_gamma = scratch.sum(axis=lead)
    d_beta = d_out.sum(axis=lead)
    # d_xhat, turned into d_x in place
    d_x = d_out * gamma
    mean_dxhat = d_x.mean(axis=-1, keepdims=True)
    np.multiply(d_x, xhat, out=scratch)
    mean_dxhat_xhat = scratch.mean(axis=-1, keepdims=True)
    d_x -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=scratch)
    d_x -= scratch
    d_x *= inv
    return d_x, d_gamma, d_beta


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """softmax over the last axis, written over `scores` and returned."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, S, D = x.shape
    return x.reshape(B, S, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, h, S, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, S, h * dh)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over batch and sequence of x^T g: one (D, B*S) x (B*S, E) GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def attention_forward(x: np.ndarray, params: dict[str, np.ndarray], heads: int):
    """softmax(Q K^T / sqrt(d_head)) V per head, merged and output-projected."""
    q = _split_heads(_affine(x, params["attn.wq"], params["attn.bq"]), heads)
    k = _split_heads(_affine(x, params["attn.wk"], params["attn.bk"]), heads)
    v = _split_heads(_affine(x, params["attn.wv"], params["attn.bv"]), heads)
    scale = 1.0 / np.sqrt(x.shape[-1] // heads)
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    weights = _softmax_inplace(scores)
    merged = _merge_heads(weights @ v)
    out = _affine(merged, params["attn.wo"], params["attn.bo"])
    cache = (x, q, k, v, weights, merged, scale)
    return out, cache


def attention_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray], heads: int):
    x, q, k, v, weights, merged, scale = cache
    grads = {}
    grads["attn.wo"] = _weight_grad(merged, d_out)
    grads["attn.bo"] = d_out.sum(axis=(0, 1))
    d_merged = d_out @ params["attn.wo"].T
    d_context = _split_heads(d_merged, heads)
    d_v = weights.swapaxes(-1, -2) @ d_context
    # softmax jacobian: dS = A * (dA - sum_j dA_j A_j), written over dA
    d_scores = d_context @ v.swapaxes(-1, -2)
    inner = (d_scores * weights).sum(axis=-1, keepdims=True)
    d_scores -= inner
    d_scores *= weights
    d_q = d_scores @ k
    d_q *= scale
    d_k = d_scores.swapaxes(-1, -2) @ q
    d_k *= scale

    d_x = np.zeros_like(x)
    for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
        flat = _merge_heads(dh)
        w = params[f"attn.w{name}"]
        grads[f"attn.w{name}"] = _weight_grad(x, flat)
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
        d_x += flat @ w.T
    return d_x, grads


def mlp_forward(x: np.ndarray, params: dict[str, np.ndarray]):
    pre = _affine(x, params["mlp.w1"], params["mlp.b1"])
    act, cdf = gelu(pre)
    out = _affine(act, params["mlp.w2"], params["mlp.b2"])
    return out, (x, pre, cdf, act)


def mlp_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray]):
    x, pre, cdf, act = cache
    grads = {
        "mlp.w2": _weight_grad(act, d_out),
        "mlp.b2": d_out.sum(axis=(0, 1)),
    }
    d_pre = d_out @ params["mlp.w2"].T
    d_pre *= gelu_grad(pre, cdf)
    grads["mlp.w1"] = _weight_grad(x, d_pre)
    grads["mlp.b1"] = d_pre.sum(axis=(0, 1))
    d_x = d_pre @ params["mlp.w1"].T
    return d_x, grads


# ---------------------------------------------------------------------------
# Full encoder


@dataclass
class EncoderCache:
    heads: int
    layers: list = field(default_factory=list)


def encoder_forward(
    x: np.ndarray,
    layers: list[dict[str, np.ndarray]],
    heads: int,
    need_backward: bool = True,
) -> tuple[np.ndarray, EncoderCache]:
    """Run one pre-norm residual block per entry of `layers`: x +
    Attn(LN1(x)) then + MLP(LN2(.)), with no final normalization, so no
    layers is the identity.

    Without `need_backward` the returned cache holds no layers, and the
    stack runs over consecutive slices of FORWARD_CHUNK windows written into
    one (B, Seq, D) result, so each layer's intermediates are those of one
    slice and are freed before the next layer runs. No window's values
    depend on another's, and the sliced result equals one pass over all
    windows bit for bit (tested in tests/test_model.py).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or any(params["ln1.gamma"].shape != x.shape[2:] for params in layers):
        raise DataError("encoder input must be (B, Seq, D), D the layers' model width")
    if heads < 1 or x.shape[2] % heads:
        raise ConfigError(f"model width {x.shape[2]} must be divisible by heads {heads}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite encoder input")
    cache = EncoderCache(heads)
    if need_backward or x.shape[0] <= FORWARD_CHUNK:
        # one slice needs no result buffer to copy it into
        return _run_layers(x, layers, heads, cache.layers if need_backward else None), cache
    out = np.empty_like(x)
    for start in range(0, x.shape[0], FORWARD_CHUNK):
        stop = start + FORWARD_CHUNK
        out[start:stop] = _run_layers(x[start:stop], layers, heads, None)
    return out, cache


def _run_layers(x: np.ndarray, layers: list[dict[str, np.ndarray]], heads: int, caches: list | None) -> np.ndarray:
    """The block stack over `x`; each layer's caches are appended to
    `caches`, or freed before the next layer allocates its own when it is
    None."""
    for i, params in enumerate(layers):
        normed1, ln1_cache = layernorm_forward(x, params["ln1.gamma"], params["ln1.beta"])
        mid, attn_cache = attention_forward(normed1, params, heads)
        mid += x
        normed2, ln2_cache = layernorm_forward(mid, params["ln2.gamma"], params["ln2.beta"])
        out, mlp_cache = mlp_forward(normed2, params)
        out += mid
        if not np.all(np.isfinite(out)):
            raise NumericError(f"non-finite activations after encoder layer {i}")
        if caches is not None:
            caches.append((ln1_cache, attn_cache, ln2_cache, mlp_cache))
        del ln1_cache, attn_cache, ln2_cache, mlp_cache
        x = out
    return x


def encoder_backward(
    d_out: np.ndarray,
    cache: EncoderCache,
    layers: list[dict[str, np.ndarray]],
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Exact reverse-mode pass; returns (d_input, per-layer grads)."""
    if len(cache.layers) != len(layers):
        raise DataError("cache does not match layer stack")
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
        d_mid += d_x
        grads["ln2.gamma"], grads["ln2.beta"] = d_g2, d_b2
        # mid = x + attn(ln1(x))
        d_normed1, attn_grads = attention_backward(d_mid, attn_cache, params, cache.heads)
        grads.update(attn_grads)
        d_x, d_g1, d_b1 = layernorm_backward(d_normed1, ln1_cache)
        d_x += d_mid
        grads["ln1.gamma"], grads["ln1.beta"] = d_g1, d_b1
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
