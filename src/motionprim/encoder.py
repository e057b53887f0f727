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

Every pass runs on window shards, one per CPU, on threads (see Window
shards below): a training pass shards its whole batch, a forward-only pass
one group of FORWARD_CHUNK windows at a time, keeping no kernel cache. The
public kernels are the per-shard steps: a backward kernel
returns its input's gradient and the arrays its weight and bias gradients
sum over, and those sums over windows (`_*_param_grads`) run once, on
whole-batch arrays, so no bit depends on the shard count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from . import _parallel
from .errors import ConfigError, DataError, NumericError

LN_EPS = 1e-5
# windows per group of a forward-only pass: its working set (the attention
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


def layernorm_backward(d_out: np.ndarray, cache) -> np.ndarray:
    """d input for the windows of `d_out`; gamma's and beta's gradients sum
    over windows and are `_layernorm_param_grads`."""
    xhat, inv, gamma = cache
    # d_xhat, turned into d_x in place
    d_x = d_out * gamma
    mean_dxhat = d_x.mean(axis=-1, keepdims=True)
    scratch = d_x * xhat
    mean_dxhat_xhat = scratch.mean(axis=-1, keepdims=True)
    d_x -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=scratch)
    d_x -= scratch
    d_x *= inv
    return d_x


def _layernorm_param_grads(d_out: np.ndarray, xhat: np.ndarray, prefix: str) -> dict[str, np.ndarray]:
    lead = tuple(range(d_out.ndim - 1))
    return {f"{prefix}.gamma": (d_out * xhat).sum(axis=lead), f"{prefix}.beta": d_out.sum(axis=lead)}


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
    """(d input, (d q, d k, d v)) for the windows of `d_out`, the projection
    gradients (B, Seq, D) with heads merged; the weight and bias gradients
    sum over windows and are `_attention_param_grads`."""
    _, q, k, v, weights, _, scale = cache
    d_context = _split_heads(d_out @ params["attn.wo"].T, heads)
    d_v = _merge_heads(weights.swapaxes(-1, -2) @ d_context)
    # softmax jacobian: dS = A * (dA - sum_j dA_j A_j), written over dA
    d_scores = d_context @ v.swapaxes(-1, -2)
    del d_context
    inner = (d_scores * weights).sum(axis=-1, keepdims=True)
    d_scores -= inner
    d_scores *= weights
    d_q = d_scores @ k
    d_q *= scale
    d_k = d_scores.swapaxes(-1, -2) @ q
    del d_scores
    d_k *= scale
    d_qkv = (_merge_heads(d_q), _merge_heads(d_k), d_v)
    del d_q, d_k

    d_x = np.zeros(d_out.shape)
    for name, flat in zip("qkv", d_qkv):
        d_x += flat @ params[f"attn.w{name}"].T
    return d_x, d_qkv


def _attention_param_grads(x: np.ndarray, merged: np.ndarray, d_out: np.ndarray, d_qkv) -> dict[str, np.ndarray]:
    grads = {"attn.wo": _weight_grad(merged, d_out), "attn.bo": d_out.sum(axis=(0, 1))}
    for name, flat in zip("qkv", d_qkv):
        grads[f"attn.w{name}"] = _weight_grad(x, flat)
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
    return grads


def mlp_forward(x: np.ndarray, params: dict[str, np.ndarray]):
    pre = _affine(x, params["mlp.w1"], params["mlp.b1"])
    act, cdf = gelu(pre)
    out = _affine(act, params["mlp.w2"], params["mlp.b2"])
    return out, (x, pre, cdf, act)


def mlp_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray]):
    """(d input, d pre-activation) for the windows of `d_out`; the weight and
    bias gradients sum over windows and are `_mlp_param_grads`."""
    _, pre, cdf, _ = cache
    d_pre = d_out @ params["mlp.w2"].T
    d_pre *= gelu_grad(pre, cdf)
    return d_pre @ params["mlp.w1"].T, d_pre


def _mlp_param_grads(x: np.ndarray, act: np.ndarray, d_out: np.ndarray, d_pre: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "mlp.w2": _weight_grad(act, d_out),
        "mlp.b2": d_out.sum(axis=(0, 1)),
        "mlp.w1": _weight_grad(x, d_pre),
        "mlp.b1": d_pre.sum(axis=(0, 1)),
    }


# ---------------------------------------------------------------------------
# Window shards
#
# Every pass splits its windows into contiguous shards, one per CPU this
# process may run on and at least _MIN_SHARD_WINDOWS each, that run at once
# through `_parallel.run_parallel`. A pass that keeps a backward shards its
# whole batch; a forward-only pass shards one group of FORWARD_CHUNK windows
# after another. No window's values depend on another's, and every sum over
# windows (the weight and bias gradients) runs once, on whole-batch arrays
# that the shards fill by slice, so every bit is that of one unsharded pass
# at any shard count.

_MIN_SHARD_WINDOWS = 8


def _shard_slices(batch: int) -> list[slice]:
    n = max(1, min(_parallel.cpus(), batch // _MIN_SHARD_WINDOWS))
    return [slice(batch * s // n, batch * (s + 1) // n) for s in range(n)]


# ---------------------------------------------------------------------------
# Full encoder

# (kernel, entry) of each array in a layer's (ln1, attention, ln2, mlp)
# kernel caches that a weight or bias gradient sums over windows: xhat of
# ln1, the attention input and its merged heads, xhat of ln2, the MLP input
# and its activation
_REDUCED = ((0, 0), (1, 0), (1, 5), (2, 0), (3, 0), (3, 3))


@dataclass
class EncoderCache:
    """What `encoder_backward` needs of a forward pass: the window shards,
    and per layer (its whole-batch `_REDUCED` arrays, one (ln1, attention,
    ln2, mlp) kernel-cache tuple per shard, holding views of those arrays)."""

    heads: int
    slices: list[slice] = field(default_factory=list)
    layers: list[tuple[tuple, list[tuple]]] = field(default_factory=list)


def _keep_reduced(reduced: tuple, sl: slice, caches: tuple) -> tuple:
    """Copy `caches`' `_REDUCED` arrays into the windows `sl` of the
    whole-batch `reduced` arrays; return caches holding views of those rows
    in their place."""
    caches = [list(c) for c in caches]
    for buf, (kernel, entry) in zip(reduced, _REDUCED):
        buf[sl] = caches[kernel][entry]
        caches[kernel][entry] = buf[sl]
    return tuple(tuple(c) for c in caches)


def encoder_forward(
    x: np.ndarray,
    layers: list[dict[str, np.ndarray]],
    heads: int,
    need_backward: bool = True,
) -> tuple[np.ndarray, EncoderCache]:
    """Run one pre-norm residual block per entry of `layers`: x +
    Attn(LN1(x)) then + MLP(LN2(.)), with no final normalization, so no
    layers is the identity.

    The stack runs over window shards at once (see Window shards), each
    written into one (B, Seq, D) result. With `need_backward` the shards
    split the whole batch and the returned cache keeps what
    `encoder_backward` needs. Without it the cache holds no layers, and the
    shards split one group of FORWARD_CHUNK windows after another, keeping
    no kernel cache, so the intermediates in flight are those of at most
    FORWARD_CHUNK windows, whatever the batch size. Either way the result
    equals one pass over all windows bit for bit (tested in
    tests/test_encoder.py and tests/test_model.py), and a NumericError names
    the lowest failing layer over all windows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or any(params["ln1.gamma"].shape != x.shape[2:] for params in layers):
        raise DataError("encoder input must be (B, Seq, D), D the layers' model width")
    if heads < 1 or x.shape[2] % heads:
        raise ConfigError(f"model width {x.shape[2]} must be divisible by heads {heads}")
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite encoder input")
    cache = EncoderCache(heads)
    batch = x.shape[0]
    if need_backward:
        cache.slices = _shard_slices(batch)
        groups = [cache.slices]
        reduced = [
            (*(np.empty(x.shape) for _ in _REDUCED[:-1]), np.empty(x.shape[:2] + params["mlp.w1"].shape[1:]))
            for params in layers
        ]
    else:
        groups = [
            [slice(start + sl.start, start + sl.stop) for sl in _shard_slices(min(FORWARD_CHUNK, batch - start))]
            for start in range(0, batch, FORWARD_CHUNK)
        ]
    out = np.empty(x.shape)

    def shard(sl: slice):
        caches = []
        keep = (lambda i, c: caches.append(_keep_reduced(reduced[i], sl, c))) if need_backward else None
        out[sl], bad = _run_layers(x[sl], layers, heads, keep)
        return caches, bad

    results = [
        result for slices in groups for result in _parallel.run_parallel([functools.partial(shard, sl) for sl in slices])
    ]
    bad = min((bad for _, bad in results if bad is not None), default=None)
    if bad is not None:
        raise NumericError(f"non-finite activations after encoder layer {bad}")
    if need_backward:
        cache.layers = [(reduced[i], [caches[i] for caches, _ in results]) for i in range(len(layers))]
    return out, cache


def _run_layers(x: np.ndarray, layers: list[dict[str, np.ndarray]], heads: int, keep) -> tuple[np.ndarray, int | None]:
    """The block stack over `x`: (output, None), or, stopping at the first
    layer whose output is not all finite, (that output, its index).
    keep(i, caches) receives layer i's kernel caches; without `keep` they are
    freed before the next layer allocates its own."""
    for i, params in enumerate(layers):
        normed, ln1_cache = layernorm_forward(x, params["ln1.gamma"], params["ln1.beta"])
        mid, attn_cache = attention_forward(normed, params, heads)
        mid += x
        normed, ln2_cache = layernorm_forward(mid, params["ln2.gamma"], params["ln2.beta"])
        out, mlp_cache = mlp_forward(normed, params)
        out += mid
        # the caches alone hold the layer norms' outputs, which `keep` may move
        del normed, mid
        if not np.all(np.isfinite(out)):
            return out, i
        if keep is not None:
            keep(i, (ln1_cache, attn_cache, ln2_cache, mlp_cache))
        del ln1_cache, attn_cache, ln2_cache, mlp_cache
        x = out
    return x, None


def _layer_backward(d_out: np.ndarray, caches: tuple, params: dict[str, np.ndarray], heads: int):
    """One block's backward for the windows of `d_out`: (d input, the
    gradients that the block's weight and bias gradients sum over windows:
    d MLP pre-activation, d ln2 output, d attention output, d q, d k, d v,
    d ln1 output)."""
    ln1_cache, attn_cache, ln2_cache, mlp_cache = caches
    # out = mid + mlp(ln2(mid))
    d_normed2, d_pre = mlp_backward(d_out, mlp_cache, params)
    d_mid = layernorm_backward(d_normed2, ln2_cache)
    d_mid += d_out
    # mid = x + attn(ln1(x))
    d_normed1, d_qkv = attention_backward(d_mid, attn_cache, params, heads)
    d_x = layernorm_backward(d_normed1, ln1_cache)
    d_x += d_mid
    return d_x, (d_pre, d_normed2, d_mid, *d_qkv, d_normed1)


def _layer_param_grads(reduced: tuple, d_out: np.ndarray, parts: tuple, threads: int) -> dict[str, np.ndarray]:
    """One block's weight and bias gradients from whole-batch arrays, its
    four kernels' sums dealt over `threads` threads (on a 2-core host, run
    on the calling thread alone they made a training pipeline 7% slower)."""
    xhat1, normed1, merged, xhat2, normed2, act = reduced
    d_pre, d_normed2, d_mid, d_q, d_k, d_v, d_normed1 = parts
    tasks = [  # costliest first
        functools.partial(_mlp_param_grads, normed2, act, d_out, d_pre),
        functools.partial(_attention_param_grads, normed1, merged, d_mid, (d_q, d_k, d_v)),
        functools.partial(_layernorm_param_grads, d_normed2, xhat2, "ln2"),
        functools.partial(_layernorm_param_grads, d_normed1, xhat1, "ln1"),
    ]
    k = min(threads, len(tasks))
    dealt = _parallel.run_parallel([functools.partial(_merge_dicts, tasks[g::k]) for g in range(k)])
    return {name: grad for grads in dealt for name, grad in grads.items()}


def _merge_dicts(tasks: list) -> dict:
    return {name: value for task in tasks for name, value in task().items()}


def encoder_backward(
    d_out: np.ndarray,
    cache: EncoderCache,
    layers: list[dict[str, np.ndarray]],
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Exact reverse-mode pass; returns (d_input, per-layer grads). Per
    layer, every shard carries its windows' gradient back through the block
    into whole-batch arrays, then the block's weight and bias gradients are
    summed over all windows from those arrays."""
    if len(cache.layers) != len(layers):
        raise DataError("cache does not match layer stack")
    d_x = np.asarray(d_out, dtype=np.float64)
    slices = cache.slices
    all_grads: list[dict[str, np.ndarray]] = [dict() for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        params = layers[i]
        reduced, shard_caches = cache.layers[i]
        d_in = np.empty(d_x.shape)
        parts = (np.empty(d_x.shape[:2] + params["mlp.w1"].shape[1:]), *(np.empty(d_x.shape) for _ in range(6)))

        def shard(s: int, sl: slice) -> None:
            d_in_s, parts_s = _layer_backward(d_x[sl], shard_caches[s], params, cache.heads)
            for buf, part in zip((d_in, *parts), (d_in_s, *parts_s)):
                buf[sl] = part

        _parallel.run_parallel([functools.partial(shard, s, sl) for s, sl in enumerate(slices)])
        all_grads[i] = _layer_param_grads(reduced, d_x, parts, len(slices))
        d_x = d_in
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
