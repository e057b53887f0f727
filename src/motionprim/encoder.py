"""Small transformer encoder in plain numpy (fp64) with exact analytic
gradients and a finite-difference verification harness.

Forward passes cache every intermediate needed by the backward pass, so
encoder_backward is exact reverse mode, not an approximation. All shapes are
batch-first: (B, Seq, D).

The elementwise work runs in place on each kernel's own arrays, in the
same operation order as the plain one-temporary-per-operation expressions
(kept in tests/oracles.py), so the values are bit for bit the same while far
fewer full-size temporaries pass through the cache. A kernel's arrays are
fresh, or, given as its keyword-only `out`, slices of the arrays of a
`Workspace`: a training pass's whole-batch arrays, or a forward-only
pass's arrays of one group (see `_plan`). No public function writes to its
arguments other than `out`.

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
import itertools
import math
import weakref
from collections.abc import Callable
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


def gelu(x: np.ndarray, *, out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact erf formulation: x * Phi(x). Returns (value, Phi(x)); the normal
    CDF is the cache `gelu_grad` reuses, so erf runs once per layer. `out`,
    two arrays of x's shape, receives (value, Phi(x))."""
    value, cdf = (np.empty(x.shape), np.empty(x.shape)) if out is None else out
    np.multiply(x, _INV_SQRT2, out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x, cdf, out=value)
    return value, cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x phi(x), given cdf = Phi(x) from `gelu`."""
    grad = -0.5 * x
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT2PI
    grad *= x
    grad += cdf
    return grad


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, *, out: tuple | None = None):
    """(output, (xhat, 1 / std, gamma)). `out`, (output, xhat, 1 / std)
    arrays of x's shape (the last with a last axis of 1), receives them."""
    normed, xhat, inv = (np.empty(x.shape), np.empty(x.shape), np.empty(x.shape[:-1] + (1,))) if out is None else out
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    np.multiply(xhat, xhat, out=normed)
    # the variance, turned into 1 / sqrt(var + eps) in place
    np.mean(normed, axis=-1, keepdims=True, out=inv)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=normed)
    normed += beta
    return normed, (xhat, inv, gamma)


def layernorm_backward(d_out: np.ndarray, cache, *, out: np.ndarray | None = None) -> np.ndarray:
    """d input for the windows of `d_out`, written to `out` if given;
    gamma's and beta's gradients sum over windows and are
    `_layernorm_param_grads`."""
    xhat, inv, gamma = cache
    # d_xhat, turned into d_x in place
    d_x = np.multiply(d_out, gamma, out=out)
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


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over windows and rows of x^T g, one (D, B*S) x (B*S, E) GEMM: every
    weight gradient that sums over windows (encoder, heads, embedding)."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.matmul(x, w, out=out)
    out += b
    return out


def _scatter_add(
    shape: tuple[int, int], rows: np.ndarray, columns: np.ndarray | None = None, weights: np.ndarray | None = None
) -> np.ndarray:
    """np.add.at(np.zeros(shape), (rows, columns), weights), as one
    np.bincount over the flattened bins row * width + column: it adds each
    bin's entries in input order from +0.0, np.add.at's order, so the sums
    are its bits. Without `columns` each entry of `rows` takes a whole row
    of `weights` (..., width); without `weights` each (row, column) pair
    counts 1, in int64. Every sum into a table row in src runs here."""
    width = shape[1]
    bins = rows[..., None] * width + np.arange(width) if columns is None else rows * width + columns
    flat = None if weights is None else weights.reshape(-1)
    return np.bincount(bins.reshape(-1), flat, minlength=shape[0] * width).reshape(shape)


def _take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(B, r, D): the rows `rows` (B, r) of each window of `x`."""
    return x[np.arange(x.shape[0])[:, None], rows]


def _add_rows(full: np.ndarray, rows: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """`full` (B, Seq, E) += `part` (B, r, E) at the rows `rows` (B, r) of
    each window, a row listed twice taking the sum of its parts in
    np.add.at's order (see `_scatter_add`); without `rows`, `part` is every
    row's."""
    if rows is None:
        full += part
    else:
        B, S, E = full.shape
        full += _scatter_add((B * S, E), np.arange(B)[:, None] * S + rows, weights=part).reshape(full.shape)
    return full


def attention_forward(
    x: np.ndarray, params: dict[str, np.ndarray], heads: int, rows: np.ndarray | None = None, *, out: tuple | None = None
):
    """softmax(Q K^T / sqrt(d_head)) V per head, merged and output-projected.

    With `rows` ((B, r) positions) the queries are those rows of each
    window, x[rows] @ wq + bq, so the output is theirs, (B, r, D), and the
    scores (B, heads, r, Seq), while keys and values cover every row; the
    cache keeps `rows` as an eighth entry. Without `rows` every row is a
    query.

    `out` is the (q, k, v, weights, merged) arrays the cache keeps: q and
    merged of the output's shape, heads merged, k and v of x's, and the
    weights. Each is C-contiguous (a leading-axis slice of a whole-batch
    array), so a product written into it runs the BLAS kernel of one into a
    fresh array and no bit changes."""
    q, k, v, weights, merged = (None,) * 5 if out is None else out
    queries = x if rows is None else _take_rows(x, rows)
    q = _split_heads(_affine(queries, params["attn.wq"], params["attn.bq"], q), heads)
    k = _split_heads(_affine(x, params["attn.wk"], params["attn.bk"], k), heads)
    v = _split_heads(_affine(x, params["attn.wv"], params["attn.bv"], v), heads)
    scale = 1.0 / np.sqrt(x.shape[-1] // heads)
    weights = np.matmul(q, k.swapaxes(-1, -2), out=weights)
    merged = np.empty(queries.shape) if merged is None else merged
    weights *= scale
    _softmax_inplace(weights)
    _split_heads(merged, heads)[...] = weights @ v
    y = _affine(merged, params["attn.wo"], params["attn.bo"])
    return y, (x, q, k, v, weights, merged, scale) + (() if rows is None else (rows,))


def attention_backward(
    d_out: np.ndarray, cache, params: dict[str, np.ndarray], heads: int, *, out: tuple | None = None
):
    """(d input, (d q, d k, d v)) for the windows of `d_out`, the gradient of
    the output: the input gradient and those of the projections, heads
    merged, d q at the query rows and the others at every row; the weight
    and bias gradients sum over windows and are `_attention_param_grads`.
    `out`, arrays of those four shapes, receives them. A cache of `rows`
    adds d q's input gradient to those rows (`_add_rows`)."""
    x, q, k, v, weights, _, scale, *cut = cache
    rows = cut[0] if cut else None
    d_x, *d_qkv = [np.empty(s) for s in (x.shape, d_out.shape, x.shape, x.shape)] if out is None else out
    d_context = _split_heads(d_out @ params["attn.wo"].T, heads)
    _split_heads(d_qkv[2], heads)[...] = weights.swapaxes(-1, -2) @ d_context
    # softmax jacobian: dS = A * (dA - sum_j dA_j A_j), written over dA
    d_scores = d_context @ v.swapaxes(-1, -2)
    del d_context
    inner = (d_scores * weights).sum(axis=-1, keepdims=True)
    d_scores -= inner
    d_scores *= weights
    np.multiply(d_scores @ k, scale, out=_split_heads(d_qkv[0], heads))
    np.multiply(d_scores.swapaxes(-1, -2) @ q, scale, out=_split_heads(d_qkv[1], heads))
    del d_scores

    d_x.fill(0.0)
    _add_rows(d_x, rows, d_qkv[0] @ params["attn.wq"].T)
    for name, flat in zip("kv", d_qkv[1:]):
        d_x += flat @ params[f"attn.w{name}"].T
    return d_x, tuple(d_qkv)


def _attention_param_grads(
    x: np.ndarray, merged: np.ndarray, d_out: np.ndarray, d_qkv, rows: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    grads = {"attn.wo": _weight_grad(merged, d_out), "attn.bo": d_out.sum(axis=(0, 1))}
    queries = x if rows is None else _take_rows(x, rows)
    for name, inputs, flat in zip("qkv", (queries, x, x), d_qkv):
        grads[f"attn.w{name}"] = _weight_grad(inputs, flat)
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
    return grads


def mlp_forward(x: np.ndarray, params: dict[str, np.ndarray], *, out: tuple | None = None):
    """(output, (x, pre-activation, Phi(pre-activation), activation)).
    `out`, three (B, Seq, hidden) arrays, receives the last three."""
    pre, cdf, act = (None,) * 3 if out is None else out
    pre = _affine(x, params["mlp.w1"], params["mlp.b1"], pre)
    act, cdf = gelu(pre, out=None if out is None else (act, cdf))
    y = _affine(act, params["mlp.w2"], params["mlp.b2"])
    return y, (x, pre, cdf, act)


def mlp_backward(d_out: np.ndarray, cache, params: dict[str, np.ndarray], *, out: tuple | None = None):
    """(d input, d pre-activation) for the windows of `d_out`; the weight and
    bias gradients sum over windows and are `_mlp_param_grads`. `out`, an
    array of d_out's shape and one of the pre-activation's, receives them."""
    _, pre, cdf, _ = cache
    d_x, d_pre = (None, None) if out is None else out
    d_pre = np.matmul(d_out, params["mlp.w2"].T, out=d_pre)
    d_pre *= gelu_grad(pre, cdf)
    return np.matmul(d_pre, params["mlp.w1"].T, out=d_x), d_pre


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


class Workspace:
    """The flat buffer `_plan` lays the kernels' `out` arrays in. A
    training loop hands every training pass one workspace, which keeps the
    buffer from one pass to the next, so the loop allocates it once and its
    passes do not give that memory back to the allocator and fault it in
    again. The buffer grows to the largest plan asked of it, and a plan
    takes its leading elements, so one buffer serves every batch shape (a
    ragged last micro-batch or group, datasets of other channel counts). A
    pass takes its arrays on the calling thread, before its shards start.

    The arrays hold the last pass's values only, so a workspace serves one
    pass at a time, never two threads at once. A training pass claims the
    workspace for its EncoderCache, and a claim while an earlier pass's
    cache is alive (its `model.forward` result not yet dropped) raises
    DataError, so no gradient is read from overwritten memory. A
    forward-only pass takes a fresh workspace of its own (see
    `encoder_forward`)."""

    def __init__(self) -> None:
        self._buffer = np.empty(0)
        self._holder: weakref.ref | None = None

    def claim(self, cache: "EncoderCache") -> None:
        if self._holder is not None and self._holder() is not None:
            raise DataError("an earlier pass's result still holds this workspace; drop it before the next pass")
        self._holder = weakref.ref(cache)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._buffer.size < size:
            self._buffer = np.empty(0)  # freed before the larger one is allocated
            self._buffer = np.empty(size)
        return self._buffer[:size].reshape(shape)


@dataclass
class EncoderCache:
    """What `encoder_backward` needs of a forward pass: the input's shape
    (B, Seq, D), the read rows (B, r) (None for every row), the window
    shards, per layer (the whole-batch arrays its weight and bias gradients
    sum over windows: xhat of ln1, the attention input and its merged heads,
    xhat of ln2, the MLP input and its activation, the last three at the
    block's query rows; one (ln1, attention, ln2, mlp) kernel-cache tuple
    per shard, holding views of the workspace's arrays), and the
    whole-batch arrays the backward writes its gradients into, planned with
    the pass (see `encoder_forward`)."""

    heads: int
    shape: tuple[int, int, int]
    rows: np.ndarray | None = None
    slices: list[slice] = field(default_factory=list)
    layers: list[tuple[tuple, list[tuple]]] = field(default_factory=list)
    grads: list[np.ndarray] = field(default_factory=list)


def _kernel_shapes(shape: tuple[int, int, int], hidden: int, heads: int, rows: int) -> list:
    """The shapes of one block's kernel `out` arrays over windows of `shape`
    (B, Seq, D), in the order `_kernel_outs` groups them, its query side
    (queries, scores, merged heads, LN2 and the MLP) at `rows` rows per
    window."""
    B, S, D = shape
    full, cut, mlp = (B, S, D), (B, rows, D), (B, rows, hidden)
    return [full, full, (B, S, 1), cut, full, full, (B, heads, rows, S), cut, cut, cut, (B, rows, 1), mlp, mlp, mlp]


def _backward_shapes(shape: tuple[int, int, int], hidden: int, rows: int) -> list:
    """The shapes of the gradients one block's backward writes (see
    `_layer_backward`), its query side's at `rows` rows per window."""
    B, S, D = shape
    return [(B, rows, hidden)] + [(B, rows, D)] * 3 + [(B, S, D)] * 3


def _kernel_outs(arrays: list[np.ndarray]) -> tuple:
    """The (ln1, attention, ln2, mlp) kernels' `out` tuples of the block
    whose arrays, in `_kernel_shapes` order, lead `arrays`."""
    return tuple(arrays[:3]), tuple(arrays[3:8]), tuple(arrays[8:11]), tuple(arrays[11:14])


def _plan(workspace: Workspace, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Arrays of `shapes`, laid end to end in the flat buffer of
    `workspace`: a training pass's whole-batch arrays, those it caches for
    its backward, one set per layer, then those its backward carries each
    layer's gradients through; or a forward-only pass's one set for a group
    of FORWARD_CHUNK windows, which every layer and every group of the pass
    reuses, since it caches nothing, the last block's query side at its
    read rows beside it. Each shard writes into its slice of every array. One buffer
    rather than one per array: glibc keeps a freed block of the size of the
    largest it has given back, so one pass's buffer stays with the process
    for the next `evaluate` call, where a dozen smaller ones were handed back
    to the system and faulted in again by every call (see CHANGES.md)."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = workspace.take((sum(sizes),))
    starts = itertools.accumulate(sizes, initial=0)
    return [flat[start : start + size].reshape(shape) for start, size, shape in zip(starts, sizes, shapes)]


@dataclass(frozen=True)
class LazyInput:
    """An encoder input of `shape` (B, Seq, D) that is built a window slice
    at a time: `x[sl]` calls `build(sl)`. Each shard builds its windows as
    it runs them, so no whole-batch input is kept."""

    shape: tuple[int, int, int]
    build: Callable[[slice], np.ndarray]

    def __getitem__(self, sl: slice) -> np.ndarray:
        return self.build(sl)


def encoder_forward(
    x: np.ndarray | LazyInput,
    layers: list[dict[str, np.ndarray]],
    heads: int,
    need_backward: bool = True,
    rows: np.ndarray | None = None,
    *,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, EncoderCache]:
    """Run one pre-norm residual block per entry of `layers`: x +
    Attn(LN1(x)) then + MLP(LN2(.)), with no final normalization, so no
    layers is the identity. `x` may be a `LazyInput`, whose windows are then
    built shard by shard.

    The stack runs over window shards at once (see Window shards), and each
    shard's kernels write into its slice of arrays of a `Workspace`. With
    `need_backward` that is `workspace` (a fresh one if None), the shards
    split the whole batch and the returned cache keeps what
    `encoder_backward` needs, in whole-batch arrays; a training loop passes
    the same workspace to every pass, and drops each pass's cache before
    the next (see Workspace). Without it `workspace` is not used: the pass
    takes a fresh workspace of its own, the cache holds no layers, and the
    shards split one group of FORWARD_CHUNK windows after another, keeping
    no kernel cache. Each shard's layers write into one set of arrays, the
    last block's query side into arrays of its own, made for the first
    group (the largest) and reused by every later group, so the
    intermediates in flight are those of at most FORWARD_CHUNK windows,
    whatever the batch size. Either way the result equals one pass over all windows bit for
    bit (tested in tests/test_encoder.py and tests/test_model.py), and a
    NumericError names the lowest failing layer over all windows.

    `rows`, (B, r) sequence positions, are the rows the caller reads, and
    the result is (B, r, D), their outputs in `rows` order; without `rows`
    it is every row, (B, Seq, D). With `rows` the last block is query-row
    attention: its queries are those rows (see `attention_forward`), and its
    residuals, LN2 and MLP run at them, while its keys and values, and every
    earlier block, cover every row. A row read twice is computed twice. The
    read rows equal those of a full pass to within rounding, not bit for
    bit: the products over fewer rows may take other BLAS kernels. The
    NumericError check sees only the rows a pass computes, so an overflow
    confined to a row the last block skips is not raised. A pass that reads
    no row runs no layer and reads no input: it returns (B, 0, D) and a
    cache that holds no layers.
    """
    if not isinstance(x, LazyInput):
        x = np.asarray(x, dtype=np.float64)
    if len(x.shape) != 3 or any(params["ln1.gamma"].shape != x.shape[2:] for params in layers):
        raise DataError("encoder input must be (B, Seq, D), D the layers' model width")
    if heads < 1 or x.shape[2] % heads:
        raise ConfigError(f"model width {x.shape[2]} must be divisible by heads {heads}")
    batch, seq, width = x.shape
    cache = EncoderCache(heads, x.shape)
    read = seq
    if rows is not None:
        rows = cache.rows = _query_rows(rows, (batch, seq))
        read = rows.shape[1]
        if read == 0:
            return np.empty((batch, 0, width)), cache
    workspace = workspace if need_backward and workspace is not None else Workspace()
    if need_backward:
        workspace.claim(cache)
    out = np.empty((batch, read, width))

    def shard(outs: list[tuple], sl: slice):
        x_sl = x[sl]
        if not np.all(np.isfinite(x_sl)):
            return [], -1
        result, bad, caches = _run_layers(x_sl, layers, heads, outs, None if rows is None else rows[sl], need_backward)
        if bad is None:
            out[sl] = result
        return caches, bad

    results = []
    depth = len(layers)
    hidden = layers[0]["mlp.w1"].shape[1] if layers else 0
    groups = [(0, batch)]
    if not need_backward:
        groups = [(i, min(FORWARD_CHUNK, batch - i)) for i in range(0, batch, FORWARD_CHUNK)]
    for start, size in groups:
        shape = (size, seq, width)
        below, last = _kernel_shapes(shape, hidden, heads, seq), _kernel_shapes(shape, hidden, heads, read)
        layer_shapes = [below] * (depth - 1) + [last] if layers else []
        # one array per layer and position in a training pass; in a
        # forward-only pass, which keeps nothing, one per position and
        # shape, which every layer of that shape reuses
        keys = [[(i if need_backward else s, k) for k, s in enumerate(own)] for i, own in enumerate(layer_shapes)]
        planned = dict(zip(itertools.chain(*keys), itertools.chain(*layer_shapes)))
        shapes = list(planned.values())
        if need_backward and layers:  # the backward's arrays, in `encoder_backward`'s order
            shapes += [shape] * min(2, depth - 1) + _backward_shapes(shape, hidden, seq)[:4] * min(1, depth - 1)
            shapes += _backward_shapes(shape, hidden, read)
        arrays = _plan(workspace, shapes)
        found = dict(zip(planned, arrays))
        sets = [[found[key] for key in own] for own in keys]
        slices, tasks = _shard_slices(size), []
        for sl in slices:
            outs = [_kernel_outs([a[sl] for a in own]) for own in sets]
            tasks.append(functools.partial(shard, outs, slice(start + sl.start, start + sl.stop)))
        results += _parallel.run_parallel(tasks)
    bad = min((bad for _, bad in results if bad is not None), default=None)
    if bad == -1:
        raise NumericError("non-finite encoder input")
    if bad is not None:
        raise NumericError(f"non-finite activations after encoder layer {bad}")
    if need_backward:  # one group: the whole batch
        cache.slices, cache.grads = slices, arrays[len(planned) :]
        for i, own in enumerate(sets):
            (normed1, xhat1, _), attn, (normed2, xhat2, _), (_, _, act) = _kernel_outs(own)
            cache.layers.append(((xhat1, normed1, attn[4], xhat2, normed2, act), [caches[i] for caches, _ in results]))
    return out, cache


def _query_rows(rows, shape: tuple[int, int]) -> np.ndarray:
    """`rows`, checked to be (B, r) integer positions of a (B, Seq) batch,
    as int64."""
    rows = np.asarray(rows)
    batch, seq = shape
    if rows.ndim != 2 or rows.shape[0] != batch or rows.dtype.kind not in "iu":
        raise DataError(f"rows must be ({batch}, r) integer positions, got {rows.dtype} {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= seq):
        raise DataError(f"rows must lie in [0, {seq})")
    return rows.astype(np.int64, copy=False)


def _run_layers(
    x: np.ndarray, layers: list[dict[str, np.ndarray]], heads: int, outs: list, rows: np.ndarray | None, keep: bool
) -> tuple[np.ndarray, int | None, list[tuple]]:
    """The block stack over `x`, its kernels writing into `outs`, one (ln1,
    attention, ln2, mlp) tuple of kernel `out` arrays per layer: (output,
    None, caches), or, stopping at the first layer whose output is not all
    finite, (that output, its index, caches). With `keep` each layer's
    kernel caches, views of its arrays, are returned, one (ln1, attention,
    ln2, mlp) tuple per layer; without, none is. With `rows` ((B, r)
    positions) the output is those rows, (B, r, D), and the last block's
    queries, residuals, LN2 and MLP run at those rows alone."""
    caches = []
    for i, params in enumerate(layers):
        ln1, attn, ln2, mlp = outs[i]
        query_rows = rows if i == len(layers) - 1 else None
        normed, ln1_cache = layernorm_forward(x, params["ln1.gamma"], params["ln1.beta"], out=ln1)
        mid, attn_cache = attention_forward(normed, params, heads, query_rows, out=attn)
        mid += x if query_rows is None else _take_rows(x, query_rows)
        normed, ln2_cache = layernorm_forward(mid, params["ln2.gamma"], params["ln2.beta"], out=ln2)
        out, mlp_cache = mlp_forward(normed, params, out=mlp)
        out += mid
        del normed, mid
        if not np.all(np.isfinite(out)):
            return out, i, caches
        if keep:
            caches.append((ln1_cache, attn_cache, ln2_cache, mlp_cache))
        del ln1_cache, attn_cache, ln2_cache, mlp_cache
        x = out
    return (x if rows is None or layers else _take_rows(x, rows)), None, caches


def _layer_backward(d_out: np.ndarray, caches: tuple, params: dict[str, np.ndarray], heads: int, out: tuple) -> None:
    """One block's backward for the windows of `d_out`, the gradient of its
    output, written to the arrays `out`: (d input, or None to skip it, then
    the gradients that the block's weight and bias gradients sum over
    windows: d MLP pre-activation, d ln2 output, d attention output, d q at
    the query rows, then d k, d v and d ln1 output at every row). A block
    whose attention cache holds rows adds its residual's gradient to them."""
    ln1_cache, attn_cache, ln2_cache, mlp_cache = caches
    d_in, d_pre, d_normed2, d_mid, d_q, d_k, d_v, d_normed1 = out
    # out = mid + mlp(ln2(mid))
    mlp_backward(d_out, mlp_cache, params, out=(d_normed2, d_pre))
    layernorm_backward(d_normed2, ln2_cache, out=d_mid)
    d_mid += d_out
    # mid = x + attn(ln1(x))
    attention_backward(d_mid, attn_cache, params, heads, out=(d_normed1, d_q, d_k, d_v))
    if d_in is not None:
        layernorm_backward(d_normed1, ln1_cache, out=d_in)
        _add_rows(d_in, attn_cache[7] if len(attn_cache) > 7 else None, d_mid)


def _layer_param_grads(
    reduced: tuple, d_out: np.ndarray, parts: tuple, rows: np.ndarray | None, threads: int
) -> dict[str, np.ndarray]:
    """One block's weight and bias gradients from whole-batch arrays, its
    queries at `rows`, its four kernels' sums dealt over `threads` threads
    (on a 2-core host, run on the calling thread alone they made a training
    pipeline 7% slower)."""
    xhat1, normed1, merged, xhat2, normed2, act = reduced
    d_pre, d_normed2, d_mid, d_q, d_k, d_v, d_normed1 = parts
    tasks = [  # costliest first
        functools.partial(_mlp_param_grads, normed2, act, d_out, d_pre),
        functools.partial(_attention_param_grads, normed1, merged, d_mid, (d_q, d_k, d_v), rows),
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
    input_grad: bool = True,
) -> tuple[np.ndarray | None, list[dict[str, np.ndarray]]]:
    """Exact reverse-mode pass; returns (d_input, per-layer grads).

    `d_out` is the gradient of what the forward returned: (B, Seq, D), or,
    for a pass given `rows`, (B, r, D) at those rows. The last block's
    backward then runs at those rows, and the gradients of its queries and
    residual are added to them in the input gradient (a row read twice
    takes both, see `_add_rows`). A pass that read no row has zero
    gradients throughout.

    Per layer, every shard carries its windows' gradient back through the
    block into the whole-batch arrays planned with the pass, then the
    block's weight and bias gradients are summed over all windows from
    those arrays. Without `input_grad` d_input is None and layer 0 skips
    the LN1 backward and residual that only it reads. The returned arrays
    are fresh."""
    d_x = np.asarray(d_out, dtype=np.float64)
    B, S, D = cache.shape
    read = S if cache.rows is None else cache.rows.shape[1]
    if d_x.shape != (B, read, D):
        raise DataError(f"d_out must be {(B, read, D)}, the rows the pass read, got {d_x.shape}")
    if not layers or read == 0:  # no layer ran at the read rows: the gradient only moves to them
        d_in = _add_rows(np.zeros(cache.shape), cache.rows, d_x)
        return (d_in if input_grad else None), [{key: np.zeros_like(t) for key, t in p.items()} for p in layers]
    if len(cache.layers) != len(layers):
        raise DataError("cache does not match layer stack")
    slices, depth = cache.slices, len(layers)
    # d input's turns, the query-side gradients of the blocks below the
    # last, then the last block's seven (see `_layer_backward`)
    turns, below, last = cache.grads[: min(2, depth - 1)], cache.grads[min(2, depth - 1) : -7], cache.grads[-7:]
    all_grads: list[dict[str, np.ndarray]] = [dict() for _ in layers]
    for i in range(depth - 1, -1, -1):
        params = layers[i]
        reduced, shard_caches = cache.layers[i]
        parts = tuple(last if i == depth - 1 else below + last[4:])
        # layer i reads the input gradient of layer i + 1 while it writes its
        # own, so two arrays take turns; layer 0's is returned, so fresh
        d_in = turns[(depth - 1 - i) % 2] if i else np.empty(cache.shape) if input_grad else None
        arrays = (d_in, *parts)

        def shard(s: int, sl: slice) -> None:
            outs = tuple(None if a is None else a[sl] for a in arrays)
            _layer_backward(d_x[sl], shard_caches[s], params, cache.heads, outs)

        _parallel.run_parallel([functools.partial(shard, s, sl) for s, sl in enumerate(slices)])
        rows = cache.rows if i == depth - 1 else None
        all_grads[i] = _layer_param_grads(reduced, d_x, parts, rows, len(slices))
        d_x = arrays[0]
    return (d_x if input_grad else None), all_grads


# ---------------------------------------------------------------------------
# Finite-difference harness

# the central differences' step, in every coordinate
FD_STEP = 1e-5
FD_TOLERANCE = 1e-4  # the largest relative error a passing check may show


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


def grad_check(fn, point: dict[str, np.ndarray], max_coords_per_tensor: int | None = 200) -> GradCheckReport:
    """Compare fn's analytic gradients against central differences.

    fn(point) must return (scalar value, gradient dict matching point).
    Large tensors are subsampled to `max_coords_per_tensor` coordinates with
    an rng seeded 0; the report carries the worst coordinate found.
    """
    _, analytic = fn(point)
    missing = set(point) - set(analytic)
    if missing:
        raise DataError(f"fn returned no gradient for: {sorted(missing)}")
    rng = np.random.default_rng(0)
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
            tensor[coord] = original + FD_STEP
            plus = fn(point)[0]
            tensor[coord] = original - FD_STEP
            minus = fn(point)[0]
            tensor[coord] = original
            numeric = (plus - minus) / (2.0 * FD_STEP)
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
    return GradCheckReport(worst.rel_err, worst, entries, FD_TOLERANCE)
