"""Independent reference computations used to cross-check the library.

Everything here is written loop-first from the definitions, deliberately
avoiding the vectorized code paths under test. Slow is fine; these run on
small inputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
from scipy.special import erf


def linear_resample(values, src_rate, dst_rate):
    """Loop-based linear interpolation onto round(n * dst/src) points spread
    evenly over the original index range."""
    values = [float(v) for v in values]
    n = len(values)
    out_len = int(round(n * dst_rate / src_rate))
    if out_len == 1:
        return [values[0]]
    out = []
    for i in range(out_len):
        g = i * (n - 1) / (out_len - 1)
        lo = int(math.floor(g))
        hi = min(lo + 1, n - 1)
        frac = g - lo
        out.append(values[lo] * (1.0 - frac) + values[hi] * frac)
    return out


def mean_and_popvar(values):
    values = [float(v) for v in values]
    n = len(values)
    mu = sum(values) / n
    var = sum((v - mu) ** 2 for v in values) / n
    return mu, var


def normalize(values, eps=1e-5):
    mu, var = mean_and_popvar(values)
    sd = math.sqrt(var)
    return [(float(v) - mu) / (sd + eps) for v in values]


def segment_two_pass(samples, seg_len, eps=1e-5):
    """(normalized, stats) of (..., T, C) samples the plain two-pass way:
    cut each segment out by its time range, take the raw mean/variance, then
    normalize with a second mean/std pass, (s - mean) / (std + eps)."""
    samples = np.asarray(samples, dtype=np.float64)
    S = samples.shape[-2] // seg_len
    cuts = [np.swapaxes(samples[..., s * seg_len : (s + 1) * seg_len, :], -1, -2) for s in range(S)]
    # (..., C, S, L) in C order: numpy's pairwise sum along a contiguous axis
    # rounds differently from its sum along the strided axis np.stack keeps
    segments = np.stack(cuts, axis=-2).copy(order="C")
    stats = np.stack([segments.mean(axis=-1), segments.var(axis=-1)], axis=-1)
    mean = segments.mean(axis=-1, keepdims=True)
    std = segments.std(axis=-1, keepdims=True)
    return (segments - mean) / (std + eps), stats


def nearest_scan(segment, prototypes):
    """Exhaustive scan: squared euclidean distance to every prototype,
    accumulated sequentially; first minimum wins ties."""
    best_idx = -1
    best_dist = math.inf
    for k in range(len(prototypes)):
        d = 0.0
        for l in range(len(segment)):
            diff = float(segment[l]) - float(prototypes[k][l])
            d += diff * diff
        if d < best_dist:
            best_dist = d
            best_idx = k
    return best_idx, best_dist


def codebook_loss(segment, codeword):
    d = 0.0
    for s, z in zip(segment, codeword):
        d += (float(s) - float(z)) ** 2
    return d


def kmeans(sample, k, seed, iters=25):
    """Lloyd iterations with seeded initial point sampling, lowest-index tie
    breaks, and empty clusters keeping their previous centroid."""
    sample = np.asarray(sample, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = sample[rng.choice(sample.shape[0], size=k, replace=False)].copy()
    for _ in range(iters):
        assign = []
        for row in sample:
            idx, _ = nearest_scan(row, centroids)
            assign.append(idx)
        new = centroids.copy()
        for c in range(k):
            members = [sample[i] for i in range(len(sample)) if assign[i] == c]
            if members:
                new[c] = np.mean(np.stack(members), axis=0)
        centroids = new
    return centroids


def central_difference(f, x, step=1e-5):
    """Elementwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def entropy_perplexity(counts):
    counts = [float(c) for c in counts]
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return math.exp(h)


def softmax_rows(logits):
    out = []
    for row in logits:
        m = max(float(v) for v in row)
        exps = [math.exp(float(v) - m) for v in row]
        z = sum(exps)
        out.append([e / z for e in exps])
    return np.asarray(out)


def cross_entropy_mean(probs, targets):
    total = 0.0
    for row, t in zip(probs, targets):
        total -= math.log(float(row[int(t)]))
    return total / len(targets)


def confusion(y_true, y_pred, num_classes):
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        mat[int(t), int(p)] += 1
    return mat


def macro_f1(conf):
    """Unweighted mean F1, skipping classes absent from both truth and
    prediction."""
    conf = np.asarray(conf)
    scores = []
    for c in range(conf.shape[0]):
        truth = int(conf[c].sum())
        pred = int(conf[:, c].sum())
        if truth == 0 and pred == 0:
            continue
        denom = truth + pred
        scores.append(2.0 * int(conf[c, c]) / denom if denom else 0.0)
    return sum(scores) / len(scores)


def bigram_counts(stream, k):
    mat = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(stream[:-1], stream[1:]):
        mat[int(a), int(b)] += 1
    return mat


def mask_budget(num_motion, ratio):
    if ratio <= 0:
        return 0
    return max(1, int(math.floor(ratio * num_motion + 0.5)))


def adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One decoupled-weight-decay Adam update on flat floats."""
    new_m = [beta1 * mi + (1 - beta1) * g for mi, g in zip(m, grad)]
    new_v = [beta2 * vi + (1 - beta2) * g * g for vi, g in zip(v, grad)]
    out = []
    for p, mi, vi in zip(param, new_m, new_v):
        mhat = mi / (1 - beta1**t)
        vhat = vi / (1 - beta2**t)
        out.append(p - lr * (mhat / (math.sqrt(vhat) + eps) + weight_decay * p))
    return out, new_m, new_v


def layernorm(row, gamma, beta, eps=1e-5):
    mu, var = mean_and_popvar(row)
    return [
        (float(x) - mu) / math.sqrt(var + eps) * float(g) + float(b)
        for x, g, b in zip(row, gamma, beta)
    ]


def attention_single(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """One attention block on a single (S, D) sequence, loops over heads."""
    x = np.asarray(x, dtype=np.float64)
    S, D = x.shape
    dh = D // heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    merged = np.zeros((S, D))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        attn = softmax_rows(scores)
        merged[:, sl] = attn @ v[:, sl]
    return merged @ wo + bo


def gelu_scalar(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def distinct_shapes(segments, tol=1e-6):
    """Census of distinct normalized segment shapes by greedy max-abs
    deduplication. Returns the list of representatives."""
    reps: list[np.ndarray] = []
    for seg in segments:
        seg = np.asarray(seg, dtype=np.float64)
        found = False
        for rep in reps:
            if np.max(np.abs(rep - seg)) < tol:
                found = True
                break
        if not found:
            reps.append(seg)
    return reps


def zero_noise(spec):
    """Copy of a synthetic spec with all noise removed (for shape enumeration)."""
    classes = [
        dataclasses.replace(c, waveforms=[dataclasses.replace(w, noise_sigma=0.0) for w in c.waveforms])
        for c in spec.classes
    ]
    return dataclasses.replace(spec, classes=classes, channels=list(spec.channels))


def zero_noise_shape_count(spec, seg_len=50, tol=1e-6):
    """Number of distinct instance-normalized segment shapes produced by the
    noiseless version of a synthetic generator spec."""
    from motionprim.ingest import generate_synthetic

    windows = generate_synthetic(zero_noise(spec))
    L = seg_len
    segments = []
    for win in windows:
        T = win.samples.shape[0]
        for c in range(win.samples.shape[1]):
            for s in range(T // L):
                raw = win.samples[s * L : (s + 1) * L, c]
                segments.append(np.asarray(normalize(raw)))
    return len(distinct_shapes(segments, tol))


def write_data_csv(path, channel_names, class_names, streams):
    """A synthetic dataset's data.csv written one csv.writer row per sample:
    every value as repr(float), then the class name, as csv.writer quotes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(channel_names) + ["label"])
        for name, stream in zip(class_names, streams):
            for row in stream:
                writer.writerow([repr(float(v)) for v in row] + [name])


def save_tensors_by_copy(path, kind, meta, tensors):
    """The tensor container writer as first written: each tensor converted
    with astype and copied out with tobytes, every copy held until the
    whole file is written."""
    entries, blobs = [], []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating):
            arr, dtype = arr.astype("<f8"), "float64"
        elif np.issubdtype(arr.dtype, np.integer):
            arr, dtype = arr.astype("<i8"), "int64"
        else:
            raise ValueError(f"unsupported dtype {arr.dtype}")
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(np.ascontiguousarray(arr).tobytes())
    header = {"kind": kind, "version": 1, "meta": meta, "tensors": entries}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"MPTENS1\n" + len(header_bytes).to_bytes(8, "big") + header_bytes + b"".join(blobs))


def nearest_broadcast(segments, prototypes, chunk=256):
    """Exhaustive scan in broadcast form: every (segment, prototype)
    difference over (chunk, K, L), summed along L; first minimum wins."""
    segments = np.asarray(segments, dtype=np.float64)
    indices = np.empty(segments.shape[0], dtype=np.int64)
    distances = np.empty(segments.shape[0], dtype=np.float64)
    for start in range(0, segments.shape[0], chunk):
        part = segments[start : start + chunk]
        diff = part[:, None, :] - prototypes[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        idx = np.argmin(d2, axis=1)
        indices[start : start + part.shape[0]] = idx
        distances[start : start + part.shape[0]] = d2[np.arange(part.shape[0]), idx]
    return indices, distances


# ---------------------------------------------------------------------------
# Encoder attention and MLP written as einsum contractions, independent of the
# reshape + matmul (GEMM) forms in motionprim.encoder


def _split_heads(x, heads):
    B, S, D = x.shape
    return x.reshape(B, S, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, h, S, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, S, h * dh)


def softmax(scores):
    """The encoder's in-place softmax kernel, run on a copy of `scores`."""
    from motionprim.encoder import _softmax_inplace

    return _softmax_inplace(np.array(scores, dtype=np.float64))


def softmax_reference(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_forward_einsum(x, params, heads):
    """Returns (out, cache) like encoder.attention_forward."""
    q = _split_heads(x @ params["attn.wq"] + params["attn.bq"], heads)
    k = _split_heads(x @ params["attn.wk"] + params["attn.bk"], heads)
    v = _split_heads(x @ params["attn.wv"] + params["attn.bv"], heads)
    scale = 1.0 / math.sqrt(x.shape[-1] // heads)
    weights = softmax_reference(np.einsum("bhsd,bhtd->bhst", q, k) * scale)
    merged = _merge_heads(np.einsum("bhst,bhtd->bhsd", weights, v))
    out = merged @ params["attn.wo"] + params["attn.bo"]
    return out, (x, q, k, v, weights, merged, scale)


def attention_backward_einsum(d_out, cache, params, heads):
    """Returns (d_x, grads) like encoder.attention_backward."""
    x, q, k, v, weights, merged, scale = cache
    grads = {
        "attn.wo": np.einsum("bsd,bse->de", merged, d_out),
        "attn.bo": d_out.sum(axis=(0, 1)),
    }
    d_context = _split_heads(d_out @ params["attn.wo"].T, heads)
    d_weights = np.einsum("bhsd,bhtd->bhst", d_context, v)
    d_v = np.einsum("bhst,bhsd->bhtd", weights, d_context)
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
    d_q = np.einsum("bhst,bhtd->bhsd", d_scores, k) * scale
    d_k = np.einsum("bhst,bhsd->bhtd", d_scores, q) * scale
    d_x = np.zeros_like(x)
    for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
        flat = _merge_heads(dh)
        grads[f"attn.w{name}"] = np.einsum("bsd,bse->de", x, flat)
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
        d_x += flat @ params[f"attn.w{name}"].T
    return d_x, grads


def _gelu_and_grad(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    return x * cdf, cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def mlp_forward_einsum(x, params):
    pre = x @ params["mlp.w1"] + params["mlp.b1"]
    act, _ = _gelu_and_grad(pre)
    return act @ params["mlp.w2"] + params["mlp.b2"], (x, pre, act)


def mlp_backward_einsum(d_out, cache, params):
    x, pre, act = cache
    grads = {
        "mlp.w2": np.einsum("bsh,bsd->hd", act, d_out),
        "mlp.b2": d_out.sum(axis=(0, 1)),
    }
    d_pre = (d_out @ params["mlp.w2"].T) * _gelu_and_grad(pre)[1]
    grads["mlp.w1"] = np.einsum("bsd,bsh->dh", x, d_pre)
    grads["mlp.b1"] = d_pre.sum(axis=(0, 1))
    return d_pre @ params["mlp.w1"].T, grads


# ---------------------------------------------------------------------------
# Encoder kernels as plain expressions, one fresh array per operation. The
# kernels in motionprim.encoder work in place in the same operation order and
# must equal these bit for bit.

LN_EPS = 1e-5


def _weight_grad(x, g):
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def gelu_reference(x):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    return x * cdf, cdf


def gelu_grad_reference(x, cdf):
    return cdf + x * ((1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x))


def layernorm_forward_reference(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layernorm_backward_reference(d_out, cache):
    xhat, inv, gamma = cache
    d_gamma = (d_out * xhat).sum(axis=tuple(range(d_out.ndim - 1)))
    d_beta = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gamma
    mean_dxhat = d_xhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv * (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return d_x, d_gamma, d_beta


def attention_forward_reference(x, params, heads, rows=None):
    """Returns (out, cache) like encoder.attention_forward: with `rows`
    (B, r), plain query-row attention, the queries those rows of x."""
    queries = x if rows is None else x[np.arange(len(x))[:, None], rows]
    q = _split_heads(queries @ params["attn.wq"] + params["attn.bq"], heads)
    k = _split_heads(x @ params["attn.wk"] + params["attn.bk"], heads)
    v = _split_heads(x @ params["attn.wv"] + params["attn.bv"], heads)
    scale = 1.0 / np.sqrt(x.shape[-1] // heads)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    weights = softmax_reference(scores)
    merged = _merge_heads(weights @ v)
    out = merged @ params["attn.wo"] + params["attn.bo"]
    return out, (x, q, k, v, weights, merged, scale) + (() if rows is None else (rows,))


def attention_backward_reference(d_out, cache, params, heads):
    """Returns (d_x, grads) like encoder.attention_backward; a query-row
    cache adds d q's input gradient to its rows with np.add.at."""
    x, q, k, v, weights, merged, scale, *cut = cache
    grads = {"attn.wo": _weight_grad(merged, d_out), "attn.bo": d_out.sum(axis=(0, 1))}
    d_context = _split_heads(d_out @ params["attn.wo"].T, heads)
    d_weights = d_context @ v.swapaxes(-1, -2)
    d_v = weights.swapaxes(-1, -2) @ d_context
    inner = (d_weights * weights).sum(axis=-1, keepdims=True)
    d_scores = weights * (d_weights - inner)
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.swapaxes(-1, -2) @ q) * scale
    d_x = np.zeros_like(x)
    for name, dh in (("q", d_q), ("k", d_k), ("v", d_v)):
        flat = _merge_heads(dh)
        if name == "q" and cut:
            at = (np.arange(len(x))[:, None], cut[0])
            grads["attn.wq"] = _weight_grad(x[at], flat)
            np.add.at(d_x, at, flat @ params["attn.wq"].T)
        else:
            grads[f"attn.w{name}"] = _weight_grad(x, flat)
            d_x += flat @ params[f"attn.w{name}"].T
        grads[f"attn.b{name}"] = flat.sum(axis=(0, 1))
    return d_x, grads


def mlp_forward_reference(x, params):
    pre = x @ params["mlp.w1"] + params["mlp.b1"]
    act, cdf = gelu_reference(pre)
    return act @ params["mlp.w2"] + params["mlp.b2"], (x, pre, cdf, act)


def mlp_backward_reference(d_out, cache, params):
    x, pre, cdf, act = cache
    grads = {"mlp.w2": _weight_grad(act, d_out), "mlp.b2": d_out.sum(axis=(0, 1))}
    d_pre = (d_out @ params["mlp.w2"].T) * gelu_grad_reference(pre, cdf)
    grads["mlp.w1"] = _weight_grad(x, d_pre)
    grads["mlp.b1"] = d_pre.sum(axis=(0, 1))
    return d_pre @ params["mlp.w1"].T, grads


def encoder_forward_reference(x, layers, heads, rows=None):
    """Pre-norm residual stack; returns (out, per-layer caches). With
    `rows` (B, r) the last block is plain query-row attention at those
    rows, and the output is theirs."""
    at = None if rows is None else (np.arange(len(x))[:, None], rows)
    caches = []
    for i, params in enumerate(layers):
        query_rows = rows if i == len(layers) - 1 else None
        normed1, ln1 = layernorm_forward_reference(x, params["ln1.gamma"], params["ln1.beta"])
        attn_out, attn = attention_forward_reference(normed1, params, heads, query_rows)
        mid = (x if query_rows is None else x[at]) + attn_out
        normed2, ln2 = layernorm_forward_reference(mid, params["ln2.gamma"], params["ln2.beta"])
        mlp_out, mlp = mlp_forward_reference(normed2, params)
        x = mid + mlp_out
        caches.append((ln1, attn, ln2, mlp))
    return (x if rows is None or layers else x[at]), caches


def encoder_backward_reference(d_out, caches, layers, heads):
    """Returns (d_input, per-layer grads) like encoder.encoder_backward; a
    query-row block adds its residual's gradient to its rows with
    np.add.at."""
    d_x = d_out
    all_grads = [dict() for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        ln1, attn, ln2, mlp = caches[i]
        d_normed2, grads = mlp_backward_reference(d_x, mlp, layers[i])
        d_mid, all_grads[i]["ln2.gamma"], all_grads[i]["ln2.beta"] = layernorm_backward_reference(d_normed2, ln2)
        d_mid = d_mid + d_x
        all_grads[i].update(grads)
        d_normed1, grads = attention_backward_reference(d_mid, attn, layers[i], heads)
        all_grads[i].update(grads)
        d_from_ln1, all_grads[i]["ln1.gamma"], all_grads[i]["ln1.beta"] = layernorm_backward_reference(d_normed1, ln1)
        if len(attn) > 7:
            residual = np.zeros(d_from_ln1.shape)
            np.add.at(residual, (np.arange(len(residual))[:, None], attn[7]), d_mid)
            d_mid = residual
        d_x = d_mid + d_from_ln1
    return d_x, all_grads


def embed_batch(params, layout, indices, stats, meta, mask_positions=None):
    """Whole-batch encoder input: `embedder.table_rows` then
    `embedder.embed_rows` over every window at once. Returns (x (B, Seq, D),
    table rows (B, Seq) with the CLS sentinel at 0, pre-mask targets (B, m)
    or None)."""
    from motionprim.embedder import embed_rows, table_rows

    rows, mask_targets = table_rows(params, layout, indices, mask_positions)
    return embed_rows(params, layout, rows, stats, meta), rows, mask_targets


def read_log(path):
    """The records of a line-delimited JSON training log."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ---------------------------------------------------------------------------
# Parameter init written out tensor by tensor: the reference the name-driven
# init in motionprim.model must reproduce bit for bit

_INIT_STD = 0.02


def init_encoder_params(depth, D, H, seed=0):
    """`depth` per-layer parameter dicts from one generator: LN scales 1 /
    offsets 0, linear weights ~ N(0, 0.02^2), biases 0."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        layers.append(
            {
                "ln1.gamma": np.ones(D),
                "ln1.beta": np.zeros(D),
                "attn.wq": rng.normal(0.0, _INIT_STD, size=(D, D)),
                "attn.bq": np.zeros(D),
                "attn.wk": rng.normal(0.0, _INIT_STD, size=(D, D)),
                "attn.bk": np.zeros(D),
                "attn.wv": rng.normal(0.0, _INIT_STD, size=(D, D)),
                "attn.bv": np.zeros(D),
                "attn.wo": rng.normal(0.0, _INIT_STD, size=(D, D)),
                "attn.bo": np.zeros(D),
                "ln2.gamma": np.ones(D),
                "ln2.beta": np.zeros(D),
                "mlp.w1": rng.normal(0.0, _INIT_STD, size=(D, H)),
                "mlp.b1": np.zeros(H),
                "mlp.w2": rng.normal(0.0, _INIT_STD, size=(H, D)),
                "mlp.b2": np.zeros(D),
            }
        )
    return layers


def init_params(config, seed=0):
    """Every tensor of `init_model(config, seed)`, in checkpoint order: eight
    component seeds from the run seed, in the order embed, stat, adapter,
    pos, encoder, MAE head, CLS head, codebook."""
    K, D = config.codebook_size, config.model_dim
    state = np.random.SeedSequence(seed).generate_state(8)
    embed_rng, stat_rng, adapter_rng, pos_rng = (np.random.default_rng(int(s)) for s in state[:4])
    enc = init_encoder_params(config.depth, D, config.mlp_hidden, int(state[4]))
    head_rng = np.random.default_rng(int(state[5]))
    cls_rng = np.random.default_rng(int(state[6]))
    codebook_rng = np.random.default_rng(int(state[7]))
    params = {
        "embed.rows": embed_rng.normal(0.0, _INIT_STD, size=(K + 3, D)),
        "embed.cls_vector": embed_rng.normal(0.0, _INIT_STD, size=D),
        "stat.weight": stat_rng.normal(0.0, _INIT_STD, size=(D, 2)),
        "stat.bias": np.zeros(D),
        "adapter.weight": adapter_rng.normal(0.0, _INIT_STD, size=(D, config.meta_dim)),
        "adapter.bias": np.zeros(D),
        "pos.rows": pos_rng.normal(0.0, _INIT_STD, size=(config.segments_per_channel + 3, D)),
        "mae.weight": head_rng.normal(0.0, _INIT_STD, size=(K, D)),
        "mae.bias": np.zeros(K),
        "cls_head.weight": cls_rng.normal(0.0, _INIT_STD, size=(config.num_classes, D)),
        "cls_head.bias": np.zeros(config.num_classes),
        "codebook": codebook_rng.normal(0.0, 1.0 / np.sqrt(config.segment_len), size=(K, config.segment_len)),
    }
    for i, layer in enumerate(enc):
        for key, value in layer.items():
            params[f"enc.{i}.{key}"] = value
    return params


def reinit_cls_head_params(config, num_classes, seed=0):
    """The fresh head of `reinit_cls_head(model, num_classes, seed)`."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]).generate_state(1)[0])
    return {
        "cls_head.weight": rng.normal(0.0, _INIT_STD, size=(num_classes, config.model_dim)),
        "cls_head.bias": np.zeros(num_classes),
    }
