import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import oracles
from motionprim import encoder
from motionprim.encoder import (
    EncoderCache,
    attention_backward,
    attention_forward,
    encoder_backward,
    encoder_forward,
    gelu,
    gelu_grad,
    grad_check,
    layernorm_backward,
    layernorm_forward,
    mlp_backward,
    mlp_forward,
)
from motionprim.errors import ConfigError, DataError, NumericError
from motionprim.model import ModelConfig, encoder_layers, init_model
from motionprim.quantizer import nearest_prototypes

TINY = ModelConfig(depth=2, heads=2, model_dim=8, mlp_ratio=2.0)


def init_params(config, seed):
    return init_model(config, seed=seed).params


def init_layers(config, seed):
    return encoder_layers(init_params(config, seed), config.depth)


# ---------------------------------------------------------------------------
# pieces


def test_gelu_exact_erf_form():
    x = np.linspace(-4, 4, 41)
    want = np.array([oracles.gelu_scalar(v) for v in x])
    value, cdf = gelu(x)
    np.testing.assert_allclose(value, want, atol=1e-15)
    np.testing.assert_allclose(cdf, 0.5 * (1 + scipy.special.erf(x / np.sqrt(2))), atol=1e-16)
    # sanity anchors
    assert gelu(np.array([0.0]))[0][0] == 0.0
    assert gelu(np.array([10.0]))[0][0] == pytest.approx(10.0, abs=1e-9)


def test_gelu_value_is_bitwise_the_erf_formula():
    # x * Phi(x) with Phi cached equals the uncached x * 0.5 * (1 + erf(x / sqrt 2))
    x = np.random.default_rng(3).normal(scale=3.0, size=10_000)
    uncached = x * 0.5 * (1.0 + scipy.special.erf(x * (1.0 / np.sqrt(2.0))))
    np.testing.assert_array_equal(gelu(x)[0], uncached)


def test_gelu_grad_matches_finite_differences():
    x0 = np.linspace(-3, 3, 13)
    for v in x0:
        fd = oracles.central_difference(lambda a: float(gelu(a)[0][0]), np.array([v]))
        x = np.array([v])
        assert gelu_grad(x, gelu(x)[1])[0] == pytest.approx(fd[0], abs=1e-8)


def test_gelu_grad_closed_form():
    x = np.linspace(-2, 2, 9)
    phi = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    Phi = 0.5 * (1 + scipy.special.erf(x / np.sqrt(2)))
    np.testing.assert_allclose(gelu_grad(x, gelu(x)[1]), Phi + x * phi, atol=1e-14)


def test_layernorm_matches_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 6))
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    out, _ = layernorm_forward(x, gamma, beta)
    for b in range(2):
        for s in range(3):
            np.testing.assert_allclose(
                out[b, s], oracles.layernorm(x[b, s], gamma, beta), atol=1e-12
            )


def test_softmax_rows_and_shift_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(2, 2, 4, 4))
    probs = oracles.softmax(scores)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    shifted = oracles.softmax(scores + 100.0)
    np.testing.assert_allclose(probs, shifted, atol=1e-12)
    assert np.all(probs > 0)


def test_attention_matches_loop_oracle():
    config = ModelConfig(depth=1, heads=2, model_dim=4)
    params = init_layers(config, seed=5)[0]
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 4))
    out, _ = attention_forward(x, params, config.heads)
    want = oracles.attention_single(
        x[0],
        params["attn.wq"], params["attn.bq"],
        params["attn.wk"], params["attn.bk"],
        params["attn.wv"], params["attn.bv"],
        params["attn.wo"], params["attn.bo"],
        heads=2,
    )
    np.testing.assert_allclose(out[0], want, atol=1e-12)


def test_mlp_matches_manual():
    config = ModelConfig(depth=1, heads=2, model_dim=4, mlp_ratio=2.0)
    params = init_layers(config, seed=7)[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 4))
    out, _ = mlp_forward(x, params)
    hidden, _ = gelu(x @ params["mlp.w1"] + params["mlp.b1"])
    np.testing.assert_allclose(out, hidden @ params["mlp.w2"] + params["mlp.b2"], atol=1e-13)


def layernorm_backward_with_sums(d_out, cache):
    """The per-window kernel plus its sums over windows, returned as the
    oracles return them: (d_x, d_gamma, d_beta)."""
    sums = encoder._layernorm_param_grads(d_out, cache[0], "ln")
    return layernorm_backward(d_out, cache), sums["ln.gamma"], sums["ln.beta"]


def attention_backward_with_sums(d_out, cache, params, heads):
    """(d_x, weight and bias gradients), as the oracles return them."""
    d_x, d_qkv = attention_backward(d_out, cache, params, heads)
    return d_x, encoder._attention_param_grads(cache[0], cache[5], d_out, d_qkv)


def mlp_backward_with_sums(d_out, cache, params):
    """(d_x, weight and bias gradients), as the oracles return them."""
    d_x, d_pre = mlp_backward(d_out, cache, params)
    return d_x, encoder._mlp_param_grads(cache[0], cache[3], d_out, d_pre)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# the acceptance/bench model (B=50 windows of 37 tokens) and the default
# ModelConfig encoder
SHAPES = pytest.mark.parametrize(
    "config, batch",
    [
        (ModelConfig(depth=2, heads=4, model_dim=64, mlp_ratio=2.0), 50),
        (ModelConfig(), 6),
    ],
    ids=["bench", "default"],
)


@SHAPES
def test_gemm_attention_and_mlp_match_einsum_oracle(config, batch):
    # every layer of the stack, with weights at 1/sqrt(D) scale so attention
    # is far from uniform; values and all gradients within 1e-12 relative
    rng = np.random.default_rng(config.model_dim)
    D = config.model_dim
    rescale = 1.0 / np.sqrt(D) / 0.02
    for params in init_layers(config, seed=1):
        for key in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.w1", "mlp.w2"):
            params[key] = params[key] * rescale
        x = rng.normal(size=(batch, 37, D))
        d_out = rng.normal(size=(batch, 37, D))
        out, cache = attention_forward(x, params, config.heads)
        want, want_cache = oracles.attention_forward_einsum(x, params, config.heads)
        assert _rel_err(out, want) <= 1e-12
        d_x, grads = attention_backward_with_sums(d_out, cache, params, config.heads)
        want_dx, want_grads = oracles.attention_backward_einsum(d_out, want_cache, params, config.heads)
        assert _rel_err(d_x, want_dx) <= 1e-12
        assert set(grads) == set(want_grads)
        # the key bias shifts every score of a row alike, which softmax
        # ignores: its true gradient is 0 and both forms return rounding noise
        bk_scale = np.max(np.abs(want_grads["attn.wk"]))
        assert np.max(np.abs(grads.pop("attn.bk"))) <= 1e-12 * bk_scale
        assert np.max(np.abs(want_grads.pop("attn.bk"))) <= 1e-12 * bk_scale
        for name in grads:
            assert _rel_err(grads[name], want_grads[name]) <= 1e-12, name

        out, cache = mlp_forward(x, params)
        want, want_cache = oracles.mlp_forward_einsum(x, params)
        assert _rel_err(out, want) <= 1e-12
        d_x, grads = mlp_backward_with_sums(d_out, cache, params)
        want_dx, want_grads = oracles.mlp_backward_einsum(d_out, want_cache, params)
        assert _rel_err(d_x, want_dx) <= 1e-12
        assert set(grads) == set(want_grads)
        for name in grads:
            assert _rel_err(grads[name], want_grads[name]) <= 1e-12, name


def random_layers(config, seed):
    """Encoder layers with every tensor random: weights at 1/sqrt(fan-in)
    scale, layer-norm scales near 1 and nonzero biases and offsets, so a
    dropped or misordered term changes the result."""
    rng = np.random.default_rng(seed)
    layers = init_layers(config, seed=seed)
    for params in layers:
        for key, value in params.items():
            if key.endswith("gamma"):
                params[key] = 1.0 + 0.1 * rng.normal(size=value.shape)
            elif value.ndim == 1:
                params[key] = 0.1 * rng.normal(size=value.shape)
            else:
                params[key] = rng.normal(size=value.shape) / np.sqrt(value.shape[0])
    return layers


def assert_bitwise(got, want, where=""):
    """Equal values and structure through tuples, lists and dicts; floats
    must match exactly."""
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            assert_bitwise(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bitwise(g, w, f"{where}[{i}]")
    else:
        assert np.array_equal(got, want), where


@SHAPES
def test_kernels_bitwise_equal_reference_expressions(config, batch):
    # the in-place kernels keep the operation order of the plain expressions
    # in oracles, so every value, cache entry and gradient is the same bits
    rng = np.random.default_rng(config.model_dim + 1)
    layers = random_layers(config, seed=2)
    S, D = 37, config.model_dim
    x = rng.normal(size=(batch, S, D))
    d_out = rng.normal(size=(batch, S, D))
    scores = 4.0 * rng.normal(size=(batch, config.heads, S, S))
    assert_bitwise(oracles.softmax(scores), oracles.softmax_reference(scores), "softmax")
    pre = 3.0 * rng.normal(size=(batch, S, config.mlp_hidden))
    assert_bitwise(gelu(pre), oracles.gelu_reference(pre), "gelu")
    cdf = oracles.gelu_reference(pre)[1]
    assert_bitwise(gelu_grad(pre, cdf), oracles.gelu_grad_reference(pre, cdf), "gelu_grad")

    for i, params in enumerate(layers):
        ln = layernorm_forward(x, params["ln1.gamma"], params["ln1.beta"])
        want_ln = oracles.layernorm_forward_reference(x, params["ln1.gamma"], params["ln1.beta"])
        assert_bitwise(ln, want_ln, f"layer{i}.layernorm_forward")
        assert_bitwise(layernorm_backward_with_sums(d_out, ln[1]), oracles.layernorm_backward_reference(d_out, want_ln[1]), f"layer{i}.layernorm_backward")

        attn = attention_forward(x, params, config.heads)
        want_attn = oracles.attention_forward_reference(x, params, config.heads)
        assert_bitwise(attn, want_attn, f"layer{i}.attention_forward")
        assert_bitwise(
            attention_backward_with_sums(d_out, attn[1], params, config.heads),
            oracles.attention_backward_reference(d_out, want_attn[1], params, config.heads),
            f"layer{i}.attention_backward",
        )

        mlp = mlp_forward(x, params)
        want_mlp = oracles.mlp_forward_reference(x, params)
        assert_bitwise(mlp, want_mlp, f"layer{i}.mlp_forward")
        assert_bitwise(mlp_backward_with_sums(d_out, mlp[1], params), oracles.mlp_backward_reference(d_out, want_mlp[1], params), f"layer{i}.mlp_backward")

    out, cache = encoder_forward(x, layers, config.heads)
    want_out, want_caches = oracles.encoder_forward_reference(x, layers, config.heads)
    assert_bitwise(out, want_out, "encoder_forward")
    assert_bitwise(joined_caches(cache), want_caches, "encoder_forward cache")
    assert_bitwise(
        encoder_backward(d_out, cache, layers),
        oracles.encoder_backward_reference(d_out, want_caches, layers, config.heads),
        "encoder_backward",
    )


def joined_caches(cache):
    """Per layer, the shards' kernel caches joined along the window axis:
    the caches of one unsharded pass. Per-window entries have three or more
    axes; parameters and the attention scale are shared by all shards."""

    def join(entries):
        if isinstance(entries[0], np.ndarray) and entries[0].ndim >= 3:
            return np.concatenate(entries)
        return entries[0]

    return [
        tuple(
            tuple(join([shard[k][e] for shard in shards]) for e in range(len(kernel)))
            for k, kernel in enumerate(shards[0])
        )
        for _, shards in cache.layers
    ]


@pytest.mark.parametrize("floor", [8, 1], ids=["floor8", "floor1"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 7, 9, 16, 17, 50])
def test_sharded_encoder_bitwise_equals_reference(shards, batch, cpus, floor):
    # even and uneven splits, and batches below the floor, which run as one
    # shard: output, caches and every gradient are the one-pass bits
    shards(cpus, floor)
    config = ModelConfig(depth=2, heads=4, model_dim=64, mlp_ratio=2.0)
    layers = random_layers(config, seed=4)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 31, config.model_dim))
    d_out = rng.normal(size=(batch, 31, config.model_dim))
    out, cache = encoder_forward(x, layers, config.heads)
    assert len(cache.slices) == max(1, min(cpus, batch // floor))
    want_out, want_caches = oracles.encoder_forward_reference(x, layers, config.heads)
    assert_bitwise(out, want_out, "encoder_forward")
    assert_bitwise(joined_caches(cache), want_caches, "encoder_forward cache")
    want_reduced = [tuple(c[k][e] for k, e in encoder._REDUCED) for c in want_caches]
    assert_bitwise([reduced for reduced, _ in cache.layers], want_reduced, "whole-batch arrays")
    assert_bitwise(
        encoder_backward(d_out, cache, layers),
        oracles.encoder_backward_reference(d_out, want_caches, layers, config.heads),
        "encoder_backward",
    )


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 7, 31, 33, 65])
def test_forward_only_shards_bitwise_equal_reference(shards, monkeypatch, batch, cpus):
    # one group of FORWARD_CHUNK windows after another, each split into
    # shards, keeps no layer cache and gives the one-pass output bits
    shards(cpus)
    config = ModelConfig(depth=2, heads=4, model_dim=64, mlp_ratio=2.0)
    layers = random_layers(config, seed=4)
    x = np.random.default_rng(batch).normal(size=(batch, 31, config.model_dim))
    groups = []
    real = encoder._shard_slices
    monkeypatch.setattr(encoder, "_shard_slices", lambda n: groups.append(n) or real(n))
    out, cache = encoder_forward(x, layers, config.heads, need_backward=False)
    chunk = encoder.FORWARD_CHUNK
    assert groups == [min(chunk, batch - start) for start in range(0, batch, chunk)]
    assert cache.layers == []
    assert_bitwise(out, oracles.encoder_forward_reference(x, layers, config.heads)[0], "encoder_forward")


def test_sharded_overflow_names_the_lowest_failing_layer(shards):
    # the first 32 windows overflow only after layer 1 (layer 0's MLP bias
    # lifts them to 6e307), the last 32 already in layer 0 (their layer
    # norm's sum overflows): they are different shards of a training pass
    # and different FORWARD_CHUNK groups of a forward-only one, and every
    # pass names layer 0
    config = ModelConfig(depth=2, heads=4, model_dim=64, mlp_ratio=2.0)
    layers = random_layers(config, seed=5)
    layers[0]["mlp.b2"] = np.full(config.model_dim, 6e307)
    x = np.random.default_rng(6).normal(size=(64, 31, config.model_dim))
    x[32:] *= 1e308 / np.abs(x[32:]).max()
    for cpus in (1, 2):
        shards(cpus)
        for need_backward in (True, False):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="layer 0$"):
                encoder_forward(x, layers, config.heads, need_backward)
            # the first 32 windows alone fail after layer 1
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="layer 1$"):
                encoder_forward(x[:32], layers, config.heads, need_backward)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_sharded_passes(shards):
    # the child of a fork made after the pool exists gets a pool of its own
    # instead of waiting forever on the parent's threads
    shards(2)
    config = ModelConfig(depth=1, heads=2, model_dim=8)
    layers = init_layers(config, seed=1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 5, 8))
    # more than one GEMM block (2^17 / 64 = 2048 rows), so the scan is dealt
    segments, prototypes = rng.normal(size=(5000, 8)), rng.normal(size=(64, 8))

    def passes():
        return (
            encoder_forward(x, layers, config.heads)[0],
            encoder_forward(x, layers, config.heads, need_backward=False)[0],
            *nearest_prototypes(segments, prototypes),
        )

    want = passes()
    pid = os.fork()
    if pid == 0:
        got = passes()
        os._exit(0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not finish its sharded passes in 30 s")


def test_a_call_made_on_a_pool_thread_runs_its_tasks_inline():
    # a pool task that reaches a sharded pass or a pooled scan would wait
    # forever on the pool's one busy thread if it submitted its own tasks;
    # a new process keeps a stuck pool out of this one
    script = (
        "import threading\n"
        "from motionprim import _parallel\n"
        "_parallel.cpus = lambda: 2  # a pool of one thread\n"
        "name = lambda: threading.current_thread().name\n"
        "nested = lambda: (name(), _parallel.run_parallel([name, name, name]))\n"
        "caller, (pool_thread, inner) = _parallel.run_parallel([name, nested])\n"
        "print(pool_thread != caller, set(inner) == {pool_thread})\n"
    )
    src = str(Path(encoder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def arrays_in(obj):
    """Every ndarray reachable from obj through tuples, lists, dicts and
    an EncoderCache, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, EncoderCache):
        obj = obj.layers
    if isinstance(obj, dict):
        obj = [obj[key] for key in sorted(obj)]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in arrays_in(item)]
    return []


def call_keeps_inputs(fn, *args):
    """Run fn(*args) and assert that no array among the arguments changed."""
    before = [a.copy() for a in arrays_in(args)]
    result = fn(*args)
    after = arrays_in(args)
    assert len(after) == len(before)
    for i, (a, b) in enumerate(zip(after, before)):
        assert np.array_equal(a, b), f"{fn.__name__} changed input array {i}"
    return result


@SHAPES
def test_no_encoder_function_changes_its_inputs(shards, config, batch):
    rng = np.random.default_rng(7)
    layers = random_layers(config, seed=3)
    params = layers[0]
    S, D = 37, config.model_dim
    x = rng.normal(size=(batch, S, D))
    d_out = rng.normal(size=(batch, S, D))
    pre = rng.normal(size=(batch, S, config.mlp_hidden))

    call_keeps_inputs(oracles.softmax, rng.normal(size=(batch, config.heads, S, S)))
    _, cdf = call_keeps_inputs(gelu, pre)
    call_keeps_inputs(gelu_grad, pre, cdf)
    _, ln_cache = call_keeps_inputs(layernorm_forward, x, params["ln1.gamma"], params["ln1.beta"])
    call_keeps_inputs(layernorm_backward, d_out, ln_cache)
    call_keeps_inputs(encoder._layernorm_param_grads, d_out, ln_cache[0], "ln1")
    _, attn_cache = call_keeps_inputs(attention_forward, x, params, config.heads)
    _, d_qkv = call_keeps_inputs(attention_backward, d_out, attn_cache, params, config.heads)
    call_keeps_inputs(encoder._attention_param_grads, attn_cache[0], attn_cache[5], d_out, d_qkv)
    _, mlp_cache = call_keeps_inputs(mlp_forward, x, params)
    _, d_pre = call_keeps_inputs(mlp_backward, d_out, mlp_cache, params)
    call_keeps_inputs(encoder._mlp_param_grads, mlp_cache[0], mlp_cache[3], d_out, d_pre)
    call_keeps_inputs(encoder_forward, x, layers, config.heads, False)
    for cpus in (1, 2):  # one shard, then two on two threads
        shards(cpus, floor=1)
        _, cache = call_keeps_inputs(encoder_forward, x, layers, config.heads)
        assert len(cache.slices) == cpus
        call_keeps_inputs(encoder_backward, d_out, cache, layers)


# ---------------------------------------------------------------------------
# stack


def test_init_conventions():
    layers = init_layers(TINY, seed=0)
    assert len(layers) == 2
    layer = layers[0]
    np.testing.assert_array_equal(layer["ln1.gamma"], np.ones(8))
    np.testing.assert_array_equal(layer["ln1.beta"], np.zeros(8))
    np.testing.assert_array_equal(layer["attn.bq"], np.zeros(8))
    np.testing.assert_array_equal(layer["mlp.b2"], np.zeros(8))
    assert layer["mlp.w1"].shape == (8, 16)
    assert layer["mlp.w2"].shape == (16, 8)
    weights = np.concatenate([layers[i][k].ravel() for i in range(2) for k in layers[i] if k.endswith(("wq", "wk", "wv", "wo", "w1", "w2"))])
    assert weights.std() == pytest.approx(0.02, rel=0.1)


def test_depth_zero_is_identity_prenorm():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 8))
    out, _ = encoder_forward(x, [], 2)
    np.testing.assert_array_equal(out, x)


def test_forward_rejects_bad_shapes_and_nan():
    layers = init_layers(TINY, seed=2)
    with pytest.raises(DataError):
        encoder_forward(np.zeros((2, 4, 7)), layers, TINY.heads)
    with pytest.raises(DataError):
        encoder_forward(np.zeros((4, 8)), layers, TINY.heads)
    for heads in (0, 3):
        with pytest.raises(ConfigError, match="heads"):
            encoder_forward(np.zeros((2, 4, 8)), layers, heads)
    bad = np.zeros((1, 3, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="input"):
        encoder_forward(bad, layers, TINY.heads)
    # the input check runs before any layer, at depth 0 too
    with pytest.raises(NumericError, match="input"):
        encoder_forward(bad, [], TINY.heads)


def test_forward_deterministic():
    layers = init_layers(TINY, seed=3)
    x = np.random.default_rng(7).normal(size=(2, 5, 8))
    a, _ = encoder_forward(x, layers, TINY.heads)
    b, _ = encoder_forward(x, layers, TINY.heads)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# gradients


def scalarize(config, probe):
    """Wrap encoder forward+backward into the grad_check contract: scalar
    loss = <probe, output>, gradients for x and every layer tensor."""

    def fn(point):
        layers = encoder_layers(point, config.depth)
        out, cache = encoder_forward(point["x"], layers, config.heads)
        loss = float(np.sum(out * probe))
        d_x, layer_grads = encoder_backward(probe.copy(), cache, layers)
        grads = {"x": d_x}
        for i, g in enumerate(layer_grads):
            for key, val in g.items():
                grads[f"enc.{i}.{key}"] = val
        return loss, grads

    return fn


def test_encoder_backward_matches_fd():
    rng = np.random.default_rng(9)
    config = ModelConfig(depth=1, heads=2, model_dim=6, mlp_ratio=1.0)
    point = {name: t for name, t in init_params(config, seed=10).items() if name.startswith("enc.")}
    point["x"] = rng.normal(size=(2, 3, 6))
    probe = rng.normal(size=(2, 3, 6))
    report = grad_check(scalarize(config, probe), point, tolerance=1e-5, max_coords_per_tensor=40, seed=0)
    assert report.passed, report.max_rel_err


def test_grad_check_catches_broken_gradient():
    # mutation check: a wrong analytic gradient must fail
    def fn(point):
        x = point["x"]
        return float(np.sum(x**2)), {"x": 3.0 * x}  # should be 2x

    report = grad_check(fn, {"x": np.linspace(0.5, 2, 6)}, tolerance=1e-4)
    assert not report.passed
    assert report.worst.name == "x"


def test_grad_check_passes_exact_quadratic():
    def fn(point):
        x = point["x"]
        return float(np.sum(x**2)), {"x": 2.0 * x}

    report = grad_check(fn, {"x": np.linspace(-1, 1, 11)}, tolerance=1e-6)
    assert report.passed
    assert len(report.entries) == 11


def test_grad_check_subsamples_large_tensors():
    def fn(point):
        x = point["x"]
        return float(np.sum(x**2)), {"x": 2.0 * x}

    report = grad_check(fn, {"x": np.random.default_rng(0).normal(size=500)}, max_coords_per_tensor=50)
    assert len(report.entries) == 50


def test_grad_check_restores_point():
    x0 = np.linspace(0.1, 1, 5)

    def fn(point):
        x = point["x"]
        return float(np.sum(x**3)), {"x": 3.0 * x**2}

    point = {"x": x0.copy()}
    grad_check(fn, point)
    np.testing.assert_array_equal(point["x"], x0)
