import numpy as np
import pytest
import scipy.special

import oracles
from motionprim.encoder import (
    EncoderConfig,
    attention_backward,
    attention_forward,
    encoder_backward,
    encoder_forward,
    gelu,
    gelu_grad,
    grad_check,
    init_encoder_params,
    layernorm_forward,
    mlp_backward,
    mlp_forward,
    softmax,
)
from motionprim.errors import ConfigError, DataError, NumericError

TINY = EncoderConfig(depth=2, heads=2, model_dim=8, mlp_ratio=2.0)


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
    probs = softmax(scores)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    shifted = softmax(scores + 100.0)
    np.testing.assert_allclose(probs, shifted, atol=1e-12)
    assert np.all(probs > 0)


def test_attention_matches_loop_oracle():
    config = EncoderConfig(depth=1, heads=2, model_dim=4)
    params = init_encoder_params(config, seed=5)[0]
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 4))
    out, _ = attention_forward(x, params, config)
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
    config = EncoderConfig(depth=1, heads=2, model_dim=4, mlp_ratio=2.0)
    params = init_encoder_params(config, seed=7)[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 4))
    out, _ = mlp_forward(x, params)
    hidden, _ = gelu(x @ params["mlp.w1"] + params["mlp.b1"])
    np.testing.assert_allclose(out, hidden @ params["mlp.w2"] + params["mlp.b2"], atol=1e-13)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize(
    "config, batch",
    [
        # the acceptance/bench model: B=50 windows of 37 tokens
        (EncoderConfig(depth=2, heads=4, model_dim=64, mlp_ratio=2.0), 50),
        # the default ModelConfig encoder
        (EncoderConfig(), 6),
    ],
    ids=["bench", "default"],
)
def test_gemm_attention_and_mlp_match_einsum_oracle(config, batch):
    # every layer of the stack, with weights at 1/sqrt(D) scale so attention
    # is far from uniform; values and all gradients within 1e-12 relative
    rng = np.random.default_rng(config.model_dim)
    D = config.model_dim
    rescale = 1.0 / np.sqrt(D) / 0.02
    for params in init_encoder_params(config, seed=1):
        for key in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp.w1", "mlp.w2"):
            params[key] = params[key] * rescale
        x = rng.normal(size=(batch, 37, D))
        d_out = rng.normal(size=(batch, 37, D))
        out, cache = attention_forward(x, params, config)
        want, want_cache = oracles.attention_forward_einsum(x, params, config.heads)
        assert _rel_err(out, want) <= 1e-12
        d_x, grads = attention_backward(d_out, cache, params, config)
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
        d_x, grads = mlp_backward(d_out, cache, params)
        want_dx, want_grads = oracles.mlp_backward_einsum(d_out, want_cache, params)
        assert _rel_err(d_x, want_dx) <= 1e-12
        assert set(grads) == set(want_grads)
        for name in grads:
            assert _rel_err(grads[name], want_grads[name]) <= 1e-12, name


# ---------------------------------------------------------------------------
# stack


def test_init_conventions():
    layers = init_encoder_params(TINY, seed=0)
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
    config = EncoderConfig(depth=0, heads=2, model_dim=8)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 8))
    out, _ = encoder_forward(x, [], config)
    np.testing.assert_array_equal(out, x)


def test_forward_rejects_bad_shapes_and_nan():
    layers = init_encoder_params(TINY, seed=2)
    with pytest.raises(DataError):
        encoder_forward(np.zeros((2, 4, 7)), layers, TINY)
    with pytest.raises(ConfigError):
        encoder_forward(np.zeros((2, 4, 8)), layers[:1], TINY)
    bad = np.zeros((1, 3, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="input"):
        encoder_forward(bad, layers, TINY)
    # the input check runs before any layer, at depth 0 too
    with pytest.raises(NumericError, match="input"):
        encoder_forward(bad, [], EncoderConfig(depth=0, heads=2, model_dim=8))


def test_forward_deterministic():
    layers = init_encoder_params(TINY, seed=3)
    x = np.random.default_rng(7).normal(size=(2, 5, 8))
    a, _ = encoder_forward(x, layers, TINY)
    b, _ = encoder_forward(x, layers, TINY)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# gradients


def scalarize(config, probe):
    """Wrap encoder forward+backward into the grad_check contract: scalar
    loss = <probe, output>, gradients for x and every layer tensor."""

    def fn(point):
        layers = [
            {key: point[f"layer{i}.{key}"] for key in point_keys}
            for i in range(config.depth)
        ]
        out, cache = encoder_forward(point["x"], layers, config)
        loss = float(np.sum(out * probe))
        d_x, layer_grads = encoder_backward(probe.copy(), cache, layers)
        grads = {"x": d_x}
        for i, g in enumerate(layer_grads):
            for key, val in g.items():
                grads[f"layer{i}.{key}"] = val
        return loss, grads

    point_keys = list(init_encoder_params(config, seed=0)[0])
    return fn


def test_encoder_backward_matches_fd():
    rng = np.random.default_rng(9)
    config = EncoderConfig(depth=1, heads=2, model_dim=6, mlp_ratio=1.0)
    layers = init_encoder_params(config, seed=10)
    x = rng.normal(size=(2, 3, 6))
    probe = rng.normal(size=(2, 3, 6))
    point = {"x": x}
    for key, val in layers[0].items():
        point[f"layer0.{key}"] = val
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
