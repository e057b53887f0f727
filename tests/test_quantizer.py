from dataclasses import replace

import numpy as np
import pytest

import oracles
from motionprim.encoder import grad_check
from motionprim.errors import ConfigError, DataError
from motionprim.model import (
    LossWeights,
    ModelConfig,
    backward,
    forward,
    init_model,
    loss_closure,
    tiny_batch,
    tiny_config,
)
from motionprim import quantizer
from motionprim.quantizer import KMEANS_ITERS, init_codebook, nearest_prototypes, usage_report

VQ_ONLY = LossWeights(0.0, 0.0, 1.0)


def make_prototypes(k=8, length=6, seed=0):
    return np.random.default_rng(seed).normal(size=(k, length))


# ---------------------------------------------------------------------------
# nearest-prototype assignment


def test_quantize_matches_exhaustive_scan():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(2, 40))
        length = int(rng.integers(2, 30))
        protos = rng.normal(size=(k, length))
        segs = rng.normal(size=(3, length))
        idx, dist = nearest_prototypes(segs, protos)
        for i in range(3):
            want_idx, want_dist = oracles.nearest_scan(segs[i], protos)
            assert idx[i] == want_idx
            assert dist[i] == pytest.approx(want_dist, rel=1e-12)


def test_tie_breaks_to_lowest_index():
    protos = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    # rows 0 and 2 are identical, both nearest
    idx, _ = nearest_prototypes(np.array([[1.0, 0.1], [0.9, 0.0]]), protos)
    np.testing.assert_array_equal(idx, [0, 0])


def test_quantize_batch_matches_itemwise_and_counts_usage():
    rng = np.random.default_rng(1)
    protos = make_prototypes(k=5, length=4, seed=2)
    segs = rng.normal(size=(40, 4))
    indices, distances = nearest_prototypes(segs, protos)
    for i in range(40):
        single_idx, single_dist = nearest_prototypes(segs[i : i + 1], protos)
        assert indices[i] == single_idx[0]
        assert distances[i] == single_dist[0]
    # a usage report over these assignments counts duplicates
    counts = np.bincount(indices, minlength=5)
    assert counts.sum() == 40
    assert usage_report(counts)[0] == np.count_nonzero(counts)


def test_nearest_prototypes_chunking_invariant():
    # more segments than one GEMM block (2^17 / K = 2048 rows), same answer
    rng = np.random.default_rng(4)
    protos = rng.normal(size=(64, 8))
    segs = rng.normal(size=(5000, 8))
    idx, dist = nearest_prototypes(segs, protos)
    for i in range(0, 5000, 97):
        want_i, want_d = oracles.nearest_scan(segs[i], protos)
        assert idx[i] == want_i
        assert dist[i] == pytest.approx(want_d, rel=1e-12)
    _assert_bitwise_broadcast(segs, protos)


# ---------------------------------------------------------------------------
# the GEMM ranking against adversarial inputs: indices and distances must be
# the broadcast scan's, bit for bit


def _assert_bitwise_broadcast(segs, protos, scan_rows=None):
    idx, dist = nearest_prototypes(segs, protos)
    want_idx, want_dist = oracles.nearest_broadcast(segs, protos, chunk=64)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(dist.view(np.int64), want_dist.view(np.int64))
    rows = range(len(segs)) if scan_rows is None else scan_rows
    assert [idx[i] for i in rows] == [oracles.nearest_scan(segs[i], protos)[0] for i in rows]
    return idx


def test_gemm_scan_duplicated_prototypes_tie_to_lowest_index():
    rng = np.random.default_rng(7)
    protos = rng.normal(size=(40, 12))
    protos[[9, 23, 31]] = protos[5]
    protos[38] = protos[17]
    segs = np.concatenate([
        protos[[5, 9, 17, 23, 38]],
        protos[[5, 17, 31]] + 1e-9 * rng.normal(size=(3, 12)),
        rng.normal(size=(200, 12)),
    ])
    idx = _assert_bitwise_broadcast(segs, protos)
    assert list(idx[:8]) == [5, 5, 17, 5, 17, 5, 17, 5]


def test_gemm_scan_exactly_equidistant_segments():
    # z = s +- e, with s in [1.25, 1.75) and e a multiple of 2^-20 below
    # 1/16: s +- e stays in [1, 2), so it and both differences are exact and
    # the two distances are equal in every summation order, while the GEMM's
    # s.z rounds and splits the tie
    rng = np.random.default_rng(8)
    L, pairs = 50, 200
    centers = rng.uniform(1.25, 1.75, size=(pairs, L))
    offsets = rng.integers(-(2**16), 2**16, size=(pairs, L)) * 2.0**-20
    protos = np.concatenate([centers + offsets, centers - offsets])
    order = rng.permutation(2 * pairs)
    protos = protos[order]
    idx, dist = nearest_prototypes(centers, protos)
    np.testing.assert_array_equal(dist, np.sum(offsets * offsets, axis=1))
    slot = np.argsort(order)  # where each original row went
    np.testing.assert_array_equal(idx, np.minimum(slot[:pairs], slot[pairs:]))
    _assert_bitwise_broadcast(centers, protos, scan_rows=range(0, pairs, 10))


def test_gemm_scan_large_common_offset():
    # norms ~1e3 with differences ~1e-6: the expansion cancels almost every
    # digit, so its ranking is noise and nearly every row takes the rescan
    rng = np.random.default_rng(9)
    L = 50
    offset = rng.normal(size=L) * (1e3 / np.sqrt(L))
    protos = offset + 1e-6 * rng.normal(size=(64, L))
    segs = offset + 1e-6 * rng.normal(size=(600, L))
    _assert_bitwise_broadcast(segs, protos, scan_rows=range(0, 600, 7))


def test_gemm_scan_default_codebook_size():
    # K=1024, L=50, n=4096 mixing random rows, codeword copies, duplicated
    # codewords and near-midpoints between codeword pairs
    rng = np.random.default_rng(10)
    K, L, n = 1024, 50, 4096
    protos = rng.normal(size=(K, L)) / np.sqrt(L)
    protos[rng.choice(K, 64, replace=False)] = protos[rng.choice(K, 64)]
    a, b = rng.choice(K, 512), rng.choice(K, 512)
    segs = np.concatenate([
        rng.normal(size=(n - 1536, L)),
        protos[rng.choice(K, 1024)],
        0.5 * (protos[a] + protos[b]),
    ])
    _assert_bitwise_broadcast(segs, protos, scan_rows=range(0, n, 128))


def test_quantize_shape_mismatch():
    with pytest.raises(DataError):
        nearest_prototypes(np.zeros((2, 5)), make_prototypes(length=6))


def test_nearest_prototypes_rejects_nonfinite_segments():
    # a nan distance never loses an argmin: it would take index 0 silently
    with pytest.raises(DataError, match="finite"):
        nearest_prototypes(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.array([[5.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(DataError, match="finite"):
        nearest_prototypes(np.array([[np.inf, 0.0]]), np.array([[5.0, 5.0], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(2,), (3, 2, 2), ()])
def test_nearest_prototypes_rejects_segments_that_are_not_a_stack(shape):
    # a 3-d input used to die on a bare ValueError while unpacking its shape
    with pytest.raises(DataError, match="segment stack"):
        nearest_prototypes(np.zeros(shape), np.array([[5.0, 5.0], [0.0, 1.0]]))


def test_nearest_prototypes_rejects_nonfinite_prototypes():
    # a nan prototype row would win every argmin
    with pytest.raises(DataError, match="finite"):
        nearest_prototypes(np.array([[0.0, 1.0], [5.0, 5.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# commitment loss


def test_vq_loss_value_and_grads():
    # forward/backward with only the commitment term: the value is
    # ||sg(s) - z||^2 + beta ||s - sg(z)||^2 averaged over segments, and only
    # the first half reaches the prototypes, 2 (z - s) per assigned segment
    rng = np.random.default_rng(5)
    for seed in range(5):
        beta = float(rng.uniform(0.0, 1.0))
        cfg = replace(tiny_config(), beta=beta)
        model = init_model(cfg, seed=seed)
        batch = tiny_batch(seed=seed)
        result = forward(model, batch, VQ_ONLY)
        grads = backward(model, result)
        protos = model.params["codebook"]
        segments = batch.norm_segments.reshape(-1, cfg.segment_len)
        indices = result.indices.reshape(-1)
        n = segments.shape[0]
        want = sum(oracles.commitment_loss(s, protos[k], beta) for s, k in zip(segments, indices)) / n
        assert result.vq_loss == pytest.approx(want, rel=1e-12)
        want_grad = np.zeros_like(protos)
        for s, k in zip(segments, indices):
            want_grad[k] += 2.0 * (protos[k] - s) / n
        np.testing.assert_allclose(grads["codebook"], want_grad, atol=1e-14)
        assert not any(g.any() for name, g in grads.items() if name != "codebook")


def test_vq_loss_grads_match_finite_differences():
    # vary the prototypes with the assignment and the stop-gradient copy
    # frozen, through the production loss closure
    cfg = tiny_config()
    model = init_model(cfg, seed=6)
    batch = tiny_batch(seed=6)
    indices, _ = nearest_prototypes(batch.norm_segments.reshape(-1, cfg.segment_len), model.params["codebook"])
    closure = loss_closure(cfg, batch, VQ_ONLY, None, indices, model.params["codebook"].copy())

    def fn(point):
        loss, grads = closure({**model.params, "codebook": point["codebook"]})
        return loss, {"codebook": grads["codebook"]}

    point = {"codebook": model.params["codebook"].copy()}
    report = grad_check(fn, point, tolerance=1e-6, max_coords_per_tensor=None)
    assert report.passed, report.max_rel_err
    assert len(report.entries) == model.params["codebook"].size


def test_vq_loss_beta_validation():
    with pytest.raises(ConfigError):
        ModelConfig(beta=-0.1)


# ---------------------------------------------------------------------------
# initialization


def test_random_normal_init_statistics():
    length = 64
    protos = init_codebook(256, length, "random-normal", seed=0)
    assert protos.shape == (256, length)
    # entries are N(0, 1/L): std 1/8 here
    assert protos.std() == pytest.approx(1.0 / np.sqrt(length), rel=0.05)
    assert abs(protos.mean()) < 0.01
    np.testing.assert_array_equal(protos, init_codebook(256, length, "random-normal", seed=0))
    assert not np.array_equal(protos, init_codebook(256, length, "random-normal", seed=1))


def test_kmeans_init_matches_oracle():
    # four well-separated shape clusters, no tie-adjacent assignments
    rng = np.random.default_rng(12)
    centers = np.array([[5.0, 0, 0, 0], [0, 5.0, 0, 0], [0, 0, 5.0, 0], [0, 0, 0, 5.0]])
    sample = np.concatenate([c + 0.05 * rng.normal(size=(15, 4)) for c in centers])
    protos = init_codebook(4, 4, "kmeans-seeded", sample=sample, seed=7)
    want = oracles.kmeans(sample, 4, seed=7, iters=KMEANS_ITERS)
    np.testing.assert_allclose(protos, want, atol=1e-9)


def test_kmeans_empty_cluster_keeps_centroid():
    # K close to n forces empty clusters during iteration; both sides apply
    # the same keep-previous-centroid rule so results still agree
    rng = np.random.default_rng(13)
    sample = rng.normal(size=(10, 3))
    protos = init_codebook(8, 3, "kmeans-seeded", sample=sample, seed=3)
    want = oracles.kmeans(sample, 8, seed=3, iters=KMEANS_ITERS)
    np.testing.assert_allclose(protos, want, atol=1e-9)


def test_kmeans_update_is_bitwise_the_member_mean_loop():
    # the bincount update sums each cluster in sample order, like
    # members.mean(axis=0), so every centroid matches to the bit
    rng = np.random.default_rng(14)
    sample = rng.normal(size=(2000, 50))
    protos = init_codebook(64, 50, "kmeans-seeded", sample=sample, seed=5)
    centroids = sample[np.random.default_rng(5).choice(2000, size=64, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        assign = oracles.nearest_broadcast(sample, centroids)[0]
        for k in range(64):
            members = sample[assign == k]
            if members.shape[0] > 0:
                centroids[k] = members.mean(axis=0)
    np.testing.assert_array_equal(protos, centroids)


@pytest.mark.parametrize("seed, scans", [(0, 11), (2, KMEANS_ITERS)])
def test_kmeans_stops_at_its_fixed_point_with_the_bits_of_all_iterations(monkeypatch, seed, scans):
    # seed 0's 11th assignment repeats its 10th, so the loop stops there;
    # seed 2's assignment still changes at the 25th. Both equal the full
    # 25-iteration loop bit for bit.
    sample = np.random.default_rng(seed).normal(size=(200, 2))
    calls = []

    def counting(*args):
        calls.append(args)
        return nearest_prototypes(*args)

    monkeypatch.setattr(quantizer, "nearest_prototypes", counting)
    protos = init_codebook(8, 2, "kmeans-seeded", sample=sample, seed=seed)
    assert len(calls) == scans
    assert np.array_equal(protos, oracles.kmeans(sample, 8, seed=seed, iters=KMEANS_ITERS))


def test_kmeans_requires_enough_sample():
    with pytest.raises(DataError):
        init_codebook(8, 3, "kmeans-seeded", sample=np.zeros((4, 3)), seed=0)


def test_init_unknown_strategy():
    with pytest.raises(ConfigError):
        init_codebook(4, 4, "xavier")


# ---------------------------------------------------------------------------
# usage


def test_usage_report_matches_entropy_oracle():
    active, perplexity = usage_report(np.array([10, 10, 0, 20]))
    assert active == 3
    assert perplexity == pytest.approx(oracles.entropy_perplexity([10, 10, 0, 20]), rel=1e-12)


def test_usage_report_uniform_is_k():
    active, perplexity = usage_report(np.full(8, 5))
    assert active == 8
    assert perplexity == pytest.approx(8.0, rel=1e-12)


def test_usage_report_requires_usage():
    with pytest.raises(DataError):
        usage_report(np.zeros(8, dtype=np.int64))
