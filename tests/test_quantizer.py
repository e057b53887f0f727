import numpy as np
import pytest

import oracles
from motionprim.errors import ConfigError, DataError
from motionprim.quantizer import (
    KMEANS_ITERS,
    Codebook,
    init_codebook,
    load_codebook,
    nearest_prototypes,
    reseed_dead_codes,
    save_codebook,
    update_codebook,
    usage_report,
    vq_loss,
)


def make_codebook(k=8, length=6, seed=0):
    rng = np.random.default_rng(seed)
    return Codebook(rng.normal(size=(k, length)), np.zeros(k, dtype=np.int64))


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
    protos = make_codebook(k=5, length=4, seed=2).prototypes
    segs = rng.normal(size=(40, 4))
    indices, distances = nearest_prototypes(segs, protos)
    for i in range(40):
        single_idx, single_dist = nearest_prototypes(segs[i], protos)
        assert indices[i] == single_idx[0]
        assert distances[i] == single_dist[0]
    # a usage report over these assignments counts duplicates
    cb = Codebook(protos, np.bincount(indices, minlength=5))
    assert cb.usage_counts.sum() == 40
    assert usage_report(cb)[0] == np.count_nonzero(np.bincount(indices, minlength=5))


def test_nearest_prototypes_chunking_invariant():
    # more segments than the internal chunk size, same answer
    rng = np.random.default_rng(4)
    protos = rng.normal(size=(16, 8))
    segs = rng.normal(size=(700, 8))
    idx, dist = nearest_prototypes(segs, protos)
    for i in range(0, 700, 97):
        want_i, want_d = oracles.nearest_scan(segs[i], protos)
        assert idx[i] == want_i
        assert dist[i] == pytest.approx(want_d, rel=1e-12)


def test_quantize_shape_mismatch():
    cb = make_codebook(length=6)
    with pytest.raises(DataError):
        nearest_prototypes(np.zeros((2, 5)), cb.prototypes)


# ---------------------------------------------------------------------------
# commitment loss


def test_vq_loss_value_and_grads():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.normal(size=10)
        z = rng.normal(size=10)
        beta = float(rng.uniform(0.0, 1.0))
        loss, g_in, g_code = vq_loss(s, z, beta)
        assert loss == pytest.approx(oracles.commitment_loss(s, z, beta), rel=1e-12)
        np.testing.assert_allclose(g_in, 2.0 * beta * (s - z), atol=1e-15)
        np.testing.assert_allclose(g_code, 2.0 * (z - s), atol=1e-15)


def test_vq_loss_grads_match_finite_differences():
    # each gradient respects its stop-gradient: vary one side with the other
    # frozen and compare against central differences
    rng = np.random.default_rng(6)
    s0 = rng.normal(size=6)
    z0 = rng.normal(size=6)
    beta = 0.25
    _, g_in, g_code = vq_loss(s0, z0, beta)

    def loss_of_s(s):
        d_first = float(np.sum((s0 - z0) ** 2))  # sg(s): frozen at s0
        d_second = float(np.sum((s - z0) ** 2))
        return d_first + beta * d_second

    def loss_of_z(z):
        d_first = float(np.sum((s0 - z) ** 2))
        d_second = float(np.sum((s0 - z0) ** 2))  # sg(z): frozen at z0
        return d_first + beta * d_second

    np.testing.assert_allclose(g_in, oracles.central_difference(loss_of_s, s0.copy()), atol=1e-8)
    np.testing.assert_allclose(g_code, oracles.central_difference(loss_of_z, z0.copy()), atol=1e-8)


def test_vq_loss_beta_validation():
    with pytest.raises(ConfigError):
        vq_loss(np.zeros(3), np.zeros(3), beta=-0.1)


# ---------------------------------------------------------------------------
# initialization


def test_random_normal_init_statistics():
    length = 64
    cb = init_codebook(256, length, "random-normal", seed=0)
    assert cb.prototypes.shape == (256, length)
    # entries are N(0, 1/L): std 1/8 here
    assert cb.prototypes.std() == pytest.approx(1.0 / np.sqrt(length), rel=0.05)
    assert abs(cb.prototypes.mean()) < 0.01
    cb2 = init_codebook(256, length, "random-normal", seed=0)
    np.testing.assert_array_equal(cb.prototypes, cb2.prototypes)
    cb3 = init_codebook(256, length, "random-normal", seed=1)
    assert not np.array_equal(cb.prototypes, cb3.prototypes)


def test_kmeans_init_matches_oracle():
    # four well-separated shape clusters, no tie-adjacent assignments
    rng = np.random.default_rng(12)
    centers = np.array([[5.0, 0, 0, 0], [0, 5.0, 0, 0], [0, 0, 5.0, 0], [0, 0, 0, 5.0]])
    sample = np.concatenate([c + 0.05 * rng.normal(size=(15, 4)) for c in centers])
    cb = init_codebook(4, 4, "kmeans-seeded", sample=sample, seed=7)
    want = oracles.kmeans(sample, 4, seed=7, iters=KMEANS_ITERS)
    np.testing.assert_allclose(cb.prototypes, want, atol=1e-9)


def test_kmeans_empty_cluster_keeps_centroid():
    # K close to n forces empty clusters during iteration; both sides apply
    # the same keep-previous-centroid rule so results still agree
    rng = np.random.default_rng(13)
    sample = rng.normal(size=(10, 3))
    cb = init_codebook(8, 3, "kmeans-seeded", sample=sample, seed=3)
    want = oracles.kmeans(sample, 8, seed=3, iters=KMEANS_ITERS)
    np.testing.assert_allclose(cb.prototypes, want, atol=1e-9)


def test_kmeans_requires_enough_sample():
    with pytest.raises(DataError):
        init_codebook(8, 3, "kmeans-seeded", sample=np.zeros((4, 3)), seed=0)


def test_init_unknown_strategy():
    with pytest.raises(ConfigError):
        init_codebook(4, 4, "xavier")


# ---------------------------------------------------------------------------
# updates


def test_update_ema_standard_recursion():
    cb = make_codebook(k=2, length=2, seed=21)
    segs = np.array([[2.0, 0.0], [4.0, 0.0]])
    idx = np.array([0, 0])
    d = 0.9
    new = update_codebook(cb, segs, idx, rate=d)
    size = d * 0.0 + (1 - d) * 2.0
    mean = d * np.zeros(2) + (1 - d) * np.array([6.0, 0.0])
    np.testing.assert_allclose(new.prototypes[0], mean / size, atol=1e-12)
    np.testing.assert_array_equal(new.prototypes[1], cb.prototypes[1])
    # second update uses the carried state
    newer = update_codebook(new, segs, idx, rate=d)
    size2 = d * size + (1 - d) * 2.0
    mean2 = d * mean + (1 - d) * np.array([6.0, 0.0])
    np.testing.assert_allclose(newer.prototypes[0], mean2 / size2, atol=1e-12)


def test_update_ema_decay_zero_sets_batch_mean():
    cb = make_codebook(k=2, length=2, seed=22)
    segs = np.array([[2.0, 4.0], [4.0, 8.0]])
    new = update_codebook(cb, segs, np.array([1, 1]), rate=0.0)
    np.testing.assert_allclose(new.prototypes[1], [3.0, 6.0], atol=1e-12)


def test_update_rate_validation():
    cb = make_codebook()
    segs = np.zeros((1, 6))
    idx = np.zeros(1, dtype=np.int64)
    for bad in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            update_codebook(cb, segs, idx, rate=bad)


def test_update_empty_batch_is_noop():
    cb = make_codebook()
    new = update_codebook(cb, np.zeros((0, 6)), np.zeros(0, dtype=np.int64), rate=0.1)
    np.testing.assert_array_equal(new.prototypes, cb.prototypes)


def test_update_index_out_of_range():
    cb = make_codebook(k=4)
    with pytest.raises(DataError):
        update_codebook(cb, np.zeros((1, 6)), np.array([4]), rate=0.1)


# ---------------------------------------------------------------------------
# usage, reseeding, persistence


def test_usage_report_matches_entropy_oracle():
    cb = make_codebook(k=4)
    cb.usage_counts[:] = [10, 10, 0, 20]
    active, perplexity = usage_report(cb)
    assert active == 3
    assert perplexity == pytest.approx(oracles.entropy_perplexity([10, 10, 0, 20]), rel=1e-12)


def test_usage_report_uniform_is_k():
    cb = make_codebook(k=8)
    cb.usage_counts[:] = 5
    active, perplexity = usage_report(cb)
    assert active == 8
    assert perplexity == pytest.approx(8.0, rel=1e-12)


def test_usage_report_requires_usage():
    with pytest.raises(DataError):
        usage_report(make_codebook())


def test_reseed_dead_codes():
    rng = np.random.default_rng(30)
    cb = make_codebook(k=4, length=3, seed=31)
    cb.usage_counts[:] = [5, 0, 7, 0]
    sample = rng.normal(size=(50, 3))
    new, reseeded = reseed_dead_codes(cb, sample, seed=9)
    assert reseeded == 2
    np.testing.assert_array_equal(new.prototypes[0], cb.prototypes[0])
    np.testing.assert_array_equal(new.prototypes[2], cb.prototypes[2])
    assert not np.array_equal(new.prototypes[1], cb.prototypes[1])
    # deterministic in the seed
    again, _ = reseed_dead_codes(cb, sample, seed=9)
    np.testing.assert_array_equal(again.prototypes, new.prototypes)


def test_save_load_round_trip(tmp_path):
    cb = make_codebook(k=6, length=5, seed=40)
    cb.usage_counts[:] = np.arange(6)
    path = tmp_path / "cb.bin"
    save_codebook(cb, path)
    back = load_codebook(path)
    np.testing.assert_array_equal(back.prototypes, cb.prototypes)
    np.testing.assert_array_equal(back.usage_counts, cb.usage_counts)
