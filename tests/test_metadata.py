import hashlib
import json

import numpy as np
import pytest

import oracles
from motionprim.errors import ConfigError, MetadataProviderError
from motionprim.ingest import ChannelMetadata
from motionprim.metadata import (
    FileLookupProvider,
    HashProvider,
    canonical_descriptor,
    embed_channels,
    make_provider,
)
from motionprim.model import ModelConfig, init_model, tiny_config

WRIST = ChannelMetadata("wrist", "accelerometer", "x", 100.0)


def test_canonical_descriptor_format():
    assert canonical_descriptor(WRIST) == "body_part: wrist, sensor: accelerometer, axis: x"


# ---------------------------------------------------------------------------
# hash provider


def test_hash_provider_deterministic_unit_norm():
    p = HashProvider(dim=768, seed=0)
    a = p.embed("body_part: wrist, sensor: accelerometer, axis: x")
    b = p.embed("body_part: wrist, sensor: accelerometer, axis: x")
    np.testing.assert_array_equal(a, b)
    assert a.shape == (768,) and a.dtype == np.float64
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 16, 768])
def test_hash_provider_keeps_its_arithmetic(dim):
    # every checkpoint's adapter input: seeded normals over their L2 norm
    descriptor = canonical_descriptor(WRIST)
    digest = hashlib.sha256(f"3:{descriptor}".encode()).digest()
    values = np.random.default_rng(int.from_bytes(digest[:8], "big")).normal(0.0, 1.0, size=dim)
    want = values / np.linalg.norm(values)
    assert HashProvider(dim=dim, seed=3).embed(descriptor).tobytes() == want.tobytes()


def test_hash_provider_distinct_descriptors_near_orthogonal():
    p = HashProvider(dim=768, seed=0)
    descs = [
        f"body_part: {b}, sensor: {s}, axis: {a}"
        for b in ("wrist", "ankle", "hip")
        for s in ("accelerometer", "gyroscope")
        for a in ("x", "y")
    ]
    vecs = [p.embed(d) for d in descs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            # random unit vectors in 768 dims: cosine std is ~1/sqrt(768)
            assert abs(float(vecs[i] @ vecs[j])) < 0.2


def test_hash_provider_seed_changes_vectors():
    a = HashProvider(dim=32, seed=0).embed("d")
    b = HashProvider(dim=32, seed=1).embed("d")
    assert not np.array_equal(a, b)


def test_hash_provider_validates_dim():
    with pytest.raises(ConfigError):
        HashProvider(dim=0)


# ---------------------------------------------------------------------------
# file lookup provider


def test_file_lookup_round_trip(tmp_path):
    path = tmp_path / "embeds.json"
    path.write_text(json.dumps({"da": [1.0, 0.0], "db": [0.0, 2.0]}))
    p = FileLookupProvider(path)
    assert p.dim == 2
    np.testing.assert_array_equal(p.embed("db"), [0.0, 2.0])
    with pytest.raises(MetadataProviderError):
        p.embed("missing")


def test_file_lookup_rejects_mixed_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": [1.0], "b": [1.0, 2.0]}))
    with pytest.raises(MetadataProviderError):
        FileLookupProvider(path)


@pytest.mark.parametrize("vector", [["x", 1.0], [[1.0], [2.0, 3.0]], {"a": 1.0}, 5.0])
def test_file_lookup_rejects_malformed_vectors(tmp_path, vector):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": vector}))
    with pytest.raises(MetadataProviderError, match="flat list of numbers"):
        FileLookupProvider(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_file_lookup_rejects_non_finite_vectors(tmp_path, bad):
    # json writes NaN and Infinity, and Python's parser reads them back
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": [1.0, 2.0], "b": [0.5, bad]}))
    with pytest.raises(MetadataProviderError, match="'b' has non-finite entries"):
        FileLookupProvider(path)


def test_file_lookup_missing_file(tmp_path):
    with pytest.raises(MetadataProviderError):
        FileLookupProvider(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# factory


def test_make_provider_kinds(tmp_path):
    p = make_provider("deterministic-hash", dim=16, seed=2)
    assert isinstance(p, HashProvider)
    assert p.dim == 16
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"d": [1.0, 2.0]}))
    p2 = make_provider("file-lookup", dim=16, path=path)
    assert p2.dim == 2  # a file's width is its own
    with pytest.raises(ConfigError):
        make_provider("quantum", dim=16)


def test_make_provider_rejects_unknown_kinds():
    for kind in ("remote", "remote-service", ""):
        with pytest.raises(ConfigError, match="unknown metadata provider"):
            make_provider(kind, dim=16)


def test_embed_channels_uses_canonical_descriptors():
    p = make_provider("deterministic-hash", dim=8, seed=0)
    matrix = embed_channels([WRIST, ChannelMetadata("ankle", "gyroscope", "z", 50.0)], p)
    assert matrix.shape == (2, 8) and matrix.dtype == np.float64
    np.testing.assert_array_equal(matrix[0], p.embed("body_part: wrist, sensor: accelerometer, axis: x"))
    np.testing.assert_array_equal(matrix[1], p.embed("body_part: ankle, sensor: gyroscope, axis: z"))


# ---------------------------------------------------------------------------
# adapter


def test_init_adapter_shapes_and_stats():
    model = init_model(ModelConfig(codebook_size=4, model_dim=64, meta_dim=768, depth=0), seed=0)
    weight, bias = model.params["adapter.weight"], model.params["adapter.bias"]
    assert weight.shape == (64, 768)
    np.testing.assert_array_equal(bias, np.zeros(64))
    assert weight.std() == pytest.approx(0.02, rel=0.1)


def test_adapter_project_formula():
    # with every other input term zeroed, each channel-owned token carries
    # exactly W v + b of its channel's metadata vector, and CLS carries none
    cfg = tiny_config()
    model = init_model(cfg, seed=2)
    rng = np.random.default_rng(2)
    params = {name: np.zeros_like(t) for name, t in model.params.items()}
    params["adapter.weight"] = rng.normal(size=(cfg.model_dim, cfg.meta_dim))
    params["adapter.bias"] = rng.normal(size=cfg.model_dim)
    meta = rng.normal(size=(2, cfg.meta_dim))
    layout = model.layout_for(2, cfg.segments_per_channel)
    indices = np.zeros((1, 2, cfg.segments_per_channel), dtype=np.int64)
    x, _, _ = oracles.embed_batch(params, layout, indices, np.ones((1, 2, cfg.segments_per_channel, 2)), meta)
    np.testing.assert_array_equal(x[0, 0], 0.0)
    for p in layout.channel_positions:
        v = meta[layout.channel_of[p]]
        np.testing.assert_allclose(x[0, p], params["adapter.weight"] @ v + params["adapter.bias"], atol=1e-14)
