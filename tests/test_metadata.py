import json

import numpy as np
import pytest

from motionprim.errors import ConfigError, MetadataProviderError
from motionprim.ingest import ChannelMetadata
from motionprim.embedder import embed_batch
from motionprim.metadata import (
    CachingProvider,
    FileLookupProvider,
    HashProvider,
    RemoteProvider,
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
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (768,)
    assert np.linalg.norm(a.values) == pytest.approx(1.0, abs=1e-12)


def test_hash_provider_distinct_descriptors_near_orthogonal():
    p = HashProvider(dim=768, seed=0)
    descs = [
        f"body_part: {b}, sensor: {s}, axis: {a}"
        for b in ("wrist", "ankle", "hip")
        for s in ("accelerometer", "gyroscope")
        for a in ("x", "y")
    ]
    vecs = [p.embed(d).values for d in descs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            # random unit vectors in 768 dims: cosine std is ~1/sqrt(768)
            assert abs(float(vecs[i] @ vecs[j])) < 0.2


def test_hash_provider_seed_changes_vectors():
    a = HashProvider(dim=32, seed=0).embed("d")
    b = HashProvider(dim=32, seed=1).embed("d")
    assert not np.array_equal(a.values, b.values)


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
    np.testing.assert_array_equal(p.embed("db").values, [0.0, 2.0])
    with pytest.raises(MetadataProviderError):
        p.embed("missing")


def test_file_lookup_rejects_mixed_dims(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": [1.0], "b": [1.0, 2.0]}))
    with pytest.raises(MetadataProviderError):
        FileLookupProvider(path)


def test_file_lookup_missing_file(tmp_path):
    with pytest.raises(MetadataProviderError):
        FileLookupProvider(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# remote provider: constructed from env, never contacted here


def test_remote_requires_endpoint_env(monkeypatch):
    monkeypatch.delenv("MOTIONPRIM_EMBED_ENDPOINT", raising=False)
    called = []
    monkeypatch.setattr(
        "urllib.request.urlopen", lambda *a, **k: called.append(1)
    )
    # a missing endpoint is a configuration fault (CLI exit 2), not a data error
    with pytest.raises(ConfigError, match="MOTIONPRIM_EMBED_ENDPOINT"):
        RemoteProvider()
    assert called == []  # refused before any network attempt


def test_remote_retries_then_fails(monkeypatch):
    monkeypatch.setenv("MOTIONPRIM_EMBED_ENDPOINT", "http://localhost:1/embed")
    attempts = []

    def fake_urlopen(request, timeout=None):
        attempts.append(request.full_url)
        raise OSError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", lambda s: None)
    p = RemoteProvider(dim=4)
    with pytest.raises(MetadataProviderError):
        p.embed("d")
    assert len(attempts) == 3
    assert len(p.request_log) == 3
    assert all(not r["ok"] for r in p.request_log)


def test_remote_success_path(monkeypatch):
    monkeypatch.setenv("MOTIONPRIM_EMBED_ENDPOINT", "http://localhost:1/embed")
    monkeypatch.setenv("MOTIONPRIM_EMBED_API_KEY", "secret")

    class FakeResponse:
        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

        def read(self):
            return json.dumps({"embedding": [1.0, 2.0, 3.0]}).encode()

    seen = {}

    def fake_urlopen(request, timeout=None):
        seen["auth"] = request.headers.get("Authorization")
        return FakeResponse()

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    p = RemoteProvider(dim=3)
    vec = p.embed("d")
    np.testing.assert_array_equal(vec.values, [1.0, 2.0, 3.0])
    assert seen["auth"] == "Bearer secret"
    assert p.request_log[-1]["ok"]


# ---------------------------------------------------------------------------
# caching and factory


class CountingProvider:
    def __init__(self):
        self.calls = 0
        self.dim = 3
        self.name = "counting"

    def embed(self, descriptor):
        self.calls += 1
        from motionprim.metadata import MetadataVector

        return MetadataVector(np.arange(3, dtype=np.float64), descriptor, self.name)


def test_caching_provider_hits_inner_once(tmp_path):
    inner = CountingProvider()
    p = CachingProvider(inner)
    p.embed("a")
    p.embed("a")
    p.embed("b")
    assert inner.calls == 2
    cache_path = tmp_path / "cache.json"
    p.dump_cache(cache_path)
    replay = FileLookupProvider(cache_path)
    np.testing.assert_array_equal(replay.embed("a").values, np.arange(3))


def test_make_provider_kinds(tmp_path):
    p = make_provider("deterministic-hash", dim=16, seed=2)
    assert isinstance(p, CachingProvider)
    assert p.dim == 16
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"d": [1.0, 2.0]}))
    p2 = make_provider("file-lookup", path=path)
    assert p2.dim == 2
    with pytest.raises(ConfigError):
        make_provider("quantum")


def test_make_provider_remote_is_the_documented_kind(monkeypatch):
    # "remote" reaches the provider, which refuses for want of an endpoint
    monkeypatch.delenv("MOTIONPRIM_EMBED_ENDPOINT", raising=False)
    with pytest.raises(ConfigError, match="MOTIONPRIM_EMBED_ENDPOINT"):
        make_provider("remote")
    with pytest.raises(ConfigError, match="unknown metadata provider"):
        make_provider("remote-service")


def test_embed_channels_uses_canonical_descriptors():
    p = make_provider("deterministic-hash", dim=8, seed=0)
    vecs = embed_channels([WRIST, ChannelMetadata("ankle", "gyroscope", "z", 50.0)], p)
    assert [v.descriptor for v in vecs] == [
        "body_part: wrist, sensor: accelerometer, axis: x",
        "body_part: ankle, sensor: gyroscope, axis: z",
    ]
    direct = HashProvider(dim=8, seed=0).embed(vecs[0].descriptor)
    np.testing.assert_array_equal(vecs[0].values, direct.values)


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
    x, _, _ = embed_batch(params, layout, indices, np.ones((1, 2, cfg.segments_per_channel, 2)), meta)
    np.testing.assert_array_equal(x[0, 0], 0.0)
    for p in layout.channel_positions:
        v = meta[layout.channel_of[p]]
        np.testing.assert_allclose(x[0, p], params["adapter.weight"] @ v + params["adapter.bias"], atol=1e-14)
