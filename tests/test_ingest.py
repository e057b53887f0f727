import errno
import hashlib
import json
import os
import re

import numpy as np
import pytest

import oracles
from conftest import bench_spec
from motionprim import cli, ingest, tensorfile
from motionprim.errors import ConfigError, DataError
from motionprim.ingest import (
    ChannelMetadata,
    SensorWindow,
    SyntheticClass,
    SyntheticSpec,
    WaveformSpec,
    generate_synthetic,
    synthesize_streams,
    load_dataset,
    load_manifest,
    load_synthetic_spec,
    normalize_matrix,
    resample,
    resample_nearest,
    segment_matrix,
    synthetic_spec_from_dict,
    window,
    write_synthetic_dataset,
)
from motionprim.model import ModelConfig, init_model
from motionprim.tensorfile import MAGIC, load_tensors, save_tensors
from test_tensorfile import BAD_SHAPES, _container, _header_and_payload, with_first_shape
from motionprim.training import save_checkpoint


def two_channels(rate=100.0):
    return [
        ChannelMetadata("wrist", "accelerometer", "x", rate),
        ChannelMetadata("ankle", "gyroscope", "y", rate),
    ]


# ---------------------------------------------------------------------------
# resampling


def test_resample_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 200))
        src = float(rng.uniform(10, 200))
        dst = float(rng.uniform(10, 200))
        x = rng.normal(size=n)
        got = resample(x, src, dst)
        want = oracles.linear_resample(x, src, dst)
        assert got.shape == (len(want),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_resample_output_length_formula():
    x = np.arange(100, dtype=np.float64)
    for src, dst, expect in [(100, 50, 50), (50, 100, 200), (100, 30, 30), (128, 100, 78)]:
        assert resample(x, src, dst).shape == (expect,)


def test_resample_preserves_endpoints():
    rng = np.random.default_rng(3)
    x = rng.normal(size=57)
    y = resample(x, 120.0, 77.0)
    assert y[0] == x[0]
    assert y[-1] == x[-1]


def test_resample_same_rate_is_a_copy():
    x = np.arange(10, dtype=np.float64)
    y = resample(x, 100.0, 100.0)
    np.testing.assert_array_equal(y, x)
    y[0] = 99.0
    assert x[0] == 0.0


def test_resample_too_short():
    with pytest.raises(DataError):
        resample(np.ones(1), 100.0, 50.0)


def test_resample_nearest_holds_values():
    labels = np.array(["a", "a", "b", "b"])
    up = resample_nearest(labels, 2.0, 4.0)
    assert up.shape == (8,)
    assert set(up.tolist()) == {"a", "b"}
    # order preserved: all a's before all b's
    assert "".join(up.tolist()) == "".join(sorted(up.tolist()))


# ---------------------------------------------------------------------------
# windowing


def test_window_count_and_stride_default():
    samples = np.zeros((1050, 2))
    wins = window(samples, 500, channels=two_channels())
    assert len(wins) == 2  # trailing 50 samples dropped
    wins = window(samples, 500, 250, channels=two_channels())
    assert len(wins) == 3


def test_window_contents_and_label():
    samples = np.arange(20, dtype=np.float64)[:, None]
    labels = np.array([0] * 10 + [1] * 10)
    wins = window(samples, 5, labels=labels)
    assert [w.label for w in wins] == [0, 0, 1, 1]
    np.testing.assert_array_equal(wins[1].samples[:, 0], np.arange(5, 10))


def test_window_mixed_label_dropped():
    samples = np.zeros((20, 1))
    labels = np.array([0] * 8 + [1] * 12)
    wins = window(samples, 5, labels=labels)
    # window [5:10) straddles the boundary and must disappear
    assert [w.label for w in wins] == [0, 1, 1]


def test_window_bad_args():
    with pytest.raises(DataError):
        window(np.zeros((10, 1)), 0)
    with pytest.raises(DataError):
        window(np.zeros((10, 1)), 5, 0)


# ---------------------------------------------------------------------------
# segmentation and stats


def ramp_window():
    # sample (t, c) = t + 100 c so segment identity is readable
    t = np.arange(12, dtype=np.float64)
    samples = np.stack([t, t + 100.0], axis=1)
    return SensorWindow(samples, two_channels())


def test_segment_channel_major_order():
    values, stats = segment_matrix(ramp_window().samples, 4)
    assert values.shape == (2, 3, 4)  # 3 per channel, channel 0 first
    assert stats.shape == (2, 3, 2)
    np.testing.assert_array_equal(values[0, 1], [4.0, 5.0, 6.0, 7.0])
    # flattened, the fourth segment is channel 1's first
    np.testing.assert_array_equal(values.reshape(-1, 4)[3], [100.0, 101.0, 102.0, 103.0])


def test_segment_count_floor():
    samples = ramp_window().samples
    assert segment_matrix(samples, 5)[0].shape == (2, 2, 5)  # floor(12/5)=2 per channel
    for bad in (13, 0):
        with pytest.raises(DataError):
            segment_matrix(samples, bad)


def test_stats_are_raw_and_match_oracle():
    rng = np.random.default_rng(7)
    samples = rng.normal(3.0, 2.0, size=(20, 2))
    values, stats = segment_matrix(samples, 5)
    for c in range(2):
        for t in range(4):
            mu, var = oracles.mean_and_popvar(samples[t * 5 : (t + 1) * 5, c])
            assert stats[c, t, 0] == pytest.approx(mu, abs=1e-12)
            assert stats[c, t, 1] == pytest.approx(var, abs=1e-12)


def test_segment_matrix_matches_listwise():
    # a (B, T, C) stack segments exactly like its windows one at a time
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(4, 23, 3))
    values, stats = segment_matrix(stack, 5)
    assert values.shape == (4, 3, 4, 5)
    assert stats.shape == (4, 3, 4, 2)
    for b in range(4):
        one_values, one_stats = segment_matrix(stack[b], 5)
        np.testing.assert_array_equal(values[b], one_values)
        np.testing.assert_array_equal(stats[b], one_stats)
    # never a view of the input, even with one channel
    single = np.arange(20.0).reshape(20, 1)
    assert not np.shares_memory(segment_matrix(single, 5)[0], single)


def test_instance_normalize_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=50)
        np.testing.assert_allclose(
            normalize_matrix(x), oracles.normalize(x), rtol=0, atol=1e-12
        )


def test_instance_normalize_constant_is_zero():
    # mean of a constant array can be off by an ulp, so "zero" means
    # (tiny numerator) / eps, not exact zeros
    out = normalize_matrix(np.full(10, 3.7))
    np.testing.assert_allclose(out, np.zeros(10), atol=1e-9)
    out = normalize_matrix(np.full((2, 10), 0.5))  # exactly representable
    np.testing.assert_array_equal(out, np.zeros((2, 10)))


def test_normalize_matrix_matches_single():
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(4, 6, 20))
    normed = normalize_matrix(stack)
    for i in range(4):
        for j in range(6):
            np.testing.assert_array_equal(normed[i, j], normalize_matrix(stack[i, j]))


def test_normalize_rejects_nonfinite():
    for bad in (np.array([1.0, np.nan, 2.0]), np.array([[0.0, 1.0], [np.inf, 2.0]])):
        with pytest.raises(DataError):
            normalize_matrix(bad)


# ---------------------------------------------------------------------------
# synthetic generation


def small_spec(seed=0, sigma=0.05):
    return SyntheticSpec(
        classes=[
            SyntheticClass("a", [
                WaveformSpec("sine", 1.0, 1.0, 0.0, 0.0, sigma),
                WaveformSpec("square", 0.5, 2.0, 0.0, 0.0, sigma),
            ]),
            SyntheticClass("b", [
                WaveformSpec("sawtooth", 1.0, 1.5, 0.2, 0.1, sigma),
                WaveformSpec("sine", 0.8, 3.0, 0.0, 0.0, sigma),
            ]),
        ],
        channels=two_channels(50.0),
        windows_per_class=4,
        seed=seed,
        rate=50.0,
        window_len=100,
    )


def test_generate_synthetic_shape_and_labels():
    wins = generate_synthetic(small_spec())
    assert len(wins) == 8
    assert [w.label for w in wins] == [0, 0, 0, 0, 1, 1, 1, 1]
    for w in wins:
        assert w.samples.shape == (100, 2)


def test_generate_synthetic_deterministic():
    a = generate_synthetic(small_spec(seed=5))
    b = generate_synthetic(small_spec(seed=5))
    for wa, wb in zip(a, b):
        np.testing.assert_array_equal(wa.samples, wb.samples)
    c = generate_synthetic(small_spec(seed=6))
    assert any(not np.array_equal(wa.samples, wc.samples) for wa, wc in zip(a, c))


def test_zero_noise_removes_only_noise():
    # the clean component is identical whatever sigma was, because the rng
    # draw order does not depend on sigma
    noisy = generate_synthetic(small_spec(seed=2, sigma=0.3))
    clean = generate_synthetic(small_spec(seed=2, sigma=0.0))
    clean2 = generate_synthetic(oracles.zero_noise(small_spec(seed=2, sigma=0.3)))
    for wc, wc2 in zip(clean, clean2):
        np.testing.assert_array_equal(wc.samples, wc2.samples)
    resid = noisy[0].samples - clean[0].samples
    assert np.std(resid) == pytest.approx(0.3, rel=0.15)


def test_zero_noise_phase_continuity():
    # consecutive windows continue the same stream: gluing two windows of the
    # clean signal gives samples of one continuous waveform
    clean = generate_synthetic(small_spec(seed=1, sigma=0.0))
    glued = np.concatenate([clean[0].samples, clean[1].samples], axis=0)
    t = np.arange(200) / 50.0
    expect = 1.0 * np.sin(2 * np.pi * (1.0 * t + 0.0))
    np.testing.assert_allclose(glued[:, 0], expect, atol=1e-9)


def test_spec_from_dict_unknown_keys():
    with pytest.raises(ConfigError):
        synthetic_spec_from_dict({"classes": [], "channels": [], "windows_per_class": 1, "seed": 0, "bogus": 1})


SPEC_DICT = {
    "classes": [
        {"name": "a", "waveforms": [{"kind": "sine"}]},
        {"name": "b", "waveforms": [{"kind": "square", "amplitude": 2}]},
    ],
    "channels": [{"body_part": "wrist", "sensor": "accelerometer", "axis": "x"}],
    "windows_per_class": 2,
    "seed": 0,
    "rate": 20,
    "window_len": 10,
}


def test_spec_from_dict_fills_native_rate_and_floats():
    spec = synthetic_spec_from_dict(SPEC_DICT)
    assert spec.channels[0].native_rate == spec.rate == 20.0
    assert type(spec.rate) is type(spec.channels[0].native_rate) is type(spec.classes[1].waveforms[0].amplitude) is float
    explicit = {**SPEC_DICT, "channels": [{**SPEC_DICT["channels"][0], "native_rate": 50.0}]}
    assert synthetic_spec_from_dict(explicit).channels[0].native_rate == 50.0


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", "0"), ("windows_per_class", 2.0), ("windows_per_class", "five"),
    ("rate", "fast"), ("window_len", True), ("classes", {"name": "a"}),
])
def test_spec_from_dict_rejects_bad_values(key, value):
    with pytest.raises(ConfigError, match=key):
        synthetic_spec_from_dict({**SPEC_DICT, key: value})


def test_spec_rejects_unknown_generator():
    with pytest.raises(ConfigError):
        WaveformSpec("wavelet", 1.0, 1.0, 0.0, 0.0, 0.0)


def test_spec_rejects_empty_windows():
    for window_len in (0, -3):
        with pytest.raises(ConfigError):
            SyntheticSpec(small_spec().classes, two_channels(), 1, 0, window_len=window_len)


# ---------------------------------------------------------------------------
# manifests and round-trips


def test_write_then_load_round_trip(tmp_path):
    spec = small_spec(seed=3)
    manifest_path = write_synthetic_dataset(spec, tmp_path / "ds")
    manifest = load_manifest(manifest_path)
    loaded = load_dataset(manifest)
    direct = generate_synthetic(spec)
    assert len(loaded.windows) == len(direct)
    assert loaded.class_names == ["a", "b"]
    for got, want in zip(loaded.windows, direct):
        np.testing.assert_array_equal(got.samples, want.samples)
        assert got.label == want.label


def test_load_manifest_unknown_keys(tmp_path):
    path = tmp_path / "m.json"
    # base_dir is a DatasetManifest field, but only the manifest's own
    # location sets it
    for key, value in (("surprise", 1), ("base_dir", str(tmp_path)), ("window_len", 2)):
        path.write_text(json.dumps({"channels": [], key: value}))
        with pytest.raises(ConfigError, match=re.escape(f"unknown keys ['{path}: manifest.{key}']")):
            load_manifest(path)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path / "absent.json")


def test_load_dataset_resamples_to_target(tmp_path):
    # one channel at 50 Hz, one at 100 Hz, target 100: the slow channel is
    # upsampled with linear interpolation
    slow = np.sin(np.arange(50) / 7.0)
    fast = np.cos(np.arange(100) / 11.0)
    with open(tmp_path / "slow.csv", "w") as fh:
        fh.write("v\n" + "\n".join(repr(float(x)) for x in slow) + "\n")
    with open(tmp_path / "fast.csv", "w") as fh:
        fh.write("v\n" + "\n".join(repr(float(x)) for x in fast) + "\n")
    manifest = {
        "name": "mix",
        "target_rate": 100.0,
        "window": 20,
        "channels": [
            {"file": "slow.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "x", "native_rate": 50.0},
            {"file": "fast.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "y", "native_rate": 100.0},
        ],
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    loaded = load_dataset(load_manifest(tmp_path / "m.json"))
    expect_slow = oracles.linear_resample(slow, 50.0, 100.0)
    stitched = np.concatenate([w.samples[:, 0] for w in loaded.windows])
    np.testing.assert_allclose(stitched, expect_slow[: len(stitched)], atol=1e-12)
    assert all(w.label is None for w in loaded.windows)


def test_load_synthetic_spec_round_trip(tmp_path):
    raw = {
        "seed": 4,
        "rate": 50.0,
        "window_len": 100,
        "windows_per_class": 2,
        "channels": [{"body_part": "wrist", "sensor": "accelerometer", "axis": "x"}],
        "classes": [
            {"name": "a", "waveforms": [{"kind": "sine", "frequency": 2.0}]},
            {"name": "b", "waveforms": [{"kind": "square", "frequency": 1.0}]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    spec = load_synthetic_spec(path)
    assert spec.seed == 4
    assert spec.classes[0].waveforms[0].frequency == 2.0
    assert len(generate_synthetic(spec)) == 4


def test_writer_bytes_match_csv_writer_oracle(tmp_path):
    # class names that csv.writer must quote: a comma, a quote, a line break
    spec = small_spec(seed=4)
    for cls, name in zip(spec.classes, ['walk, slow', 'say "hi"\nloud']):
        cls.name = name
    manifest_path = write_synthetic_dataset(spec, tmp_path / "ds")
    channel_names = [f"{m.body_part}_{m.sensor}_{m.axis}".lower() for m in spec.channels]
    oracles.write_data_csv(tmp_path / "want.csv", channel_names, spec.class_names, synthesize_streams(spec))
    assert (tmp_path / "ds" / "data.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    loaded = load_dataset(load_manifest(manifest_path))
    assert loaded.class_names == spec.class_names
    direct = generate_synthetic(spec)
    assert [w.label for w in loaded.windows] == [w.label for w in direct]
    for got, want in zip(loaded.windows, direct):
        assert got.samples.tobytes() == want.samples.tobytes()


# ---------------------------------------------------------------------------
# CSV parsing: what loads, what fails typed, and exact float parsing


def count_parses(monkeypatch) -> list:
    """Record the path of every text parse from here on."""
    calls = []
    parse = ingest._parse_csv

    def counted(path, *args):
        calls.append(path)
        return parse(path, *args)

    monkeypatch.setattr(ingest, "_parse_csv", counted)
    return calls


def assert_same_dataset(got, want):
    assert got.class_names == want.class_names
    assert [w.label for w in got.windows] == [w.label for w in want.windows]
    assert np.array_equal(np.stack([w.samples for w in got.windows]), np.stack([w.samples for w in want.windows]))


def sidecar_of(csv_path):
    return csv_path.with_name(f".{csv_path.name}.mpcache")


def one_channel_dataset(tmp_path, data: str, **overrides):
    """A manifest over data.csv: channel column `v` and label column `label`
    at 10 Hz, windows of 2, classes a and b."""
    (tmp_path / "data.csv").write_bytes(data.encode())
    manifest = {
        "name": "csv",
        "target_rate": 10.0,
        "window": 2,
        "classes": ["a", "b"],
        "label": {"file": "data.csv", "column": "label", "native_rate": 10.0},
        "channels": [
            {"file": "data.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "x", "native_rate": 10.0},
        ],
    }
    manifest.update(overrides)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return tmp_path / "m.json"


GOOD_CSV = "v,label\n1.5,a\n-2.25,a\n3.0,b\n4.0,b\n"


@pytest.mark.parametrize("data", [
    pytest.param(GOOD_CSV, id="plain"),
    pytest.param(GOOD_CSV.replace("\n", "\r\n"), id="CRLF line ends"),
    pytest.param(GOOD_CSV.replace("\n", "\r"), id="bare CR line ends"),
    pytest.param(GOOD_CSV[:-1], id="no line end after the last row"),
    pytest.param('"v","label"\n"1.5","a"\n"-2.25",a\n3.0,"b"\n"4.0","b"\n', id="quoted fields"),
    pytest.param("v,label\n 1.5 ,a\n-2.25\t,a\n  3.0,b\n4.0 ,b\n", id="space-padded numbers"),
    pytest.param("label,v,note\na,1.5,x\na,-2.25,\nb,3.0,\"y, z\"\nb,4.0,w\n", id="other column order and unused columns"),
])
def test_csv_forms_that_load(tmp_path, monkeypatch, data):
    manifest = load_manifest(one_channel_dataset(tmp_path, data))
    parses = count_parses(monkeypatch)
    loaded = load_dataset(manifest)
    assert [w.label for w in loaded.windows] == [0, 1]
    np.testing.assert_array_equal(np.concatenate([w.samples[:, 0] for w in loaded.windows]), [1.5, -2.25, 3.0, 4.0])
    assert_same_dataset(load_dataset(manifest), loaded)  # served by the sidecar
    assert len(parses) == 1


@pytest.mark.parametrize("data", [
    pytest.param("", id="empty file"),
    pytest.param("v,label\n", id="header only"),
    pytest.param("v,label\n\n", id="header and an empty line"),
    pytest.param("v,label\n1.5,a\n-2.25\n3.0,b\n4.0,b\n", id="short row"),
    pytest.param("v,label\n1.5,a\n-2.25,a,a\n3.0,b\n4.0,b\n", id="long row"),
    pytest.param("v,label\n1.5,a\nfast,a\n3.0,b\n4.0,b\n", id="non-numeric sample"),
    pytest.param("v,label\n1.5,a\n,a\n3.0,b\n4.0,b\n", id="empty numeric field"),
    pytest.param("v,label\n1.5,a\n1_5,a\n3.0,b\n4.0,b\n", id="underscore in a number"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n\n3.0,b\n4.0,b\n", id="blank line in the body"),
    pytest.param(GOOD_CSV + "\n", id="blank line at the end"),
    pytest.param("v,label\r\n1.5,a\r\n\r\n-2.25,a\r\n3.0,b\r\n4.0,b\r\n", id="blank line after CRLF rows"),
    pytest.param("v,label\r1.5,a\r\r-2.25,a\r3.0,b\r4.0,b\r", id="blank line after CR rows"),
    pytest.param("v,v,label\n1.5,1.5,a\n-2.25,1,a\n3.0,1,b\n4.0,1,b\n", id="duplicate column name"),
    pytest.param("w,label\n1.5,a\n-2.25,a\n3.0,b\n4.0,b\n", id="missing channel column"),
    pytest.param("v,class\n1.5,a\n-2.25,a\n3.0,b\n4.0,b\n", id="missing label column"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n3.0,c\n4.0,c\n", id="label not in classes"),
    pytest.param("v,label\n1.5,a\n", id="single row"),
    pytest.param("v,label\n1.5,a\nnan,a\n3.0,b\n4.0,b\n", id="non-finite sample"),
])
@pytest.mark.filterwarnings("error")  # loadtxt's no-data warning must not escape either
def test_csv_faults_raise_data_error(tmp_path, data):
    manifest = load_manifest(one_channel_dataset(tmp_path, data))
    for _ in range(2):  # a failed load leaves nothing that changes the next
        with pytest.raises(DataError):
            load_dataset(manifest)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m.json"]


def adversarial_float_strings(seed):
    """Decimal strings that stress correct rounding: random bit patterns at
    shortest, 17 and 25 significant digits, subnormals, signed zeros, the
    extreme normals, ties that round to even, and the optional-part forms."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**63, size=400, dtype=np.uint64) | (rng.integers(0, 2, size=400, dtype=np.uint64) << np.uint64(63))
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    subnormal = (rng.integers(1, 2**52, size=60, dtype=np.uint64)).view(np.float64)
    out = []
    for v in np.concatenate([values, subnormal, -subnormal]).tolist():
        out += [repr(v), f"{v:.17g}", f"{v:.25g}", f"{v:.17e}".replace("e", "E")]
    out += [
        "0.0", "-0.0", "+0.0", "5e-324", "-5e-324", "2.2250738585072009e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308", "-1.7976931348623157E+308",
        "9007199254740993", "9007199254740995", "1.00000000000000011102230246251565404236316680908203125",
        "1.000000000000000111022302462515654042363166809082031251", "0.1", "1e-5", "1E+5", "+.5e3",
        ".5", "5.", "+1.0", "-.25", "123456789012345678901234567890", "4.9406564584124654e-324",
    ]
    return out


def test_csv_floats_equal_python_float_bit_for_bit(tmp_path):
    strings = adversarial_float_strings(seed=21)
    rows = "".join(f"{s},a\n" for s in strings)
    manifest = one_channel_dataset(tmp_path, "v,label\n" + rows, window=len(strings))
    (only,) = load_dataset(load_manifest(manifest)).windows
    want = np.array([float(s) for s in strings])
    assert only.samples[:, 0].view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("key, value", [
    ("window", "five"),
    ("stride", "two"),
    ("target_rate", "x"),
    ("channels", [{"file": "data.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "x", "native_rate": "fast"}]),
    ("label", {"file": "data.csv", "column": "label", "native_rate": "slow"}),
    ("label", {"file": "data.csv", "column": "v", "native_rate": 10.0}),  # a channel column
    ("label", {"file": "data.csv", "column": "label", "native_rate": "nan"}),  # a string, not a number
    ("window", "100"),
    ("window", 0),
    ("window", -5),
])
def test_manifest_scalars_fail_as_config_error(tmp_path, key, value):
    with pytest.raises(ConfigError):
        load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, **{key: value}))


WRIST_X = {"file": "data.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "x", "native_rate": 10.0}


@pytest.mark.parametrize("key, value, message", [
    ("window", "500", "m.json: manifest.window must be an integer, got '500'"),
    ("channels", [{**WRIST_X, "native_rate": "10"}], "m.json: manifest.channels[0].native_rate must be a number, got '10'"),
    ("channels", [WRIST_X, {**WRIST_X, "axis": 3}], "m.json: manifest.channels[1].axis must be a string, got 3"),
    ("channels", [{**WRIST_X, "meta": {}}], "m.json: manifest.channels[0].meta']"),
    ("channels", [{k: v for k, v in WRIST_X.items() if k != "sensor"}], "m.json: manifest.channels[0].sensor']"),
])
def test_manifest_errors_name_the_files_own_keys(tmp_path, key, value, message):
    # the file has no `meta` level and no `window_len` key: errors must not
    # name the internal shape the entries are built into
    with pytest.raises(ConfigError) as info:
        load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, **{key: value}))
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("rate", [0, -5, float("nan")])  # json.dumps writes a bare NaN
def test_label_native_rate_must_be_positive(tmp_path, rate):
    label = {"file": "data.csv", "column": "label", "native_rate": rate}
    with pytest.raises(DataError):
        load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, label=label))


@pytest.mark.parametrize("rate", [0, -5, float("nan")])
def test_target_rate_must_be_positive(tmp_path, rate):
    # rejected at load, before any CSV is parsed
    with pytest.raises(DataError, match="target_rate"):
        load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, target_rate=rate))


# ---------------------------------------------------------------------------
# parsed-column sidecars


def test_sidecar_serves_the_bench_spec_unchanged(tmp_path, monkeypatch):
    manifest = load_manifest(write_synthetic_dataset(bench_spec(seed=7, windows_per_class=6), tmp_path))
    assert not sidecar_of(tmp_path / "data.csv").exists()  # synth writes none
    parses = count_parses(monkeypatch)
    hashes = []
    digest = ingest._sha256
    monkeypatch.setattr(ingest, "_sha256", lambda path: hashes.append(path) or digest(path))
    parsed = load_dataset(manifest)
    assert hashes == []  # without a sidecar the parse itself takes the hash
    sidecar = sidecar_of(tmp_path / "data.csv")
    assert load_tensors(sidecar, "csv-columns")[0]["sha256"] == hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()
    served = load_dataset(manifest)
    assert len(parses) == 1 and len(hashes) == 1
    assert_same_dataset(served, parsed)
    for got, want in zip(served.windows, generate_synthetic(bench_spec(seed=7, windows_per_class=6))):
        assert got.samples.tobytes() == want.samples.tobytes()


def test_same_size_edit_with_old_mtime_is_parsed_again(tmp_path, monkeypatch):
    manifest = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))
    load_dataset(manifest)
    data = tmp_path / "data.csv"
    stat = data.stat()
    data.write_text(GOOD_CSV.replace("1.5", "2.5"))
    os.utime(data, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert data.stat().st_size == stat.st_size and data.stat().st_mtime_ns == stat.st_mtime_ns
    parses = count_parses(monkeypatch)
    assert load_dataset(manifest).windows[0].samples[0, 0] == 2.5
    assert len(parses) == 1


def damaged_sidecars(sidecar, scratch) -> dict[str, bytes]:
    """Copies of a valid sidecar that must be ignored: damaged bytes, and
    well-formed containers whose kind, key or tensors do not fit the file."""
    raw = sidecar.read_bytes()
    meta, tensors = load_tensors(sidecar, "csv-columns")
    flipped = bytearray(raw)
    flipped[len(MAGIC) + 8 + 20] ^= 0x04  # inside the JSON header
    out = {"truncated": raw[: len(raw) // 2], "header bit flip": bytes(flipped)}
    for label, kind, m, t in [
        ("wrong kind", "checkpoint", meta, tensors),
        ("wrong key", "csv-columns", {**meta, "sha256": "0" * 64}, tensors),
        ("old format", "csv-columns", {**meta, "format": meta["format"] - 1}, tensors),
        ("wrong shapes", "csv-columns", meta, {**tensors, "v": tensors["v"][:-1]}),
        ("codes out of range", "csv-columns", meta, {**tensors, "label": tensors["label"] + 5}),
        ("missing column", "csv-columns", meta, {"v": tensors["v"]}),
        ("integer samples", "csv-columns", meta, {**tensors, "v": tensors["v"].astype(np.int64)}),
    ]:
        save_tensors(scratch, kind, m, t)
        out[label] = scratch.read_bytes()
    header, payload = _header_and_payload(raw)
    for label, shape in BAD_SHAPES:
        out[label] = _container(with_first_shape(header, shape), payload)
    return out


def test_damaged_sidecars_are_ignored_and_rewritten(tmp_path, monkeypatch):
    manifest = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))
    want = load_dataset(manifest)
    sidecar = sidecar_of(tmp_path / "data.csv")
    clean = sidecar.read_bytes()
    for label, raw in damaged_sidecars(sidecar, tmp_path / "scratch.bin").items():
        sidecar.write_bytes(raw)
        parses = count_parses(monkeypatch)
        assert_same_dataset(load_dataset(manifest), want)
        assert len(parses) == 1, label
        assert sidecar.read_bytes() == clean, label


def test_sidecar_for_other_columns_is_replaced(tmp_path, monkeypatch):
    labeled = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))
    unlabeled = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, label=None, classes=[]))
    parses = count_parses(monkeypatch)
    for manifest, labels in [(labeled, [0, 1]), (unlabeled, [None, None]), (labeled, [0, 1])]:
        for _ in range(2):
            assert [w.label for w in load_dataset(manifest).windows] == labels
    assert len(parses) == 3  # a new column set parses once, its repeat is served


def test_file_edited_after_the_parse_is_parsed_again(tmp_path, monkeypatch):
    # the sidecar is keyed by the hash of the very bytes its columns were
    # parsed from, so an edit that lands before it is written cannot make it
    # serve the old columns for the new bytes
    manifest = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))
    parse = ingest._parse_csv

    def parse_then_edit(path, *args):
        columns = parse(path, *args)
        path.write_text(GOOD_CSV.replace("1.5", "2.5"))
        return columns

    monkeypatch.setattr(ingest, "_parse_csv", parse_then_edit)
    assert load_dataset(manifest).windows[0].samples[0, 0] == 1.5
    monkeypatch.undo()
    parses = count_parses(monkeypatch)
    assert load_dataset(manifest).windows[0].samples[0, 0] == 2.5
    assert load_dataset(manifest).windows[0].samples[0, 0] == 2.5
    assert len(parses) == 1


@pytest.mark.parametrize("fail", ["save", "replace"])
def test_failed_sidecar_write_still_returns_the_data(tmp_path, monkeypatch, fail):
    manifest = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    if fail == "save":
        monkeypatch.setattr(tensorfile, "save_tensors", no_space)
    else:
        monkeypatch.setattr(os, "replace", no_space)
    loaded = load_dataset(manifest)
    assert [w.label for w in loaded.windows] == [0, 1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "m.json"]
    monkeypatch.undo()
    assert_same_dataset(load_dataset(manifest), loaded)
    assert sidecar_of(tmp_path / "data.csv").is_file()


def test_evaluate_then_analyze_parse_once(tmp_path, monkeypatch, capsys):
    spec = bench_spec(seed=2, windows_per_class=2)
    manifest = write_synthetic_dataset(spec, tmp_path / "data")
    ckpt = tmp_path / "model.ckpt"
    config = ModelConfig(codebook_size=8, segment_len=50, model_dim=8, meta_dim=16, depth=1, heads=2,
                         segments_per_channel=10, num_classes=4)
    save_checkpoint(ckpt, init_model(config, seed=0))
    parses = count_parses(monkeypatch)
    for command in ("evaluate", "analyze"):
        argv = [command, str(ckpt), str(manifest), "--set", f"out_dir={tmp_path / 'out'}", "--set", "provider.dim=16"]
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert parses == [tmp_path / "data" / "data.csv"]
