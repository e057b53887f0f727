import errno
import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import bench_spec
from motionprim import cli, ingest, tensorfile
from motionprim.errors import ConfigError, DataError
from motionprim.ingest import (
    ChannelMetadata,
    LabelSource,
    SensorWindow,
    SyntheticClass,
    SyntheticSpec,
    WaveformSpec,
    generate_synthetic,
    synthesize_streams,
    load_dataset,
    load_manifest,
    load_synthetic_spec,
    resample,
    resample_nearest,
    synthetic_spec_from_dict,
    window,
    write_synthetic_dataset,
)
from motionprim.metadata import make_provider
from motionprim.model import ModelConfig, init_model, prepare_windows
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
    wins = window(samples, 5, channels=two_channels()[:1], labels=labels)
    assert [w.label for w in wins] == [0, 0, 1, 1]
    # a list of labels gives the same windows
    assert [w.label for w in window(samples, 5, channels=two_channels()[:1], labels=labels.tolist())] == [0, 0, 1, 1]
    np.testing.assert_array_equal(wins[1].samples[:, 0], np.arange(5, 10))


def test_window_mixed_label_dropped():
    samples = np.zeros((20, 1))
    labels = np.array([0] * 8 + [1] * 12)
    wins = window(samples, 5, channels=two_channels()[:1], labels=labels)
    # window [5:10) straddles the boundary and must disappear
    assert [w.label for w in wins] == [0, 1, 1]


def test_window_bad_args():
    one = two_channels()[:1]
    with pytest.raises(DataError):
        window(np.zeros((10, 1)), 0, channels=one)
    with pytest.raises(DataError):
        window(np.zeros((10, 1)), 5, 0, channels=one)
    with pytest.raises(DataError, match="2-d"):  # a bare series is not promoted to one channel
        window(np.zeros(10), 5, channels=one)
    with pytest.raises(DataError, match="2-d"):  # even one too short to cut a window from
        window(np.zeros(3), 5, channels=one)
    for labels in (np.zeros(9), np.zeros(11)):  # one label per row
        with pytest.raises(DataError, match=f"{len(labels)} labels for 10 rows"):
            window(np.zeros((10, 1)), 5, channels=one, labels=labels)


def test_window_copies_the_callers_array_once():
    # the windows are read-only views of one copy: the caller's array is
    # neither aliased nor flagged, and a later change to it moves no window
    samples = np.arange(40, dtype=np.float64).reshape(20, 2)
    wins = window(samples, 5, channels=two_channels())
    want = [w.samples.copy() for w in wins]
    assert samples.flags.writeable
    assert not any(np.shares_memory(samples, w.samples) for w in wins)
    assert all(w.samples.base is wins[0].samples.base for w in wins)
    samples[:] = -1.0
    assert all(np.array_equal(w.samples, v) for w, v in zip(wins, want))
    with pytest.raises(ValueError, match="read-only"):
        wins[0].samples[0, 0] = 1.0


def test_generated_and_loaded_windows_are_read_only_views(tmp_path):
    # each class's generated windows view its stream, and a loaded dataset's
    # windows view the one matrix they were cut from; writing to either raises
    spec = bench_spec(seed=4, windows_per_class=3)
    generated = generate_synthetic(spec)
    loaded = load_dataset(load_manifest(write_synthetic_dataset(spec, tmp_path))).windows
    for windows, owners in ((generated, 4), (loaded, 1)):
        assert len({id(w.samples.base) for w in windows}) == owners
        for w in windows:
            assert not w.samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w.samples[0, 0] = 0.0
    assert all(a.samples.tobytes() == b.samples.tobytes() for a, b in zip(generated, loaded))


# ---------------------------------------------------------------------------
# segmentation and stats: the windows made here, cut and normalized by
# model.prepare_windows


def batch_of(windows, seg_len):
    """(norm_segments, stats) of `prepare_windows` over `windows`, with room
    for all their segments."""
    config = ModelConfig(segment_len=seg_len, segments_per_channel=windows[0].window_len, meta_dim=4)
    batch = prepare_windows(windows, config, make_provider("deterministic-hash", dim=4, seed=0))
    return batch.norm_segments, batch.stats


def prepared(stack, seg_len):
    """`batch_of` one window per (T, C) matrix of the (B, T, C) `stack`."""
    stack = np.asarray(stack, dtype=np.float64)
    channels = [ChannelMetadata("wrist", "accelerometer", f"a{c}", 100.0) for c in range(stack.shape[-1])]
    return batch_of([SensorWindow(samples, channels) for samples in stack], seg_len)


def ramp_window():
    # sample (t, c) = t + 100 c so segment identity is readable
    t = np.arange(12, dtype=np.float64)
    samples = np.stack([t, t + 100.0], axis=1)
    return SensorWindow(samples, two_channels())


def test_segment_channel_major_order():
    values, stats = batch_of([ramp_window()], 4)
    assert values.shape == (1, 2, 3, 4)  # 3 per channel, channel 0 first
    assert stats.shape == (1, 2, 3, 2)
    # a ramp segment's raw mean names it; every ramp segment normalizes alike
    assert stats[0, 0, 1, 0] == 5.5  # samples 4..7 of channel 0
    np.testing.assert_allclose(values[0, 0, 1], oracles.normalize([4.0, 5.0, 6.0, 7.0]), rtol=0, atol=1e-12)
    # flattened, the fourth segment is channel 1's first
    assert stats.reshape(-1, 2)[3, 0] == 101.5
    np.testing.assert_allclose(
        values.reshape(-1, 4)[3], oracles.normalize([100.0, 101.0, 102.0, 103.0]), rtol=0, atol=1e-12
    )


def test_segment_count_floor():
    assert batch_of([ramp_window()], 5)[0].shape == (1, 2, 2, 5)  # floor(12/5)=2 per channel
    for bad in (13, 0):  # longer than the window; no samples
        with pytest.raises(ConfigError):
            batch_of([ramp_window()], bad)


def test_stats_are_raw_and_match_oracle():
    rng = np.random.default_rng(7)
    samples = rng.normal(3.0, 2.0, size=(20, 2))
    values, stats = prepared([samples], 5)
    for c in range(2):
        for t in range(4):
            mu, var = oracles.mean_and_popvar(samples[t * 5 : (t + 1) * 5, c])
            assert stats[0, c, t, 0] == pytest.approx(mu, abs=1e-12)
            assert stats[0, c, t, 1] == pytest.approx(var, abs=1e-12)


@pytest.mark.parametrize("seg_len", [50, 7, 1])
def test_prepared_segments_are_the_two_pass_bits(seg_len):
    # one pass that normalizes from the stats it takes equals cutting the
    # segments, taking their stats and then normalizing with a second
    # mean/std pass, bit for bit; the batch, normalized in place, is never
    # a view of the windows, even with one channel
    rng = np.random.default_rng(17)
    inputs = [np.stack([w.samples for w in generate_synthetic(bench_spec(seed))]) for seed in (0, 1, 913)]
    inputs += [
        np.full((1, 60, 3), 3.7),  # constant
        rng.normal(size=(4, 60, 3)) * 1e3,
        1.0 + 1e-9 * rng.normal(size=(4, 60, 3)),  # jitter far below the mean
        rng.normal(size=(3, 103, 1)),  # one channel
    ]
    for samples in inputs:
        values, stats = prepared(samples, seg_len)
        assert not np.shares_memory(values, samples)
        want_values, want_stats = oracles.segment_two_pass(samples, seg_len)
        assert values.tobytes() == want_values.tobytes()
        assert stats.tobytes() == want_stats.tobytes()


def test_instance_normalize_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=50)
        np.testing.assert_allclose(prepared([x[:, None]], 50)[0][0, 0, 0], oracles.normalize(x), rtol=0, atol=1e-12)


def test_instance_normalize_constant_is_zero():
    # mean of a constant array can be off by an ulp, so "zero" means
    # (tiny numerator) / eps, not exact zeros
    out = prepared([np.full((10, 1), 3.7)], 10)[0]
    np.testing.assert_allclose(out, np.zeros((1, 1, 1, 10)), atol=1e-9)
    out = prepared([np.full((20, 1), 0.5)], 10)[0]  # exactly representable
    np.testing.assert_array_equal(out, np.zeros((1, 1, 2, 10)))


def test_segment_normalization_matches_single():
    # each window's channel normalizes alone as it does in the batch
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(4, 20, 6))
    normed = prepared(stack, 20)[0]
    for i in range(4):
        for j in range(6):
            np.testing.assert_array_equal(normed[i, j], prepared(stack[i : i + 1, :, j : j + 1], 20)[0][0, 0])


def test_normalize_rejects_nonfinite():
    # a window made from the caller's own array stays writable, so a value
    # can turn non-finite after the window's own check
    for row, bad in ((1, np.nan), (2, np.inf)):
        samples = np.ones((4, 2))
        windows = [SensorWindow(samples, two_channels())]
        samples[row, 1] = bad
        with pytest.raises(DataError, match="cannot normalize segments with non-finite values"):
            batch_of(windows, 2)


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
    explicit = {**SPEC_DICT, "channels": [{**SPEC_DICT["channels"][0], "native_rate": 20}]}
    assert synthetic_spec_from_dict(explicit).channels[0].native_rate == 20.0


@pytest.mark.parametrize("native_rate", [50.0, float("inf"), float("nan"), 0, -20])
def test_a_synthetic_channel_rate_other_than_the_spec_rate_is_refused(native_rate):
    # a synthetic channel is sampled at the spec's rate, which its manifest
    # entry records, so any other rate, non-finite ones included, is a
    # ConfigError naming the channel, from JSON and from the dataclasses
    raw = {**SPEC_DICT, "channels": [{**SPEC_DICT["channels"][0], "native_rate": native_rate}]}
    with pytest.raises(ConfigError, match=r"channels\[0\]\.native_rate must equal the spec's rate 20"):
        synthetic_spec_from_dict(raw)
    spec = synthetic_spec_from_dict(SPEC_DICT)
    if 0 < native_rate < float("inf"):
        channels = [ChannelMetadata("wrist", "accelerometer", "x", native_rate)]
        with pytest.raises(ConfigError, match=r"channels\[0\]"):
            SyntheticSpec(spec.classes, channels, spec.windows_per_class, spec.seed, spec.rate, spec.window_len)


@pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0])
def test_channel_and_label_rates_must_be_finite_and_positive(tmp_path, rate):
    with pytest.raises(DataError, match="native_rate must be finite and > 0"):
        ChannelMetadata("wrist", "accelerometer", "x", rate)
    with pytest.raises(DataError, match="label native_rate must be finite and > 0"):
        LabelSource("data.csv", "label", rate)
    # a manifest that says 1e400 (inf) Hz is refused as it loads
    for key, value in (
        ("label", {"file": "data.csv", "column": "label", "native_rate": rate}),
        ("target_rate", rate),
    ):
        manifest = one_channel_dataset(tmp_path, GOOD_CSV, **{key: value})
        manifest.write_text(manifest.read_text().replace("Infinity", "1e400"))
        with pytest.raises(DataError, match="rate must be finite and > 0"):
            load_manifest(manifest)


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


def short_label_dataset(tmp_path, label_rate):
    """400 rows: channel `v` at 50 Hz, and 200 rows of walk then 200 of run
    in column `label` at `label_rate`; target 50 Hz, windows of 50."""
    rows = "".join(f"{float(np.sin(i / 7.0))!r},{'walk' if i < 200 else 'run'}\n" for i in range(400))
    (tmp_path / "data.csv").write_text("v,label\n" + rows)
    manifest = {
        "name": "short-labels",
        "target_rate": 50.0,
        "window": 50,
        "label": {"file": "data.csv", "column": "label", "native_rate": label_rate},
        "channels": [
            {"file": "data.csv", "column": "v", "body_part": "wrist", "sensor": "accelerometer", "axis": "x", "native_rate": 50.0},
        ],
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return tmp_path / "m.json"


def test_a_label_stream_shorter_than_the_channels_cuts_them(tmp_path):
    # labels at 100 Hz give 200 rows at the target, beside 400 channel rows:
    # the channel is cut to the labelled rows, as the channels are cut to
    # the shortest (a window past the labels' end raised a bare IndexError)
    loaded = load_dataset(load_manifest(short_label_dataset(tmp_path, 100.0)))
    assert [loaded.class_names[w.label] for w in loaded.windows] == ["walk", "walk", "run", "run"]
    stitched = np.concatenate([w.samples[:, 0] for w in loaded.windows])
    np.testing.assert_array_equal(stitched, [float(np.sin(i / 7.0)) for i in range(200)])


def test_a_load_left_with_no_labelled_window_exits_3(tmp_path, capsys):
    # labels at 1000 Hz give 20 rows at the target, fewer than one window
    manifest = short_label_dataset(tmp_path, 1000.0)
    assert load_dataset(load_manifest(manifest)).windows == []
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"datasets": [str(manifest)], "out_dir": str(tmp_path / "out")}))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "data" and "no complete windows" in record["message"]


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


def test_writer_bytes_match_csv_writer_oracle(tmp_path, each_block_size):
    # class names that csv.writer must quote (a comma, a quote, a line
    # break), with a `%` and a `%r` the writer's row template must keep
    spec = small_spec(seed=4)
    for cls, name in zip(spec.classes, ['walk, 50% slow', 'say "%r"\nloud%']):
        cls.name = name
    channel_names = [f"{m.body_part}_{m.sensor}_{m.axis}".lower() for m in spec.channels]
    oracles.write_data_csv(tmp_path / "want.csv", channel_names, spec.class_names, synthesize_streams(spec))
    direct = generate_synthetic(spec)
    for rows in each_block_size():
        manifest_path = write_synthetic_dataset(spec, tmp_path / f"ds{rows}")
        assert (tmp_path / f"ds{rows}" / "data.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        loaded = load_dataset(load_manifest(manifest_path))
        assert loaded.class_names == spec.class_names
        assert [w.label for w in loaded.windows] == [w.label for w in direct]
        for got, want in zip(loaded.windows, direct):
            assert got.samples.tobytes() == want.samples.tobytes()


def written_sha256(spec, out) -> dict:
    """The sha256 of each file `write_synthetic_dataset` writes for `spec`."""
    write_synthetic_dataset(spec, out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in WRITTEN}


WRITTEN = ("data.csv", ".data.csv.mpcache", "manifest.json")
# data.csv and its sidecar for the bench spec at seed 0 (500k rows), as one
# process formatting every block wrote them
BENCH_SHA256 = {
    "data.csv": "b02dae27efc0098f35741172bcf5981a1f7859eec61f0c1ba76fde180d8409ba",
    ".data.csv.mpcache": "b6d7c0c8f80781b69ce1587e821a23b1ffd29a9f1f9bfabcec81714df6200a23",
}


@pytest.mark.parametrize("spec, blocks, pinned", [
    (bench_spec(seed=0, windows_per_class=250), 64, BENCH_SHA256),  # 15 whole blocks and a part per class
    (small_spec(seed=2), 2, {}),  # fewer blocks than 3 workers
    (bench_spec(seed=5, windows_per_class=17), 8, {}),  # 8500 rows a class: a block and a part
    (bench_spec(seed=5, windows_per_class=3), 4, {}),  # each class shorter than a block
], ids=["bench", "fewer-blocks-than-workers", "part-block", "class-shorter-than-a-block"])
def test_written_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, spec, blocks, pinned):
    # block i is formatted by worker i % k, k = min(cpus, blocks), the
    # workers past the first forked; every file is the bytes of k = 1
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(ingest._parallel, "cpus", lambda: 1)
    want = written_sha256(spec, tmp_path / "cpus1")
    assert forks == []
    assert {name: want[name] for name in pinned} == pinned
    for cpus in (2, 3):
        monkeypatch.setattr(ingest._parallel, "cpus", lambda: cpus)
        forks.clear()
        assert written_sha256(spec, tmp_path / f"cpus{cpus}") == want
        assert len(forks) == min(cpus, blocks) - 1
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# CSV parsing: what loads, what fails typed, and exact float parsing


@pytest.fixture
def each_block_size(monkeypatch):
    """A loop over block sizes: the body runs once at the module's parse and
    write block sizes (the loop variable is None) and once each with both
    patched to 1, 2 and 3 rows, so rows, faults and quoted line breaks fall
    on every side of a block boundary."""

    def sizes():
        yield None
        for rows in (1, 2, 3):
            monkeypatch.setattr(ingest, "_PARSE_ROWS", rows)
            monkeypatch.setattr(ingest, "_WRITE_ROWS", rows)
            yield rows

    return sizes


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
    # the line count sees 3 lines, so the parse grows its columns past it
    pytest.param("v,label\n1.5,a\r-2.25,a\n3.0,b\r4.0,b\n", id="mixed LF and CR line ends"),
    pytest.param(GOOD_CSV[:-1], id="no line end after the last row"),
    pytest.param('"v","label"\n"1.5","a"\n"-2.25",a\n3.0,"b"\n"4.0","b"\n', id="quoted fields"),
    pytest.param("v,label\n 1.5 ,a\n-2.25\t,a\n  3.0,b\n4.0 ,b\n", id="space-padded numbers"),
    pytest.param("label,v,note\na,1.5,x\na,-2.25,\nb,3.0,\"y, z\"\nb,4.0,w\n", id="other column order and unused columns"),
])
def test_csv_forms_that_load(tmp_path, monkeypatch, each_block_size, data):
    parses = count_parses(monkeypatch)
    for rows in each_block_size():
        (tmp_path / f"rows{rows}").mkdir()
        manifest = load_manifest(one_channel_dataset(tmp_path / f"rows{rows}", data))
        loaded = load_dataset(manifest)
        assert [w.label for w in loaded.windows] == [0, 1]
        np.testing.assert_array_equal(np.concatenate([w.samples[:, 0] for w in loaded.windows]), [1.5, -2.25, 3.0, 4.0])
        assert_same_dataset(load_dataset(manifest), loaded)  # served by the sidecar
        assert len(parses) == 1
        parses.clear()


def test_quoted_line_breaks_across_parse_blocks(tmp_path, each_block_size):
    # every label holds a line break, so with blocks of 1, 2 and 3 rows one
    # falls at each end of a block and the line count differs from the rows;
    # the name that sorts last comes first, so the codes must be remapped
    data = 'v,label\n1.5,"c\r\nd"\n-2.25,"c\r\nd"\n3.0,"a\nb"\n4.0,"a\nb"\n5.0,"a\nb"\n6.0,"a\nb"\n'
    for rows in each_block_size():
        (tmp_path / f"rows{rows}").mkdir()
        manifest = one_channel_dataset(tmp_path / f"rows{rows}", data, classes=["c\r\nd", "a\nb"])
        loaded = load_dataset(load_manifest(manifest))
        assert loaded.class_names == ["c\r\nd", "a\nb"]
        assert [w.label for w in loaded.windows] == [0, 1, 1]
        np.testing.assert_array_equal(np.concatenate([w.samples[:, 0] for w in loaded.windows]), [1.5, -2.25, 3.0, 4.0, 5.0, 6.0])
        sidecar = load_tensors(sidecar_of(tmp_path / f"rows{rows}" / "data.csv"), "csv-columns")
        assert sidecar[0]["names"] == {"label": ["a\nb", "c\r\nd"]}
        assert sidecar[1]["label"].tolist() == [1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("data, line", [
    pytest.param("", None, id="empty file"),
    pytest.param("v,label\n", None, id="header only"),
    pytest.param("v,label\n\n", None, id="header and an empty line"),
    pytest.param("v,label\n1.5,a\n-2.25\n3.0,b\n4.0,b\n", 3, id="short row"),
    pytest.param("v,label\n1.5,a\n-2.25,a,a\n3.0,b\n4.0,b\n", 3, id="long row"),
    pytest.param("v,label\n1.5,a\nfast,a\n3.0,b\n4.0,b\n", 3, id="non-numeric sample"),
    pytest.param("v,label\n1.5,a\n,a\n3.0,b\n4.0,b\n", 3, id="empty numeric field"),
    pytest.param("v,label\n1.5,a\n1_5,a\n3.0,b\n4.0,b\n", 3, id="underscore in a number"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n3.0,b\nfast,b\n", 5, id="non-numeric sample on the last line"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n3.0,b\n4\n", 5, id="short row on the last line"),
    # a blank line is a line: the fault after it is named, not the blank line
    pytest.param("v,label\n1.5,a\n-2.25,a\n\n3.0,b\nfast,b\n", 6, id="non-numeric sample after a blank line"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n\n3.0,b\n4\n", 6, id="short row after a blank line"),
    pytest.param('v,label\n1.5,"a\nb"\n-2.25,a\nfast,b\n', 5, id="non-numeric sample after a quoted line break"),
    pytest.param("v,label\r1.5,a\r-2.25,a\r3.0,b\r4\r", 5, id="short row after CR rows"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n\n3.0,b\n4.0,b\n", 4, id="blank line in the body"),
    pytest.param(GOOD_CSV + "\n", 6, id="blank line at the end"),
    pytest.param("v,label\r\n1.5,a\r\n\r\n-2.25,a\r\n3.0,b\r\n4.0,b\r\n", 3, id="blank line after CRLF rows"),
    pytest.param("v,label\r1.5,a\r\r-2.25,a\r3.0,b\r4.0,b\r", 3, id="blank line after CR rows"),
    pytest.param("v,v,label\n1.5,1.5,a\n-2.25,1,a\n3.0,1,b\n4.0,1,b\n", None, id="duplicate column name"),
    pytest.param("w,label\n1.5,a\n-2.25,a\n3.0,b\n4.0,b\n", None, id="missing channel column"),
    pytest.param("v,class\n1.5,a\n-2.25,a\n3.0,b\n4.0,b\n", None, id="missing label column"),
    pytest.param("v,label\n1.5,a\n-2.25,a\n3.0,c\n4.0,c\n", None, id="label not in classes"),
    pytest.param("v,label\n1.5,a\n", None, id="single row"),
    pytest.param("v,label\n1.5,a\nnan,a\n3.0,b\n4.0,b\n", 3, id="non-finite sample"),
    pytest.param(GOOD_CSV + "5.0,b\n6.0,b\n7.0,b\n8,b\nfast,b\n9,b\n", 10, id="non-numeric sample in a later block"),
    pytest.param(GOOD_CSV + "5.0,b\n6.0,b\n7.0,b\n8,b\n9\n", 10, id="short row in a later block"),
    pytest.param(GOOD_CSV + "5.0,b\n6.0,b\n\n7.0,b\n8,b\nfast,b\n", 11, id="non-numeric sample after a blank line in a later block"),
    pytest.param(GOOD_CSV + "5.0,b\n6.0,b\n7.0,b\n\n8,b\n", 9, id="blank line in a later block"),
])
@pytest.mark.filterwarnings("error")  # loadtxt's no-data warnings must not escape either
def test_csv_faults_raise_data_error(tmp_path, each_block_size, data, line):
    messages = set()
    for rows in each_block_size():
        (tmp_path / f"rows{rows}").mkdir()
        manifest = load_manifest(one_channel_dataset(tmp_path / f"rows{rows}", data))
        for _ in range(2):  # a failed load leaves nothing that changes the next
            with pytest.raises(DataError) as info:
                load_dataset(manifest)
            # the same message whatever block the fault falls in
            messages.add(str(info.value).replace(str(tmp_path / f"rows{rows}"), "DIR"))
        assert sorted(p.name for p in (tmp_path / f"rows{rows}").iterdir()) == ["data.csv", "m.json"]
    assert len(messages) == 1, messages
    # numpy's advice names a loadtxt argument no manifest key or flag sets
    assert not any("usecols" in message for message in messages), messages
    # a row fault names its file line, the header being line 1
    assert (f"at line {line}" in messages.pop()) == (line is not None)


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


def test_csv_floats_equal_python_float_bit_for_bit(tmp_path, each_block_size):
    strings = adversarial_float_strings(seed=21)
    data = "v,label\n" + "".join(f"{s},a\n" for s in strings)
    want = np.array([float(s) for s in strings])
    for rows in each_block_size():
        (tmp_path / f"rows{rows}").mkdir()
        manifest = one_channel_dataset(tmp_path / f"rows{rows}", data, window=len(strings))
        (only,) = load_dataset(load_manifest(manifest)).windows
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
# memory the CSV writer and the cold parse hold besides their data


def traced_peak(fn):
    """fn's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def csv_io_overheads(tmp_path_factory):
    """For bench-spec datasets of 32000 and 128000 rows (2 and 8 parse
    blocks): the writer's traced peak minus the bytes of the streams it
    writes, the cold parse's peak minus the bytes of the columns it returns,
    and one class stream's and one returned column's bytes at the larger."""
    out = {}
    for windows_per_class in (16, 64):
        spec = bench_spec(seed=3, windows_per_class=windows_per_class)
        streams = synthesize_streams(spec)
        stream_bytes, class_bytes = sum(s.nbytes for s in streams), streams[0].nbytes
        del streams
        path = tmp_path_factory.mktemp(f"w{windows_per_class}")
        manifest, write_peak = traced_peak(lambda: load_manifest(write_synthetic_dataset(spec, path)))
        numeric = sorted(ch.column for ch in manifest.channels)
        columns, parse_peak = traced_peak(lambda: ingest._parse_csv(path / "data.csv", numeric, [manifest.label.column]))
        returned = [*columns.numbers.values(), *(codes for _, codes in columns.labels.values())]
        out[windows_per_class] = {
            "write": write_peak - stream_bytes,
            "parse": parse_peak - sum(a.nbytes for a in returned),
            "class": class_bytes,
            "column": returned[0].nbytes,
        }
    return out[16], out[64]


def test_csv_parse_holds_a_block_not_the_file(csv_io_overheads):
    # one loadtxt call over the body held 6.2 and 21.8 MB beyond the columns
    small, large = csv_io_overheads
    assert large["parse"] - small["parse"] <= large["column"]  # the join holds one more column


def test_load_and_generate_peak_memory_holds_one_copy_of_the_windows(tmp_path, monkeypatch):
    # tracemalloc sees numpy's buffers. Loading a dataset peaked at 3.7
    # times its windows' bytes, parsed or served by the sidecar (the columns,
    # their stacked matrix and each window's copy), and generating one at
    # 2.0; the windows are now views of the matrix the columns were read
    # into, and of the synthesized streams (1.33). Served by the sidecar,
    # the load peaks at 1.38: that matrix and the label codes, which each
    # window's code maps to its label (with the labels per row beside the
    # codes, 1.7). Parsed, it peaked at 1.72 while it joined the label
    # codes of its blocks; written into one column, they leave 1.60, the
    # rest being the parse's own block of rows. Parse blocks of 4096 rows
    # keep that block (test_csv_parse_holds_a_block_not_the_file) small
    # next to these 3 MB of windows.
    monkeypatch.setattr(ingest, "_PARSE_ROWS", 4096)
    spec = bench_spec(seed=6, windows_per_class=64)
    manifest = load_manifest(write_synthetic_dataset(spec, tmp_path))
    sidecar_of(tmp_path / "data.csv").unlink()  # synth's, so that the first load parses
    for path, bound in (("parse", 1.65), ("sidecar", 1.45)):
        loaded, peak = traced_peak(lambda: load_dataset(manifest))
        size = sum(w.samples.nbytes for w in loaded.windows)
        assert peak <= bound * size, (path, peak / size)
        assert sidecar_of(tmp_path / "data.csv").is_file()
        del loaded
    generated, peak = traced_peak(lambda: generate_synthetic(spec))
    assert peak <= 1.4 * sum(w.samples.nbytes for w in generated), peak / sum(w.samples.nbytes for w in generated)


def test_csv_writer_holds_a_block_not_the_file(csv_io_overheads):
    # formatting each class as one string held 2.2 and 8.8 MB beyond the streams
    small, large = csv_io_overheads
    assert large["write"] - small["write"] <= large["class"]  # synthesis temporaries of one class


# ---------------------------------------------------------------------------
# parsed-column sidecars


def test_sidecar_serves_the_bench_spec_unchanged(tmp_path, monkeypatch):
    manifest = load_manifest(write_synthetic_dataset(bench_spec(seed=7, windows_per_class=6), tmp_path))
    sidecar_of(tmp_path / "data.csv").unlink()  # synth's, so that the first load parses
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


def test_synth_writes_the_sidecar_a_cold_parse_writes(tmp_path, monkeypatch):
    # keyed by the sha256 of the bytes synth wrote, it serves the first load,
    # and its bytes are those a parse of the CSV writes
    spec = bench_spec(seed=7, windows_per_class=6)
    manifest = load_manifest(write_synthetic_dataset(spec, tmp_path))
    sidecar = sidecar_of(tmp_path / "data.csv")
    written = sidecar.read_bytes()
    parses = count_parses(monkeypatch)
    served = load_dataset(manifest)
    assert parses == []
    sidecar.unlink()
    assert_same_dataset(load_dataset(manifest), served)
    assert parses == [tmp_path / "data.csv"]
    assert sidecar.read_bytes() == written
    generated = generate_synthetic(spec)
    assert [w.label for w in served.windows] == [w.label for w in generated]
    for got, want in zip(served.windows, generated, strict=True):
        assert got.samples.tobytes() == want.samples.tobytes()


def test_synth_writes_its_sidecar_a_class_at_a_time(tmp_path, monkeypatch):
    # the columns and codes reach the sidecar one class chunk at a time, so
    # while it is written synth holds one class's column (256 kB here)
    # beyond what it held before, not a whole column (1 MB)
    spec = bench_spec(seed=3, windows_per_class=64)
    save, held = tensorfile.save_tensors, []

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save(*args)
        held.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(tensorfile, "save_tensors", traced)
    tracemalloc.start()
    try:
        write_synthetic_dataset(spec, tmp_path)
    finally:
        tracemalloc.stop()
    column = spec.windows_per_class * spec.window_len * 8
    assert len(held) == 1 and held[0] <= 1.5 * column, held


def test_csv_edited_after_synth_is_parsed_once_and_its_sidecar_rewritten(tmp_path, monkeypatch):
    manifest = load_manifest(write_synthetic_dataset(bench_spec(seed=7, windows_per_class=2), tmp_path))
    data = tmp_path / "data.csv"
    written = sidecar_of(data).read_bytes()
    header, first, rest = data.read_bytes().split(b"\n", 2)
    data.write_bytes(b"\n".join([header, b"0.5" + first[first.index(b",") :], rest]))
    parses = count_parses(monkeypatch)
    for _ in range(2):
        assert load_dataset(manifest).windows[0].samples[0, 0] == 0.5
    assert parses == [data]
    assert sidecar_of(data).read_bytes() != written
    sha256 = hashlib.sha256(data.read_bytes()).hexdigest()
    assert load_tensors(sidecar_of(data), "csv-columns")[0]["sha256"] == sha256


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
    # the labeled load's sidecar also serves the unlabeled load's subset
    assert len(parses) == 1


def test_sidecar_missing_a_column_is_rewritten_with_both_column_sets(tmp_path, monkeypatch):
    unlabeled = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV, label=None, classes=[]))
    labeled = load_manifest(one_channel_dataset(tmp_path, GOOD_CSV))
    parses = count_parses(monkeypatch)
    for manifest, labels in [(unlabeled, [None, None]), (labeled, [0, 1]), (unlabeled, [None, None])]:
        for _ in range(2):
            assert [w.label for w in load_dataset(manifest).windows] == labels
    # the labeled load parses both loads' columns once; every later load is served
    assert len(parses) == 2
    meta, tensors = load_tensors(sidecar_of(tmp_path / "data.csv"), "csv-columns")
    assert (meta["numeric"], meta["text"], sorted(tensors)) == (["v"], ["label"], ["label", "v"])


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


@pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
def test_non_finite_csv_value_names_file_column_and_line(tmp_path, monkeypatch, value):
    # every channel column is checked once, as read and before any window is
    # cut, and the error names the file, the column and the value's line
    data = "label,u,v\na,1,1.5\na,2,-2.25\nb,3,3.0\n" f"b,4,{value}\n"
    manifest = one_channel_dataset(tmp_path, data)
    monkeypatch.setattr(ingest, "_window_views", lambda *args: pytest.fail("windows cut"))
    for _ in range(2):
        with pytest.raises(DataError) as info:
            load_dataset(load_manifest(manifest))
        message = str(info.value)
        assert message.startswith(f"{tmp_path / 'data.csv'}: column 'v' holds the non-finite value")
        assert message.endswith("at line 5")
    assert not sidecar_of(tmp_path / "data.csv").exists()


def test_evaluate_then_analyze_parse_once(tmp_path, monkeypatch, capsys):
    spec = bench_spec(seed=2, windows_per_class=2)
    manifest = write_synthetic_dataset(spec, tmp_path / "data")
    ckpt = tmp_path / "model.ckpt"
    config = ModelConfig(codebook_size=8, segment_len=50, model_dim=8, meta_dim=16, depth=1, heads=2,
                         segments_per_channel=10, num_classes=4)
    save_checkpoint(ckpt, init_model(config, seed=0))
    sidecar_of(tmp_path / "data" / "data.csv").unlink()  # synth's, so that evaluate parses
    parses = count_parses(monkeypatch)
    for command in ("evaluate", "analyze"):
        argv = [command, str(ckpt), str(manifest), "--set", f"out_dir={tmp_path / 'out'}"]
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert parses == [tmp_path / "data" / "data.csv"]
