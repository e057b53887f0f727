"""Sensor data ingestion: resampling, windowing, segmentation, normalization,
synthetic data generation, and manifest-driven CSV loading.

Everything here is a pure function over immutable inputs; nothing mutates its
arguments, so callers are free to parallelize across windows.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_TARGET_RATE = 100.0
DEFAULT_WINDOW_LEN = 500
DEFAULT_NORM_EPS = 1e-5

GENERATOR_IDS = ("sine", "square", "sawtooth", "constant")


@dataclass
class ChannelMetadata:
    """Identity of one sensor channel: where it sits, what it measures."""

    body_part: str
    sensor: str
    axis: str
    native_rate: float

    def __post_init__(self) -> None:
        if not (self.body_part and self.sensor and self.axis):
            raise DataError("channel metadata labels must be non-empty")
        if not self.native_rate > 0:
            raise DataError(f"native_rate must be > 0, got {self.native_rate}")


@dataclass
class SensorWindow:
    """One recognition unit: a (window_len, num_channels) block of resampled
    samples plus per-channel metadata and an optional activity label."""

    samples: np.ndarray
    channels: list[ChannelMetadata]
    label: int | None = None
    source_id: str = ""

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DataError("window samples must be a 2-d (time, channel) array")
        if self.samples.shape[1] != len(self.channels):
            raise DataError(
                f"window has {self.samples.shape[1]} columns but {len(self.channels)} channel descriptors"
            )
        if self.samples.shape[1] < 1:
            raise DataError("window needs at least one channel")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("window samples must be finite")

    @property
    def window_len(self) -> int:
        return self.samples.shape[0]

    @property
    def num_channels(self) -> int:
        return self.samples.shape[1]


def placeholder_channels(count: int, rate: float = DEFAULT_TARGET_RATE) -> list[ChannelMetadata]:
    """Generic metadata for windows built from bare matrices (tests, demos)."""
    return [ChannelMetadata("na", "ch", str(i), rate) for i in range(count)]


# ---------------------------------------------------------------------------
# Core signal operations


def resample(series: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    """Linearly resample a 1-d series from src_rate to dst_rate.

    Output length is round(len * dst_rate / src_rate); the first and last
    samples are preserved exactly, interior points are linear interpolants
    of neighboring source samples.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise DataError("resample expects a 1-d series")
    if series.size < 2:
        raise DataError(f"resample needs at least 2 samples, got {series.size}")
    if not (src_rate > 0 and dst_rate > 0):
        raise DataError("sample rates must be > 0")
    out_len = int(round(series.size * dst_rate / src_rate))
    if src_rate == dst_rate:
        return series.copy()
    if out_len < 2:
        raise DataError(f"resampling {series.size} samples to {out_len} is degenerate")
    positions = np.linspace(0.0, series.size - 1, out_len)
    return np.interp(positions, np.arange(series.size), series)


def resample_nearest(series: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    """Nearest-neighbor resampling for categorical series (labels)."""
    series = np.asarray(series)
    if series.size < 2:
        raise DataError("resample_nearest needs at least 2 samples")
    out_len = int(round(series.size * dst_rate / src_rate))
    positions = np.linspace(0.0, series.size - 1, out_len)
    return series[np.rint(positions).astype(int)]


def window(
    samples: np.ndarray,
    win: int,
    stride: int | None = None,
    *,
    channels: list[ChannelMetadata] | None = None,
    labels: np.ndarray | None = None,
    source_id: str = "",
) -> list[SensorWindow]:
    """Cut a (total_len, num_channels) matrix into fixed-length windows.

    Windows start at 0, stride, 2*stride, ...; a trailing partial window is
    discarded. With `labels` (one per row), windows whose label is not
    uniform are dropped and the rest carry that label.
    """
    if win <= 0 or (stride is not None and stride <= 0):
        raise DataError("window and stride must be > 0")
    if stride is None:
        stride = win
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if channels is None:
        channels = placeholder_channels(samples.shape[1])
    out: list[SensorWindow] = []
    for start in range(0, samples.shape[0] - win + 1, stride):
        block = samples[start : start + win]
        label = None
        if labels is not None:
            chunk = labels[start : start + win]
            first = chunk[0]
            if not np.all(chunk == first):
                continue  # crosses an activity boundary
            label = int(first)
        out.append(SensorWindow(block.copy(), list(channels), label=label, source_id=source_id))
    return out


def segment_matrix(samples: np.ndarray, seg_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut (..., T, C) samples into non-overlapping single-channel segments.

    Returns (values, stats) with shapes (..., C, S, L) and (..., C, S, 2),
    S = floor(T / L), in channel-major order: all of channel 0 in time order,
    then channel 1, and so on. Stats are the mean and population variance of
    the raw values, taken before any normalization so they keep the scale.
    """
    samples = np.asarray(samples, dtype=np.float64)
    T, C = samples.shape[-2:]
    if not 0 < seg_len <= T:
        raise DataError(f"segment length {seg_len} must be in [1, window length {T}]")
    S = T // seg_len
    values = np.swapaxes(samples[..., : S * seg_len, :], -1, -2)
    # copy: with one channel the reshape is a view of samples
    values = values.reshape(samples.shape[:-2] + (C, S, seg_len)).copy()
    stats = np.stack([values.mean(axis=-1), values.var(axis=-1)], axis=-1)
    return values, stats


def normalize_matrix(values: np.ndarray, eps: float = DEFAULT_NORM_EPS) -> np.ndarray:
    """Instance normalization over the last axis of a stack of segments:
    (s - mean) / (population std + eps). A constant segment maps to zeros."""
    if eps <= 0:
        raise ConfigError("eps must be > 0")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError("cannot normalize segments with non-finite values")
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    return (values - mean) / (std + eps)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass
class WaveformSpec:
    """One channel's generator within a class."""

    kind: str
    amplitude: float = 1.0
    frequency: float = 1.0
    phase: float = 0.0
    offset: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_IDS:
            raise ConfigError(f"unknown waveform generator {self.kind!r}; known: {GENERATOR_IDS}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


@dataclass
class SyntheticClass:
    name: str
    waveforms: list[WaveformSpec]


@dataclass
class SyntheticSpec:
    """Recipe for a labeled synthetic dataset: per-class, per-channel
    waveforms sampled at `rate`, cut into `window_len` windows."""

    classes: list[SyntheticClass]
    channels: list[ChannelMetadata]
    windows_per_class: int
    seed: int
    rate: float = DEFAULT_TARGET_RATE
    window_len: int = DEFAULT_WINDOW_LEN

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ConfigError("a synthetic spec needs at least 2 classes")
        for cls in self.classes:
            if len(cls.waveforms) != len(self.channels):
                raise ConfigError(
                    f"class {cls.name!r} defines {len(cls.waveforms)} waveforms "
                    f"for {len(self.channels)} channels"
                )
        if self.windows_per_class < 1:
            raise ConfigError("windows_per_class must be >= 1")
        if self.window_len < 1:
            raise ConfigError("window_len must be >= 1")

    @property
    def class_names(self) -> list[str]:
        return [c.name for c in self.classes]

    def zero_noise(self) -> "SyntheticSpec":
        """Copy of this spec with all noise removed (for shape enumeration)."""
        classes = [
            SyntheticClass(
                c.name,
                [
                    WaveformSpec(w.kind, w.amplitude, w.frequency, w.phase, w.offset, 0.0)
                    for w in c.waveforms
                ],
            )
            for c in self.classes
        ]
        return SyntheticSpec(
            classes, list(self.channels), self.windows_per_class, self.seed, self.rate, self.window_len
        )


def _waveform_values(wave: WaveformSpec, times: np.ndarray) -> np.ndarray:
    if wave.kind == "sine":
        return wave.amplitude * np.sin(2 * np.pi * wave.frequency * times + wave.phase) + wave.offset
    if wave.kind == "square":
        frac = (wave.frequency * times + wave.phase / (2 * np.pi)) % 1.0
        return np.where(frac < 0.5, wave.amplitude, -wave.amplitude) + wave.offset
    if wave.kind == "sawtooth":
        frac = (wave.frequency * times + wave.phase / (2 * np.pi)) % 1.0
        return wave.amplitude * (2.0 * frac - 1.0) + wave.offset
    if wave.kind == "constant":
        return np.full(times.shape, wave.offset, dtype=np.float64)
    raise ConfigError(f"unknown waveform generator {wave.kind!r}")


def synthesize_streams(spec: SyntheticSpec) -> list[np.ndarray]:
    """One continuous (windows_per_class * window_len, C) stream per class.

    Waveform phase runs continuously across window boundaries, so segment
    phases cycle deterministically through the stream. Noise is drawn from
    a single generator seeded with `spec.seed`, consumed class-major then
    channel-major; identical seeds give bit-identical streams.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.windows_per_class * spec.window_len
    times = np.arange(total, dtype=np.float64) / spec.rate
    streams = []
    for cls in spec.classes:
        block = np.empty((total, len(spec.channels)), dtype=np.float64)
        for ci, wave in enumerate(cls.waveforms):
            values = _waveform_values(wave, times)
            if wave.noise_sigma > 0:
                values = values + rng.normal(0.0, wave.noise_sigma, size=total)
            else:
                rng.normal(0.0, 1.0, size=total)  # keep the draw order stable across sigma choices
            block[:, ci] = values
        streams.append(block)
    return streams


def generate_synthetic(spec: SyntheticSpec) -> list[SensorWindow]:
    """Labeled windows from a synthetic spec, deterministic given its seed."""
    windows: list[SensorWindow] = []
    for label, (cls, stream) in enumerate(zip(spec.classes, synthesize_streams(spec))):
        for w in window(
            stream,
            spec.window_len,
            channels=spec.channels,
            source_id=f"synthetic:{cls.name}",
        ):
            w.label = label
            windows.append(w)
    return windows


def synthetic_spec_from_dict(raw: dict) -> SyntheticSpec:
    """Parse the documented JSON schema into a SyntheticSpec."""
    known = {"classes", "channels", "windows_per_class", "seed", "rate", "window_len"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown synthetic spec keys: {sorted(unknown)}")
    for key in ("classes", "channels", "windows_per_class", "seed"):
        if key not in raw:
            raise ConfigError(f"synthetic spec missing required key {key!r}")
    try:
        channels = [
            ChannelMetadata(
                ch["body_part"], ch["sensor"], ch["axis"], float(ch.get("native_rate", raw.get("rate", DEFAULT_TARGET_RATE)))
            )
            for ch in raw["channels"]
        ]
        classes = []
        for cls in raw["classes"]:
            waveforms = [
                WaveformSpec(
                    w["kind"],
                    float(w.get("amplitude", 1.0)),
                    float(w.get("frequency", 1.0)),
                    float(w.get("phase", 0.0)),
                    float(w.get("offset", 0.0)),
                    float(w.get("noise_sigma", 0.0)),
                )
                for w in cls["waveforms"]
            ]
            classes.append(SyntheticClass(cls["name"], waveforms))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed synthetic spec: {exc}") from exc
    return SyntheticSpec(
        classes=classes,
        channels=channels,
        windows_per_class=int(raw["windows_per_class"]),
        seed=int(raw["seed"]),
        rate=float(raw.get("rate", DEFAULT_TARGET_RATE)),
        window_len=int(raw.get("window_len", DEFAULT_WINDOW_LEN)),
    )


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read synthetic spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"synthetic spec {path} is not valid JSON: {exc}") from exc
    return synthetic_spec_from_dict(raw)


# ---------------------------------------------------------------------------
# Manifest-driven CSV datasets


@dataclass
class ManifestChannel:
    file: str
    column: str
    meta: ChannelMetadata


@dataclass
class LabelSource:
    file: str
    column: str
    native_rate: float

    def __post_init__(self) -> None:
        if not self.native_rate > 0:
            raise DataError(f"label native_rate must be > 0, got {self.native_rate}")


@dataclass
class DatasetManifest:
    """Description of an on-disk dataset: which CSV columns hold which
    channels, their native rates, and where labels come from."""

    name: str
    channels: list[ManifestChannel]
    base_dir: Path
    target_rate: float = DEFAULT_TARGET_RATE
    window_len: int = DEFAULT_WINDOW_LEN
    stride: int | None = None
    label: LabelSource | None = None
    classes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.stride is not None and self.stride <= 0:
            raise ConfigError("stride must be > 0")
        if not self.channels:
            raise ConfigError("manifest lists no channels")
        for ch in self.channels:
            if not (self.base_dir / ch.file).is_file():
                raise DataError(f"manifest references missing file: {self.base_dir / ch.file}")
        if self.label is not None:
            label_path = self.base_dir / self.label.file
            if not label_path.is_file():
                raise DataError(f"manifest label file missing: {label_path}")
            for ch in self.channels:
                if (self.base_dir / ch.file, ch.column) == (label_path, self.label.column):
                    raise ConfigError(f"{self.label.file}: column {ch.column!r} is both a channel and the label")


@dataclass
class LoadedDataset:
    name: str
    windows: list[SensorWindow]
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    known = {"name", "channels", "target_rate", "window", "stride", "label", "classes"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown manifest keys: {sorted(unknown)}")
    if "channels" not in raw:
        raise ConfigError("manifest missing required key 'channels'")
    try:
        channels = [
            ManifestChannel(
                ch["file"],
                ch["column"],
                ChannelMetadata(ch["body_part"], ch["sensor"], ch["axis"], float(ch["native_rate"])),
            )
            for ch in raw["channels"]
        ]
        label = None
        if raw.get("label") is not None:
            lab = raw["label"]
            label = LabelSource(lab["file"], lab["column"], float(lab["native_rate"]))
        target_rate = float(raw.get("target_rate", DEFAULT_TARGET_RATE))
        window_len = int(raw.get("window", DEFAULT_WINDOW_LEN))
        stride = int(raw["stride"]) if raw.get("stride") is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed manifest {path}: {exc}") from exc
    return DatasetManifest(
        name=raw.get("name", path.stem),
        channels=channels,
        base_dir=path.parent,
        target_rate=target_rate,
        window_len=window_len,
        stride=stride,
        label=label,
        classes=[str(c) for c in raw.get("classes", [])],
    )


def _read_csv_columns(path: Path, numeric: set[str]) -> dict[str, np.ndarray]:
    """Every column of a CSV file by header name: float64 for the names in
    `numeric`, str objects for the rest. One loadtxt call parses the body;
    a short or long row, a non-numeric or empty number, a blank line and a
    file without data rows all raise DataError naming the file."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty CSV")
            if not header or len(set(header)) != len(header):
                raise DataError(f"{path}: the header must name each column once, got {header}")
            dtype = np.dtype([(f"f{i}", np.float64 if name in numeric else object) for i, name in enumerate(header)])
            with warnings.catch_warnings():
                # a body without rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if len(table) == 0:
        raise DataError(f"{path}: no data rows")
    if _count_lines(path) != len(table) + 1:
        # loadtxt skips an empty line, which csv.reader reads as a row of no
        # fields; bare CR line ends and a line break inside a quoted field
        # also make the counts differ
        with open(path, newline="") as fh:
            if any(not row for row in csv.reader(fh)):
                raise DataError(f"{path}: blank line in the CSV body")
    return {name: table[f"f{i}"] for i, name in enumerate(header)}


def _count_lines(path: Path) -> int:
    """LF bytes in a file, plus one for a last line that does not end in one."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            count += block.count(b"\n")
            last = block[-1:]
    return count + (last != b"\n")


def load_dataset(manifest: DatasetManifest) -> LoadedDataset:
    """Resample every channel to the manifest's target rate, align lengths,
    window, and attach labels. Mixed-label windows are dropped."""
    numeric: dict[Path, set[str]] = {}
    for ch in manifest.channels:
        numeric.setdefault(manifest.base_dir / ch.file, set()).add(ch.column)
    cache: dict[Path, dict[str, np.ndarray]] = {}

    def columns_of(rel: str) -> dict[str, np.ndarray]:
        path = manifest.base_dir / rel
        if path not in cache:
            cache[path] = _read_csv_columns(path, numeric.get(path, set()))
        return cache[path]

    series = []
    for ch in manifest.channels:
        cols = columns_of(ch.file)
        if ch.column not in cols:
            raise DataError(f"{ch.file}: no column named {ch.column!r}")
        series.append(resample(cols[ch.column], ch.meta.native_rate, manifest.target_rate))

    length = min(len(s) for s in series)
    matrix = np.stack([s[:length] for s in series], axis=1)

    labels = None
    class_names = list(manifest.classes)
    if manifest.label is not None:
        cols = columns_of(manifest.label.file)
        if manifest.label.column not in cols:
            raise DataError(f"{manifest.label.file}: no label column {manifest.label.column!r}")
        names, codes = np.unique(cols[manifest.label.column].astype(str), return_inverse=True)
        codes = resample_nearest(codes, manifest.label.native_rate, manifest.target_rate)[:length]
        present = names[np.bincount(codes, minlength=len(names)) > 0].tolist()
        if not class_names:
            class_names = present
        ids = {name: i for i, name in enumerate(class_names)}
        missing = set(present) - set(ids)
        if missing:
            raise DataError(f"labels not covered by manifest classes: {sorted(missing)}")
        # a name that resampling or truncation dropped maps to -1, never indexed
        labels = np.array([ids.get(name, -1) for name in names.tolist()], dtype=np.int64)[codes]

    channels = [ch.meta for ch in manifest.channels]
    windows = window(
        matrix,
        manifest.window_len,
        manifest.stride,
        channels=channels,
        labels=labels,
        source_id=manifest.name,
    )
    return LoadedDataset(manifest.name, windows, class_names)


def _label_suffix(name: str) -> str:
    """The end of a data row: a comma, the label quoted as csv.writer quotes
    it, and csv.writer's line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", name])
    return buf.getvalue()


def write_synthetic_dataset(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Materialize a synthetic spec as CSV + manifest; returns the manifest
    path. Loading the manifest reproduces `generate_synthetic(spec)` windows
    bit-exactly (values are written with full repr precision)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    streams = synthesize_streams(spec)
    channel_names = [f"{m.body_part}_{m.sensor}_{m.axis}".lower() for m in spec.channels]
    data_path = out_dir / "data.csv"
    with open(data_path, "w", newline="") as fh:
        csv.writer(fh).writerow(channel_names + ["label"])
        for cls, stream in zip(spec.classes, streams):
            suffix = _label_suffix(cls.name)
            fh.write(suffix.join(",".join(map(repr, row)) for row in stream.tolist()) + suffix)
    manifest = {
        "name": "synthetic",
        "target_rate": spec.rate,
        "window": spec.window_len,
        "stride": spec.window_len,
        "classes": spec.class_names,
        "label": {"file": "data.csv", "column": "label", "native_rate": spec.rate},
        "channels": [
            {
                "file": "data.csv",
                "column": name,
                "body_part": meta.body_part,
                "sensor": meta.sensor,
                "axis": meta.axis,
                "native_rate": spec.rate,
            }
            for name, meta in zip(channel_names, spec.channels)
        ],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path
