"""Sensor data ingestion: resampling, windowing, synthetic data generation,
and manifest-driven CSV loading (`model.prepare_windows` segments windows).

Everything here is a pure function over immutable inputs; nothing mutates its
arguments, so callers are free to parallelize across windows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import tensorfile
from .errors import CheckpointError, ConfigError, DataError
from .schema import check_fields, from_dict, read_json

DEFAULT_TARGET_RATE = 100.0
DEFAULT_WINDOW_LEN = 500

GENERATOR_IDS = ("sine", "square", "sawtooth", "constant")

logger = logging.getLogger("motionprim")

# What no class name, channel label or column name may hold: a C0 control
# other than tab, LF and CR, which a quoted CSV field carries (NUL among
# them, which numpy's string arrays drop from a name's end, so "a" and
# "a\0" would load as one class), or a lone surrogate, which no UTF-8 file
# can hold; XML 1.0 excludes the same characters. Every other text
# round-trips exactly.
_UNSAFE_TEXT = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff]")


def _check_names(what: str, names) -> None:
    """ConfigError naming the first of `names` that holds unsafe text."""
    bad = next((name for name in names if _UNSAFE_TEXT.search(name)), None)
    if bad is not None:
        raise ConfigError(f"{what} {bad!r} holds a control character or a lone surrogate")


@dataclass
class ChannelMetadata:
    """Identity of one sensor channel: where it sits, what it measures."""

    body_part: str
    sensor: str
    axis: str
    native_rate: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not (self.body_part and self.sensor and self.axis):
            raise DataError("channel metadata labels must be non-empty")
        if not 0 < self.native_rate < math.inf:
            raise DataError(f"native_rate must be finite and > 0, got {self.native_rate}")


@dataclass
class SensorWindow:
    """One recognition unit: a (window_len, num_channels) block of resampled
    samples plus per-channel metadata and an optional activity label. The
    windows of `window`, `generate_synthetic` and `load_dataset` hold
    read-only views of one matrix, which stays alive while any of them
    does."""

    samples: np.ndarray
    channels: list[ChannelMetadata]
    label: int | None = None

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
    channels: list[ChannelMetadata],
    labels: np.ndarray | None = None,
) -> list[SensorWindow]:
    """Cut a (total_len, num_channels) matrix into fixed-length windows.

    Windows start at 0, stride, 2*stride, ...; a trailing partial window is
    discarded. With `labels` (one per row; another count raises DataError),
    windows whose label is not uniform are dropped and the rest carry that
    label. The windows are read-only views of one copy of `samples`, so a
    later change to `samples` leaves them as they are.
    """
    samples = np.array(samples, dtype=np.float64)
    if samples.ndim != 2:  # also when too short for one window
        raise DataError("window samples must be a 2-d (time, channel) array")
    if labels is not None and len(labels) != len(samples):
        raise DataError(f"{len(labels)} labels for {len(samples)} rows; give one label per row")
    return _window_views(samples, win, stride, channels, None if labels is None else np.asarray(labels))


def _window_views(
    matrix: np.ndarray, win: int, stride: int | None, channels: list[ChannelMetadata], codes: np.ndarray | None,
    table: np.ndarray | None = None,
) -> list[SensorWindow]:
    """`window` over a 2-d float64 `matrix` that the windows may own, with
    one label code per row in `codes`: it is made read-only, and each
    window's samples are a view of it. A window's label is its code, or
    that code's entry of `table`."""
    if win <= 0 or (stride is not None and stride <= 0):
        raise DataError("window and stride must be > 0")
    if stride is None:
        stride = win
    matrix.flags.writeable = False
    out: list[SensorWindow] = []
    for start in range(0, matrix.shape[0] - win + 1, stride):
        label = None
        if codes is not None:
            chunk = codes[start : start + win]
            first = chunk[0]
            if not np.all(chunk == first):
                continue  # crosses an activity boundary
            label = int(first if table is None else table[first])
        out.append(SensorWindow(matrix[start : start + win], list(channels), label=label))
    return out


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
        check_fields(self)
        if self.kind not in GENERATOR_IDS:
            raise ConfigError(f"unknown waveform generator {self.kind!r}; known: {GENERATOR_IDS}")
        for name in ("amplitude", "frequency", "phase", "offset", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


@dataclass
class SyntheticClass:
    name: str
    waveforms: list[WaveformSpec]

    def __post_init__(self) -> None:
        check_fields(self)


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
        check_fields(self)
        _check_rate(self.rate)
        if len(self.classes) < 2:
            raise ConfigError("a synthetic spec needs at least 2 classes")
        if len(set(self.class_names)) < len(self.classes):
            raise ConfigError(f"class names must be unique, got {self.class_names}")
        _check_names("class name", self.class_names)
        _check_names("channel label", [label for m in self.channels for label in (m.body_part, m.sensor, m.axis)])
        if len(set(self.column_names)) < len(self.channels):
            raise ConfigError(f"channels must map to distinct CSV column names, got {self.column_names}")
        for cls in self.classes:
            if len(cls.waveforms) != len(self.channels):
                raise ConfigError(
                    f"class {cls.name!r} defines {len(cls.waveforms)} waveforms "
                    f"for {len(self.channels)} channels"
                )
        if self.windows_per_class < 1:
            raise ConfigError("windows_per_class must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.window_len < 1:
            raise ConfigError("window_len must be >= 1")
        for i, meta in enumerate(self.channels):
            _check_channel_rate(i, meta.native_rate, self.rate)

    @property
    def class_names(self) -> list[str]:
        return [c.name for c in self.classes]

    @property
    def column_names(self) -> list[str]:
        """The channels' CSV column names, `<body>_<sensor>_<axis>` in lower case."""
        return [f"{m.body_part}_{m.sensor}_{m.axis}".lower() for m in self.channels]


def _check_rate(rate: float) -> None:
    if not 0 < rate < math.inf:
        raise ConfigError(f"rate must be finite and > 0, got {rate}")


def _check_channel_rate(index: int, native_rate: float, rate: float) -> None:
    """ConfigError naming synthetic channel `index` unless it is sampled
    at the spec's `rate`: its windows and its manifest entry both take it."""
    if native_rate != rate:
        raise ConfigError(
            f"channels[{index}].native_rate must equal the spec's rate {rate}, got {native_rate}: "
            "every synthetic channel is sampled at the spec's rate"
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
            block[:, ci] = _waveform_values(wave, times)
            if wave.noise_sigma > 0:
                block[:, ci] += rng.normal(0.0, wave.noise_sigma, size=total)
            else:
                rng.normal(0.0, 1.0, size=total)  # keep the draw order stable across sigma choices
        streams.append(block)
    return streams


def generate_synthetic(spec: SyntheticSpec) -> list[SensorWindow]:
    """Labeled windows from a synthetic spec, deterministic given its seed;
    each class's windows are read-only views of its stream."""
    windows: list[SensorWindow] = []
    for label, stream in enumerate(synthesize_streams(spec)):
        for w in _window_views(stream, spec.window_len, None, spec.channels, None):
            w.label = label
            windows.append(w)
    return windows


def synthetic_spec_from_dict(raw: dict) -> SyntheticSpec:
    """Parse the documented JSON schema into a SyntheticSpec; a channel
    without a `native_rate` takes the spec's `rate`, and one with another
    rate is refused."""
    if isinstance(raw, dict) and isinstance(raw.get("channels"), list):
        rate = raw.get("rate", DEFAULT_TARGET_RATE)
        # a bad rate is reported as itself, not as the native_rate of a
        # channel that takes it: its value is checked before the channels
        # are built, and "rate" leads, so its type is too; so is a channel
        # rate other than `rate` (a non-finite one would otherwise be the
        # channel metadata's DataError)
        if type(rate) in (int, float):
            _check_rate(rate)
            for i, ch in enumerate(raw["channels"]):
                if isinstance(ch, dict) and type(ch.get("native_rate")) in (int, float):
                    _check_channel_rate(i, ch["native_rate"], rate)
        channels = [{"native_rate": rate, **ch} if isinstance(ch, dict) else ch for ch in raw["channels"]]
        raw = {"rate": rate, **raw, "channels": channels}
    return from_dict(SyntheticSpec, raw, "synthetic spec")


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    return synthetic_spec_from_dict(read_json(path, "synthetic spec"))


# ---------------------------------------------------------------------------
# Manifest-driven CSV datasets


@dataclass
class ManifestChannel:
    """One manifest channel entry: the CSV column that holds the channel and
    the channel's metadata, which `meta` carries to the windows."""

    file: str
    column: str
    body_part: str
    sensor: str
    axis: str
    native_rate: float
    meta: ChannelMetadata = field(init=False)

    def __post_init__(self) -> None:
        check_fields(self)
        self.meta = ChannelMetadata(self.body_part, self.sensor, self.axis, self.native_rate)


@dataclass
class LabelSource:
    file: str
    column: str
    native_rate: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0 < self.native_rate < math.inf:
            raise DataError(f"label native_rate must be finite and > 0, got {self.native_rate}")


@dataclass
class DatasetManifest:
    """Description of an on-disk dataset: which CSV columns hold which
    channels, their native rates, and where labels come from."""

    name: str
    channels: list[ManifestChannel]
    base_dir: Path
    target_rate: float = DEFAULT_TARGET_RATE
    window: int = DEFAULT_WINDOW_LEN
    stride: int | None = None
    label: LabelSource | None = None
    classes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.stride is not None and self.stride <= 0:
            raise ConfigError("stride must be > 0")
        if not 0 < self.target_rate < math.inf:
            raise DataError(f"target_rate must be finite and > 0, got {self.target_rate}")
        if not self.channels:
            raise ConfigError("manifest lists no channels")
        if len(set(self.classes)) < len(self.classes):
            raise ConfigError(f"manifest classes must be unique, got {self.classes}")
        _check_names("manifest class", self.classes)
        _check_names("manifest column", [ch.column for ch in self.channels] + ([self.label.column] if self.label else []))
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


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a dataset manifest: an object of DatasetManifest's fields, with
    `name` defaulting to the file's stem and `base_dir` the file's
    directory."""
    path = Path(path)
    raw = read_json(path, "manifest")
    if isinstance(raw, dict):
        raw = {"name": path.stem, **raw}
    return from_dict(DatasetManifest, raw, f"{path}: manifest", base_dir=path.parent)


# Recorded in every CSV sidecar; raising it retires the sidecars of older
# versions, so a change to the parse or the layout never serves stale columns.
CSV_SIDECAR_FORMAT = 2
CSV_SIDECAR_KIND = "csv-columns"
# Rows per block of the CSV parse and of the synthetic-data writer: what
# either holds besides its output is a block of rows, whatever the file size.
_PARSE_ROWS = 16384
_WRITE_ROWS = 8192


@dataclass
class _CsvColumns:
    """The columns one load asked of a CSV file: numbers by column name,
    each text column factorized as (sorted distinct values, int64 code per
    row), and the key a sidecar must record to serve them. The numbers
    asked for are the leading columns of `block`, a (rows, k) float64
    matrix in Fortran order, in the order they were asked for; each entry
    of `numbers` is a contiguous view of its column."""

    numbers: dict[str, np.ndarray]
    labels: dict[str, tuple[list[str], np.ndarray]]
    key: dict
    parsed: bool  # False when served by the sidecar
    block: np.ndarray | None  # None when a sidecar served no number


def _sidecar_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.mpcache")


def _sidecar_key(numeric: list[str], text: list[str], sha256: str) -> dict:
    """What a sidecar records to serve a load: its format, the numeric and
    text columns it holds, in order, and the sha256 of its CSV's bytes."""
    return {"format": CSV_SIDECAR_FORMAT, "numeric": numeric, "text": text, "sha256": sha256}


def _factorize(values) -> tuple[list[str], np.ndarray]:
    """The distinct text `values`, sorted as a numpy string array sorts
    them, and each value's index among them: a text column's stored codes."""
    ordered, inverse = np.unique(np.array(list(values), dtype=str), return_inverse=True)
    return ordered.tolist(), inverse


def _read_csv_columns(path: Path, numeric: list[str], text: set[str]) -> _CsvColumns:
    """The `numeric` (float64, the block's leading columns in this order)
    and `text` (factorized) columns of a CSV file, and maybe others. When
    the file has a sidecar, its sha256 is taken, and a sidecar of that hash
    that holds every requested column serves them all. Otherwise the text
    is parsed: for the requested columns and those of a sidecar of that
    hash, so the rewritten sidecar serves both loads (unless one reads as
    text a column the other reads as numbers). A missing column and every
    parse fault raise DataError naming the file."""
    if _sidecar_path(path).is_file():
        stored = _load_sidecar(path, _sha256(path), numeric)
        if stored is not None:
            has_numeric, has_text = set(stored.key["numeric"]), set(stored.key["text"])
            if set(numeric) <= has_numeric and text <= has_text:
                return stored
            if not (set(numeric) & has_text or text & has_numeric):
                numeric, text = numeric + sorted(has_numeric - set(numeric)), text | has_text
    return _parse_csv(path, numeric, sorted(text))


def _sha256(path: Path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


class _HashingReader(io.RawIOBase):
    """A binary file that takes the sha256 of every byte read through it, so
    a parse and its sidecar key see the same bytes."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(buf)
        if n:
            self.sha256.update(memoryview(buf)[:n])
        return n


def _parse_csv(path: Path, numeric: list[str], text: list[str]) -> _CsvColumns:
    """Parse the body in blocks of `_PARSE_ROWS` rows, one loadtxt call per
    block on one text stream that hashes the bytes as they are read. Each
    block keeps only its requested columns: numbers written into their
    columns of the result's block, and text as codes against a running
    table of the names seen so far, written into an int64 column each. The
    columns are sized beforehand by a count of the file's line ends (and
    grown if the rows outrun it), so the parse holds one block of rows
    besides them. At the end the codes are remapped in place to index the
    sorted names, as `_factorize` gives them. A bad header, a missing
    column, a short or long row, a non-numeric or empty number, a blank
    line and a file without data rows all raise DataError naming the file."""
    names: dict[str, dict[str, int]] = {name: {} for name in text}  # name -> code, in order seen
    rows = 0
    try:
        lines = _line_count(path)
        block = np.empty((max(0, lines - 1), len(numeric)), order="F")
        codes = {name: np.empty(len(block), dtype=np.int64) for name in text}
        with open(path, "rb", buffering=0) as binary:
            raw = _HashingReader(binary)
            fh = io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), newline="")
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty CSV")
            if not header or len(set(header)) != len(header):
                raise DataError(f"{path}: the header must name each column once, got {header}")
            missing = sorted(set(numeric + text) - set(header))
            if missing:
                raise DataError(f"{path}: no column named {missing[0]!r}")
            dtype = np.dtype([(f"f{i}", np.float64 if name in numeric else object) for i, name in enumerate(header)])
            field_of = {name: f"f{i}" for i, name in enumerate(header)}
            with warnings.catch_warnings():
                # a body without rows and a blank line are reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
                while True:
                    try:
                        parsed = np.loadtxt(
                            fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1, max_rows=_PARSE_ROWS
                        )
                    except ValueError as exc:
                        raise ValueError(_at_file_line(str(exc), path, rows)) from exc
                    end = rows + len(parsed)
                    if end > len(block):  # line ends the count did not see, or a file that grew
                        grown = np.empty((max(end, 2 * len(block)), len(numeric)), order="F")
                        grown[:rows] = block[:rows]
                        block = grown
                        codes = {name: np.resize(column, len(block)) for name, column in codes.items()}
                    for j, name in enumerate(numeric):
                        block[rows:end, j] = parsed[field_of[name]]
                    for name, column in codes.items():
                        _check_text(path, name, parsed[field_of[name]], rows)
                        values, inverse = np.unique(parsed[field_of[name]].astype(str), return_inverse=True)
                        table = names[name]
                        known = [table.setdefault(value, len(table)) for value in values.tolist()]
                        column[rows:end] = np.array(known, dtype=np.int64)[inverse]
                    rows = end
                    if len(parsed) < _PARSE_ROWS:
                        break
                    del parsed  # before the next one is read
            while raw.read(1 << 16):  # the hash must cover the whole file
                pass
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if rows == 0:
        raise DataError(f"{path}: no data rows")
    if lines != rows + 1:
        # loadtxt skips an empty line, which csv.reader reads as a row of no
        # fields; a line break inside a quoted field, a mix of LF and CR line
        # ends and a file edited since it was counted also make the counts
        # differ
        try:
            blank = next((line for line, record in _records(path) if not record), None)
        except (OSError, ValueError, csv.Error) as exc:
            raise DataError(f"{path}: {exc}") from exc
        if blank:
            raise DataError(f"{path}: blank line in the CSV body at line {blank}")
    block = block[:rows]
    columns = {name: block[:, j] for j, name in enumerate(numeric)}
    labels = {}
    for name in text:
        ordered, rank = _factorize(names[name])  # each name's place in sorted order, indexed by its code
        column = codes[name][:rows]
        np.take(rank, column, out=column, mode="clip")  # every code is in range: no copy to check them
        labels[name] = (ordered, column)
    return _CsvColumns(columns, labels, _sidecar_key(numeric, text, raw.sha256.hexdigest()), parsed=True, block=block)


def _check_text(path: Path, column: str, values: np.ndarray, rows: int) -> None:
    """DataError naming the file, the column and the file line of the first
    of `values`, the text of data rows `rows` on, that holds unsafe text."""
    texts = values.tolist()
    if _UNSAFE_TEXT.search("".join(texts)):  # one search per block while every text is safe
        row = next(i for i, text in enumerate(texts) if _UNSAFE_TEXT.search(text))
        raise DataError(
            f"{path}: column {column!r} holds {values[row]!r}, a control character or a lone surrogate, "
            f"at {_data_line(path, rows + row)}"
        )


def _data_line(path: Path, row: int) -> str:
    """Where data row `row` (from 0) of `path` sits: "line N", or "data row
    N + 1" if the file changed since it was read."""
    try:
        line = next(islice((line for line, record in _records(path) if record), row + 1, None), None)
    except (OSError, ValueError, csv.Error):
        line = None
    return f"line {line}" if line else f"data row {row + 1}"


def _line_count(path: Path) -> int:
    """The lines of a file with LF, CRLF or CR line ends (a mix of LF and CR
    ends reads fewer); a last line without a line end counts."""
    ends, last = [0, 0], b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends[0] += chunk.count(b"\n")
            ends[1] += chunk.count(b"\r")
            last = chunk[-1:]
    return max(ends) + (last not in b"\r\n")


def _records(path: Path):
    """(the file line it begins on, its fields) of each CSV record; a blank line has no fields."""
    with open(path, newline="") as fh:
        reader, line = csv.reader(fh), 1
        for record in reader:
            yield line, record
            line = reader.line_num + 1


def _at_file_line(message: str, path: Path, rows: int) -> str:
    """loadtxt's `message` for the block after `rows` data rows, its row number
    made the file line of that row. loadtxt skips blank lines and numbers
    the block's rows from 0 in a conversion error, from 1 in a column-count
    error, so its row 0 is the file's non-blank record `first`. Its advice
    to pass `usecols` is dropped: no manifest key or flag sets it."""
    first = rows + 1 - (not message.startswith("could not convert"))
    starts = (line for line, record in _records(path) if record)
    message = message.split("; use `usecols`", 1)[0]
    return re.sub(
        r"\bat row (\d+)", lambda m: f"at line {next(islice(starts, first + int(m[1]), None))}", message, count=1
    )


def _load_sidecar(path: Path, sha256: str, numeric: list[str]) -> _CsvColumns | None:
    """The columns a file's sidecar holds, or None when there is none, its
    format is not this one or its hash not `sha256`, or it is truncated or
    malformed.
    The `numeric` columns it holds are read straight into their columns of
    the block."""
    sidecar = _sidecar_path(path)
    place = {name: j for j, name in enumerate(numeric)}
    block = None

    def into(name: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray | None:
        nonlocal block
        if name not in place or dtype != "<f8" or len(shape) != 1:
            return None
        if block is None:
            block = np.empty((shape[0], len(numeric)), order="F")
        return block[:, place[name]] if len(block) == shape[0] else None

    try:
        meta, tensors = tensorfile.load_tensors(sidecar, CSV_SIDECAR_KIND, into)
    except (CheckpointError, OSError) as exc:
        logger.debug("not using %s: %s", sidecar, exc)
        return None
    names = meta.get("names")
    rows = {arr.shape[0] if arr.ndim == 1 else 0 for arr in tensors.values()}
    columns = [meta.get(kind) for kind in ("numeric", "text")]
    if any(not isinstance(c, list) or not all(isinstance(name, str) for name in c) for c in columns):
        logger.debug("not using %s: no column lists", sidecar)
        return None
    key = _sidecar_key(columns[0], columns[1], sha256)
    if (
        any(meta.get(field) != value for field, value in key.items())
        or not isinstance(names, dict)
        or set(names) != set(key["text"])
        or set(tensors) != set(key["numeric"]) | set(key["text"])
        or len(rows) != 1
        or 0 in rows
        or any(tensors[name].dtype != np.float64 for name in key["numeric"])
    ):
        logger.debug("not using %s: it does not match %s", sidecar, path)
        return None
    labels = {}
    for name in key["text"]:
        values, codes = names[name], tensors[name]
        if not (
            isinstance(values, list)
            and all(isinstance(v, str) for v in values)
            and values == sorted(set(values))
            and codes.dtype == np.int64
            and 0 <= codes.min()
            and codes.max() < len(values)
        ):
            logger.debug("not using %s: bad codes for column %r", sidecar, name)
            return None
        labels[name] = (values, codes)
    numbers = {name: tensors[name] for name in key["numeric"]}
    return _CsvColumns(numbers, labels, key, parsed=False, block=block)


def _write_sidecar(path: Path, key: dict, numbers: dict, labels: dict) -> None:
    """Store the columns of a CSV file beside it, under `key`: `numbers` and
    `labels` as a `_CsvColumns` holds them, or with each column given as its
    row chunks (`save_tensors` writes them one at a time and replaces the
    sidecar whole). A directory that cannot take it goes without."""
    meta = {**key, "names": {name: values for name, (values, _) in labels.items()}}
    tensors = {**numbers, **{name: codes for name, (_, codes) in labels.items()}}
    try:
        tensorfile.save_tensors(_sidecar_path(path), CSV_SIDECAR_KIND, meta, tensors)
    except OSError as exc:
        logger.debug("no sidecar for %s: %s", path, exc)


def load_dataset(manifest: DatasetManifest) -> LoadedDataset:
    """Resample every channel to the manifest's target rate, align lengths,
    window, and attach labels. Mixed-label windows are dropped. A channel
    column holding a non-finite value raises DataError naming the file, the
    column and the line. A file parsed here gets a sidecar once the whole
    load has succeeded.

    The windows are read-only views of one (time, channel) matrix. When
    every channel is its own column of one file at the target rate, that
    matrix is the block the file's columns were parsed or read into;
    otherwise the channels are copied into it one by one."""
    numeric: dict[Path, list[str]] = {}
    for ch in manifest.channels:
        wanted = numeric.setdefault(manifest.base_dir / ch.file, [])
        if ch.column not in wanted:
            wanted.append(ch.column)
    text: dict[Path, set[str]] = {}
    if manifest.label is not None:
        text[manifest.base_dir / manifest.label.file] = {manifest.label.column}
    cache: dict[Path, _CsvColumns] = {}

    def columns_of(path: Path) -> _CsvColumns:
        if path not in cache:
            cache[path] = _read_csv_columns(path, numeric.get(path, []), text.get(path, set()))
        return cache[path]

    channels = manifest.channels
    for path, wanted in numeric.items():  # each column once, as read
        for column in wanted:
            _check_finite(path, column, columns_of(path).numbers[column])
    (path, wanted), *other_files = numeric.items()
    block = columns_of(path).block
    if (
        not other_files
        and len(wanted) == len(channels) == block.shape[1]
        and all(ch.meta.native_rate == manifest.target_rate for ch in channels)
    ):
        matrix = block  # each channel its own column, in channel order
    else:
        # a column already at the target rate is used as read: resampling
        # it would copy it, and filling the matrix copies it anyway
        series = []
        for ch in channels:
            values = columns_of(manifest.base_dir / ch.file).numbers[ch.column]
            if ch.meta.native_rate != manifest.target_rate:
                values = resample(values, ch.meta.native_rate, manifest.target_rate)
            series.append(values)
        matrix = np.empty((min(len(s) for s in series), len(channels)), order="F")
        for j, values in enumerate(series):
            matrix[:, j] = values[: len(matrix)]
        del series, values
    length = len(matrix)
    if length < 2:  # as resampling refuses
        raise DataError(f"{manifest.name}: a channel needs at least 2 samples, got {length}")

    codes = table = None
    class_names = list(manifest.classes)
    if manifest.label is not None:
        names, codes = columns_of(manifest.base_dir / manifest.label.file).labels[manifest.label.column]
        if manifest.label.native_rate != manifest.target_rate:
            codes = resample_nearest(codes, manifest.label.native_rate, manifest.target_rate)
        codes = codes[:length]
        counts = np.bincount(codes, minlength=len(names))
        present = [name for name, count in zip(names, counts.tolist()) if count]
        if not class_names:
            class_names = present
        ids = {name: i for i, name in enumerate(class_names)}
        missing = set(present) - set(ids)
        if missing:
            raise DataError(f"labels not covered by manifest classes: {sorted(missing)}")
        # a name that resampling or truncation dropped maps to -1, never indexed
        table = np.array([ids.get(name, -1) for name in names], dtype=np.int64)
        matrix = matrix[: len(codes)]  # as the channels, cut to the shortest stream

    windows = _window_views(matrix, manifest.window, manifest.stride, [ch.meta for ch in channels], codes, table)
    for path, columns in cache.items():
        if columns.parsed:
            _write_sidecar(path, columns.key, columns.numbers, columns.labels)
    return LoadedDataset(manifest.name, windows, class_names)


def _check_finite(path: Path, column: str, values: np.ndarray) -> None:
    """DataError naming the file, the column and the file line of the first
    non-finite value of `values`, a column as read from `path`."""
    finite = np.isfinite(values)
    if finite.all():
        return
    row = int(np.argmin(finite))
    raise DataError(f"{path}: column {column!r} holds the non-finite value {values[row]} at {_data_line(path, row)}")


def _csv_line(fields: list[str]) -> str:
    """One CSV row, quoted as csv.writer quotes it and ended with its line
    end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def write_synthetic_dataset(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Materialize a synthetic spec as CSV + sidecar + manifest; returns the
    manifest path. Loading the manifest reproduces `generate_synthetic(spec)`
    windows bit-exactly (values are written with full repr precision). Each
    class stream is formatted and written `_WRITE_ROWS` rows at a time, so
    the writer holds one block's text besides the streams.

    The CSV's sha256 is taken from the bytes as they are written, and the
    sidecar a cold parse of the file would write follows it: the manifest's
    channel columns and label column, the streams' values and each class's
    code against the sorted class names, written a class at a time. So a
    load of the manifest reads no text while the file is unchanged. A
    sidecar that cannot be written is left out (see `_write_sidecar`)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    streams = synthesize_streams(spec)
    channel_names = spec.column_names
    sha256 = hashlib.sha256()

    def write_data(fh) -> None:
        def put(text: str) -> None:
            data = text.encode()
            sha256.update(data)
            fh.write(data)

        put(_csv_line(channel_names + ["label"]))
        for cls, stream in zip(spec.classes, streams):
            # a row's end: a comma, the label, the line end; `%` is literal
            row = ",".join(["%r"] * stream.shape[1]) + _csv_line(["", cls.name]).replace("%", "%%")
            for start in range(0, len(stream), _WRITE_ROWS):
                block = stream[start : start + _WRITE_ROWS]
                put((row * len(block)) % tuple(block.ravel().tolist()))

    data_path = out_dir / "data.csv"
    tensorfile.publish(data_path, write_data)
    names, codes = _factorize(spec.class_names)
    _write_sidecar(
        data_path,
        _sidecar_key(channel_names, ["label"], sha256.hexdigest()),
        {name: [stream[:, j] for stream in streams] for j, name in enumerate(channel_names)},
        {"label": (names, [np.broadcast_to(code, len(s)) for code, s in zip(codes.tolist(), streams)])},
    )
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
    tensorfile.publish(manifest_path, lambda fh: fh.write(json.dumps(manifest, indent=2).encode()))
    return manifest_path
