import builtins
import errno
import json
import os

import numpy as np
import pytest

import oracles
from conftest import bench_spec
from motionprim import tensorfile
from motionprim.analysis import export_report, transitions
from motionprim.errors import CheckpointError
from motionprim.ingest import write_synthetic_dataset
from motionprim.model import init_model, tiny_config
from motionprim.tensorfile import MAGIC, load_tensors, save_tensors
from motionprim.training import load_checkpoint, save_checkpoint, write_log


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b": np.arange(7, dtype=np.int64),
        "deep.name": rng.normal(size=(2, 3, 5)),
    }
    meta = {"config": {"k": 3}, "note": "x"}
    path = tmp_path / "t.bin"
    save_tensors(path, "testkind", meta, tensors)
    got_meta, got = load_tensors(path, "testkind")
    assert got_meta == meta
    assert set(got) == set(tensors)
    for name, arr in tensors.items():
        assert got[name].dtype == arr.dtype
        np.testing.assert_array_equal(got[name], arr)


def test_byte_determinism(tmp_path):
    # same content saved twice must hash identically: no timestamps anywhere
    tensors = {"w": np.linspace(0, 1, 10).reshape(2, 5)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(p1, "k", {"m": 1}, tensors)
    save_tensors(p2, "k", {"m": 1}, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_bytes_equal_the_copying_writer(tmp_path):
    # buffers written in place give the bytes of the astype/tobytes writer,
    # for every layout and dtype the writer converts
    rng = np.random.default_rng(4)
    wide = rng.normal(size=(6, 8))
    tensors = {
        "contiguous": rng.normal(size=(3, 4)),
        "strided": wide[:, ::3],
        "transposed": wide.T,
        "fortran": np.asfortranarray(rng.normal(size=(4, 5))),
        "float32": rng.normal(size=7).astype(np.float32),
        "big-endian": rng.normal(size=5).astype(">f8"),
        "int32": np.arange(-3, 9, dtype=np.int32),
        "uint8": np.arange(6, dtype=np.uint8).reshape(2, 3),
        "scalar": np.float64(2.5),
        "empty": np.zeros((0, 3)),
        "empty int": np.zeros((2, 0), dtype=np.int64),
    }
    meta = {"config": {"k": 3}}
    save_tensors(tmp_path / "new.bin", "k", meta, tensors)
    oracles.save_tensors_by_copy(tmp_path / "old.bin", "k", meta, tensors)
    assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
    _, got = load_tensors(tmp_path / "new.bin", "k")
    for name, arr in tensors.items():
        np.testing.assert_array_equal(got[name], arr)
        assert got[name].shape == np.shape(arr) and got[name].flags.writeable


def test_row_chunks_are_stored_as_their_concatenation(tmp_path):
    # a tensor given as a list of row chunks, strided, broadcast, of other
    # dtypes or empty, is stored as the concatenated array would be
    rng = np.random.default_rng(5)
    wide = rng.normal(size=(7, 6))
    tensors = {
        "rows": [
            wide[:3, ::2], np.asfortranarray(wide[3:, 1::2]), np.zeros((0, 3)), rng.normal(size=(2, 3)).astype(np.float32)
        ],
        "codes": [np.broadcast_to(np.int64(2), 4), np.arange(3, dtype=np.int32), np.broadcast_to(np.uint8(0), 5)],
        "one": [np.arange(4.0)],
    }
    joined = {name: np.concatenate(chunks) for name, chunks in tensors.items()}
    save_tensors(tmp_path / "chunks.bin", "k", {"m": 1}, tensors)
    save_tensors(tmp_path / "joined.bin", "k", {"m": 1}, joined)
    assert (tmp_path / "chunks.bin").read_bytes() == (tmp_path / "joined.bin").read_bytes()


@pytest.mark.parametrize("chunks", [
    pytest.param([], id="no chunk"),
    pytest.param([np.zeros((2, 3)), np.zeros((2, 4))], id="other widths"),
    pytest.param([np.zeros(2), np.zeros((2, 1))], id="other dimension counts"),
    pytest.param([np.zeros(2), np.arange(2)], id="float and int"),
    pytest.param([np.zeros(2), np.float64(1.0)], id="a 0-d chunk"),
])
def test_row_chunks_that_do_not_join_write_nothing(tmp_path, chunks):
    path = tmp_path / "t.bin"
    with pytest.raises(CheckpointError, match="row chunks"):
        save_tensors(path, "k", {}, {"x": np.zeros(2), "bad": chunks})
    assert not path.exists()


def _fail_writes(monkeypatch, fail_after) -> None:
    """Make `tensorfile.publish` die with ENOSPC once a file has been given
    `fail_after` bytes (None: in the final rename)."""

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.written = fh, 0

        def write(self, data):
            if self.written + len(data) > fail_after:
                self.fh.write(bytes(data)[: fail_after - self.written])
                no_space()
            self.written += len(data)
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    if fail_after is None:
        monkeypatch.setattr(os, "replace", no_space)
    else:
        monkeypatch.setattr(tensorfile, "open", lambda *a: FailingFile(builtins.open(*a)), raising=False)


@pytest.mark.parametrize("fail_after", [0, 100, 2000, None])
def test_failed_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch, fail_after):
    # a write that dies after `fail_after` bytes (None: in the final rename)
    # leaves the previous checkpoint byte-equal and loadable, and no
    # temporary file behind
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, init_model(tiny_config(), seed=1))
    before = path.read_bytes()
    _fail_writes(monkeypatch, fail_after)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, init_model(tiny_config(), seed=2))
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]
    assert path.read_bytes() == before
    model, _ = load_checkpoint(path)
    assert all(np.array_equal(model.params[n], t) for n, t in init_model(tiny_config(), seed=1).params.items())


# each writes different bytes for each version, more than 2000 of them to
# the first file it publishes
ARTIFACT_WRITERS = {
    "write_log": lambda out, version: write_log(
        out / "run_train.jsonl", [{"epoch": e, "loss": version / (e + 1)} for e in range(100)]
    ),
    "export_report": lambda out, version: export_report(
        transitions([np.random.default_rng(version).integers(0, 40, size=400)], codebook_size=40), out, "run"
    ),
    "write_synthetic_dataset": lambda out, version: write_synthetic_dataset(
        bench_spec(seed=version, windows_per_class=2), out
    ),
}


@pytest.mark.parametrize("fail_after", [0, 100, 2000, None])
@pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer, fail_after):
    # the other artifact writers go through the same publish: a failed
    # re-run leaves every previous file byte-equal and no temporary file
    ARTIFACT_WRITERS[writer](tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_writes(monkeypatch, fail_after)
    with pytest.raises(OSError, match="No space"):
        ARTIFACT_WRITERS[writer](tmp_path, 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_file_that_cannot_be_opened_is_a_checkpoint_error(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"w": np.zeros(3)})

    def denied(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(tensorfile, "open", denied, raising=False)
    with pytest.raises(CheckpointError, match="Permission denied"):
        load_tensors(path, "k")


def test_unsupported_dtype_writes_nothing(tmp_path):
    path = tmp_path / "t.bin"
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_tensors(path, "k", {}, {"x": np.zeros(2), "flags": np.zeros(2, dtype=bool)})
    assert not path.exists()


def test_wrong_kind_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "codebook", {}, {"x": np.zeros(2)})
    with pytest.raises(CheckpointError):
        load_tensors(path, "checkpoint")


def test_corrupt_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_tensors(path, "k")


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"x": np.ones(100)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 24])
    with pytest.raises(CheckpointError):
        load_tensors(path, "k")


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_tensors(tmp_path / "absent.bin", "k")


def _container(header, payload: bytes = b"", header_len: int | None = None) -> bytes:
    """Raw container bytes around an arbitrary JSON header."""
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    length = len(body) if header_len is None else header_len
    return MAGIC + length.to_bytes(8, "big") + body + payload


def _header_and_payload(raw: bytes):
    n = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "big")
    start = len(MAGIC) + 8
    return json.loads(raw[start : start + n]), raw[start + n :]


# Shapes a header may claim that no tensor can have; each fits in the bytes
# of any tensor, so only the shape check stands between it and numpy.
BAD_SHAPES = [
    ("negative dimension", [-1]),
    ("65 dimensions", [1] * 65),
    ("huge dimension beside a zero", [0, 2**70]),
    ("dimensions that overflow the byte count beside a zero", [0, 2**60]),
]


def with_first_shape(header: dict, shape: list) -> dict:
    """A copy of a container header whose first tensor claims `shape`."""
    changed = json.loads(json.dumps(header))
    changed["tensors"][0]["shape"] = shape
    return changed


def corrupted_variants(raw: bytes, seed: int) -> list[tuple[str, bytes]]:
    """Broken copies of a valid container `raw`: truncations at seeded
    offsets, then each malformed header field, then trailing bytes."""
    header, payload = _header_and_payload(raw)
    start, end = len(MAGIC) + 8, len(raw) - len(payload)
    rng = np.random.default_rng(seed)
    cuts = {0, len(MAGIC) + 3, start, (start + end) // 2, end, len(raw) - 1}
    cuts.update(int(c) for c in rng.integers(0, len(raw), size=12))
    variants = [(f"truncated at {c}", raw[:c]) for c in sorted(cuts)]
    no_tensors = {k: v for k, v in header.items() if k != "tensors"}
    variants += [
        ("no tensors key", _container(no_tensors, payload)),
        ("header is a list", _container([header], payload)),
        *((label, _container(with_first_shape(header, shape), payload)) for label, shape in BAD_SHAPES),
        ("header_len beyond the file", _container(header, payload, header_len=len(raw))),
        ("trailing bytes", raw + b"\0" * 8),
    ]
    return variants


def test_header_without_tensors_key_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(_container({"kind": "k", "version": 1, "meta": {}}))
    with pytest.raises(CheckpointError, match="tensors"):
        load_tensors(path, "k")


def test_header_that_is_a_list_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(_container([{"kind": "k", "version": 1}]))
    with pytest.raises(CheckpointError, match="JSON object"):
        load_tensors(path, "k")


def test_negative_dimension_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"x": np.zeros((2, 3))})
    header, payload = _header_and_payload(path.read_bytes())
    header["tensors"][0]["shape"] = [-2, -3]
    path.write_bytes(_container(header, payload))
    with pytest.raises(CheckpointError, match="bad shape"):
        load_tensors(path, "k")


def test_header_length_beyond_file_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"x": np.zeros(2)})
    header, payload = _header_and_payload(path.read_bytes())
    path.write_bytes(_container(header, payload, header_len=1 << 40))
    with pytest.raises(CheckpointError, match="exceeds the file"):
        load_tensors(path, "k")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, "k", {}, {"x": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path, "k")


@pytest.mark.parametrize(
    "entry",
    [
        "x",
        {"dtype": "float64", "shape": [2]},
        {"name": "x", "dtype": ["float64"], "shape": [2]},
        {"name": "x", "dtype": "float32", "shape": [2]},
        {"name": "x", "dtype": "float64", "shape": 2},
        {"name": "x", "dtype": "float64", "shape": [2.0]},
        {"name": "x", "dtype": "float64", "shape": [True, 2]},
        *({"name": "x", "dtype": "float64", "shape": shape} for _, shape in BAD_SHAPES),
    ],
)
def test_malformed_tensor_entry_rejected(tmp_path, entry):
    path = tmp_path / "t.bin"
    path.write_bytes(_container({"kind": "k", "version": 1, "meta": {}, "tensors": [entry]}, b"\0" * 16))
    with pytest.raises(CheckpointError):
        load_tensors(path, "k")


def test_duplicate_tensor_names_rejected(tmp_path):
    path = tmp_path / "t.bin"
    entry = {"name": "x", "dtype": "float64", "shape": [1]}
    path.write_bytes(_container({"kind": "k", "version": 1, "meta": {}, "tensors": [entry, entry]}, b"\0" * 16))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_tensors(path, "k")


def test_corrupted_containers_raise_only_checkpoint_error(tmp_path):
    path = tmp_path / "t.bin"
    rng = np.random.default_rng(0)
    save_tensors(path, "k", {"config": {"a": 1}}, {"w": rng.normal(size=(4, 3)), "n": np.arange(5)})
    raw = path.read_bytes()
    escaped = {}
    for seed in range(3):
        for label, broken in corrupted_variants(raw, seed):
            path.write_bytes(broken)
            try:
                load_tensors(path, "k")
                escaped[label] = "accepted"
            except CheckpointError:
                pass
            except Exception as exc:  # any other type is the defect under test
                escaped[label] = repr(exc)
    assert escaped == {}
