import json

import numpy as np
import pytest

from motionprim.errors import CheckpointError
from motionprim.tensorfile import MAGIC, load_tensors, save_tensors


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
    negative = json.loads(json.dumps(header))
    negative["tensors"][0]["shape"] = [-1] + negative["tensors"][0]["shape"][1:]
    variants += [
        ("no tensors key", _container(no_tensors, payload)),
        ("header is a list", _container([header], payload)),
        ("negative dimension", _container(negative, payload)),
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
