"""Seeded fuzz gate over every config surface.

Every key path of a valid run config (given through --config and through
--set), synthetic spec, dataset manifest and checkpoint config echo gets
wrong-typed values: a string, a bool, a list, an object, null where the key
is not optional, a float for an int and a number for a string. The CLI must
answer each with exit 2, end stderr with its one-line JSON error record and
print no traceback. Seeded truncations and bit flips of a data CSV must end
in exit 0 or a data error (exit 3), never in a traceback.
"""

import copy
import json
import random
from dataclasses import asdict

import pytest

from motionprim import cli
from motionprim.ingest import load_dataset, load_manifest
from motionprim.metadata import make_provider
from motionprim.model import ModelConfig, init_model, prepare_windows
from motionprim.tensorfile import save_tensors
from motionprim.training import evaluate, load_checkpoint, save_checkpoint
from test_cli import TINY_SPEC

SEED = 20240611
STRINGS = ["five", "100", "1e-3", "", "nan", "true", "null"]
FLOATS = [0.5, 2.5, 3.0, -1.5]

MODEL = {
    "codebook_size": 8, "segment_len": 5, "model_dim": 8, "meta_dim": 16, "depth": 1, "heads": 2,
    "mlp_ratio": 1.0, "segments_per_channel": 4, "mask_ratio": 0.25, "beta": 0.25, "num_classes": 2,
}

# keys whose value may be null, per surface
NULLABLE = {
    "run": {("run_id",), ("provider", "path"), ("loss_weights",)},
    "manifest": {("stride",), ("label",)},
    "spec": set(),
    "echo": set(),
}


def key_paths(tree, path=()):
    """(path, value) for every object member and list item below the root."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from key_paths(value, path + (key,))


def wrong_values(valid, nullable: bool, rng: random.Random) -> dict:
    """Values of the wrong type for a key whose valid value is `valid`."""
    out = {
        "bool": rng.choice([True, False]),
        "list": [valid],
        "object": {"k": rng.randint(0, 9)},
    }
    if isinstance(valid, str):
        out["number"] = rng.randint(0, 9)
    else:
        out["string"] = rng.choice(STRINGS)
    if not nullable:
        out["null"] = None
    if type(valid) is int:
        out["float for int"] = rng.choice(FLOATS)
    return out


def mutations(surface: str, valid: dict, rng: random.Random):
    """(label, path, wrong value, mutated copy) for every key path."""
    for path, value in key_paths(valid):
        for kind, wrong in wrong_values(value, path in NULLABLE[surface], rng).items():
            mutated = copy.deepcopy(valid)
            target = mutated
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = wrong
            yield f"{surface} {'.'.join(map(str, path))} <- {kind} {wrong!r}", path, wrong, mutated


def outcome(code: int, err: str) -> str | None:
    """None for exit 2 with a last-line JSON config record and no traceback,
    else what went wrong."""
    lines = err.strip().splitlines()
    if "Traceback" in err:
        return f"exit {code} with a traceback: {lines[-1] if lines else ''}"
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit {code}, last stderr line is not JSON: {lines[-1:]}"
    if code != 2 or record.get("error") != "config":
        return f"exit {code}: {record}"
    return None


def run_all(capsys, cases) -> dict:
    """Run (label, argv) cases; the failures by label."""
    failures = {}
    for label, argv in cases:
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except Exception as exc:  # run as a program, this prints a traceback
            failures[label] = f"raised {type(exc).__name__}: {exc}"
            continue
        problem = outcome(code, capsys.readouterr().err)
        if problem:
            failures[label] = problem
    return failures


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A synthesized dataset, a checkpoint and valid forms of all four
    surfaces; each valid form runs to exit 0."""
    root = tmp_path_factory.mktemp("fuzz")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(root / "data")]) == 0
    manifest_path = root / "data" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert {"name", "stride", "label", "classes"} <= set(manifest)
    ckpt = root / "model.ckpt"
    model = init_model(ModelConfig(**MODEL), seed=0)
    save_checkpoint(ckpt, model)
    run = {
        "model": MODEL,
        "optimizer": {
            "learning_rate": 1e-3, "weight_decay": 1e-5, "batch_size": 8, "micro_batch": 4,
            "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "epochs": 1,
        },
        "loss_weights": {"lambda_mae": 1.0, "lambda_cls": 0.0, "lambda_vq": 1.0},
        "datasets": [str(manifest_path)],
        "seed": 3,
        "out_dir": str(root / "runs"),
        "run_id": "fuzz",
        "freeze": "encoder-finetune",
        "split_fraction": 0.25,
        "codebook_init": "kmeans-seeded",
        "provider": {"kind": "deterministic-hash", "dim": 16, "seed": 0, "path": "unused.json"},
        "workers": 1,
    }
    run_path = root / "run.json"
    run_path.write_text(json.dumps(run))
    assert cli.main(["pretrain", "--config", str(run_path)]) == 0
    assert cli.main(["evaluate", "--config", str(run_path), str(ckpt), str(manifest_path)]) == 0
    return {"root": root, "run": run, "run_path": run_path, "spec": TINY_SPEC, "manifest": manifest, "model": model, "ckpt": ckpt}


def fuzz_file(capsys, surface: str, valid: dict, seed: int, path, argv: list[str]) -> tuple[dict, int]:
    """Write each mutation of `valid` to `path` and run `argv` on it; the
    failures by label and the number of cases."""
    failures, count = {}, 0
    for label, _, _, mutated in mutations(surface, valid, random.Random(seed)):
        path.write_text(json.dumps(mutated))
        failures.update(run_all(capsys, [(label, argv)]))
        count += 1
    return failures, count


def test_run_config_file_fuzz(world, capsys):
    path = world["root"] / "mutated_run.json"
    failures, count = fuzz_file(capsys, "run", world["run"], SEED, path, ["pretrain", "--config", str(path)])
    assert count > 150
    assert failures == {}


def test_run_config_set_fuzz(world, capsys):
    # --set passes any text through for a str field, so those keys are
    # wrong only as null, where null is not allowed
    rng = random.Random(SEED + 1)
    path = world["run_path"]
    cases = []
    for label, key, wrong, _ in mutations("run", world["run"], rng):
        if any(isinstance(part, int) for part in key):
            continue  # --set addresses object members only
        valid = world["run"]
        for part in key:
            valid = valid[part]
        if isinstance(valid, str) and wrong is not None:
            continue
        dotted = ".".join(key)
        cases.append((label, ["pretrain", "--config", str(path), "--set", f"{dotted}={json.dumps(wrong)}"]))
    assert len(cases) > 100
    assert run_all(capsys, cases) == {}


def test_synthetic_spec_fuzz(world, capsys):
    path = world["root"] / "mutated_spec.json"
    argv = ["synth", str(path), str(world["root"] / "synth_out")]
    failures, count = fuzz_file(capsys, "spec", world["spec"], SEED + 2, path, argv)
    assert count > 100
    assert failures == {}


def test_manifest_fuzz(world, capsys):
    path = world["root"] / "data" / "mutated_manifest.json"
    argv = ["evaluate", "--config", str(world["run_path"]), str(world["ckpt"]), str(path)]
    failures, count = fuzz_file(capsys, "manifest", world["manifest"], SEED + 3, path, argv)
    assert count > 60
    assert failures == {}


def test_checkpoint_config_echo_fuzz(world, capsys):
    model = world["model"]
    path = world["root"] / "mutated.ckpt"
    argv = ["evaluate", "--config", str(world["run_path"]), str(path), str(world["root"] / "data" / "manifest.json")]
    failures, count = {}, 0
    for label, _, _, mutated in mutations("echo", MODEL, random.Random(SEED + 4)):
        save_tensors(path, "checkpoint", {"config": mutated}, {**model.params, "usage_counts": model.usage_counts})
        failures.update(run_all(capsys, [(label, argv)]))
        count += 1
    assert count == 11 * 5 + 8  # five wrong types per key, plus a float for each int key
    assert failures == {}


def damaged_csvs(raw: bytes, rng: random.Random) -> list[tuple[str, bytes]]:
    """Seeded truncations and single-bit flips of a data CSV."""
    cuts = {len(raw) // 2, len(raw) - 1, *(rng.randrange(1, len(raw)) for _ in range(10))}
    out = [(f"truncated at {cut}", raw[:cut]) for cut in sorted(cuts)]
    for _ in range(30):
        at, bit = rng.randrange(len(raw)), rng.randrange(8)
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        out.append((f"bit {bit} of byte {at} flipped", bytes(flipped)))
    return out


def fresh_metrics(world, raw: bytes, directory) -> dict:
    """In-process evaluate on `raw` as data.csv, parsed from the text."""
    directory.mkdir(exist_ok=True)
    (directory / ".data.csv.mpcache").unlink(missing_ok=True)
    (directory / "data.csv").write_bytes(raw)
    (directory / "manifest.json").write_text(json.dumps(world["manifest"]))
    run, _, _ = cli.load_run_config(str(world["run_path"]), [])
    model, _ = load_checkpoint(world["ckpt"])
    windows = load_dataset(load_manifest(directory / "manifest.json")).windows
    batch = prepare_windows(windows, model.config, make_provider(**asdict(run.provider)), source="fresh")
    return json.loads(json.dumps(evaluate(model, batch, workers=run.workers).to_dict()))


def test_damaged_data_csv_fuzz(world, capsys):
    # each damaged file meets the clean file's sidecar, which must never
    # serve it: an exit-0 run scores exactly what a fresh parse scores
    root = world["root"]
    data = root / "damaged"
    data.mkdir()
    clean = (root / "data" / "data.csv").read_bytes()
    (data / "manifest.json").write_text(json.dumps(world["manifest"]))
    (data / "data.csv").write_bytes(clean)
    out = root / "damaged_runs"
    argv = ["evaluate", "--config", str(world["run_path"]), "--set", f"out_dir={out}", "--set", "run_id=damaged",
            str(world["ckpt"]), str(data / "manifest.json")]
    assert cli.main(argv) == 0
    sidecar = data / ".data.csv.mpcache"
    clean_sidecar = sidecar.read_bytes()
    failures, codes = {}, set()
    for label, raw in damaged_csvs(clean, random.Random(SEED + 5)):
        (data / "data.csv").write_bytes(raw)
        sidecar.write_bytes(clean_sidecar)
        (out / "damaged_metrics.json").unlink(missing_ok=True)
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except Exception as exc:  # run as a program, this prints a traceback
            failures[label] = f"raised {type(exc).__name__}: {exc}"
            continue
        err = capsys.readouterr().err
        codes.add(code)
        if "Traceback" in err or code not in (0, 3):
            failures[label] = f"exit {code}: {err.strip().splitlines()[-1:]}"
        elif code == 3 and json.loads(err.strip().splitlines()[-1]).get("error") != "data":
            failures[label] = f"exit 3 without a data error record: {err.strip().splitlines()[-1:]}"
        elif code == 0:
            got = json.loads((out / "damaged_metrics.json").read_text())
            if got != fresh_metrics(world, raw, root / "fresh"):
                failures[label] = "metrics differ from a fresh parse"
    assert failures == {}
    assert codes == {0, 3}  # both outcomes are exercised
