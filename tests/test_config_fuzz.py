"""Seeded fuzz gate over every config surface.

Every key path of a valid run config (given through --config and through
--set), synthetic spec, dataset manifest and checkpoint config echo gets
wrong-typed values: a string, a bool, a list, an object, null where the key
is not optional, a float for an int and a number for a string. The CLI must
answer each with exit 2, end stderr with its one-line JSON error record and
print no traceback. So must every command given an output directory that is
a regular file, or one where an output file name is taken by a directory, a
spec or manifest that repeats a class name, and a deeply nested or
non-UTF-8 document in place of any JSON file it reads (exit 3, a data error,
for a provider's embedding file).
Seeded truncations and bit flips of a data CSV must end in exit 0 or a data
error (exit 3), never in a traceback. Seeded class names and channel labels
full of CSV and format metacharacters must give a synth sidecar equal byte
for byte to the one a parse of its CSV writes.
"""

import copy
import json
import random
from dataclasses import asdict

import pytest

from motionprim import cli
from motionprim.ingest import generate_synthetic, load_dataset, load_manifest, synthetic_spec_from_dict
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
    "mlp_ratio": 1.0, "segments_per_channel": 4, "mask_ratio": 0.25, "num_classes": 2,
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


def outcome(code: int, err: str, expected=(2, "config")) -> str | None:
    """None for the expected exit code with a last-line JSON record of the
    expected kind and no traceback, else what went wrong."""
    lines = err.strip().splitlines()
    if "Traceback" in err:
        return f"exit {code} with a traceback: {lines[-1] if lines else ''}"
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return f"exit {code}, last stderr line is not JSON: {lines[-1:]}"
    if (code, record.get("error")) != expected:
        return f"exit {code}: {record}"
    return None


def run_all(capsys, cases, expected=(2, "config")) -> dict:
    """Run (label, argv) cases; the failures by label."""
    failures = {}
    for label, argv in cases:
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except Exception as exc:  # run as a program, this prints a traceback
            failures[label] = f"raised {type(exc).__name__}: {exc}"
            continue
        problem = outcome(code, capsys.readouterr().err, expected)
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
        "provider": {"kind": "deterministic-hash", "seed": 0, "path": "unused.json"},
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
    assert count == 10 * 5 + 8  # five wrong types per key, plus a float for each int key
    assert failures == {}


# keys the model config has lost, with a value each once took
REMOVED_MODEL_KEYS = {"dropout": 0.1, "norm_placement": "post", "beta": 0.3}


def test_removed_model_keys_exit_2_naming_the_key(world, capsys):
    # a run config that carries a removed key, a --set of one and a
    # checkpoint whose config echo names one: each exits 2 naming the key
    root, model, run_path = world["root"], world["model"], str(world["run_path"])
    manifest = str(root / "data" / "manifest.json")
    failures = {}
    for key, value in REMOVED_MODEL_KEYS.items():
        run = copy.deepcopy(world["run"])
        run["model"][key] = value
        (root / f"removed_{key}.json").write_text(json.dumps(run))
        ckpt = root / f"removed_{key}.ckpt"
        save_tensors(ckpt, "checkpoint", {"config": {**MODEL, key: value}}, {**model.params, "usage_counts": model.usage_counts})
        cases = {
            "run config": ["pretrain", "--config", str(root / f"removed_{key}.json")],
            "--set": ["pretrain", "--config", run_path, "--set", f"model.{key}={json.dumps(value)}"],
            "checkpoint echo": ["evaluate", "--config", run_path, str(ckpt), manifest],
        }
        for surface, argv in cases.items():
            label = f"{surface} {key}"
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            problem = outcome(code, err)
            if problem is None and key not in json.loads(err.strip().splitlines()[-1])["message"]:
                problem = f"the message does not name {key!r}"
            if problem:
                failures[label] = problem
    assert failures == {}


def test_output_path_fuzz(world, capsys, tmp_path):
    # per command: its argv for an output directory, and the output files it
    # must find free; none of these cases gets as far as loading data
    root, ckpt, manifest = world["root"], str(world["ckpt"]), str(world["root"] / "data" / "manifest.json")
    config = ["--config", str(world["run_path"]), "--set"]
    commands = {
        "synth": (lambda out: ["synth", str(root / "spec.json"), out], ["data.csv", "manifest.json"]),
        "pretrain": (lambda out: ["pretrain", *config, f"out_dir={out}"], ["fuzz.ckpt", "fuzz_train.jsonl"]),
        "finetune": (
            lambda out: ["finetune", *config, f"out_dir={out}", ckpt],
            ["fuzz.ckpt", "fuzz_metrics.json", "fuzz_train.jsonl"],
        ),
        "evaluate": (lambda out: ["evaluate", *config, f"out_dir={out}", ckpt, manifest], ["fuzz_metrics.json"]),
        "analyze": (
            lambda out: ["analyze", *config, f"out_dir={out}", ckpt, manifest],
            [f"fuzz_{report}.{ext}" for report in ("similarity", "frequency", "transitions") for ext in ("csv", "json")],
        ),
        "gradcheck": (lambda out: ["gradcheck", "--out", f"{out}/grad.json"], ["grad.json"]),
    }
    blocker = tmp_path / "a_file"
    blocker.write_text("a regular file")
    cases = []
    for command, (argv, names) in commands.items():
        cases.append((f"{command}: out_dir is a regular file", argv(str(blocker))))
        if command != "gradcheck":
            names = [*names, "run_manifest.json"]
        for name in names:
            out = tmp_path / command / name
            (out / name).mkdir(parents=True)
            cases.append((f"{command}: {name} is a directory", argv(str(out))))
    assert len(cases) == 26  # six regular-file cases, 20 taken names
    assert run_all(capsys, cases) == {}
    assert blocker.read_text() == "a regular file"


def test_unparsable_json_fuzz(world, capsys, tmp_path):
    root, ckpt = world["root"], str(world["ckpt"])
    config = ["--config", str(world["run_path"])]
    embedding = [*config, "--set", "provider.kind=file-lookup", "--set", "provider.path={}"]
    surfaces = {
        "run config": (["pretrain", "--config", "{}"], (2, "config")),
        "synthetic spec": (["synth", "{}", str(root / "synth_out")], (2, "config")),
        "manifest": (["evaluate", *config, ckpt, "{}"], (2, "config")),
        "embedding file": (["evaluate", *embedding, ckpt, str(root / "data" / "manifest.json")], (3, "data")),
    }
    documents = {"deeply nested": b"[" * 200_000, "non-UTF-8": b'{"name": "\xff"}'}
    failures = {}
    for surface, (argv, expected) in surfaces.items():
        for kind, raw in documents.items():
            path = tmp_path / f"{surface} {kind}.json".replace(" ", "_")
            path.write_bytes(raw)
            case = (f"{surface}: {kind}", [arg.format(path) for arg in argv])
            failures.update(run_all(capsys, [case], expected))
    assert failures == {}


def test_repeated_class_names_fuzz(world, capsys):
    root = world["root"]
    spec = copy.deepcopy(world["spec"])
    spec["classes"][1]["name"] = spec["classes"][0]["name"]
    (root / "repeated_spec.json").write_text(json.dumps(spec))
    classes = world["manifest"]["classes"]
    manifest = root / "data" / "repeated_manifest.json"
    manifest.write_text(json.dumps({**world["manifest"], "classes": [classes[0], *classes]}))
    cases = [
        ("spec", ["synth", str(root / "repeated_spec.json"), str(root / "repeated_out")]),
        ("manifest", ["evaluate", "--config", str(world["run_path"]), str(world["ckpt"]), str(manifest)]),
    ]
    assert run_all(capsys, cases) == {}


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
    provider = make_provider(dim=model.config.meta_dim, **asdict(run.provider))
    batch = prepare_windows(windows, model.config, provider, source="fresh")
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


@pytest.mark.parametrize("native_rate", ["50", "1e400"])
def test_synth_exits_2_on_a_channel_rate_other_than_the_spec_rate(tmp_path, capsys, native_rate):
    # the written manifest records the spec's rate for every channel, so a
    # channel given another one, 50 Hz or a bare 1e400 (inf), exits 2
    # naming it before anything is written
    spec = copy.deepcopy(TINY_SPEC)
    spec["rate"] = 10
    spec["channels"][1]["native_rate"] = "RATE"
    (tmp_path / "spec.json").write_text(json.dumps(spec).replace('"RATE"', native_rate))
    capsys.readouterr()
    code = cli.main(["synth", str(tmp_path / "spec.json"), str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert outcome(code, err) is None
    message = json.loads(err.strip().splitlines()[-1])["message"]
    assert message.startswith("channels[1].native_rate must equal the spec's rate 10"), message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["channel", "label", "target"])
def test_a_manifest_rate_of_1e400_exits_3(world, capsys, tmp_path, where):
    # a bare 1e400 reads as inf, which every rate check refuses as the
    # manifest loads: a data error, as for any rate that is not > 0
    manifest = copy.deepcopy(world["manifest"])
    if where == "channel":
        manifest["channels"][0]["native_rate"] = "RATE"
    elif where == "label":
        manifest["label"]["native_rate"] = "RATE"
    else:
        manifest["target_rate"] = "RATE"
    path = world["root"] / "data" / f"rate_{where}.json"
    path.write_text(json.dumps(manifest).replace('"RATE"', "1e400"))
    argv = ["evaluate", "--config", str(world["run_path"]), str(world["ckpt"]), str(path)]
    assert run_all(capsys, [(where, argv)], expected=(3, "data")) == {}


# what the fuzzed names are made of: the CSV delimiter, its quote and line
# ends, synth's format character, a comment character, a space and a tab,
# non-ASCII letters and plain ones; and, in about one name in six, one
# piece of text no name may hold, at its start, inside or at its end: NUL
# (numpy's string arrays drop it from a name's end), a lone surrogate (no
# UTF-8 file holds one) or another C0 control
NAME_PIECES = [",", '"', "\r", "\n", "\r\n", "%", "#", " ", "\t", "ü", "É", "雪", "a", "b", "q"]
UNSAFE_PIECES = ["\x00", "\ud800", "\udfff", "\x01", "\x0b", "\x1f"]


def fuzzed_name(rng: random.Random, shortest: int) -> str:
    name = "".join(rng.choice(NAME_PIECES) for _ in range(rng.randint(shortest, 4)))
    if rng.random() < 1 / 6:
        at = rng.choice([0, len(name) // 2, len(name)])
        name = name[:at] + rng.choice(UNSAFE_PIECES) + name[at:]
    return f" {name} " if rng.random() < 0.2 else name


def unsafe(raw: dict) -> bool:
    """Whether a fuzzed spec names a class or a channel with a piece of
    UNSAFE_PIECES."""
    names = [c["name"] for c in raw["classes"]] + [v for ch in raw["channels"] for v in ch.values()]
    return any(piece in name for piece in UNSAFE_PIECES for name in names)


def fuzzed_spec(rng: random.Random) -> dict:
    """A tiny synth spec whose class names (maybe empty) and channel labels
    (never empty) are fuzzed, each class and each CSV column distinct."""
    channels, columns = [], set()
    for _ in range(rng.randint(1, 3)):
        channel = {key: fuzzed_name(rng, 1) for key in ("body_part", "sensor", "axis")}
        column = "_".join(channel.values()).lower()
        if column not in columns:
            columns.add(column)
            channels.append(channel)
    names = list(dict.fromkeys(fuzzed_name(rng, 0) for _ in range(rng.randint(2, 4))))
    names += [f"extra{i}" for i in range(2 - len(names))]
    kinds = ["sine", "square", "sawtooth", "constant"]
    return {
        "classes": [
            {"name": name, "waveforms": [{"kind": rng.choice(kinds), "offset": 0.5, "noise_sigma": 0.1} for _ in channels]}
            for name in names
        ],
        "channels": channels,
        "windows_per_class": rng.randint(1, 3),
        "seed": rng.randint(0, 99),
        "rate": 10.0,
        "window_len": rng.randint(2, 6),
    }


def test_synth_sidecar_name_fuzz(tmp_path, capsys):
    # a name round-trips exactly or is refused: synth refuses a spec whose
    # class names or channel labels hold unsafe text (exit 2); otherwise its
    # sidecar is the one a cold parse of its CSV writes, and the windows
    # both loads give are generate_synthetic's, whatever the names
    rng = random.Random(SEED + 7)
    failures, refused = {}, 0
    for case in range(40):
        raw = fuzzed_spec(rng)
        spec_path, out = tmp_path / f"spec{case}.json", tmp_path / f"data{case}"
        spec_path.write_text(json.dumps(raw))
        label = f"classes {[c['name'] for c in raw['classes']]!r}, channels {raw['channels']!r}"
        if unsafe(raw):
            refused += 1
            failures.update(run_all(capsys, [(label, ["synth", str(spec_path), str(out)])]))
            continue
        if cli.main(["synth", str(spec_path), str(out)]) != 0:
            failures[label] = f"synth failed: {capsys.readouterr().err.strip().splitlines()[-1:]}"
            continue
        manifest = load_manifest(out / "manifest.json")
        sidecar = out / ".data.csv.mpcache"
        written = sidecar.read_bytes()
        want = generate_synthetic(synthetic_spec_from_dict(raw))
        try:
            served = load_dataset(manifest)
            sidecar.unlink()
            parsed = load_dataset(manifest)
        except Exception as exc:
            failures[label] = f"raised {type(exc).__name__}: {exc}"
            continue
        if sidecar.read_bytes() != written:
            failures[label] = "synth's sidecar differs from the parse's"
        for how, loaded in (("served", served), ("parsed", parsed)):
            if loaded.class_names != [c["name"] for c in raw["classes"]] or [
                (w.label, w.samples.tobytes()) for w in loaded.windows
            ] != [(w.label, w.samples.tobytes()) for w in want]:
                failures[label] = f"{how} windows differ from generate_synthetic's"
    assert failures == {}
    assert 5 <= refused <= 35
