import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motionprim import cli, training
from motionprim.errors import ConfigError
from motionprim.model import ModelConfig, init_model
from motionprim.training import save_checkpoint
from test_tensorfile import corrupted_variants


TINY_SPEC = {
    "classes": [
        {"name": "slow", "waveforms": [
            {"kind": "sine", "frequency": 0.5, "noise_sigma": 0.05},
            {"kind": "square", "frequency": 0.5, "noise_sigma": 0.05},
        ]},
        {"name": "fast", "waveforms": [
            {"kind": "sine", "frequency": 2.0, "noise_sigma": 0.05},
            {"kind": "sawtooth", "frequency": 2.0, "noise_sigma": 0.05},
        ]},
    ],
    "channels": [
        {"body_part": "wrist", "sensor": "accelerometer", "axis": "x"},
        {"body_part": "ankle", "sensor": "gyroscope", "axis": "z"},
    ],
    "windows_per_class": 12,
    "seed": 5,
    "rate": 10.0,
    "window_len": 20,
}

TINY_RUN = {
    "model": {
        "codebook_size": 8,
        "segment_len": 5,
        "model_dim": 8,
        "meta_dim": 16,
        "depth": 1,
        "heads": 2,
        "segments_per_channel": 4,
        "mask_ratio": 0.25,
        "num_classes": 2,
    },
    "optimizer": {
        "learning_rate": 1e-3,
        "batch_size": 8,
        "micro_batch": 4,
        "epochs": 2,
    },
    "provider": {"dim": 16},
    "seed": 3,
    "split_fraction": 0.25,
}


# ---------------------------------------------------------------------------
# config loading


def test_defaults_when_no_file():
    run, merged, applied = cli.load_run_config(None, [])
    assert run.seed == merged["seed"] == 0
    assert merged["freeze"] == "encoder-finetune"
    assert merged["provider"]["kind"] == "deterministic-hash"
    assert applied == []


def test_file_merges_nested_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"depth": 3}, "seed": 9}))
    run, merged, _ = cli.load_run_config(str(path), [])
    assert merged["model"] == {"depth": 3}
    assert run.model.depth == 3
    assert merged["seed"] == 9
    # untouched sections keep their defaults
    assert merged["provider"]["dim"] == 768


def test_unknown_keys_rejected_everywhere(tmp_path):
    cases = [
        {"bogus": 1},
        {"model": {"layers": 2}},
        {"optimizer": {"momentum": 0.9}},
        {"provider": {"token": "x"}},
        {"loss_weights": {"lambda_tok": 1.0}},
    ]
    for raw in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            cli.load_run_config(str(path), [])


def test_set_overrides_parse_json_and_bare_strings():
    run, merged, applied = cli.load_run_config(
        None,
        ["model.depth=3", "seed=7", "freeze=linear-probe", "provider.path=/tmp/cache.json"],
    )
    assert merged["model"]["depth"] == 3  # JSON int, not "3"
    assert merged["seed"] == 7
    assert merged["freeze"] == "linear-probe"  # bare string accepted
    assert merged["provider"]["path"] == "/tmp/cache.json"
    assert len(applied) == 4
    assert any("model.depth" in line for line in applied)


def test_set_overrides_validate():
    with pytest.raises(ConfigError):
        cli.load_run_config(None, ["model.depth"])  # no '='
    with pytest.raises(ConfigError):
        cli.load_run_config(None, ["nosuch=1"])
    with pytest.raises(ConfigError):
        cli.load_run_config(None, ["model.layers=2"])  # unknown nested key
    with pytest.raises(ConfigError):
        cli.load_run_config(None, ["seed.deep=2"])  # path through a scalar


def test_config_hash_key_order_invariant():
    a = {"seed": 1, "model": {"depth": 2, "heads": 4}}
    b = {"model": {"heads": 4, "depth": 2}, "seed": 1}
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash({"seed": 2, "model": a["model"]})
    assert len(cli.config_hash(a)) == 64


def test_config_hash_pins():
    # default run ids are "<command>-<hash prefix>", so these values must
    # not move when the config code changes
    _, merged, _ = cli.load_run_config(None, [])
    assert cli.config_hash(merged) == "8460d58fd3af329483cf717c50fc394b3d5d53afa6ae3cbecf932d61aa761124"
    _, merged, _ = cli.load_run_config(None, ["seed=7", "freeze=linear-probe", "model.depth=3", "run_id=null"])
    assert cli.config_hash(merged) == "bcf57d8ec5cfd9f44118da4bde909a15f38b672de1702d839d0f2dadbbaf738f"


def test_set_keeps_text_for_str_fields():
    run, _, _ = cli.load_run_config(None, ["run_id=123", "out_dir=3", 'provider.path="p.json"', "freeze=[1]"])
    assert (run.run_id, run.out_dir, run.provider.path, run.freeze) == ("123", "3", "p.json", "[1]")
    run, _, _ = cli.load_run_config(None, ["run_id=123", "run_id=null"])
    assert run.run_id is None
    with pytest.raises(ConfigError, match="config.out_dir"):
        cli.load_run_config(None, ["out_dir=null"])


def test_set_types_every_section():
    run, _, _ = cli.load_run_config(None, ["model.mlp_ratio=2", "loss_weights={\"lambda_vq\": 0}", "provider.dim=16"])
    assert run.model.mlp_ratio == 2.0 and type(run.model.mlp_ratio) is float
    assert run.loss_weights.lambda_vq == 0.0 and run.loss_weights.lambda_mae == 1.0
    assert run.provider.dim == 16


# ---------------------------------------------------------------------------
# end-to-end command chain


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    data_dir = root / "data"
    assert cli.main(["synth", str(spec_path), str(data_dir)]) == 0
    run_cfg = dict(TINY_RUN)
    run_cfg["datasets"] = [str(data_dir / "manifest.json")]
    run_cfg["out_dir"] = str(root / "runs")
    run_cfg["run_id"] = "demo"
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(run_cfg))
    return root, cfg_path, data_dir


def test_synth_outputs(workdir):
    root, _, data_dir = workdir
    assert (data_dir / "data.csv").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["classes"] == ["slow", "fast"]
    run_manifest = json.loads((data_dir / "run_manifest.json").read_text())
    assert run_manifest["command"] == "synth"


def test_pretrain_then_finetune_then_evaluate_then_analyze(workdir, capsys):
    root, cfg_path, data_dir = workdir
    runs = root / "runs"

    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    ckpt = runs / "demo.ckpt"
    assert ckpt.exists()
    log = [json.loads(line) for line in (runs / "demo_train.jsonl").read_text().splitlines()]
    assert len(log) == 2
    assert {"epoch", "total_loss", "mae_loss", "perplexity"} <= set(log[0])

    manifest = json.loads((runs / "run_manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["seed"] == 3
    assert manifest["overrides"] == []
    assert len(manifest["config_hash"]) == 64
    assert {"motionprim", "numpy", "scipy", "python"} <= set(manifest["versions"])
    assert any(p.endswith("demo.ckpt") for p in manifest["outputs"])

    ft_dir = runs / "ft"
    assert cli.main([
        "finetune", "--config", str(cfg_path),
        "--set", f"out_dir={ft_dir}", "--set", "run_id=ft",
        str(ckpt),
    ]) == 0
    ft_ckpt = ft_dir / "ft.ckpt"
    assert ft_ckpt.exists()
    metrics = json.loads((ft_dir / "ft_metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert len(metrics["confusion"]) == 2

    ev_dir = runs / "ev"
    assert cli.main([
        "evaluate", "--config", str(cfg_path),
        "--set", f"out_dir={ev_dir}", "--set", "run_id=ev",
        str(ft_ckpt), str(data_dir / "manifest.json"),
    ]) == 0
    ev_metrics = json.loads((ev_dir / "ev_metrics.json").read_text())
    assert ev_metrics["num_windows"] == 24

    an_dir = runs / "an"
    assert cli.main([
        "analyze", "--config", str(cfg_path),
        "--set", f"out_dir={an_dir}", "--set", "run_id=an",
        str(ft_ckpt), str(data_dir / "manifest.json"),
    ]) == 0
    for report in ("similarity", "frequency", "transitions"):
        assert (an_dir / f"an_{report}.csv").exists()
        payload = json.loads((an_dir / f"an_{report}.json").read_text())
        assert payload["report"] == report
    capsys.readouterr()


def test_default_run_id_uses_config_hash(workdir):
    root, cfg_path, _ = workdir
    _, merged, _ = cli.load_run_config(str(cfg_path), ["run_id=null"])
    assert cli._run_id(merged, "pretrain") == f"pretrain-{cli.config_hash(merged)[:8]}"


# ---------------------------------------------------------------------------
# exit codes and the error record


def test_exit_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    code = cli.main(["pretrain", "--config", str(bad)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert record["type"] == "ConfigError"
    assert "nonsense" in record["message"]


@pytest.mark.parametrize("key, value", [("dropout", "0.1"), ("norm_placement", "post")])
def test_exit_2_on_removed_model_keys(workdir, tmp_path, capsys, key, value):
    # a run that would otherwise train is refused at config load
    _, cfg_path, _ = workdir
    code = cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", f"model.{key}={value}"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ConfigError"
    assert key in record["message"]
    assert not list(tmp_path.iterdir())


def test_exit_2_on_mistyped_model_value(workdir, tmp_path, capsys):
    _, cfg_path, _ = workdir
    code = cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", "model.codebook_size=six"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ConfigError"
    assert "codebook_size" in record["message"]
    assert not list(tmp_path.iterdir())


def test_exit_2_on_unknown_provider_kind(workdir, tmp_path, capsys):
    # "remote" was a provider kind once; it is now as unknown as any other name
    _, cfg_path, _ = workdir
    code = cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", "provider.kind=remote"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert "unknown metadata provider 'remote'" in record["message"]
    assert not list(tmp_path.iterdir())


def _config_error(capsys) -> dict:
    """The one JSON error record that ends stderr; nothing else is JSON and
    no traceback is printed."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert not any("Traceback" in line for line in lines)
    assert sum(line.startswith("{") for line in lines) == 1
    record = json.loads(lines[-1])
    assert (record["error"], record["type"]) == ("config", "ConfigError")
    return record


@pytest.mark.parametrize("override", [
    "optimizer.epochs=five",
    "optimizer.learning_rate=[1]",
    'loss_weights={"lambda_mae":"x"}',
    "seed=abc",
    "seed=-1",
    "provider.dim=big",
    "provider.seed=x",
    "datasets=5",
    "workers=0",
    "workers=-1",
    "model.heads=3",
])
def test_exit_2_on_mistyped_override(workdir, tmp_path, capsys, override):
    _, cfg_path, _ = workdir
    code = cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", override])
    assert code == 2
    record = _config_error(capsys)
    assert override.split("=")[0].split(".")[-1] in record["message"]
    assert not list(tmp_path.iterdir())


def test_str_overrides_name_the_run(workdir, tmp_path, capsys, monkeypatch):
    _, cfg_path, _ = workdir
    monkeypatch.chdir(tmp_path)
    assert cli.main(["pretrain", "--config", str(cfg_path), "--set", "out_dir=3", "--set", "run_id=123"]) == 0
    assert (tmp_path / "3" / "123.ckpt").is_file()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate", "analyze"])
def test_every_command_types_the_run_config(workdir, tmp_path, capsys, command):
    # the config is checked before the checkpoint (absent here) is opened
    _, cfg_path, data_dir = workdir
    operands = {
        "pretrain": [],
        "finetune": [str(tmp_path / "absent.ckpt")],
        "evaluate": [str(tmp_path / "absent.ckpt"), str(data_dir / "manifest.json")],
        "analyze": [str(tmp_path / "absent.ckpt"), str(data_dir / "manifest.json")],
    }[command]
    for override in ("workers=0", "workers=-1", "split_fraction=abc", "provider.seed=x"):
        code = cli.main([command, "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", override, *operands])
        assert code == 2, override
        _config_error(capsys)


@pytest.mark.parametrize("flags", [["--top-n", "-3"], ["--top-n", "0"], ["--sim-tokens", "-1"], ["--sim-tokens", "0"]])
def test_analyze_counts_below_one_exit_2(workdir, tmp_path, capsys, flags):
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    out_dir = tmp_path / "out"
    code = cli.main([
        "analyze", "--config", str(cfg_path), "--set", f"out_dir={out_dir}", *flags,
        str(ckpt), str(data_dir / "manifest.json"),
    ])
    assert code == 2
    assert flags[0] in _config_error(capsys)["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("path, value", [
    (["windows_per_class"], "five"),
    (["classes", 0, "waveforms", 1, "amplitude"], "big"),
])
def test_synth_exit_2_on_mistyped_spec(tmp_path, capsys, path, value):
    spec = copy.deepcopy(TINY_SPEC)
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    assert str(path[-1]) in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


def test_exit_2_when_no_datasets(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"datasets": []}))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_exit_3_on_missing_dataset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default out_dir, made before the data is read
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"datasets": [str(tmp_path / "nope" / "manifest.json")]}))
    code = cli.main(["pretrain", "--config", str(cfg)])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "data"


def test_exit_3_on_ragged_csv_row(workdir, tmp_path, capsys):
    _, cfg_path, data_dir = workdir
    bad_dir = tmp_path / "data"
    bad_dir.mkdir()
    (bad_dir / "manifest.json").write_bytes((data_dir / "manifest.json").read_bytes())
    lines = (data_dir / "data.csv").read_text().splitlines(keepends=True)
    lines[5] = lines[5].split(",", 1)[0] + "\n"  # one field of three
    (bad_dir / "data.csv").write_text("".join(lines))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    assert _evaluate_exit(cfg_path, data_dir, ckpt, capsys) == (0, None)
    code = cli.main(["evaluate", "--config", str(cfg_path), str(ckpt), str(bad_dir / "manifest.json")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "data"
    assert "data.csv" in record["message"]


def test_analyze_unlabeled_frequency_exit_3_writes_no_report(tmp_path, capsys):
    # a 2-channel CSV without labels: the default reports include frequency,
    # which needs labels, so the run fails before it writes anything
    rows = np.random.default_rng(0).normal(size=(80, 2)).tolist()
    (tmp_path / "data.csv").write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    channel = {"file": "data.csv", "body_part": "wrist", "sensor": "accelerometer", "native_rate": 10.0}
    manifest = {
        "name": "unlabeled",
        "target_rate": 10.0,
        "window": 20,
        "channels": [{**channel, "column": "a", "axis": "x"}, {**channel, "column": "b", "axis": "y"}],
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    out = tmp_path / "out"
    argv = ["analyze", str(ckpt), str(tmp_path / "m.json"), "--set", f"out_dir={out}", "--set", "run_id=an", "--set", "provider.dim=16"]
    assert cli.main(argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "data"
    assert "labeled" in record["message"]
    assert not out.exists() or not list(out.iterdir())
    assert cli.main(argv + ["--reports", "similarity,transitions"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "an_similarity.csv", "an_similarity.json", "an_transitions.csv", "an_transitions.json", "run_manifest.json",
    ]
    capsys.readouterr()


def test_fresh_processes_write_identical_checkpoints(tmp_path):
    # README "Determinism": one config and seed, run by two new processes at
    # one BLAS thread, writes the same pretrain and fine-tune bytes. The
    # processes differ in hash seed; the first parses the CSV and leaves its
    # sidecar, which serves the second.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "data")]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "datasets": [str(tmp_path / "data" / "manifest.json")], "run_id": "pre"}))
    script = (
        "import sys; from motionprim.cli import main; cfg, out = sys.argv[1:]; "
        "sys.exit(main(['pretrain', '--config', cfg, '--set', 'out_dir=' + out]) or "
        "main(['finetune', '--config', cfg, '--set', 'out_dir=' + out, '--set', 'run_id=ft', out + '/pre.ckpt']))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    hashes = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONHASHSEED": str(run),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        done = subprocess.run([sys.executable, "-c", script, str(cfg), str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        hashes.append([hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("pre.ckpt", "ft.ckpt")])
        assert (tmp_path / "data" / ".data.csv.mpcache").is_file()
    assert hashes[0] == hashes[1]


def test_exit_4_on_garbage_checkpoint(workdir, tmp_path, capsys):
    root, cfg_path, data_dir = workdir
    garbage = tmp_path / "junk.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    code = cli.main([
        "evaluate", "--config", str(cfg_path),
        str(garbage), str(data_dir / "manifest.json"),
    ])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "checkpoint"


def _evaluate_exit(cfg_path, data_dir, ckpt, capsys) -> tuple[int, str | None]:
    code = cli.main(["evaluate", "--config", str(cfg_path), str(ckpt), str(data_dir / "manifest.json")])
    err = capsys.readouterr().err.strip().splitlines()
    return code, json.loads(err[-1])["error"] if code else None


def test_exit_4_on_checkpoint_with_wrong_tensor_shape(workdir, tmp_path, capsys):
    root, cfg_path, data_dir = workdir
    model = init_model(ModelConfig(**TINY_RUN["model"]), seed=0)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, model)
    assert _evaluate_exit(cfg_path, data_dir, good, capsys) == (0, None)
    model.params["enc.0.attn.wq"] = np.zeros((3, 3))
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, model)
    assert _evaluate_exit(cfg_path, data_dir, bad, capsys) == (4, "checkpoint")


def test_exit_4_on_corrupted_checkpoints(workdir, tmp_path, capsys):
    # seeded truncations and malformed header fields of a valid checkpoint
    root, cfg_path, data_dir = workdir
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    broken = tmp_path / "broken.ckpt"
    outcomes = {}
    for label, raw in corrupted_variants(good.read_bytes(), seed=1):
        broken.write_bytes(raw)
        outcomes[label] = _evaluate_exit(cfg_path, data_dir, broken, capsys)
    assert outcomes and set(outcomes.values()) == {(4, "checkpoint")}


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate", "analyze"])
def test_out_dir_that_is_a_file_exits_2_before_any_work(workdir, tmp_path, capsys, monkeypatch, command):
    # the output directory is made and checked first: no data is loaded and
    # no epoch runs before an unusable one is reported
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file")
    epochs = []
    monkeypatch.setattr(training, "run_training", lambda *args, **kwargs: epochs.append(args))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    operands = {
        "pretrain": [],
        "finetune": [str(ckpt)],
        "evaluate": [str(ckpt), str(data_dir / "manifest.json")],
        "analyze": [str(ckpt), str(data_dir / "manifest.json")],
    }[command]
    assert cli.main([command, "--config", str(cfg_path), "--set", f"out_dir={blocker}", *operands]) == 2
    assert "output directory" in _config_error(capsys)["message"]
    assert epochs == []
    assert blocker.read_text() == "a regular file"


def test_out_dir_that_is_not_writable_exits_2(workdir, tmp_path, capsys, monkeypatch):
    # os.access stands in for a read-only directory, which root could write
    _, cfg_path, _ = workdir
    monkeypatch.setattr(cli.os, "access", lambda *args: False)
    assert cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}"]) == 2
    assert "not writable" in _config_error(capsys)["message"]


@pytest.mark.parametrize("run_id", ["sub/x", ".."])
def test_run_id_that_is_not_a_file_name_exits_2_before_any_epoch(workdir, tmp_path, capsys, monkeypatch, run_id):
    # a run_id names files inside out_dir; "sub/x" used to train to the end
    # and then fail to open out_dir/sub/x.ckpt
    _, cfg_path, _ = workdir
    epochs = []
    monkeypatch.setattr(training, "run_training", lambda *args, **kwargs: epochs.append(args))
    assert cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", f"run_id={run_id}"]) == 2
    assert "run_id" in _config_error(capsys)["message"]
    assert epochs == []


def test_synth_below_a_file_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    (tmp_path / "notadir").write_text("")
    assert cli.main(["synth", str(spec_path), str(tmp_path / "notadir" / "sub")]) == 2
    assert "notadir" in _config_error(capsys)["message"]


def test_gradcheck_out_below_a_file_exits_2(tmp_path, capsys, monkeypatch):
    (tmp_path / "notadir").write_text("")
    monkeypatch.setattr(cli, "gradient_suite", lambda *args, **kwargs: pytest.fail("checks ran"))
    assert cli.main(["gradcheck", "--out", str(tmp_path / "notadir" / "grad.json")]) == 2
    _config_error(capsys)


def test_exit_3_on_missing_spec(tmp_path, capsys):
    assert cli.main(["synth", str(tmp_path / "void.json"), str(tmp_path / "out")]) == 3
    capsys.readouterr()


def test_gradcheck_writes_report(tmp_path, capsys):
    out = tmp_path / "grad.json"
    assert cli.main(["gradcheck", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload  # one entry per checked component
    for report in payload.values():
        assert report["passed"] is True
        assert report["max_rel_err"] < report["tolerance"]
    text = capsys.readouterr().out
    assert "PASS" in text


def test_gradcheck_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "grad.json"
    assert cli.main(["gradcheck", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed" in _config_error(capsys)["message"]
    assert not out.exists()
