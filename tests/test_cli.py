import copy
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from motionprim import _parallel, cli, ingest, tensorfile, training
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
    assert merged["provider"] == {"kind": "deterministic-hash", "seed": 0, "path": None}


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
    # not move when the config code changes; they moved once when the
    # `codebook_init` key was dropped (README, Run config reference)
    _, merged, _ = cli.load_run_config(None, [])
    assert cli.config_hash(merged) == "cdc6e575732f2704d85ce9b50b01cc063099fbddd60ab48436a2382bbbb9497e"
    _, merged, _ = cli.load_run_config(None, ["seed=7", "freeze=linear-probe", "model.depth=3", "run_id=null"])
    assert cli.config_hash(merged) == "7ebc1afa308c97abda313ba47408b3c6511eac7fb6f600de05785154562b1185"


def test_set_keeps_text_for_str_fields():
    run, _, _ = cli.load_run_config(None, ["run_id=123", "out_dir=3", 'provider.path="p.json"', "provider.kind=[1]"])
    assert (run.run_id, run.out_dir, run.provider.path, run.provider.kind) == ("123", "3", "p.json", "[1]")
    run, _, _ = cli.load_run_config(None, ["run_id=123", "run_id=null"])
    assert run.run_id is None
    with pytest.raises(ConfigError, match="config.out_dir"):
        cli.load_run_config(None, ["out_dir=null"])


def test_set_types_every_section():
    run, _, _ = cli.load_run_config(None, ["model.mlp_ratio=2", "loss_weights={\"lambda_vq\": 0}", "provider.seed=16"])
    assert run.model.mlp_ratio == 2.0 and type(run.model.mlp_ratio) is float
    assert run.loss_weights.lambda_vq == 0.0 and run.loss_weights.lambda_mae == 1.0
    assert run.provider.seed == 16


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


def test_commands_after_synth_parse_no_csv_text(tmp_path, monkeypatch, capsys):
    # synth's sidecar serves the first pretrain, evaluate and analyze: none
    # of them parses the CSV text synth wrote
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "data")]) == 0
    manifest = str(tmp_path / "data" / "manifest.json")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**TINY_RUN, "datasets": [manifest], "out_dir": str(tmp_path / "runs"), "run_id": "pre"}))
    parses, parse = [], ingest._parse_csv
    monkeypatch.setattr(ingest, "_parse_csv", lambda path, *args: parses.append(path) or parse(path, *args))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 0
    for command in ("evaluate", "analyze"):
        argv = [command, "--config", str(cfg), "--set", f"run_id={command}", str(tmp_path / "runs" / "pre.ckpt"), manifest]
        assert cli.main(argv) == 0, capsys.readouterr().err
    assert parses == []
    capsys.readouterr()


@pytest.mark.parametrize("fail", ["save", "replace"])
def test_synth_exits_0_without_room_for_the_sidecar(tmp_path, monkeypatch, capsys, fail):
    # the sidecar is a cache: synth that cannot write it writes the dataset,
    # and the first load parses the CSV
    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    if fail == "save":
        monkeypatch.setattr(tensorfile, "save_tensors", no_space)
    else:
        replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (no_space if ".mpcache" in str(dst) else replace)(src, dst))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "data")]) == 0
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["data.csv", "manifest.json", "run_manifest.json"]
    parses, parse = [], ingest._parse_csv
    monkeypatch.setattr(ingest, "_parse_csv", lambda path, *args: parses.append(path) or parse(path, *args))
    loaded = ingest.load_dataset(ingest.load_manifest(tmp_path / "data" / "manifest.json")).windows
    assert parses == [tmp_path / "data" / "data.csv"] and (tmp_path / "data" / ".data.csv.mpcache").is_file()
    want = ingest.generate_synthetic(ingest.synthetic_spec_from_dict(TINY_SPEC))
    assert [(w.label, w.samples.tobytes()) for w in loaded] == [(w.label, w.samples.tobytes()) for w in want]
    capsys.readouterr()


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


@pytest.mark.parametrize("command, override", [
    ("finetune", "freeze=linear_probe"),
    ("finetune", "freeze=pretrain-all"),  # pretraining's policy freezes the head
    ("pretrain", "codebook_init=kmeans"),  # an unknown key: k-means is the only codebook init
    ("finetune", "split_fraction=1.5"),
    ("finetune", "split_fraction=0"),
    ("evaluate", "freeze=none"),
])
def test_run_config_values_are_checked_before_any_load(workdir, tmp_path, capsys, monkeypatch, command, override):
    # each used to load the dataset before the value was looked at
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    operands = {"pretrain": [], "finetune": [str(ckpt)], "evaluate": [str(ckpt), str(data_dir / "manifest.json")]}[command]
    code = cli.main([command, "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}", "--set", override, *operands])
    assert code == 2
    assert override.split("=")[0].split("_")[0] in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


def test_finetune_without_a_classification_loss_exits_2(workdir, tmp_path, capsys):
    _, cfg_path, _ = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    weights = json.dumps({"lambda_mae": 1.0, "lambda_cls": 0.0, "lambda_vq": 1.0})
    code = cli.main([
        "finetune", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}",
        "--set", f"loss_weights={weights}", str(ckpt),
    ])
    assert code == 2
    assert "lambda_cls" in _config_error(capsys)["message"]
    assert not list((tmp_path / "out").glob("*.ckpt"))


def test_finetune_without_a_classification_loss_exits_2_before_any_load(workdir, tmp_path, capsys, monkeypatch):
    # a run config that can train no head is refused like any other bad
    # value: before the checkpoint or a single data file is read
    _, cfg_path, _ = workdir
    monkeypatch.setattr(cli, "load_checkpoint", lambda *args, **kwargs: pytest.fail("checkpoint loaded"))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    weights = json.dumps({"lambda_mae": 1.0, "lambda_cls": 0.0, "lambda_vq": 1.0})
    code = cli.main([
        "finetune", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}",
        "--set", f"loss_weights={weights}", str(tmp_path / "model.ckpt"),
    ])
    assert code == 2
    assert "lambda_cls" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


def test_pretrain_with_a_classification_loss_exits_2_before_any_load(workdir, tmp_path, capsys, monkeypatch):
    # pretraining freezes the classification head, so lambda_cls > 0 is
    # refused before a data file is read or the output directory made
    _, cfg_path, _ = workdir
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    weights = json.dumps({"lambda_mae": 1.0, "lambda_cls": 1.0, "lambda_vq": 1.0})
    code = cli.main([
        "pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}",
        "--set", f"loss_weights={weights}",
    ])
    assert code == 2
    assert "lambda_cls must be 0" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


def test_provider_dim_is_an_unknown_key(workdir, tmp_path, capsys):
    # the provider embeds at the model's meta_dim; there is no second width
    _, cfg_path, _ = workdir
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**json.loads(cfg_path.read_text()), "provider": {"dim": 16}}))
    for argv in (["--config", str(old)], ["--config", str(cfg_path), "--set", "provider.dim=16"]):
        assert cli.main(["pretrain", *argv, "--set", f"out_dir={tmp_path / 'out'}"]) == 2
        assert "unknown keys ['config.provider.dim']" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["finetune", "evaluate", "analyze"])
def test_commands_embed_at_the_checkpoint_meta_dim(workdir, tmp_path, capsys, command):
    # a meta_dim=16 checkpoint under the default provider, which needed
    # provider.dim=16 while the provider had a width of its own
    _, _, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    assert TINY_RUN["model"]["meta_dim"] == 16
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"optimizer": TINY_RUN["optimizer"], "datasets": [str(data_dir / "manifest.json")]}))
    operands = [str(ckpt)] if command == "finetune" else [str(ckpt), str(data_dir / "manifest.json")]
    assert cli.main([command, "--config", str(run), "--set", f"out_dir={tmp_path / 'out'}", *operands]) == 0, capsys.readouterr().err
    capsys.readouterr()


def _embedding_file(path: Path, width: int, bad: float | None = None) -> Path:
    """A file-lookup embedding file for TINY_SPEC's two channels."""
    table = {
        f"body_part: {c['body_part']}, sensor: {c['sensor']}, axis: {c['axis']}": [0.5] * width
        for c in TINY_SPEC["channels"]
    }
    if bad is not None:
        next(iter(table.values()))[-1] = bad
    path.write_text(json.dumps(table))
    return path


def test_file_lookup_of_another_width_exits_2_naming_both(workdir, tmp_path, capsys):
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    embeds = _embedding_file(tmp_path / "e.json", 8)
    argv = ["evaluate", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}", "--set", "provider.kind=file-lookup"]
    assert cli.main([*argv, "--set", f"provider.path={embeds}", str(ckpt), str(data_dir / "manifest.json")]) == 2
    assert "metadata provider dim 8 does not match config meta_dim 16" in _config_error(capsys)["message"]
    _embedding_file(embeds, 16)
    assert cli.main([*argv, "--set", f"provider.path={embeds}", str(ckpt), str(data_dir / "manifest.json")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate", "analyze"])
def test_file_lookup_of_another_width_exits_2_before_the_data_load(workdir, tmp_path, capsys, monkeypatch, command):
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    embeds = _embedding_file(tmp_path / "e.json", 8)
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    operands = {"pretrain": [], "finetune": [str(ckpt)]}.get(command, [str(ckpt), str(data_dir / "manifest.json")])
    code = cli.main([
        command, "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}",
        "--set", "provider.kind=file-lookup", "--set", f"provider.path={embeds}", *operands,
    ])
    assert code == 2
    assert "metadata provider dim 8 does not match config meta_dim 16" in _config_error(capsys)["message"]


def test_non_finite_file_lookup_vector_exits_3_before_the_data_load(workdir, tmp_path, capsys, monkeypatch):
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    embeds = _embedding_file(tmp_path / "e.json", 16, bad=float("nan"))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    code = cli.main([
        "evaluate", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'out'}",
        "--set", "provider.kind=file-lookup", "--set", f"provider.path={embeds}", str(ckpt), str(data_dir / "manifest.json"),
    ])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (record["error"], record["type"]) == ("data", "MetadataProviderError")
    assert "non-finite" in record["message"]


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


def test_analyze_with_no_report_exits_2_before_any_load(workdir, tmp_path, capsys, monkeypatch):
    _, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    out_dir = tmp_path / "out"
    code = cli.main([
        "analyze", "--config", str(cfg_path), "--set", f"out_dir={out_dir}", "--reports", " , ",
        str(ckpt), str(data_dir / "manifest.json"),
    ])
    assert code == 2
    assert "--reports names no report" in _config_error(capsys)["message"]
    assert not out_dir.exists()


THREE_CLASS_SPEC = {**TINY_SPEC, "classes": [*TINY_SPEC["classes"], {"name": "still", "waveforms": [
    {"kind": "sine", "frequency": 1.0, "noise_sigma": 0.05},
    {"kind": "square", "frequency": 1.0, "noise_sigma": 0.05},
]}]}


@pytest.fixture(scope="module")
def three_classes(tmp_path_factory):
    """The manifests of THREE_CLASS_SPEC's data and of a copy of its CSV
    without the `still` rows, which still lists the three classes."""
    root = tmp_path_factory.mktemp("three")
    (root / "spec.json").write_text(json.dumps(THREE_CLASS_SPEC))
    assert cli.main(["synth", str(root / "spec.json"), str(root / "full")]) == 0
    (root / "part").mkdir()
    shutil.copy(root / "full" / "manifest.json", root / "part")
    rows = (root / "full" / "data.csv").read_text().splitlines(keepends=True)
    (root / "part" / "data.csv").write_text("".join(row for row in rows if row.rstrip().split(",")[-1] != "still"))
    return root / "full" / "manifest.json", root / "part" / "manifest.json"


def test_finetune_sizes_the_head_by_the_class_list(three_classes, tmp_path, capsys):
    full, part = three_classes
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    run = tmp_path / "run.json"
    run.write_text(json.dumps({**TINY_RUN, "datasets": [str(part)], "out_dir": str(tmp_path), "run_id": "ft"}))
    assert cli.main(["finetune", "--config", str(run), str(ckpt)]) == 0
    # the fine-tuned head takes the class no fine-tune window had
    argv = ["evaluate", "--set", f"out_dir={tmp_path}", "--set", "run_id=ev", str(tmp_path / "ft.ckpt"), str(full)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(json.loads((tmp_path / "ev_metrics.json").read_text())["confusion"]) == 3
    capsys.readouterr()


def test_analyze_counts_the_classes_of_the_dataset(three_classes, tmp_path, capsys):
    full, _ = three_classes
    ckpt = tmp_path / "model.ckpt"
    assert TINY_RUN["model"]["num_classes"] == 2
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    argv = ["analyze", "--reports", "frequency", "--set", f"out_dir={tmp_path}", "--set", "run_id=an", str(ckpt), str(full)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "an_frequency.json").read_text())
    assert report["num_classes"] == 3
    assert all(len(row) == 3 for row in report["fractions"])
    capsys.readouterr()


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


RATED_CHANNELS = [{**ch, "native_rate": 10.0} for ch in TINY_SPEC["channels"]]


@pytest.mark.parametrize("key, edit", [
    ("rate", {"rate": 0, "channels": RATED_CHANNELS}),  # wrote an all-NaN data.csv
    ("rate", {"rate": -5, "channels": RATED_CHANNELS}),  # wrote a manifest no command loads
    ("rate", {"rate": "1e400", "channels": RATED_CHANNELS}),  # target_rate Infinity
    ("rate", {"rate": 0}),  # named the channels' native_rate, exit 3
    ("amplitude", {"classes": [
        {"name": "slow", "waveforms": [{"kind": "sine", "amplitude": "NaN"}, {"kind": "square"}]},
        TINY_SPEC["classes"][1],
    ]}),
    ("noise_sigma", {"classes": [
        TINY_SPEC["classes"][0],
        {"name": "fast", "waveforms": [{"kind": "sine"}, {"kind": "sawtooth", "noise_sigma": "Infinity"}]},
    ]}),
], ids=["rate-0", "rate-negative", "rate-1e400", "rate-0-defaulted-channels", "amplitude-nan", "noise-inf"])
def test_synth_exit_2_on_a_spec_value_it_cannot_write(tmp_path, capsys, key, edit):
    # a quoted "1e400", "NaN" or "Infinity" is written bare, the JSON number
    # or constant json.loads reads as inf or nan
    text = json.dumps({**TINY_SPEC, **edit})
    for bare in ("1e400", "NaN", "Infinity"):
        text = text.replace(f'"{bare}"', bare)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    message = _config_error(capsys)["message"]
    assert message.startswith(f"{key} must be finite"), message
    assert not (tmp_path / "out").exists()


def test_synth_exit_2_on_colliding_column_names(tmp_path, capsys):
    # both channels would be the CSV column wrist_accelerometer_x, a header
    # that every later load rejects
    spec = copy.deepcopy(TINY_SPEC)
    spec["channels"][1] = {"body_part": "Wrist", "sensor": "accelerometer", "axis": "X"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    assert "wrist_accelerometer_x" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit", [
    {"classes": ["\ud800", "fast"]},  # exited 1 with an untyped UnicodeEncodeError
    {"classes": ["a", "a\u0000"]},  # exited 0, and every load labelled all windows "a"
    {"classes": ["slow", "fa\u000bst"]},
    {"axis": "x\u0000"},
    {"axis": "\u001f"},
], ids=["lone-surrogate", "trailing-nul", "vertical-tab", "label-nul", "label-c0"])
def test_synth_exit_2_on_a_name_that_would_not_round_trip(tmp_path, capsys, edit):
    # a class name or channel label holding a C0 control other than tab,
    # LF and CR, or a lone surrogate, is refused before anything is written
    spec = copy.deepcopy(TINY_SPEC)
    for cls, name in zip(spec["classes"], edit.get("classes", [])):
        cls["name"] = name
    if "axis" in edit:
        spec["channels"][0]["axis"] = edit["axis"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    assert "control character or a lone surrogate" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


def test_synth_exit_2_on_an_empty_channel_list(tmp_path, capsys):
    # exited 0 with a header of one column, rows of two fields and a
    # manifest that every command refused
    spec = {**TINY_SPEC, "channels": [], "classes": [{**cls, "waveforms": []} for cls in TINY_SPEC["classes"]]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    assert "channels" in _config_error(capsys)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["body_part", "sensor", "axis"])
def test_synth_exit_2_on_an_empty_channel_label_naming_it(tmp_path, capsys, key):
    # was the channel metadata's DataError (exit 3), which named no key
    spec = copy.deepcopy(TINY_SPEC)
    spec["channels"][1][key] = ""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    assert _config_error(capsys)["message"] == f"channels[1].{key} must be non-empty"
    assert not (tmp_path / "out").exists()


class FullAfter:
    """A binary file that takes `writes` writes, then has no space left."""

    def __init__(self, fh, writes: int) -> None:
        self.fh, self.writes = fh, writes

    def write(self, data: bytes) -> int:
        self.writes -= 1
        if self.writes < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


@pytest.mark.parametrize("fault", ["child-exits", "parent-write-fails"])
def test_synth_that_fails_mid_write_leaves_no_file_and_no_child(tmp_path, monkeypatch, capsys, fault):
    # three workers over blocks of 16 rows: a forked formatter that dies,
    # or a write of this process that fails, while the others are busy
    monkeypatch.setattr(_parallel, "cpus", lambda: 3)
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 16)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    if fault == "child-exits":
        parent, format_rows = os.getpid(), ingest._format_rows
        monkeypatch.setattr(ingest, "_format_rows", lambda *a: format_rows(*a) if os.getpid() == parent else os._exit(1))
    else:
        publish = tensorfile.publish
        monkeypatch.setattr(
            tensorfile,
            "publish",
            lambda path, write: publish(path, lambda fh: write(FullAfter(fh, 3) if Path(path).name == "data.csv" else fh)),
        )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "output", record
    assert len(forks) == 2
    assert list((tmp_path / "out").iterdir()) == []  # no data.csv, no temporary file
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_csv_labels_that_would_not_round_trip_are_refused(tmp_path, capsys):
    # a hand-written data.csv labelled "a" and "a\0": a manifest that lists
    # both classes is refused (exit 2), and one that lists "a" alone names the
    # CSV line (exit 3), where both used to load every window as class "a"
    spec = ingest.synthetic_spec_from_dict(TINY_SPEC)
    oracles.write_data_csv(tmp_path / "data.csv", spec.column_names, ["a", "a\0"], ingest.synthesize_streams(spec))
    channel = {"file": "data.csv", "native_rate": 10.0}
    manifest = {
        "name": "nul",
        "target_rate": 10.0,
        "window": 20,
        "label": {"file": "data.csv", "column": "label", "native_rate": 10.0},
        "channels": [{**channel, **meta, "column": column} for column, meta in zip(spec.column_names, TINY_SPEC["channels"])],
    }
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    out = tmp_path / "out"
    for classes, code in ((["a", "a\0"], 2), (["a"], 3)):
        (tmp_path / "m.json").write_text(json.dumps({**manifest, "classes": classes}))
        argv = ["evaluate", str(ckpt), str(tmp_path / "m.json"), "--set", f"out_dir={out}", "--set", "run_id=ev"]
        assert cli.main(argv) == code, classes
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == ("config" if code == 2 else "data")
        assert "control character or a lone surrogate" in record["message"]
    # the first "a\0" row: the header, then 240 rows of class "a"
    assert "'label' holds 'a\\x00'" in record["message"] and record["message"].endswith("at line 242")
    assert not (tmp_path / ".data.csv.mpcache").exists()


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


def test_exit_3_on_non_finite_csv_value_naming_file_column_and_line(workdir, tmp_path, capsys):
    _, cfg_path, data_dir = workdir
    bad_dir = tmp_path / "data"
    bad_dir.mkdir()
    (bad_dir / "manifest.json").write_bytes((data_dir / "manifest.json").read_bytes())
    lines = (data_dir / "data.csv").read_text().splitlines(keepends=True)
    column = lines[0].split(",")[1]
    fields = lines[6].split(",")
    fields[1] = "nan"
    lines[6] = ",".join(fields)
    (bad_dir / "data.csv").write_text("".join(lines))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    code = cli.main(["evaluate", "--config", str(cfg_path), str(ckpt), str(bad_dir / "manifest.json")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "data"
    assert record["message"] == f"{bad_dir / 'data.csv'}: column {column!r} holds the non-finite value nan at line 7"


def test_segment_len_beyond_the_window_exits_2_naming_the_dataset(workdir, tmp_path, capsys):
    # a config value out of range for this dataset's 20-sample windows: exit
    # 2, naming the dataset and both lengths
    _, cfg_path, _ = workdir
    argv = ["pretrain", "--config", str(cfg_path), "--set", "model.segment_len=21", "--set", f"out_dir={tmp_path}"]
    assert cli.main(argv) == 2
    message = _config_error(capsys)["message"]
    assert message == "dataset 'synthetic': model.segment_len 21 exceeds the window length 20"
    assert list(tmp_path.iterdir()) == []


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
    argv = ["analyze", str(ckpt), str(tmp_path / "m.json"), "--set", f"out_dir={out}", "--set", "run_id=an"]
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
    # processes differ in hash seed; synth's sidecar is removed, so the first
    # parses the CSV and leaves its own sidecar, which serves the second.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert cli.main(["synth", str(spec_path), str(tmp_path / "data")]) == 0
    (tmp_path / "data" / ".data.csv.mpcache").unlink()
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


def test_checkpoint_bytes_do_not_depend_on_the_core_count(tmp_path):
    # README "Determinism": two new processes at one BLAS thread, one pinned
    # to a single CPU and one on every CPU this test may use, pretrain on two
    # datasets with micro-batches smaller than the batch, then fine-tune,
    # evaluate and analyze, and write the same bytes; the second splits every
    # 16-window micro-batch and every 32-window evaluation group into window
    # shards on two or more threads, and deals over them the analysis scan
    # of a third dataset's 2200 windows (17600 segments, two GEMM blocks at
    # K=8)
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs CPU affinity and 2 or more CPUs to compare with 1")
    manifests = []
    for seed, windows in ((5, 12), (6, 12), (7, 1100)):
        spec_path = tmp_path / f"spec{seed}.json"
        spec_path.write_text(json.dumps({**TINY_SPEC, "seed": seed, "windows_per_class": windows}))
        assert cli.main(["synth", str(spec_path), str(tmp_path / f"data{seed}")]) == 0
        manifests.append(str(tmp_path / f"data{seed}" / "manifest.json"))
    manifests, read_only = manifests[:2], manifests[2]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        **TINY_RUN,
        "model": {**TINY_RUN["model"], "depth": 2},
        "optimizer": {**TINY_RUN["optimizer"], "batch_size": 32, "micro_batch": 16},
        "split_fraction": 0.75,
        "datasets": manifests,
        "run_id": "pre",
    }))
    script = (
        "import os, sys, threading\n"
        "cfg, out, first, read_only, pin = sys.argv[1:]\n"
        "if pin == 'pin': os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from motionprim import _parallel\n"
        "from motionprim.cli import main\n"
        "print(_parallel.cpus())\n"
        "code = (main(['pretrain', '--config', cfg, '--set', 'out_dir=' + out]) or "
        "main(['finetune', '--config', cfg, '--set', 'out_dir=' + out, '--set', 'run_id=ft', "
        "'--set', 'datasets=[\"' + first + '\"]', out + '/pre.ckpt']) or "
        "any(main([command, '--config', cfg, '--set', 'out_dir=' + out, '--set', 'run_id=' + run_id, "
        "out + '/ft.ckpt', read_only]) for command, run_id in (('evaluate', 'eval'), ('analyze', 'analyze'))))\n"
        "print(threading.active_count())\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    hashes, cpus, threads = [], [], []
    for pin in ("pin", "all"):
        out = tmp_path / pin
        args = [sys.executable, "-c", script, str(cfg), str(out), manifests[0], read_only, pin]
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        printed = done.stdout.split()
        cpus.append(int(printed[0]))
        threads.append(int(printed[-1]))
        written = ["pre.ckpt", "ft.ckpt", "eval_metrics.json"]
        written += [f"analyze_{name}.csv" for name in ("similarity", "frequency", "transitions")]
        hashes.append([hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written])
    assert cpus == [1, len(os.sched_getaffinity(0))]
    # the pinned process never started a pool thread
    assert threads[0] == 1 and threads[1] > 1
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


@pytest.mark.parametrize("damage", ["int64-parameter", "negative-fractional-usage"])
def test_exit_4_on_checkpoint_with_wrong_tensor_dtype(workdir, tmp_path, capsys, damage):
    # the tensor file stores any integer tensor as int64 and any float one
    # as float64: a parameter must be float64 and usage counts non-negative
    # integers, or fine-tuning fails on a bare numpy error or carries
    # truncated, negative counts
    root, cfg_path, data_dir = workdir
    model = init_model(ModelConfig(**TINY_RUN["model"]), seed=0)
    if damage == "int64-parameter":
        model.params["enc.0.attn.wq"] = np.ones(model.params["enc.0.attn.wq"].shape, dtype=np.int64)
    else:
        model.usage_counts = np.linspace(-100.5, 3.0, model.config.codebook_size)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, model)
    code = cli.main(["finetune", "--config", str(cfg_path), "--set", f"out_dir={tmp_path / 'ft'}", str(ckpt)])
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "checkpoint"


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


def test_checkpoint_path_that_is_a_directory_exits_2_before_any_epoch(workdir, tmp_path, capsys, monkeypatch):
    # out_dir/<run_id>.ckpt taken by a directory used to train every epoch
    # and then die on the final rename
    _, cfg_path, _ = workdir
    (tmp_path / "demo.ckpt").mkdir()
    monkeypatch.setattr(training, "run_training", lambda *args, **kwargs: pytest.fail("an epoch ran"))
    monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: pytest.fail("data loaded"))
    assert cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}"]) == 2
    assert "demo.ckpt" in _config_error(capsys)["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["demo.ckpt"]


def test_failed_output_write_exits_2_and_keeps_the_previous_metrics(workdir, tmp_path, capsys, monkeypatch):
    # an output write that fails after the checks (here the rename of the
    # metrics file) is one JSON record and exit 2, not a traceback, and the
    # previous run's files stay whole
    root, cfg_path, data_dir = workdir
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(ModelConfig(**TINY_RUN["model"]), seed=0))
    out = tmp_path / "ev"
    argv = ["evaluate", "--config", str(cfg_path), "--set", f"out_dir={out}", str(ckpt), str(data_dir / "manifest.json")]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "demo_metrics.json" in before

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    monkeypatch.undo()
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "output" and record["type"] == "OSError"
    assert "No space" in record["message"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("error", [
    pytest.param(MemoryError(), id="bare"),
    # what numpy raises for an array it cannot allocate; made, not raised by
    # an allocation, so the test allocates nothing large
    pytest.param(
        (np._core if hasattr(np, "_core") else np.core)._exceptions._ArrayMemoryError((10**12, 64), np.dtype(np.float64)),
        id="numpy",
    ),
])
def test_memory_error_exits_2_with_one_json_record(tmp_path, capsys, monkeypatch, error):
    def out_of_memory(args):
        raise error

    monkeypatch.setattr(cli, "cmd_gradcheck", out_of_memory)
    assert cli.main(["gradcheck"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "memory" and record["type"] == type(error).__name__
    assert record["message"] == str(error)


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
