import json
from pathlib import Path

import numpy as np
import pytest

from motionprim import cli
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
    merged, applied = cli.load_run_config(None, [])
    assert merged["seed"] == 0
    assert merged["freeze"] == "encoder-finetune"
    assert merged["provider"]["kind"] == "deterministic-hash"
    assert applied == []


def test_file_merges_nested_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"depth": 3}, "seed": 9}))
    merged, _ = cli.load_run_config(str(path), [])
    assert merged["model"] == {"depth": 3}
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
    merged, applied = cli.load_run_config(
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
    merged, _ = cli.load_run_config(str(cfg_path), ["run_id=null"])
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


def test_exit_2_on_remote_provider_without_endpoint(workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MOTIONPRIM_EMBED_ENDPOINT", raising=False)
    _, cfg_path, _ = workdir
    code = cli.main(["pretrain", "--config", str(cfg_path), "--set", f"out_dir={tmp_path}", "--set", "provider.kind=remote"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert "MOTIONPRIM_EMBED_ENDPOINT" in record["message"]


def test_exit_2_when_no_datasets(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"datasets": []}))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_exit_3_on_missing_dataset(tmp_path, capsys):
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
    assert cli.main(["gradcheck", "--scale", "huge"]) == 2
    capsys.readouterr()
