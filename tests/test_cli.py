import json
import os

import pytest

from bicap import cli, corpus
from bicap.cli import load_config, main


def run(*argv):
    return main([str(a) for a in argv])


def _synth(tmp_path, n=40, attrs=6, seed=7, name="data.jsonl"):
    path = tmp_path / name
    assert run("synth", "--attrs", attrs, "--n", n, "--seed", seed,
               "--out", path) == 0
    return path


def _train_args(data, out, **kw):
    args = ["train", "--data", data, "--out", out,
            "--s-dim", 12, "--u-dim", 12, "--maxent-hash-size", 512,
            "--epochs", 2, "--seed", 9]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", value]
    return args


def test_synth_writes_records_and_manifest(tmp_path):
    path = _synth(tmp_path, n=300, attrs=8)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 300
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "features", "captions", "split"}
    assert len(rec["features"]) == 8
    assert os.path.exists(str(path) + ".manifest.json")
    ds = corpus.load_dataset(path)
    assert len(ds.examples) == 300


def test_train_then_eval_smoke(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run(*_train_args(data, ckpt)) == 0
    assert ckpt.exists()
    log = (str(ckpt) + ".log")
    log_text = open(log).read()
    assert "epoch 1" in log_text and "valid_ppl" in log_text
    assert log_text.startswith("config ")

    report = tmp_path / "report.txt"
    assert run("eval", "--model", ckpt, "--data", data, "--candidates", 5,
               "--out", report) == 0
    text = report.read_text()
    assert "PPL" in text and "BLEU" in text and "METEOR" in text
    tsv = (tmp_path / "report.txt.tsv").read_text()
    assert tsv.splitlines()[0] == "model\tPPL\tBLEU\tMETEOR"


def test_generate_and_trace_and_retrieve(tmp_path):
    data = _synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run(*_train_args(data, ckpt)) == 0

    gen = tmp_path / "gen.tsv"
    assert run("generate", "--model", ckpt, "--data", data, "--candidates", 5,
               "--out", gen) == 0
    rows = gen.read_text().strip().split("\n")
    ds = corpus.load_dataset(data)
    assert len(rows) == len(ds.split("test"))
    assert all(len(r.split("\t")) == 3 for r in rows)

    ex_id = ds.split("test")[0].id
    trace = tmp_path / "trace.tsv"
    assert run("trace", "--model", ckpt, "--data", data,
               "--example-id", ex_id, "--out", trace) == 0
    header = trace.read_text().splitlines()[0].split("\t")
    assert header[0] == "token" and "s_0" in header and "u_0" in header

    retr = tmp_path / "retrieval.txt"
    assert run("retrieve", "--model", ckpt, "--data", data,
               "--direction", "sentence", "--mode", "ti",
               "--protocol", "concat", "--out", retr) == 0
    text = retr.read_text()
    assert "mean_rank" in text and "R@1" in text


def test_gradcheck_exit_codes(capsys):
    assert run("gradcheck", "--seed", 1) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert run("gradcheck", "--seed", 1, "--threshold", "1e-12") == 1


def test_config_file_flag_precedence_and_echo(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"s_dim": 20, "u_dim": 14, "max_epochs": 1,
                                    "maxent_hash_size": 512}))
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--data", data, "--out", ckpt, "--config", cfg_path,
               "--s-dim", 16, "--seed", 1) == 0
    echo = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("config "))
    resolved = json.loads(echo[len("config "):])
    assert resolved["s_dim"] == 16      # flag wins
    assert resolved["u_dim"] == 14      # file wins over default
    assert resolved["max_epochs"] == 1
    # the echo round-trips through load_config unchanged
    again = load_config(None, resolved, cli.TRAIN_DEFAULTS)
    assert again == resolved
    from bicap.model import load_checkpoint
    params, _, _ = load_checkpoint(ckpt)
    assert params.dims.s_dim == 16 and params.dims.u_dim == 14


def test_unknown_config_key_rejected(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"s_dim": 8, "bogus_key": 1, "other": 2}))
    code = run("train", "--data", data, "--out", tmp_path / "m.ckpt",
               "--config", cfg_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err and "other" in err


@pytest.mark.parametrize("config, flags, field", [
    ({"s_dim": "8"}, [], "s_dim"),
    ({"max_epochs": True}, [], "max_epochs"),
    ({"grad_clip": False}, [], "grad_clip"),
    ({"class_count": 2.5}, [], "class_count"),
    ({"recon_kind": 1}, [], "recon_kind"),
    ({}, ["--grad-clip", -1], "grad_clip"),
    ({}, ["--lr", "nan"], "learning_rate"),
    ({}, ["--lambda-recon", -1], "lam_recon"),
    ({}, ["--epochs", 0], "max_epochs"),
    ({}, ["--s-dim", 0], "s_dim"),
    ({}, ["--sigmoid-clip", "nan"], "sigmoid_clip"),
])
def test_bad_training_settings_fail_before_any_checkpoint(tmp_path, capsys, config, flags,
                                                          field):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    code = run("train", "--data", data, "--out", out, "--config", cfg_path, *flags)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert field in err
    if config:
        assert str(cfg_path) in err


def test_empty_config_uses_documented_defaults(tmp_path):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text("{}")
    resolved = load_config(cfg_path, {}, cli.TRAIN_DEFAULTS)
    assert resolved == cli.TRAIN_DEFAULTS


def test_identical_seeds_give_byte_identical_outputs(tmp_path):
    outs = []
    for sub in ("runA", "runB"):
        d = tmp_path / sub
        d.mkdir()
        data = _synth(d, n=30, seed=5)
        ckpt = d / "model.ckpt"
        assert run(*_train_args(data, ckpt)) == 0
        gen = d / "gen.tsv"
        assert run("generate", "--model", ckpt, "--data", data,
                   "--candidates", 4, "--seed", 2, "--out", gen) == 0
        outs.append((data.read_bytes(), ckpt.read_bytes(), gen.read_bytes()))
    assert outs[0] == outs[1]


def test_invalid_input_leaves_output_unwritten(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    out = tmp_path / "model.ckpt"
    code = run("train", "--data", bad, "--out", out)
    assert code == 2
    assert not out.exists()
    assert "line 1" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_eval_human_consistency_mode(tmp_path):
    data = _synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run(*_train_args(data, ckpt)) == 0
    report = tmp_path / "hc.txt"
    assert run("eval", "--model", ckpt, "--data", data, "--human-consistency",
               "--out", report) == 0
    assert "human-consistency" in report.read_text()
