import argparse
import dataclasses
import json
import os
import shlex
from pathlib import Path

import pytest

from bicap import cli, corpus, model, training
from bicap.cli import load_config, main
from bicap.numkit import SeededRng


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


def test_generate_skips_empty_training_captions(tmp_path):
    # an empty caption has length 0, which no candidate can have, so it must
    # not reach the length histogram, which GenConfig checks
    data = _synth(tmp_path)
    records = [json.loads(line) for line in data.read_text().splitlines()]
    next(r for r in records if r["split"] == "train")["captions"].append("")
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    ckpt = tmp_path / "model.ckpt"
    assert run(*_train_args(data, ckpt, epochs=1)) == 0
    gen = tmp_path / "gen.tsv"
    assert run("generate", "--model", ckpt, "--data", data, "--candidates", 2,
               "--out", gen) == 0
    assert len(gen.read_text().strip().split("\n")) == len(corpus.load_dataset(data).split("test"))


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


@pytest.mark.parametrize("config, flags, key, flag", [
    ({}, ["--lambda-recon", -1], "lambda_recon", "--lambda-recon"),
    ({"lambda_recon": -1}, [], "lambda_recon", "--lambda-recon"),
    ({}, ["--lr", "nan"], "learning_rate", "--lr"),
    ({}, ["--unroll", 0], "bptt_unroll", "--unroll"),
    ({}, ["--epochs", 0], "max_epochs", "--epochs"),
])
def test_bad_training_setting_error_names_key_and_flag(tmp_path, capsys, config, flags, key,
                                                        flag):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "m.ckpt"
    assert run("train", "--data", data, "--out", out, "--config", cfg_path, *flags) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config key '{key}'" in err and f"flag {flag})" in err


def test_empty_config_uses_documented_defaults(tmp_path):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text("{}")
    resolved = load_config(cfg_path, {}, cli.TRAIN_DEFAULTS)
    assert resolved == cli.TRAIN_DEFAULTS


def test_train_settings_table_is_the_library_defaults_and_the_flags():
    dims = model.ModelDims(vocab_size=9, class_count=2, v_dim=1)
    field_of = {key: field for field, key in cli.TRAIN_FIELDS.items()}
    model_keys = {f.name for f in dataclasses.fields(model.ModelDims)} - {"vocab_size", "v_dim"}
    assert set(cli.TRAIN_DEFAULTS) == model_keys | set(field_of)
    for key, default in cli.TRAIN_DEFAULTS.items():
        if key == "class_count":
            want = None                 # the vocabulary decides it
        elif key in field_of:
            want = getattr(training.TrainConfig(), field_of[key])
        else:
            want = getattr(dims, key)
        assert default == want and type(default) is type(want), key

    parser = cli.build_parser()
    required = ["train", "--data", "d.jsonl", "--out", "m.ckpt"]
    unset = parser.parse_args(required)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices["train"]._actions
    for key, default in cli.TRAIN_DEFAULTS.items():
        flags = [a for a in actions if a.dest == key]
        assert len(flags) == 1, key
        assert getattr(unset, key) is None, key      # a config file may still set it
        if flags[0].choices:
            value = next(c for c in flags[0].choices if c != default)
        else:
            value = 4 if default is None else default + type(default)(1)
        args = parser.parse_args(required + [flags[0].option_strings[0], str(value)])
        assert getattr(args, key) == value and type(getattr(args, key)) is type(value), key


SPLITS = ("train", "valid", "test")
# Each subcommand's flags: option -> (dest, default, required, choices, type, action).
SUBCOMMAND_FLAGS = {
    "synth": {
        "--attrs": ("attrs", None, True, None, int, "_StoreAction"),
        "--n": ("n", None, True, None, int, "_StoreAction"),
        "--seed": ("seed", 0, False, None, int, "_StoreAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
        "--captions": ("captions", 2, False, None, int, "_StoreAction"),
        "--train-frac": ("train_frac", 0.7, False, None, float, "_StoreAction"),
        "--valid-frac": ("valid_frac", 0.15, False, None, float, "_StoreAction"),
    },
    "train": {
        "--data": ("data", None, True, None, None, "_StoreAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
        "--config": ("config", None, False, None, None, "_StoreAction"),
        "--variant": ("variant", None, False, ("rnn", "rnn_if", "full"), str, "_StoreAction"),
        "--s-dim": ("s_dim", None, False, None, int, "_StoreAction"),
        "--u-dim": ("u_dim", None, False, None, int, "_StoreAction"),
        "--class-count": ("class_count", None, False, None, int, "_StoreAction"),
        "--maxent-order": ("maxent_order", None, False, None, int, "_StoreAction"),
        "--maxent-hash-size": ("maxent_hash_size", None, False, None, int, "_StoreAction"),
        "--sigmoid-clip": ("sigmoid_clip", None, False, None, float, "_StoreAction"),
        "--lr": ("learning_rate", None, False, None, float, "_StoreAction"),
        "--epochs": ("max_epochs", None, False, None, int, "_StoreAction"),
        "--unroll": ("bptt_unroll", None, False, None, int, "_StoreAction"),
        "--grad-clip": ("grad_clip", None, False, None, float, "_StoreAction"),
        "--lambda-recon": ("lambda_recon", None, False, None, float, "_StoreAction"),
        "--weight-decay": ("weight_decay", None, False, None, float, "_StoreAction"),
        "--recon-kind": ("recon_kind", None, False, ("ce", "mse"), str, "_StoreAction"),
        "--seed": ("seed", 0, False, None, int, "_StoreAction"),
        "--log": ("log", None, False, None, None, "_StoreAction"),
    },
    "generate": {
        "--model": ("model", None, True, None, None, "_StoreAction"),
        "--data": ("data", None, True, None, None, "_StoreAction"),
        "--split": ("split", "test", False, SPLITS, None, "_StoreAction"),
        "--candidates": ("candidates", 100, False, None, int, "_StoreAction"),
        "--seed": ("seed", 0, False, None, int, "_StoreAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
    },
    "retrieve": {
        "--model": ("model", None, True, None, None, "_StoreAction"),
        "--data": ("data", None, True, None, None, "_StoreAction"),
        "--split": ("split", "test", False, SPLITS, None, "_StoreAction"),
        "--direction": ("direction", None, True, ("sentence", "image"), None, "_StoreAction"),
        "--mode": ("mode", "t", False, ("t", "i", "ti"), None, "_StoreAction"),
        "--protocol": ("protocol", "per-sentence", False, ("per-sentence", "concat"), None,
                       "_StoreAction"),
        "--combine": ("combine", "zscore", False, ("zscore", "rank"), None, "_StoreAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
    },
    "eval": {
        "--model": ("model", None, True, None, None, "_StoreAction"),
        "--data": ("data", None, True, None, None, "_StoreAction"),
        "--split": ("split", "test", False, SPLITS, None, "_StoreAction"),
        "--candidates": ("candidates", 100, False, None, int, "_StoreAction"),
        "--seed": ("seed", 0, False, None, int, "_StoreAction"),
        "--human-consistency": ("human_consistency", False, False, None, None,
                                "_StoreTrueAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
    },
    "trace": {
        "--model": ("model", None, True, None, None, "_StoreAction"),
        "--data": ("data", None, True, None, None, "_StoreAction"),
        "--example-id": ("example_id", None, True, None, None, "_StoreAction"),
        "--caption-index": ("caption_index", 0, False, None, int, "_StoreAction"),
        "--out": ("out", None, True, None, None, "_StoreAction"),
    },
    "gradcheck": {
        "--seed": ("seed", 1, False, None, int, "_StoreAction"),
        "--eps": ("eps", 1e-5, False, None, float, "_StoreAction"),
        "--threshold": ("threshold", 1e-4, False, None, float, "_StoreAction"),
    },
}


def test_every_subcommand_keeps_each_flag():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_FLAGS)
    for command, parser in sub.choices.items():
        flags = {}
        for a in parser._actions:
            if not isinstance(a, argparse._HelpAction):
                assert len(a.option_strings) == 1, (command, a.option_strings)
                choices = None if a.choices is None else tuple(a.choices)
                flags[a.option_strings[0]] = (a.dest, a.default, a.required, choices, a.type,
                                              type(a).__name__)
        assert flags == SUBCOMMAND_FLAGS[command], command


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("bicap ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]
        commands.add(argv[0])
    assert commands == {"synth", "train", "eval", "generate", "retrieve", "trace", "gradcheck"}


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


def test_eval_rejects_a_checkpoint_with_non_finite_weights(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run(*_train_args(data, ckpt, epochs=1)) == 0
    params, vocab, meta = model.load_checkpoint(ckpt)
    params.W_ss[0, 0] = float("nan")
    model.save_checkpoint(ckpt, params, vocab, meta["lambda_recon"], meta["seed_lineage"])
    capsys.readouterr()
    report = tmp_path / "report.txt"
    assert run("eval", "--model", ckpt, "--data", data, "--candidates", 2,
               "--out", report) == 2
    assert f"{ckpt}: bad checkpoint (ValueError: block W_ss holds NaN or inf)" in \
        capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags, field", [
    (["--train-frac", 0.9, "--valid-frac", 0.3], "split_fractions"),
    (["--train-frac", -0.1, "--valid-frac", 0.5], "split_fractions"),
    (["--captions", 0], "captions_per_example"),
])
def test_synth_rejects_bad_settings_before_writing(tmp_path, capsys, flags, field):
    out = tmp_path / "data.jsonl"
    assert run("synth", "--attrs", 6, "--n", 20, "--out", out, *flags) == 2
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def _untrained_checkpoint(tmp_path, data):
    """An untrained full-variant checkpoint for the dataset at ``data``."""
    ds = corpus.load_dataset(data)
    dims = model.ModelDims(vocab_size=len(ds.vocab), class_count=ds.vocab.n_classes,
                           v_dim=ds.feature_dim, s_dim=8, u_dim=8, maxent_hash_size=64)
    ckpt = tmp_path / "model.ckpt"
    model.save_checkpoint(ckpt, model.init_params(dims, SeededRng(3)), ds.vocab, 1.0)
    return ckpt


def _rewrite_records(path, edit):
    """Apply ``edit`` to every raw record of a dataset file, in place; its
    manifest stays."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(edit(r)) + "\n" for r in records))


def test_config_file_that_is_not_an_object_is_rejected(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text("[1, 2]")
    out = tmp_path / "m.ckpt"
    assert run("train", "--data", data, "--out", out, "--config", cfg_path) == 2
    assert "config file must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "retrieve", "eval", "trace"])
def test_dataset_of_another_feature_dim_is_rejected(tmp_path, capsys, command):
    ckpt = _untrained_checkpoint(tmp_path, _synth(tmp_path, attrs=6))
    other = _synth(tmp_path, attrs=7, name="other.jsonl")
    out = tmp_path / "out.txt"
    extra = {"retrieve": ["--direction", "image"], "trace": ["--example-id", "scene00000"]}
    capsys.readouterr()
    assert run(command, "--model", ckpt, "--data", other, "--out", out,
               *extra.get(command, [])) == 2
    assert ("dataset feature dim 7 does not match checkpoint v_dim 6"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_generate_and_eval_reject_an_empty_split(tmp_path, capsys, command):
    data = _synth(tmp_path)
    ckpt = _untrained_checkpoint(tmp_path, data)
    _rewrite_records(data, lambda r: dict(r, split="train" if r["split"] == "test"
                                          else r["split"]))
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert run(command, "--model", ckpt, "--data", data, "--out", out) == 2
    assert "split 'test' is empty" in capsys.readouterr().err
    assert not out.exists()


def test_human_consistency_needs_an_example_with_two_captions(tmp_path, capsys):
    data = _synth(tmp_path)
    ckpt = _untrained_checkpoint(tmp_path, data)
    _rewrite_records(data, lambda r: dict(r, captions=r["captions"][:1]))
    out = tmp_path / "hc.txt"
    capsys.readouterr()
    assert run("eval", "--model", ckpt, "--data", data, "--human-consistency",
               "--out", out) == 2
    assert ("human-consistency mode needs examples with >= 2 captions"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--example-id", "no-such-scene"], "no example with id 'no-such-scene'"),
    (["--example-id", "scene00000", "--caption-index", 2], "caption index out of range"),
    (["--example-id", "scene00000", "--caption-index", -1], "caption index out of range"),
])
def test_trace_rejects_an_unknown_example_or_caption(tmp_path, capsys, flags, message):
    data = _synth(tmp_path)
    ckpt = _untrained_checkpoint(tmp_path, data)
    out = tmp_path / "trace.tsv"
    capsys.readouterr()
    assert run("trace", "--model", ckpt, "--data", data, "--out", out, *flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
