"""Command-line pipeline: synth, train, generate, retrieve, eval, trace,
gradcheck.

Every run derives all randomness from one ``--seed`` through labelled
child streams ("corpus" for synthesis, "init" for weights, "shuffle"
inside training, "generate/<example-id>" per generated caption), so each
stage is independently reproducible. Outputs are written atomically after
inputs validate, and a resolved-config echo goes to the log of every run.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import corpus, inference, metrics, model, training
from .numkit import SeededRng


def _write_text(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_config(path, overrides, defaults):
    """Merge defaults <- config file <- explicit flags; reject unknown keys
    and file values whose type is not the default's (an int may stand for
    a float, and for the None of a derived default; a bool for neither)."""
    merged = dict(defaults)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            allowed = {type(defaults[key])}
            if defaults[key] is None or allowed == {float}:
                allowed.add(int)
            if type(value) not in allowed:
                names = " or ".join(sorted(t.__name__ for t in allowed))
                raise ValueError(f"{path}: config key {key!r} must be {names}, "
                                 f"got {json.dumps(value)}")
        merged.update(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _echo_config(cfg, log_lines):
    line = "config " + json.dumps(cfg, sort_keys=True)
    print(line)
    log_lines.append(line)


# The config key of each TrainConfig setting, and the train flags that are
# not "--" plus the key with dashes.
TRAIN_FIELDS = {"learning_rate": "learning_rate", "bptt_unroll": "bptt_unroll",
                "grad_clip": "grad_clip", "lam_recon": "lambda_recon", "max_epochs": "max_epochs",
                "weight_decay": "weight_decay", "recon_kind": "recon_kind"}
TRAIN_FLAGS = {"learning_rate": "--lr", "max_epochs": "--epochs", "bptt_unroll": "--unroll"}
# The ModelDims fields that train sets; the dataset fixes vocab_size and v_dim.
MODEL_KEYS = ("variant", "s_dim", "u_dim", "class_count", "maxent_order", "maxent_hash_size",
              "sigmoid_clip")


def _field_defaults(cls):
    """A dataclass's field defaults by name; None for a field without one
    (``ModelDims.class_count``, which the vocabulary then decides)."""
    return {f.name: None if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(cls)}


def _train_defaults():
    """Every train setting and its library default, in flag order: the
    model keys, then the TrainConfig keys, those with a short flag first."""
    dims, train = _field_defaults(model.ModelDims), _field_defaults(training.TrainConfig)
    config = {key: train[field] for field, key in TRAIN_FIELDS.items()}
    return {**{key: dims[key] for key in MODEL_KEYS},
            **{key: config[key] for key in [*TRAIN_FLAGS, *config]}}


TRAIN_DEFAULTS = _train_defaults()


def train_flag(key):
    """The train flag that sets a config key."""
    return TRAIN_FLAGS.get(key, "--" + key.replace("_", "-"))


def cmd_synth(args):
    rng = SeededRng(args.seed).derive("corpus")
    records = corpus.synthetic_records(
        args.attrs, args.n, rng, captions_per_example=args.captions,
        split_fractions=(args.train_frac, args.valid_frac,
                         1.0 - args.train_frac - args.valid_frac))
    corpus.write_dataset_file(records, args.out)
    print(f"wrote {len(records)} records ({args.attrs} attributes) to {args.out}")
    return 0


def cmd_train(args):
    overrides = {key: getattr(args, key) for key in TRAIN_DEFAULTS}
    cfg = load_config(args.config, overrides, TRAIN_DEFAULTS)
    log_lines = []
    _echo_config(cfg, log_lines)
    for field, key in TRAIN_FIELDS.items():
        try:
            training.TrainConfig(**{field: cfg[key]})
        except ValueError as exc:
            raise ValueError(f"config key {key!r} (flag {train_flag(key)}): {exc}") from None

    dataset = corpus.load_dataset(args.data, class_count=cfg["class_count"])
    vocab = dataset.vocab
    dims = model.ModelDims(**{key: cfg[key] for key in MODEL_KEYS if key != "class_count"},
                           class_count=vocab.n_classes, vocab_size=len(vocab),
                           v_dim=dataset.feature_dim)
    root = SeededRng(args.seed)
    params = model.init_params(dims, root.derive("init"))
    train_cfg = training.TrainConfig(seed=args.seed,
                                     **{field: cfg[key] for field, key in TRAIN_FIELDS.items()})

    def log_fn(line):
        print(line)
        log_lines.append(line)

    best, history = training.train(params, dataset, train_cfg, log_fn=log_fn)
    log_fn(f"stopped: {history.stopped_reason}")
    lineage = {"root": args.seed, "init": root.derive("init").seed,
               "shuffle": SeededRng(args.seed).derive("shuffle").seed}
    model.save_checkpoint(args.out, best, vocab, cfg["lambda_recon"], lineage)
    log_path = args.log or (args.out + ".log")
    _write_text(log_path, "\n".join(log_lines) + "\n")
    print(f"checkpoint written to {args.out}; log at {log_path}")
    return 0


def _load_model_and_data(model_path, data_path):
    params, vocab, meta = model.load_checkpoint(model_path)
    dataset = corpus.load_dataset(data_path, vocab=vocab)
    if dataset.feature_dim != params.dims.v_dim and params.dims.uses_v:
        raise ValueError(
            f"dataset feature dim {dataset.feature_dim} does not match "
            f"checkpoint v_dim {params.dims.v_dim}")
    return params, vocab, meta, dataset


def _generate_for_examples(params, vocab, meta, dataset, examples, seed,
                           candidates):
    # no candidate is empty, so empty training captions give no length
    hist = {n: k for n, k in corpus.caption_length_counts(dataset, "train").items() if n >= 1}
    cfg = inference.GenConfig(length_hist=hist, candidate_count=candidates,
                              lam_recon=meta["lambda_recon"])
    root = SeededRng(seed)
    return [inference.generate(params, vocab, ex.features, cfg,
                               rng=root.derive(f"generate/{ex.id}"))
            for ex in examples]


def cmd_generate(args):
    params, vocab, meta, dataset = _load_model_and_data(args.model, args.data)
    examples = dataset.split(args.split)
    if not examples:
        raise ValueError(f"split '{args.split}' is empty")
    results = _generate_for_examples(params, vocab, meta, dataset, examples,
                                     args.seed, args.candidates)
    lines = []
    for ex, res in zip(examples, results):
        text = " ".join(res.sentence.tokens)
        lines.append(f"{ex.id}\t{text}\t{res.score:.6f}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"generated {len(lines)} captions to {args.out}")
    return 0


RETRIEVAL_TASKS = {"sentence": inference.sentence_retrieval_task,
                   "image": inference.image_retrieval_task}


def cmd_retrieve(args):
    params, vocab, meta, dataset = _load_model_and_data(args.model, args.data)
    queries, gallery, truth = RETRIEVAL_TASKS[args.direction](
        dataset, args.split, concat=args.protocol == "concat")
    result = inference.rank_retrieval(params, vocab, queries, gallery, truth,
                                      mode=args.mode, combine=args.combine)
    lines = [
        f"direction\t{args.direction}",
        f"protocol\t{args.protocol}",
        f"mode\t{args.mode}",
        f"queries\t{len(queries)}",
        f"gallery\t{len(gallery)}",
        f"R@1\t{result.r_at[1]:.2f}",
        f"R@5\t{result.r_at[5]:.2f}",
        f"R@10\t{result.r_at[10]:.2f}",
        f"median_rank\t{result.median_rank:.2f}",
        f"mean_rank\t{result.mean_rank:.4f}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_eval(args):
    params, vocab, meta, dataset = _load_model_and_data(args.model, args.data)
    pairs = dataset.caption_pairs(args.split)
    if not pairs:
        raise ValueError(f"split '{args.split}' is empty")
    reports = []
    if args.human_consistency:
        hc = metrics.human_consistency_pairs(dataset, args.split)
        if not hc:
            raise ValueError("human-consistency mode needs examples with >= 2 captions")
        reports.append(metrics.MetricReport(
            name="human-consistency", perplexity=float("nan"),
            bleu_percent=100.0 * metrics.corpus_bleu(hc)))
    else:
        ppl = metrics.perplexity(params, vocab, dataset, args.split)
        examples = dataset.split(args.split)
        results = _generate_for_examples(params, vocab, meta, dataset, examples,
                                         args.seed, args.candidates)
        gen_pairs = [(res.sentence.tokens, [c.tokens for c in ex.captions])
                     for ex, res in zip(examples, results)]
        bleu_pct = 100.0 * metrics.corpus_bleu(gen_pairs)
        reports.append(metrics.MetricReport(
            name=params.dims.variant, perplexity=ppl, bleu_percent=bleu_pct))
    table = metrics.render_report(reports)
    _write_text(args.out, table)
    _write_text(args.out + ".tsv", metrics.report_tsv(reports))
    print(table, end="")
    return 0


def cmd_trace(args):
    params, vocab, meta, dataset = _load_model_and_data(args.model, args.data)
    example = next((ex for ex in dataset.examples if ex.id == args.example_id), None)
    if example is None:
        raise ValueError(f"no example with id '{args.example_id}'")
    if not 0 <= args.caption_index < len(example.captions):
        raise ValueError("caption index out of range")
    sent = example.captions[args.caption_index]
    trace = inference.activation_trace(params, vocab, example.features, sent)
    _write_text(args.out, trace.to_tsv())
    msg = f"trace of {len(trace.tokens)} steps written to {args.out}"
    if trace.stability_u is not None:
        msg += (f" (mean step change: u {trace.stability_u.mean():.4f},"
                f" s {trace.stability_s.mean():.4f})")
    print(msg)
    return 0


def cmd_gradcheck(args):
    worst = {}
    for variant in model.VARIANTS:
        params, vocab, example = training.gradcheck_setup(variant, seed=args.seed)
        worst[variant] = training.grad_check(params, vocab, example, eps=args.eps)
        print(f"{variant}: max relative error {worst[variant]:.3e}")
    failed = {v: e for v, e in worst.items() if e > args.threshold}
    if failed:
        print(f"FAIL: above threshold {args.threshold:g}: "
              + ", ".join(sorted(failed)))
        return 1
    print(f"OK: all variants within {args.threshold:g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicap",
        description="Bi-directional recurrent captioning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--model", required=True)
    io.add_argument("--data", required=True)
    io.add_argument("--out", required=True)
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--split", choices=corpus.SPLITS, default="test")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--candidates", type=int, default=inference.GenConfig.candidate_count)
    sampling.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="write a synthetic captioned dataset")
    p.add_argument("--attrs", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--captions", type=int, default=2)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--valid-frac", type=float, default=0.15)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    choices = {"variant": model.VARIANTS, "recon_kind": ("ce", "mse")}
    for key, default in TRAIN_DEFAULTS.items():
        p.add_argument(train_flag(key), dest=key, default=None, choices=choices.get(key),
                       type=int if default is None else type(default))
    p.add_argument("--seed", type=int, default=training.TrainConfig.seed)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate captions for a split",
                       parents=[io, split, sampling])
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("retrieve", help="cross-modal retrieval metrics", parents=[io, split])
    p.add_argument("--direction", choices=tuple(RETRIEVAL_TASKS), required=True)
    p.add_argument("--mode", choices=("t", "i", "ti"), default="t")
    p.add_argument("--protocol", choices=("per-sentence", "concat"),
                   default="per-sentence")
    p.add_argument("--combine", choices=("zscore", "rank"), default="zscore")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="perplexity and generation BLEU report",
                       parents=[io, split, sampling])
    p.add_argument("--human-consistency", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="export hidden activations over a caption", parents=[io])
    p.add_argument("--example-id", required=True)
    p.add_argument("--caption-index", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
