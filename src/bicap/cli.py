"""Command-line pipeline: synth, train, generate, retrieve, eval, trace,
gradcheck.

Every run derives all randomness from one ``--seed`` through labelled
child streams ("corpus" for synthesis, "init" for weights, "shuffle"
inside training, "generate/<example-id>" per generated caption), so each
stage is independently reproducible. Outputs are written atomically after
inputs validate, and a resolved-config echo goes to the log of every run.
"""

import argparse
import json
import os
import sys

import numpy as np

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


TRAIN_DEFAULTS = {
    "variant": "full",
    "s_dim": 100,
    "u_dim": 100,
    "class_count": None,
    "maxent_order": 3,
    "maxent_hash_size": 1 << 20,
    "sigmoid_clip": 50.0,
    "learning_rate": 0.1,
    "max_epochs": 20,
    "bptt_unroll": 5,
    "grad_clip": 15.0,
    "lambda_recon": 1.0,
    "weight_decay": 0.0,
    "recon_kind": "ce",
}


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
    overrides = {
        "variant": args.variant, "s_dim": args.s_dim, "u_dim": args.u_dim,
        "class_count": args.class_count, "maxent_order": args.maxent_order,
        "maxent_hash_size": args.maxent_hash_size,
        "sigmoid_clip": args.sigmoid_clip,
        "learning_rate": args.lr, "max_epochs": args.epochs,
        "bptt_unroll": args.unroll, "grad_clip": args.grad_clip,
        "lambda_recon": args.lambda_recon, "weight_decay": args.weight_decay,
        "recon_kind": args.recon_kind,
    }
    cfg = load_config(args.config, overrides, TRAIN_DEFAULTS)
    log_lines = []
    _echo_config(cfg, log_lines)

    dataset = corpus.load_dataset(args.data, class_count=cfg["class_count"])
    vocab = dataset.vocab
    dims = model.ModelDims(
        vocab_size=len(vocab), class_count=vocab.n_classes,
        v_dim=dataset.feature_dim, s_dim=cfg["s_dim"], u_dim=cfg["u_dim"],
        maxent_order=cfg["maxent_order"],
        maxent_hash_size=cfg["maxent_hash_size"],
        sigmoid_clip=cfg["sigmoid_clip"], variant=cfg["variant"])
    root = SeededRng(args.seed)
    params = model.init_params(dims, root.derive("init"))
    train_cfg = training.TrainConfig(
        learning_rate=cfg["learning_rate"], bptt_unroll=cfg["bptt_unroll"],
        grad_clip=cfg["grad_clip"], lam_recon=cfg["lambda_recon"],
        max_epochs=cfg["max_epochs"], weight_decay=cfg["weight_decay"],
        recon_kind=cfg["recon_kind"], seed=args.seed)

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
    hist = corpus.caption_length_counts(dataset, "train")
    cfg = inference.GenConfig(length_hist=hist, candidate_count=candidates,
                              lam_recon=meta["lambda_recon"], seed=0)
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


def cmd_retrieve(args):
    params, vocab, meta, dataset = _load_model_and_data(args.model, args.data)
    concat = args.protocol == "concat"
    if args.direction == "sentence":
        queries, gallery, truth = inference.sentence_retrieval_task(
            dataset, args.split, concat=concat)
    else:
        queries, gallery, truth = inference.image_retrieval_task(
            dataset, args.split, concat=concat)
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
            bleu_percent=100.0 * metrics.corpus_bleu(hc),
            n_sentences=len(hc)))
    else:
        ppl = metrics.perplexity(params, vocab, dataset, args.split)
        examples = dataset.split(args.split)
        results = _generate_for_examples(params, vocab, meta, dataset, examples,
                                         args.seed, args.candidates)
        gen_pairs = [(res.sentence.tokens, [c.tokens for c in ex.captions])
                     for ex, res in zip(examples, results)]
        bleu_pct = 100.0 * metrics.corpus_bleu(gen_pairs)
        reports.append(metrics.MetricReport(
            name=params.dims.variant, perplexity=ppl, bleu_percent=bleu_pct,
            n_sentences=len(gen_pairs),
            n_tokens=sum(len(c.ids) for _, c in pairs)))
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
    p.add_argument("--variant", choices=model.VARIANTS, default=None)
    p.add_argument("--s-dim", type=int, default=None)
    p.add_argument("--u-dim", type=int, default=None)
    p.add_argument("--class-count", type=int, default=None)
    p.add_argument("--maxent-order", type=int, default=None)
    p.add_argument("--maxent-hash-size", type=int, default=None)
    p.add_argument("--sigmoid-clip", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--unroll", type=int, default=None)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--lambda-recon", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--recon-kind", choices=("ce", "mse"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate captions for a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=corpus.SPLITS, default="test")
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("retrieve", help="cross-modal retrieval metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=corpus.SPLITS, default="test")
    p.add_argument("--direction", choices=("sentence", "image"), required=True)
    p.add_argument("--mode", choices=("t", "i", "ti"), default="t")
    p.add_argument("--protocol", choices=("per-sentence", "concat"),
                   default="per-sentence")
    p.add_argument("--combine", choices=("zscore", "rank"), default="zscore")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="perplexity and generation BLEU report")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=corpus.SPLITS, default="test")
    p.add_argument("--candidates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--human-consistency", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="export hidden activations over a caption")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--example-id", required=True)
    p.add_argument("--caption-index", type=int, default=0)
    p.add_argument("--out", required=True)
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
