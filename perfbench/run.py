"""Benchmark of the bicap program: training, evaluation and retrieval.

Run from the repository root:

    python3 perfbench/run.py --workload {train,eval,retrieve} --seed N \\
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout and runs in one
process and one thread (BLAS pinned to 1 thread). The seed drives weight
init and shuffling (train), the image subset and sampling streams (eval)
and the query order (retrieve); the corpus and the pinned checkpoint in
``fixture/`` stay fixed.

``--trace 0`` sets up several times, then repeats units of short timed
calls for S seconds. The host is shared with other machines whose load
comes in phases from milliseconds to minutes and slows every call by up to
2x, often for a whole run. So each timed call is bracketed by a host-speed
probe, a fixed 32-wide numpy recurrence, and its duration is scaled to a
host on which the probe takes ``REF_PROBE_S`` (a quiet 2-core Xeon host
takes about 0.95 ms). Throughputs are medians of the scaled per-call rates;
``setup_s`` is the scaled import time of the program (numpy excluded) plus
the median scaled set-up time (corpus synthesis, checkpoint check and load,
weight init). In six 20 s windows of retrieval calls on such a host, the
median raw rate moved by 35%, the fastest raw call by 8% and the scaled
median by 3%. The run record keeps the raw figures too.

``--trace 1`` runs the workload's plan (``plan_units`` units) once untraced
and once with every function in ``TRACED`` wrapped, and reports the per-layer
metrics: calls and self time per function, calls per token, and the
tracing overhead (traced minus untraced wall time). Spans are written to
``out/`` when the run ends.

Both modes check the program's outputs, print a run record (git sha, CPU
count, seed, workload, Python, numpy and BLAS versions, BLAS threads, and a
calibration loop timed before and after the workload), and print one JSON
result as the last line of standard output. A missing program or an
altered checkpoint ends the run with exit code 2 and no result.
"""

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
CALIBRATION_STEPS = 20000
PROBE_STEPS = 300
REF_PROBE_S = 1e-3

# Wrapped in traced runs, by layer. Each function is patched in every
# module that binds it by name.
LAYERS = {
    "training": ["training.train_sentence", "training._recurrent_chain",
                 "training._output_errors", "training.apply_update",
                 "training.clip_gradients"],
    "model scoring forward": ["model._advance", "model.class_logits",
                              "model.maxent_bases", "model.sentence_forward",
                              "model.recon_cross_entropy"],
    "model full distribution": ["model.step", "model.word_distribution",
                                "model.member_logits"],
    "inference": ["inference.rank_retrieval", "inference.generate",
                  "inference.sample_sentence", "inference.score_candidate",
                  "inference.score_matrices", "inference.recon_trajectory",
                  "inference.ranks_from_scores"],
    "numkit": ["numkit.softmax", "numkit.sigmoid_clipped", "numkit.multinomial_sample"],
    "metrics": ["metrics.perplexity_of_pairs", "metrics.corpus_bleu"],
    "corpus + checkpoint": ["corpus.generate_synthetic", "model.load_checkpoint"],
}
TRACED = [label for labels in LAYERS.values() for label in labels]
# A call to one of these outside any request opens a request: a trained or
# scored sentence, a generated image, a ranked query.
REQUEST_FUNCTIONS = ["training.train_sentence", "model.sentence_forward",
                     "inference.generate", "inference.rank_retrieval"]
# Self time is a per-layer metric only for functions that run on every
# workload; elsewhere it would read 0 on every run. The printed table and
# the span file hold the self time of every traced function.
SELF_TIME_METRICS = ["model._advance", "model.class_logits", "model.maxent_bases",
                     "model.member_logits", "model.sentence_forward",
                     "model.recon_cross_entropy", "numkit.softmax",
                     "numkit.sigmoid_clipped", "corpus.generate_synthetic"]
PER_TOKEN = {"model.advance.per_token": "model._advance",
             "model.member_logits.per_token": "model.member_logits",
             "training.recurrent_chain.per_token": "training._recurrent_chain",
             "numkit.softmax.per_token": "numkit.softmax",
             "numkit.sigmoid_clipped.per_token": "numkit.sigmoid_clipped"}
# The reconstruction loss is used only where lambda != 0: in training and
# in candidate rescoring. Perplexity and retrieval compute and drop it.
RECON_CONSUMERS = ["training.train_sentence", "inference.score_candidate"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "retrieve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def recurrence_seconds(np, steps):
    """Wall time of a fixed 32-wide sigmoid recurrence: the same kind of
    small numpy calls the program makes, so it slows down with the host."""
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.5, 0.5, (32, 32))
    s = np.full(32, 0.5)
    t0 = time.perf_counter()
    for _ in range(steps):
        s = 1.0 / (1.0 + np.exp(-(w @ s)))
    return time.perf_counter() - t0


class Clock:
    """Times a call. With ``scaled``, probes host speed just before and
    after it and returns the duration the call would have had on the
    reference host, keeping each raw duration and probe for the record."""

    def __init__(self, np, scaled):
        self.np = np
        self.scaled = scaled
        self.raw = []           # (seconds, probe seconds)

    def probe(self):
        return recurrence_seconds(self.np, PROBE_STEPS)

    def __call__(self, fn, *args, **kwargs):
        before = self.probe() if self.scaled else None
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        if not self.scaled:
            return out, dt
        probe = (before + self.probe()) / 2
        self.raw.append((dt, probe))
        return out, dt * REF_PROBE_S / probe


def blas_info(np):
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    import ctypes
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bicap", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def run_untraced(cls, args, np, record):
    clock = Clock(np, scaled=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = cls(args.seed)
        _, dt = clock(workload.setup)
        setups.append(dt)
    record["setup_runs_s"] = setups
    record["calibration_s"] = {"before": recurrence_seconds(np, CALIBRATION_STEPS)}
    samples = {}
    units = 0
    t0 = time.perf_counter()
    while units < cls.plan_units or time.perf_counter() - t0 < args.seconds:
        for key, values in workload.run_unit(units, clock).items():
            samples.setdefault(key, []).extend(values)
        units += 1
    record["measured_s"] = time.perf_counter() - t0
    record["calibration_s"]["after"] = recurrence_seconds(np, CALIBRATION_STEPS)
    record["units"] = units
    record["samples"] = {k: summary([a / s for a, s in v]) for k, v in samples.items()}
    record["raw_calls"] = {"seconds": summary([dt for dt, _ in clock.raw]),
                           "probe_s": summary([p for _, p in clock.raw])}
    metrics = {
        "tokens_per_s": {"value": record["samples"]["tokens_per_s"]["median"],
                         "unit": "tokens/s"},
        "ops_per_s": {"value": record["samples"]["ops_per_s"]["median"], "unit": "ops/s"},
        "setup_s": {"value": record["import_s"] + statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return [("", workload)], metrics


def run_traced(cls, args, np, record, log):
    from tracer import Tracer

    clock = Clock(np, scaled=False)
    plain = cls(args.seed)
    plain.setup()
    record["calibration_s"] = {"before": recurrence_seconds(np, CALIBRATION_STEPS)}
    t0 = time.perf_counter()
    for i in range(cls.plan_units):
        plain.run_unit(i, clock)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer(TRACED, REQUEST_FUNCTIONS)
    tracer.install()
    try:
        traced = cls(args.seed)
        t0 = time.perf_counter()
        traced.setup()
        traced_setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(cls.plan_units):
            traced.run_unit(i, clock)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    record["calibration_s"]["after"] = recurrence_seconds(np, CALIBRATION_STEPS)
    record["units"] = cls.plan_units

    base_name, base_tokens, scope = traced.ratio_base()
    calls = tracer.counts()
    scoped = calls if scope is None else {
        label: tracer.calls_under(label, [scope]) for label in PER_TOKEN.values()}
    recon_calls = calls["model.recon_cross_entropy"]
    metrics = {f"{label}.calls": {"value": n, "unit": "count"} for label, n in calls.items()}
    for label in SELF_TIME_METRICS:
        metrics[f"{label}.self_s"] = {"value": tracer.self_s[TRACED.index(label)], "unit": "s"}
    for name, label in PER_TOKEN.items():
        metrics[name] = {"value": scoped[label] / base_tokens, "unit": "calls/token"}
    metrics["model.recon_cross_entropy.useful_share"] = {
        "value": (tracer.calls_under("model.recon_cross_entropy", RECON_CONSUMERS) / recon_calls
                  if recon_calls else 0.0),
        "unit": "ratio"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.fn), "unit": "count"}
    metrics["trace.requests"] = {"value": int(max(tracer.request, default=0)), "unit": "count"}

    total = traced_setup + traced_wall
    log(f"per-layer split of the traced plan ({cls.plan_units} units; "
        f"{traced_setup:.3f} s traced set-up + {traced_wall:.3f} s traced units):")
    log(f"  {'layer':<24} {'function':<32} {'calls':>9} {'self s':>9} {'share':>7}")
    for layer, labels in LAYERS.items():
        for label in labels:
            idx = TRACED.index(label)
            log(f"  {layer:<24} {label:<32} {tracer.calls[idx]:>9} "
                f"{tracer.self_s[idx]:>9.4f} {100 * tracer.self_s[idx] / total:>6.1f}%")
    log(f"calls per token, base = {base_tokens} {base_name}"
        + ("" if scope is None else f", counting calls under {scope} only") + ":")
    for name in PER_TOKEN:
        log(f"  {name:<36} {metrics[name]['value']:.4f}")
    log(f"  model.recon_cross_entropy: {recon_calls} calls, useful share "
        f"{metrics['model.recon_cross_entropy.useful_share']['value']:.4f} "
        "(useful only under training or candidate rescoring)")
    log(f"tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s "
        f"= {traced_wall - untraced_wall:+.3f} s ({100 * (traced_wall / untraced_wall - 1):+.1f}%)")
    log("wait time: none; the program runs in one thread and waits on no other "
        "thread or process")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz")
    tracer.save(spans_path)
    log(f"{len(tracer.fn)} spans written to {os.path.relpath(spans_path, ROOT)}")
    return [("untraced pass: ", plain), ("traced pass: ", traced)], metrics


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        clock = Clock(np, scaled=True)
        bicap, import_s = clock(importlib.import_module, "bicap")
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(bicap.__file__)) != os.path.join(SRC, "bicap"):
        print(f"error: bicap was imported from {bicap.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from common import FixtureError
    from workloads import WORKLOADS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(np), "import_s": import_s,
    }

    def log(line):
        print(line, flush=True)

    cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            passes, metrics = run_traced(cls, args, np, record, log)
        else:
            passes, metrics = run_untraced(cls, args, np, record)
    except FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = failed = 0
    for prefix, workload in passes:
        a, f = workload.check(lambda line: log(prefix + line))
        attempted += a
        failed += f
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    log("run " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "samples")},
                            sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
