"""Regenerate the benchmark's pinned model checkpoint.

Trains the full variant exactly like the acceptance suite's trained bundle
(corpus seed 42, splits 0.65/0.15/0.2, s = u = 32, max-ent order 3, hash
size 65536, learning rate 0.1, 18 epochs), writes ``fixture/full.ckpt`` and
records its sha256, size and reference perplexities in
``fixture/full.json``. Run from the repository root:

    python3 perfbench/make_fixture.py

It takes about 80 s on a 2-core host. The `eval` and `retrieve` workloads
read the committed checkpoint, so their inputs stay fixed when a later
change moves the training arithmetic by an ulp; run this only to re-pin it.
"""

import hashlib
import json
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"   # as in run.py
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bicap import metrics, model, training  # noqa: E402
from bicap.numkit import SeededRng  # noqa: E402

from common import (BUNDLE_SEED, FIXTURE_CKPT, FIXTURE_META,  # noqa: E402
                    all_caption_pairs, bundle_dataset, bundle_dims)

LEARNING_RATE = 0.1
EPOCHS = 18


def main():
    t0 = time.perf_counter()
    dataset = bundle_dataset()
    params = model.init_params(bundle_dims(dataset), SeededRng(BUNDLE_SEED).derive("init"))
    cfg = training.TrainConfig(learning_rate=LEARNING_RATE, max_epochs=EPOCHS,
                               seed=BUNDLE_SEED)
    best, history = training.train(params, dataset, cfg, log_fn=print)
    model.save_checkpoint(FIXTURE_CKPT, best, dataset.vocab, cfg.lam_recon,
                          {"root": BUNDLE_SEED})

    # Reference values come from the checkpoint as loaded, which is what the
    # benchmark scores.
    loaded, vocab, _ = model.load_checkpoint(FIXTURE_CKPT)
    ppl = {split: metrics.perplexity_of_pairs(loaded, vocab, dataset.caption_pairs(split))
           for split in ("train", "valid", "test")}
    ppl["all"] = metrics.perplexity_of_pairs(loaded, vocab, all_caption_pairs(dataset))
    with open(FIXTURE_CKPT, "rb") as fh:
        raw = fh.read()
    meta = {
        "checkpoint": os.path.basename(FIXTURE_CKPT),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "nbytes": len(raw),
        "vocab_hash": vocab.content_hash(),
        "train_config": {"learning_rate": LEARNING_RATE, "max_epochs": EPOCHS,
                         "seed": BUNDLE_SEED},
        "final_valid_ppl": history.epochs[-1].valid_ppl,
        "best_valid_ppl": min(e.valid_ppl for e in history.epochs),
        "reference_ppl": ppl,
    }
    with open(FIXTURE_META, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(meta, indent=2, sort_keys=True))
    print(f"fixture written in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
