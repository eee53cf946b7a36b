"""Corpus, model shape and pinned checkpoint shared by the benchmark and the
script that regenerates the checkpoint.

The corpus is the acceptance bundle's: 8 attributes, 500 scenes, corpus
seed 42, splits 0.65/0.15/0.2, so the test split is a 100-image gallery. It
never depends on the benchmark seed, because the pinned checkpoint's
vocabulary must match it.
"""

import hashlib
import json
import os

from bicap import corpus, model
from bicap.numkit import SeededRng

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_CKPT = os.path.join(HERE, "fixture", "full.ckpt")
FIXTURE_META = os.path.join(HERE, "fixture", "full.json")

BUNDLE_SEED = 42
BUNDLE_DIMS = dict(variant="full", s_dim=32, u_dim=32, maxent_order=3,
                   maxent_hash_size=65536)


class FixtureError(RuntimeError):
    """The pinned checkpoint is missing, truncated or altered."""


def bundle_dataset():
    rng = SeededRng(BUNDLE_SEED).derive("corpus")
    return corpus.generate_synthetic(8, 500, rng, captions_per_example=2,
                                     split_fractions=(0.65, 0.15, 0.2))


def bundle_dims(dataset):
    return model.ModelDims(vocab_size=len(dataset.vocab),
                           class_count=dataset.vocab.n_classes,
                           v_dim=dataset.feature_dim, **BUNDLE_DIMS)


def all_caption_pairs(dataset):
    """(example, caption) pairs of every split, in dataset order."""
    return [(ex, cap) for ex in dataset.examples for cap in ex.captions]


def load_fixture(dataset):
    """Verify the pinned checkpoint against its recorded size and sha256,
    then load it. Returns (params, the recorded metadata plus the
    checkpoint's reconstruction weight)."""
    try:
        with open(FIXTURE_META, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(FIXTURE_CKPT, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read the pinned checkpoint: {exc}") from exc
    if len(raw) != meta["nbytes"]:
        raise FixtureError(f"{FIXTURE_CKPT}: {len(raw)} bytes, expected "
                           f"{meta['nbytes']} (truncated or replaced)")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != meta["sha256"]:
        raise FixtureError(f"{FIXTURE_CKPT}: sha256 {digest} does not match "
                           f"the recorded {meta['sha256']} in {FIXTURE_META}")
    params, vocab, ckpt_meta = model.load_checkpoint(FIXTURE_CKPT)
    if vocab.content_hash() != dataset.vocab.content_hash():
        raise FixtureError(f"{FIXTURE_CKPT}: vocabulary does not match the "
                           "benchmark corpus")
    return params, dict(meta, lambda_recon=ckpt_meta["lambda_recon"])
