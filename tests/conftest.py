import numpy as np
import pytest

from bicap import corpus, model, training
from bicap.numkit import SeededRng


@pytest.fixture
def tiny_dataset():
    """Fast in-memory synthetic dataset for unit tests."""
    rng = SeededRng(7)
    return corpus.generate_synthetic(6, 30, rng)


def small_dims(vocab, variant="full", v_dim=6, s_dim=10, u_dim=8,
               maxent_order=3, maxent_hash_size=101):
    return model.ModelDims(vocab_size=len(vocab), class_count=vocab.n_classes,
                           v_dim=v_dim, s_dim=s_dim, u_dim=u_dim,
                           maxent_order=maxent_order,
                           maxent_hash_size=maxent_hash_size, variant=variant)


# Each variant at gradcheck_setup's width 6 (id: the variant) and at the
# bundle width s = u = 32 (id: variant-32).
VARIANT_WIDTHS = [pytest.param(variant, width, id=variant if width == 6 else f"{variant}-{width}")
                  for width in (6, 32) for variant in model.VARIANTS]


def class_of(vocab, token_id):
    """Class of a token id in a ``ClassedVocabulary``."""
    return int(np.searchsorted(vocab.class_bounds, token_id, side="right"))


def class_range(vocab, class_id):
    """Half-open id range [start, end) of a class of a ``ClassedVocabulary``."""
    start = 0 if class_id == 0 else int(vocab.class_bounds[class_id - 1])
    return start, int(vocab.class_bounds[class_id])


def with_one_member_class(vocab):
    """``vocab`` with its first id (<eos> in ``gradcheck_setup``'s
    vocabulary) alone in a class; the class count stays the same."""
    bounds = [int(b) for b in vocab.class_bounds]
    assert bounds[0] >= 2
    return corpus.ClassedVocabulary(vocab.tokens, vocab.counts, [1] + bounds[1:])


def step_recon(params, vocab, item, v):
    """The word-driven reconstruction of a sentence or a group of sentences
    from the scalar ``model.step`` chain: each sentence starts from
    ``reset_state`` and is fed its final <eos> first, then its ids but the
    last; row t is step t's ``StepOutput.recon``."""
    rows = []
    for sent in item if isinstance(item, (list, tuple)) else [item]:
        state = model.reset_state(params)
        for prev in [sent.ids[-1]] + list(sent.ids[:-1]):
            state, out = model.step(params, state, prev, v, vocab)
            rows.append(out.recon)
    return np.array(rows)


def recon_score(params, vocab, item, v):
    """Scalar I score of one (item, features) pair: the negated average
    per-step cross-entropy between the word-driven reconstruction
    trajectory of ``step_recon`` and ``v`` (higher is better)."""
    v = np.asarray(v, dtype=np.float64)
    traj = step_recon(params, vocab, item, v)
    return float(v @ np.log(traj).mean(axis=0) + (1.0 - v) @ np.log(1.0 - traj).mean(axis=0))


@pytest.fixture
def small_full(tiny_dataset):
    dims = small_dims(tiny_dataset.vocab)
    params = model.init_params(dims, SeededRng(3))
    return params, tiny_dataset


# ---------------------------------------------------------------------------
# Trained bundle shared by the acceptance suite and slow inference tests.
# attrs=8, n=500, split 65/15/20 so the test split is a 100-item gallery.

BUNDLE_SEED = 42
BUNDLE_TRAIN = dict(s_dim=32, u_dim=32, maxent_order=3, maxent_hash_size=65536)
BUNDLE_EPOCHS = 18


def _bundle_dataset():
    rng = SeededRng(BUNDLE_SEED).derive("corpus")
    return corpus.generate_synthetic(8, 500, rng, captions_per_example=2,
                                     split_fractions=(0.65, 0.15, 0.2))


def _train_variant(dataset, variant):
    dims = model.ModelDims(vocab_size=len(dataset.vocab),
                           class_count=dataset.vocab.n_classes,
                           v_dim=dataset.feature_dim, variant=variant,
                           **BUNDLE_TRAIN)
    params = model.init_params(dims, SeededRng(BUNDLE_SEED).derive("init"))
    cfg = training.TrainConfig(learning_rate=0.1, max_epochs=BUNDLE_EPOCHS,
                               seed=BUNDLE_SEED)
    best, history = training.train(params, dataset, cfg)
    return best, history


@pytest.fixture(scope="session")
def trained_bundle():
    """Dataset plus one trained model per variant (takes a few minutes)."""
    import time

    dataset = _bundle_dataset()
    models = {}
    histories = {}
    t0 = time.monotonic()
    for variant in ("rnn", "rnn_if", "full"):
        models[variant], histories[variant] = _train_variant(dataset, variant)
    train_seconds = time.monotonic() - t0
    return {"dataset": dataset, "models": models, "histories": histories,
            "train_seconds": train_seconds}
