import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicap import corpus, model, training
from bicap.corpus import encode
from bicap.model import (_advance, class_logits, init_params, maxent_bases, member_logits,
                         reset_state, sentence_loss, sentence_states, shift_context)
from bicap.numkit import SeededRng, sigmoid_clip_mask, softmax
from bicap.training import (TrainConfig, _dsig, apply_update, clip_gradients, grad_check,
                            gradcheck_setup, sentence_gradients, train, train_sentence)

from conftest import VARIANT_WIDTHS, small_dims


@pytest.mark.parametrize("variant", ["rnn", "rnn_if", "full"])
def test_grad_check_all_variants(variant):
    params, vocab, example = gradcheck_setup(variant, seed=1)
    err = grad_check(params, vocab, example)
    assert err <= 1e-4, f"{variant}: {err}"


def test_grad_check_deterministic():
    params, vocab, example = gradcheck_setup("full", seed=2)
    e1 = grad_check(params, vocab, example)
    params2, vocab2, example2 = gradcheck_setup("full", seed=2)
    e2 = grad_check(params2, vocab2, example2)
    assert e1 == e2


def test_grad_check_mse_reconstruction():
    params, vocab, example = gradcheck_setup("full", seed=3)
    err = grad_check(params, vocab, example, recon_kind="mse")
    assert err <= 1e-4


def test_masked_vs_rows_get_zero_gradient():
    params, vocab, example = gradcheck_setup("full", seed=1)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                  unroll=len(sent.ids))
    half = params.dims.vs_connected_rows
    assert np.all(grads.W_vs[half:, :] == 0.0)
    assert np.any(grads.W_vs[:half, :] != 0.0)


def test_lambda_zero_zeroes_reconstruction_head_gradients():
    params, vocab, example = gradcheck_setup("full", seed=4)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 0.0,
                                  unroll=len(sent.ids))
    assert np.all(grads.W_uv == 0.0)
    assert np.all(grads.b_v == 0.0)
    # word-side gradients still flow through u
    assert np.any(grads.W_uu != 0.0)


def test_truncation_consistency_full_unroll():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    n = len(sent.ids)
    g_exact, loss_a = sentence_gradients(params, vocab, example.features, sent,
                                         1.0, unroll=n)
    g_long, loss_b = sentence_gradients(params, vocab, example.features, sent,
                                        1.0, unroll=10 * n)
    assert loss_a == loss_b
    for name, arr in g_exact.named_blocks():
        assert np.array_equal(arr, getattr(g_long, name)), name


def _allclose(a, b, **kw):
    """Every block of the containers ``a`` and ``b`` is ``np.allclose``."""
    return all(np.allclose(arr, getattr(b, name), **kw) for name, arr in a.named_blocks())


def test_truncation_changes_gradients():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    g_exact, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                    unroll=len(sent.ids))
    g_trunc, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                    unroll=1)
    assert not _allclose(g_exact, g_trunc)


def test_bptt_clips_elementwise():
    params, vocab, example = gradcheck_setup("full", seed=6)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 1.0, unroll=5)
    assert any(np.abs(arr).max() > 1e-4 for _, arr in grads.named_blocks())
    clip_gradients(grads, 1e-4)
    for _, arr in grads.named_blocks():
        assert np.all(arr <= 1e-4) and np.all(arr >= -1e-4)


@pytest.mark.parametrize("limit", [1e-4, 0.5, 15.0])
def test_clip_gradients_matches_np_clip_on_edge_values(limit):
    params, _, _ = gradcheck_setup("full", seed=6)
    edges = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, limit, -limit, 2 * limit,
                      -0.5 * limit, np.nextafter(limit, np.inf), 5e-324])
    grads = params.zeros_like()
    for _, arr in grads.named_blocks():
        arr[...] = np.resize(edges, arr.size).reshape(arr.shape)   # ravel() of a view of A copies
    want = {name: np.clip(arr, -limit, limit) for name, arr in grads.named_blocks()}
    assert clip_gradients(grads, limit) is grads
    for name, arr in grads.named_blocks():
        assert arr.tobytes() == want[name].tobytes(), name
    raw = params.copy()
    assert clip_gradients(raw, np.inf) is raw
    assert all(arr.tobytes() == getattr(params, name).tobytes()
               for name, arr in raw.named_blocks())


@pytest.mark.parametrize("recon_kind", ["ce", "mse"])
@pytest.mark.parametrize("variant", ["rnn", "rnn_if", "full"])
def test_training_runs_the_scoring_forward(variant, recon_kind):
    # at lr 0 every weight stays put, so the training loop must reproduce
    # the scoring forward's joint loss exactly, step for step
    params, vocab, example = gradcheck_setup(variant, seed=10)
    sent = example.captions[0]
    assert len(sent.ids) > 2
    cfg = TrainConfig(lam_recon=0.5, recon_kind=recon_kind)
    start = params.copy()
    expected = sentence_loss(params, example.features, sent, cfg.lam_recon,
                             vocab, recon_kind)[0].joint
    joint, ntok = train_sentence(params, vocab, example.features, sent, cfg, lr=0.0)
    assert joint == expected
    assert ntok == len(sent.ids)
    for name, arr in params.named_blocks():
        assert arr.tobytes() == getattr(start, name).tobytes(), name


def test_batch_blocks_update_once_per_sentence():
    # a single-step sentence makes the schedule equivalent to one plain
    # bptt step applied to every block
    params, vocab, example = gradcheck_setup("full", seed=8)
    sent = encode([], vocab)  # just <eos>
    assert len(sent.ids) == 1
    cfg = TrainConfig(learning_rate=0.05)
    expected = params.copy()
    grads, _ = sentence_gradients(expected, vocab, example.features, sent,
                                  cfg.lam_recon, unroll=1)
    apply_update(expected, clip_gradients(grads, cfg.grad_clip), cfg.learning_rate)
    train_sentence(params, vocab, example.features, sent, cfg, cfg.learning_rate)
    for name, arr in params.named_blocks():
        assert np.allclose(arr, getattr(expected, name), atol=1e-12), name


def test_apply_update_respects_block_groups():
    params, vocab, example = gradcheck_setup("full", seed=9)
    grads = params.zeros_like()
    for _, arr in grads.named_blocks():
        arr += 1.0
    # mask survives updates
    apply_update(params, grads, lr=0.1)
    assert np.all(params.W_vs[params.dims.vs_connected_rows:, :] == 0.0)


def _small_training_setup(variant="full", n=50, seed=7):
    dataset = corpus.generate_synthetic(6, n, SeededRng(seed))
    dims = small_dims(dataset.vocab, variant=variant, v_dim=6, s_dim=16, u_dim=16,
                      maxent_hash_size=1024)
    params = init_params(dims, SeededRng(seed + 1))
    return dataset, params


def test_train_smoke_loss_improves():
    dataset, params = _small_training_setup()
    cfg = TrainConfig(learning_rate=0.1, max_epochs=12, seed=3)
    best, history = train(params, dataset, cfg)
    assert len(history.epochs) <= 12
    first, last = history.epochs[0], history.epochs[-1]
    assert last.train_loss < first.train_loss
    ppl_first = history.epochs[0].valid_ppl
    assert min(e.valid_ppl for e in history.epochs) < ppl_first


def test_train_requires_nonempty_splits():
    dataset, params = _small_training_setup()
    for ex in dataset.examples:
        if ex.split == "valid":
            ex.split = "test"
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError):
        train(params, dataset, cfg)


def test_lr_halves_on_injected_non_decreasing_validation():
    dataset, params = _small_training_setup(n=12)
    cfg = TrainConfig(learning_rate=0.8, max_epochs=6, seed=1)
    fake = lambda epoch, p: 100.0  # never decreases
    _, history = train(params, dataset, cfg, valid_metric=fake)
    lrs = [e.lr for e in history.epochs]
    # first failure observed after epoch 2; each later epoch halves again
    assert lrs == [0.8, 0.8, 0.4, 0.2, 0.1, 0.05]


def test_lr_floor_and_two_strike_stop(monkeypatch):
    monkeypatch.setattr(training, "LR_FLOOR_DIVISOR", 4.0)
    dataset, params = _small_training_setup(n=12)
    cfg = TrainConfig(learning_rate=0.8, max_epochs=50, seed=1)
    fake = lambda epoch, p: 100.0
    _, history = train(params, dataset, cfg, valid_metric=fake)
    lrs = [e.lr for e in history.epochs]
    # floor = 0.2: halvings 0.8 -> 0.4 -> 0.2, then two failures at the floor
    assert lrs == [0.8, 0.8, 0.4, 0.2, 0.2]
    assert "floor" in history.stopped_reason


def test_train_returns_best_validation_params():
    dataset, params = _small_training_setup(n=12)
    ppls = [9.0, 4.0, 6.0, 5.0]
    snaps = []

    def fake(epoch, p):
        snaps.append(p.copy())
        return ppls[epoch - 1]

    cfg = TrainConfig(learning_rate=0.1, max_epochs=4, seed=1)
    best, history = train(params, dataset, cfg, valid_metric=fake)
    for name, arr in best.named_blocks():
        assert np.array_equal(arr, getattr(snaps[1], name)), name


def test_non_finite_epoch_restores_best_params_and_halves_lr():
    dataset, params = _small_training_setup(n=12)
    snaps = {}
    restored = []

    def fake(epoch, p):
        snaps[epoch] = p.copy()
        if epoch == 2:
            p.W_ss[0, 0] = np.nan  # the epoch blew up
            return float("nan")
        return 10.0 / epoch

    def log_fn(line):
        if "not finite" in line:
            restored.append((line, params.copy()))

    cfg = TrainConfig(learning_rate=0.4, max_epochs=3, seed=1)
    _, history = train(params, dataset, cfg, valid_metric=fake, log_fn=log_fn)
    assert [e.lr for e in history.epochs] == [0.4, 0.4, 0.2]
    (line, start3), = restored
    assert line.startswith("epoch 2 ")
    # epoch 3 starts from the epoch-1 weights, restored into params in place
    for name, arr in start3.named_blocks():
        assert np.array_equal(arr, getattr(snaps[1], name)), name
    assert np.isfinite(history.epochs[2].train_loss)
    assert all(np.isfinite(arr).all() for _, arr in snaps[3].named_blocks())


def test_non_finite_sentence_stops_the_epoch_and_restores_params(monkeypatch):
    dataset, params = _small_training_setup(n=12)
    start = params.copy()
    calls, validated, restored = [], [], []

    def blow_up(params, vocab, v, sent, config, lr, grads=None):
        calls.append(len(calls))
        if len(calls) == 3:  # the third sentence of epoch 1 poisons the weights
            params.W_ss[...] = np.nan
            return float("nan"), len(sent.ids)
        return 1.0, len(sent.ids)

    def fake(epoch, p):
        validated.append(epoch)
        return 5.0

    monkeypatch.setattr(training, "train_sentence", blow_up)
    cfg = TrainConfig(learning_rate=0.4, max_epochs=2, seed=1)
    per_epoch = len(dataset.caption_pairs("train"))
    _, history = train(params, dataset, cfg, valid_metric=fake,
                       log_fn=lambda line: restored.append(line) if "not finite" in line else None)
    # epoch 1 ran no sentence after the bad one and skipped validation
    assert len(calls) == 3 + per_epoch
    assert validated == [2]
    assert math.isnan(history.epochs[0].valid_ppl)
    assert math.isnan(history.epochs[0].train_loss)
    assert [e.lr for e in history.epochs] == [0.4, 0.2]
    assert len(restored) == 1 and restored[0].startswith("epoch 1 ")
    # epoch 2 went on from the restored initial weights, which the stub leaves alone
    for name, arr in start.named_blocks():
        assert np.array_equal(arr, getattr(params, name)), name


def _assert_bad_pair_moves_no_weight(split, where, fault, valid_metric=None):
    """Drop the <eos> of, shift the word ids by 0.7 of, make the first id
    ``True`` in, or put a NaN into the features of, pair ``where`` of
    ``split``; ``train`` must raise ValueError naming its example and leave
    every block byte-equal."""
    dataset, params = _small_training_setup(n=30)
    start = params.copy()
    ex, cap = dataset.caption_pairs(split)[where]
    if fault == "nan_features":
        ex.features = np.where(np.arange(len(ex.features)) == 2, np.nan, ex.features)
    else:
        ids, tokens = {"no_eos": (cap.ids[:-1], cap.tokens[:-1]),
                       "float_id": ([i + 0.7 for i in cap.ids[:-1]] + cap.ids[-1:], cap.tokens),
                       "bool_id": ([True] + cap.ids[1:], cap.tokens)}[fault]
        ex.captions[ex.captions.index(cap)] = corpus.EncodedSentence(ids, tokens)
    with pytest.raises(ValueError, match=f"example {ex.id!r}"):
        train(params, dataset, TrainConfig(max_epochs=1, seed=1), valid_metric=valid_metric)
    for name, arr in start.named_blocks():
        assert getattr(params, name).tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("fault", ["no_eos", "nan_features", "float_id", "bool_id"])
@pytest.mark.parametrize("where", [0, 13, -1])
def test_bad_training_pair_raises_before_any_weight_moves(where, fault):
    # a pair late in the shuffled order used to raise only after earlier
    # sentences had moved the weights, without naming its example
    _assert_bad_pair_moves_no_weight("train", where, fault, valid_metric=lambda e, p: 1.0)


@pytest.mark.parametrize("fault", ["no_eos", "nan_features", "float_id", "bool_id"])
@pytest.mark.parametrize("where", [0, -1])
def test_bad_validation_pair_raises_before_any_weight_moves(where, fault):
    # train's own validation perplexity used to reach a bad pair only after
    # the first epoch had moved every block
    _assert_bad_pair_moves_no_weight("valid", where, fault)


@pytest.mark.parametrize("split", ["train", "valid"])
def test_empty_split_raises_before_any_weight_moves(split):
    dataset, params = _small_training_setup(n=30)
    start = params.copy()
    dataset.examples = [ex for ex in dataset.examples if ex.split != split]
    name = {"train": "training", "valid": "validation"}[split]
    with pytest.raises(ValueError, match=f"{name} split is empty"):
        train(params, dataset, TrainConfig(max_epochs=1, seed=1))
    for block, arr in start.named_blocks():
        assert getattr(params, block).tobytes() == arr.tobytes(), block


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_training_across_plan_blocks_matches_sentence_by_sentence(monkeypatch, variant):
    # plan blocks of 7 pairs split each epoch's 30-odd shuffled pairs; the
    # weights must equal those of train_sentence fed one caption at a time
    dataset, params = _small_training_setup(variant, n=20)
    monkeypatch.setattr(training, "ROW_SLICE", 7)
    pairs = dataset.caption_pairs("train")
    assert len(pairs) > 3 * 7
    cfg = TrainConfig(learning_rate=0.2, grad_clip=0.5, max_epochs=2, seed=5)
    ref = params.copy()
    history = train(params, dataset, cfg, valid_metric=lambda epoch, p: 1.0 / epoch)[1]
    assert [e.lr for e in history.epochs] == [0.2, 0.2]
    shuffle_rng = SeededRng(cfg.seed).derive("shuffle")
    for _ in range(cfg.max_epochs):
        order = np.arange(len(pairs))
        shuffle_rng.shuffle(order)
        for i in order:
            ex, cap = pairs[i]
            train_sentence(ref, dataset.vocab, ex.features, cap, cfg, cfg.learning_rate)
    for name, arr in ref.named_blocks():
        assert getattr(params, name).tobytes() == arr.tobytes(), name


def test_train_deterministic_given_seed():
    dataset, params = _small_training_setup(n=20)
    cfg = TrainConfig(learning_rate=0.1, max_epochs=3, seed=11)
    best1, h1 = train(params.copy(), dataset, cfg)
    best2, h2 = train(params.copy(), dataset, cfg)
    assert h1 == h2
    for name, arr in best1.named_blocks():
        assert np.array_equal(arr, getattr(best2, name))


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
    ("bptt_unroll", 0), ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", float("nan")),
    ("lam_recon", -0.5), ("lam_recon", float("nan")), ("lam_recon", float("inf")),
    ("max_epochs", 0), ("weight_decay", -0.1), ("weight_decay", float("nan")),
    ("recon_kind", "l1"), ("max_epochs", 1.5), ("max_epochs", True), ("bptt_unroll", 2.5),
    ("bptt_unroll", True), ("seed", 1.5), ("seed", True),
    ("learning_rate", True), ("learning_rate", "0.1"), ("grad_clip", True), ("grad_clip", "15"),
    ("lam_recon", False), ("lam_recon", "1"), ("weight_decay", False), ("weight_decay", "0"),
])
def test_bad_train_config_names_field(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_takes_ints_and_numpy_floats():
    cfg = TrainConfig(learning_rate=np.float64(0.1), grad_clip=15, lam_recon=np.float32(0.5),
                      weight_decay=0)
    assert (cfg.learning_rate, cfg.grad_clip, cfg.lam_recon, cfg.weight_decay) == (0.1, 15, 0.5, 0)


def test_gradcheck_setup_matches_stated_size():
    params, vocab, example = gradcheck_setup("full")
    assert len(vocab) == 12
    assert params.dims.s_dim == 6 and params.dims.u_dim == 6
    assert params.dims.v_dim == 4
    assert params.dims.maxent_order == 3


# ---------------------------------------------------------------------------
# Slow reference: the forward as a generator that records each step into
# parallel lists, the backward chain one source step and one hop at a time,
# and the online update one max-entropy order at a time, applied between
# the generator's yields.

@dataclass
class SentenceTrace:
    """Everything the backward pass needs from one sentence forward pass."""

    inputs: list        # token fed at each step (BOS = <eos>)
    targets: list       # token predicted at each step
    s: list             # states s_0 .. s_T
    u: list             # states u_0 .. u_T (empty-u variants: [None]* )
    pre_s: list         # pre-activations per step (index 0 -> step 1)
    pre_u: list
    pre_r: list
    recon: list
    bases: list         # maxent bases active at each step
    class_probs: list   # softmax over classes per step
    class_ids: list     # class of the target per step
    member_probs: list  # softmax over the target's class members per step
    member_range: list  # (lo, hi) of the target's class per step
    word_nll: list

    @classmethod
    def empty(cls, state):
        return cls([], [], [state.s], [state.u], [], [], [], [], [], [], [], [], [], [])


def forward_steps(params, v, sent, vocab_classes):
    """Run a sentence from a fresh state, scoring each target token through
    its class and member softmax only (no full-vocabulary distribution).

    Records step ``t`` into the trace and yields ``(t, trace)``. Weights the
    consumer changes between yields are seen by the later steps, which is
    how training applies its per-word online update. ``recon_losses``
    scores the reconstructions for the callers that need that loss.
    """
    dims = params.dims
    state = reset_state(params)
    bounds = np.asarray(vocab_classes.class_bounds, dtype=np.int64)
    tr = SentenceTrace.empty(state)
    context = state.context
    s, u = state.s, state.u
    prev = sent.ids[-1]  # <eos> doubles as the begin-of-sentence pseudo-token
    for t, target in enumerate(sent.ids):
        s, u, recon, pre_s, pre_u, pre_r = _advance(params, s, u, prev, v)
        context = shift_context(dims, context, prev)
        bases = maxent_bases(dims, context)
        q = softmax(class_logits(params, s, u, bases))
        g = int(np.searchsorted(bounds, target, side="right"))
        lo = 0 if g == 0 else int(bounds[g - 1])
        hi = int(bounds[g])
        p = softmax(member_logits(params, s, u, bases, lo, hi))
        nll = -float(np.log(q[g])) - float(np.log(p[target - lo]))
        tr.inputs.append(prev)
        tr.targets.append(target)
        tr.s.append(s)
        tr.u.append(u)
        tr.pre_s.append(pre_s)
        tr.pre_u.append(pre_u)
        tr.pre_r.append(pre_r)
        tr.recon.append(recon)
        tr.bases.append(bases)
        tr.class_probs.append(q)
        tr.class_ids.append(g)
        tr.member_probs.append(p)
        tr.member_range.append((lo, hi))
        tr.word_nll.append(nll)
        yield t, tr
        prev = target


def sentence_forward(params, v, sent, vocab_classes):
    """The whole trace of ``forward_steps`` at fixed weights."""
    for _, tr in forward_steps(params, v, sent, vocab_classes):
        pass
    return tr


def _output_errors(params, tr, t):
    """Softmax-gradient pieces of step ``t`` and the errors they inject
    into s_t and u_t."""
    dims = params.dims
    dz_c = tr.class_probs[t].copy()
    dz_c[tr.class_ids[t]] -= 1.0
    lo, hi = tr.member_range[t]
    dz_w = tr.member_probs[t].copy()
    dz_w[tr.targets[t] - lo] -= 1.0
    e_s = params.W_sc.T @ dz_c + params.W_sw[lo:hi].T @ dz_w
    e_u = (params.W_uc.T @ dz_c + params.W_uw[lo:hi].T @ dz_w
           if dims.uses_u else None)
    return dz_c, dz_w, lo, hi, e_s, e_u


def _reference_chain(params, tr, t, v, e_s, e_u, lam, unroll, recon_kind, g):
    dims = params.dims
    clip = dims.sigmoid_clip
    if dims.uses_u:
        recon, pre_r, u_t = tr.recon[t], tr.pre_r[t], tr.u[t + 1]
        if recon_kind == "ce":
            dr = lam * (recon - v) * sigmoid_clip_mask(pre_r, clip)
        else:
            dr = lam * 2.0 * (recon - v) * recon * (1.0 - recon) * sigmoid_clip_mask(pre_r, clip)
        g.W_uv += np.outer(dr, u_t)
        g.b_v += dr
        e_u = e_u + params.W_uv.T @ dr
        delta_u = e_u * _dsig(u_t, tr.pre_u[t], clip)
    delta_s = e_s * _dsig(tr.s[t + 1], tr.pre_s[t], clip)
    m = t + 1  # state index; tr.s[m] was produced by step m-1
    for hops in range(unroll + 1):
        x = tr.inputs[m - 1]
        g.W_ws[:, x] += delta_s
        g.W_ss += np.outer(delta_s, tr.s[m - 1])
        g.b_s += delta_s
        if dims.uses_v:
            g.W_vs[:dims.vs_connected_rows] += np.outer(delta_s[:dims.vs_connected_rows], v)
        if dims.uses_u:
            g.W_wu[:, x] += delta_u
            g.W_uu += np.outer(delta_u, tr.u[m - 1])
            g.b_u += delta_u
        if hops == unroll:
            break
        if m == 1:
            # one more transition reaches the learned initial state u_0
            if dims.uses_u:
                g.u0 += (params.W_uu.T @ delta_u) * _dsig(tr.u[0], params.u0, clip)
            break
        delta_s = (params.W_ss.T @ delta_s) * _dsig(tr.s[m - 1], tr.pre_s[m - 2], clip)
        if dims.uses_u:
            delta_u = (params.W_uu.T @ delta_u) * _dsig(tr.u[m - 1], tr.pre_u[m - 2], clip)
        m -= 1


def _reference_pieces(params, tr, t, dz_c, dz_w, lo, hi):
    dims = params.dims
    yield "W_sc", slice(None), np.outer(dz_c, tr.s[t + 1])
    yield "b_c", slice(None), dz_c
    yield "W_sw", slice(lo, hi), np.outer(dz_w, tr.s[t + 1])
    yield "b_w", slice(lo, hi), dz_w
    if dims.uses_u:
        yield "W_uc", slice(None), np.outer(dz_c, tr.u[t + 1])
        yield "W_uw", slice(lo, hi), np.outer(dz_w, tr.u[t + 1])
    for _, cbase, wbase in tr.bases[t]:
        yield "me_class", (cbase + np.arange(dims.class_count)) % dims.maxent_hash_size, dz_c
        yield "me_word", (wbase + np.arange(lo, hi)) % dims.maxent_hash_size, dz_w


def _reference_joint(tr, v, lam, recon_kind):
    total = 0.0
    for t, nll in enumerate(tr.word_nll):
        recon = 0.0
        if tr.recon[t] is not None:
            recon = float(model.recon_cross_entropy(v, tr.recon[t]) if recon_kind == "ce"
                          else ((tr.recon[t] - v) ** 2).sum())
        total += nll + lam * recon
    return total


def _reference_gradients(params, vocab, v, sent, lam, unroll, recon_kind):
    tr = sentence_forward(params, v, sent, vocab)
    grads = params.zeros_like()
    for t in range(len(sent.ids)):
        dz_c, dz_w, lo, hi, e_s, e_u = _output_errors(params, tr, t)
        for name, idx, piece in _reference_pieces(params, tr, t, dz_c, dz_w, lo, hi):
            if isinstance(idx, np.ndarray):
                np.add.at(getattr(grads, name), idx, piece)
            else:
                getattr(grads, name)[idx] += piece
        _reference_chain(params, tr, t, v, e_s, e_u, lam, unroll, recon_kind, grads)
    return grads, _reference_joint(tr, v, lam, recon_kind)


def _reference_train_sentence(params, vocab, v, sent, config, lr):
    batch_grads = params.zeros_like(groups=("B",))
    clip = config.grad_clip
    for t, tr in forward_steps(params, v, sent, vocab):
        dz_c, dz_w, lo, hi, e_s, e_u = _output_errors(params, tr, t)
        _reference_chain(params, tr, t, v, e_s, e_u, config.lam_recon,
                         config.bptt_unroll, config.recon_kind, batch_grads)
        for name, idx, piece in _reference_pieces(params, tr, t, dz_c, dz_w, lo, hi):
            step_g = np.clip(piece, -clip, clip)
            if isinstance(idx, np.ndarray):
                np.add.at(getattr(params, name), idx, -lr * step_g)
            else:
                getattr(params, name)[idx] -= lr * step_g
    clip_gradients(batch_grads, clip)
    apply_update(params, batch_grads, lr, weight_decay=config.weight_decay)
    return _reference_joint(tr, v, config.lam_recon, config.recon_kind)


def _assert_blocks_close(got, ref):
    for name, arr in ref.named_blocks():
        tol = 1e-12 * max(1.0, float(np.abs(arr).max()))
        assert np.abs(getattr(got, name) - arr).max() <= tol, name


@st.composite
def _chain_case(draw):
    words = draw(st.lists(st.integers(0, 9), max_size=7))
    return (draw(st.sampled_from(model.VARIANTS)), draw(st.integers(0, 2 ** 16)), words,
            draw(st.integers(1, len(words) + 3)),  # unroll 1 .. T + 2
            draw(st.sampled_from(["ce", "mse"])), draw(st.sampled_from([0.0, 1.0])),
            draw(st.sampled_from([0.05, 0.5])))


@settings(max_examples=80, deadline=None)
@given(_chain_case())
def test_stacked_chain_matches_per_hop_reference(case):
    variant, seed, words, unroll, recon_kind, lam, lr = case
    params, vocab, example = gradcheck_setup(variant, seed=seed)
    v = example.features
    sent = encode([f"w{i}" for i in words], vocab)
    grads, loss = sentence_gradients(params, vocab, v, sent, lam, unroll,
                                     recon_kind=recon_kind)
    ref_grads, ref_loss = _reference_gradients(params, vocab, v, sent, lam, unroll,
                                               recon_kind)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    _assert_blocks_close(grads, ref_grads)

    cfg = TrainConfig(learning_rate=lr, bptt_unroll=unroll, lam_recon=lam,
                      recon_kind=recon_kind, grad_clip=0.5)
    trained, ref_trained = params.copy(), params.copy()
    joint, _ = train_sentence(trained, vocab, v, sent, cfg, lr)
    ref_joint = _reference_train_sentence(ref_trained, vocab, v, sent, cfg, lr)
    assert abs(joint - ref_joint) <= 1e-12 * abs(ref_joint)
    _assert_blocks_close(trained, ref_trained)


@pytest.mark.parametrize("variant, width", VARIANT_WIDTHS)
def test_states_match_reference_forward_under_online_updates(variant, width):
    # the recurrence reads no online block, so the states the reference
    # generator records while the online update runs between its yields
    # are the ones sentence_states computes before any update; at v_dim
    # 4096 over 36 steps, the one-call reconstruction head and the drive
    # must still round as the scalar W_uv @ u and W_vs @ v do
    for order, v_dim in ((3, 4), (0, 4), (3, 4096)):
        params, vocab, example = gradcheck_setup(variant, seed=11, v_dim=v_dim, s_dim=width,
                                                 u_dim=width, maxent_order=order)
        v = example.features
        long = encode([f"w{(7 * i) % 10}" for i in range(35)], vocab)
        for sent in (example.captions[0], encode([], vocab), long):  # the second is <eos> alone
            states = sentence_states(params, v, sent, vocab)
            moving = params.copy()
            for t, ref in forward_steps(moving, v, sent, vocab):
                dz_c, dz_w, lo, hi, _, _ = _output_errors(moving, ref, t)
                for name, idx, piece in _reference_pieces(moving, ref, t, dz_c, dz_w, lo, hi):
                    np.add.at(getattr(moving, name), idx, -0.5 * piece)
            assert not _allclose(moving, params)
            assert states.inputs.tolist() == ref.inputs
            assert states.targets.tolist() == ref.targets
            expected = np.full((len(ref.bases), params.dims.maxent_order, 2), -1)
            for t, bases in enumerate(ref.bases):
                for k, cbase, wbase in bases:
                    expected[t, k - 1] = cbase, wbase
            got = model.token_bases(params.dims, states.inputs[None])[0]
            assert got.tobytes() == expected.tobytes()
            c = params.dims.class_count
            assert states.picks.tolist() == [[g, c + w - lo] for g, (lo, _), w in
                                             zip(ref.class_ids, ref.member_range, ref.targets)]
            assert states.sizes.tolist() == [[c, hi - lo] for lo, hi in ref.member_range]
            sd = params.dims.s_dim   # the halves of the stacked trace, as C-order bytes
            halves = {"s": states.act[:, :sd], "pre_s": states.pre[:, :sd],
                      "u": states.act[:, sd:], "pre_u": states.pre[:, sd:],
                      "pre_r": states.pre_r, "recon": states.recon}
            for name, got in halves.items():
                rows = getattr(ref, name)
                if all(row is None for row in rows):
                    assert got is None or got.size == 0, name
                else:
                    assert got.tobytes() == np.array(rows).tobytes(), name


@pytest.fixture(scope="module")
def bundle_pairs():
    from conftest import _bundle_dataset

    dataset = _bundle_dataset()
    return dataset, dataset.caption_pairs("train")[:40]


@pytest.mark.parametrize("grad_clip", [1e-3, 0.5, 1.0, 15.0])
@pytest.mark.parametrize("order, hash_size", [
    pytest.param(0, 65536, id="0"), pytest.param(3, 65536, id="3"),
    pytest.param(3, 5, id="3-hash5"),   # below the 6 classes: slots repeat within a row
])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_online_clamp_matches_reference_at_bundle_width(bundle_pairs, variant, order, hash_size,
                                                        grad_clip):
    # s = u = 32 on the bundle vocabulary (26 words, 6 classes): the clamp
    # acts on every piece at 1e-3, on about 0.5% of them at 0.5 and on none
    # from 1 up; drift in the dual form would compound over the carried weights
    dataset, pairs = bundle_pairs
    dims = model.ModelDims(vocab_size=len(dataset.vocab), class_count=dataset.vocab.n_classes,
                           v_dim=dataset.feature_dim, s_dim=32, u_dim=32, maxent_order=order,
                           maxent_hash_size=hash_size, variant=variant)
    assert (dims.vocab_size, dims.class_count) == (26, 6)
    params = init_params(dims, SeededRng(5).derive("init"))
    ref_params = params.copy()
    cfg = TrainConfig(learning_rate=0.5, grad_clip=grad_clip)
    for ex, sent in pairs:
        joint, _ = train_sentence(params, dataset.vocab, ex.features, sent, cfg, 0.5)
        ref_joint = _reference_train_sentence(ref_params, dataset.vocab, ex.features, sent,
                                              cfg, 0.5)
        assert abs(joint - ref_joint) <= 1e-12 * abs(ref_joint)
        _assert_blocks_close(params, ref_params)


def _reference_output_pass(params, vocab, tr, lr, limit):
    """``model.output_pass`` word by word, per table: ``numkit.softmax`` on
    the class and the member slice of the logits, ``np.log`` of each target
    probability, and one ``np.add.at`` into each max-entropy table. Returns
    (dz, word NLL list)."""
    dims = params.dims
    bases = model.token_bases(dims, tr.inputs[None])[0]
    c, h, maxent = dims.class_count, dims.maxent_hash_size, dims.maxent_order > 0
    sd = dims.s_dim
    x = np.hstack([tr.act[1:, :sd], np.ones((len(tr.targets), 1))]
                  + ([tr.act[1:, sd:]] if dims.uses_u else []))
    z0, gram = x @ params.A.T, -lr * (x @ x.T)
    dz, residual = np.zeros_like(z0), np.zeros_like(params.A)
    nll = []
    for t, target in enumerate(tr.targets):
        g = vocab.id_class[target]
        lo, hi = vocab.class_starts[g], vocab.class_bounds[g]
        z = z0[t] + gram[t] @ dz
        if limit < 1.0:
            z -= lr * (residual @ x[t])
        zc, zw = z[:c], z[c + lo:c + hi]
        if maxent:
            live = bases[t][bases[t][:, 0] >= 0]   # (orders, 2) class and word bases
            cs = (live[:, :1] + np.arange(c)) % h
            ws = (live[:, 1:] + np.arange(lo, hi)) % h
            zc, zw = zc + params.me_class[cs].sum(axis=0), zw + params.me_word[ws].sum(axis=0)
        q, p = softmax(zc), softmax(zw)
        nll.append(-float(np.log(q[g])) - float(np.log(p[target - lo])))
        d = dz[t]
        d[:c], d[c + lo:c + hi] = q, p
        d[g] -= 1.0
        d[c + target] -= 1.0
        if limit < 1.0:
            piece = np.outer(d, x[t])
            residual += piece.clip(-limit, limit) - piece
        if maxent and lr:
            step = -lr * (d.clip(-limit, limit) if limit < 1.0 else d)
            np.add.at(params.me_class, cs, np.broadcast_to(step[:c], cs.shape))
            np.add.at(params.me_word, ws, np.broadcast_to(step[c + lo:c + hi], ws.shape))
    return dz, nll


@pytest.mark.parametrize("lr", [0.0, 0.5])
@pytest.mark.parametrize("limit", [0.5, 15.0])
@pytest.mark.parametrize("hash_size", [5, 65536])
@pytest.mark.parametrize("order", [0, 3])
def test_output_pass_matches_per_word_reference_bytes(bundle_pairs, order, hash_size, limit, lr):
    # the fused step (one gather, both softmax segments in place, one
    # np.log, one table update) against the per-table reference, byte for
    # byte, on the bundle vocabulary (26 words, 6 classes) with tables away
    # from zero; at hash size 5, below the 6 classes, slots repeat in a row
    dataset, pairs = bundle_pairs
    vocab = dataset.vocab
    dims = model.ModelDims(vocab_size=len(vocab), class_count=vocab.n_classes,
                           v_dim=dataset.feature_dim, s_dim=32, u_dim=32, maxent_order=order,
                           maxent_hash_size=hash_size, variant="full")
    params = init_params(dims, SeededRng(8).derive("init"))
    params.A[:] = np.random.default_rng(8).normal(0.0, 1.0, params.A.shape)
    if order:
        params.me[:] = np.random.default_rng(9).normal(0.0, 1.0, params.me.shape)
    ref = params.copy()
    for ex, sent in pairs[:20]:
        tr = sentence_states(params, ex.features, sent, vocab)
        out = model.output_pass(params, vocab, tr, lr, limit)
        ref_tr = sentence_states(ref, ex.features, sent, vocab)
        dz, nll = _reference_output_pass(ref, vocab, ref_tr, lr, limit)
        assert out.dz.tobytes() == dz.tobytes()
        assert np.array(tr.word_nll).tobytes() == np.array(nll).tobytes()
        if order:
            assert params.me_class.tobytes() == ref.me_class.tobytes()
            assert params.me_word.tobytes() == ref.me_word.tobytes()


@pytest.mark.parametrize("limit", [0.5, 15.0])
@pytest.mark.parametrize("hash_size", [3, 257])
def test_flat_maxent_update_matches_per_word_2d_add_at(hash_size, limit):
    # each word's table step, added over the step's 2-D slot array in C
    # order; at hash size 3, below the 4 classes, slots repeat within one
    # row as well as across orders,
    # and tables away from zero make the order of those additions show
    params, vocab, example = gradcheck_setup("full", seed=13, maxent_hash_size=hash_size)
    rng = np.random.default_rng(hash_size)
    params.me_class[:], params.me_word[:] = rng.normal(0, 1, (2, hash_size))
    v, lr, c = example.features, 0.5, params.dims.class_count
    ref = params.copy()
    for sent in [example.captions[0]] + [encode([f"w{i}" for i in rng.integers(0, 10, 12)],
                                                vocab) for _ in range(4)]:
        tr = sentence_states(params, v, sent, vocab)
        out = model.output_pass(params, vocab, tr, lr, limit)
        for t, g in enumerate(vocab.id_class[tr.targets]):
            lo, hi = vocab.class_starts[g], vocab.class_bounds[g]
            step = -lr * (out.dz[t].clip(-limit, limit) if limit < 1 else out.dz[t])
            mine = tr.slots[t, :t + 2]   # (orders step t has, class columns)
            # me = [me_class | me_word]: the class slots, then the member slots
            for slots, part in ((mine[:, :c], step[:c]),
                                (mine[:, c:c + hi - lo], step[c + lo:c + hi])):
                np.add.at(ref.me, slots, np.broadcast_to(part, slots.shape))
        for name in ("me_class", "me_word"):
            assert getattr(params, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("order", [0, 3])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_scoring_forward_matches_reference_forward(variant, order):
    params, vocab, example = gradcheck_setup(variant, seed=12, maxent_order=order)
    v = example.features
    rng = np.random.default_rng(order)
    for length in (0, 1, 4, 9):
        sent = encode([f"w{i}" for i in rng.integers(0, 10, length)], vocab)
        got = model.sentence_forward(params, v, sent, vocab).word_nll
        want = sentence_forward(params, v, sent, vocab).word_nll
        assert len(got) == len(want) == length + 1
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gradients_match_reference_without_maxent(variant):
    params, vocab, example = gradcheck_setup(variant, seed=14, maxent_order=0)
    v, sent = example.features, example.captions[0]
    grads, loss = sentence_gradients(params, vocab, v, sent, 1.0, 3)
    ref_grads, ref_loss = _reference_gradients(params, vocab, v, sent, 1.0, 3, "ce")
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    _assert_blocks_close(grads, ref_grads)
