import dataclasses
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicap import model
from bicap.corpus import EncodedSentence, build_vocab, encode
from bicap.model import (ModelDims, init_params, load_checkpoint, maxent_bases,
                         reset_state, save_checkpoint, sentence_loss, shift_context, step,
                         token_bases, word_distribution)
from bicap.numkit import SeededRng

from conftest import class_of, class_range, small_dims


def _vocab5():
    # 3 words + <eos> + <unk>, two classes
    return build_vocab([["aa", "aa", "bb"], ["aa", "cc"]], class_count=2)


def test_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(vocab_size=10, class_count=3, v_dim=4, s_dim=7, variant="full")
    with pytest.raises(ValueError):
        ModelDims(vocab_size=10, class_count=3, v_dim=0, variant="rnn_if")
    with pytest.raises(ValueError):
        ModelDims(vocab_size=10, class_count=11, v_dim=4)
    with pytest.raises(ValueError):
        ModelDims(vocab_size=10, class_count=3, v_dim=4, variant="lstm")


@pytest.mark.parametrize("field, value", [
    ("sigmoid_clip", float("nan")), ("sigmoid_clip", 0.0), ("sigmoid_clip", float("inf")),
    ("s_dim", 0), ("s_dim", -2), ("u_dim", 0), ("maxent_order", -1), ("maxent_hash_size", 0),
])
def test_bad_dims_name_field(field, value):
    with pytest.raises(ValueError, match=field):
        ModelDims(vocab_size=10, class_count=3, v_dim=4, **{field: value})


def test_init_masks_upper_half_of_vs():
    vocab = _vocab5()
    dims = ModelDims(vocab_size=len(vocab), class_count=2, v_dim=3, s_dim=8,
                     u_dim=4, variant="full")
    params = init_params(dims, SeededRng(0))
    assert np.all(params.W_vs[4:, :] == 0.0)
    assert np.any(params.W_vs[:4, :] != 0.0)


def test_params_reject_a_block_of_the_wrong_shape():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3)
    blocks = dict(init_params(dims, SeededRng(2)).named_blocks())
    blocks["W_ss"] = blocks["W_ss"][:, :-1]
    shape = (dims.s_dim, dims.s_dim)
    with pytest.raises(ValueError, match=re.escape(f"block W_ss: expected shape {shape}, got "
                                                   f"{(dims.s_dim, dims.s_dim - 1)}")):
        model.ModelParams(dims, blocks)


def test_init_deterministic():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3)
    a = init_params(dims, SeededRng(5))
    b = init_params(dims, SeededRng(5))
    for name, arr in a.named_blocks():
        assert np.array_equal(arr, getattr(b, name))


def test_rnn_variant_has_no_visual_blocks():
    vocab = _vocab5()
    dims = ModelDims(vocab_size=len(vocab), class_count=2, s_dim=6, variant="rnn")
    params = init_params(dims, SeededRng(0))
    names = {n for n, _ in params.named_blocks()}
    assert {"W_vs", "W_wu", "W_uu", "W_uc", "W_uw", "W_uv", "u0"}.isdisjoint(names)
    dims_if = ModelDims(vocab_size=len(vocab), class_count=2, v_dim=3, s_dim=6,
                        variant="rnn_if")
    names_if = {n for n, _ in init_params(dims_if, SeededRng(0)).named_blocks()}
    assert "W_vs" in names_if
    assert {"W_wu", "W_uu", "u0", "W_uv"}.isdisjoint(names_if)


def test_reset_state_neutral():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    state = reset_state(params)
    assert np.all(state.s == 0.5)
    assert np.all(state.u == 0.5)  # u0 initializes to zero
    assert state.context == ()
    again = reset_state(params)
    assert np.array_equal(state.s, again.s)
    assert np.array_equal(state.u, again.u)


def test_step_zero_weights_gives_neutral_recon():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3)
    params = model.ModelParams.zeros(dims)
    state = reset_state(params)
    _, out = step(params, state, 0, np.array([1.0, 0.0, 1.0]), vocab)
    assert np.all(out.recon == 0.5)
    assert out.word_dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_step_rejects_bad_token_and_features():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    state = reset_state(params)
    with pytest.raises(ValueError):
        step(params, state, len(vocab), np.zeros(3), vocab)
    with pytest.raises(ValueError):
        step(params, state, 0, np.zeros(4), vocab)


def test_step_visual_features_do_not_touch_reconstruction_half():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(2))
    state = reset_state(params)
    va = np.array([1.0, 0.0, 0.0])
    vb = np.array([0.0, 1.0, 1.0])
    sa, outa = step(params, state, 1, va, vocab)
    sb, outb = step(params, state, 1, vb, vocab)
    assert not np.array_equal(sa.s, sb.s)
    assert np.array_equal(sa.u, sb.u)
    assert np.array_equal(outa.recon, outb.recon)


def _sigma(z, clip=50.0):
    z = min(max(z, -clip), clip)
    return min(1.0 / (1.0 + math.exp(-z)), float(np.nextafter(1.0, 0.0)))


def test_step_matches_straight_line_reimplementation():
    # independent scalar-loop evaluation of the three layer formulas and
    # the factorized softmax
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3, s_dim=4, u_dim=4, maxent_order=2,
                      maxent_hash_size=53)
    params = init_params(dims, SeededRng(9))
    state = reset_state(params)
    w_prev = 2
    v = np.array([0.3, 0.9, 0.1])
    new_state, out = step(params, state, w_prev, v, vocab)

    s_dim, u_dim, V, C = dims.s_dim, dims.u_dim, dims.vocab_size, dims.class_count
    s2 = [ _sigma(params.W_ws[i, w_prev]
                  + sum(params.W_ss[i, j] * state.s[j] for j in range(s_dim))
                  + sum(params.W_vs[i, j] * v[j] for j in range(3))
                  + params.b_s[i]) for i in range(s_dim)]
    u2 = [ _sigma(params.W_wu[i, w_prev]
                  + sum(params.W_uu[i, j] * state.u[j] for j in range(u_dim))
                  + params.b_u[i]) for i in range(u_dim)]
    recon = [ _sigma(sum(params.W_uv[i, j] * u2[j] for j in range(u_dim))
                     + params.b_v[i]) for i in range(3)]
    assert np.allclose(new_state.s, s2, atol=1e-12)
    assert np.allclose(new_state.u, u2, atol=1e-12)
    assert np.allclose(out.recon, recon, atol=1e-12)

    bases = maxent_bases(dims, (w_prev,))
    zc = []
    for c in range(C):
        z = params.b_c[c]
        z += sum(params.W_sc[c, j] * s2[j] for j in range(s_dim))
        z += sum(params.W_uc[c, j] * u2[j] for j in range(u_dim))
        for _, cbase, _ in bases:
            z += params.me_class[(cbase + c) % dims.maxent_hash_size]
        zc.append(z)
    qc = [math.exp(z - max(zc)) for z in zc]
    qc = [q / sum(qc) for q in qc]
    expected = np.zeros(V)
    for c in range(C):
        lo, hi = class_range(vocab, c)
        zw = []
        for w in range(lo, hi):
            z = params.b_w[w]
            z += sum(params.W_sw[w, j] * s2[j] for j in range(s_dim))
            z += sum(params.W_uw[w, j] * u2[j] for j in range(u_dim))
            for _, _, wbase in bases:
                z += params.me_word[(wbase + w) % dims.maxent_hash_size]
            zw.append(z)
        es = [math.exp(z - max(zw)) for z in zw]
        for w, e in zip(range(lo, hi), es):
            expected[w] = qc[c] * e / sum(es)
    assert np.allclose(out.word_dist, expected, atol=1e-12)
    assert new_state.context == (w_prev,)


def test_word_distribution_normalized_random_params():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3, maxent_hash_size=31)
    rng = SeededRng(4)
    for _ in range(200):
        blocks = {name: rng.uniform(-2.0, 2.0, shape)
                  for name, shape in model.block_shapes(dims)}
        params = model.ModelParams(dims, blocks)
        params.apply_vs_mask()
        s = rng.uniform(0.01, 0.99, dims.s_dim)
        u = rng.uniform(0.01, 0.99, dims.u_dim)
        ctx = (rng.integers(0, len(vocab)), rng.integers(0, len(vocab)))
        dist = word_distribution(params, s, u, ctx, vocab)
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert np.all(dist >= 0.0)


def test_maxent_disabled_matches_zero_tables():
    vocab = _vocab5()
    rng = SeededRng(8)
    dims0 = small_dims(vocab, v_dim=3, maxent_order=0)
    dims3 = small_dims(vocab, v_dim=3, maxent_order=3, maxent_hash_size=101)
    p0 = init_params(dims0, SeededRng(8))
    p3 = init_params(dims3, SeededRng(8))  # tables initialize to zero
    s = rng.uniform(0.1, 0.9, dims0.s_dim)
    u = rng.uniform(0.1, 0.9, dims0.u_dim)
    d0 = word_distribution(p0, s, u, (), vocab)
    d3 = word_distribution(p3, s, u, (1, 2), vocab)
    assert np.allclose(d0, d3, atol=1e-12)


def test_word_distribution_brute_force_factorization():
    vocab = _vocab5()
    assert vocab.n_classes == 2 and len(vocab) == 5
    dims = small_dims(vocab, v_dim=3, maxent_order=3, maxent_hash_size=47)
    rng = SeededRng(12)
    blocks = {name: rng.uniform(-1.0, 1.0, shape)
              for name, shape in model.block_shapes(dims)}
    params = model.ModelParams(dims, blocks)
    params.apply_vs_mask()
    s = rng.uniform(0.1, 0.9, dims.s_dim)
    u = rng.uniform(0.1, 0.9, dims.u_dim)
    ctx = (0, 3)
    dist = word_distribution(params, s, u, ctx, vocab)

    bases = maxent_bases(dims, ctx)
    H = dims.maxent_hash_size
    raw_c = params.W_sc @ s + params.W_uc @ u + params.b_c
    raw_w = params.W_sw @ s + params.W_uw @ u + params.b_w
    for _, cb, wb in bases:
        raw_c = raw_c + np.array([params.me_class[(cb + c) % H] for c in range(2)])
        raw_w = raw_w + np.array([params.me_word[(wb + w) % H] for w in range(5)])
    pc = np.exp(raw_c - raw_c.max())
    pc /= pc.sum()
    expected = np.zeros(5)
    for c in range(2):
        lo, hi = class_range(vocab, c)
        pw = np.exp(raw_w[lo:hi] - raw_w[lo:hi].max())
        expected[lo:hi] = pc[c] * pw / pw.sum()
    assert np.allclose(dist, expected, atol=1e-12)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)



@pytest.mark.parametrize("variant", model.VARIANTS)
@pytest.mark.parametrize("order", [3, 0])
def test_word_distribution_rows_match_scalar(variant, order):
    # Criterion 2 for the batched distribution: every row sums to 1 and
    # equals the scalar class loop for that row's state and context.
    vocab = build_vocab([[f"w{i}" for i in range(20)],
                         [f"w{i}" for i in range(0, 20, 2)]], class_count=5)
    dims = small_dims(vocab, variant=variant, v_dim=5, s_dim=8, u_dim=8,
                      maxent_order=order, maxent_hash_size=131)
    rng = SeededRng(41)
    for _ in range(20):
        blocks = {name: rng.uniform(-2.0, 2.0, shape)
                  for name, shape in model.block_shapes(dims)}
        params = model.ModelParams(dims, blocks)
        params.apply_vs_mask()
        n = rng.integers(1, 9)
        s = rng.uniform(0.01, 0.99, (n, dims.s_dim))
        u = rng.uniform(0.01, 0.99, (n, dims.u_dim)) if dims.uses_u else None
        # few distinct contexts, so rows share them
        pool = [tuple(rng.integers(0, len(vocab)) for _ in range(max(0, order - 1)))
                for _ in range(3)]
        contexts = [pool[rng.integers(0, 3)] for _ in range(n)]
        bases = np.array([[b[1:] for b in maxent_bases(dims, c)] for c in contexts],
                         dtype=np.int64).reshape(n, order, 2)
        qw, p = model.word_distribution_rows(params, s, u, bases, vocab)
        dist = qw * p
        assert dist.shape == (n, len(vocab))
        assert np.all(np.abs(dist.sum(axis=1) - 1.0) <= 1e-12)
        for i in range(n):
            expected = word_distribution(params, s[i], None if u is None else u[i],
                                         contexts[i], vocab)
            assert np.all(np.abs(dist[i] - expected) <= 1e-12)


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("size", [1, 5, 257, 65536, 1 << 20])
def test_token_bases_match_scalar_reference(order, size):
    # every (row, step, order) entry of the numpy hash equals the scalar
    # maxent_bases of the row's shifted history, byte for byte, and -1 marks
    # the orders whose history is still too short; one-step rows are the
    # <eos>-only sentence
    dims = ModelDims(vocab_size=70000, class_count=5, maxent_order=order,
                     maxent_hash_size=size, variant="rnn")
    rng = np.random.default_rng(order * 7 + size)
    for steps in (1, 2, 3, 4, 7):
        tokens = rng.integers(0, dims.vocab_size, (12, steps))
        tokens[0] = 0
        tokens[1] = dims.vocab_size - 1
        expected = np.full((12, steps, order, 2), -1)
        for r, row in enumerate(tokens.tolist()):
            context = ()
            for t, token in enumerate(row):
                context = shift_context(dims, context, token)
                for k, cbase, wbase in maxent_bases(dims, context):
                    expected[r, t, k - 1] = cbase, wbase
        got = token_bases(dims, tokens)
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()


def test_sentence_loss_minimal_sentence():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    sent = EncodedSentence(ids=[vocab.eos_id], tokens=[])
    total, steps = sentence_loss(params, np.zeros(3), sent, 1.0, vocab)
    assert len(steps) == 1
    assert total.joint == pytest.approx(steps[0].joint)


def test_sentence_loss_lambda_zero_is_word_nll():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    sent = encode(["aa", "bb", "cc"], vocab)
    v = np.array([1.0, 0.0, 1.0])
    total, steps = sentence_loss(params, v, sent, 0.0, vocab)
    assert total.joint == pytest.approx(total.word_nll, rel=1e-12)
    assert total.word_nll == pytest.approx(sum(s.word_nll for s in steps), rel=1e-12)
    assert all(s.recon_loss >= 0 and s.word_nll >= 0 for s in steps)


def test_underflowed_target_gives_infinite_loss_not_an_error():
    # training rolls back an epoch whose loss is not finite; a target
    # probability that underflows to 0 must reach it as inf
    from bicap.training import gradcheck_setup

    params, vocab, example = gradcheck_setup("full", seed=1)
    params.b_c[:] = 0.0
    params.b_c[0] = 2000.0
    sent = example.captions[0]
    assert any(class_of(vocab, t) != 0 for t in sent.ids)
    with np.errstate(divide="ignore"):
        total, _ = sentence_loss(params, example.features, sent, 1.0, vocab)
    assert total.joint == math.inf


def test_sentence_loss_requires_eos_termination():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    with pytest.raises(ValueError):
        sentence_loss(params, np.zeros(3), EncodedSentence(ids=[0], tokens=["aa"]),
                      1.0, vocab)


def test_sentence_loss_rejects_non_integer_ids():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    with pytest.raises(ValueError, match="token ids must be integers"):
        sentence_loss(params, np.zeros(3), EncodedSentence(ids=[1.0, vocab.eos_id],
                                                           tokens=["aa", "<eos>"]), 1.0, vocab)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_sentence_states_read_no_online_block(variant):
    from bicap.training import gradcheck_setup

    params, vocab, example = gradcheck_setup(variant, seed=13)
    v, sent = example.features, example.captions[0]
    perturbed = params.copy()
    rng = np.random.default_rng(0)
    for name, arr in perturbed.named_blocks():
        if name in model.ONLINE_BLOCKS:
            arr += rng.uniform(-1.0, 1.0, arr.shape)
    a = model.sentence_states(params, v, sent, vocab)
    b = model.sentence_states(perturbed, v, sent, vocab)
    for field in dataclasses.fields(model.SentenceTrace):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        assert x.tobytes() == y.tobytes() if isinstance(x, np.ndarray) else x == y, field.name
    # the perturbation does reach the output steps
    model.output_pass(params, a, 0.0, math.inf)
    model.output_pass(perturbed, b, 0.0, math.inf)
    assert a.word_nll != b.word_nll


def _full_vocabulary_slots(dims, bases):
    """(owner, slots) of every max-entropy feature of an (n, order, 2)
    ``token_bases`` array, in C order, over all (classes + vocab) logits:
    the ``me_class`` slot of each class id, then the ``me_word`` slot of
    each word id, offset by the hash size. The full-width layout that
    ``caption_plans`` narrows to each step's class columns."""
    owner, k = np.nonzero(bases[..., 0] >= 0)
    h, (cbase, wbase) = dims.maxent_hash_size, bases[owner, k].T[..., None]
    return owner, np.hstack([(cbase + np.arange(dims.class_count)) % h,
                             (wbase + np.arange(dims.vocab_size)) % h + h])


def _plan_sentences(vocab, seed):
    rng = np.random.default_rng(seed)
    return [encode([f"w{i}" for i in rng.integers(0, 10, n)], vocab) for n in (6, 0, 1, 13, 4)]


def _step_columns(plan):
    """Each step's class columns and their (orders it has, columns) slots,
    without the padding of the plan's block."""
    for t, (classes, size) in enumerate(plan.sizes.tolist()):
        yield plan.cols[t, :classes + size], plan.slots[t, :t + 2, :classes + size]


@pytest.mark.parametrize("one_member_class", [False, True])
@pytest.mark.parametrize("hash_size", [5, 65536])
@pytest.mark.parametrize("order", range(5))
def test_plan_slots_are_the_class_columns_of_full_vocabulary_slots(order, hash_size,
                                                                   one_member_class):
    from bicap.training import gradcheck_setup
    from conftest import with_one_member_class

    params, vocab, _ = gradcheck_setup("full", maxent_order=order, maxent_hash_size=hash_size)
    if one_member_class:   # <eos> alone in its class: a step of width classes + 1
        vocab = with_one_member_class(vocab)
    dims = params.dims
    plans = model.caption_plans(dims, vocab, _plan_sentences(vocab, order))
    for plan in plans:
        owner, full = _full_vocabulary_slots(dims, plan.bases)
        for t, (cols, slots) in enumerate(_step_columns(plan)):
            g = vocab.id_class[plan.targets[t]]
            assert cols.tolist() == vocab.class_columns[g].tolist()
            want = full[owner == t][:, vocab.class_columns[g]]
            assert len(want) == min(order, t + 2)
            assert np.array_equal(slots, want)
    assert any((p.sizes[:, 1] == 1).any() for p in plans) == one_member_class


def test_one_sentence_plan_is_its_slice_of_a_block_plan():
    from bicap.training import gradcheck_setup

    params, vocab, _ = gradcheck_setup("full", maxent_order=4, maxent_hash_size=5)
    sents = _plan_sentences(vocab, 7)
    for sent, got in zip(sents, model.caption_plans(params.dims, vocab, sents)):
        want, = model.caption_plans(params.dims, vocab, [sent])
        assert got.ids is want.ids is sent.ids
        for field in dataclasses.fields(model.CaptionPlan):
            if field.name in ("ids", "cols", "slots"):   # the last two are padded per block
                continue
            x, y = getattr(got, field.name), getattr(want, field.name)
            assert x.tobytes() == y.tobytes() and x.shape == y.shape, field.name
        for (c1, s1), (c2, s2) in zip(_step_columns(got), _step_columns(want), strict=True):
            assert c1.tobytes() == c2.tobytes() and s1.tobytes() == s2.tobytes()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_advance_rows_matches_scalar_advance(variant):
    # one stacked [s | u] row steps as _advance byte for byte; (N, dim) rows
    # agree within 1e-12, from the shared start row and from per-row states
    from bicap.training import gradcheck_setup

    params, vocab, _ = gradcheck_setup(variant, seed=17, s_dim=32, u_dim=32)
    dims, sd = params.dims, params.dims.s_dim
    rng = np.random.default_rng(17)
    for _, arr in params.named_blocks():   # nonzero biases and u0 too
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    ids = rng.integers(0, len(vocab), 20)
    feats = rng.uniform(0.0, 1.0, (len(ids), dims.v_dim))
    start = model.stacked_start(params)
    states = rng.uniform(0.0, 1.0, (len(ids), len(start)))

    def scalar(state, prev, v):
        s, u, *_ = model._advance(params, state[:sd], state[sd:] if dims.uses_u else None,
                                  prev, v)
        return s if u is None else np.concatenate([s, u])

    for state, prev, v in zip(states, ids, feats):
        out = np.empty_like(start)
        got = model.advance_rows(params, model.input_columns(params, prev), state,
                                 model.stacked_drive(params, v), out)
        assert got is out and out.tobytes() == scalar(state, prev, v).tobytes()
    for prev_rows in (start, states):
        want = np.array([scalar(state, prev, v) for state, prev, v in
                         zip(np.broadcast_to(prev_rows, states.shape), ids, feats)])
        got = model.advance_rows(params, model.input_columns(params, ids), prev_rows,
                                 model.stacked_drive(params, feats), np.empty_like(states))
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12


def test_decomposability_u_trajectory_ignores_features():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(6))
    sent = encode(["aa", "cc", "bb", "aa"], vocab)
    va = np.array([1.0, 1.0, 0.0])
    vb = np.array([0.0, 0.2, 0.7])
    state_a = reset_state(params)
    state_b = reset_state(params)
    prev = vocab.eos_id
    for target in sent.ids:
        state_a, out_a = step(params, state_a, prev, va, vocab)
        state_b, out_b = step(params, state_b, prev, vb, vocab)
        assert np.array_equal(state_a.u, state_b.u)
        assert np.array_equal(out_a.recon, out_b.recon)
        prev = target


def test_state_bounded_on_long_input():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(6))
    rng = SeededRng(13)
    state = reset_state(params)
    v = np.array([1.0, 0.0, 1.0])
    for _ in range(300):
        state, out = step(params, state, rng.integers(0, len(vocab)), v, vocab)
        assert np.all(state.s > 0.0) and np.all(state.s < 1.0)
        assert np.all(state.u > 0.0) and np.all(state.u < 1.0)
        assert np.all(out.recon > 0.0) and np.all(out.recon < 1.0)


def test_reset_makes_sentences_independent():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(6))
    v = np.array([0.5, 0.5, 0.0])
    sent_a = encode(["aa", "bb"], vocab)
    sent_b = encode(["cc", "cc", "aa"], vocab)
    fresh, _ = sentence_loss(params, v, sent_b, 1.0, vocab)
    sentence_loss(params, v, sent_a, 1.0, vocab)  # unrelated sentence first
    after, _ = sentence_loss(params, v, sent_b, 1.0, vocab)
    assert fresh.joint == after.joint


def test_one_sgd_step_decreases_joint_loss():
    from bicap import training

    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(21))
    sent = encode(["aa", "bb", "cc", "aa"], vocab)
    v = np.array([0.0, 1.0, 1.0])
    before, _ = sentence_loss(params, v, sent, 1.0, vocab)
    grads, _ = training.sentence_gradients(params, vocab, v, sent, 1.0,
                                           unroll=len(sent.ids))
    training.apply_update(params, grads, lr=1e-3)
    after, _ = sentence_loss(params, v, sent, 1.0, vocab)
    assert after.joint < before.joint


def test_checkpoint_round_trip_bit_exact(tmp_path):
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(30))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 0.75, {"root": 30})
    loaded, vocab2, meta = load_checkpoint(path)
    for name, arr in params.named_blocks():
        assert np.array_equal(arr, getattr(loaded, name))
    assert vocab2.tokens == vocab.tokens
    assert meta["lambda_recon"] == 0.75
    assert meta["seed_lineage"] == {"root": 30}
    # identical params serialize to identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, params, vocab, 0.75, {"root": 30})
    assert path.read_bytes() == path2.read_bytes()


def _dense_outputs(params, vocab, rng):
    """``word_distribution_rows`` at fixed random states and contexts, as
    bytes."""
    dims, n = params.dims, 6
    s = rng.uniform(0.01, 0.99, (n, dims.s_dim))
    u = rng.uniform(0.01, 0.99, (n, dims.u_dim)) if dims.uses_u else None
    _, fed = (rng.random((2, n)) * len(vocab)).astype(np.int64)
    bases = token_bases(dims, fed[None])[0]
    return [a.tobytes() for a in model.word_distribution_rows(params, s, u, bases, vocab)]


def _output_blocks(dims, a):
    """(name, view) of the dense online blocks in ``a`` = [[W_sc, b_c, W_uc],
    [W_sw, b_w, W_uw]], which maps [s, 1, u] to the class, then word logits:
    the layout of ``ModelParams.A``."""
    _, _, blocks = model.storage_groups(dims)[0]   # A comes first
    return [(name, a[index]) for name, _, index in blocks]


@pytest.mark.parametrize("variant", ["rnn", "full"])
def test_dense_blocks_are_views_of_one_output_matrix(tmp_path, variant):
    # ModelParams stores the dense online blocks once, as A: a write through
    # a block, apply_update or train_sentence shows in A, and every scorer
    # then reads what a container built from the written blocks reads.
    from bicap.training import TrainConfig, apply_update, gradcheck_setup, train_sentence

    params, vocab, example = gradcheck_setup(variant, seed=21)
    dims = params.dims
    dense = {name for name, _ in _output_blocks(dims, params.A)}
    assert params.A.shape == (dims.class_count + dims.vocab_size,
                              dims.s_dim + 1 + (dims.u_dim if dims.uses_u else 0))

    def rebuilt(p):
        return model.ModelParams(p.dims, dict(p.named_blocks()))

    def check_written(p, before):
        for name, view in _output_blocks(dims, p.A):
            assert np.shares_memory(getattr(p, name), p.A), name
            assert getattr(p, name).tobytes() == view.tobytes(), name
        after = _dense_outputs(p, vocab, SeededRng(5))
        assert after == _dense_outputs(rebuilt(p), vocab, SeededRng(5))
        assert all(x != y for x, y in zip(after, before))

    base = _dense_outputs(params, vocab, SeededRng(5))
    delta = 1e-3 * np.arange(params.A.size).reshape(params.A.shape)   # not softmax-invariant
    p = params.copy()
    for name, view in p.named_blocks():
        if name in dense:
            view += dict(_output_blocks(dims, delta))[name]
    assert np.array_equal(p.A, params.A + delta)
    check_written(p, base)

    p, grads = params.copy(), params.zeros_like()
    grads.A[...] = delta
    apply_update(p, grads, lr=1.0)
    assert np.array_equal(p.A, params.A - delta)
    check_written(p, base)

    p = params.copy()
    train_sentence(p, vocab, example.features, example.captions[0], TrainConfig(), 0.5)
    assert not np.array_equal(p.A, params.A)
    check_written(p, base)

    # batch-gradient containers hold no dense block, so no A
    batch = [n for n, _ in model.block_shapes(dims) if n not in model.ONLINE_BLOCKS]
    assert not hasattr(params.zeros_like(names=batch), "A")

    # copy(), load_checkpoint and the constructor each own their A
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    blocks = {name: arr.copy() for name, arr in params.named_blocks()}
    made = model.ModelParams(dims, blocks)
    for other in (params.copy(), load_checkpoint(path)[0], made):
        assert other.A.tobytes() == params.A.tobytes()
        assert not np.shares_memory(other.A, params.A)
        other.A += 1.0
        assert all(np.array_equal(getattr(other, name), arr + 1.0)
                   for name, arr in params.named_blocks() if name in dense)
    assert all(np.array_equal(blocks[name], arr) for name, arr in params.named_blocks())
    assert _dense_outputs(params, vocab, SeededRng(5)) == base


# sha256 of the checkpoint of ``_storage_params(variant)``, written by the
# per-block storage that held each block in its own array
_CHECKPOINT_SHA256 = {
    "rnn": "8be43905b0c0a0568237d2dfb6cef39e2f44819ffefa21d57840d8bff692ad7b",
    "rnn_if": "c180ede8fcf0fbc8663ae3e903c1b920fa60cce50d234cdb60f8536d8e6028d3",
    "full": "0128243878ae702a47066ec64ded6411eced4e888a25bafc4d723b288cf8adb2",
}


def _storage_params(variant):
    """``gradcheck_setup`` weights with max-entropy tables of exact,
    nonzero values."""
    from bicap.training import gradcheck_setup

    params, vocab, _ = gradcheck_setup(variant, seed=23)
    h = params.dims.maxent_hash_size
    params.me_class[:] = np.arange(h) * 0.25
    params.me_word[:] = np.arange(h) * -0.5
    return params, vocab


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_storage_groups_contract(tmp_path, variant):
    # every block is a view of one of the groups A, me and B; the input
    # layer W_in = [W_ws; W_wu] is one view of B; group-wise updates equal
    # the block-wise ones; the checkpoint format does not change
    from bicap.training import apply_update, clip_gradients

    params, vocab = _storage_params(variant)
    dims = params.dims
    groups = {group: blocks for group, _, blocks in model.storage_groups(dims)}
    assert [name for name, _ in params.named_groups()] == list(groups) == ["A", "me", "B"]
    assert sorted(n for members in groups.values() for n, _, _ in members) == \
        sorted(n for n, _ in model.block_shapes(dims))
    assert [n for n, _, _ in groups["B"]][:1 + dims.uses_u] == ["W_ws", "W_wu"][:1 + dims.uses_u]
    in_rows = dims.s_dim + dims.uses_u * dims.u_dim
    assert params.W_in.shape == (in_rows, dims.vocab_size)
    assert np.shares_memory(params.W_in, params.B)
    assert params.W_in.tobytes() == np.vstack(
        [params.W_ws] + ([params.W_wu] if dims.uses_u else [])).tobytes()
    ids = np.array([3, 0, 3, 11])
    assert model.input_columns(params, ids).tobytes() == np.hstack(
        [params.W_ws.T[ids]] + ([params.W_wu.T[ids]] if dims.uses_u else [])).tobytes()
    for group, members in groups.items():
        store = getattr(params, group)
        for name, shape, index in members:
            view = getattr(params, name)
            assert view.shape == shape and np.shares_memory(view, store), name
            assert view.tobytes() == store[index].tobytes(), name
            before = store.copy()
            view += 1.0   # a write through the view shows in its group alone
            assert np.count_nonzero(store != before) == view.size, name
            store[...] = before
    assert params.me_class.base is params.me and params.me_word.base is params.me
    assert params.me_class.size == params.me_word.size == dims.maxent_hash_size

    # copy() is independent of its source, both ways
    twin = params.copy()
    for group, store in params.named_groups():
        assert getattr(twin, group).tobytes() == store.tobytes()
        assert not np.shares_memory(getattr(twin, group), store)
    twin.B += 1.0
    twin.me += 1.0
    assert params.W_ws[0, 0] + 1.0 == twin.W_ws[0, 0]
    twin.A[...] = params.A + 1.0
    assert twin.W_sc[0, 0] == params.W_sc[0, 0] + 1.0

    # batch-gradient containers hold B alone
    batch = [n for n, _ in model.block_shapes(dims) if n not in model.ONLINE_BLOCKS]
    grads = params.zeros_like(names=batch)
    assert [name for name, _ in grads.named_groups()] == ["B"]
    assert not hasattr(grads, "A") and not hasattr(grads, "me")
    with pytest.raises(ValueError, match="part of group"):
        params.zeros_like(names=["W_sc"])

    # group-wise clip and update equal a per-block loop, byte for byte
    rng = np.random.default_rng(3)
    for names in (None, batch):
        for decay in (0.0, 0.01):
            g = params.zeros_like(names=names)
            for _, store in g.named_groups():
                store[:] = rng.normal(0.0, 10.0, store.shape)
            want, got = params.copy(), params.copy()
            for name, arr in g.named_blocks():
                block = np.clip(arr, -15.0, 15.0)
                target = getattr(want, name)
                if decay:
                    target -= 0.3 * (block + decay * target)
                else:
                    target -= 0.3 * block
            want.apply_vs_mask()
            apply_update(got, clip_gradients(g, 15.0), 0.3, weight_decay=decay)
            for name, arr in want.named_blocks():
                assert getattr(got, name).tobytes() == arr.tobytes(), (names, decay, name)

    # the checkpoint format is unchanged, and it loads into the groups
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == _CHECKPOINT_SHA256[variant]
    assert raw.endswith(b"".join(arr.tobytes() for _, arr in params.named_blocks()))
    loaded = load_checkpoint(path)[0]
    for group, store in params.named_groups():
        assert getattr(loaded, group).tobytes() == store.tobytes()
        assert getattr(loaded, group).flags.writeable


def test_checkpoint_rejects_corruption(tmp_path):
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(30))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_with_non_finite_weights_names_the_block(tmp_path, value):
    # the sha256 proves only that the bytes are the ones written
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(30))
    params.W_ss[0, 0] = value
    params.b_v[-1] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad checkpoint (ValueError: "
                                                   "block W_ss holds NaN or inf)")):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(30))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    return path.read_bytes()


def _header_len(raw):
    magic = len(model.CHECKPOINT_MAGIC)
    return magic + 8 + int.from_bytes(raw[magic:magic + 8], "big")


@pytest.mark.parametrize("cut", [
    lambda raw: 0,                          # empty file
    lambda raw: 5,                          # inside the magic
    lambda raw: len(model.CHECKPOINT_MAGIC) + 3,  # inside the length field
    lambda raw: _header_len(raw) // 2,      # inside the metadata JSON
    lambda raw: _header_len(raw) - 1,       # last header byte missing
    lambda raw: _header_len(raw),           # no payload at all
    lambda raw: _header_len(raw) + 1,       # one payload byte
    lambda raw: len(raw) - 8,               # last value missing
    lambda raw: len(raw) - 1,               # last byte missing
], ids=["empty", "magic", "length", "header", "header_end", "no_payload",
        "one_byte", "last_value", "last_byte"])
def test_truncated_checkpoint_names_path(tmp_path, cut):
    raw = _saved_checkpoint(tmp_path)
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes(raw[:cut(raw)])
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        load_checkpoint(bad)


def _rewrite_meta(raw, edit):
    start = len(model.CHECKPOINT_MAGIC) + 8
    end = _header_len(raw)
    meta = json.loads(raw[start:end])
    edit(meta)
    head = json.dumps(meta).encode("utf-8")
    return model.CHECKPOINT_MAGIC + len(head).to_bytes(8, "big") + head + raw[end:]


def _set_version(meta):
    meta["version"] = 2


def _rename_block(meta):
    meta["blocks"][0]["name"] = "W_xx"


def _reshape_block(meta):
    meta["blocks"][1]["shape"] = meta["blocks"][1]["shape"][::-1] + [1]


def _grow_dims(meta):
    meta["dims"]["s_dim"] += 2


def _rename_eos(meta):
    tokens = meta["vocab"]["tokens"]
    tokens[tokens.index("<eos>")] = "<end>"


def _other_vocab_hash(meta):
    meta["vocab_hash"] = "0" * 64


@pytest.mark.parametrize("edit, message", [
    (_set_version, "unsupported version 2"),
    (_rename_block, "do not match the dims"),
    (_reshape_block, "do not match the dims"),
    (_grow_dims, "do not match the dims"),
    (_rename_eos, "lack the reserved token <eos>"),
    (_other_vocab_hash, "vocabulary hash mismatch"),
], ids=["version", "renamed_block", "reshaped_block", "other_dims", "no_eos_token",
        "vocab_hash"])
def test_checkpoint_metadata_mismatch_names_path(tmp_path, edit, message):
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(_rewrite_meta(_saved_checkpoint(tmp_path), edit))
    with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
        load_checkpoint(bad)
    assert message in str(info.value)


@pytest.mark.parametrize("field, value", [("s_dim", 10.0), ("maxent_order", 3.0),
                                          ("maxent_order", True)],
                         ids=["float_s_dim", "float_order", "bool_order"])
def test_checkpoint_non_integer_dims_name_path_and_field(tmp_path, field, value):
    # a float s_dim used to raise a bare TypeError from slicing, and a float
    # or bool maxent_order used to load silently
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(_rewrite_meta(_saved_checkpoint(tmp_path),
                                  lambda meta: meta["dims"].update({field: value})))
    with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
        load_checkpoint(bad)
    assert f"{field} must be an integer, got {value!r}" in str(info.value)


def _drop_checksum(meta):
    del meta["payload_sha256"]


def _block(meta, name):
    return next(b for b in meta["blocks"] if b["name"] == name)


def _swap_offsets(meta):
    # W_ss and W_uu have one shape at s = u: each reads the other's bytes
    ss, uu = _block(meta, "W_ss"), _block(meta, "W_uu")
    ss["offset"], uu["offset"] = uu["offset"], ss["offset"]


def _alias_block(meta):
    _block(meta, "W_uu")["offset"] = _block(meta, "W_ss")["offset"]


def _grow_nbytes(meta):
    _block(meta, "b_s")["nbytes"] += 8


@pytest.mark.parametrize("edit, tail, message", [
    (_swap_offsets, b"", "block W_ss has offset"),
    (_alias_block, b"", "block W_uu has offset"),
    (_grow_nbytes, b"", "block b_s has offset"),
    (_drop_checksum, bytes(8), "last block me_word ends at byte"),
], ids=["swapped_offsets", "aliased_block", "nbytes", "trailing_payload"])
def test_checkpoint_block_layout_names_path_and_block(tmp_path, edit, tail, message):
    # the sha256 covers only the payload, so the header's layout is checked
    # on its own: offsets contiguous in block order, nbytes of the shape's
    # size, and the payload ending at the last block
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3, s_dim=8, u_dim=8), SeededRng(30))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, 1.0)
    bad = tmp_path / "layout.ckpt"
    bad.write_bytes(_rewrite_meta(path.read_bytes(), edit) + tail)
    with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
        load_checkpoint(bad)
    assert message in str(info.value)


@settings(max_examples=60, deadline=None)
@given(where=st.integers(min_value=0), mask=st.integers(1, 255))
def test_flipped_payload_byte_names_path(tmp_path_factory, where, mask):
    raw = bytearray(_saved_checkpoint(tmp_path_factory.mktemp("ckpt")))
    start = _header_len(raw)
    raw[start + where % (len(raw) - start)] ^= mask
    bad = tmp_path_factory.mktemp("flipped") / "flipped.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(str(bad))) as info:
        load_checkpoint(bad)
    assert "payload sha256" in str(info.value)


def test_checkpoint_without_checksum_still_loads(tmp_path):
    # files written before the checksum existed carry no payload_sha256
    raw = _saved_checkpoint(tmp_path)
    old = tmp_path / "old.ckpt"
    old.write_bytes(_rewrite_meta(raw, _drop_checksum))
    loaded, _, meta = load_checkpoint(old)
    _, _, current = load_checkpoint(tmp_path / "model.ckpt")
    assert "payload_sha256" not in meta and "payload_sha256" in current
    params = init_params(small_dims(_vocab5(), v_dim=3), SeededRng(30))
    for name, arr in params.named_blocks():
        assert np.array_equal(arr, getattr(loaded, name)), name
