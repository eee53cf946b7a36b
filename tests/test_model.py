import dataclasses
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
                         reset_state, save_checkpoint, sentence_loss, step,
                         word_distribution)
from bicap.numkit import SeededRng

from conftest import small_dims


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
    ("s_dim", 0), ("s_dim", -2), ("u_dim", 0),
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
        lo, hi = vocab.class_range(c)
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
        lo, hi = vocab.class_range(c)
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
    cache = {}
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
        qw, p = model.word_distribution_rows(params, s, u, contexts, vocab, cache)
        dist = qw * p
        assert dist.shape == (n, len(vocab))
        assert np.all(np.abs(dist.sum(axis=1) - 1.0) <= 1e-12)
        for i in range(n):
            expected = word_distribution(params, s[i], None if u is None else u[i],
                                         contexts[i], vocab)
            assert np.all(np.abs(dist[i] - expected) <= 1e-12)


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


def test_sentence_loss_requires_eos_termination():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    with pytest.raises(ValueError):
        sentence_loss(params, np.zeros(3), EncodedSentence(ids=[0], tokens=["aa"]),
                      1.0, vocab)


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
    for t in range(len(sent.ids)):
        model.output_step(params, a, t)
        model.output_step(perturbed, b, t)
    assert a.word_nll != b.word_nll


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
    training.apply_update(params, grads, lr=1e-3, blocks="all")
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


@pytest.mark.parametrize("edit, message", [
    (_set_version, "unsupported version 2"),
    (_rename_block, "do not match the dims"),
    (_reshape_block, "do not match the dims"),
    (_grow_dims, "do not match the dims"),
], ids=["version", "renamed_block", "reshaped_block", "other_dims"])
def test_checkpoint_metadata_mismatch_names_path(tmp_path, edit, message):
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(_rewrite_meta(_saved_checkpoint(tmp_path), edit))
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


def _drop_checksum(meta):
    del meta["payload_sha256"]


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
