import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicap import model
from bicap.corpus import EncodedSentence, build_vocab, encode
from bicap.inference import (ZSCORE_DECIMALS, GenConfig, activation_trace,
                             aggregate_ranks, generate, image_retrieval_task,
                             rank_retrieval, ranks_from_scores, recon_score,
                             recon_trajectory, sample_candidates, sample_length,
                             sample_sentence, score_candidate, score_matrices,
                             sentence_retrieval_task)
from bicap.model import (gallery_word_nll, init_params, maxent_bases, reset_state,
                         sentence_loss)
from bicap.numkit import SeededRng, multinomial_sample
from bicap.training import gradcheck_setup

from conftest import small_dims


def _vocab5(class_count=2):
    return build_vocab([["aa", "aa", "bb"], ["aa", "cc"]], class_count=class_count)


def test_sample_length_degenerate():
    rng = SeededRng(0)
    assert all(sample_length({7: 1.0}, rng) == 7 for _ in range(10))


def test_sample_length_deterministic():
    hist = {3: 4, 5: 2, 9: 1}
    a = [sample_length(hist, SeededRng(5)) for _ in range(1)]
    r1, r2 = SeededRng(5), SeededRng(5)
    seq1 = [sample_length(hist, r1) for _ in range(30)]
    seq2 = [sample_length(hist, r2) for _ in range(30)]
    assert seq1 == seq2


def test_sample_length_frequencies_chi_square():
    hist = {3: 0.5, 5: 0.5}
    rng = SeededRng(77)
    n = 10_000
    counts = {3: 0, 5: 0}
    for _ in range(n):
        counts[sample_length(hist, rng)] += 1
    chi2 = sum((counts[k] - 0.5 * n) ** 2 / (0.5 * n) for k in (3, 5))
    assert chi2 < 6.635  # 99% critical value, 1 dof


def test_sample_length_empty_hist_rejected():
    with pytest.raises(ValueError):
        sample_length({}, SeededRng(0))


def test_sample_sentence_length_and_masking():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(1))
    rng = SeededRng(9)
    v = np.array([1.0, 0.0, 0.5])
    for L in (1, 4, 9):
        sent = sample_sentence(params, vocab, v, L, rng)
        assert len(sent.ids) == L + 1
        assert sent.ids[-1] == vocab.eos_id
        assert vocab.eos_id not in sent.ids[:-1]
        assert vocab.unk_id not in sent.ids
        assert len(sent.tokens) == L
    with pytest.raises(ValueError):
        sample_sentence(params, vocab, v, 0, rng)


def _chain_model():
    """Hand-built model whose bigram features force a deterministic cycle
    aa -> bb -> cc -> aa (and <eos> -> aa to start)."""
    vocab = _vocab5(class_count=1)
    dims = small_dims(vocab, variant="rnn", maxent_order=2, maxent_hash_size=4099)
    params = model.ModelParams.zeros(dims)
    ids = {t: vocab.token_to_id[t] for t in ("aa", "bb", "cc")}
    cycle = {vocab.eos_id: ids["aa"], ids["aa"]: ids["bb"],
             ids["bb"]: ids["cc"], ids["cc"]: ids["aa"]}
    for prev, nxt in cycle.items():
        bases = maxent_bases(dims, (prev,))
        order2 = [b for b in bases if b[0] == 2]
        assert order2
        _, _, wbase = order2[0]
        params.me_word[(wbase + nxt) % dims.maxent_hash_size] = 60.0
    return params, vocab, cycle


def test_sample_sentence_follows_deterministic_chain():
    params, vocab, cycle = _chain_model()
    sent = sample_sentence(params, vocab, None, 6, SeededRng(123))
    # independent argmax chain from the full distribution
    expected = []
    state = reset_state(params)
    prev = vocab.eos_id
    for _ in range(6):
        state, out = step_forward(params, state, prev, vocab)
        dist = out.word_dist.copy()
        dist[vocab.eos_id] = 0.0
        dist[vocab.unk_id] = 0.0
        assert dist.max() / dist.sum() > 0.999  # genuinely deterministic
        prev = int(np.argmax(dist))
        expected.append(prev)
    assert sent.ids[:-1] == expected
    assert expected[0] == cycle[vocab.eos_id]
    assert expected[1] == cycle[expected[0]]


def step_forward(params, state, prev, vocab):
    return model.step(params, state, prev, None, vocab)


def test_score_candidate_matches_sentence_loss():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(4))
    sent = encode(["aa", "cc", "bb"], vocab)
    v = np.array([0.0, 1.0, 1.0])
    total, steps = sentence_loss(params, v, sent, 0.7, vocab)
    assert score_candidate(params, vocab, v, sent, 0.7) == total.joint
    assert total.joint == pytest.approx(sum(s.joint for s in steps), rel=1e-12)
    # lambda 0 reduces the score to the sentence NLL
    assert score_candidate(params, vocab, v, sent, 0.0) == pytest.approx(
        total.word_nll, rel=1e-12)


def test_generate_candidate_count_one_returns_single_sample():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(4))
    v = np.array([1.0, 1.0, 0.0])
    hist = {3: 2, 5: 1}
    cfg = GenConfig(length_hist=hist, candidate_count=1, lam_recon=1.0, seed=17)
    res = generate(params, vocab, v, cfg)
    rng = SeededRng(17)
    L = sample_length(hist, rng)
    expected = sample_sentence(params, vocab, v, L, rng)
    assert res.sentence.ids == expected.ids
    assert res.length == L
    assert len(res.candidate_scores) == 1


def test_generate_returns_minimum_score_deterministically():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(4))
    v = np.array([1.0, 0.0, 0.0])
    cfg = GenConfig(length_hist={4: 1.0}, candidate_count=25, lam_recon=1.0, seed=3)
    res1 = generate(params, vocab, v, cfg)
    res2 = generate(params, vocab, v, cfg)
    assert res1.sentence.ids == res2.sentence.ids
    assert res1.score == min(res1.candidate_scores)
    first_best = res1.candidate_scores.index(min(res1.candidate_scores))
    # earliest-index tie-break: everything before the winner scores worse
    assert all(s > res1.score for s in res1.candidate_scores[:first_best])



def _reference_candidates(params, vocab, v, hist, count, lam_recon, rng):
    """The one-candidate-at-a-time algorithm: draw the length, then sample
    each candidate with scalar ``step`` calls and score it with
    ``score_candidate``."""
    length = sample_length(hist, rng)
    cands, scores = [], []
    for _ in range(count):
        state = reset_state(params)
        prev = vocab.eos_id
        ids = []
        for _ in range(length):
            state, out = model.step(params, state, prev, v, vocab)
            dist = out.word_dist.copy()
            dist[vocab.eos_id] = 0.0
            dist[vocab.unk_id] = 0.0
            prev = multinomial_sample(dist / dist.sum(), rng)
            ids.append(prev)
        sent = EncodedSentence(ids=ids + [vocab.eos_id],
                               tokens=[vocab.tokens[i] for i in ids])
        cands.append(sent)
        scores.append(score_candidate(params, vocab, v, sent, lam_recon))
    return length, cands, scores


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(model.VARIANTS), order=st.sampled_from([0, 3]),
       seed=st.integers(0, 2 ** 16), count=st.integers(1, 7),
       hist=st.dictionaries(st.integers(1, 6), st.integers(1, 3), min_size=1),
       lam_recon=st.sampled_from([0.0, 1.0]))
def test_batched_generation_matches_sequential_reference(variant, order, seed, count,
                                                         hist, lam_recon):
    params, vocab, example = gradcheck_setup(variant, seed=seed, maxent_order=order)
    v = example.features
    length, cands, ref_scores = _reference_candidates(params, vocab, v, hist, count,
                                                      lam_recon, SeededRng(seed))
    rng = SeededRng(seed)
    assert sample_length(hist, rng) == length
    ids, scores = sample_candidates(params, vocab, v, rng.random((count, length)),
                                    lam_recon)
    assert ids.tolist() == [c.ids for c in cands]
    for got, ref in zip(scores, ref_scores):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    cfg = GenConfig(length_hist=hist, candidate_count=count, lam_recon=lam_recon, seed=seed)
    res = generate(params, vocab, v, cfg)
    assert res.length == length
    assert res.candidate_scores == scores.tolist()
    first = res.candidate_scores.index(min(res.candidate_scores))
    assert res.score == res.candidate_scores[first]
    assert res.sentence.ids == cands[first].ids
    assert res.sentence.ids == cands[ref_scores.index(min(ref_scores))].ids


def test_batched_generation_rejects_bad_features():
    for variant in ("rnn_if", "full"):
        params, vocab, _ = gradcheck_setup(variant, seed=2)
        for v in (np.zeros(3), np.zeros((1, 4)), None):
            with pytest.raises(ValueError, match="dim 4"):
                sample_candidates(params, vocab, v, np.full((2, 3), 0.5), 1.0)
            with pytest.raises(ValueError, match="dim 4"):
                sample_sentence(params, vocab, v, 3, SeededRng(0))
    params, vocab, _ = gradcheck_setup("rnn", seed=2)
    ids, _ = sample_candidates(params, vocab, None, np.full((2, 3), 0.5), 1.0)
    assert ids.shape == (2, 4)


def test_batched_generation_no_mass_left_is_loud():
    # <eos> and <unk> take all the mass: their classes and their member
    # logits dwarf every other word's, whose probabilities underflow to 0.
    params, vocab, _ = gradcheck_setup("rnn", seed=3, maxent_order=0)
    params = model.ModelParams.zeros(params.dims)
    for tid in (vocab.eos_id, vocab.unk_id):
        params.b_c[vocab.class_of(tid)] = 1000.0
        params.b_w[tid] = 1000.0
    with pytest.raises(ValueError, match="no probability mass left"):
        sample_candidates(params, vocab, None, np.full((3, 2), 0.5), 1.0)
    with pytest.raises(ValueError, match="no probability mass left"):
        generate(params, vocab, None, GenConfig(length_hist={2: 1}, candidate_count=3))


def test_recon_score_zero_weight_model():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3)
    params = model.ModelParams.zeros(dims)
    sent = encode(["aa", "bb"], vocab)
    v = np.array([1.0, 0.0, 1.0])
    assert recon_score(params, sent, v) == pytest.approx(-3 * math.log(2.0), rel=1e-12)


def test_recon_trajectory_ignores_features_and_matches_score():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(8))
    sent = encode(["cc", "aa", "bb"], vocab)
    traj = recon_trajectory(params, sent)
    assert traj.shape == (len(sent.ids), 3)
    for v in (np.array([1.0, 0.0, 0.0]), np.array([0.2, 0.9, 0.4])):
        ce = -(v * np.log(traj) + (1 - v) * np.log(1 - traj)).sum(axis=1).mean()
        assert recon_score(params, sent, v) == pytest.approx(-ce, rel=1e-12)


def test_recon_requires_visual_memory_variant():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, variant="rnn_if", v_dim=3), SeededRng(8))
    with pytest.raises(ValueError):
        recon_trajectory(params, encode(["aa"], vocab))


def test_ranks_from_scores_hand_case_and_ties():
    scores = [[0.2, 0.9, 0.5],
              [0.7, 0.7, 0.1]]
    ranked, ranks = ranks_from_scores(scores, [{0}, {1}])
    assert ranked[0] == [1, 2, 0]
    assert ranks[0] == 3
    # tie between gallery 0 and 1 resolves to the earlier index
    assert ranked[1] == [0, 1, 2]
    assert ranks[1] == 2


def test_ranks_identity_scores_rank_everything_first():
    n = 6
    ranked, ranks = ranks_from_scores(np.eye(n), [{i} for i in range(n)])
    assert ranks == [1] * n
    res = aggregate_ranks(ranked, ranks)
    assert res.r_at[1] == 100.0
    assert res.mean_rank == 1.0 and res.median_rank == 1.0


def test_ranks_require_ground_truth():
    with pytest.raises(ValueError):
        ranks_from_scores(np.eye(2), [{0}, set()])


def test_aggregate_r_at_k_monotone_random_runs():
    rng = SeededRng(15)
    for _ in range(10):
        scores = rng.uniform(0, 1, (20, 30))
        truth = [{rng.integers(0, 30)} for _ in range(20)]
        ranked, ranks = ranks_from_scores(scores, truth)
        res = aggregate_ranks(ranked, ranks)
        assert res.r_at[1] <= res.r_at[5] <= res.r_at[10]
        assert 1 <= min(ranks) and max(ranks) <= 30


def test_random_scores_monte_carlo_mean_rank():
    # 1000 random galleries of 50: the ground-truth rank is uniform, so the
    # mean rank concentrates near (50+1)/2 = 25.5
    rng = SeededRng(2024)
    scores = rng.uniform(0, 1, (1000, 50))
    truth = [{rng.integers(0, 50)} for _ in range(1000)]
    _, ranks = ranks_from_scores(scores, truth)
    assert abs(float(np.mean(ranks)) - 25.5) < 2.0


def test_rank_retrieval_single_item_gallery(tiny_dataset):
    params = init_params(small_dims(tiny_dataset.vocab, v_dim=6), SeededRng(2))
    examples = tiny_dataset.split("test")[:1]
    queries = [examples[0].features]
    gallery = [examples[0].captions[0]]
    res = rank_retrieval(params, tiny_dataset.vocab, queries, gallery, [{0}], mode="t")
    assert res.r_at[1] == 100.0 and res.mean_rank == 1.0


def test_rank_retrieval_runs_all_modes(tiny_dataset):
    params = init_params(small_dims(tiny_dataset.vocab, v_dim=6), SeededRng(2))
    queries, gallery, truth = sentence_retrieval_task(tiny_dataset, "test")
    for mode in ("t", "i", "ti"):
        res = rank_retrieval(params, tiny_dataset.vocab, queries, gallery, truth,
                             mode=mode)
        assert res.r_at[1] <= res.r_at[5] <= res.r_at[10]
        assert len(res.ranks) == len(queries)
    with pytest.raises(ValueError):
        rank_retrieval(params, tiny_dataset.vocab, queries, gallery, truth,
                       mode="nope")


# Features come from a coarse grid, so two gallery images either are the same
# vector (an exact tie, which both paths must break by index) or differ by
# far more than rounding. Over a two-item gallery the z-scored T+I sum ties
# exactly whenever T and I disagree; both paths round it to
# ``ZSCORE_DECIMALS`` so the tie stays exact. Groups hold at most two
# sentences, whose sum does not depend on their order.
_grid_feature = st.lists(st.integers(0, 4).map(lambda k: k / 4.0), min_size=4, max_size=4)
_words = st.lists(st.sampled_from([f"w{i}" for i in range(10)]), min_size=1, max_size=6)


@st.composite
def _retrieval_case(draw):
    variant = draw(st.sampled_from(model.VARIANTS))
    params, vocab, _ = gradcheck_setup(variant, seed=draw(st.integers(0, 2 ** 16)))
    feats = [np.array(f) for f in draw(st.lists(_grid_feature, min_size=1, max_size=7))]
    sentence = _words.map(lambda toks: encode(toks, vocab))
    item = st.one_of(sentence, st.lists(sentence, min_size=2, max_size=2).map(tuple))
    items = draw(st.lists(item, min_size=1, max_size=4))
    if draw(st.booleans()):
        queries, gallery = items, feats     # sentences rank images
    else:
        queries, gallery = feats, items     # images rank sentences
    truth = [{draw(st.integers(0, len(gallery) - 1))} for _ in queries]
    return params, vocab, feats, items, queries, gallery, truth


def _sentences(item):
    return item if isinstance(item, tuple) else (item,)


def _zscore(x):
    std = x.std()
    return (x - x.mean()) / std if std > 0 else np.zeros_like(x)


def _scalar_ranking(params, vocab, queries, gallery, mode):
    """Per-query rankings from scalar ``sentence_loss`` and ``recon_score``
    calls, one (features, item) pair at a time."""
    ranked = []
    for q in queries:
        pairs = [(q, g) if isinstance(q, np.ndarray) else (g, q) for g in gallery]
        t = np.array([-sum(sentence_loss(params, v, s, 0.0, vocab)[0].word_nll
                           for s in _sentences(item)) for v, item in pairs])
        if mode == "t":
            e = np.exp(t - t.max())
            score = e / e.sum()
        else:
            i = np.array([recon_score(params, item, v) for v, item in pairs])
            score = np.round(_zscore(t) + _zscore(i), ZSCORE_DECIMALS)
        ranked.append(sorted(range(len(gallery)), key=lambda j: (-score[j], j)))
    return ranked


@settings(max_examples=60, deadline=None)
@given(_retrieval_case())
def test_gallery_scorer_matches_scalar_loss_and_ranking(case):
    params, vocab, feats, items, queries, gallery, truth = case
    f = np.stack(feats)
    for item in items:
        for sent in _sentences(item):
            batched = gallery_word_nll(params, f, sent, vocab)
            assert batched.shape == (len(feats),)
            for row, v in zip(batched, feats):
                assert abs(row - sentence_loss(params, v, sent, 0.0, vocab)[0].word_nll) <= 1e-12
    for mode in ("t", "ti") if params.dims.uses_u else ("t",):
        res = rank_retrieval(params, vocab, queries, gallery, truth, mode=mode)
        assert res.ranked_ids == _scalar_ranking(params, vocab, queries, gallery, mode)


def test_two_item_ti_tie_goes_to_earlier_item():
    # T and I rank these two images oppositely, so each z-scored row is +-1
    # and the sum ties; unrounded, rounding noise puts the second image first.
    params, vocab, _ = gradcheck_setup("full", seed=0)
    sent = encode(["w0"], vocab)
    feats = [np.zeros(4), np.array([0.0, 0.0, 0.5, 0.5])]
    t, i = score_matrices(params, vocab, [sent], feats)
    assert (t[0, 0] - t[0, 1]) * (i[0, 0] - i[0, 1]) < 0
    for gallery in (feats, feats[::-1]):
        res = rank_retrieval(params, vocab, [sent], gallery, [{0}], mode="ti")
        assert res.ranked_ids == [[0, 1]]


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_scorer_identical_rows_score_identically(variant):
    # At s = 32 with 7 rows the BLAS product for the member logits rounds
    # identical rows differently by where they sit; with this seed that
    # reaches the NLL unless repeated rows are scored once.
    params, vocab, example = gradcheck_setup(variant, seed=10, s_dim=32, u_dim=8)
    sent = example.captions[0]
    nll = gallery_word_nll(params, np.tile(example.features, (7, 1)), sent, vocab)
    assert np.all(nll == nll[0])
    assert abs(nll[0] - sentence_loss(params, example.features, sent, 0.0,
                                      vocab)[0].word_nll) <= 1e-12


def test_gallery_scorer_rejects_bad_shapes():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    with pytest.raises(ValueError, match="matrix"):
        gallery_word_nll(params, example.features, sent, vocab)
    with pytest.raises(ValueError, match="matrix"):
        gallery_word_nll(params, np.zeros((3, 5)), sent, vocab)
    with pytest.raises(ValueError, match="eos"):
        gallery_word_nll(params, example.features[None],
                         EncodedSentence(ids=sent.ids[:-1], tokens=sent.tokens), vocab)


def test_i_mode_rejected_without_visual_memory(tiny_dataset):
    params = init_params(small_dims(tiny_dataset.vocab, variant="rnn_if", v_dim=6),
                         SeededRng(2))
    queries, gallery, truth = sentence_retrieval_task(tiny_dataset, "test")
    with pytest.raises(ValueError):
        rank_retrieval(params, tiny_dataset.vocab, queries, gallery, truth, mode="i")


def test_retrieval_task_builders(tiny_dataset):
    n_test = len(tiny_dataset.split("test"))
    q, g, t = sentence_retrieval_task(tiny_dataset, "test")
    assert len(q) == n_test
    assert len(g) == sum(len(ex.captions) for ex in tiny_dataset.split("test"))
    assert all(ts for ts in t)
    qc, gc, tc = sentence_retrieval_task(tiny_dataset, "test", concat=True)
    assert len(gc) == n_test and all(len(grp) == 2 for grp in gc)
    qi, gi, ti = image_retrieval_task(tiny_dataset, "test")
    assert len(gi) == n_test
    assert len(qi) == len(g)
    with pytest.raises(ValueError):
        sentence_retrieval_task(tiny_dataset, "no-such-split")
    with pytest.raises(ValueError):
        image_retrieval_task(tiny_dataset, "no-such-split")


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_activation_trace_rows_are_the_step_states(variant):
    params, vocab, example = gradcheck_setup(variant, seed=12)
    sent = example.captions[0]
    trace = activation_trace(params, vocab, example.features, sent)
    assert (trace.u_rows is None) == (variant != "full")
    state, prev = reset_state(params), sent.ids[-1]
    for t, target in enumerate(sent.ids):
        state, _ = model.step(params, state, prev, example.features, vocab)
        assert trace.tokens[t] == vocab.tokens[prev]
        assert trace.s_rows[t].tobytes() == state.s.tobytes()
        if state.u is not None:
            assert trace.u_rows[t].tobytes() == state.u.tobytes()
        prev = target
    assert len(trace.tokens) == len(sent.ids)
    if variant != "rnn":
        with pytest.raises(ValueError, match="feature vector"):
            activation_trace(params, vocab, example.features[:-1], sent)


def test_activation_trace_shape_and_range(tiny_dataset):
    params = init_params(small_dims(tiny_dataset.vocab, v_dim=6), SeededRng(2))
    ex = tiny_dataset.split("test")[0]
    sent = ex.captions[0]
    trace = activation_trace(params, tiny_dataset.vocab, ex.features, sent)
    T = len(sent.ids)
    assert len(trace.tokens) == T
    assert trace.s_rows.shape == (T, params.dims.s_dim)
    assert trace.u_rows.shape == (T, params.dims.u_dim)
    assert np.all(trace.s_rows > 0) and np.all(trace.s_rows < 1)
    assert np.all(trace.u_rows > 0) and np.all(trace.u_rows < 1)
    assert trace.stability_s.shape == (params.dims.s_dim,)
    assert trace.stability_u.shape == (params.dims.u_dim,)
    tsv = trace.to_tsv()
    lines = tsv.strip().split("\n")
    assert len(lines) == T + 1
    assert lines[0].split("\t")[0] == "token"
    assert len(lines[1].split("\t")) == 1 + params.dims.s_dim + params.dims.u_dim
