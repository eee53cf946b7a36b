import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bicap import inference, model
from bicap.corpus import EncodedSentence, build_vocab, encode
from bicap.inference import (ZSCORE_DECIMALS, GenConfig, activation_trace,
                             aggregate_ranks, generate, image_retrieval_task,
                             rank_retrieval, ranks_from_scores,
                             recon_trajectory, sample_candidates, sample_length,
                             sample_sentence, score_candidate, score_matrices,
                             sentence_retrieval_task)
from bicap.metrics import perplexity_of_pairs
from bicap.model import (gallery_scores, init_params, maxent_bases, reset_state,
                         sentence_loss)
from bicap.numkit import SeededRng, multinomial_sample, sigmoid_clipped
from bicap.training import gradcheck_setup

from conftest import (VARIANT_WIDTHS, class_of, recon_score, small_dims,
                      with_one_member_class)


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


@pytest.mark.parametrize("lam_recon", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_gen_config_rejects_bad_lam_recon(lam_recon):
    # a NaN weight would make every candidate score NaN and pick candidate 0
    with pytest.raises(ValueError, match="lam_recon"):
        GenConfig(length_hist={3: 1}, lam_recon=lam_recon)


@pytest.mark.parametrize("hist", [{3: 0}, {3: 0, 4: 0.0}, {0: 1}, {-2: 1}, {2.0: 1},
                                  {True: 1}, {"3": 1}, {3: -1}, {3: 1, 4: -0.5},
                                  {3: math.nan}, {3: math.inf}, {3: 1, 4: math.inf}, {}])
def test_gen_config_rejects_bad_length_hist(hist):
    with pytest.raises(ValueError, match="length_hist"):
        GenConfig(length_hist=hist)


@pytest.mark.parametrize("field, value", [("candidate_count", 2.5), ("candidate_count", True),
                                          ("seed", 1.5), ("seed", True)])
def test_gen_config_rejects_non_integer_settings(field, value):
    with pytest.raises(ValueError, match=field):
        GenConfig(length_hist={3: 1}, **{field: value})


def test_gen_config_accepts_zero_weights_with_positive_sum():
    cfg = GenConfig(length_hist={np.int64(3): 0, 5: 2.5}, lam_recon=0.0)
    assert all(sample_length(cfg.length_hist, SeededRng(k)) == 5 for k in range(5))


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
@given(variant=st.sampled_from(model.VARIANTS), order=st.sampled_from([0, 1, 2, 3, 4]),
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


def _random_tables(params, rng):
    """Max-entropy tables drawn at random: ``init_params`` leaves them at
    zero, where any bases would give the same scores."""
    for table in (params.me_class, params.me_word):
        table[...] = rng.uniform(-1.0, 1.0, table.shape)
    return params


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(model.VARIANTS), order=st.sampled_from([1, 2, 3, 4]),
       hash_size=st.sampled_from([257, 5]), seed=st.integers(0, 2 ** 16),
       count=st.integers(1, 5), length=st.integers(1, 6))
def test_batched_generation_reads_maxent_tables_as_the_reference(variant, order, hash_size,
                                                                  seed, count, length):
    # each candidate's newest bases come from the last order - 1 fed ids;
    # a window one column short would read other table entries
    params, vocab, example = gradcheck_setup(variant, seed=seed, maxent_order=order,
                                             maxent_hash_size=hash_size)
    _random_tables(params, SeededRng(seed).derive("tables"))
    hist = {length: 1}
    _, cands, ref_scores = _reference_candidates(params, vocab, example.features, hist,
                                                 count, 1.0, SeededRng(seed))
    rng = SeededRng(seed)
    sample_length(hist, rng)
    ids, scores = sample_candidates(params, vocab, example.features,
                                    rng.random((count, length)), 1.0)
    assert ids.tolist() == [c.ids for c in cands]
    for got, ref in zip(scores, ref_scores):
        assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("variant", model.VARIANTS)
@pytest.mark.parametrize("count", [12, 4])
@pytest.mark.parametrize("length", [1, 6])
@pytest.mark.parametrize("lone_class", [False, True])
def test_batched_generation_at_bundle_width(variant, count, length, lone_class):
    # s = u = 32 as in the bundle; 12 candidates is the vocabulary size and
    # 4 the class count, where a (vocab, candidates) array read with its
    # axes swapped broadcasts silently instead of raising; hash size 5
    # collides the max-entropy windows, and ``lone_class`` leaves <eos>
    # alone in its class
    params, vocab, example = gradcheck_setup(variant, seed=11, s_dim=32, u_dim=32,
                                             maxent_hash_size=5)
    assert (len(vocab), vocab.n_classes) == (12, 4)
    if lone_class:
        vocab = with_one_member_class(vocab)
    _random_tables(params, SeededRng(count + length).derive("tables"))
    hist = {length: 1}
    _, cands, ref_scores = _reference_candidates(params, vocab, example.features, hist,
                                                 count, 1.0, SeededRng(length))
    rng = SeededRng(length)
    sample_length(hist, rng)
    ids, scores = sample_candidates(params, vocab, example.features,
                                    rng.random((count, length)), 1.0)
    assert ids.tolist() == [c.ids for c in cands]
    for got, ref in zip(scores, ref_scores):
        assert abs(got - ref) <= 1e-12 * abs(ref)


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
        params.b_c[class_of(vocab, tid)] = 1000.0
        params.b_w[tid] = 1000.0
    with pytest.raises(ValueError, match="no probability mass left"):
        sample_candidates(params, vocab, None, np.full((3, 2), 0.5), 1.0)
    with pytest.raises(ValueError, match="no probability mass left"):
        generate(params, vocab, None, GenConfig(length_hist={2: 1}, candidate_count=3))


@pytest.mark.parametrize("bad", [1.0, math.nan, -0.5, math.inf, np.nextafter(0.0, -1.0)])
def test_bad_uniforms_are_rejected(bad):
    # a 1.0 used to sample <unk>, past the mask, and NaN or -0.5 id 0
    params, vocab, example = gradcheck_setup("full", seed=2)
    uniforms = np.full((3, 4), 0.5)
    uniforms[1, 2] = bad
    with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
        sample_candidates(params, vocab, example.features, uniforms, 1.0)


@pytest.mark.parametrize("shape", [(3, 0), (4,), (2, 3, 1)])
def test_uniforms_not_a_candidates_by_length_block_are_rejected(shape):
    params, vocab, example = gradcheck_setup("full", seed=2)
    with pytest.raises(ValueError, match="length must be >= 1"):
        sample_candidates(params, vocab, example.features, np.full(shape, 0.5), 1.0)


def _grouped_setup(variant, seed):
    """Bundle-width model on the 12-token vocabulary with random max-ent
    tables, whose candidates share many prefixes."""
    params, vocab, example = gradcheck_setup(variant, seed=seed, s_dim=32, u_dim=32,
                                             maxent_hash_size=5)
    return _random_tables(params, SeededRng(seed).derive("tables")), vocab, example.features


def _advance_rows_recorder(monkeypatch):
    """Wrap ``inference.advance_rows`` to record a copy of each step's new
    rows."""
    steps = []

    def recording(params, pre, prev, drive, out):
        out = model.advance_rows(params, pre, prev, drive, out)
        steps.append(out.copy())
        return out

    monkeypatch.setattr(inference, "advance_rows", recording)
    return steps


@pytest.mark.parametrize("variant", model.VARIANTS)
@pytest.mark.parametrize("length", [1, 5])
def test_permuted_uniform_rows_permute_ids_and_scores(monkeypatch, variant, length):
    # a step's rows are the distinct prefixes in sorted order, so they and
    # every candidate's ids and score do not depend on the candidates' order
    params, vocab, v = _grouped_setup(variant, seed=21)
    uniforms = SeededRng(length).random((40, length))
    perm = np.arange(40)
    SeededRng(length).derive("order").shuffle(perm)
    steps = _advance_rows_recorder(monkeypatch)
    ids, scores = sample_candidates(params, vocab, v, uniforms, 1.0)
    rows = steps[:]
    steps.clear()
    ids_p, scores_p = sample_candidates(params, vocab, v, uniforms[perm], 1.0)
    assert [r.tobytes() for r in steps] == [r.tobytes() for r in rows]
    assert ids_p.tobytes() == ids[perm].tobytes()
    assert scores_p.tobytes() == scores[perm].tobytes()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_identical_uniform_rows_give_identical_candidates(variant):
    params, vocab, v = _grouped_setup(variant, seed=8)
    length, rng = 5, SeededRng(8)
    base = rng.random((12, length))
    _, scores = sample_candidates(params, vocab, v, base, 1.0)
    best = int(np.argmin(scores))
    # the best row twice, after rows that score worse and between others
    picks = [k for k in range(12) if k != best][:3] + [best] + [(best + 1) % 12, best]
    uniforms = base[picks]
    ids, scores = sample_candidates(params, vocab, v, uniforms, 1.0)
    assert ids[3].tobytes() == ids[5].tobytes()
    assert scores[3].tobytes() == scores[5].tobytes()
    # each candidate draws from its own prefix's distribution: alone it draws the same
    for row, want, score in zip(uniforms, ids, scores):
        alone, alone_score = sample_candidates(params, vocab, v, row[None], 1.0)
        assert alone[0].tolist() == want.tolist()
        assert abs(alone_score[0] - score) <= 1e-12 * abs(score)

    class Uniforms:   # a histogram of one length draws it whatever the uniform
        def random(self, size=None):
            return 0.0 if size is None else uniforms

    res = generate(params, vocab, v, GenConfig(length_hist={length: 1},
                                               candidate_count=len(picks)), rng=Uniforms())
    assert res.candidate_scores == scores.tolist()
    assert res.candidate_scores.index(min(res.candidate_scores)) == 3
    assert res.score == res.candidate_scores[3] and res.sentence.ids == ids[3].tolist()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_each_step_advances_one_row_per_distinct_prefix(monkeypatch, variant):
    params, vocab, v = _grouped_setup(variant, seed=4)
    steps = _advance_rows_recorder(monkeypatch)
    ids, _ = sample_candidates(params, vocab, v, SeededRng(4).random((100, 6)), 1.0)
    want = [len({tuple(row) for row in ids[:, :t].tolist()}) for t in range(7)]
    assert [len(rows) for rows in steps] == want
    assert want[0] == 1 and want[1] < want[-1] <= 100


def test_recon_score_zero_weight_model():
    vocab = _vocab5()
    dims = small_dims(vocab, v_dim=3)
    params = model.ModelParams.zeros(dims)
    sent = encode(["aa", "bb"], vocab)
    v = np.array([1.0, 0.0, 1.0])
    assert recon_score(params, vocab, sent, v) == pytest.approx(-3 * math.log(2.0), rel=1e-12)


def test_recon_trajectory_ignores_features_and_matches_score():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, v_dim=3), SeededRng(8))
    sent = encode(["cc", "aa", "bb"], vocab)
    traj = recon_trajectory(params, vocab, sent)
    assert traj.shape == (len(sent.ids), 3)
    for v in (np.array([1.0, 0.0, 0.0]), np.array([0.2, 0.9, 0.4])):
        ce = -(v * np.log(traj) + (1 - v) * np.log(1 - traj)).sum(axis=1).mean()
        assert recon_score(params, vocab, sent, v) == pytest.approx(-ce, rel=1e-12)


def test_recon_requires_visual_memory_variant():
    vocab = _vocab5()
    params = init_params(small_dims(vocab, variant="rnn_if", v_dim=3), SeededRng(8))
    with pytest.raises(ValueError):
        recon_trajectory(params, vocab, encode(["aa"], vocab))


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


@pytest.mark.parametrize("count", [1, 2, 3, 8, 99, 1000])
def test_aggregate_ranks_equal_numpy_statistics(count):
    ranks = np.random.default_rng(count).integers(1, 1001, count).tolist()
    res = aggregate_ranks([], ranks)
    arr = np.asarray(ranks)
    assert res.ranks == ranks
    assert res.r_at == {k: 100.0 * float((arr <= k).mean()) for k in (1, 5, 10)}
    assert type(res.median_rank) is float and res.median_rank == float(np.median(arr))
    assert type(res.mean_rank) is float and res.mean_rank == float(arr.mean())


def test_ranks_require_ground_truth():
    with pytest.raises(ValueError):
        ranks_from_scores(np.eye(2), [{0}, set()])


@pytest.mark.parametrize("truth, message", [
    ([{0}, {5}], "query 1 has ground-truth index 5 outside the gallery"),
    ([{-1}, {1}], "query 0 has ground-truth index -1 outside the gallery"),
    ([{0}], "query 1 has no ground-truth set: 1 sets for 2 queries"),
    ([{0}, {1}, {7}], "3 ground-truth sets for 2 queries"),
    ([{0}, {1.0}], "query 1 has ground-truth index 1.0 outside the gallery"),
    ([{True}, {1}], "query 0 has ground-truth index True outside the gallery"),
], ids=["index_past_gallery", "negative_index", "short_truth", "long_truth", "float_index",
        "bool_index"])
def test_ranks_reject_bad_ground_truth(truth, message):
    with pytest.raises(ValueError, match=message):
        ranks_from_scores(np.eye(2), truth)


def test_nan_scores_name_their_query_and_minus_inf_ranks_last():
    scores = np.array([[0.3, -np.inf, 0.1], [0.2, np.nan, 0.5], [np.nan] * 3])
    with pytest.raises(ValueError, match="query 1 has a NaN score"):
        ranks_from_scores(scores, [{0}, {1}, {2}])
    assert ranks_from_scores(scores[:1], [{1}]) == ([[0, 2, 1]], [3])
    assert ranks_from_scores([[-np.inf, -np.inf]], [{1}]) == ([[0, 1]], [2])


@pytest.mark.parametrize("combine, want", [("rank", [2, 0, 1]), ("zscore", [2, 1, 0])])
def test_ti_names_a_nan_query_and_ranks_minus_inf_by_its_combine(monkeypatch, combine, want):
    # rank averaging ranks T's -inf last; the z-scored sum counts a T row
    # holding -inf as 0, so I alone orders the gallery
    t = np.array([[-1.0, -np.inf, -2.0], [-1.0, -2.0, -3.0]])
    i = np.array([[-3.0, -2.0, -1.0], [-1.0, -2.0, np.nan]])
    monkeypatch.setattr(inference, "score_matrices",
                        lambda params, vocab, queries, gallery: (t[:len(queries)],
                                                                 i[:len(queries)]))
    with pytest.raises(ValueError, match="query 1 has a NaN score"):
        rank_retrieval(None, None, [0, 1], [0, 1, 2], [{0}, {0}], mode="ti", combine=combine)
    got = rank_retrieval(None, None, [0], [0, 1, 2], [{1}], mode="ti", combine=combine)
    assert got.ranked_ids == [want] and got.ranks == [want.index(1) + 1]


@pytest.mark.parametrize("direction", ["image", "sentence"])
def test_nan_weights_fail_retrieval_in_every_mode(direction):
    # NaN in W_ss reaches T only, NaN in W_uv reaches I only; every mode that
    # reads a NaN matrix raises, and I, which never reads W_ss, still ranks
    clean, vocab, example = gradcheck_setup("full", seed=1)
    rng = np.random.default_rng(1)
    feats = [example.features] + [rng.uniform(0.0, 1.0, 4) for _ in range(2)]
    sents = [example.captions[0], encode(["w2"], vocab), encode(["w5", "w1"], vocab)]
    if direction == "image":
        queries, gallery, truth = sents[:1], feats, [{0}]
    else:
        queries, gallery, truth = feats, sents, [{0}, {1}, {2}]
    for block, modes in (("W_ss", ("t", "ti")), ("W_uv", ("i", "ti"))):
        params = clean.copy()
        getattr(params, block)[...] = np.nan
        for mode in modes:
            for combine in ("zscore", "rank"):
                with pytest.raises(ValueError, match="query 0 has a NaN score"):
                    rank_retrieval(params, vocab, queries, gallery, truth, mode=mode,
                                   combine=combine)
        if block == "W_ss":
            assert (rank_retrieval(params, vocab, queries, gallery, truth, mode="i")
                    == rank_retrieval(clean, vocab, queries, gallery, truth, mode="i"))


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


@pytest.mark.parametrize("truth, mode, combine, message", [
    ([{0}], "t", "zscore", "query 1 has no ground-truth set: 1 sets for 2 queries"),
    ([{0}, {1}, {2}], "t", "zscore", "3 ground-truth sets for 2 queries"),
    ([{0}, {1}], "ti", "sum", "combine must be 'zscore' or 'rank'"),
    ([{0}, {1}], "it", "zscore", "mode must be 't', 'i' or 'ti'"),
])
def test_rank_retrieval_rejects_bad_settings(tiny_dataset, truth, mode, combine, message):
    params = init_params(small_dims(tiny_dataset.vocab, v_dim=6), SeededRng(2))
    examples = tiny_dataset.split("test")[:2]
    with pytest.raises(ValueError, match=re.escape(message)):
        rank_retrieval(params, tiny_dataset.vocab, [ex.captions[0] for ex in examples],
                       [ex.features for ex in examples], truth, mode=mode, combine=combine)


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
_words = st.lists(st.sampled_from([f"w{i}" for i in range(10)]), min_size=0, max_size=6)


def _case_model(variant, seed, hash_size, lone_class, order=3):
    """``gradcheck_setup``'s model; a hash size below the vocabulary size
    wraps and collides the max-entropy windows within one step, and
    ``lone_class`` leaves <eos> alone in its class."""
    params, vocab, _ = gradcheck_setup(variant, seed=seed, maxent_order=order,
                                       maxent_hash_size=hash_size)
    return params, with_one_member_class(vocab) if lone_class else vocab


@st.composite
def _retrieval_case(draw):
    variant = draw(st.sampled_from(model.VARIANTS))
    params, vocab = _case_model(variant, draw(st.integers(0, 2 ** 16)),
                                draw(st.sampled_from([257, 5])), draw(st.booleans()),
                                draw(st.sampled_from([0, 1, 2, 3, 4])))
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
            i = np.array([recon_score(params, vocab, item, v) for v, item in pairs])
            score = np.round(_zscore(t) + _zscore(i), ZSCORE_DECIMALS)
        ranked.append(sorted(range(len(gallery)), key=lambda j: (-score[j], j)))
    return ranked


def _many_states_case():
    """40 grid features under a 10-token sentence: one gallery pass stores
    400 states, more than one block of ``ROW_SLICE``."""
    params, vocab = _case_model("full", 11, 5, True)
    rng = np.random.default_rng(11)
    feats = list(rng.integers(0, 5, (40, 4)) / 4.0)
    items = [encode([f"w{i}" for i in (3, 1, 4, 1, 5, 9, 2, 6, 5)], vocab),
             (encode([], vocab), encode(["w7", "w0"], vocab))]
    assert 10 * len(np.unique(np.array(feats), axis=0)) > model.ROW_SLICE
    return params, vocab, feats, items, items, feats, [{0}, {1}]


@settings(max_examples=60, deadline=None)
@given(_retrieval_case())
@example(_many_states_case())
def test_gallery_scorer_matches_scalar_loss_and_ranking(case):
    params, vocab, feats, items, queries, gallery, truth = case
    f = np.stack(feats)
    for item in items:
        for sent in _sentences(item):
            batched = gallery_scores(params, f, [sent], vocab)[0][0]
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


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("hash_size", [257, 5])
def test_gallery_scorer_reads_maxent_tables_as_scalar_loss(order, hash_size):
    # random tables, so every order's bases reach the gallery NLL
    params, vocab, _ = gradcheck_setup("full", seed=order, maxent_order=order,
                                       maxent_hash_size=hash_size)
    rng = SeededRng(order).derive("tables")
    _random_tables(params, rng)
    feats = rng.uniform(0.0, 1.0, (3, 4))
    items = [encode([], vocab), encode(["w3", "w1", "w4", "w1", "w5", "w9"], vocab),
             (encode(["w2"], vocab), encode(["w6", "w5", "w3"], vocab))]
    nll, _ = gallery_scores(params, feats, items, vocab)
    for row, item in zip(nll, items):
        for got, v in zip(row, feats):
            want = sum(sentence_loss(params, v, s, 0.0, vocab)[0].word_nll for s in _sentences(item))
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_scorer_identical_rows_score_identically(variant):
    # At s = 32 with 7 rows the BLAS product for the member logits rounds
    # identical rows differently by where they sit; with this seed that
    # reaches the NLL unless repeated rows are scored once.
    params, vocab, example = gradcheck_setup(variant, seed=10, s_dim=32, u_dim=8)
    sent = example.captions[0]
    nll = gallery_scores(params, np.tile(example.features, (7, 1)), [sent], vocab)[0][0]
    assert np.all(nll == nll[0])
    assert abs(nll[0] - sentence_loss(params, example.features, sent, 0.0,
                                      vocab)[0].word_nll) <= 1e-12


def test_gallery_scorer_rejects_bad_shapes():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    with pytest.raises(ValueError, match="matrix"):
        gallery_scores(params, example.features, [sent], vocab)
    with pytest.raises(ValueError, match="matrix"):
        gallery_scores(params, np.zeros((3, 5)), [sent], vocab)
    with pytest.raises(ValueError, match="eos"):
        gallery_scores(params, example.features[None],
                       [EncodedSentence(ids=sent.ids[:-1], tokens=sent.tokens)], vocab)
    # an item holding no sentence: rnn scored it 0 under every image, and
    # full failed inside numpy
    rnn_params = gradcheck_setup("rnn", seed=5)[0]
    for empty in ((), []):
        for p in (params, rnn_params):
            with pytest.raises(ValueError, match="item 1 holds no sentence"):
                gallery_scores(p, example.features[None], [sent, empty], vocab)
        with pytest.raises(ValueError, match=re.escape(f"item {empty!r} holds no sentence")):
            recon_trajectory(params, vocab, empty)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_features_name_their_row(value):
    # a gallery vector, an image query or a generation input
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    feats = np.vstack([example.features] * 3)
    feats[2, 0] = value
    with pytest.raises(ValueError, match="feature row 2 holds NaN or inf"):
        gallery_scores(params, feats, [sent], vocab)
    with pytest.raises(ValueError, match="feature row 2 holds NaN or inf"):
        rank_retrieval(params, vocab, [sent], list(feats), [{0}], mode="ti")
    with pytest.raises(ValueError, match="feature row 2 holds NaN or inf"):
        rank_retrieval(params, vocab, list(feats), [sent], [{0}] * 3, mode="t")
    with pytest.raises(ValueError, match="NaN or inf"):
        sample_candidates(params, vocab, feats[2], np.full((2, 3), 0.5), 1.0)


def _reference_gallery_scores(params, feats, items, vocab):
    """``gallery_scores`` as it stepped before one clamp served s and u: the
    rows deduped by ``np.unique``, each step's s rows clamped alone, then the
    shared u state stepped and clamped on its own."""
    dims = params.dims
    if dims.uses_v:
        rows, inverse = np.unique(feats, axis=0, return_inverse=True)
        drive = rows @ params.W_vs.T + params.b_s
    else:
        inverse = np.zeros(len(feats), dtype=np.int64)
        drive = params.b_s[None, :]
    start = reset_state(params)
    nll, recons = np.zeros((len(items), len(drive))), []
    for k, item in enumerate(items):
        us = []
        for sent in _sentences(item):
            s, u = np.broadcast_to(start.s, drive.shape), start.u
            inputs = [sent.ids[-1]] + list(sent.ids[:-1])
            ss = np.empty((len(inputs),) + drive.shape)
            for t, prev in enumerate(inputs):
                s = sigmoid_clipped(params.W_ws.T[prev] + s @ params.W_ss.T + drive,
                                    dims.sigmoid_clip, out=ss[t])
                if dims.uses_u:
                    u = sigmoid_clipped(params.W_wu.T[prev] + params.W_uu @ u + params.b_u,
                                        dims.sigmoid_clip)
                    us.append(u)
            nll[k] += model.score_gallery_states(params, vocab, ss,
                                                 np.array(us[-len(ss):]) if dims.uses_u else None,
                                                 sent.ids, model.token_bases(dims, np.array([inputs]))[0]
                                                 ).sum(axis=0)
        recons.append(model.recon_rows(params, us)[1] if dims.uses_u else None)
    return nll[:, inverse.reshape(-1)], recons


@pytest.mark.parametrize("width", [6, 32])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_scores_bytes_match_the_reference_loop(variant, width):
    params, vocab, example = gradcheck_setup(variant, seed=width, s_dim=width, u_dim=width)
    _random_tables(params, SeededRng(width).derive("tables"))
    rng = np.random.default_rng(width)
    for name, arr in params.named_blocks():   # init_params leaves the biases at zero
        if name.startswith("b_"):
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    grid = rng.integers(0, 3, (6, 4)) / 2.0
    feats = np.vstack([grid, grid[[4, 0, 0, 2]], rng.uniform(0.0, 1.0, (3, 4))])
    # the last item is longer than every earlier one, so the state store must
    # be sized from all of the call's sentences
    longest = encode(["w1", "w4", "w8", "w3", "w3", "w6", "w0", "w9", "w2", "w5", "w7"], vocab)
    items = [example.captions[0], encode([], vocab), encode(["w2", "w7", "w7"], vocab),
             (encode(["w5"], vocab), example.captions[0], encode(["w0", "w9"], vocab)), longest]
    assert len(longest.ids) > max(len(sent.ids) for item in items[:-1]
                                  for sent in model.sentences_of(params.dims, item, vocab.eos_id,
                                                                 "item"))
    for gallery in (feats, feats[rng.permutation(len(feats))], feats[:1]):
        nll, recons = gallery_scores(params, gallery, items, vocab)
        want_nll, want_recons = _reference_gallery_scores(params, gallery, items, vocab)
        assert nll.tobytes() == want_nll.tobytes()
        if params.dims.uses_u:
            assert [r.tobytes() for r in recons] == [r.tobytes() for r in want_recons]
        else:
            assert recons is None


def _full_vocab_gallery_states(params, vocab, ss, uu, targets, bases):
    """``model.score_gallery_states`` as gallery scoring ran before it: each
    of the (T, N, s_dim) states builds all classes + vocab logits, with -inf
    at the words outside its step's target class, in blocks of
    ``ROW_SLICE`` states, and one log-softmax runs over the classes and one
    over the vocabulary."""
    c, sd = params.dims.class_count, params.dims.s_dim
    targets = np.asarray(targets, dtype=np.int64)
    g = vocab.id_class[targets]
    picks = np.stack([g, c + targets])
    step_logits = model.context_logits(params, uu, bases)
    step_logits[c:][vocab.id_class[:, None] != g] = -np.inf
    s, step = ss.reshape(-1, sd), np.repeat(np.arange(len(ss)), ss.shape[1])
    nll = np.empty(len(s))
    for start in range(0, len(s), model.ROW_SLICE):
        blk = slice(start, start + model.ROW_SLICE)
        z = params.A[:, :sd] @ s[blk].T
        z += step_logits[:, step[blk]]
        (zc, zw), (tc, tw) = (z[:c], z[c:]), z[picks[:, step[blk]], np.arange(z.shape[1])]
        mc, mw = zc.max(axis=0), zw.max(axis=0)
        zc -= mc
        zw -= mw
        nll[blk] = ((np.log(np.exp(zc, out=zc).sum(axis=0)) - (tc - mc))
                    + (np.log(np.exp(zw, out=zw).sum(axis=0)) - (tw - mw)))
    return nll.reshape(ss.shape[:2])


def _random_output_layer(params, seed):
    """Random max-entropy tables and biases, so that every term of the
    logits reaches the scores."""
    if params.dims.maxent_order:
        _random_tables(params, SeededRng(seed).derive("tables"))
    rng = np.random.default_rng(seed)
    for name, arr in params.named_blocks():   # init_params leaves the biases at zero
        if name.startswith("b_"):
            arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    return params


def _assert_matches_full_vocab_scoring(monkeypatch, params, vocab, feats, items, truth):
    nll, _ = gallery_scores(params, feats, items, vocab)
    modes = ("t", "ti") if params.dims.uses_u else ("t",)
    ranked = [rank_retrieval(params, vocab, items, list(feats), truth, mode=m).ranked_ids
              for m in modes]
    with monkeypatch.context() as patch:
        patch.setattr(model, "score_gallery_states", _full_vocab_gallery_states)
        want, _ = gallery_scores(params, feats, items, vocab)
        want_ranked = [rank_retrieval(params, vocab, items, list(feats), truth, mode=m).ranked_ids
                       for m in modes]
    assert np.all(np.abs(nll - want) <= 1e-12 * np.abs(want))
    assert ranked == want_ranked


@pytest.mark.parametrize("lone_class", [False, True])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_state_scorer_matches_full_vocabulary_scoring(monkeypatch, variant, order,
                                                              lone_class):
    params, vocab, example = gradcheck_setup(variant, seed=order, s_dim=32, u_dim=32,
                                             maxent_order=order, maxent_hash_size=5)
    if lone_class:   # <eos> alone in its class
        vocab = with_one_member_class(vocab)
    _random_output_layer(params, order)
    rng = np.random.default_rng(order)
    # each state's NLL, at steps whose target classes are out of order
    targets = example.captions[0].ids
    ss = rng.uniform(0.01, 0.99, (len(targets), 9, 32))
    uu = rng.uniform(0.01, 0.99, (len(targets), 32)) if params.dims.uses_u else None
    bases = model.token_bases(params.dims, np.array([[vocab.eos_id] + targets[:-1]]))[0]
    got = model.score_gallery_states(params, vocab, ss, uu, targets, bases)
    want = _full_vocab_gallery_states(params, vocab, ss, uu, targets, bases)
    assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-12 * want)
    feats = rng.uniform(0.0, 1.0, (9, 4))
    items = [example.captions[0], encode([], vocab), encode(["w0", "w0", "w9"], vocab),
             (encode(["w5"], vocab), encode(["w2", "w7", "w1", "w4"], vocab))]
    _assert_matches_full_vocab_scoring(monkeypatch, params, vocab, feats, items,
                                       [{k} for k in range(len(items))])


@pytest.mark.parametrize("rows", [120, 700])
@pytest.mark.parametrize("variant", ["rnn_if", "full"])   # rnn scores one row for any gallery
def test_gallery_state_scorer_splits_a_class_into_bounded_blocks(monkeypatch, variant, rows):
    # seven steps of one class: 4 per block at 120 images; at 700 one step
    # exceeds ROW_SLICE full distributions, and each block holds one step
    params, vocab, _ = gradcheck_setup(variant, seed=rows, s_dim=32, u_dim=32)
    _random_output_layer(params, rows)
    feats = np.random.default_rng(rows).uniform(0.0, 1.0, (rows, 4))
    sent = encode(["w1", "w2", "w3", "w1", "w2", "w3", "w1"], vocab)
    blocks = []

    def recording(z, c, picks):
        blocks.append(z.shape)
        return target_nll(z, c, picks)

    target_nll, cap = model._target_nll, len(params.A) * model.ROW_SLICE
    monkeypatch.setattr(model, "_target_nll", recording)
    nll, _ = gallery_scores(params, feats, [sent], vocab)
    monkeypatch.undo()
    groups = len(set(vocab.id_class[sent.ids].tolist()))
    assert len(blocks) > groups
    assert all(shape[1] >= 1 and (math.prod(shape) <= cap or shape[1] == 1) for shape in blocks)
    _assert_matches_full_vocab_scoring(monkeypatch, params, vocab, feats, [sent, sent], [{0}, {1}])
    for got, v in zip(nll[0, :5], feats):
        assert abs(got - sentence_loss(params, v, sent, 0.0, vocab)[0].word_nll) <= 1e-12 * got


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_scores_never_read_the_rows_of_unused_classes(variant):
    params, vocab, example = gradcheck_setup(variant, seed=4, s_dim=32, u_dim=32)
    _random_output_layer(params, 4)
    sent = encode(["w1", "w3", "w2", "w2"], vocab)
    used = set(vocab.id_class[sent.ids].tolist())
    unused = [k for k in range(vocab.n_classes) if k not in used]
    assert unused
    c = vocab.n_classes
    for k in unused:
        params.A[c + vocab.class_starts[k]:c + vocab.class_bounds[k]] = np.nan
    feats = np.random.default_rng(4).uniform(0.0, 1.0, (6, 4))
    nll, _ = gallery_scores(params, feats, [sent, (sent, sent)], vocab)
    assert np.isfinite(nll).all()
    for got, v in zip(nll[0], feats):
        want = sentence_loss(params, v, sent, 0.0, vocab)[0].word_nll
        assert math.isfinite(want) and abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(st.lists(_grid_feature, min_size=0, max_size=12))
def test_unique_rows_matches_np_unique(rows):
    feats = np.array(rows, dtype=np.float64).reshape(len(rows), 4)
    got, inverse = model.unique_rows(feats)
    want, want_inverse = np.unique(feats, axis=0, return_inverse=True)
    assert got.tobytes() == want.tobytes() and got.shape == want.shape
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_gallery_reconstruction_is_the_word_driven_trajectory(variant):
    params, vocab, example = gradcheck_setup(variant, seed=6)
    sent = example.captions[0]
    rng = np.random.default_rng(6)
    recons = [gallery_scores(params, rng.uniform(0.0, 1.0, (n, 4)), [sent], vocab)[1]
              for n in (1, 3, 5)]
    if variant != "full":
        assert recons == [None] * 3
        return
    want = recon_trajectory(params, vocab, sent).tobytes()
    assert all(r[0].tobytes() == want for r in recons)


def test_empty_query_list_is_rejected(tiny_dataset):
    params = init_params(small_dims(tiny_dataset.vocab, v_dim=6), SeededRng(2))
    _, gallery, _ = image_retrieval_task(tiny_dataset, "test")
    with pytest.raises(ValueError, match="query list is empty"):
        rank_retrieval(params, tiny_dataset.vocab, [], gallery, [])


def test_empty_gallery_is_rejected():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    with pytest.raises(ValueError, match="gallery is empty"):
        gallery_scores(params, np.zeros((0, 4)), [sent], vocab)
    for queries in ([sent], [example.features], example.features[None]):
        with pytest.raises(ValueError, match="gallery is empty"):
            score_matrices(params, vocab, queries, [])
    with pytest.raises(ValueError, match="gallery is empty"):
        rank_retrieval(params, vocab, [sent], np.zeros((0, 4)), [{0}])


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_array_and_list_features_rank_alike(variant):
    # an (N, v_dim) array gallery or 2-D array of image queries ranks as
    # the list of its rows and as plain lists of floats
    params, vocab, example = gradcheck_setup(variant, seed=8)
    feats = np.random.default_rng(8).uniform(0.0, 1.0, (4, 4))
    sents = [example.captions[0], encode(["w2", "w7"], vocab), encode(["w5"], vocab),
             encode(["w0", "w9", "w9"], vocab)]
    truth = [{k} for k in range(len(sents))]
    for mode in ("t", "i", "ti") if params.dims.uses_u else ("t",):
        for queries, gallery in ((sents, feats), (feats, sents)):
            got = [rank_retrieval(params, vocab, q, g, truth, mode=mode)
                   for q, g in ((queries, gallery),
                                *[(f(queries), f(gallery)) for f in (_rows_as_list, _rows_as_lists)])]
            assert all((r.ranked_ids, r.ranks) == (got[0].ranked_ids, got[0].ranks) for r in got)


def _rows_as_list(x):
    return list(x) if isinstance(x, np.ndarray) else x


def _rows_as_lists(x):
    return x.tolist() if isinstance(x, np.ndarray) else x


@pytest.mark.parametrize("bad", [-1, 12])
def test_out_of_range_token_ids_are_rejected(bad):
    # -1 would read the last column of W_ws and W_wu; 12 = vocab_size would
    # raise a raw IndexError
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = EncodedSentence(ids=[vocab.token_to_id["w1"], bad, vocab.eos_id], tokens=[])
    message = rf"token id {bad} outside \[0, 12\)"
    with pytest.raises(ValueError, match=message):
        gallery_scores(params, example.features[None], [sent], vocab)
    with pytest.raises(ValueError, match=message):
        sentence_loss(params, example.features, sent, 1.0, vocab)
    with pytest.raises(ValueError, match=message):
        recon_trajectory(params, vocab, (example.captions[0], sent))


@pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, np.float64(3.0), np.array(3)],
                         ids=["float", "whole_float", "bool", "numpy_bool", "numpy_float", "array"])
def test_non_integer_token_ids_are_rejected(bad):
    # a float id was truncated or raised a raw IndexError, and a bool scored
    # as id 0 or 1; numpy coerces [True, 5] to int64, so no batched check may
    # let one through
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = EncodedSentence(ids=[bad, vocab.token_to_id["w1"], vocab.eos_id], tokens=[])
    message = f"token ids must be integers, got {bad!r}"
    gallery = [example.features, example.features[::-1]]
    calls = [lambda: gallery_scores(params, np.array(gallery), [sent], vocab),
             lambda: rank_retrieval(params, vocab, [sent], gallery, [{0}], mode="ti"),
             lambda: rank_retrieval(params, vocab, gallery[:1], [sent, example.captions[0]],
                                    [{1}]),
             lambda: sentence_loss(params, example.features, sent, 1.0, vocab),
             lambda: recon_trajectory(params, vocab, (example.captions[0], sent)),
             lambda: perplexity_of_pairs(params, vocab, [(example, example.captions[0]),
                                                         (example, sent)])]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_caption_without_eos_is_rejected_by_both_reconstructions():
    # without the check the last word was fed as the begin-of-sentence token
    params, vocab, example = gradcheck_setup("full", seed=1)
    ids = example.captions[0].ids
    sent = EncodedSentence(ids=ids[:-1], tokens=[vocab.tokens[i] for i in ids[:-1]])
    with pytest.raises(ValueError, match="does not end with <eos>"):
        recon_trajectory(params, vocab, sent)
    with pytest.raises(ValueError, match="does not end with <eos>"):
        gallery_scores(params, example.features[None], [sent], vocab)


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_image_queries_given_as_lists(variant):
    params, vocab, example = gradcheck_setup(variant, seed=8)
    rng = np.random.default_rng(8)
    feats = [rng.uniform(0.0, 1.0, 4) for _ in range(3)]
    gallery = [example.captions[0], encode(["w2", "w7"], vocab),
               (encode(["w5"], vocab), encode([], vocab))]
    truth = [{0}, {1}, {2}]
    want = score_matrices(params, vocab, feats, gallery)
    got = score_matrices(params, vocab, [f.tolist() for f in feats], gallery)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)
    res = rank_retrieval(params, vocab, [tuple(f) for f in feats], gallery, truth)
    assert res.ranked_ids == rank_retrieval(params, vocab, feats, gallery, truth).ranked_ids
    for queries, what in (([feats[0], feats[1][:3]], "query 1"), ([feats[0], "w1"], "query 1"),
                          ([gallery[0], feats[0]], "query 1"), ([None, feats[0]], "query 0")):
        with pytest.raises(ValueError, match=what):
            score_matrices(params, vocab, queries, gallery)


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
    # the image task's truth is the sentence task's, transposed
    pairs = {(i, c) for i, ts in enumerate(t) for c in ts}
    assert pairs == {(i, c) for c, ts in enumerate(ti) for i in ts}
    with pytest.raises(ValueError):
        sentence_retrieval_task(tiny_dataset, "no-such-split")
    with pytest.raises(ValueError):
        image_retrieval_task(tiny_dataset, "no-such-split")


@pytest.mark.parametrize("variant, width", VARIANT_WIDTHS)
def test_activation_trace_rows_are_the_step_states(variant, width):
    params, vocab, example = gradcheck_setup(variant, seed=12, s_dim=width, u_dim=width)
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


def test_activation_trace_of_a_one_token_caption_has_zero_stability():
    # the empty caption feeds <eos> once: one step, so no step-to-step change
    params, vocab, example = gradcheck_setup("full", seed=12)
    trace = activation_trace(params, vocab, example.features, encode([], vocab))
    assert trace.tokens == ["<eos>"]
    assert trace.s_rows.shape == (1, params.dims.s_dim)
    assert trace.stability_s.tolist() == [0.0] * params.dims.s_dim
    assert trace.stability_u.tolist() == [0.0] * params.dims.u_dim
