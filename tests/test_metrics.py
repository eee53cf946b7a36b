import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bicap import corpus, model
from bicap.corpus import CaptionedExample, EncodedSentence, build_vocab, encode
from bicap.metrics import (ROW_SLICE, MetricReport, bleu, corpus_bleu,
                           human_consistency_pairs, pair_word_nll, perplexity,
                           perplexity_of_pairs, render_report, report_tsv)
from bicap.numkit import SeededRng
from bicap.training import gradcheck_setup

from conftest import small_dims, with_one_member_class


def _uniform_model(n_words):
    """Zero parameters and a single class: every word gets mass 1/|V|."""
    sentences = [[f"w{i}"] for i in range(n_words - 2)]
    vocab = build_vocab(sentences, class_count=1)
    assert len(vocab) == n_words
    dims = small_dims(vocab, variant="rnn", maxent_order=0)
    params = model.ModelParams(dims)
    return params, vocab


def _pairs(vocab, token_lists):
    v = np.zeros(1)
    return [(CaptionedExample(id=str(i), features=v, captions=[], split="test"),
             encode(toks, vocab)) for i, toks in enumerate(token_lists)]


def test_uniform_model_perplexity_is_vocab_size():
    params, vocab = _uniform_model(12)
    pairs = _pairs(vocab, [["w0", "w3"], ["w5"]])
    assert perplexity_of_pairs(params, vocab, pairs) == pytest.approx(12.0, rel=1e-12)


def test_perfect_model_perplexity_is_one():
    sentences = [["w0"]]
    vocab = build_vocab(sentences, class_count=1)
    dims = small_dims(vocab, variant="rnn", maxent_order=0)
    params = model.ModelParams(dims)
    params.b_w[vocab.eos_id] = 500.0  # certainty, to double precision
    pairs = _pairs(vocab, [[]])  # the sentence [<eos>] alone
    assert perplexity_of_pairs(params, vocab, pairs) == 1.0


def test_perplexity_hand_computed_two_sentence_toy():
    params, vocab = _uniform_model(5)
    biases = {"w0": 1.0, "w1": -0.5, "w2": 0.25}
    for tok, b in biases.items():
        params.b_w[vocab.token_to_id[tok]] = b
    pairs = _pairs(vocab, [["w0", "w1"], ["w2"]])
    # static distribution each step: softmax over the five bias logits
    logits = np.array([params.b_w[i] for i in range(5)])
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    steps = [vocab.token_to_id["w0"], vocab.token_to_id["w1"], vocab.eos_id,
             vocab.token_to_id["w2"], vocab.eos_id]
    expected = 2.0 ** (-sum(math.log2(probs[i]) for i in steps) / len(steps))
    assert perplexity_of_pairs(params, vocab, pairs) == pytest.approx(expected, rel=1e-9)


def test_perplexity_invariant_to_sentence_order():
    params, vocab = _uniform_model(6)
    params.b_w[:] = SeededRng(3).uniform(-1, 1, 6)
    pairs = _pairs(vocab, [["w0", "w1"], ["w2"], ["w3", "w0", "w2"]])
    a = perplexity_of_pairs(params, vocab, pairs)
    b = perplexity_of_pairs(params, vocab, list(reversed(pairs)))
    assert a == b


def test_perplexity_of_tuple_and_list_ids_equals_that_of_lists():
    # the canonical sort must not compare a tuple's ids with a list's
    params, vocab, example = gradcheck_setup("full", seed=1)
    cap = example.captions[0]
    as_tuple = EncodedSentence(ids=tuple(cap.ids), tokens=cap.tokens)
    want = perplexity_of_pairs(params, vocab, [(example, cap), (example, cap)])
    assert perplexity_of_pairs(params, vocab, [(example, as_tuple), (example, cap)]) == want


def test_perplexity_empty_split_rejected():
    params, vocab = _uniform_model(5)
    with pytest.raises(ValueError):
        perplexity_of_pairs(params, vocab, [])


def _bad_caption(vocab, kind):
    w0 = vocab.token_to_id["w0"]
    ids = {"empty": [], "no_eos": [w0], "too_big": [w0, len(vocab), vocab.eos_id],
           "negative": [-1, vocab.eos_id], "float_id": [w0 + 0.7, vocab.eos_id],
           "bool_id": [True, w0, vocab.eos_id],
           "np_bool_id": [w0, np.True_, vocab.eos_id]}[kind]
    return EncodedSentence(ids=ids, tokens=[])


@pytest.mark.parametrize("kind, message", [
    ("empty", "empty caption"),
    ("no_eos", "does not end with <eos>"),
    ("too_big", r"token id 12 outside \[0, 12\)"),
    ("negative", r"token id -1 outside \[0, 12\)"),
    ("float_id", r"token ids must be integers, got \d+\.7"),
    ("bool_id", "token ids must be integers, got True"),
    ("np_bool_id", r"token ids must be integers, got (np\.)?True"),   # numpy 2 reprs np.True_
    ("short_features", "dim 4"),
    ("matrix_features", "dim 4"),
    ("no_features", "dim 4"),
    ("nan_features", "NaN or inf"),
    ("inf_features", "NaN or inf"),
])
def test_perplexity_bad_pair_names_example(kind, message):
    params, vocab, good = gradcheck_setup("full", seed=2)
    bad = CaptionedExample(id="bad7", features=good.features, captions=[], split="test")
    cap = good.captions[0]
    if kind.endswith("features"):
        bad.features = {"short_features": np.zeros(3), "matrix_features": np.zeros((1, 4)),
                        "no_features": None, "nan_features": np.full(4, np.nan),
                        "inf_features": np.array([0.0, -np.inf, 0.0, 0.0])}[kind]
    else:
        cap = _bad_caption(vocab, kind)
    pairs = [(good, good.captions[0]), (bad, cap), (good, good.captions[0])]
    with pytest.raises(ValueError, match=message) as info:
        perplexity_of_pairs(params, vocab, pairs)
    assert "'bad7'" in str(info.value)


def test_numpy_ids_and_list_features_score_like_plain_ones():
    params, vocab, good = gradcheck_setup("full", seed=2)
    cap = good.captions[0]
    numpy_ids = EncodedSentence(ids=[np.int64(i) for i in cap.ids], tokens=cap.tokens)
    listed = CaptionedExample(id="listed", features=good.features.tolist(), captions=[],
                              split="test")
    want = [row.tobytes() for row in pair_word_nll(params, vocab, [(good, cap)] * 2)]
    for pairs in ([(good, numpy_ids), (good, cap)], [(listed, cap), (good, cap)]):
        assert [row.tobytes() for row in pair_word_nll(params, vocab, pairs)] == want


@pytest.mark.parametrize("first, second", [("nan_features", "no_eos"), ("no_eos", "nan_features")])
def test_perplexity_of_two_bad_pairs_names_the_earlier(first, second):
    # the pairs are checked in order, each caption before its features, so
    # the earlier bad pair is named, whether its features or its caption are bad
    params, vocab, good = gradcheck_setup("full", seed=2)
    messages = {"nan_features": "NaN or inf", "no_eos": "does not end with <eos>"}

    def bad_pair(kind, name):
        ex = CaptionedExample(id=name, features=good.features, captions=[], split="test")
        if kind == "nan_features":
            ex.features = np.full(4, np.nan)
            return ex, good.captions[0]
        return ex, _bad_caption(vocab, kind)

    pairs = [(good, good.captions[0]), bad_pair(first, "early"), (good, good.captions[0]),
             bad_pair(second, "late")]
    with pytest.raises(ValueError, match=messages[first]) as info:
        perplexity_of_pairs(params, vocab, pairs)
    assert "'early'" in str(info.value) and "'late'" not in str(info.value)


def _perturbed(params, rng):
    """Every block drawn at random, so biases, u0 and the max-entropy
    tables all reach the scores."""
    for _, arr in params.named_blocks():
        arr[...] = rng.uniform(-1.0, 1.0, arr.shape)
    params.apply_vs_mask()
    return params


def _scalar_word_nll(params, vocab, pairs):
    return [model.sentence_forward(params, ex.features, cap, vocab).word_nll
            for ex, cap in pairs]


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.shape == (len(ref),)
        assert np.max(np.abs(row - np.array(ref))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(model.VARIANTS), order=st.sampled_from([0, 1, 2, 3, 4]),
       seed=st.integers(0, 2 ** 16),
       captions=st.lists(st.lists(st.integers(0, 9), max_size=7), min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1,
                      max_size=12),
       hash_size=st.sampled_from([257, 5]), lone_class=st.booleans())
# a hash size below the vocabulary size wraps and collides the max-entropy
# windows within one step; <eos> alone in its class; length-1 captions
@example(variant="full", order=3, seed=5, captions=[[], [3, 1, 4, 1, 5], [9], []],
         picks=[(0, 0), (1, 1), (2, 2), (3, 0), (1, 2)], hash_size=5, lone_class=True)
def test_batched_word_nll_matches_sentence_forward(variant, order, seed, captions, picks,
                                                   hash_size, lone_class):
    params, vocab, _ = gradcheck_setup(variant, seed=seed, maxent_order=order,
                                       maxent_hash_size=hash_size)
    if lone_class:
        vocab = with_one_member_class(vocab)
    rng = SeededRng(seed).derive("test")
    _perturbed(params, rng)
    feats = [rng.uniform(0.0, 1.0, 4) for _ in range(3)]
    sents = [encode([f"w{i}" for i in words], vocab) for words in captions]
    # the leading picks come back once more: repeated (features, caption) pairs
    pairs = [(CaptionedExample(id=str(k), features=feats[f], captions=[], split="test"),
              sents[c % len(sents)]) for k, (c, f) in enumerate(picks + picks[:2])]
    _assert_rows_match(pair_word_nll(params, vocab, pairs),
                       _scalar_word_nll(params, vocab, pairs))


@pytest.mark.parametrize("variant", model.VARIANTS)
def test_batched_word_nll_crosses_row_slices(variant):
    # each slice of rows stores more than ROW_SLICE states, which the scorer
    # takes in several blocks; the second layout has a hash size below the
    # vocabulary size and <eos> alone in its class
    for hash_size, lone_class in ((257, False), (5, True)):
        params, vocab, _ = gradcheck_setup(variant, seed=4, s_dim=4, u_dim=4,
                                           maxent_hash_size=hash_size)
        if lone_class:
            vocab = with_one_member_class(vocab)
        rng = SeededRng(4).derive("test")
        _perturbed(params, rng)
        pairs = []
        for k in range(ROW_SLICE + 44):
            words = [f"w{rng.integers(0, 10)}" for _ in range(rng.integers(0, 8))]
            ex = CaptionedExample(id=str(k), features=rng.uniform(0.0, 1.0, 4), captions=[],
                                  split="test")
            pairs.append((ex, encode(words, vocab)))
        assert sum(len(cap.ids) for _, cap in pairs[:ROW_SLICE]) > 2 * ROW_SLICE
        _assert_rows_match(pair_word_nll(params, vocab, pairs),
                           _scalar_word_nll(params, vocab, pairs))


def test_perplexity_exactly_invariant_to_pair_order_at_bundle_width():
    # At s = u = 32 BLAS rounds a row by where it sits in the matrix; the
    # canonical row order must keep every permutation's floats identical,
    # each token's NLL as well as the perplexity.
    dataset = corpus.generate_synthetic(8, 40, SeededRng(3), captions_per_example=2)
    dims = model.ModelDims(vocab_size=len(dataset.vocab), class_count=dataset.vocab.n_classes,
                           v_dim=dataset.feature_dim, s_dim=32, u_dim=32,
                           maxent_order=3, maxent_hash_size=4096)
    params = _perturbed(model.init_params(dims, SeededRng(3)), SeededRng(4))
    pairs = [(ex, cap) for ex in dataset.examples for cap in ex.captions]
    assert len(pairs) >= 40
    want = perplexity_of_pairs(params, dataset.vocab, pairs)
    want_rows = pair_word_nll(params, dataset.vocab, pairs)
    for seed in range(10):
        order = list(range(len(pairs)))
        SeededRng(seed).shuffle(order)
        shuffled = [pairs[i] for i in order]
        assert perplexity_of_pairs(params, dataset.vocab, shuffled) == want
        rows = pair_word_nll(params, dataset.vocab, shuffled)
        assert all(np.array_equal(row, want_rows[i]) for row, i in zip(rows, order))


def test_bleu_identical_candidate_scores_one():
    sent = "a gray cat sat on the mat".split()
    assert bleu(sent, [sent]) == 1.0


def test_bleu_zero_overlap_scores_zero():
    assert bleu("a b c d e".split(), ["v w x y z".split()]) == 0.0


def test_bleu_empty_candidate_scores_zero():
    assert bleu([], ["a b c d".split()]) == 0.0


def test_bleu_requires_nonempty_reference():
    with pytest.raises(ValueError):
        bleu("a b".split(), [[]])


def _oracle_bleu(candidate, references):
    """Plain-loop n-gram counter kept independent of the implementation."""
    if not candidate:
        return 0.0
    prec = []
    for n in range(1, 5):
        cand_grams = {}
        for i in range(len(candidate) - n + 1):
            g = tuple(candidate[i:i + n])
            cand_grams[g] = cand_grams.get(g, 0) + 1
        total = sum(cand_grams.values())
        if total == 0:
            return 0.0
        matched = 0
        for g, cnt in cand_grams.items():
            best = 0
            for ref in references:
                ref_count = 0
                for i in range(len(ref) - n + 1):
                    if tuple(ref[i:i + n]) == g:
                        ref_count += 1
                best = max(best, ref_count)
            matched += min(cnt, best)
        if matched == 0:
            return 0.0
        prec.append(matched / total)
    c = len(candidate)
    r = min((len(ref) for ref in references), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    geo = math.exp(sum(math.log(p) for p in prec) / 4.0)
    return bp * geo


def test_bleu_matches_brute_force_oracle():
    cases = [
        ("the cat sat on the mat".split(), ["the cat is on the mat".split()]),
        ("the cat sat on the mat today".split(),
         ["the cat sat on the red mat".split()]),
        ("a b a b a".split(), ["a b a b".split(), "b a b a b a".split()]),
        ("x y z w".split(), ["x y z w v".split(), "x y".split()]),
    ]
    for cand, refs in cases:
        assert bleu(cand, refs) == pytest.approx(_oracle_bleu(cand, refs), abs=1e-9)


def test_bleu_brevity_tie_prefers_shorter_reference():
    cand = "a b c d e".split()
    refs = [["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"]]
    # tie |4-5| == |6-5| resolves to r=4, and c=5 > 4 means no penalty
    value = bleu(cand, refs)
    no_pen = bleu(cand, [refs[0]])
    assert value >= no_pen


def test_corpus_bleu_of_no_pairs_rejected():
    with pytest.raises(ValueError, match="corpus_bleu over an empty corpus"):
        corpus_bleu([])


def test_corpus_bleu_single_pair_equals_sentence_bleu():
    cand = "the cat sat on the mat".split()
    refs = ["the cat is on the mat".split()]
    assert corpus_bleu([(cand, refs)]) == pytest.approx(bleu(cand, refs), abs=1e-12)


def test_corpus_bleu_perfect_matches():
    pairs = [("a b c d".split(), ["a b c d".split()]),
             ("e f g h i".split(), ["e f g h i".split()])]
    assert corpus_bleu(pairs) == 1.0


def test_corpus_bleu_three_pair_accumulation_oracle():
    pairs = [
        ("the cat sat on the mat".split(), ["the cat is on the mat".split()]),
        ("a man is riding a horse".split(), ["a man is riding the horse".split()]),
        ("blue sky over the calm sea".split(),
         ["blue sky over the sea".split(), "a blue sky over the calm bay".split()]),
    ]
    clipped = [0] * 4
    totals = [0] * 4
    c_len = r_len = 0
    for cand, refs in pairs:
        for n in range(1, 5):
            cand_grams = {}
            for i in range(len(cand) - n + 1):
                g = tuple(cand[i:i + n])
                cand_grams[g] = cand_grams.get(g, 0) + 1
            for g, cnt in cand_grams.items():
                best = 0
                for ref in refs:
                    cnt_ref = sum(1 for i in range(len(ref) - n + 1)
                                  if tuple(ref[i:i + n]) == g)
                    best = max(best, cnt_ref)
                clipped[n - 1] += min(cnt, best)
            totals[n - 1] += max(0, len(cand) - n + 1)
        c_len += len(cand)
        r_len += min((len(r) for r in refs),
                     key=lambda L: (abs(L - len(cand)), L))
    assert all(c > 0 for c in clipped), "toy data keeps every order matched"
    expected_log = sum(math.log(c / t) for c, t in zip(clipped, totals)) / 4
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    expected = bp * math.exp(expected_log)
    assert corpus_bleu(pairs) == pytest.approx(expected, abs=1e-9)


token_lists = st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=12)


@settings(max_examples=60, deadline=None)
@given(token_lists, token_lists, st.permutations(list(range(10))))
def test_bleu_invariant_under_token_relabeling(cand, ref, perm):
    before = bleu(cand, [ref])
    relabel = lambda toks: [perm[t] for t in toks]
    after = bleu(relabel(cand), [relabel(ref)])
    assert before == pytest.approx(after, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(token_lists, token_lists)
def test_bleu_adding_candidate_as_reference_never_hurts(cand, ref):
    base = bleu(cand, [ref])
    augmented = bleu(cand, [ref, cand])
    assert augmented >= base - 1e-12
    assert augmented <= 1.0 + 1e-12


def test_report_rendering():
    reports = [MetricReport(name="full", perplexity=3.21, bleu_percent=24.5)]
    text = render_report(reports)
    assert "PPL" in text and "BLEU" in text and "METEOR" in text
    assert "3.21" in text and "24.50" in text
    tsv = report_tsv(reports)
    header, row = tsv.strip().split("\n")
    assert header.split("\t") == ["model", "PPL", "BLEU", "METEOR"]
    assert row.split("\t")[0] == "full"
    assert row.split("\t")[3] == "-"


def test_human_consistency_pairs(tiny_dataset):
    pairs = human_consistency_pairs(tiny_dataset, "test")
    examples = [ex for ex in tiny_dataset.split("test") if len(ex.captions) >= 2]
    assert len(pairs) == len(examples)
    for cand, refs in pairs:
        assert cand and refs
