"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4-6 share one session-scoped bundle of models (rnn, rnn_if, full)
trained on a fixed synthetic dataset (8 attributes, 500 scenes, seed 42,
100-item test split); run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bicap import cli, corpus, inference, metrics, model, training
from bicap.corpus import build_vocab, encode
from bicap.numkit import SeededRng

from conftest import recon_score, small_dims

_BUNDLE_TIMES = {}


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {n}: {description}")
        raise
    print(f"\n[PASS] criterion {n}: {description}")


@pytest.fixture(scope="session")
def timed_bundle(trained_bundle):
    return trained_bundle


@pytest.fixture(scope="session")
def bundle_test_ppls(trained_bundle):
    t0 = time.monotonic()
    ds = trained_bundle["dataset"]
    ppls = {variant: metrics.perplexity(params, ds.vocab, ds, "test")
            for variant, params in trained_bundle["models"].items()}
    _BUNDLE_TIMES["ppl_eval"] = time.monotonic() - t0
    return ppls


def test_criterion_01_gradient_correctness():
    with criterion(1, "BPTT matches central finite differences (<=1e-4, <30s)"):
        t0 = time.monotonic()
        errors = {}
        for variant in ("rnn", "rnn_if", "full"):
            params, vocab, example = training.gradcheck_setup(variant, seed=1)
            assert len(vocab) == 12
            assert params.dims.s_dim == 6 and params.dims.u_dim == 6
            assert params.dims.v_dim == 4 and params.dims.maxent_order == 3
            errors[variant] = training.grad_check(params, vocab, example,
                                                  eps=1e-5)
        elapsed = time.monotonic() - t0
        print(f"  max relative errors: " +
              ", ".join(f"{v}={e:.3e}" for v, e in errors.items()) +
              f"; runtime {elapsed:.1f}s")
        assert all(e <= 1e-4 for e in errors.values()), errors
        assert elapsed < 30.0


def test_criterion_02_distribution_normalization():
    with criterion(2, "factorized word distribution sums to 1 within 1e-9 "
                      "over 1000 random draws, with and without MaxEnt"):
        vocab = build_vocab([[f"w{i}" for i in range(20)],
                             [f"w{i}" for i in range(0, 20, 2)]], class_count=5)
        rng = SeededRng(99)
        for order in (3, 0):
            dims = small_dims(vocab, v_dim=5, s_dim=8, u_dim=8,
                              maxent_order=order, maxent_hash_size=131)
            worst = 0.0
            for _ in range(1000):
                blocks = {name: rng.uniform(-2.0, 2.0, shape)
                          for name, shape in model.block_shapes(dims)}
                params = model.ModelParams(dims, blocks)
                params.apply_vs_mask()
                s = rng.uniform(0.01, 0.99, dims.s_dim)
                u = rng.uniform(0.01, 0.99, dims.u_dim)
                ctx = tuple(rng.integers(0, len(vocab))
                            for _ in range(max(0, order - 1)))
                dist = model.word_distribution(params, s, u, ctx, vocab)
                worst = max(worst, abs(float(dist.sum()) - 1.0))
            print(f"  maxent_order={order}: worst |sum-1| = {worst:.2e}")
            assert worst <= 1e-9


def test_criterion_03_decomposability():
    with criterion(3, "(u_t, v~_t) trajectory is bit-identical under "
                      "different visual inputs"):
        params, vocab, example = training.gradcheck_setup("full", seed=3)
        sent = example.captions[0]
        rng = SeededRng(4)
        va = rng.uniform(0.0, 1.0, params.dims.v_dim)
        vb = rng.uniform(0.0, 1.0, params.dims.v_dim)
        state_a = model.reset_state(params)
        state_b = model.reset_state(params)
        prev = vocab.eos_id
        for target in sent.ids:
            state_a, out_a = model.step(params, state_a, prev, va, vocab)
            state_b, out_b = model.step(params, state_b, prev, vb, vocab)
            assert np.array_equal(state_a.u, state_b.u)
            assert np.array_equal(out_a.recon, out_b.recon)
            assert not np.array_equal(state_a.s, state_b.s)
            prev = target
        traj_a = inference.recon_trajectory(params, vocab, sent)
        traj_b = inference.recon_trajectory(params, vocab, sent)
        assert np.array_equal(traj_a, traj_b)


@pytest.mark.slow
def test_criterion_04_baseline_ordering(trained_bundle, bundle_test_ppls):
    with criterion(4, "held-out perplexity orders FULL < RNN_IF < RNN with "
                      ">=2% relative gaps, trained in <10min"):
        ppls = bundle_test_ppls
        print(f"  test PPL: rnn={ppls['rnn']:.4f} rnn_if={ppls['rnn_if']:.4f} "
              f"full={ppls['full']:.4f}; training took "
              f"{trained_bundle['train_seconds']:.0f}s")
        assert ppls["full"] < ppls["rnn_if"] < ppls["rnn"]
        gap_if = (ppls["rnn"] - ppls["rnn_if"]) / ppls["rnn"]
        gap_full = (ppls["rnn_if"] - ppls["full"]) / ppls["rnn_if"]
        print(f"  relative gaps: rnn->rnn_if {100*gap_if:.2f}%, "
              f"rnn_if->full {100*gap_full:.2f}%")
        assert gap_if >= 0.02
        assert gap_full >= 0.02
        assert trained_bundle["train_seconds"] < 600.0


@pytest.mark.slow
def test_criterion_05_retrieval_trend(trained_bundle):
    with criterion(5, "T+I mean rank <= T mean rank on a 100-item gallery; "
                      "both beat random (50.5 - 3)"):
        ds = trained_bundle["dataset"]
        params = trained_bundle["models"]["full"]
        queries, gallery, truth = inference.sentence_retrieval_task(
            ds, "test", concat=True)
        assert len(gallery) == 100
        means = {}
        for mode in ("t", "ti"):
            res = inference.rank_retrieval(params, ds.vocab, queries, gallery,
                                           truth, mode=mode)
            means[mode] = res.mean_rank
            assert res.r_at[1] <= res.r_at[5] <= res.r_at[10]
        print(f"  mean rank: T={means['t']:.2f} T+I={means['ti']:.2f} "
              f"(random = 50.5)")
        assert means["ti"] <= means["t"]
        assert means["t"] < 50.5 - 3.0
        assert means["ti"] < 50.5 - 3.0


@pytest.mark.slow
def test_criterion_06_memory_stability(trained_bundle):
    with criterion(6, "visual-memory units change less per step than "
                      "word-context units on 100 test sentences"):
        ds = trained_bundle["dataset"]
        params = trained_bundle["models"]["full"]
        examples = ds.split("test")
        assert len(examples) == 100
        u_stats = []
        s_stats = []
        for ex in examples:
            tr = inference.activation_trace(params, ds.vocab, ex.features,
                                            ex.captions[0])
            u_stats.append(float(tr.stability_u.mean()))
            s_stats.append(float(tr.stability_s.mean()))
        mean_u = float(np.mean(u_stats))
        mean_s = float(np.mean(s_stats))
        print(f"  mean per-step change: u={mean_u:.4f} s={mean_s:.4f}")
        assert mean_u < mean_s


def test_criterion_07_metric_oracles():
    with criterion(7, "BLEU and perplexity analytic oracles"):
        sent = "a gray cat sat on the mat".split()
        assert metrics.bleu(sent, [sent]) == 1.0
        assert metrics.bleu("a b c d".split(), ["w x y z".split()]) == 0.0

        cand = "the cat sat on the mat".split()
        ref = "the cat is on the mat".split()
        # brute-force counts: p1=5/6, p2=3/5, p3=1/4, p4=0 -> BLEU 0
        assert metrics.bleu(cand, [ref]) == pytest.approx(0.0, abs=1e-9)
        cand2 = "the cat sat on the mat today".split()
        ref2 = "the cat sat on the red mat".split()
        p1, p2, p3, p4 = 6 / 7, 4 / 6, 3 / 5, 2 / 4
        expected = math.exp(sum(math.log(p) for p in (p1, p2, p3, p4)) / 4)
        assert metrics.bleu(cand2, [ref2]) == pytest.approx(expected, abs=1e-9)

        sentences = [[f"w{i}"] for i in range(10)]
        vocab = build_vocab(sentences, class_count=1)
        assert len(vocab) == 12
        params = model.ModelParams.zeros(small_dims(vocab, variant="rnn",
                                                    maxent_order=0))
        from bicap.corpus import CaptionedExample
        pairs = [(CaptionedExample(id="x", features=np.zeros(1), captions=[],
                                   split="test"), encode(["w0", "w3"], vocab))]
        ppl = metrics.perplexity_of_pairs(params, vocab, pairs)
        assert ppl == pytest.approx(12.0, rel=1e-12)


def test_criterion_08_retrieval_oracle():
    with criterion(8, "hand-scored 3-item galleries match brute-force "
                      "enumeration; R@K monotone"):
        scores = np.array([[0.1, 0.8, 0.3],
                           [0.5, 0.5, 0.9],
                           [0.2, 0.1, 0.05]])
        truth = [{2}, {0}, {0}]
        ranked, ranks = inference.ranks_from_scores(scores, truth)
        # brute-force enumeration of each row's descending order
        for qi in range(3):
            order = sorted(range(3), key=lambda g: (-scores[qi][g], g))
            assert ranked[qi] == order
            assert ranks[qi] == 1 + order.index(min(truth[qi],
                                                    key=order.index))
        assert ranks == [2, 2, 1]
        res = inference.aggregate_ranks(ranked, ranks)
        assert res.r_at[1] <= res.r_at[5] <= res.r_at[10]
        assert res.mean_rank == pytest.approx(5 / 3)
        assert res.median_rank == 2.0

        rng = SeededRng(8)
        for _ in range(25):
            m = rng.uniform(0, 1, (8, 12))
            t = [{rng.integers(0, 12)} for _ in range(8)]
            rr = inference.aggregate_ranks(*inference.ranks_from_scores(m, t))
            assert rr.r_at[1] <= rr.r_at[5] <= rr.r_at[10]


def test_criterion_09_reproducibility(tmp_path):
    with criterion(9, "same seed gives byte-identical dataset, checkpoint, "
                      "generations and reports end to end"):
        artifacts = []
        for sub in ("run1", "run2"):
            d = tmp_path / sub
            d.mkdir()
            data = d / "data.jsonl"
            ckpt = d / "model.ckpt"
            gen = d / "gen.tsv"
            report = d / "report.txt"
            assert cli.main(["synth", "--attrs", "6", "--n", "40",
                             "--seed", "21", "--out", str(data)]) == 0
            assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                             "--s-dim", "12", "--u-dim", "12",
                             "--maxent-hash-size", "512", "--epochs", "2",
                             "--seed", "21"]) == 0
            assert cli.main(["generate", "--model", str(ckpt), "--data",
                             str(data), "--candidates", "5", "--seed", "21",
                             "--out", str(gen)]) == 0
            assert cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                             "--candidates", "5", "--seed", "21",
                             "--out", str(report)]) == 0
            artifacts.append({
                "data": data.read_bytes(),
                "ckpt": ckpt.read_bytes(),
                "gen": gen.read_bytes(),
                "report": report.read_bytes(),
                "tsv": (d / "report.txt.tsv").read_bytes(),
            })
        assert artifacts[0] == artifacts[1]


def test_criterion_10_lr_schedule():
    with criterion(10, "non-decreasing validation perplexity halves the "
                       "learning rate at exactly the failing epochs"):
        dataset = corpus.generate_synthetic(6, 12, SeededRng(2))
        dims = small_dims(dataset.vocab, v_dim=6, s_dim=8, u_dim=8,
                          maxent_hash_size=256)
        params = model.init_params(dims, SeededRng(3))
        injected = [5.0, 5.0, 5.2, 6.0, 6.0, 7.0]
        cfg = training.TrainConfig(learning_rate=0.64, max_epochs=6, seed=1)
        _, history = training.train(params, dataset, cfg,
                                    valid_metric=lambda e, p: injected[e - 1])
        lrs = [e.lr for e in history.epochs]
        # epoch 1 sets the best; every later epoch fails, so the rate used
        # at epoch e >= 3 is half the previous epoch's
        assert lrs == [0.64, 0.64, 0.32, 0.16, 0.08, 0.04]

        # decreasing perplexity must never halve
        params2 = model.init_params(dims, SeededRng(3))
        improving = [9.0, 8.0, 7.0, 6.0]
        cfg2 = training.TrainConfig(learning_rate=0.64, max_epochs=4, seed=1)
        _, h2 = training.train(params2, dataset, cfg2,
                               valid_metric=lambda e, p: improving[e - 1])
        assert [e.lr for e in h2.epochs] == [0.64] * 4


# ---------------------------------------------------------------------------
# Trained-model oracles beyond the numbered criteria.

@pytest.mark.slow
def test_trained_generation_beats_permutation_baseline(trained_bundle):
    ds = trained_bundle["dataset"]
    params = trained_bundle["models"]["full"]
    names = corpus.attribute_names(ds.feature_dim)
    name_set = set(names)
    examples = ds.split("test")[:40]
    hist = corpus.caption_length_counts(ds, "train")
    root = SeededRng(7)
    generated = []
    for ex in examples:
        cfg = inference.GenConfig(length_hist=hist, candidate_count=20,
                                  lam_recon=1.0, seed=0)
        res = inference.generate(params, ds.vocab, ex.features, cfg,
                                 rng=root.derive(f"gen/{ex.id}"))
        generated.append(set(res.sentence.tokens) & name_set)

    def hit_rate(feature_owner):
        hits = 0
        for mentioned, ex in zip(generated, feature_owner):
            active = {names[i] for i, b in enumerate(ex.features) if b == 1.0}
            hits += bool(mentioned & active)
        return hits / len(generated)

    real = hit_rate(examples)
    perm = list(examples)
    SeededRng(13).shuffle(perm)
    chance = hit_rate(perm)
    print(f"\n  generation attribute hit rate: real={real:.2f} "
          f"shuffled-baseline={chance:.2f}")
    assert real > chance


@pytest.mark.slow
def test_trained_reconstruction_beats_untrained(trained_bundle):
    ds = trained_bundle["dataset"]
    trained = trained_bundle["models"]["full"]
    untrained = model.init_params(trained.dims, SeededRng(42).derive("init"))
    def mean_score(params):
        vals = [recon_score(params, ds.vocab, ex.captions[0], ex.features)
                for ex in ds.split("test")]
        return float(np.mean(vals))
    assert mean_score(trained) > mean_score(untrained)


@pytest.mark.slow
def test_trained_full_model_sgd_progress(trained_bundle):
    history = trained_bundle["histories"]["full"]
    losses = [e.train_loss for e in history.epochs]
    assert losses[-1] < losses[0]
