"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` (repeatable, so set-up time
can be taken as a median), runs one unit of a few timed calls per
``run_unit`` call and keeps every output, and checks the outputs in
``check`` once timing and tracing are over, so that checking adds neither
time nor traced calls. Timed regions cover only calls into the program's
public entry points. ``plan_units`` units make the smallest whole plan (an
epoch; a perplexity pass with 10 images; 10 queries): an untraced run does
at least that many, a traced run exactly that many.

``run_unit(i, clock)`` times each call into the program as ``clock(fn,
*args)``, which returns the call's result and duration (see ``run.py``),
and returns, per metric, a list of (amount, seconds) samples, one per timed
call. Amounts are counted in tokens, because calls differ in sentence
length: an operation counts as the tokens of the average operation of its
kind over the workload's whole input (a generated candidate of length L is
L + 1 tokens with <eos>).

* train:    ``tokens_per_s`` trained tokens and ``ops_per_s`` trained
            sentences, of a ``training.train`` call over 1/25 of the
            training and validation captions (validation included);
* eval:     ``tokens_per_s`` sampled tokens of ``inference.generate`` for
            one image at 100 candidates, and ``ops_per_s`` scored captions
            of ``metrics.perplexity_of_pairs`` over 25 captions;
* retrieve: ``tokens_per_s`` (query token, gallery image) pairs and
            ``ops_per_s`` (query, gallery image) pairs, of one concat T+I
            ``inference.rank_retrieval`` query against the 100-image test
            gallery.
"""

import math

import numpy as np

from bicap import corpus, inference, metrics, model, training
from bicap.numkit import SeededRng

from common import all_caption_pairs, bundle_dataset, bundle_dims, load_fixture

REL_TOL = 1e-9
CANDIDATES = 100
TRAIN_CHUNKS = 25
PPL_CHUNK = 25
IMAGES_PER_BLEU = 10
PPL_CHUNKS_PER_UNIT = 4     # 40 chunks of 25 captions = 10 units


def _close(a, b, rel=REL_TOL):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def _zscore(row):
    """The per-query z-score that combines T and I in ``mode='ti'``."""
    std = row.std(axis=1, keepdims=True)
    return (row - row.mean(axis=1, keepdims=True)) / np.where(std > 0, std, 1.0)


def _tokens(pairs):
    return sum(len(cap.ids) for _, cap in pairs)


class Train:
    """Per-word online SGD with truncated BPTT. An epoch from the same
    seeded fresh init is run as ``TRAIN_CHUNKS`` ``training.train`` calls,
    one per unit, that carry the weights over; each call trains on 26 of
    the 650 training captions and validates on 6 of the 150 validation
    captions, so validation keeps its share of an epoch. The only workload
    that runs the backward chain and writes weights between forward
    steps."""

    name = "train"
    plan_units = TRAIN_CHUNKS

    def __init__(self, seed):
        self.seed = seed
        self.epochs = []        # per epoch: EpochStats of each call so far
        self.sentences = 0      # trained, over all calls
        self.tokens = 0

    def setup(self):
        ds = self.dataset = bundle_dataset()
        self.init = model.init_params(bundle_dims(ds), SeededRng(self.seed).derive("init"))
        self.config = training.TrainConfig(learning_rate=0.1, max_epochs=1, seed=self.seed)
        train, valid = ds.split("train"), ds.split("valid")
        self.chunks = [corpus.Dataset(train[k::TRAIN_CHUNKS] + valid[k::TRAIN_CHUNKS],
                                      ds.vocab, ds.feature_dim, ds.norm_max)
                       for k in range(TRAIN_CHUNKS)]
        pairs = ds.caption_pairs("train")
        self.ops_per_token = len(pairs) / _tokens(pairs)

    def run_unit(self, i, clock):
        k = i % TRAIN_CHUNKS
        if k == 0:
            self.params = self.init.copy()
            self.epochs.append([])
        pairs = self.chunks[k].caption_pairs("train")
        (_, history), dt = clock(training.train, self.params, self.chunks[k], self.config)
        self.epochs[-1].append(history.epochs[-1])
        self.sentences += len(pairs)
        self.tokens += _tokens(pairs)
        return {"tokens_per_s": [(_tokens(pairs), dt)],
                "ops_per_s": [(_tokens(pairs) * self.ops_per_token, dt)]}

    def ratio_base(self):
        return "trained tokens", self.tokens, None

    def check(self, log):
        vocab = self.dataset.vocab
        untrained = metrics.perplexity(self.init, vocab, self.dataset, "valid")
        trained = metrics.perplexity(self.params, vocab, self.dataset, "valid")
        first = self.epochs[0]
        failed = 0
        for stats in self.epochs:
            for k, s in enumerate(stats):
                # Sentence losses are nonnegative, so a call's mean loss is
                # finite exactly when every sentence's loss is; reruns of a
                # call from the same weights must agree to the bit.
                ok = (math.isfinite(s.train_loss) and math.isfinite(s.valid_ppl)
                      and s.valid_ppl == first[k].valid_ppl)
                failed += 0 if ok else len(self.chunks[k].caption_pairs("train"))
        if not (math.isfinite(trained) and trained < untrained):
            failed = self.sentences
        log(f"train: {self.sentences} sentences / {self.tokens} tokens in "
            f"{sum(map(len, self.epochs))} calls; valid ppl {trained:.6f} at the end "
            f"(untrained {untrained:.4f})")
        return self.sentences, failed


class Eval:
    """Perplexity of the pinned model over all 1,000 captions, in calls of
    ``PPL_CHUNK`` captions, and sample-and-rescore generation for
    seed-chosen test images, with corpus BLEU over each group of
    ``IMAGES_PER_BLEU`` images. A unit is one image and the next
    ``PPL_CHUNKS_PER_UNIT`` perplexity calls, so ``plan_units`` units make
    one perplexity pass. The only workload that builds full next-word
    distributions."""

    name = "eval"
    plan_units = IMAGES_PER_BLEU

    def __init__(self, seed):
        self.seed = seed
        self.gen_results = []   # (example, GenResult)
        self.bleu = []

    def setup(self):
        self.dataset = bundle_dataset()
        self.params, self.fixture = load_fixture(self.dataset)
        pairs = all_caption_pairs(self.dataset)
        self.tokens = _tokens(pairs)
        self.ppl_chunks = [pairs[i:i + PPL_CHUNK] for i in range(0, len(pairs), PPL_CHUNK)]
        self.ppl_results = [[] for _ in self.ppl_chunks]
        self.ops_per_token = len(pairs) / self.tokens
        self.images = self.dataset.split("test")
        SeededRng(self.seed).derive("images").shuffle(self.images)
        self.gen_config = inference.GenConfig(
            length_hist=corpus.caption_length_counts(self.dataset, "train"),
            candidate_count=CANDIDATES, lam_recon=self.fixture["lambda_recon"])

    def run_unit(self, i, clock):
        vocab = self.dataset.vocab
        samples = {"tokens_per_s": [], "ops_per_s": []}
        for c in range(i * PPL_CHUNKS_PER_UNIT, (i + 1) * PPL_CHUNKS_PER_UNIT):
            chunk = self.ppl_chunks[c % len(self.ppl_chunks)]
            ppl, dt = clock(metrics.perplexity_of_pairs, self.params, vocab, chunk)
            self.ppl_results[c % len(self.ppl_chunks)].append(ppl)
            samples["ops_per_s"].append((_tokens(chunk) * self.ops_per_token, dt))
        ex = self.images[i % len(self.images)]
        rng = SeededRng(self.seed).derive(f"generate/{ex.id}")
        res, dt = clock(inference.generate, self.params, vocab, ex.features, self.gen_config,
                        rng=rng)
        samples["tokens_per_s"].append((CANDIDATES * (res.length + 1), dt))
        self.gen_results.append((ex, res))
        if len(self.gen_results) % IMAGES_PER_BLEU == 0:
            self.bleu.append(metrics.corpus_bleu(
                (r.sentence.tokens, [c.tokens for c in e.captions])
                for e, r in self.gen_results[-IMAGES_PER_BLEU:]))
        return samples

    def ratio_base(self):
        sampled = sum(CANDIDATES * res.length for _, res in self.gen_results)
        return "sampled tokens", sampled, "inference.generate"

    def check(self, log):
        vocab = self.dataset.vocab
        attempted = failed = 0
        for chunk, values in zip(self.ppl_chunks, self.ppl_results):
            attempted += len(chunk) * len(values)
            failed += len(chunk) * sum(v != values[0] for v in values)
        # The first value of every chunk makes one whole pass.
        log2_sum = sum(_tokens(chunk) * math.log2(values[0])
                       for chunk, values in zip(self.ppl_chunks, self.ppl_results))
        ppl = 2.0 ** (log2_sum / self.tokens)
        reference = self.fixture["reference_ppl"]["all"]
        if not _close(ppl, reference):
            failed += sum(map(len, self.ppl_chunks))
        banned = {vocab.eos_id, vocab.unk_id}
        for ex, res in self.gen_results:
            attempted += 1
            ids = res.sentence.ids
            ok = (len(ids) == res.length + 1 and ids[-1] == vocab.eos_id
                  and not banned.intersection(ids[:-1])
                  and len(res.candidate_scores) == CANDIDATES
                  and res.score == min(res.candidate_scores)
                  and _close(res.score, inference.score_candidate(
                      self.params, vocab, ex.features, res.sentence,
                      self.gen_config.lam_recon)))
            failed += 0 if ok else 1
        failed += sum(not 0.0 <= b <= 1.0 for b in self.bleu)
        log(f"eval: perplexity {ppl:.10f} over {self.tokens} tokens (reference "
            f"{reference:.10f}); {len(self.gen_results)} images generated; BLEU per "
            f"{IMAGES_PER_BLEU} images {', '.join(f'{100 * b:.2f}' for b in self.bleu)}")
        return attempted, failed


class Retrieve:
    """Concat T+I retrieval in the image direction: seed-ordered
    caption-group queries, one ``rank_retrieval`` call each, against the
    full 100-image test gallery. Every sentence is scored under 100 feature
    vectors although its u trajectory does not depend on them."""

    name = "retrieve"
    plan_units = 10

    def __init__(self, seed):
        self.seed = seed
        self.results = []       # (query index, RetrievalResult)

    def setup(self):
        self.dataset = bundle_dataset()
        self.params, _ = load_fixture(self.dataset)
        self.queries, self.gallery, self.truth = inference.image_retrieval_task(
            self.dataset, "test", concat=True)
        self.pairs_per_pair_token = len(self.queries) / sum(
            self._query_tokens(q) for q in range(len(self.queries)))
        self.order = list(range(len(self.queries)))
        SeededRng(self.seed).derive("queries").shuffle(self.order)

    def _query_tokens(self, q):
        return sum(len(sent.ids) for sent in self.queries[q])

    def run_unit(self, i, clock):
        q = self.order[i % len(self.order)]
        res, dt = clock(inference.rank_retrieval, self.params, self.dataset.vocab,
                        [self.queries[q]], self.gallery, [self.truth[q]], mode="ti")
        self.results.append((q, res))
        pairs = len(self.gallery)
        pair_tokens = self._query_tokens(q) * pairs
        return {"tokens_per_s": [(pair_tokens, dt)],
                "ops_per_s": [(pair_tokens * self.pairs_per_pair_token, dt)]}

    def ratio_base(self):
        return "query tokens", sum(self._query_tokens(q) for q, _ in self.results), None

    def _check_scores(self, q, res):
        """T scores of one query against ``model.sentence_loss``, and its
        ranking and rank against a recomputation from the score matrices."""
        vocab = self.dataset.vocab
        t_loglik, i_scores = inference.score_matrices(self.params, vocab, [self.queries[q]],
                                                      self.gallery)
        for j, v in enumerate(self.gallery):
            expected = -sum(model.sentence_loss(self.params, v, sent, 0.0, vocab)[0].word_nll
                            for sent in self.queries[q])
            if not _close(t_loglik[0, j], expected):
                return False
        ranked = np.argsort(-(_zscore(t_loglik) + _zscore(i_scores))[0], kind="stable").tolist()
        (truth,) = self.truth[q]
        return ranked == res.ranked_ids[0] and res.ranks[0] == 1 + ranked.index(truth)

    def check(self, log):
        size = len(self.gallery)
        failed = 0
        ranks = {}
        for q, res in self.results:
            ok = (sorted(res.ranked_ids[0]) == list(range(size))
                  and 1 <= res.ranks[0] <= size)
            failed += 0 if ok else 1
            ranks[q] = res.ranks[0]
        first_q, first_res = self.results[0]
        if not self._check_scores(first_q, first_res):
            failed += 1
        r = np.array(list(ranks.values()))
        log(f"retrieve: {len(self.results)} queries ({len(ranks)} distinct) x {size} images; "
            f"R@1 {100 * np.mean(r <= 1):.1f} R@5 {100 * np.mean(r <= 5):.1f} "
            f"R@10 {100 * np.mean(r <= 10):.1f} median rank {np.median(r):.1f}")
        return len(self.results), failed


WORKLOADS = {cls.name: cls for cls in (Train, Eval, Retrieve)}
