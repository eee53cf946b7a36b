"""Generation, bi-directional retrieval and activation traces.

Generation follows the sample-and-rescore protocol: draw a sentence
length from the empirical training distribution, sample that many tokens
``candidate_count`` times, keep the candidate with the lowest joint loss.
Retrieval ranks a gallery by normalized sentence likelihood (T), by the
negated average feature-reconstruction error (I), or by their combination
(T+I).
"""

from dataclasses import dataclass

import numpy as np

from .corpus import EncodedSentence
from .model import (advance_rows, feature_vector, gallery_word_nll, recon_cross_entropy,
                    reset_state, sentence_loss, sentence_states, shift_context,
                    word_distribution_rows)
from .numkit import SeededRng, multinomial_sample, sigmoid_clipped


@dataclass
class GenConfig:
    length_hist: dict           # length -> count (empirical, from training)
    candidate_count: int = 100
    lam_recon: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be >= 1")
        if not self.length_hist:
            raise ValueError("length histogram is empty")


def sample_length(hist, rng):
    """Draw a sentence length from an empirical {length: weight} histogram."""
    if not hist:
        raise ValueError("length histogram is empty")
    lengths = sorted(hist)
    weights = np.array([hist[n] for n in lengths], dtype=np.float64)
    p = weights / weights.sum()
    return lengths[multinomial_sample(p, rng)]


def sample_candidates(params, vocab, v, uniforms, lam_recon):
    """Sample and score one candidate per row of a (C, length) block of
    uniform variates, all C candidates in one batched pass.

    Candidate i takes its t-th token from that step's next-word
    distribution with <eos> and <unk> masked out and the rest
    renormalized, by the rule of ``multinomial_sample`` applied to
    ``uniforms[i, t]``; one more step appends <eos>. While sampling, each
    candidate adds up the joint loss ``score_candidate`` computes: the
    unmasked word NLL of each token plus ``lam_recon`` times the
    reconstruction cross-entropy. Returns the (C, length + 1) ids and the
    (C,) joint losses.
    """
    dims = params.dims
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.ndim != 2 or uniforms.shape[1] < 1:
        raise ValueError("length must be >= 1")
    count, length = uniforms.shape
    v = feature_vector(dims, v)
    drive = params.W_vs @ v + params.b_s if dims.uses_v else params.b_s
    state = reset_state(params)
    s = np.broadcast_to(state.s, (count, dims.s_dim))
    u = state.u
    contexts = [state.context] * count
    bases_cache = {}
    rows = np.arange(count)
    ids = np.full((count, length + 1), vocab.eos_id)
    scores = np.zeros(count)
    prev = np.full(count, vocab.eos_id)
    for t in range(length + 1):
        s, u = advance_rows(params, s, u, prev, drive)
        contexts = [shift_context(dims, c, w) for c, w in zip(contexts, prev.tolist())]
        qw, p = word_distribution_rows(params, s, u, contexts, vocab, bases_cache)
        if t < length:
            dist = qw * p
            dist[:, [vocab.eos_id, vocab.unk_id]] = 0.0
            mass = dist.sum(axis=1)
            if not np.all(mass > 0.0):
                raise ValueError("no probability mass left after masking <eos>/<unk>")
            cdf = np.cumsum(dist / mass[:, None], axis=1)
            draw = uniforms[:, t] * cdf[:, -1]
            ids[:, t] = np.minimum((cdf <= draw[:, None]).sum(axis=1), dims.vocab_size - 1)
        prev = ids[:, t]
        joint = -np.log(qw[rows, prev]) - np.log(p[rows, prev])
        if dims.uses_u:
            recon = sigmoid_clipped(u @ params.W_uv.T + params.b_v, dims.sigmoid_clip)
            joint = joint + lam_recon * recon_cross_entropy(v, recon)
        scores += joint
    return ids, scores


def _encoded(vocab, ids):
    ids = ids.tolist()
    return EncodedSentence(ids=ids, tokens=[vocab.tokens[i] for i in ids[:-1]])


def sample_sentence(params, vocab, v, length, rng):
    """Sample exactly ``length`` tokens from the model, then append <eos>.

    <eos> and <unk> are masked out of every step's distribution (and the
    remainder renormalized) so candidates are full-length real words.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    ids, _ = sample_candidates(params, vocab, v, rng.random((1, length)), 0.0)
    return _encoded(vocab, ids[0])


def score_candidate(params, vocab, v, sent, lam_recon, recon_kind="ce"):
    """Joint loss of a candidate: word NLL plus weighted reconstruction
    error, summed over steps (lower is better)."""
    total, _ = sentence_loss(params, v, sent, lam_recon, vocab, recon_kind)
    return total.joint


@dataclass
class GenResult:
    sentence: EncodedSentence
    score: float
    length: int
    candidate_scores: list


def generate(params, vocab, v, cfg, rng=None):
    """Sample-and-rescore generation; deterministic given the seed, ties
    broken by the earliest candidate.

    The length is drawn first; then one (candidate_count, length) block of
    uniforms, in candidate-major order, feeds ``sample_candidates``.
    """
    if rng is None:
        rng = SeededRng(cfg.seed)
    length = sample_length(cfg.length_hist, rng)
    ids, scores = sample_candidates(params, vocab, v,
                                    rng.random((cfg.candidate_count, length)), cfg.lam_recon)
    best = int(np.argmin(scores))
    return GenResult(sentence=_encoded(vocab, ids[best]), score=float(scores[best]),
                     length=length, candidate_scores=scores.tolist())


def _sentences_of(item):
    """A gallery item is one sentence or a group (concatenated protocol)."""
    return item if isinstance(item, (list, tuple)) else [item]


def _word_nll(params, vocab, feats, item):
    """(N,) log-likelihood cost of an item under each row of an (N, v_dim)
    feature matrix; groups sum their sentences (the state resets between
    them)."""
    return sum(gallery_word_nll(params, feats, sent, vocab) for sent in _sentences_of(item))


def recon_trajectory(params, item):
    """Per-step feature reconstructions driven by words alone.

    Only the visual-memory half of the network runs here: the trajectory
    never reads s or the observed features, which is what makes one model
    usable in both directions.
    """
    dims = params.dims
    if not dims.uses_u:
        raise ValueError(f"variant '{dims.variant}' has no reconstruction half")
    rows = []
    for sent in _sentences_of(item):
        u = sigmoid_clipped(params.u0, dims.sigmoid_clip)
        prev = sent.ids[-1]
        for target in sent.ids:
            pre_u = params.W_wu[:, prev] + params.W_uu @ u + params.b_u
            u = sigmoid_clipped(pre_u, dims.sigmoid_clip)
            rows.append(sigmoid_clipped(params.W_uv @ u + params.b_v, dims.sigmoid_clip))
            prev = target
    return np.stack(rows)


def _recon_profile(params, item):
    """Mean log-reconstruction profile of an item: (mean_t log v~_t,
    mean_t log(1-v~_t)); the I score against features v is then
    v . a + (1-v) . b."""
    traj = recon_trajectory(params, item)
    return np.log(traj).mean(axis=0), np.log(1.0 - traj).mean(axis=0)


def recon_score(params, sent, v):
    """Negated average per-step cross-entropy between the word-driven
    reconstruction trajectory and features ``v`` (higher is better)."""
    a, b = _recon_profile(params, sent)
    v = np.asarray(v, dtype=np.float64)
    return float(v @ a + (1.0 - v) @ b)


@dataclass
class RetrievalResult:
    ranked_ids: list        # per query: gallery indices, best first
    ranks: list             # per query: 1-based rank of the first ground truth
    r_at: dict              # K -> percent of queries with rank <= K
    median_rank: float
    mean_rank: float
    mode: str = ""


def ranks_from_scores(scores, truth):
    """Per-query rankings from a (queries x gallery) score matrix; higher
    scores rank first, ties keep the earlier gallery index."""
    scores = np.asarray(scores, dtype=np.float64)
    ranked_ids = []
    ranks = []
    for qi in range(scores.shape[0]):
        if not truth[qi]:
            raise ValueError(f"query {qi} has no ground-truth item")
        order = np.argsort(-scores[qi], kind="stable")
        ranked_ids.append(order.tolist())
        pos = {g: i for i, g in enumerate(order.tolist())}
        ranks.append(1 + min(pos[g] for g in truth[qi]))
    return ranked_ids, ranks


def aggregate_ranks(ranked_ids, ranks, mode=""):
    ranks_arr = np.asarray(ranks)
    r_at = {k: 100.0 * float((ranks_arr <= k).mean()) for k in (1, 5, 10)}
    return RetrievalResult(ranked_ids=ranked_ids, ranks=list(ranks),
                           r_at=r_at, median_rank=float(np.median(ranks_arr)),
                           mean_rank=float(ranks_arr.mean()), mode=mode)


# Decimals kept of a z-scored T+I sum: z-scores are O(1), and the batched and
# scalar scorers agree on them to about 1e-11.
ZSCORE_DECIMALS = 9


def _zscore_rows(m):
    mean = m.mean(axis=1, keepdims=True)
    std = m.std(axis=1, keepdims=True)
    return np.where(std > 0, (m - mean) / np.where(std > 0, std, 1.0), 0.0)


def _rank_rows(m):
    """Row-wise fractional ranks (higher score -> higher rank value)."""
    order = np.argsort(np.argsort(m, axis=1, kind="stable"), axis=1, kind="stable")
    return order.astype(np.float64)


def score_matrices(params, vocab, queries, gallery):
    """(T log-likelihood matrix, I reconstruction matrix) for a retrieval
    task. Queries of feature vectors rank a sentence gallery and vice
    versa; the I matrix is None for variants without the visual memory."""
    image_queries = isinstance(queries[0], np.ndarray)
    feats = queries if image_queries else gallery
    items = gallery if image_queries else queries
    f = np.asarray(feats, dtype=np.float64)          # (feats, v_dim)

    nll = np.stack([_word_nll(params, vocab, f, item) for item in items])
    # nll is (items x feats); orient to (queries x gallery)
    t_loglik = -(nll if not image_queries else nll.T)

    i_scores = None
    if params.dims.uses_u:
        profiles = [_recon_profile(params, item) for item in items]
        a = np.stack([p[0] for p in profiles])      # (items, v_dim)
        b = np.stack([p[1] for p in profiles])
        per_item = a @ f.T + b @ (1.0 - f).T         # (items, feats)
        i_scores = per_item if not image_queries else per_item.T
    return t_loglik, i_scores


def rank_retrieval(params, vocab, queries, gallery, truth, mode="t",
                   combine="zscore"):
    """Rank a gallery for every query and aggregate R@K, median and mean
    rank of the (first) ground-truth item.

    ``mode``: 't' normalized sentence likelihood, 'i' negated average
    reconstruction error, 'ti' their per-query combination (z-scored sum
    by default, fractional rank averaging with ``combine='rank'``).
    """
    if not gallery:
        raise ValueError("gallery is empty")
    if len(truth) != len(queries):
        raise ValueError("one ground-truth set per query required")
    t_loglik, i_scores = score_matrices(params, vocab, queries, gallery)
    if mode in ("i", "ti") and i_scores is None:
        raise ValueError("I scoring needs the reconstruction half (full variant)")
    if mode == "t":
        # per-query normalization over the gallery (softmax of log-likelihood)
        m = t_loglik.max(axis=1, keepdims=True)
        e = np.exp(t_loglik - m)
        scores = e / e.sum(axis=1, keepdims=True)
    elif mode == "i":
        scores = i_scores
    elif mode == "ti":
        if combine == "zscore":
            # Over two items each z-scored row is +-1, so the sum ties
            # exactly whenever T and I disagree; rounding keeps such ties
            # exact, to be broken by gallery index rather than by BLAS noise.
            scores = np.round(_zscore_rows(t_loglik) + _zscore_rows(i_scores),
                              ZSCORE_DECIMALS)
        elif combine == "rank":
            scores = _rank_rows(t_loglik) + _rank_rows(i_scores)
        else:
            raise ValueError("combine must be 'zscore' or 'rank'")
    else:
        raise ValueError("mode must be 't', 'i' or 'ti'")
    ranked_ids, ranks = ranks_from_scores(scores, truth)
    return aggregate_ranks(ranked_ids, ranks, mode=mode)


def sentence_retrieval_task(dataset, split="test", concat=False):
    """Image queries against a caption gallery.

    Returns (queries, gallery, truth): per-sentence protocol lists every
    caption separately; the concatenated protocol groups each example's
    captions into one gallery item.
    """
    examples = dataset.split(split)
    if not examples:
        raise ValueError(f"split '{split}' is empty")
    queries = [ex.features for ex in examples]
    gallery = []
    truth = []
    if concat:
        gallery = [tuple(ex.captions) for ex in examples]
        truth = [{i} for i in range(len(examples))]
    else:
        owners = []
        for i, ex in enumerate(examples):
            for cap in ex.captions:
                gallery.append(cap)
                owners.append(i)
        for i in range(len(examples)):
            truth.append({g for g, owner in enumerate(owners) if owner == i})
    return queries, gallery, truth


def image_retrieval_task(dataset, split="test", concat=False):
    """Caption queries against an image gallery."""
    examples = dataset.split(split)
    if not examples:
        raise ValueError(f"split '{split}' is empty")
    gallery = [ex.features for ex in examples]
    queries = []
    truth = []
    if concat:
        queries = [tuple(ex.captions) for ex in examples]
        truth = [{i} for i in range(len(examples))]
    else:
        for i, ex in enumerate(examples):
            for cap in ex.captions:
                queries.append(cap)
                truth.append({i})
    return queries, gallery, truth


@dataclass
class ActivationTrace:
    tokens: list            # input token consumed at each step
    s_rows: np.ndarray      # (steps, s_dim)
    u_rows: np.ndarray      # (steps, u_dim) or None
    stability_s: np.ndarray  # per-unit mean |a_t - a_{t-1}|
    stability_u: np.ndarray

    def to_tsv(self):
        dims_s = self.s_rows.shape[1]
        dims_u = 0 if self.u_rows is None else self.u_rows.shape[1]
        header = (["token"] + [f"s_{i}" for i in range(dims_s)]
                  + [f"u_{i}" for i in range(dims_u)])
        lines = ["\t".join(header)]
        for t, tok in enumerate(self.tokens):
            cells = [tok] + [f"{x:.6f}" for x in self.s_rows[t]]
            if self.u_rows is not None:
                cells += [f"{x:.6f}" for x in self.u_rows[t]]
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def _stability(rows):
    if rows.shape[0] < 2:
        return np.zeros(rows.shape[1])
    return np.abs(np.diff(rows, axis=0)).mean(axis=0)


def activation_trace(params, vocab, v, sent):
    """Record s_t and u_t after every token of a sentence, plus a per-unit
    temporal-stability statistic (mean absolute step-to-step change). Only
    the recurrence runs; no next-word distribution is built."""
    tr = sentence_states(params, v, sent, vocab)
    s_rows = tr.s[1:]
    u_rows = None if tr.u is None else tr.u[1:]
    return ActivationTrace(
        tokens=[vocab.tokens[i] for i in tr.inputs],
        s_rows=s_rows,
        u_rows=u_rows,
        stability_s=_stability(s_rows),
        stability_u=None if u_rows is None else _stability(u_rows),
    )
