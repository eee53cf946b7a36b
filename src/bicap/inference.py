"""Generation, bi-directional retrieval and activation traces.

Generation follows the sample-and-rescore protocol: draw a sentence
length from the empirical training distribution, sample that many tokens
``candidate_count`` times, keep the candidate with the lowest joint loss.
Retrieval ranks a gallery by normalized sentence likelihood (T), by the
negated average feature-reconstruction error (I), or by their combination
(T+I).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import EncodedSentence
from .model import (advance_rows, feature_vector, gallery_scores,
                    input_columns, recon_cross_entropy, recon_rows, sentence_loss,
                    sentence_states, sentences_of, stacked_drive, stacked_start, token_bases,
                    word_distribution_rows)
from .numkit import SeededRng, is_int, multinomial_sample, sigmoid_clipped


@dataclass
class GenConfig:
    length_hist: dict           # length -> count (empirical, from training)
    candidate_count: int = 100
    lam_recon: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (is_int(self.candidate_count) and self.candidate_count >= 1):
            raise ValueError("candidate_count must be an integer >= 1")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.lam_recon < math.inf:   # NaN fails the comparison too
            raise ValueError(f"lam_recon must be >= 0 and finite, got {self.lam_recon!r}")
        weights = np.array([float(w) for w in self.length_hist.values()])
        if not (all(is_int(n) and n >= 1 for n in self.length_hist)
                and np.all(weights >= 0) and 0 < weights.sum() < math.inf):
            raise ValueError("length_hist must map lengths >= 1 to finite weights >= 0 "
                             f"with a positive sum, got {self.length_hist!r}")


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
    uniform variates in [0, 1), all C candidates in one batched pass.

    Candidate i takes its t-th token from that step's next-word
    distribution with <eos> and <unk> masked out and the rest
    renormalized, by the rule of ``multinomial_sample`` applied to
    ``uniforms[i, t]``; one more step appends <eos>. Candidates that share
    a prefix share its state and its distribution, so each step runs on one
    row per distinct prefix, its group, ordered as the sorted (group, id)
    keys of the step before: the rows depend only on the set of prefixes.
    Each step advances the group rows through ``advance_rows``, in place of
    their gathered input columns, and samples on the (vocab, groups) arrays
    under ``word_distribution_rows``' ``.T`` views, each candidate from its
    group's cdf column with its own uniform. It keeps each candidate's picked
    probabilities and each group's u row; after the last step it adds up
    each candidate's joint loss, as ``score_candidate`` computes it: the
    unmasked word NLL of each token plus ``lam_recon`` times the
    reconstruction cross-entropy. Returns the (C, length + 1) ids and the
    (C,) joint losses. A uniform that is NaN or outside [0, 1) raises
    ValueError.
    """
    dims, sd, vs = params.dims, params.dims.s_dim, params.dims.vocab_size
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.ndim != 2 or uniforms.shape[1] < 1:
        raise ValueError("length must be >= 1")
    if not np.all((uniforms >= 0.0) & (uniforms < 1.0)):   # NaN fails it too
        raise ValueError("uniforms must lie in [0, 1)")
    count, length = uniforms.shape
    v = feature_vector(dims, v)
    drive, prev = stacked_drive(params, v), stacked_start(params)[None]
    fed = np.full((count, length + 2), vocab.eos_id)   # step t feeds column t: <eos>, then ids
    ids = fed[:, 1:]
    reach = max(dims.maxent_order - 1, 1)               # fed tokens the newest bases read
    keep = ~np.isin(np.arange(vs), [vocab.eos_id, vocab.unk_id])[:, None]
    picked = np.empty((2, length + 1, count))           # class and member probability of each pick
    members = np.arange(count)
    group = np.zeros(count, dtype=np.intp)              # each candidate's row at this step
    parent = rep = np.zeros(1, dtype=np.intp)           # each row's previous row and a member
    us, at, stored = [], np.empty((length + 1, count), dtype=np.intp), 0
    for t in range(length + 1):
        if t:   # this step's rows: the distinct (row, id) keys of the last step, in sorted order
            keys = group * vs + ids[:, t - 1]
            mark = np.zeros(len(rep) * vs, dtype=bool)
            mark[keys] = True
            heads = np.flatnonzero(mark)
            group, parent = heads.searchsorted(keys), heads // vs
            rep = np.empty(len(heads), dtype=np.intp)
            rep[group] = members                        # any member: they share the prefix
        window = fed[rep, max(0, t + 1 - reach):t + 1]
        pre = input_columns(params, window[:, -1])
        prev = advance_rows(params, pre, prev[parent], drive, pre)
        u = prev[:, sd:] if dims.uses_u else None
        if u is not None:
            us.append(u)
            at[t] = stored + group                      # row of each candidate's u in ``us``
            stored += len(u)
        qw, p = word_distribution_rows(params, prev[:, :sd], u,
                                       token_bases(dims, window)[:, -1], vocab)
        qw, p = qw.T, p.T                               # (vocab, rows)
        if t < length:
            dist = qw * p * keep
            mass = dist.sum(axis=0)
            if not mass.min() > 0.0:   # NaN fails it too
                raise ValueError("no probability mass left after masking <eos>/<unk>")
            cdf = np.add.accumulate(dist / mass, axis=0).take(group, axis=1)
            draw = uniforms[:, t] * cdf[-1]
            ids[:, t] = np.minimum((cdf <= draw).sum(axis=0), vs - 1)
        w = ids[:, t]
        picked[0, t], picked[1, t] = qw[w, group], p[w, group]
    logs = np.log(picked)
    joint = -logs[0] - logs[1]                          # (length + 1, C)
    if dims.uses_u:
        recon = sigmoid_clipped(np.concatenate(us) @ params.W_uv.T + params.b_v,
                                dims.sigmoid_clip)
        joint = joint + lam_recon * recon_cross_entropy(v, recon)[at]
    return ids, joint.sum(axis=0)


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


def score_candidate(params, vocab, v, sent, lam_recon):
    """Joint loss of a candidate: word NLL plus weighted reconstruction
    error, summed over steps (lower is better)."""
    total, _ = sentence_loss(params, v, sent, lam_recon, vocab)
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


def recon_trajectory(params, vocab, item):
    """Per-step feature reconstructions driven by words alone.

    Only the visual-memory half of the network runs here: the trajectory
    never reads s or the observed features, which is what makes one model
    usable in both directions. A sentence that ``check_sentence`` rejects
    (empty, no final <eos>, an id outside the vocabulary) raises, and so
    does a group holding no sentence.
    """
    dims = params.dims
    if not dims.uses_u:
        raise ValueError(f"variant '{dims.variant}' has no reconstruction half")
    us = []
    for sent in sentences_of(dims, item, vocab.eos_id, f"item {item!r}"):
        u = sigmoid_clipped(params.u0, dims.sigmoid_clip)
        for prev in [sent.ids[-1]] + list(sent.ids[:-1]):   # the u half of ``advance_rows``
            u = sigmoid_clipped(params.W_wu.T[prev] + params.W_uu @ u + params.b_u,
                                dims.sigmoid_clip)
            us.append(u)
    return recon_rows(params, us)[1]


@dataclass
class RetrievalResult:
    ranked_ids: list        # per query: gallery indices, best first
    ranks: list             # per query: 1-based rank of the first ground truth
    r_at: dict              # K -> percent of queries with rank <= K
    median_rank: float
    mean_rank: float


def ranks_from_scores(scores, truth):
    """Per-query rankings from a (queries x gallery) score matrix; higher
    scores rank first, ties keep the earlier gallery index, and -inf ranks
    last. A score row holding NaN, a query with no ground-truth set, an
    empty one or one holding an index that is not an integer (a bool is
    not) inside the gallery raises
    ValueError naming the query; more sets than queries raise ValueError
    naming both counts."""
    scores = np.asarray(scores, dtype=np.float64)
    nan_rows = np.flatnonzero(np.isnan(scores).any(axis=1))
    if nan_rows.size:
        raise ValueError(f"query {nan_rows[0]} has a NaN score")
    if len(truth) < len(scores):
        raise ValueError(f"query {len(truth)} has no ground-truth set: {len(truth)} sets "
                         f"for {len(scores)} queries")
    if len(truth) > len(scores):
        raise ValueError(f"{len(truth)} ground-truth sets for {len(scores)} queries")
    ranked_ids, ranks = [], []
    positions, pos = np.arange(scores.shape[1]), np.empty(scores.shape[1], dtype=np.int64)
    for qi in range(scores.shape[0]):
        if not truth[qi]:
            raise ValueError(f"query {qi} has no ground-truth item")
        bad = [g for g in truth[qi] if not (is_int(g) and 0 <= g < scores.shape[1])]
        if bad:
            raise ValueError(f"query {qi} has ground-truth index {bad[0]} outside the "
                             f"gallery [0, {scores.shape[1]})")
        order = np.argsort(-scores[qi], kind="stable")
        ranked_ids.append(order.tolist())
        pos[order] = positions      # the inverse permutation: each index's place
        ranks.append(1 + int(pos[list(truth[qi])].min()))
    return ranked_ids, ranks


def aggregate_ranks(ranked_ids, ranks):
    """R@1, R@5, R@10, median and mean of integer ranks, computed in Python:
    on integers the counts and sums are exact and each quotient is rounded
    once, so they equal numpy's ``mean`` and ``median`` of the ranks."""
    ranks = list(ranks)
    srt, half = sorted(ranks), len(ranks) // 2     # srt[~half] is srt[half] at odd length
    r_at = {k: 100.0 * (bisect_right(srt, k) / len(ranks)) for k in (1, 5, 10)}
    return RetrievalResult(ranked_ids=ranked_ids, ranks=ranks, r_at=r_at,
                           median_rank=(srt[half] + srt[~half]) / 2,
                           mean_rank=sum(ranks) / len(ranks))


# Decimals kept of a z-scored T+I sum: z-scores are O(1), and the batched and
# scalar scorers agree on them to about 1e-11.
ZSCORE_DECIMALS = 9


def _zscore_rows(m):
    """Row-wise z-scores. A constant row scores 0, and so does a row holding
    +-inf (its std is NaN); a row holding NaN stays NaN."""
    n = m.shape[1]
    with np.errstate(invalid="ignore"):     # inf - inf, in a row holding +-inf
        # m.mean and m.std as numpy computes them, without their wrappers
        d = m - np.add.reduce(m, axis=1, keepdims=True) / n
        std = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True) / n)
        z = np.where(std > 0, d / np.where(std > 0, std, 1.0), 0.0)
    return np.where(np.isnan(m).any(axis=1, keepdims=True), np.nan, z)


def _rank_rows(m):
    """Row-wise fractional ranks (higher score -> higher rank value); NaN
    scores stay NaN."""
    order = np.argsort(np.argsort(m, axis=1, kind="stable"), axis=1, kind="stable")
    return np.where(np.isnan(m), np.nan, order)


def _is_sentence_item(x):
    return isinstance(x, EncodedSentence) or (
        isinstance(x, (list, tuple)) and len(x) > 0
        and all(isinstance(s, EncodedSentence) for s in x))


def _feature_queries(dims, queries):
    """Feature-vector queries, arrays or lists, as one (N, dim) matrix;
    a query that is not a vector of dim ``v_dim`` (of the first query's
    dim, for a variant that reads no features) raises ValueError naming
    its index."""
    rows = []
    for k, q in enumerate(queries):
        try:
            row = np.asarray(q, dtype=np.float64)
        except (TypeError, ValueError):
            row = None
        want = (dims.v_dim,) if dims.uses_v else rows[0].shape if rows else None
        if row is None or row.ndim != 1 or row.shape != (want or row.shape):
            raise ValueError(f"query {k} is neither a sentence, a group of sentences nor "
                             f"a feature vector" + (f" of dim {want[0]}" if want else ""))
        rows.append(row)
    return np.array(rows)


def score_matrices(params, vocab, queries, gallery):
    """(T log-likelihood matrix, I reconstruction matrix) for a retrieval
    task. Queries of sentences (or groups of sentences) rank a gallery of
    feature vectors, and feature-vector queries rank a sentence gallery;
    the I matrix is None for variants without the visual memory. Both come
    from one ``gallery_scores`` call. Queries and gallery may be lists or
    arrays."""
    if len(queries) == 0:
        raise ValueError("the query list is empty")
    if len(gallery) == 0:
        raise ValueError("the gallery is empty")
    image_queries = not _is_sentence_item(queries[0])
    items = gallery if image_queries else queries
    bad = next((k for k, x in enumerate(items) if not _is_sentence_item(x)), None)
    if bad is not None:
        raise ValueError(f"{'gallery item' if image_queries else 'query'} {bad} is "
                         "neither a sentence nor a group of sentences")
    f = (_feature_queries(params.dims, queries) if image_queries
         else np.asarray(gallery, dtype=np.float64))          # (feats, v_dim)
    nll, trajs = gallery_scores(params, f, items, vocab)
    # (items x feats) matrices, oriented to (queries x gallery)
    t_loglik, i_scores = -nll, None
    if trajs is not None:
        # mean log-reconstruction profile: the I score at v is v . a + (1 - v) . b
        a = np.array([np.add.reduce(np.log(traj), axis=0) / len(traj) for traj in trajs])
        b = np.array([np.add.reduce(np.log(1.0 - traj), axis=0) / len(traj) for traj in trajs])
        i_scores = a @ f.T + b @ (1.0 - f).T
    if image_queries:
        return t_loglik.T, None if i_scores is None else i_scores.T
    return t_loglik, i_scores


def rank_retrieval(params, vocab, queries, gallery, truth, mode="t",
                   combine="zscore"):
    """Rank a gallery for every query and aggregate R@K, median and mean
    rank of the (first) ground-truth item.

    ``mode``: 't' normalized sentence likelihood, 'i' negated average
    reconstruction error, 'ti' their per-query combination (z-scored sum
    by default, fractional rank averaging with ``combine='rank'``).
    """
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
    return aggregate_ranks(ranked_ids, ranks)


def image_retrieval_task(dataset, split="test", concat=False):
    """Caption queries against an image gallery.

    Returns (queries, gallery, truth): per-sentence protocol lists every
    caption separately; the concatenated protocol groups each example's
    captions into one query.
    """
    examples = dataset.split(split)
    if not examples:
        raise ValueError(f"split '{split}' is empty")
    if concat:
        queries, owners = [tuple(ex.captions) for ex in examples], range(len(examples))
    else:
        queries = [cap for ex in examples for cap in ex.captions]
        owners = [i for i, ex in enumerate(examples) for _ in ex.captions]
    return queries, [ex.features for ex in examples], [{i} for i in owners]


def sentence_retrieval_task(dataset, split="test", concat=False):
    """Image queries against a caption gallery: ``image_retrieval_task``
    with queries and gallery swapped. Each image's truth is the gallery
    indices of its own captions."""
    captions, images, owners = image_retrieval_task(dataset, split, concat)
    truth = [set() for _ in images]
    for g, (owner,) in enumerate(owners):
        truth[owner].add(g)
    return images, captions, truth


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
    tr, sd = sentence_states(params, v, sent, vocab), params.dims.s_dim
    s_rows = tr.act[1:, :sd]
    u_rows = tr.act[1:, sd:] if params.dims.uses_u else None
    return ActivationTrace(
        tokens=[vocab.tokens[i] for i in tr.inputs],
        s_rows=s_rows,
        u_rows=u_rows,
        stability_s=_stability(s_rows),
        stability_u=None if u_rows is None else _stability(u_rows),
    )
