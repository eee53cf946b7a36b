"""Evaluation metrics: perplexity, BLEU, and report rendering."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import (ROW_SLICE, advance_rows, check_sentence, feature_vector, fed_tokens,
                    input_columns, stacked_drive, stacked_start, token_bases,
                    word_distribution_rows)

LOG2 = math.log(2.0)


def checked_features(dims, vocab, pairs):
    """Features of the pairs as an (N, v_dim) matrix, (N, 0) for the rnn
    variant, which reads none. A caption that fails ``check_sentence``, or
    features that are not a finite (v_dim,) vector, raise ValueError
    naming the example.

    Every caption goes through ``check_sentence``; the features are stacked
    and checked as one matrix. Only if that matrix fails is each pair's
    ``feature_vector`` taken, after its caption, to name the first bad
    example."""
    try:
        feats = (np.array([ex.features for ex, _ in pairs], dtype=np.float64) if dims.uses_v
                 else np.empty((len(pairs), 0)))
        bad = not (feats.shape == (len(pairs), dims.v_dim * dims.uses_v)
                   and np.isfinite(feats).all())
    except (TypeError, ValueError):   # ragged or non-numeric features
        bad = True
    for ex, cap in pairs:
        try:
            check_sentence(dims, cap.ids, vocab.eos_id, "caption")
            if bad:
                feature_vector(dims, ex.features)
        except ValueError as exc:
            raise ValueError(f"example {ex.id!r}: {exc}") from None
    return feats


def _rows_word_nll(params, vocab, feats, sents):
    """Word NLL of captions sorted longest first, run as the rows of one
    forward; returns one (T,) array per caption.

    Each row has its own ``stacked_drive``. A step advances the stacked
    [s | u] rows whose caption has not ended yet, which the sort makes a
    prefix of the previous step's rows, through one ``advance_rows`` call.
    Every state goes into one (states, dim) array, step after step, with
    its input columns gathered once beforehand. Afterwards
    ``word_distribution_rows`` scores the stored states ``ROW_SLICE`` at a
    time, under the ``token_bases`` of the captions' ``fed_tokens``
    layout, and each state keeps its target's class and member probability;
    the NLL is -log of each, as ``output_pass`` takes it.
    """
    dims, sd = params.dims, params.dims.s_dim
    fed, live = fed_tokens(vocab.eos_id, sents)
    inputs, targets, live = fed[:, :-1], fed[:, 1:], live.T   # (steps, rows), step-major
    act = input_columns(params, inputs.T[live])     # (states, dim), in step order
    prev = stacked_start(params)                    # shared by every row at step 0
    drive = np.broadcast_to(stacked_drive(params, feats), (len(fed), act.shape[1]))
    end = 0
    for t, n in enumerate(live.sum(axis=1).tolist()):   # each step's states replace its columns
        rows = act[end:end + n]
        prev = advance_rows(params, rows, prev[:n] if t else prev, drive[:n], rows)
        end += n
    u = act[:, sd:] if dims.uses_u else None
    bases, tgt = token_bases(dims, inputs).transpose(1, 0, 2, 3)[live], targets.T[live]
    picked = np.empty((2, len(act)))                # class and member probability of each target
    for start in range(0, len(act), ROW_SLICE):
        blk = slice(start, start + ROW_SLICE)
        qw, p = word_distribution_rows(params, act[blk, :sd], u if u is None else u[blk],
                                       bases[blk], vocab)
        at = np.arange(len(qw)), tgt[blk]
        picked[:, blk] = qw[at], p[at]
    logs = np.log(picked)   # inf, not an error, where a probability is 0
    nll = np.zeros(inputs.shape)
    nll.T[live] = -logs[0] - logs[1]
    return [nll[r, :len(ids)] for r, ids in enumerate(sents)]


def pair_word_nll(params, vocab, pairs):
    """Per-token word NLL of each (example, caption) pair, one (T,) array
    per pair in input order; entry t equals ``sentence_forward(params,
    ex.features, cap, vocab).word_nll[t]`` up to rounding.

    The pairs run as the rows of one batched forward, ``ROW_SLICE`` rows at
    a time. BLAS may round a row differently by where it sits in a matrix,
    so the rows first go into a canonical order: length descending, then
    token ids, then feature bytes. Each value then depends only on the
    multiset of pairs, never on their order. Bad pairs raise ValueError
    before any forward runs.
    """
    feats = checked_features(params.dims, vocab, pairs)
    order = sorted(range(len(pairs)), key=lambda i: (-len(pairs[i][1].ids),
                                                     tuple(pairs[i][1].ids), feats[i].tobytes()))
    out = [None] * len(pairs)
    for start in range(0, len(order), ROW_SLICE):
        chunk = order[start:start + ROW_SLICE]
        nll = _rows_word_nll(params, vocab, feats[chunk], [pairs[i][1].ids for i in chunk])
        for i, row in zip(chunk, nll):
            out[i] = row
    return out


def perplexity_of_pairs(params, vocab, pairs):
    """Base-2 perplexity over (example, caption) pairs.

    Every word prediction counts, including the <eos> that terminates each
    sentence; the model is reset per sentence and the reconstruction loss
    plays no part. The canonical row order of ``pair_word_nll`` and fsum
    over the per-token terms keep the result independent of sentence order.
    """
    if not pairs:
        raise ValueError("perplexity over an empty split")
    nll = np.concatenate(pair_word_nll(params, vocab, pairs))
    return 2.0 ** (-math.fsum((-nll / LOG2).tolist()) / len(nll))


def perplexity(params, vocab, dataset, split="valid"):
    return perplexity_of_pairs(params, vocab, dataset.caption_pairs(split))


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(references, c):
    """Reference length closest to candidate length ``c``; ties pick the
    shorter reference."""
    return min((len(r) for r in references), key=lambda rl: (abs(rl - c), rl))


def _clipped_counts(candidate, references, n):
    """(clipped matching n-gram count, total candidate n-gram count)."""
    cand = _ngrams(candidate, n)
    if not cand:
        return 0, 0
    best = Counter()
    for ref in references:
        ref_counts = _ngrams(ref, n)
        for gram in cand:
            best[gram] = max(best[gram], ref_counts[gram])
    clipped = sum(min(cnt, best[gram]) for gram, cnt in cand.items())
    return clipped, sum(cand.values())


def bleu(candidate, references, max_n=4):
    """Sentence BLEU: ``corpus_bleu`` of the one pair. Unsmoothed: any
    zero precision (or an empty candidate) scores 0."""
    return corpus_bleu([(candidate, references)], max_n)


def corpus_bleu(pairs, max_n=4):
    """Micro-averaged BLEU: clipped counts, totals and lengths accumulate
    over the whole corpus before the precision and brevity computation."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("corpus_bleu over an empty corpus")
    clipped = [0] * max_n
    totals = [0] * max_n
    c_len = 0
    r_len = 0
    for candidate, references in pairs:
        references = [r for r in references if r]
        if not references:
            raise ValueError("corpus_bleu: a pair has no nonempty reference")
        if not candidate:
            continue
        for n in range(1, max_n + 1):
            cl, tot = _clipped_counts(candidate, references, n)
            clipped[n - 1] += cl
            totals[n - 1] += tot
        c_len += len(candidate)
        r_len += _closest_ref_length(references, len(candidate))
    if c_len == 0 or any(c == 0 or t == 0 for c, t in zip(clipped, totals)):
        return 0.0
    log_p = sum(math.log(c / t) for c, t in zip(clipped, totals)) / max_n
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_p)


@dataclass
class MetricReport:
    """One evaluated model: perplexity plus corpus BLEU (percent)."""

    name: str
    perplexity: float
    bleu_percent: float


_REPORT_COLUMNS = ("model", "PPL", "BLEU", "METEOR")


def _fmt_ppl(value, digits):
    return "-" if math.isnan(value) else f"{value:.{digits}f}"


def render_report(reports):
    """Human-readable table; METEOR stays a dash (external scorer, not
    computed here)."""
    rows = [[r.name, _fmt_ppl(r.perplexity, 2), f"{r.bleu_percent:.2f}", "-"]
            for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(_REPORT_COLUMNS)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(_REPORT_COLUMNS), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def report_tsv(reports):
    """Machine-readable counterpart of render_report (tab-separated)."""
    lines = ["\t".join(_REPORT_COLUMNS)]
    for r in reports:
        lines.append("\t".join([r.name, _fmt_ppl(r.perplexity, 6),
                                f"{r.bleu_percent:.6f}", "-"]))
    return "\n".join(lines) + "\n"


def human_consistency_pairs(dataset, split="test"):
    """Harness mode: each example's first caption scored against its
    remaining captions (examples with a single caption are skipped)."""
    pairs = []
    for ex in dataset.split(split):
        if len(ex.captions) < 2:
            continue
        pairs.append((ex.captions[0].tokens,
                      [c.tokens for c in ex.captions[1:]]))
    return pairs
