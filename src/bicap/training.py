"""Backpropagation through time and the training loop.

Gradients flow backward from each step's loss through at most
``bptt_unroll`` recurrent transitions, for all steps of a sentence at once
when it ends. Updates follow a mixed schedule:
the output-side weights (class/word projections, their biases and the
max-entropy tables) move after every word, everything else accumulates
over the sentence and moves once at its end (the dense output blocks in
dual form, see ``model.output_pass``). Learning-rate halving is driven by
validation perplexity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CaptionedExample, build_vocab, encode
from .metrics import checked_features, perplexity
from .numkit import SeededRng, is_int, is_real, sigmoid_clip_mask
from .model import (ROW_SLICE, ModelDims, caption_plans, init_params, output_pass,
                    recon_losses, sentence_loss, sentence_states)

LR_FLOOR_DIVISOR = 1024.0


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    bptt_unroll: int = 5
    grad_clip: float = 15.0
    lam_recon: float = 1.0
    max_epochs: int = 20
    weight_decay: float = 0.0
    recon_kind: str = "ce"
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "grad_clip", "lam_recon", "weight_decay"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        # NaN fails every comparison, so each check also rejects it
        checks = [
            ("learning_rate", 0 < self.learning_rate < math.inf, "positive and finite"),
            ("bptt_unroll", is_int(self.bptt_unroll) and self.bptt_unroll >= 1, "an integer >= 1"),
            ("grad_clip", self.grad_clip > 0, "positive (inf turns the clamp off)"),
            ("lam_recon", 0 <= self.lam_recon < math.inf, ">= 0 and finite"),
            ("max_epochs", is_int(self.max_epochs) and self.max_epochs >= 1, "an integer >= 1"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, ">= 0 and finite"),
            ("recon_kind", self.recon_kind in ("ce", "mse"), "'ce' or 'mse'"),
            ("seed", is_int(self.seed), "an integer"),
        ]
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float  # mean joint loss per predicted token
    valid_ppl: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    stopped_reason: str = ""


def _dsig(value, pre, clip):
    """Derivative of the clipped sigmoid at a stored activation; exactly
    zero where the forward pass saturated at the clamp."""
    return value * (1.0 - value) * sigmoid_clip_mask(pre, clip)


def _joint_loss(tr, v, lam, recon_kind):
    return sum(w + lam * r for w, r in zip(tr.word_nll, recon_losses(tr, v, recon_kind)))


def _output_errors(params, out, lr):
    """The (T, s_dim [+ u_dim]) errors the output layer injects into the
    stacked [s | u] states. Step t's is A(t)^T dz_t for the dense blocks
    A(t) it read (``model.output_pass``): dz_t A0 - lr sum_{k<t} (dz_t .
    dz_k) x_k, plus the clamp's share, without the bias column. A0 is
    ``params.A``, so this runs before its update."""
    e = out.dz @ params.A - lr * (np.tril(out.dz @ out.dz.T, -1) @ out.x) + out.residual_err
    sd = params.dims.s_dim
    return np.concatenate([e[:, :sd], e[:, sd + 1:]], axis=1)


def _hop_sums(delta, params, dsig, unroll):
    """Truncated chain of the stacked [s | u] state for all source steps at
    once.

    Row t of ``delta`` is step t's error, through the sigmoid derivative
    ``dsig[t]``; hop h moves the errors of steps t >= h to positions t - h
    with one (T - h, s_dim) @ W_ss product and, with u, one (T - h, u_dim)
    @ W_uu product, joined as ``model.advance_rows`` joins them. Returns
    the deltas summed per position, and the sum of the position-0 deltas of
    hops below ``unroll``, which have one transition left, to the initial
    state.
    """
    sd = params.dims.s_dim
    acc = delta.copy()
    first = delta[0].copy()
    for h in range(1, min(unroll, len(acc) - 1) + 1):
        hop = delta[1:, :sd] @ params.W_ss
        if params.dims.uses_u:
            hop = np.concatenate([hop, delta[1:, sd:] @ params.W_uu], axis=1)
        delta = hop * dsig[:len(delta) - 1]
        acc[:len(delta)] += delta
        if h < unroll:
            first += delta[0]
    return acc, first


def _recurrent_chain(params, tr, v, e, lam, unroll, recon_kind, g_batch):
    """Reconstruction-head gradients plus the truncated backward chain of
    a sentence, accumulated into the batch-side container.

    ``e`` holds the (T, s_dim [+ u_dim]) errors each step's softmax injects
    into the stacked state [s | u]_t; the reconstruction error joins its u
    half, in place. ``unroll`` bounds how many recurrent transitions an
    error traverses; unroll >= sentence length gives the untruncated
    gradient. The chain reads only batch blocks, fixed within a sentence,
    so it runs once at its end over the (T, dim) trace arrays (Williams &
    Peng's BPTT(h; h')), and one scatter adds its input-column sums into
    ``W_in`` = [W_ws; W_wu].
    """
    dims, sd = params.dims, params.dims.s_dim
    clip, act = dims.sigmoid_clip, tr.act
    if dims.uses_u:
        recon, mask_r = tr.recon, sigmoid_clip_mask(tr.pre_r, clip)
        if recon_kind == "ce":
            dr = lam * (recon - v) * mask_r
        else:
            dr = lam * 2.0 * (recon - v) * recon * (1.0 - recon) * mask_r
        g_batch.W_uv += dr.T @ act[1:, sd:]
        g_batch.b_v += dr.sum(axis=0)
        e[:, sd:] += dr @ params.W_uv
    dsig = _dsig(act[1:], tr.pre, clip)
    acc, first = _hop_sums(e * dsig, params, dsig, unroll)
    g_batch.W_ss += acc[:, :sd].T @ act[:-1, :sd]
    np.add.at(g_batch.W_in.T, tr.inputs, acc)
    col = acc.sum(axis=0)
    g_batch.b_s += col[:sd]
    if dims.uses_v:
        nrows = dims.vs_connected_rows
        g_batch.W_vs[:nrows] += np.outer(col[:nrows], v)
    if dims.uses_u:
        g_batch.W_uu += acc[:, sd:].T @ act[:-1, sd:]
        g_batch.b_u += col[sd:]
        g_batch.u0 += (params.W_uu.T @ first[sd:]) * _dsig(act[0, sd:], params.u0, clip)


def clip_gradients(grads, limit):
    """Per-element clamp to [-limit, limit], in place, byte-equal to
    ``np.clip``; ``limit=inf`` leaves the gradients as they are."""
    if not math.isfinite(limit):
        return grads
    for _, arr in grads.named_groups():
        np.minimum(np.maximum(arr, -limit, out=arr), limit, out=arr)
    return grads


def sentence_gradients(params, vocab, v, sent, lam, unroll, recon_kind="ce"):
    """Gradients of the whole-sentence joint loss at fixed parameters,
    unclamped (the finite-difference check validates raw derivatives;
    ``clip_gradients`` clamps them).

    Returns (gradients, total joint loss).
    """
    dims = params.dims
    tr = sentence_states(params, v, sent, vocab)
    out = output_pass(params, vocab, tr, 0.0, math.inf)
    grads = params.zeros_like()
    grads.A[...] = out.dz.T @ out.x
    if dims.maxent_order > 0:   # dz is +0.0 outside a step's class columns
        for t, cols in enumerate(vocab.class_columns[g] for g in tr.picks[:, 0].tolist()):
            sl = tr.slots[t, :t + 2, :len(cols)]
            np.add.at(grads.me, sl, out.dz[t, cols][None].repeat(len(sl), 0))
    _recurrent_chain(params, tr, v, _output_errors(params, out, 0.0), lam, unroll, recon_kind,
                     grads)
    return grads, _joint_loss(tr, v, lam, recon_kind)


def apply_update(params, grads, lr, weight_decay=0.0):
    """Plain SGD on the blocks that ``grads`` holds, one storage group at a
    time."""
    for name, g in grads.named_groups():
        arr = getattr(params, name)
        if weight_decay:
            arr -= lr * (g + weight_decay * arr)
        else:
            arr -= lr * g
    params.apply_vs_mask()


def train_sentence(params, vocab, v, sent, config, lr, grads=None):
    """One sentence of mixed online/batch SGD; returns (joint loss, tokens).

    ``sent`` is a sentence or a ``model.CaptionPlan``. The batch gradients
    accumulate in ``grads``, a container of the ``B`` storage group, which
    is zeroed first; without one, ``params.zeros_like(groups=("B",))`` makes
    a fresh one. The recurrence runs first: it reads only recurrent-side
    weights, which move once, at the sentence end, by one backward chain,
    clamped by ``clip_gradients``. Output-side weights then move after every
    word, so later steps of the same sentence already see the updates; the
    dense blocks take them in one product at the sentence end.
    """
    grads = params.zeros_like(groups=("B",)) if grads is None else grads
    grads.B.fill(0.0)
    clip = config.grad_clip
    tr = sentence_states(params, v, sent, vocab)
    out = output_pass(params, vocab, tr, lr, clip)
    _recurrent_chain(params, tr, v, _output_errors(params, out, lr), config.lam_recon,
                     config.bptt_unroll, config.recon_kind, grads)
    params.A -= lr * (out.dz.T @ out.x + out.residual)
    clip_gradients(grads, clip)
    apply_update(params, grads, lr, weight_decay=config.weight_decay)
    return _joint_loss(tr, v, config.lam_recon, config.recon_kind), len(sent.ids)


def _planned(dims, vocab, pairs, order):
    """(example, caption plan) of each pair in ``order``, planned one block
    of ``ROW_SLICE`` pairs at a time as the loop reaches it."""
    for start in range(0, len(order), ROW_SLICE):
        block = [pairs[i] for i in order[start:start + ROW_SLICE]]
        for (ex, _), plan in zip(block, caption_plans(dims, vocab, [cap for _, cap in block])):
            yield ex, plan


def train(params, dataset, config, valid_metric=None, log_fn=None):
    """Epoch loop with validation-driven learning-rate halving.

    Shuffles (example, caption) pairs each epoch with a seeded stream;
    halves the learning rate whenever validation perplexity fails to beat
    the best seen so far, floors it at initial/``LR_FLOOR_DIVISOR``, and
    stops after two consecutive failures at the floor (or ``max_epochs``).
    An epoch stops at its first non-finite sentence loss, unvalidated
    (``valid_ppl`` NaN). A non-finite train loss or validation perplexity
    counts as a failure and first copies the best parameters back into
    ``params``, so that training never goes on from NaN weights.
    Returns (best-validation parameters, history). ``valid_metric``
    overrides the perplexity computation (epoch, params) -> float.

    Every training pair, and every validation pair when ``valid_metric``
    is None, is checked before any weight moves; a bad caption or feature
    vector raises ValueError naming its example. Each epoch's
    shuffled pairs run in blocks of ``ROW_SLICE``, each with its
    ``caption_plans`` built in one pass, and every sentence accumulates its
    batch gradients in one reused ``B``-group container.
    """
    vocab = dataset.vocab
    pairs = dataset.caption_pairs("train")
    if not pairs:
        raise ValueError("training split is empty")
    checked_features(params.dims, vocab, pairs)
    if valid_metric is None:
        valid = dataset.caption_pairs("valid")
        if not valid:
            raise ValueError("validation split is empty")
        checked_features(params.dims, vocab, valid)
    grads = params.zeros_like(groups=("B",))

    shuffle_rng = SeededRng(config.seed).derive("shuffle")
    lr = config.learning_rate
    floor = config.learning_rate / LR_FLOOR_DIVISOR
    history = TrainHistory()
    best_ppl = math.inf
    best_params = params.copy()
    strikes = 0

    for epoch in range(1, config.max_epochs + 1):
        order = np.arange(len(pairs))
        shuffle_rng.shuffle(order)
        loss_sum, token_sum = 0.0, 0
        for ex, plan in _planned(params.dims, vocab, pairs, order):
            joint, ntok = train_sentence(params, vocab, ex.features, plan, config, lr, grads=grads)
            loss_sum += joint
            token_sum += ntok
            if not math.isfinite(joint):
                break
        valid_ppl = (math.nan if not math.isfinite(loss_sum)
                     else valid_metric(epoch, params) if valid_metric is not None
                     else perplexity(params, vocab, dataset, "valid"))
        stats = EpochStats(epoch=epoch, train_loss=loss_sum / token_sum,
                           valid_ppl=valid_ppl, lr=lr)
        history.epochs.append(stats)
        if log_fn is not None:
            log_fn(f"epoch {epoch} train_joint_loss {stats.train_loss:.6f} "
                   f"valid_ppl {valid_ppl:.6f} lr {lr:.8f}")

        finite = math.isfinite(stats.train_loss) and math.isfinite(valid_ppl)
        if finite and valid_ppl < best_ppl:
            best_ppl = valid_ppl
            best_params.assign(params)
            strikes = 0
        else:
            if not finite:
                params.assign(best_params)
                if log_fn is not None:
                    log_fn(f"epoch {epoch} not finite (train_joint_loss {stats.train_loss} "
                           f"valid_ppl {valid_ppl}): restored the best parameters")
            at_floor = lr <= floor * (1.0 + 1e-12)
            if at_floor:
                strikes += 1
                if strikes >= 2:
                    history.stopped_reason = "validation stalled at floor learning rate"
                    break
            lr = max(lr / 2.0, floor)
    if not history.stopped_reason:
        history.stopped_reason = "max_epochs reached"
    return best_params, history


def grad_check(params, vocab, example, eps=1e-5, recon_kind="ce"):
    """Max relative error of BPTT gradients against central finite
    differences of the joint loss (reconstruction weight 1) of the
    example's first caption, over every free scalar parameter.

    Uses full unrolling and no gradient clamp so the comparison exercises
    raw derivatives; masked W_vs rows are fixed zeros, not free parameters,
    and are skipped. The caption's plan, which reads no weight, is built
    once for every loss evaluation.
    """
    sent, v = caption_plans(params.dims, vocab, example.captions[:1])[0], example.features
    grads, _ = sentence_gradients(params, vocab, v, sent, 1.0, len(sent.ids),
                                  recon_kind=recon_kind)

    def loss_at():
        total, _ = sentence_loss(params, v, sent, 1.0, vocab, recon_kind)
        return total.joint

    worst = 0.0
    for name, arr in params.named_blocks():
        # the masked W_vs rows come last in C order; ``ravel()`` would copy a view of ``A``
        free = params.dims.vs_connected_rows * arr.shape[1] if name == "W_vs" else arr.size
        flat, gflat = arr.flat, getattr(grads, name).flat
        for i in range(free):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            worst = max(worst, abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric)))
    return worst


def gradcheck_setup(variant, seed=1, v_dim=4, s_dim=6, u_dim=6, maxent_order=3,
                    maxent_hash_size=257):
    """Small controlled instance for derivative verification: a 12-token
    vocabulary (10 words + <eos> + <unk>), one captioned example, and
    freshly initialized parameters of the requested variant."""
    words = [f"w{i}" for i in range(10)]
    sentences = [[words[i % 10] for i in range(j, j + 5)] for j in range(10)]
    vocab = build_vocab(sentences, class_count=4)
    assert len(vocab) == 12
    rng = SeededRng(seed)
    feats = rng.uniform(0.0, 1.0, v_dim)
    caption = encode([words[i] for i in (3, 1, 4, 1, 5, 9, 2, 6)], vocab)
    example = CaptionedExample(id="gradcheck", features=feats,
                               captions=[caption], split="train")
    dims = ModelDims(vocab_size=len(vocab), class_count=vocab.n_classes,
                     v_dim=v_dim, s_dim=s_dim, u_dim=u_dim,
                     maxent_order=maxent_order,
                     maxent_hash_size=maxent_hash_size, variant=variant)
    params = init_params(dims, rng.derive("init"))
    return params, vocab, example
