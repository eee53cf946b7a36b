"""Backpropagation through time and the training loop.

Gradients flow backward from each step's loss through at most
``bptt_unroll`` recurrent transitions, for all steps of a sentence at once
when it ends. Updates follow a mixed schedule:
the output-side weights (class/word projections, their biases and the
max-entropy tables) move after every word, everything else accumulates
over the sentence and moves once at its end. Learning-rate halving is
driven by validation perplexity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import SeededRng, sigmoid_clip_mask
from .model import ONLINE_BLOCKS, block_shapes, output_step, recon_losses, sentence_states


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
    lr_floor_divisor: float = 1024.0

    def __post_init__(self):
        # NaN fails every comparison, so each check also rejects it
        checks = [
            ("learning_rate", 0 < self.learning_rate < math.inf, "positive and finite"),
            ("bptt_unroll", self.bptt_unroll >= 1, ">= 1"),
            ("grad_clip", self.grad_clip > 0, "positive (inf turns the clamp off)"),
            ("lam_recon", 0 <= self.lam_recon < math.inf, ">= 0 and finite"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("weight_decay", 0 <= self.weight_decay < math.inf, ">= 0 and finite"),
            ("recon_kind", self.recon_kind in ("ce", "mse"), "'ce' or 'mse'"),
            ("lr_floor_divisor", self.lr_floor_divisor >= 1, ">= 1"),
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


def _output_errors(params, tr, t):
    """Softmax-gradient pieces of step ``t`` at the current output weights
    and the errors they inject into s_t and u_t."""
    dz_c, dz_w = output_step(params, tr, t)
    g, lo, hi = tr.classes[t]
    dz_c[g] -= 1.0
    dz_w[tr.targets[t] - lo] -= 1.0
    e_s = params.W_sc.T @ dz_c + params.W_sw[lo:hi].T @ dz_w
    e_u = (params.W_uc.T @ dz_c + params.W_uw[lo:hi].T @ dz_w
           if params.dims.uses_u else None)
    return dz_c, dz_w, e_s, e_u


def _output_steps(params, tr, target, scale, limit, on_step=None):
    """Run the output steps of a trace in order, adding ``scale`` times
    each step's online-block gradient, clamped to [-limit, limit], into
    ``target``. With ``target`` the params themselves, later steps see the
    earlier updates. Returns the (T, dim) errors the steps inject into s
    and u (None without u). ``on_step(t, params)`` runs after each step.

    A max-entropy table gets the indices of every order at once, with the
    gradient tiled; the indices may repeat, so they add unbuffered.
    """
    dims = params.dims
    size = dims.maxent_hash_size
    e_s = np.empty((len(tr.targets), dims.s_dim))
    e_u = np.empty((len(tr.targets), dims.u_dim)) if dims.uses_u else None
    for t in range(len(tr.targets)):
        dz_c, dz_w, e_s[t], eu = _output_errors(params, tr, t)
        _, lo, hi = tr.classes[t]
        pieces = [(target.W_sc, np.outer(dz_c, tr.s[t + 1])), (target.b_c, dz_c),
                  (target.W_sw[lo:hi], np.outer(dz_w, tr.s[t + 1])),
                  (target.b_w[lo:hi], dz_w)]
        if dims.uses_u:
            e_u[t] = eu
            pieces += [(target.W_uc, np.outer(dz_c, tr.u[t + 1])),
                       (target.W_uw[lo:hi], np.outer(dz_w, tr.u[t + 1]))]
        for block, piece in pieces:
            block += scale * piece.clip(-limit, limit)
        if tr.bases[t]:
            bases = np.array([(cbase, wbase) for _, cbase, wbase in tr.bases[t]])
            cidx = (bases[:, :1] + np.arange(dims.class_count)) % size
            widx = (bases[:, 1:] + np.arange(lo, hi)) % size
            for table, idx, dz in ((target.me_class, cidx, dz_c), (target.me_word, widx, dz_w)):
                tiled = np.concatenate([dz] * len(bases))
                np.add.at(table, idx.ravel(), scale * tiled.clip(-limit, limit))
        if on_step is not None:
            on_step(t, params)
    return e_s, e_u


def _hop_sums(delta, W, dsig, unroll):
    """Truncated chain of one recurrent state for all source steps at once.

    Row t of ``delta`` is step t's error, through the sigmoid derivative
    ``dsig[t]``; hop h moves the errors of steps t >= h to positions t - h
    with one (T - h, dim) @ (dim, dim) product. Returns the deltas summed
    per position, and the sum of the position-0 deltas of hops below
    ``unroll``, which have one transition left, to the initial state.
    """
    acc = delta.copy()
    first = delta[0].copy()
    for h in range(1, min(unroll, len(acc) - 1) + 1):
        delta = (delta[1:] @ W) * dsig[:len(delta) - 1]
        acc[:len(delta)] += delta
        if h < unroll:
            first += delta[0]
    return acc, first


def _recurrent_chain(params, tr, v, e_s, e_u, lam, unroll, recon_kind, g_batch):
    """Reconstruction-head gradients plus the truncated backward chain of
    a sentence, accumulated into the batch-side container.

    ``e_s``/``e_u`` are the (T, dim) errors each step's softmax injects
    into s_t and u_t. ``unroll`` bounds how many recurrent transitions an error
    traverses; unroll >= sentence length gives the untruncated gradient.
    The chain reads only batch blocks, fixed within a sentence, so it runs
    once at its end over (T, dim) arrays (Williams & Peng's BPTT(h; h')).
    """
    dims = params.dims
    clip = dims.sigmoid_clip
    s = tr.s
    dsig_s = _dsig(s[1:], tr.pre_s, clip)
    acc_s, _ = _hop_sums(e_s * dsig_s, params.W_ss, dsig_s, unroll)
    g_batch.W_ss += acc_s.T @ s[:-1]
    np.add.at(g_batch.W_ws.T, tr.inputs, acc_s)
    col_s = acc_s.sum(axis=0)
    g_batch.b_s += col_s
    if dims.uses_v:
        nrows = dims.vs_connected_rows
        g_batch.W_vs[:nrows] += np.outer(col_s[:nrows], v)
    if dims.uses_u:
        u, recon = tr.u, tr.recon
        mask_r = sigmoid_clip_mask(tr.pre_r, clip)
        if recon_kind == "ce":
            dr = lam * (recon - v) * mask_r
        else:
            dr = lam * 2.0 * (recon - v) * recon * (1.0 - recon) * mask_r
        g_batch.W_uv += dr.T @ u[1:]
        g_batch.b_v += dr.sum(axis=0)
        dsig_u = _dsig(u[1:], tr.pre_u, clip)
        acc_u, first_u = _hop_sums((e_u + dr @ params.W_uv) * dsig_u,
                                   params.W_uu, dsig_u, unroll)
        g_batch.W_uu += acc_u.T @ u[:-1]
        np.add.at(g_batch.W_wu.T, tr.inputs, acc_u)
        g_batch.b_u += acc_u.sum(axis=0)
        g_batch.u0 += (params.W_uu.T @ first_u) * _dsig(u[0], params.u0, clip)


def clip_gradients(grads, limit):
    """Per-element clamp to [-limit, limit], in place."""
    if limit is None or not math.isfinite(limit):
        return grads
    for _, arr in grads.named_blocks():
        np.clip(arr, -limit, limit, out=arr)
    return grads


def sentence_gradients(params, vocab, v, sent, lam, unroll, grad_clip=None,
                       recon_kind="ce"):
    """Gradients of the whole-sentence joint loss at fixed parameters.

    Returns (gradients, total joint loss). ``grad_clip=None`` skips the
    final per-element clamp (used by the finite-difference check, which
    validates raw derivatives).
    """
    tr = sentence_states(params, v, sent, vocab)
    grads = params.zeros_like()
    e_s, e_u = _output_steps(params, tr, grads, 1.0, math.inf)
    _recurrent_chain(params, tr, v, e_s, e_u, lam, unroll, recon_kind, grads)
    clip_gradients(grads, grad_clip)
    return grads, _joint_loss(tr, v, lam, recon_kind)


def apply_update(params, grads, lr, blocks="all", weight_decay=0.0):
    """Plain SGD over a block group: 'online', 'batch' or 'all'."""
    for name, g in grads.named_blocks():
        online = name in ONLINE_BLOCKS
        if blocks == "online" and not online:
            continue
        if blocks == "batch" and online:
            continue
        arr = getattr(params, name)
        if weight_decay:
            arr -= lr * (g + weight_decay * arr)
        else:
            arr -= lr * g
    params.apply_vs_mask()


def train_sentence(params, vocab, v, sent, config, lr, on_step=None):
    """One sentence of mixed online/batch SGD; returns (joint loss, tokens).

    The recurrence runs first: it reads only recurrent-side weights, which
    move once, at the sentence end, by one backward chain. Output-side
    weights then move after every word, so later steps of the same
    sentence already see the updates. ``on_step(t, params)`` runs after
    each word's online update (schedule introspection).
    """
    batch_names = [n for n, _ in block_shapes(params.dims) if n not in ONLINE_BLOCKS]
    batch_grads = params.zeros_like(names=batch_names)
    clip = config.grad_clip
    tr = sentence_states(params, v, sent, vocab)
    e_s, e_u = _output_steps(params, tr, params, -lr, clip, on_step)
    _recurrent_chain(params, tr, v, e_s, e_u, config.lam_recon, config.bptt_unroll,
                     config.recon_kind, batch_grads)
    clip_gradients(batch_grads, clip)
    apply_update(params, batch_grads, lr, blocks="batch",
                 weight_decay=config.weight_decay)
    return _joint_loss(tr, v, config.lam_recon, config.recon_kind), len(sent.ids)


def train(params, dataset, config, valid_metric=None, log_fn=None):
    """Epoch loop with validation-driven learning-rate halving.

    Shuffles (example, caption) pairs each epoch with a seeded stream;
    halves the learning rate whenever validation perplexity fails to beat
    the best seen so far, floors it at initial/``lr_floor_divisor``, and
    stops after two consecutive failures at the floor (or ``max_epochs``).
    An epoch whose train loss or validation perplexity is not finite also
    counts as a failure, and first copies the best parameters back into
    ``params`` so that training never goes on from NaN weights.
    Returns (best-validation parameters, history). ``valid_metric``
    overrides the perplexity computation (epoch, params) -> float.
    """
    from .metrics import perplexity

    vocab = dataset.vocab
    pairs = dataset.caption_pairs("train")
    if not pairs:
        raise ValueError("training split is empty")
    if valid_metric is None and not dataset.caption_pairs("valid"):
        raise ValueError("validation split is empty")

    shuffle_rng = SeededRng(config.seed).derive("shuffle")
    lr = config.learning_rate
    floor = config.learning_rate / config.lr_floor_divisor
    history = TrainHistory()
    best_ppl = math.inf
    best_params = params.copy()
    strikes = 0

    for epoch in range(1, config.max_epochs + 1):
        order = np.arange(len(pairs))
        shuffle_rng.shuffle(order)
        loss_sum = 0.0
        token_sum = 0
        for i in order:
            ex, cap = pairs[i]
            joint, ntok = train_sentence(params, vocab, ex.features, cap, config, lr)
            loss_sum += joint
            token_sum += ntok
        valid_ppl = (valid_metric(epoch, params) if valid_metric is not None
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
            best_params = params.copy()
            strikes = 0
        else:
            if not finite:
                for name, arr in best_params.named_blocks():
                    getattr(params, name)[...] = arr
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


def grad_check(params, vocab, example, caption_index=0, eps=1e-5,
               lam_recon=1.0, recon_kind="ce"):
    """Max relative error of BPTT gradients against central finite
    differences of the sentence loss, over every free scalar parameter.

    Uses full unrolling and no gradient clamp so the comparison exercises
    raw derivatives; masked W_vs rows are fixed zeros, not free parameters,
    and are skipped.
    """
    from .model import sentence_loss

    sent = example.captions[caption_index]
    v = example.features
    unroll = len(sent.ids)
    grads, _ = sentence_gradients(params, vocab, v, sent, lam_recon, unroll,
                                  grad_clip=None, recon_kind=recon_kind)

    def loss_at():
        total, _ = sentence_loss(params, v, sent, lam_recon, vocab, recon_kind)
        return total.joint

    dims = params.dims
    worst = 0.0
    for name, arr in params.named_blocks():
        garr = getattr(grads, name)
        if name == "W_vs" and dims.variant == "full":
            free = np.zeros(arr.shape, dtype=bool)
            free[:dims.vs_connected_rows, :] = True
            indices = np.flatnonzero(free.ravel())
        else:
            indices = range(arr.size)
        flat = arr.ravel()
        gflat = garr.ravel()
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = gflat[i]
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst


def gradcheck_setup(variant, seed=1, v_dim=4, s_dim=6, u_dim=6, maxent_order=3,
                    maxent_hash_size=257):
    """Small controlled instance for derivative verification: a 12-token
    vocabulary (10 words + <eos> + <unk>), one captioned example, and
    freshly initialized parameters of the requested variant."""
    from .corpus import CaptionedExample, build_vocab, encode
    from .model import ModelDims, init_params

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
