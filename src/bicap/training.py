"""Backpropagation through time and the training loop.

Gradients flow backward from each step's loss through at most
``bptt_unroll`` recurrent transitions. Updates follow a mixed schedule:
the output-side weights (class/word projections, their biases and the
max-entropy tables) move after every word, everything else accumulates
over the sentence and moves once at its end. Learning-rate halving is
driven by validation perplexity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import SeededRng, sigmoid_clip_mask
from .model import ONLINE_BLOCKS, block_shapes, forward_steps, sentence_forward


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.bptt_unroll < 1:
            raise ValueError("bptt_unroll must be >= 1")
        if self.recon_kind not in ("ce", "mse"):
            raise ValueError("recon_kind must be 'ce' or 'mse'")


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


def _joint_loss(tr, lam):
    return sum(w + lam * r for w, r in zip(tr.word_nll, tr.recon_loss))


def _output_errors(params, tr, t):
    """Softmax-gradient pieces of step ``t`` and the errors they inject
    into s_t and u_t."""
    dims = params.dims
    dz_c = tr.class_probs[t].copy()
    dz_c[tr.class_ids[t]] -= 1.0
    lo, hi = tr.member_range[t]
    dz_w = tr.member_probs[t].copy()
    dz_w[tr.targets[t] - lo] -= 1.0
    e_s = params.W_sc.T @ dz_c + params.W_sw[lo:hi].T @ dz_w
    e_u = (params.W_uc.T @ dz_c + params.W_uw[lo:hi].T @ dz_w
           if dims.uses_u else None)
    return dz_c, dz_w, lo, hi, e_s, e_u


def _online_grad_pieces(params, tr, t, dz_c, dz_w, lo, hi):
    """(block, index, gradient) pieces for the online-updated blocks.

    Index arrays (max-entropy tables) may repeat and must be consumed with
    unbuffered addition; slice indices never repeat.
    """
    dims = params.dims
    s_t = tr.s[t + 1]
    yield "W_sc", slice(None), np.outer(dz_c, s_t)
    yield "b_c", slice(None), dz_c
    yield "W_sw", slice(lo, hi), np.outer(dz_w, s_t)
    yield "b_w", slice(lo, hi), dz_w
    if dims.uses_u:
        u_t = tr.u[t + 1]
        yield "W_uc", slice(None), np.outer(dz_c, u_t)
        yield "W_uw", slice(lo, hi), np.outer(dz_w, u_t)
    for _, cbase, wbase in tr.bases[t]:
        cidx = (cbase + np.arange(dims.class_count)) % dims.maxent_hash_size
        yield "me_class", cidx, dz_c
        widx = (wbase + np.arange(lo, hi)) % dims.maxent_hash_size
        yield "me_word", widx, dz_w


def _recurrent_chain(params, tr, t, v, e_s, e_u, lam, unroll, recon_kind, g_batch):
    """Reconstruction-head gradients plus the truncated backward chain of
    step ``t``, accumulated into the batch-side container.

    ``unroll`` bounds how many recurrent transitions the error traverses;
    unroll >= sentence length reproduces the untruncated gradient.
    """
    dims = params.dims
    clip = dims.sigmoid_clip
    if dims.uses_u:
        recon, pre_r, u_t = tr.recon[t], tr.pre_r[t], tr.u[t + 1]
        if recon_kind == "ce":
            dr = lam * (recon - v) * sigmoid_clip_mask(pre_r, clip)
        else:
            dr = lam * 2.0 * (recon - v) * recon * (1.0 - recon) * sigmoid_clip_mask(pre_r, clip)
        g_batch.W_uv += np.outer(dr, u_t)
        g_batch.b_v += dr
        e_u = e_u + params.W_uv.T @ dr
        delta_u = e_u * _dsig(u_t, tr.pre_u[t], clip)
    else:
        delta_u = None
    delta_s = e_s * _dsig(tr.s[t + 1], tr.pre_s[t], clip)

    nrows = dims.vs_connected_rows if dims.uses_v else 0
    m = t + 1  # state index; tr.s[m] was produced by step m-1
    hops = 0
    while True:
        x = tr.inputs[m - 1]
        g_batch.W_ws[:, x] += delta_s
        g_batch.W_ss += np.outer(delta_s, tr.s[m - 1])
        g_batch.b_s += delta_s
        if dims.uses_v:
            g_batch.W_vs[:nrows] += np.outer(delta_s[:nrows], v)
        if dims.uses_u:
            g_batch.W_wu[:, x] += delta_u
            g_batch.W_uu += np.outer(delta_u, tr.u[m - 1])
            g_batch.b_u += delta_u
        if hops == unroll:
            break
        if m == 1:
            # one more transition reaches the learned initial state u_0
            if dims.uses_u:
                g_batch.u0 += (params.W_uu.T @ delta_u) * _dsig(tr.u[0], params.u0, clip)
            break
        delta_s = (params.W_ss.T @ delta_s) * _dsig(tr.s[m - 1], tr.pre_s[m - 2], clip)
        if dims.uses_u:
            delta_u = (params.W_uu.T @ delta_u) * _dsig(tr.u[m - 1], tr.pre_u[m - 2], clip)
        m -= 1
        hops += 1


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
    tr = sentence_forward(params, v, sent, vocab, recon_kind)
    grads = params.zeros_like()
    for t in range(len(sent.ids)):
        dz_c, dz_w, lo, hi, e_s, e_u = _output_errors(params, tr, t)
        for name, idx, piece in _online_grad_pieces(params, tr, t, dz_c, dz_w, lo, hi):
            if isinstance(idx, np.ndarray):
                np.add.at(getattr(grads, name), idx, piece)
            else:
                getattr(grads, name)[idx] += piece
        _recurrent_chain(params, tr, t, v, e_s, e_u, lam, unroll, recon_kind, grads)
    clip_gradients(grads, grad_clip)
    return grads, _joint_loss(tr, lam)


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

    Output-side weights move after every word (so later steps of the same
    sentence already see the updates); recurrent-side gradients accumulate
    and apply once when the sentence ends. ``on_step(t, params)`` runs
    after each word's online update (schedule introspection).
    """
    batch_names = [n for n, _ in block_shapes(params.dims) if n not in ONLINE_BLOCKS]
    batch_grads = params.zeros_like(names=batch_names)
    clip = config.grad_clip
    for t, tr in forward_steps(params, v, sent, vocab, config.recon_kind):
        dz_c, dz_w, lo, hi, e_s, e_u = _output_errors(params, tr, t)
        _recurrent_chain(params, tr, t, v, e_s, e_u, config.lam_recon,
                         config.bptt_unroll, config.recon_kind, batch_grads)
        for name, idx, piece in _online_grad_pieces(params, tr, t, dz_c, dz_w, lo, hi):
            step_g = np.clip(piece, -clip, clip)
            if isinstance(idx, np.ndarray):
                np.add.at(getattr(params, name), idx, -lr * step_g)
            else:
                getattr(params, name)[idx] -= lr * step_g
        if on_step is not None:
            on_step(t, params)

    clip_gradients(batch_grads, clip)
    apply_update(params, batch_grads, lr, blocks="batch",
                 weight_decay=config.weight_decay)
    return _joint_loss(tr, config.lam_recon), len(sent.ids)


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
