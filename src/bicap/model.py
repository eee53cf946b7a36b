"""The bi-directional recurrent network.

Three variants share one implementation:

* ``rnn``    -- plain recurrent language model (state ``s`` only);
* ``rnn_if`` -- visual features feed the whole word-context state ``s``;
* ``full``   -- visual features feed only the lower half of ``s``, and a
  second recurrent state ``u``, driven by words alone, reconstructs the
  visual features at every step. The word layer is the only junction
  between the two halves, so one trained model decomposes into a sentence
  generator (features known) and a feature reconstructor (words known).

The next-word distribution is class-factorized, P(w) = P(class(w)) *
P(w | class(w)), with both the class and the within-class logits fed by
``s``, ``u`` and hashed n-gram (max-entropy) feature tables.
"""

import functools
import hashlib
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, asdict

import numpy as np

from .corpus import ClassedVocabulary
from .numkit import DEFAULT_SIGMOID_CLIP, is_int, sigmoid_clipped, softmax, _MASK64

VARIANTS = ("rnn", "rnn_if", "full")

_ME_CLASS_SALT = 0xC1A55F00DD15EA5E
_ME_WORD_SALT = 0x57A7EC0FFEE0B1A5


def _hash_ngram(salt, order, history):
    """Deterministic 64-bit hash of an n-gram context (independent of
    PYTHONHASHSEED); ``history`` holds the order-1 preceding token ids."""
    h = (salt * 0x9E3779B97F4A7C15 + order) & _MASK64
    for tid in history:
        h = ((h ^ (tid + 0x9E3779B97F4A7C15)) * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 29
    return h


@dataclass(frozen=True)
class ModelDims:
    """Architecture hyperparameters shared by params, state and training."""

    vocab_size: int
    class_count: int
    v_dim: int = 0
    s_dim: int = 100
    u_dim: int = 100
    maxent_order: int = 3
    maxent_hash_size: int = 1 << 20
    sigmoid_clip: float = DEFAULT_SIGMOID_CLIP
    variant: str = "full"

    def __post_init__(self):
        for name in ("vocab_size", "class_count", "v_dim", "s_dim", "u_dim", "maxent_order",
                     "maxent_hash_size"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.vocab_size < 1 or not 1 <= self.class_count <= self.vocab_size:
            raise ValueError("need 1 <= class_count <= vocab_size")
        for name in ("s_dim", "u_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.variant == "full" and self.s_dim % 2 != 0:
            raise ValueError("s_dim must be even for the full variant (half connection)")
        if self.variant != "rnn" and self.v_dim < 1:
            raise ValueError("v_dim must be >= 1 when visual features are used")
        if self.maxent_order < 0:
            raise ValueError("maxent_order must be >= 0")
        if self.maxent_order > 0 and self.maxent_hash_size < 1:
            raise ValueError("maxent_hash_size must be >= 1")
        if not 0 < self.sigmoid_clip < math.inf:
            raise ValueError(f"sigmoid_clip must be positive and finite, "
                             f"got {self.sigmoid_clip!r}")

    @property
    def uses_v(self):
        return self.variant in ("rnn_if", "full")

    @property
    def uses_u(self):
        return self.variant == "full"

    @property
    def vs_connected_rows(self):
        """Rows of W_vs that carry weight: all of s for rnn_if, the lower
        half for full (the upper half specializes on text)."""
        return self.s_dim if self.variant == "rnn_if" else self.s_dim // 2


# Weights on the per-word online schedule in training (see ``output_pass``);
# the rest accumulate over a sentence and update once at its end.
ONLINE_BLOCKS = frozenset({"W_sc", "W_uc", "W_sw", "W_uw", "b_c", "b_w",
                           "me_class", "me_word"})

# Stored states per ``word_distribution_rows`` call of perplexity (and captions
# per chunk of ``metrics.pair_word_nll``): bounds every array that spans the
# vocabulary. A ``score_gallery_states`` block holds no more logits than such
# a call.
ROW_SLICE = 256


def block_shapes(dims):
    """Ordered (name, shape) list of the parameter blocks a variant owns."""
    v, c, s, u, d = (dims.vocab_size, dims.class_count, dims.s_dim,
                     dims.u_dim, dims.v_dim)
    shapes = [
        ("W_ws", (s, v)),
        ("W_ss", (s, s)),
        ("b_s", (s,)),
        ("W_sc", (c, s)),
        ("W_sw", (v, s)),
        ("b_c", (c,)),
        ("b_w", (v,)),
    ]
    if dims.uses_v:
        shapes.append(("W_vs", (s, d)))
    if dims.uses_u:
        shapes += [
            ("W_wu", (u, v)),
            ("W_uu", (u, u)),
            ("b_u", (u,)),
            ("u0", (u,)),
            ("W_uc", (c, u)),
            ("W_uw", (v, u)),
            ("W_uv", (d, u)),
            ("b_v", (d,)),
        ]
    if dims.maxent_order > 0:
        shapes += [("me_class", (dims.maxent_hash_size,)),
                   ("me_word", (dims.maxent_hash_size,))]
    return shapes


@functools.lru_cache(maxsize=64)
def storage_groups(dims):
    """(group, shape, blocks) of the arrays that ``ModelParams`` stores its
    blocks in, with (name, shape, index) per block: the block is the view
    ``group[index]`` of that shape.

    ``A`` = [[W_sc, b_c, W_uc], [W_sw, b_w, W_uw]] is the dense output
    layer, which maps [s, 1, u] to the class, then word logits. ``me`` (the
    max-entropy tables, absent at order 0) and ``B`` (every batch block)
    are flat, their blocks laid out one after another: ``me`` is
    [me_class | me_word], and ``B`` starts with W_ws and W_wu, so that their
    rows stack as one input layer ``W_in``.
    """
    c, s = dims.class_count, dims.s_dim
    shapes = dict(block_shapes(dims))
    top, bottom, u_cols = slice(None, c), slice(c, None), slice(s + 1, None)
    dense = {"W_sc": (top, slice(None, s)), "b_c": (top, s), "W_uc": (top, u_cols),
             "W_sw": (bottom, slice(None, s)), "b_w": (bottom, s), "W_uw": (bottom, u_cols)}
    groups = [("A", (c + dims.vocab_size, s + 1 + dims.uses_u * dims.u_dim),
               tuple((name, shapes[name], dense[name]) for name in shapes if name in dense))]
    flat = {"me": [name for name in shapes if name.startswith("me_")],
            "B": sorted((name for name in shapes if name not in ONLINE_BLOCKS),
                        key=lambda name: name not in ("W_ws", "W_wu"))}   # a stable sort
    for group, names in flat.items():
        blocks, end = [], 0
        for name in names:
            start, end = end, end + math.prod(shapes[name])
            blocks.append((name, shapes[name], slice(start, end)))
        if blocks:
            groups.append((group, (end,), tuple(blocks)))
    return tuple(groups)


class ModelParams:
    """All weight blocks of one model as float64 arrays.

    The blocks live in the arrays of ``storage_groups``: ``A`` (the dense
    online blocks), ``me`` (the max-entropy tables) and ``B`` (the batch
    blocks, of which ``W_in`` = [W_ws; W_wu] is one (s_dim [+ u_dim],
    vocab) view), and each block is a view into its group, reachable both
    as an attribute and through ``named_blocks``. A write through a block
    or through its group shows in both. Given ``blocks``, their values are
    copied in; otherwise every block is zero.

    Gradient accumulators use the same container (``zeros_like``), which
    may hold a subset of the blocks, made of whole groups.
    """

    def __init__(self, dims, blocks=None, names=None):
        self.dims = dims
        shapes = dict(block_shapes(dims))
        self._names = list(shapes) if names is None else list(names)
        self._groups, views, wanted = [], {}, set(self._names)
        for group, shape, members in storage_groups(dims):
            held = [name in wanted for name, _, _ in members]
            if not any(held):
                continue
            if not all(held):
                raise ValueError(f"blocks {self._names} hold part of group {group}")
            arr = np.zeros(shape)
            for name, block_shape, index in members:
                views[name] = arr[index].reshape(block_shape)
            setattr(self, group, arr)
            self._groups.append(group)
        for name in self._names:
            view = views[name]
            if blocks is not None:
                if blocks[name].shape != shapes[name]:
                    raise ValueError(f"block {name}: expected shape {shapes[name]}, "
                                     f"got {blocks[name].shape}")
                view[...] = blocks[name]
            setattr(self, name, view)
        if "B" in self._groups:
            self.W_in = self.B[:(dims.s_dim + dims.uses_u * dims.u_dim) * dims.vocab_size].reshape(
                -1, dims.vocab_size)

    @classmethod
    def zeros(cls, dims, names=None):
        return cls(dims, names=names)

    def zeros_like(self, names=None):
        return ModelParams.zeros(self.dims, names=names)

    def named_blocks(self):
        for name in self._names:
            yield name, getattr(self, name)

    def named_groups(self):
        """(name, array) of each storage group the container holds."""
        for name in self._groups:
            yield name, getattr(self, name)

    def copy(self):
        return ModelParams(self.dims, names=self._names).assign(self)

    def assign(self, other):
        """Copy the values of ``other``, a container of the same blocks, into
        this one's groups, in place; returns this container."""
        for name, arr in other.named_groups():
            getattr(self, name)[...] = arr
        return self

    def apply_vs_mask(self):
        """Zero the text-half rows of W_vs (full variant only)."""
        if self.dims.variant == "full":
            self.W_vs[self.dims.vs_connected_rows:, :] = 0.0


def init_params(dims, rng):
    """Uniform [-0.1, 0.1] weights, drawn in ``block_shapes`` order, zero
    biases, zero u0, zero max-entropy tables; the masked W_vs rows are
    zeroed. Deterministic given the seed."""
    params = ModelParams.zeros(dims)
    for name, shape in block_shapes(dims):
        if name.startswith("W_"):
            getattr(params, name)[...] = rng.uniform(-0.1, 0.1, shape)
    params.apply_vs_mask()
    return params


@dataclass
class ModelState:
    """Recurrent activations plus the short token history feeding the
    max-entropy features. ``u`` is None for variants without visual memory."""

    s: np.ndarray
    u: np.ndarray
    context: tuple


@dataclass
class StepOutput:
    word_dist: np.ndarray  # (vocab_size,), sums to 1
    recon: np.ndarray      # (v_dim,) in (0,1), or None without u


@dataclass
class StepLoss:
    word_nll: float
    recon_loss: float
    joint: float


def reset_state(params):
    """Sentence-boundary state: neutral s, u at its learned prior, empty
    n-gram history."""
    dims = params.dims
    s = np.full(dims.s_dim, 0.5)
    u = sigmoid_clipped(params.u0, dims.sigmoid_clip) if dims.uses_u else None
    return ModelState(s=s, u=u, context=())


def shift_context(dims, context, token_id):
    """Append a token to the max-entropy history, keeping order-1 entries."""
    if dims.maxent_order <= 1:
        return ()
    return (context + (token_id,))[-(dims.maxent_order - 1):]


def maxent_bases(dims, context):
    """(order, class_base, word_base) for each feature order whose history
    is available; order k uses the k-1 most recent tokens. The scalar
    reference of ``token_bases``."""
    bases = []
    for k in range(1, dims.maxent_order + 1):
        if len(context) < k - 1:
            break
        hist = context[len(context) - (k - 1):]
        bases.append((k,
                      _hash_ngram(_ME_CLASS_SALT, k, hist) % dims.maxent_hash_size,
                      _hash_ngram(_ME_WORD_SALT, k, hist) % dims.maxent_hash_size))
    return tuple(bases)


# ``_hash_ngram``'s start word of each salt, before the order is added
_ME_STARTS = [(salt * 0x9E3779B97F4A7C15) & _MASK64 for salt in (_ME_CLASS_SALT, _ME_WORD_SALT)]
_GOLDEN, _MIX, _SHIFT = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(29)


def token_bases(dims, tokens):
    """``maxent_bases`` at every step of each row of a (rows, steps) matrix
    of fed tokens, as a (rows, steps, order, 2) int64 array: entry [r, t,
    k - 1] holds the class and word base of order k after row r has fed
    columns 0..t, or -1 twice where that history is too short for order k.

    ``uint64`` arithmetic wraps mod 2**64, as ``_hash_ngram`` masks. The
    orders fold in lockstep, aligned at their newest token: the fold at
    ``lag`` xors column t - lag into every order that reaches that far
    back. Where t < lag it reads the unset left padding instead, but only
    into entries that end up -1.
    """
    order, (rows, steps) = dims.maxent_order, tokens.shape
    pad = max(order - 2, 0)
    tok = np.empty((rows, pad + steps), dtype=np.uint64)
    tok[:, pad:] = tokens
    tok += _GOLDEN
    h = np.repeat(np.array([(start + k) & _MASK64 for k in range(1, order + 1) for start in _ME_STARTS],
                           dtype=np.uint64), rows * steps).reshape(order, 2, rows, steps)
    for lag in range(order - 2, -1, -1):   # orders lag + 2 .. order
        v = h[lag + 1:]
        v ^= tok[:, pad - lag:pad - lag + steps]
        v *= _MIX
        v ^= v >> _SHIFT
    h %= np.uint64(max(dims.maxent_hash_size, 1))   # the size is unchecked at order 0
    for k in range(3, order + 1):          # order k needs k - 1 fed tokens
        h[k - 1, ..., :k - 2] = _MASK64    # reads as -1
    return h.view(np.int64).transpose(2, 3, 0, 1)


def _advance(params, s, u, w_prev, v):
    """One recurrence update; returns new activations plus pre-activations
    (needed for exact derivatives of the clipped sigmoid). The scalar
    reference of ``advance_rows`` and ``sentence_states``, byte for byte."""
    dims = params.dims
    drive = params.W_vs @ v + params.b_s if dims.uses_v else params.b_s
    pre_s = params.W_ws[:, w_prev] + params.W_ss @ s + drive
    s2 = sigmoid_clipped(pre_s, dims.sigmoid_clip)
    if dims.uses_u:
        pre_u = params.W_wu[:, w_prev] + params.W_uu @ u + params.b_u
        u2 = sigmoid_clipped(pre_u, dims.sigmoid_clip)
        pre_r = params.W_uv @ u2 + params.b_v
        recon = sigmoid_clipped(pre_r, dims.sigmoid_clip)
    else:
        pre_u = u2 = pre_r = recon = None
    return s2, u2, recon, pre_s, pre_u, pre_r


def class_logits(params, s, u, bases):
    dims = params.dims
    z = params.W_sc @ s + params.b_c
    if dims.uses_u:
        z = z + params.W_uc @ u
    for _, cbase, _ in bases:
        idx = (cbase + np.arange(dims.class_count)) % dims.maxent_hash_size
        z = z + params.me_class[idx]
    return z


def member_logits(params, s, u, bases, lo, hi):
    """Within-class logits for the id range [lo, hi)."""
    dims = params.dims
    z = params.W_sw[lo:hi] @ s + params.b_w[lo:hi]
    if dims.uses_u:
        z = z + params.W_uw[lo:hi] @ u
    for _, _, wbase in bases:
        idx = (wbase + np.arange(lo, hi)) % dims.maxent_hash_size
        z = z + params.me_word[idx]
    return z


def word_distribution(params, s, u, context, vocab_classes):
    """Full class-factorized next-word distribution over the vocabulary.

    ``vocab_classes`` is the ClassedVocabulary that supplies the
    contiguous class ranges.
    """
    dims = params.dims
    bases = maxent_bases(dims, context)
    q = softmax(class_logits(params, s, u, bases))
    out = np.empty(dims.vocab_size)
    for c, (lo, hi) in enumerate(zip(vocab_classes.class_starts.tolist(),
                                     vocab_classes.class_bounds.tolist())):
        out[lo:hi] = q[c] * softmax(member_logits(params, s, u, bases, lo, hi))
    return out


def check_sentence(dims, ids, eos_id, what="sentence"):
    """Raise ValueError unless ``ids`` is nonempty, ends with ``eos_id`` and
    holds only integer ids (not bools) in [0, vocab_size); the message
    names the bad id."""
    if not ids:
        raise ValueError(f"empty {what}")
    if ids[-1] != eos_id:
        raise ValueError(f"{what} does not end with <eos>")
    for i in ids:
        if type(i) is not int and not is_int(i):   # plain ints skip the call
            raise ValueError(f"token ids must be integers, got {i!r}")
        if not 0 <= i < dims.vocab_size:
            raise ValueError(f"token id {i} outside [0, {dims.vocab_size})")


def feature_vector(dims, v):
    """``v`` as a float64 vector for the variants that read features; a
    shape other than (v_dim,), None, NaN or inf raises."""
    if not dims.uses_v:
        return v
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dims.v_dim,):
        raise ValueError(f"feature vector must have dim {dims.v_dim}")
    if not np.isfinite(v).all():
        raise ValueError("feature vector holds NaN or inf")
    return v


def step(params, state, w_prev, v, vocab_classes):
    """One forward time step: consume ``w_prev``, emit the next-word
    distribution and (full variant) the running feature reconstruction."""
    dims = params.dims
    if not 0 <= w_prev < dims.vocab_size:
        raise ValueError(f"token id {w_prev} out of range [0, {dims.vocab_size})")
    v = feature_vector(dims, v)
    s2, u2, recon, _, _, _ = _advance(params, state.s, state.u, w_prev, v)
    context = shift_context(dims, state.context, w_prev)
    dist = word_distribution(params, s2, u2, context, vocab_classes)
    return (ModelState(s=s2, u=u2, context=context),
            StepOutput(word_dist=dist, recon=recon))


def recon_cross_entropy(v, recon):
    """Cross-entropy between target features (in [0,1]) and the sigmoid
    reconstruction (strictly inside (0,1)), summed over the last axis: one
    value per reconstruction row."""
    return -(v * np.log(recon) + (1.0 - v) * np.log(1.0 - recon)).sum(axis=-1)


def recon_squared_error(v, recon):
    """Squared error, summed over the last axis like recon_cross_entropy."""
    return ((recon - v) ** 2).sum(axis=-1)


def recon_losses(tr, v, recon_kind):
    """Per-step reconstruction losses of a trace as floats, from one call
    over its (T, v_dim) reconstructions; zeros without u."""
    if tr.recon is None:
        return [0.0] * len(tr.targets)
    loss = recon_cross_entropy if recon_kind == "ce" else recon_squared_error
    return loss(v, tr.recon).tolist()


@dataclass(eq=False)
class CaptionPlan:
    """What training or scoring one sentence needs that reads no weight,
    built by ``caption_plans``. Row t of each array belongs to step t,
    which feeds ``inputs[t]`` and predicts ``targets[t]``. Step t reads
    only the ``sizes[t].sum()`` (classes + class size) logits of its
    target's class: that many leading entries of ``cols[t]``, and of
    ``slots[t, k]`` for each order k + 1 its history reaches (k < t + 2).
    W is classes + the widest target class of the plan's block."""

    ids: list            # the sentence's token ids
    inputs: np.ndarray   # (T,) token fed at each step (BOS = <eos>)
    targets: np.ndarray  # (T,) token predicted at each step
    classes: np.ndarray  # (T, 3): class, first id and end id of each target's class
    bases: np.ndarray    # (T, order, 2): ``token_bases`` of the inputs
    picks: np.ndarray    # (T, 2): where a step's columns hold its target class and word
    sizes: np.ndarray    # (T, 2): the class count and the class size, the two softmax segments
    cols: np.ndarray     # (T, W): the target class's ``class_columns``
    slots: np.ndarray    # (T, order, W): ``ModelParams.me`` slot of each column, per order


def caption_plans(dims, vocab, sents):
    """One ``CaptionPlan`` per sentence, from one batched pass over all of
    them. A sentence that ``check_sentence`` rejects raises ValueError.

    The ``token_bases`` come from one padded (sentences, steps) matrix of
    fed tokens; every other array is built over the joined steps of all
    sentences, and each plan holds its sentence's slice. Column j of a step
    is class logit j for j < classes, then member j - classes of the target
    class, whose ``me`` slot under an order's (class, word) bases
    (``maxent_bases``) is (class base + j) mod hash size, or (word base +
    word id) mod hash size in the ``me_word`` half, past the hash size.
    Only the leading orders whose history a step has are valid; padding
    past a step's width holds junk. The slot arrays hold steps x order x
    (classes + widest class) entries.
    """
    for sent in sents:
        check_sentence(dims, sent.ids, vocab.eos_id)
    targets = np.array([i for sent in sents for i in sent.ids], dtype=np.int64)
    lengths = np.array([len(sent.ids) for sent in sents])
    c, h = dims.class_count, dims.maxent_hash_size
    # <eos> doubles as begin-of-sentence: each sentence is fed the <eos> that ends the one before
    inputs = np.concatenate([targets[-1:], targets[:-1]])
    live = np.arange(lengths.max()) < lengths[:, None]
    fed = np.zeros(live.shape, dtype=np.int64)
    fed[live] = inputs
    bases = token_bases(dims, fed)[live]
    g = vocab.id_class[targets]
    lo, hi = vocab.class_starts[g], vocab.class_bounds[g]
    # (steps, 7) columns: class rows (g, lo, hi), picks, sizes
    table = np.array([g, lo, hi, g, c + targets - lo, np.full_like(g, c), hi - lo]).T
    j = np.arange(c + table[:, 6].max())
    member = j >= c
    col_ids = np.where(member, j - c + lo[:, None], j)   # the class or word id of each column
    slots = np.where(member, bases[..., 1:], bases[..., :1])
    slots += col_ids[:, None]
    slots %= max(h, 1)
    slots[..., c:] += h
    cols = col_ids + c * member
    ends = lengths.cumsum().tolist()
    return [CaptionPlan(sent.ids, inputs[a:b], targets[a:b], table[a:b, :3], bases[a:b],
                        table[a:b, 3:5], table[a:b, 5:], cols[a:b], slots[a:b])
            for sent, a, b in zip(sents, [0] + ends[:-1], ends)]


@dataclass(eq=False)
class SentenceTrace(CaptionPlan):
    """One sentence's plan and its recurrence, computed before any output
    step. ``act`` row t + 1 is the stacked [s | u] state that step t
    produces, its first s_dim columns s, the rest u (none without u). The
    reconstruction arrays are None without u."""

    act: np.ndarray      # (T + 1, s_dim [+ u_dim]): [s | u]_0 .. [s | u]_T
    pre: np.ndarray      # (T, s_dim [+ u_dim]) pre-activations
    pre_r: np.ndarray    # (T, v_dim)
    recon: np.ndarray    # (T, v_dim)
    word_nll: list       # set by ``output_pass``, in step order


def sentence_states(params, v, sent, vocab):
    """The recurrence of a sentence from a fresh state, with no output
    step. s and u read only the batch blocks, which stay fixed within a
    sentence, so the whole recurrence can run before training moves the
    output blocks word by word. It steps one stacked [s | u] row through
    ``advance_rows``, from input columns gathered once, byte for byte as
    ``_advance`` does. ``sent`` is a ``CaptionPlan`` or a sentence, which
    gets a plan of its own; one that ``check_sentence`` rejects raises
    ValueError."""
    dims, sd = params.dims, params.dims.s_dim
    plan = sent if isinstance(sent, CaptionPlan) else caption_plans(dims, vocab, [sent])[0]
    drive = stacked_drive(params, feature_vector(dims, v))
    pre = input_columns(params, plan.inputs)   # row t holds pre-activations once step t has run
    act = np.empty((len(pre) + 1, pre.shape[1]))
    act[0] = stacked_start(params)
    for t in range(len(pre)):
        advance_rows(params, pre[t], act[t], drive, act[t + 1])
    pre_r, recon = recon_rows(params, act[1:, sd:]) if dims.uses_u else (None, None)
    return SentenceTrace(**vars(plan), act=act, pre=pre, pre_r=pre_r, recon=recon, word_nll=[])


OutputPass = namedtuple("OutputPass", "x dz residual residual_err")


def output_pass(params, tr, lr, limit, on_step=None):
    """Class and member softmax of each step of a trace, where each step
    first adds ``-lr`` times its gradient pieces, clamped to [-limit,
    limit], to the output weights. Sets ``tr.word_nll``; ``lr=0`` scores.

    The max-entropy tables move in place, then ``on_step(t, params)`` runs.
    The dense blocks stay at A0 and take the steps in one product at the
    sentence end: SGD on a linear layer is attention over its inputs (Irie
    et al. 2022), so with rows x_t = [s_t, 1, u_t], A(t) = A0 - lr sum_{k<t}
    dz_k x_k^T and step t reads X A0^T - lr (X X^T)[t] @ dz, whose rows from
    t on are still zero. As s, u in [0, 1] and |dz| <= 1, the clamp acts only
    if ``limit < 1``; its residuals clip(piece) - piece are then carried
    densely. Returns an ``OutputPass`` (in the layout of ``params.A``).

    A step reads only the logits of its target's class columns
    (``tr.cols``), gathered once with the max-entropy terms of their
    ``tr.slots``: the class softmax and the member softmax then run in place
    on the two segments of that one array, and fill its columns of the
    ``dz`` row.
    """
    dims, sd = params.dims, params.dims.s_dim
    c = dims.class_count
    x = np.hstack([tr.act[1:, :sd], np.ones((len(tr.targets), 1)), tr.act[1:, sd:]])
    z0, gram = x @ params.A.T, -lr * (x @ x.T)
    dz, residual, residual_err = np.zeros_like(z0), np.zeros_like(params.A), np.zeros_like(x)
    clamped, maxent = limit < 1.0, dims.maxent_order > 0
    picked, segments = np.empty(tr.picks.shape), np.array([0, c])
    for t, ((gc, gw), (_, n)) in enumerate(zip(tr.picks.tolist(), tr.sizes.tolist())):
        cols = tr.cols[t, :c + n]
        z = z0[t] + gram[t] @ dz
        if clamped:
            z -= lr * (residual @ x[t])
        z = z[cols]
        if maxent:
            sl = tr.slots[t, :t + 2, :c + n]   # the orders step t has
            z += np.add.reduce(params.me[sl], axis=0)
        z -= np.maximum.reduceat(z, segments).repeat(tr.sizes[t])
        np.exp(z, out=z)
        zc, zw = z[:c], z[c:]
        zc /= np.add.reduce(zc)   # slice sums: add.reduceat sums in another order
        zw /= np.add.reduce(zw)
        picked[t] = z[gc], z[gw]
        z[gc] -= 1.0
        z[gw] -= 1.0
        d = dz[t]
        d[cols] = z
        if clamped:
            residual_err[t] = -lr * (d @ residual)
            piece = np.outer(d, x[t])
            residual += piece.clip(-limit, limit) - piece
        if maxent and lr:   # values of the index's shape: numpy 2.4.6 mis-broadcasts a 1-D one
            step = -lr * (z.clip(-limit, limit) if clamped else z)
            np.add.at(params.me, sl, step[None].repeat(len(sl), 0))
        if on_step is not None:
            on_step(t, params)
    logs = np.log(picked)   # inf, not an error, where a probability is 0
    tr.word_nll = (-logs[:, 0] - logs[:, 1]).tolist()
    return OutputPass(x, dz, residual, residual_err)


def stacked_start(params):
    """The sentence-boundary state of ``reset_state`` as one [s | u] row
    (s alone without u)."""
    state = reset_state(params)
    return state.s if state.u is None else np.concatenate([state.s, state.u])


def stacked_drive(params, v):
    """The drive [W_vs @ v + b_s | b_u] of one (v_dim,) feature vector, or
    of each row of an (N, v_dim) matrix; b_s stands for W_vs @ v + b_s in
    the ``rnn`` variant, which ignores ``v``, and b_u is left out without
    u."""
    dims = params.dims
    drive = v @ params.W_vs.T + params.b_s if dims.uses_v else params.b_s
    if not dims.uses_u:
        return drive
    return np.concatenate([drive, np.broadcast_to(params.b_u, drive.shape[:-1] + (dims.u_dim,))],
                          axis=-1)


def input_columns(params, ids):
    """The input columns [W_ws[:, i]; W_wu[:, i]] (W_ws[:, i] without u) of
    one token id, as a row, or of an array of ids, as (len(ids), dim)
    rows, gathered from ``W_in`` at once. The result is a new array, also for
    one id, which ``advance_rows`` can change in place."""
    return params.W_in.T.take(ids, axis=0)


def advance_rows(params, pre, prev, drive, out):
    """One recurrence update of stacked [s | u] rows (s alone without u),
    written into ``out``, which is returned.

    ``pre`` holds the ``input_columns`` of the fed token(s), one (dim,) row
    or (N, dim) rows, and becomes the pre-activations in place: it adds
    ``W_ss @ s`` and ``W_uu @ u`` of the previous state ``prev``, then the
    ``stacked_drive`` ``drive``. ``prev`` and ``drive`` are each one row,
    also when shared by every row of ``pre``, or (N, dim) rows. The sums
    keep ``_advance``'s order, (columns + recurrent product) + drive, and
    numpy sends one row's ``x @ W.T`` to the gemv of ``W @ x``, so one row
    equals ``_advance`` byte for byte. ``out`` gets the clipped sigmoid of
    the pre-activations.
    """
    dims, sd = params.dims, params.dims.s_dim
    recurrent = prev[..., :sd] @ params.W_ss.T
    if dims.uses_u:   # one contiguous add: adding into the column halves of N rows is slower
        recurrent = np.concatenate([recurrent, prev[..., sd:] @ params.W_uu.T], axis=-1)
    pre += recurrent
    pre += drive
    return sigmoid_clipped(pre, dims.sigmoid_clip, out=out)


def recon_rows(params, us):
    """(pre_r, recon) of a sequence of u states as (T, v_dim) arrays, from
    one call. Each state is its own (1, u_dim) slice of a stacked matmul,
    which numpy sends to the gemv of ``W_uv @ u``, so it rounds as the
    scalar ``step`` does; one (T, u_dim) gemm would not. The sigmoid is
    elementwise, so it runs once over all rows."""
    pre_r = (np.asarray(us)[:, None] @ params.W_uv.T)[:, 0] + params.b_v
    return pre_r, sigmoid_clipped(pre_r, params.dims.sigmoid_clip)


def context_logits(params, u, bases):
    """The logits that do not read s, of K entries, as a (classes + vocab,
    K) block in the row order of ``params.A``: the bias column of
    ``params.A``, its u columns times the (K, u_dim) rows ``u``
    (None without u), and the max-entropy terms of the (K, order, 2)
    ``token_bases`` entries ``bases``, of which an order whose base is -1
    adds nothing. Adding the s columns times s gives every logit."""
    dims, a = params.dims, params.A
    c, sd = dims.class_count, dims.s_dim
    if dims.maxent_order:   # (ids, orders, K) slots; mode="wrap" reads slot i % hash size
        (cbase, wbase), dead = bases.T, bases.T[0] < 0
        terms = np.empty((len(a),) + cbase.shape)
        ids = np.arange(dims.vocab_size)[:, None, None]
        np.take(params.me_class, cbase + ids[:c], out=terms[:c], mode="wrap")
        np.take(params.me_word, wbase + ids, out=terms[c:], mode="wrap")
        z = terms.sum(axis=1, where=~dead) if dead.any() else terms.sum(axis=1)
    else:
        z = np.zeros((len(a), len(bases)))
    z += a[:, sd:sd + 1]
    if dims.uses_u:
        z += a[:, sd + 1:] @ u.T
    return z


def word_distribution_rows(params, s, u, bases, vocab_classes):
    """``word_distribution`` for every row of an (N, s_dim) state matrix,
    with its (N, u_dim) u rows (None without u) and the (N, order, 2)
    ``token_bases`` entries of each row's context.

    Returns (N, vocab) arrays ``qw`` and ``p``: the probability of each
    id's class and each id's probability within its class. Their product
    is the distribution. Both are ``.T`` views of (vocab, N) arrays: the
    rows are scored as one (classes + vocab, N) block of logits, the s
    product plus ``context_logits``, and the class softmax and the member
    softmax of each class segment reduce over axis 0.
    """
    c, sd = params.dims.class_count, params.dims.s_dim
    starts, class_ids = vocab_classes.class_starts, vocab_classes.id_class
    z = context_logits(params, u, bases)
    z += params.A[:, :sd] @ s.T
    z[:c] -= z[:c].max(axis=0)
    z[c:] -= np.maximum.reduceat(z[c:], starts, axis=0)[class_ids]
    q, p = np.exp(z, out=z)[:c], z[c:]
    q /= q.sum(axis=0)
    p /= np.add.reduceat(p, starts, axis=0)[class_ids]
    return q[class_ids].T, p.T


def _target_nll(z, c, rows):
    """NLL of one target class and word per column of a block of logits,
    which it overwrites. Axis 0 of ``z`` holds the class logits (its first
    ``c`` rows), then the member logits of the columns' target class;
    ``rows`` is the (2, columns) class and member row of each column's
    target. One log-softmax runs over the classes and one over the
    members."""
    # the fancy index copies the targets before zc and zw shift in place
    (tc, tw), (zc, zw) = z[rows, np.arange(z.shape[1])], (z[:c], z[c:])
    mc, mw = np.maximum.reduce(zc, axis=0), np.maximum.reduce(zw, axis=0)
    zc -= mc
    zw -= mw
    return ((np.log(np.add.reduce(np.exp(zc, out=zc), axis=0)) - (tc - mc))
            + (np.log(np.add.reduce(np.exp(zw, out=zw), axis=0)) - (tw - mw)))


def score_gallery_states(params, vocab_classes, ss, uu, targets, bases):
    """Word NLL of a sentence's gallery states as a (T, N) array: entry
    [t, i] is the NLL of ``targets[t]`` at state ``ss[t, i]``.

    ``ss`` is the step-major (T, N, s_dim) store of ``gallery_scores``,
    ``uu`` the (T, u_dim) u rows that every image shares (None without u)
    and ``bases`` the (T, order, 2) ``token_bases`` of the steps. Only each
    step's target class is scored, so a word costs classes + class size
    logits, not classes + vocab. The steps go into one stable sort by
    target class, and the ``context_logits`` are built once. Each class's
    steps then take the product of the class's ``class_columns`` rows of
    ``params.A`` with their states, as a (classes + class size, steps, N)
    block, add their context logits, broadcast over the images, and
    ``_target_nll`` reads the targets out. A block holds at least one step
    and otherwise no more logits than ``ROW_SLICE`` full distributions.
    """
    c, sd, n = params.dims.class_count, params.dims.s_dim, ss.shape[1]
    targets = np.asarray(targets, dtype=np.int64)
    g = vocab_classes.id_class[targets]
    order = np.argsort(g, kind="stable")
    ss, targets, g = ss[order], targets[order], g[order]
    picks = np.array([g, c + targets - vocab_classes.class_starts[g]])   # rows of class_columns[g]
    ctx = context_logits(params, uu, bases)[:, order]
    nll = np.empty(ss.shape[:2])
    cuts = (np.flatnonzero(g[1:] != g[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(g)]):
        cols = vocab_classes.class_columns[g[lo]]
        a, per = params.A[cols, :sd], max(1, len(params.A) * ROW_SLICE // (len(cols) * n))
        for b in range(lo, hi, per):
            e = slice(b, min(b + per, hi))
            z = (a @ ss[e].reshape(-1, sd).T).reshape(len(cols), -1, n)
            z += ctx[cols, e, None]
            nll[order[e]] = _target_nll(z, c, picks[:, e])
    return nll


def sentences_of(dims, item, eos_id, name):
    """The sentences of a retrieval item, which is one sentence or a group
    (concatenated protocol), each checked by ``check_sentence``. A group
    holding no sentence raises ValueError naming the item as ``name``."""
    sents = item if isinstance(item, (list, tuple)) else [item]
    if not sents:
        raise ValueError(f"{name} holds no sentence")
    for sent in sents:
        check_sentence(dims, sent.ids, eos_id)
    return sents


def unique_rows(feats):
    """(rows, inverse) of an (N, dim) matrix, as ``np.unique(feats, axis=0,
    return_inverse=True)`` gives them: the distinct rows in lexicographic
    order, and the (N,) index of each row among them. One ``np.lexsort``
    and a compare of neighbours, not a sort of the rows as records."""
    order = np.lexsort(feats.T[::-1])
    srt = feats[order]
    new = np.ones(len(feats), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    inverse = np.empty(len(feats), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return srt[new], inverse


def gallery_scores(params, feats, items, vocab_classes):
    """Word NLL of each item under each row of an (N, v_dim) feature
    matrix, as an (items, N) matrix, and each item's (T, v_dim) word-driven
    reconstruction, which equals ``inference.recon_trajectory`` (None
    without u). An item is a sentence or a group of sentences, whose NLLs
    add up; the state resets between them.

    Only s sees the features, through ``W_vs @ v + b_s``, computed once per
    call for each distinct row. A sentence's loop steps the recurrence
    alone. One state store per call, sized to its longest sentence, holds
    a row per step: each step sums the pre-activations of every s row and
    of the shared u state, in ``advance_rows``' order, into its row and
    clamps the row in place with one ``sigmoid_clipped`` call. The states
    are views of the store, which ``score_gallery_states`` scores after
    each sentence; only the u rows are copied out, for the reconstruction.
    Row i of the NLL equals the summed
    ``sentence_loss(params, feats[i], sent, 0.0, vocab_classes)[0].word_nll``
    up to rounding. BLAS may round identical rows of a product differently
    by where they sit, so repeated rows (all rows, for ``rnn``, which
    ignores the features) are scored once: exact ties stay exact, as in the
    scalar path. A row holding NaN or inf, and an item that is an empty
    group, raise ValueError naming its index.
    """
    dims = params.dims
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or (dims.uses_v and feats.shape[1] != dims.v_dim):
        raise ValueError(f"features must be an (N, {dims.v_dim}) matrix, "
                         f"got shape {feats.shape}")
    if len(feats) == 0:
        raise ValueError("the gallery is empty")
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"feature row {bad[0]} holds NaN or inf")
    if dims.uses_v:
        rows, inverse = unique_rows(feats)
        drive = rows @ params.W_vs.T + params.b_s
    else:
        inverse = np.zeros(len(feats), dtype=np.int64)
        drive = params.b_s[None, :]
    groups = [sentences_of(dims, item, vocab_classes.eos_id, f"item {k}")
              for k, item in enumerate(items)]
    start, n = reset_state(params), drive.size
    # row t: step t's s rows, then the shared u state (none without u)
    store = np.empty((max((len(sent.ids) for sents in groups for sent in sents), default=0),
                      n + (dims.u_dim if dims.uses_u else 0)))
    ss, uu = store[:, :n].reshape((len(store),) + drive.shape), store[:, n:]
    w_ws, w_ss, w_wu = params.W_ws.T, params.W_ss.T, params.W_wu.T if dims.uses_u else None
    nll, recons = np.zeros((len(items), len(drive))), []
    for k, sents in enumerate(groups):
        us = []
        for sent in sents:
            s, u = np.broadcast_to(start.s, drive.shape), start.u
            inputs = [sent.ids[-1]] + list(sent.ids[:-1])
            for prev, row, s_pre, u_pre in zip(inputs, store, ss, uu):
                np.add(w_ws[prev], s @ w_ss, out=s_pre)
                s_pre += drive
                if dims.uses_u:
                    np.add(w_wu[prev], params.W_uu @ u, out=u_pre)
                    u_pre += params.b_u
                sigmoid_clipped(row, dims.sigmoid_clip, out=row)
                s, u = s_pre, u_pre
            u_rows = uu[:len(inputs)].copy() if dims.uses_u else None
            us.append(u_rows)
            nll[k] += score_gallery_states(params, vocab_classes, ss[:len(inputs)], u_rows,
                                           sent.ids, token_bases(dims, np.array([inputs]))[0]
                                           ).sum(axis=0)
        recons.append(recon_rows(params, np.concatenate(us))[1] if dims.uses_u else None)
    return nll[:, inverse], recons if dims.uses_u else None


def sentence_forward(params, v, sent, vocab):
    """``sentence_states`` plus the output pass, at fixed weights."""
    tr = sentence_states(params, v, sent, vocab)
    output_pass(params, tr, 0.0, math.inf)
    return tr


def sentence_loss(params, v, sent, lam_recon, vocab_classes, recon_kind="ce"):
    """Joint loss of one sentence from a fresh state.

    Returns the total and the per-step list; each step contributes the
    negative log-likelihood of its target word plus ``lam_recon`` times the
    feature reconstruction error (full variant only).
    """
    tr = sentence_forward(params, v, sent, vocab_classes)
    steps = [StepLoss(word_nll=w, recon_loss=r, joint=w + lam_recon * r)
             for w, r in zip(tr.word_nll, recon_losses(tr, v, recon_kind))]
    total = StepLoss(
        word_nll=sum(s.word_nll for s in steps),
        recon_loss=sum(s.recon_loss for s in steps),
        joint=sum(s.joint for s in steps),
    )
    return total, steps


CHECKPOINT_MAGIC = b"BICAP-CKPT-v1\n"


def save_checkpoint(path, params, vocab, lam_recon, seed_lineage=None):
    """Write a checkpoint: magic, big-endian u64 metadata length, metadata
    JSON (dims, vocabulary, hash, loss weight, seed lineage, block index,
    payload sha256), then the raw little-endian float64 block payloads.
    Byte-stable for identical inputs and bit-exact on round trip."""
    blocks = []
    offset = 0
    payload = []
    for name, arr in params.named_blocks():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blocks.append({"name": name, "shape": list(arr.shape), "dtype": "<f8",
                       "offset": offset, "nbytes": len(raw)})
        payload.append(raw)
        offset += len(raw)
    meta = {
        "format": "bicap-checkpoint",
        "version": 1,
        "dims": asdict(params.dims),
        "lambda_recon": float(lam_recon),
        "seed_lineage": seed_lineage or {},
        "vocab": vocab.to_dict(),
        "vocab_hash": vocab.content_hash(),
        "blocks": blocks,
        "payload_sha256": hashlib.sha256(b"".join(payload)).hexdigest(),
    }
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(head).to_bytes(8, "big"))
        fh.write(head)
        for raw in payload:
            fh.write(raw)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, vocab, metadata dict).

    A truncated or corrupt file, an unknown version, blocks that differ
    from the ones its dims call for, or a payload whose sha256 differs from
    the recorded one raise ValueError naming the path. So do block offsets
    that are not contiguous in block order, an ``nbytes`` other than its
    shape's, or a payload that does not end at the last block; these name
    the block, as does a block holding NaN or inf. Files written before the
    checksum existed have no ``payload_sha256`` and load unchecked.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    start = len(CHECKPOINT_MAGIC) + 8
    head_len = int.from_bytes(raw[len(CHECKPOINT_MAGIC):start], "big")
    payload = memoryview(raw)[start + head_len:]
    try:
        meta = json.loads(raw[start:start + head_len].decode("utf-8"))
        if meta["version"] != 1:
            raise ValueError(f"unsupported version {meta['version']!r}")
        dims = ModelDims(**meta["dims"])
        expected = [(name, list(shape), "<f8") for name, shape in block_shapes(dims)]
        found = [(b["name"], b["shape"], b["dtype"]) for b in meta["blocks"]]
        if found != expected:
            raise ValueError(f"blocks {found} do not match the dims, which need {expected}")
        end = 0
        for b in meta["blocks"]:
            need = 8 * math.prod(b["shape"])
            if (b["offset"], b["nbytes"]) != (end, need):
                raise ValueError(f"block {b['name']} has offset {b['offset']} and nbytes "
                                 f"{b['nbytes']}; block order and shape need {end} and {need}")
            end += need
        if end != len(payload):
            raise ValueError(f"payload has {len(payload)} bytes, but its last block "
                             f"{b['name']} ends at byte {end}")
        blocks = {b["name"]: np.frombuffer(payload[b["offset"]:b["offset"] + b["nbytes"]],
                                           dtype="<f8").reshape(b["shape"])
                  for b in meta["blocks"]}
        digest = meta.get("payload_sha256")
        if digest is not None and hashlib.sha256(payload).hexdigest() != digest:
            raise ValueError("payload sha256 does not match the recorded one")
        bad = next((name for name, arr in blocks.items() if not np.isfinite(arr).all()), None)
        if bad is not None:
            raise ValueError(f"block {bad} holds NaN or inf")
        vocab = ClassedVocabulary.from_dict(meta["vocab"])
        if vocab.content_hash() != meta["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint ({type(exc).__name__}: {exc})") from exc
    return ModelParams(dims, blocks), vocab, meta
