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

import hashlib
import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from .numkit import sigmoid_clipped, softmax, _MASK64

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


@dataclass
class ModelDims:
    """Architecture hyperparameters shared by params, state and training."""

    vocab_size: int
    class_count: int
    v_dim: int = 0
    s_dim: int = 100
    u_dim: int = 100
    maxent_order: int = 3
    maxent_hash_size: int = 1 << 20
    sigmoid_clip: float = 50.0
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.vocab_size < 1 or not 1 <= self.class_count <= self.vocab_size:
            raise ValueError("need 1 <= class_count <= vocab_size")
        if self.variant == "full" and self.s_dim % 2 != 0:
            raise ValueError("s_dim must be even for the full variant (half connection)")
        if self.variant != "rnn" and self.v_dim < 1:
            raise ValueError("v_dim must be >= 1 when visual features are used")
        if self.maxent_order < 0:
            raise ValueError("maxent_order must be >= 0")
        if self.maxent_order > 0 and self.maxent_hash_size < 1:
            raise ValueError("maxent_hash_size must be >= 1")
        if self.sigmoid_clip <= 0:
            raise ValueError("sigmoid_clip must be positive")

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


# Weights updated after every word during training; the rest accumulate
# over a sentence and update once at its end.
ONLINE_BLOCKS = frozenset({"W_sc", "W_uc", "W_sw", "W_uw", "b_c", "b_w",
                           "me_class", "me_word"})


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


class ModelParams:
    """All weight blocks of one model as float64 arrays.

    Gradient accumulators use the same container (``zeros_like``); blocks
    are reachable both as attributes and through ``named_blocks``.
    """

    def __init__(self, dims, blocks, names=None):
        self.dims = dims
        shapes = dict(block_shapes(dims))
        self._names = list(shapes) if names is None else list(names)
        for name in self._names:
            arr = blocks[name]
            if arr.shape != shapes[name]:
                raise ValueError(f"block {name}: expected shape {shapes[name]}, got {arr.shape}")
            setattr(self, name, arr)

    @classmethod
    def zeros(cls, dims, names=None):
        shapes = dict(block_shapes(dims))
        keep = list(shapes) if names is None else list(names)
        return cls(dims, {name: np.zeros(shapes[name]) for name in keep}, names=keep)

    def zeros_like(self, names=None):
        return ModelParams.zeros(self.dims, names=names)

    def named_blocks(self):
        for name in self._names:
            yield name, getattr(self, name)

    def copy(self):
        return ModelParams(self.dims, {n: a.copy() for n, a in self.named_blocks()})

    def apply_vs_mask(self):
        """Zero the text-half rows of W_vs (full variant only)."""
        if self.dims.variant == "full":
            self.W_vs[self.dims.vs_connected_rows:, :] = 0.0

    def allclose(self, other, **kw):
        return all(np.allclose(a, getattr(other, n), **kw) for n, a in self.named_blocks())


def init_params(dims, rng):
    """Uniform [-0.1, 0.1] weights, zero biases, zero u0, zero max-entropy
    tables; the masked W_vs rows are zeroed. Deterministic given the seed."""
    blocks = {}
    for name, shape in block_shapes(dims):
        if name.startswith("W_"):
            blocks[name] = rng.uniform(-0.1, 0.1, shape)
        else:
            blocks[name] = np.zeros(shape)
    params = ModelParams(dims, blocks)
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
    is available; order k uses the k-1 most recent tokens."""
    if dims.maxent_order == 0:
        return []
    bases = []
    h = dims.maxent_hash_size
    for k in range(1, dims.maxent_order + 1):
        if len(context) < k - 1:
            break
        hist = context[len(context) - (k - 1):]
        bases.append((k,
                      _hash_ngram(_ME_CLASS_SALT, k, hist) % h,
                      _hash_ngram(_ME_WORD_SALT, k, hist) % h))
    return bases


def _advance(params, s, u, w_prev, v):
    """One recurrence update; returns new activations plus pre-activations
    (needed for exact derivatives of the clipped sigmoid)."""
    dims = params.dims
    pre_s = params.W_ws[:, w_prev] + params.W_ss @ s + params.b_s
    if dims.uses_v:
        pre_s = pre_s + params.W_vs @ v
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

    ``vocab_classes`` supplies the contiguous class ranges (a
    ClassedVocabulary or anything with ``class_bounds``).
    """
    dims = params.dims
    bases = maxent_bases(dims, context)
    q = softmax(class_logits(params, s, u, bases))
    out = np.empty(dims.vocab_size)
    lo = 0
    for c, hi in enumerate(np.asarray(vocab_classes.class_bounds, dtype=np.int64)):
        hi = int(hi)
        out[lo:hi] = q[c] * softmax(member_logits(params, s, u, bases, lo, hi))
        lo = hi
    return out


def feature_vector(dims, v):
    """``v`` as a float64 vector for the variants that read features; a
    shape other than (v_dim,), or None, raises."""
    if not dims.uses_v:
        return v
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dims.v_dim,):
        raise ValueError(f"feature vector must have dim {dims.v_dim}")
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
    over its stacked (T, v_dim) reconstructions; zeros without u."""
    if tr.recon[0] is None:
        return [0.0] * len(tr.recon)
    loss = recon_cross_entropy if recon_kind == "ce" else recon_squared_error
    return loss(v, np.array(tr.recon)).tolist()


@dataclass
class SentenceTrace:
    """Everything the backward pass needs from one sentence forward pass."""

    inputs: list        # token fed at each step (BOS = <eos>)
    targets: list       # token predicted at each step
    s: list             # states s_0 .. s_T
    u: list             # states u_0 .. u_T (empty-u variants: [None]* )
    pre_s: list         # pre-activations per step (index 0 -> step 1)
    pre_u: list
    pre_r: list
    recon: list
    bases: list         # maxent bases active at each step
    class_probs: list   # softmax over classes per step
    class_ids: list     # class of the target per step
    member_probs: list  # softmax over the target's class members per step
    member_range: list  # (lo, hi) of the target's class per step
    word_nll: list

    @classmethod
    def empty(cls, state):
        return cls([], [], [state.s], [state.u], [], [], [], [], [], [], [], [], [], [])


def forward_steps(params, v, sent, vocab_classes):
    """Run a sentence from a fresh state, scoring each target token through
    its class and member softmax only (no full-vocabulary distribution).

    Records step ``t`` into the trace and yields ``(t, trace)``. Weights the
    consumer changes between yields are seen by the later steps, which is
    how training applies its per-word online update. ``recon_losses``
    scores the reconstructions for the callers that need that loss.
    """
    dims = params.dims
    state = reset_state(params)
    bounds = np.asarray(vocab_classes.class_bounds, dtype=np.int64)
    tr = SentenceTrace.empty(state)
    context = state.context
    s, u = state.s, state.u
    prev = sent.ids[-1]  # <eos> doubles as the begin-of-sentence pseudo-token
    for t, target in enumerate(sent.ids):
        s, u, recon, pre_s, pre_u, pre_r = _advance(params, s, u, prev, v)
        context = shift_context(dims, context, prev)
        bases = maxent_bases(dims, context)
        q = softmax(class_logits(params, s, u, bases))
        g = int(np.searchsorted(bounds, target, side="right"))
        lo = 0 if g == 0 else int(bounds[g - 1])
        hi = int(bounds[g])
        p = softmax(member_logits(params, s, u, bases, lo, hi))
        nll = -float(np.log(q[g])) - float(np.log(p[target - lo]))
        tr.inputs.append(prev)
        tr.targets.append(target)
        tr.s.append(s)
        tr.u.append(u)
        tr.pre_s.append(pre_s)
        tr.pre_u.append(pre_u)
        tr.pre_r.append(pre_r)
        tr.recon.append(recon)
        tr.bases.append(bases)
        tr.class_probs.append(q)
        tr.class_ids.append(g)
        tr.member_probs.append(p)
        tr.member_range.append((lo, hi))
        tr.word_nll.append(nll)
        yield t, tr
        prev = target


def _times_u(W, u):
    """``W`` applied to each u row: ``W @ u`` for one shared (u_dim,)
    state, which then rounds exactly as the scalar ``step`` does, and
    ``u @ W.T`` for an (N, u_dim) matrix."""
    return W @ u if u.ndim == 1 else u @ W.T


def advance_rows(params, s, u, prev, drive):
    """One recurrence update of an (N, s_dim) state matrix.

    ``u`` is one (u_dim,) state shared by every row or an (N, u_dim)
    matrix (None without the visual memory); ``prev`` is one token id or
    (N,) ids; ``drive`` is ``W_vs @ v + b_s`` per row, or ``b_s`` alone.
    """
    dims = params.dims
    clip = dims.sigmoid_clip
    s = sigmoid_clipped(params.W_ws.T[prev] + s @ params.W_ss.T + drive, clip)
    if dims.uses_u:
        u = sigmoid_clipped(params.W_wu.T[prev] + _times_u(params.W_uu, u) + params.b_u, clip)
    return s, u


def logit_rows(params, s, u, lo, hi):
    """Row-wise class logits and member logits of ids [lo, hi), without
    the max-entropy terms, for states as ``advance_rows`` returns them."""
    zc = s @ params.W_sc.T + params.b_c
    zw = s @ params.W_sw[lo:hi].T + params.b_w[lo:hi]
    if params.dims.uses_u:
        zc = zc + _times_u(params.W_uc, u)
        zw = zw + _times_u(params.W_uw[lo:hi], u)
    return zc, zw


def word_distribution_rows(params, s, u, contexts, vocab_classes, bases_cache):
    """``word_distribution`` for every row of an (N, s_dim) state matrix
    with (N, u_dim) u rows and one max-entropy context per row.

    Returns (N, vocab) arrays ``qw`` and ``p``: the probability of each
    id's class and each id's probability within its class. Their product
    is the distribution. The member softmax runs per class segment with
    ``np.maximum.reduceat``/``np.add.reduceat``. ``bases_cache`` (a dict
    the caller owns) maps each context seen so far to its max-entropy
    bases, so every distinct context is hashed once.
    """
    dims = params.dims
    bounds = np.asarray(vocab_classes.class_bounds, dtype=np.int64)
    starts = np.concatenate(([0], bounds[:-1]))
    class_ids = np.repeat(np.arange(len(bounds)), bounds - starts)
    zc, zw = logit_rows(params, s, u, 0, dims.vocab_size)
    if dims.maxent_order > 0:
        slots = {}
        rows = [slots.setdefault(ctx, len(slots)) for ctx in contexts]
        for ctx in slots.keys() - bases_cache.keys():
            bases_cache[ctx] = [(cbase, wbase) for _, cbase, wbase in maxent_bases(dims, ctx)]
        bases = np.array([bases_cache[ctx] for ctx in slots])   # (contexts, orders, 2)
        h = dims.maxent_hash_size
        me_c = params.me_class[(bases[:, :, :1] + np.arange(dims.class_count)) % h][rows]
        me_w = params.me_word[(bases[:, :, 1:] + np.arange(dims.vocab_size)) % h][rows]
        for k in range(bases.shape[1]):
            zc = zc + me_c[:, k]
            zw = zw + me_w[:, k]
    e = np.exp(zw - np.maximum.reduceat(zw, starts, axis=1)[:, class_ids])
    p = e / np.add.reduceat(e, starts, axis=1)[:, class_ids]
    return softmax(zc)[:, class_ids], p


def gallery_word_nll(params, feats, sent, vocab_classes):
    """(N,) word NLL of one sentence under each row of an (N, v_dim)
    feature matrix, in one forward over an (N, s_dim) state matrix.

    Only s sees the features, through ``W_vs @ v``, computed once per
    sentence. The u recurrence, the u-side logits and the max-entropy terms
    depend on the words alone: they are computed once per step and
    broadcast over the rows. Row i equals ``sentence_loss(params, feats[i],
    sent, 0.0, vocab_classes)[0].word_nll`` up to rounding. BLAS may round
    identical rows of a product differently by where they sit, so repeated
    rows (all rows, for ``rnn``, which ignores the features) are scored
    once: exact ties stay exact, as in the scalar path.
    """
    dims = params.dims
    if not sent.ids or sent.ids[-1] != vocab_classes.eos_id:
        raise ValueError("sentence must be nonempty and end with <eos>")
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or (dims.uses_v and feats.shape[1] != dims.v_dim):
        raise ValueError(f"features must be an (N, {dims.v_dim}) matrix, "
                         f"got shape {feats.shape}")
    if dims.uses_v:
        rows, inverse = np.unique(feats, axis=0, return_inverse=True)
        drive = rows @ params.W_vs.T + params.b_s
    else:
        inverse = np.zeros(len(feats), dtype=np.int64)
        drive = params.b_s[None, :]
    bounds = np.asarray(vocab_classes.class_bounds, dtype=np.int64)
    state = reset_state(params)
    s = np.broadcast_to(state.s, drive.shape)
    u, context = state.u, state.context
    nll = np.zeros(len(drive))
    prev = sent.ids[-1]
    for target in sent.ids:
        s, u = advance_rows(params, s, u, prev, drive)
        g = int(np.searchsorted(bounds, target, side="right"))
        lo = 0 if g == 0 else int(bounds[g - 1])
        hi = int(bounds[g])
        zc, zw = logit_rows(params, s, u, lo, hi)
        context = shift_context(dims, context, prev)
        for _, cbase, wbase in maxent_bases(dims, context):
            zc = zc + params.me_class[(cbase + np.arange(dims.class_count))
                                      % dims.maxent_hash_size]
            zw = zw + params.me_word[(wbase + np.arange(lo, hi)) % dims.maxent_hash_size]
        nll += -np.log(softmax(zc)[:, g]) - np.log(softmax(zw)[:, target - lo])
        prev = target
    return nll[inverse.reshape(-1)]


def sentence_forward(params, v, sent, vocab_classes):
    """The whole trace of ``forward_steps`` at fixed weights."""
    for _, tr in forward_steps(params, v, sent, vocab_classes):
        pass
    return tr


def sentence_loss(params, v, sent, lam_recon, vocab_classes, recon_kind="ce"):
    """Joint loss of one sentence from a fresh state.

    Returns the total and the per-step list; each step contributes the
    negative log-likelihood of its target word plus ``lam_recon`` times the
    feature reconstruction error (full variant only).
    """
    if not sent.ids or sent.ids[-1] != vocab_classes.eos_id:
        raise ValueError("sentence must be nonempty and end with <eos>")
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
    the recorded one raise ValueError naming the path. Files written before
    the checksum existed have no ``payload_sha256`` and load unchecked.
    """
    from .corpus import ClassedVocabulary

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
        blocks = {}
        for b in meta["blocks"]:
            chunk = payload[b["offset"]:b["offset"] + b["nbytes"]]
            need = 8 * math.prod(b["shape"])
            if len(chunk) != need:
                raise ValueError(f"block {b['name']} has {len(chunk)} payload bytes, "
                                 f"its shape needs {need}")
            blocks[b["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(b["shape"]).copy()
        digest = meta.get("payload_sha256")
        if digest is not None and hashlib.sha256(payload).hexdigest() != digest:
            raise ValueError("payload sha256 does not match the recorded one")
        vocab = ClassedVocabulary.from_dict(meta["vocab"])
        if vocab.content_hash() != meta["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad checkpoint ({type(exc).__name__}: {exc})") from exc
    return ModelParams(dims, blocks), vocab, meta
