"""Text and dataset handling.

Covers the rule-based tokenizer, vocabulary construction with
frequency-based word classes, JSONL dataset ingestion with feature
normalization, and the synthetic captioned-scene generator used for
desk-scale experiments.
"""

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .numkit import is_int

EOS = "<eos>"
UNK = "<unk>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text):
    """Lowercase and split into word tokens and single punctuation tokens.

    Word characters group into runs; every other non-space character
    (including each hyphen) becomes its own token.
    """
    return _TOKEN_RE.findall(text.lower())


def partition_by_mass(masses, class_count):
    """Split a descending-frequency mass list into contiguous groups of
    approximately equal total mass.

    Returns the end index of each group (length ``class_count``, last entry
    ``len(masses)``). Greedy adaptive targets followed by a boundary
    hill-climb that shrinks the max-minus-min group mass.
    """
    masses = np.asarray(masses, dtype=np.float64)
    n = masses.size
    if n == 0:
        raise ValueError("cannot partition an empty mass list")
    k = max(1, min(int(class_count), n))
    prefix = np.concatenate([[0.0], np.cumsum(masses)])
    total = prefix[-1]

    bounds = []
    start = 0
    for j in range(k - 1):
        classes_left = k - j
        target = (total - prefix[start]) / classes_left
        limit = n - (classes_left - 1)  # keep one item per remaining class
        end = start + 1
        while end < limit and (prefix[end] - prefix[start]) < target:
            under = target - (prefix[end] - prefix[start])
            over = (prefix[end + 1] - prefix[start]) - target
            if over >= under:
                break
            end += 1
        bounds.append(end)
        start = end
    bounds.append(n)

    def spread(bs):
        starts = [0] + bs[:-1]
        ms = [prefix[e] - prefix[s] for s, e in zip(starts, bs)]
        return max(ms) - min(ms)

    best = spread(bounds)
    for _ in range(200):
        improved = False
        for bi in range(k - 1):
            for delta in (-1, 1):
                cand = bounds[bi] + delta
                lo = (bounds[bi - 1] if bi > 0 else 0) + 1
                hi = bounds[bi + 1] - 1
                if not lo <= cand <= hi:
                    continue
                trial = list(bounds)
                trial[bi] = cand
                s = spread(trial)
                if s < best - 1e-15:
                    bounds, best, improved = trial, s, True
        if not improved:
            break
    return bounds


class ClassedVocabulary:
    """Token/id maps plus a frequency-based word-class partition.

    Ids are assigned by descending unigram count (ties broken
    lexicographically), so each class is a contiguous id range; the ranges
    are chosen to carry approximately equal probability mass. Class g holds
    the ids [``class_starts[g]``, ``class_bounds[g]``); ``id_class`` maps
    each id to its class. In an output layer's (classes + vocab) logit
    order, ``class_columns[g]`` indexes the logits that class g's words
    read: every class logit, then those of its members. Bounds that do not
    strictly increase to the token count, a repeated token, a count list of
    another length than the tokens and tokens without ``<eos>`` or
    ``<unk>`` raise ValueError.
    """

    def __init__(self, tokens, counts, class_bounds):
        self.tokens = list(tokens)
        self.counts = np.asarray(counts, dtype=np.int64)
        if len(self.counts) != len(self.tokens):
            raise ValueError(f"{len(self.counts)} counts for {len(self.tokens)} tokens")
        bounds = self.class_bounds = np.asarray(class_bounds, dtype=np.int64)
        if not bounds.size or not np.all(np.diff(bounds, prepend=0) > 0):
            raise ValueError(f"class bounds {bounds.tolist()} are not a nonempty, strictly "
                             "increasing list of positive ends")
        if bounds[-1] != len(self.tokens):
            raise ValueError(f"class bounds end at {bounds[-1]}, not at the token "
                             f"count {len(self.tokens)}")
        self.class_starts = np.concatenate(([0], bounds[:-1]))
        self.id_class = np.repeat(np.arange(len(bounds)), bounds - self.class_starts)
        c = len(bounds)
        self.class_columns = [np.concatenate((np.arange(c), np.arange(c + lo, c + hi)))
                              for lo, hi in zip(self.class_starts.tolist(), bounds.tolist())]
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            dup = next(t for i, t in enumerate(self.tokens) if self.token_to_id[t] != i)
            raise ValueError(f"token {dup!r} appears more than once")
        missing = next((t for t in (EOS, UNK) if t not in self.token_to_id), None)
        if missing is not None:
            raise ValueError(f"the tokens lack the reserved token {missing}")
        self.eos_id = self.token_to_id[EOS]
        self.unk_id = self.token_to_id[UNK]

    def __len__(self):
        return len(self.tokens)

    @property
    def n_classes(self):
        return len(self.class_bounds)

    def content_hash(self):
        """Stable hash of tokens, counts and class bounds (checkpoint guard)."""
        h = hashlib.sha256()
        for t, c in zip(self.tokens, self.counts):
            h.update(t.encode("utf-8"))
            h.update(b"\x00")
            h.update(str(int(c)).encode())
            h.update(b"\x01")
        h.update(",".join(str(int(b)) for b in self.class_bounds).encode())
        return h.hexdigest()

    def to_dict(self):
        return {
            "tokens": self.tokens,
            "counts": [int(c) for c in self.counts],
            "class_bounds": [int(b) for b in self.class_bounds],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["tokens"], d["counts"], d["class_bounds"])


def build_vocab(sentences, class_count=None, min_count=1):
    """Build a :class:`ClassedVocabulary` from tokenized sentences.

    Tokens occurring fewer than ``min_count`` times fold into ``<unk>``;
    ``<eos>`` is counted once per sentence. ``class_count`` defaults to
    ceil(sqrt(vocabulary size)).
    """
    if class_count is not None and class_count < 1:
        raise ValueError("class_count must be >= 1")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    sentences = list(sentences)
    if not sentences:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    raw = {}
    for sent in sentences:
        for tok in sent:
            raw[tok] = raw.get(tok, 0) + 1
    kept = {t: c for t, c in raw.items() if c >= min_count}
    dropped = sum(c for t, c in raw.items() if t not in kept)
    kept[EOS] = len(sentences)
    kept[UNK] = kept.get(UNK, 0) + dropped

    entries = sorted(kept.items(), key=lambda tc: (-tc[1], tc[0]))
    tokens = [t for t, _ in entries]
    counts = [c for _, c in entries]
    if class_count is None:
        class_count = math.ceil(math.sqrt(len(tokens)))
    bounds = partition_by_mass(counts, class_count)
    return ClassedVocabulary(tokens, counts, bounds)


@dataclass
class EncodedSentence:
    """Token ids terminated by the <eos> id, plus the source token strings."""

    ids: list
    tokens: list

    def __len__(self):
        return len(self.ids)


def encode(tokens, vocab):
    """Map tokens to ids (unknowns to <unk>) and append <eos>."""
    ids = [vocab.token_to_id.get(t, vocab.unk_id) for t in tokens]
    ids.append(vocab.eos_id)
    return EncodedSentence(ids=ids, tokens=list(tokens))


@dataclass
class CaptionedExample:
    id: str
    features: np.ndarray  # (feature_dim,) in [0, 1]
    captions: list  # list[EncodedSentence], nonempty
    split: str


@dataclass
class Dataset:
    examples: list
    vocab: ClassedVocabulary
    feature_dim: int
    norm_max: np.ndarray  # per-dimension max of raw train features

    def split(self, name):
        return [ex for ex in self.examples if ex.split == name]

    def caption_pairs(self, name):
        """(example, caption) pairs for one split, in file order."""
        return [(ex, cap) for ex in self.split(name) for cap in ex.captions]


SPLITS = ("train", "valid", "test")


def _parse_record(obj, where):
    """Validate one raw record; ``where`` ("<file>: line N") prefixes every
    error."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: record is not an object")
    for key in ("id", "features", "captions", "split"):
        if key not in obj:
            raise ValueError(f"{where}: missing field '{key}'")
    if obj["split"] not in SPLITS:
        raise ValueError(f"{where}: split must be one of {SPLITS}")
    feats = np.asarray(obj["features"], dtype=np.float64)
    if feats.ndim != 1 or feats.size == 0:
        raise ValueError(f"{where}: features must be a flat nonempty array")
    if not np.all(np.isfinite(feats)) or np.any(feats < 0):
        raise ValueError(f"{where}: features must be finite and nonnegative")
    caps = obj["captions"]
    if not isinstance(caps, list) or not caps or not all(isinstance(c, str) for c in caps):
        raise ValueError(f"{where}: captions must be a nonempty list of strings")
    return str(obj["id"]), feats, caps, obj["split"]


def manifest_path(path):
    return str(path) + ".manifest.json"


def _read_manifest(mpath, dim):
    """``per_dim_max`` of a sidecar manifest, checked against the data dim.

    Malformed JSON, a missing field, a ``feature_dim`` other than ``dim``,
    or a ``per_dim_max`` that is not ``dim`` finite values >= 0 raise
    ValueError naming the manifest and the field.
    """
    with open(mpath, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{mpath}: invalid JSON ({exc.msg})") from exc
    for name in ("feature_dim", "per_dim_max"):
        if not isinstance(manifest, dict) or name not in manifest:
            raise ValueError(f"{mpath}: manifest has no {name} field")
    try:
        feature_dim = int(manifest["feature_dim"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{mpath}: feature_dim is not an integer") from exc
    if feature_dim != dim:
        raise ValueError(
            f"{mpath}: feature_dim {manifest['feature_dim']} does not match data dim {dim}"
        )
    try:
        norm_max = np.asarray(manifest["per_dim_max"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{mpath}: per_dim_max is not a list of numbers") from exc
    if norm_max.shape != (dim,):
        raise ValueError(
            f"{mpath}: per_dim_max has shape {norm_max.shape}, feature_dim needs ({dim},)"
        )
    bad = norm_max[~(np.isfinite(norm_max) & (norm_max >= 0))]
    if bad.size:
        raise ValueError(f"{mpath}: per_dim_max holds {bad[0]}; need finite values >= 0")
    return norm_max


def load_dataset(path, vocab=None, class_count=None):
    """Load a JSONL dataset and normalize features to [0, 1].

    Normalization divides each dimension by its maximum over the training
    split (dimensions that never fire pass through as zero; values above
    the training max clip to 1). A sidecar manifest, when present, supplies
    the statistics instead; otherwise they are computed from the train
    records in the file. When ``vocab`` is not supplied one is built from
    the training captions (``class_count`` passes through to it).
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            records.append((_parse_record(obj, f"{path}: line {lineno}"), lineno))
    if not records:
        raise ValueError(f"{path}: dataset file contains no records")

    dim = records[0][0][1].size
    first_line = {}
    for (rid, feats, _, _), lineno in records:
        if rid in first_line:
            raise ValueError(f"{path}: line {lineno}: duplicate example id '{rid}' "
                             f"(first on line {first_line[rid]})")
        first_line[rid] = lineno
        if feats.size != dim:
            raise ValueError(
                f"{path}: line {lineno}: record '{rid}' has feature dim {feats.size}, "
                f"expected {dim}"
            )

    mpath = manifest_path(path)
    norm_max = _read_manifest(mpath, dim) if os.path.exists(mpath) else None
    return _assemble([rec for rec, _ in records], path, vocab, class_count, norm_max)


def _train_max(rows, where):
    """Per-dimension max of the features of the train rows."""
    train_feats = [feats for _, feats, _, split in rows if split == "train"]
    if not train_feats:
        raise ValueError(f"{where}: no train records to derive the normalization from")
    return np.max(np.stack(train_feats), axis=0)


def _assemble(rows, where, vocab=None, class_count=None, norm_max=None):
    """A :class:`Dataset` of (id, features, captions, split) rows with
    features normalized to [0, 1].

    ``norm_max`` defaults to the per-dimension max over the train rows and
    ``vocab`` to one built from the train captions (with ``class_count``);
    ``where`` starts the message of each error.
    """
    if norm_max is None:
        norm_max = _train_max(rows, where)
    if vocab is None:
        train_caps = [tokenize(c) for _, _, caps, split in rows if split == "train" for c in caps]
        if not train_caps:
            raise ValueError(f"{where}: no train captions to build a vocabulary from")
        vocab = build_vocab(train_caps, class_count=class_count)
    denom = np.where(norm_max > 0, norm_max, 1.0)
    examples = [CaptionedExample(id=rid, features=np.clip(feats / denom, 0.0, 1.0),
                                 captions=[encode(tokenize(c), vocab) for c in caps], split=split)
                for rid, feats, caps, split in rows]
    return Dataset(examples=examples, vocab=vocab, feature_dim=norm_max.size, norm_max=norm_max)


def write_dataset_file(records, path):
    """Write raw records (dicts with id/features/captions/split) as JSONL
    plus the sidecar manifest with train-split normalization statistics."""
    records = list(records)
    if not records:
        raise ValueError("refusing to write an empty dataset")
    per_dim_max = _train_max([_parse_record(rec, f"{path}: line {i}")
                              for i, rec in enumerate(records, start=1)], path)

    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    os.replace(tmp, path)
    manifest = {
        "version": 1,
        "feature_dim": per_dim_max.size,
        "per_dim_max": [float(v) for v in per_dim_max],
    }
    mtmp = manifest_path(path) + ".tmp"
    with open(mtmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(mtmp, manifest_path(path))


ATTRIBUTE_LEXICON = [
    "cat", "dog", "tree", "car", "house", "bird", "boat", "chair",
    "horse", "lamp", "table", "fish", "flower", "truck", "bench", "kite",
    "sheep", "clock", "bottle", "plane", "bridge", "piano", "zebra", "drum",
]

_OPENERS = [("there", "is"), ("this", "shows"), ("you", "can", "see"), ("here", "is")]
_CONNECTORS = [("and",), ("with",), ("and", "also"), ("next", "to")]
_DETERMINERS = ("a", "the")

ATTRIBUTE_PROBABILITY = 0.4


def attribute_names(attr_count):
    if attr_count <= len(ATTRIBUTE_LEXICON):
        return ATTRIBUTE_LEXICON[:attr_count]
    extra = [f"obj{i}" for i in range(attr_count - len(ATTRIBUTE_LEXICON))]
    return ATTRIBUTE_LEXICON + extra


def _synthetic_caption(active_names, rng):
    order = list(active_names)
    rng.shuffle(order)
    words = list(_OPENERS[rng.integers(0, len(_OPENERS))])
    for i, name in enumerate(order):
        if i > 0:
            words.extend(_CONNECTORS[rng.integers(0, len(_CONNECTORS))])
        words.append(_DETERMINERS[rng.integers(0, 2)])
        words.append(name)
    words.append(".")
    return " ".join(words)


def synthetic_records(attr_count, example_count, rng, captions_per_example=2,
                      split_fractions=(0.7, 0.15, 0.15)):
    """Raw records for a synthetic captioned-scene dataset.

    Each scene activates attributes independently (probability 0.4,
    redrawn until at least one is active) and every caption mentions each
    active attribute exactly once, in a fresh random order with filler
    words, so recovering the feature vector from a caption requires
    remembering every attribute mentioned so far. ``split_fractions`` are
    the (train, valid, test) shares of the scenes, in that order.

    Bad settings raise ValueError naming the field before any draw: a
    count that is not an integer or is too small (``attr_count`` below 2,
    the others below 1), and split fractions that are not three values
    >= 0 summing to 1 within 1e-9.
    """
    for name, value, least in [("attr_count", attr_count, 2), ("example_count", example_count, 1),
                               ("captions_per_example", captions_per_example, 1)]:
        if not (is_int(value) and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    fractions = tuple(split_fractions)
    # NaN fails both comparisons, so it is rejected too
    if not (len(fractions) == 3 and all(f >= 0 for f in fractions)
            and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ValueError("split_fractions must be three (train, valid, test) fractions "
                         f">= 0 that sum to 1, got {fractions!r}")
    names = attribute_names(attr_count)
    n_train = round(split_fractions[0] * example_count)
    n_valid = round(split_fractions[1] * example_count)

    records = []
    for i in range(example_count):
        while True:
            bits = [1 if rng.random() < ATTRIBUTE_PROBABILITY else 0 for _ in range(attr_count)]
            if any(bits):
                break
        active = [names[j] for j, b in enumerate(bits) if b]
        captions = [_synthetic_caption(active, rng) for _ in range(captions_per_example)]
        split = "train" if i < n_train else ("valid" if i < n_train + n_valid else "test")
        records.append({
            "id": f"scene{i:05d}",
            "features": bits,
            "captions": captions,
            "split": split,
        })
    return records


def generate_synthetic(attr_count, example_count, rng, captions_per_example=2,
                       split_fractions=(0.7, 0.15, 0.15)):
    """In-memory synthetic :class:`Dataset` (see :func:`synthetic_records`)."""
    records = synthetic_records(attr_count, example_count, rng,
                                captions_per_example, split_fractions)
    return _assemble([(r["id"], np.asarray(r["features"], dtype=np.float64), r["captions"],
                       r["split"]) for r in records], "synthetic dataset")


def caption_length_counts(dataset, split="train"):
    """Histogram of caption lengths (token count before <eos>) in a split."""
    counts = {}
    for _, cap in dataset.caption_pairs(split):
        n = len(cap.ids) - 1
        counts[n] = counts.get(n, 0) + 1
    return counts
