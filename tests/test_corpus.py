import itertools
import json

import numpy as np
import pytest

from bicap import corpus
from bicap.corpus import (EOS, UNK, build_vocab, encode, generate_synthetic,
                          load_dataset, partition_by_mass, synthetic_records,
                          tokenize, write_dataset_file)
from bicap.numkit import SeededRng

from conftest import class_of, class_range


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_sentence():
    assert tokenize("A man riding a horse.") == ["a", "man", "riding", "a", "horse", "."]


def test_tokenize_hyphens_and_punctuation():
    assert tokenize("Black-and-white TV!") == ["black", "-", "and", "-", "white", "tv", "!"]


def _brute_force_best_spread(masses, k):
    """Minimal max-minus-min class mass over all contiguous partitions."""
    n = len(masses)
    best = float("inf")
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = list(cuts) + [n]
        starts = [0] + list(cuts)
        sums = [sum(masses[s:e]) for s, e in zip(starts, bounds)]
        best = min(best, max(sums) - min(sums))
    return best


def test_partition_equal_mass_example():
    # counts {a:8, b:4, c:2, d:2} split into two classes of mass 8 | 8
    assert partition_by_mass([8, 4, 2, 2], 2) == [1, 4]


def test_partition_matches_brute_force_on_small_cases():
    rng = SeededRng(5)
    for _ in range(40):
        n = rng.integers(4, 12)
        k = rng.integers(2, min(n, 5) + 1)
        masses = sorted((rng.integers(1, 40) for _ in range(n)), reverse=True)
        bounds = partition_by_mass(masses, k)
        assert bounds[-1] == len(masses)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        starts = [0] + bounds[:-1]
        sums = [sum(masses[s:e]) for s, e in zip(starts, bounds)]
        spread = max(sums) - min(sums)
        # greedy + boundary repair is a heuristic; it must stay close to
        # the exhaustive optimum
        assert spread <= 1.5 * _brute_force_best_spread(masses, k) + 1e-9


def test_build_vocab_partitions_ids_exactly():
    sentences = [tokenize(t) for t in
                 ["a cat sat", "a dog sat on a mat", "the cat and the dog"]]
    vocab = build_vocab(sentences, class_count=3)
    seen = []
    for c in range(vocab.n_classes):
        lo, hi = class_range(vocab, c)
        seen.extend(range(lo, hi))
    assert seen == list(range(len(vocab)))
    for i in range(len(vocab)):
        c = class_of(vocab, i)
        lo, hi = class_range(vocab, c)
        assert lo <= i < hi
        assert vocab.id_class[i] == c
        assert (vocab.class_starts[c], vocab.class_bounds[c]) == (lo, hi)


@pytest.mark.parametrize("bounds, message", [
    ([2, 2, 5], "strictly"),
    ([3, 1, 5], "strictly"),
    ([0, 5], "strictly"),
    ([], "strictly"),
    ([2, 4], "not at the token count 5"),
    ([2, 6], "not at the token count 5"),
], ids=["repeated", "decreasing", "empty_first", "no_classes", "short", "long"])
def test_vocab_rejects_bad_class_bounds(bounds, message):
    tokens = [EOS, UNK, "a", "b", "c"]
    with pytest.raises(ValueError, match=message):
        corpus.ClassedVocabulary(tokens, [3, 2, 2, 1, 1], bounds)


@pytest.mark.parametrize("tokens, counts, message", [
    ([EOS, UNK, "a", "b"], [3, 2], "2 counts for 4 tokens"),
    ([EOS, UNK, "a", "b"], [3, 2, 2, 1, 1], "5 counts for 4 tokens"),
    ([EOS, UNK, "a", "a"], [3, 2, 2, 1], "token 'a' appears more than once"),
], ids=["short_counts", "extra_counts", "repeated_token"])
def test_vocab_rejects_mismatched_counts_and_repeated_tokens(tokens, counts, message):
    # counts past the tokens, or tokens past the counts, would never reach
    # content_hash, and a repeated token would silently take its last id
    with pytest.raises(ValueError, match=message):
        corpus.ClassedVocabulary(tokens, counts, [2, 4])


@pytest.mark.parametrize("missing", [EOS, UNK])
def test_vocab_without_reserved_token_names_it(missing):
    tokens = [t for t in (EOS, UNK, "a", "b") if t != missing]
    with pytest.raises(ValueError, match=f"lack the reserved token {missing}"):
        corpus.ClassedVocabulary(tokens, [1] * len(tokens), [len(tokens)])


def test_build_vocab_single_word_corpus():
    vocab = build_vocab([["hello"], ["hello"]])
    assert sorted(vocab.tokens) == sorted(["hello", EOS, UNK])


def test_build_vocab_min_count_folds_to_unk():
    sentences = [["common", "common", "rare"], ["common"]]
    vocab = build_vocab(sentences, min_count=2)
    assert "rare" not in vocab.token_to_id
    assert vocab.counts[vocab.unk_id] == 1
    enc = encode(["rare"], vocab)
    assert enc.ids[0] == vocab.unk_id


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([])


@pytest.mark.parametrize("kwargs, message", [
    (dict(class_count=0), "class_count must be >= 1"),
    (dict(min_count=0), "min_count must be >= 1"),
])
def test_build_vocab_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_vocab([["a", "b"]], **kwargs)


def test_partition_of_no_masses_rejected():
    with pytest.raises(ValueError, match="cannot partition an empty mass list"):
        partition_by_mass([], 2)


def test_equal_mass_classing_on_zipf_corpora():
    # random Zipf-like corpora; the heaviest class carries at most twice
    # the mass of the lightest
    rng = SeededRng(11)
    for trial in range(6):
        k = 2 + trial % 5
        n_words = 8 * k + rng.integers(0, 4 * k)
        exponent = 0.8 + 0.4 * rng.random()
        counts = [max(1, int(1000 / (i + 1) ** exponent)) for i in range(n_words)]
        stream = [w for i, c in enumerate(counts) for w in [f"w{i}"] * c]
        rng.shuffle(stream)
        sentences = [stream[i:i + 10] for i in range(0, len(stream), 10)]
        vocab = build_vocab(sentences, class_count=k)
        total = vocab.counts.sum()
        masses = []
        for c in range(vocab.n_classes):
            lo, hi = class_range(vocab, c)
            masses.append(vocab.counts[lo:hi].sum() / total)
        assert max(masses) <= 2.0 * min(masses) + 1e-12, (k, n_words, masses)


def decode(sentence, vocab):
    """Token strings for an encoded sentence, excluding the trailing <eos>."""
    return [vocab.tokens[i] for i in sentence.ids if i != vocab.eos_id]


def test_encode_empty_and_round_trip():
    vocab = build_vocab([["a", "b"], ["b", "c"]])
    assert encode([], vocab).ids == [vocab.eos_id]
    sent = encode(["b", "a", "c"], vocab)
    assert sent.ids[-1] == vocab.eos_id
    assert decode(sent, vocab) == ["b", "a", "c"]


def test_encode_oov_maps_to_unk():
    vocab = build_vocab([["a", "b"]])
    sent = encode(["zzz", "a"], vocab)
    assert sent.ids[0] == vocab.unk_id
    assert sent.ids[1] == vocab.token_to_id["a"]


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _records3():
    return [
        {"id": "r1", "features": [2.0, 0.0, 1.0], "captions": ["a cat here"], "split": "train"},
        {"id": "r2", "features": [4.0, 0.0, 0.5], "captions": ["a dog here", "the dog"], "split": "train"},
        {"id": "r3", "features": [1.0, 0.0, 2.0], "captions": ["a cat again"], "split": "test"},
    ]


def test_load_dataset_fixture(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, _records3())
    ds = load_dataset(path)
    assert len(ds.examples) == 3
    assert ds.feature_dim == 3
    # per-dim train max = [4, 0, 1]; zero-max dimension passes through as zero
    assert np.allclose(ds.norm_max, [4.0, 0.0, 1.0])
    ex1 = ds.examples[0]
    assert np.allclose(ex1.features, [0.5, 0.0, 1.0])
    # the test record clips at 1 where it exceeds the train max
    assert np.allclose(ds.examples[2].features, [0.25, 0.0, 1.0])
    assert all(0.0 <= f <= 1.0 for ex in ds.examples for f in ex.features)


def test_load_dataset_dim_mismatch_names_line(tmp_path):
    recs = _records3()
    recs[2]["features"] = [1.0, 2.0]
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, recs)
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 3: record 'r3' has feature dim 2"):
        load_dataset(path)


def test_load_dataset_duplicate_id_names_file_and_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    _write_jsonl(path, [
        {"id": "a", "features": [1.0], "captions": ["a cat"], "split": "train"},
        {"id": "a", "features": [2.0], "captions": ["a dog"], "split": "valid"},
    ])
    with pytest.raises(ValueError, match=r"dup\.jsonl: line 2: duplicate example id 'a' "
                                         r"\(first on line 1\)"):
        load_dataset(path)


def test_load_dataset_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "r1", "features": [1], "captions": ["x"], "split": "train"}\n{oops\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 2: invalid JSON"):
        load_dataset(path)


def test_load_dataset_missing_field_and_bad_split(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "r1", "features": [1], "split": "train"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 1: missing field 'captions'"):
        load_dataset(path)
    path.write_text('{"id": "r1", "features": [1], "captions": ["x"], "split": "dev"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 1: split"):
        load_dataset(path)
    path.write_text('\n[1, 2]\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl: line 2: record is not an object"):
        load_dataset(path)
    path.write_text('\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl: dataset file contains no records"):
        load_dataset(path)


@pytest.mark.parametrize("field, value, message", [
    ("features", [[1.0, 2.0, 3.0]], "features must be a flat nonempty array"),
    ("features", [], "features must be a flat nonempty array"),
    ("features", [1.0, -0.5, 0.0], "features must be finite and nonnegative"),
    ("features", [1.0, float("nan"), 0.0], "features must be finite and nonnegative"),
    ("features", [float("inf"), 0.0, 0.0], "features must be finite and nonnegative"),
    ("features", {"a": 1.0}, "features must be an array of numbers"),
    ("features", "abc", "features must be an array of numbers"),
    ("captions", ["a cat", 3], "captions must be a nonempty list of strings"),
    ("captions", "a cat", "captions must be a nonempty list of strings"),
    ("captions", [], "captions must be a nonempty list of strings"),
    # JSON types that loaded before: bools as 0 and 1, numeric strings as their
    # numbers, and ids as str(id); an integer beyond float64 raised OverflowError
    ("features", [True, False, True], "features must be an array of numbers"),
    ("features", ["4", "0", "0.5"], "features must be an array of numbers"),
    ("features", [10 ** 400, 0, 0], "features must be an array of numbers"),
    ("id", None, "id must be a string or an integer, got None"),
    ("id", [1], r"id must be a string or an integer, got \[1\]"),
    ("id", True, "id must be a string or an integer, got True"),
    ("id", {"a": 1}, "id must be a string or an integer"),
], ids=["nested", "empty", "negative", "nan", "inf", "object", "string", "not_string", "not_list",
        "no_captions", "bools", "numeric_strings", "int_beyond_float64", "id_null", "id_list",
        "id_bool", "id_object"])
def test_load_dataset_bad_record_field_names_line(tmp_path, field, value, message):
    recs = _records3()
    recs[1][field] = value
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, recs)   # json writes NaN and Infinity, which it reads back
    with pytest.raises(ValueError, match=rf"bad\.jsonl: line 2: {message}"):
        load_dataset(path)


def test_integer_id_loads_as_its_string(tmp_path):
    recs = _records3()
    recs[1]["id"] = 5
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, recs)
    assert [ex.id for ex in load_dataset(path).examples] == ["r1", "5", "r3"]


def test_dataset_without_train_records_is_rejected(tmp_path):
    # normalization and the vocabulary both come from the train split
    recs = [dict(r, split="valid") for r in _records3()]
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, recs)
    with pytest.raises(ValueError, match="no train records to derive the normalization"):
        load_dataset(path)
    with pytest.raises(ValueError, match="no train records to derive the normalization"):
        write_dataset_file(recs, path)
    write_dataset_file(_records3(), path)   # a manifest supplies the normalization
    _write_jsonl(path, recs)
    with pytest.raises(ValueError, match="no train captions to build a vocabulary"):
        load_dataset(path)
    assert len(load_dataset(path, vocab=build_vocab([["a", "cat"]])).examples) == 3


def test_writing_an_empty_dataset_is_refused(tmp_path):
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError, match="refusing to write an empty dataset"):
        write_dataset_file([], path)
    assert list(tmp_path.iterdir()) == []


def test_normalization_idempotent(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, _records3())
    ds = load_dataset(path)
    renorm = tmp_path / "renorm.jsonl"
    records = [{"id": ex.id, "features": [float(f) for f in ex.features],
                "captions": [" ".join(c.tokens) for c in ex.captions],
                "split": ex.split} for ex in ds.examples]
    _write_jsonl(renorm, records)
    ds2 = load_dataset(renorm)
    for a, b in zip(ds.examples, ds2.examples):
        assert np.array_equal(a.features, b.features)


def test_write_dataset_file_manifest_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
    assert manifest["feature_dim"] == 3
    assert manifest["per_dim_max"] == [4.0, 0.0, 1.0]
    ds = load_dataset(path)
    assert len(ds.examples) == 3


def test_manifest_dim_mismatch_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["feature_dim"] = 7
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="feature_dim"):
        load_dataset(path)


@pytest.mark.parametrize("per_dim_max", [[2.0], [4.0, 0.0], [4.0, 0.0, 1.0, 1.0]])
def test_manifest_per_dim_max_length_rejected(tmp_path, per_dim_max):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["per_dim_max"] = per_dim_max
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="per_dim_max") as info:
        load_dataset(path)
    assert str(manifest_file) in str(info.value)


@pytest.mark.parametrize("per_dim_max", [[float("nan"), 0.0, 1.0], [4.0, float("inf"), 1.0],
                                         [4.0, 0.0, float("-inf")], [4.0, -1.0, 1.0]])
def test_manifest_per_dim_max_nonfinite_or_negative_rejected(tmp_path, per_dim_max):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest["per_dim_max"] = per_dim_max
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="per_dim_max") as info:
        load_dataset(path)
    assert str(manifest_file) in str(info.value)


@pytest.mark.parametrize("field", ["feature_dim", "per_dim_max"])
def test_manifest_missing_field_rejected(tmp_path, field):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    del manifest[field]
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=field) as info:
        load_dataset(path)
    assert str(manifest_file) in str(info.value)


@pytest.mark.parametrize("field, value, message", [
    ("feature_dim", "three", "feature_dim is not an integer"),
    ("feature_dim", None, "feature_dim is not an integer"),
    ("per_dim_max", ["a", 0.0, 1.0], "per_dim_max is not a list of numbers"),
    ("per_dim_max", [4.0, None, 1.0], "per_dim_max holds nan"),
    ("per_dim_max", [4.0, [0.0], 1.0], "per_dim_max is not a list of numbers"),
    ("per_dim_max", [10 ** 400, 0.0, 1.0], "per_dim_max is not a list of numbers"),
    # int() read 3.9, 3.0 and "3" as the data's dim 3, so they loaded, and true as 1
    ("feature_dim", 3.9, "feature_dim is not an integer, got 3.9"),
    ("feature_dim", 3.0, "feature_dim is not an integer, got 3.0"),
    ("feature_dim", "3", "feature_dim is not an integer, got '3'"),
    ("feature_dim", True, "feature_dim is not an integer, got True"),
])
def test_manifest_non_numeric_field_rejected(tmp_path, field, value, message):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest = json.loads(manifest_file.read_text())
    manifest[field] = value
    manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=message) as info:
        load_dataset(path)
    assert str(manifest_file) in str(info.value)


def test_dataset_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "data.jsonl"
    _write_jsonl(path, _records3())
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"dog", b"d\xffg", 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r"data\.jsonl: line 2: not UTF-8 \(.*0xff"):
        load_dataset(path)


def test_manifest_invalid_json_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset_file(_records3(), path)
    manifest_file = tmp_path / "data.jsonl.manifest.json"
    manifest_file.write_text(manifest_file.read_text()[:-5])
    with pytest.raises(ValueError, match="invalid JSON") as info:
        load_dataset(path)
    assert str(manifest_file) in str(info.value)


def test_synthetic_deterministic():
    a = synthetic_records(8, 40, SeededRng(3))
    b = synthetic_records(8, 40, SeededRng(3))
    assert a == b
    c = synthetic_records(8, 40, SeededRng(4))
    assert a != c


def test_synthetic_shapes():
    ds = generate_synthetic(8, 100, SeededRng(1))
    assert len(ds.examples) == 100
    assert ds.feature_dim == 8
    assert len(ds.split("train")) + len(ds.split("valid")) + len(ds.split("test")) == 100
    assert all(len(ex.captions) == 2 for ex in ds.examples)


def test_synthetic_captions_match_feature_support():
    ds = generate_synthetic(8, 60, SeededRng(2))
    names = corpus.attribute_names(8)
    for ex in ds.examples:
        active = {names[i] for i, bit in enumerate(ex.features) if bit == 1.0}
        assert active, "at least one attribute is always active"
        for cap in ex.captions:
            mentioned = [t for t in cap.tokens if t in set(names)]
            assert sorted(mentioned) == sorted(active)
            assert len(mentioned) == len(set(mentioned))


def test_synthetic_rejects_tiny_attr_count():
    with pytest.raises(ValueError):
        synthetic_records(1, 10, SeededRng(0))


def test_attribute_names_extend_past_the_lexicon():
    # wider synthetic corpora name the attributes past the 24-word lexicon objN
    names = corpus.attribute_names(27)
    assert names[:24] == corpus.ATTRIBUTE_LEXICON
    assert names[24:] == ["obj0", "obj1", "obj2"]
    assert len(set(names)) == 27
    records = synthetic_records(27, 30, SeededRng(6))
    assert all(len(r["features"]) == 27 for r in records)
    for rec in records:
        active = {names[i] for i, bit in enumerate(rec["features"]) if bit}
        for cap in rec["captions"]:
            assert {t for t in tokenize(cap) if t in set(names)} == active


class _CountingRng(SeededRng):
    """A SeededRng that counts its draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self, size=None):
        self.draws += 1
        return super().random(size)

    def integers(self, low, high):
        self.draws += 1
        return super().integers(low, high)

    def shuffle(self, seq):
        self.draws += 1
        super().shuffle(seq)


@pytest.mark.parametrize("kwargs, field", [
    (dict(captions_per_example=0), "captions_per_example"),
    (dict(captions_per_example=-2), "captions_per_example"),
    (dict(split_fractions=(0.9, 0.3, -0.2)), "split_fractions"),
    (dict(split_fractions=(-0.1, 0.6, 0.5)), "split_fractions"),
    (dict(split_fractions=(0.5, 0.2, 0.2)), "split_fractions"),      # sums to 0.9
    (dict(split_fractions=(0.7, 0.3, 1e-8)), "split_fractions"),     # 1e-8 over
    (dict(split_fractions=(0.7, 0.3)), "split_fractions"),
    (dict(split_fractions=(float("nan"), 0.5, 0.5)), "split_fractions"),
    (dict(attr_count=2.5), "attr_count"),
    (dict(attr_count=8.0), "attr_count"),
    (dict(example_count=20.0), "example_count"),
    (dict(example_count=True), "example_count"),
    (dict(captions_per_example=2.0), "captions_per_example"),
])
def test_synthetic_rejects_bad_settings_before_any_draw(kwargs, field):
    rng = _CountingRng(0)
    with pytest.raises(ValueError, match=field):
        synthetic_records(**{"attr_count": 8, "example_count": 20, "rng": rng, **kwargs})
    assert rng.draws == 0


def test_synthetic_accepts_fractions_within_rounding_of_one():
    # 0.65 + 0.15 + 0.2 sums to 1 + 2.2e-16 in floating point
    records = synthetic_records(8, 20, SeededRng(0), split_fractions=(0.65, 0.15, 0.2))
    assert [r["split"] for r in records] == ["train"] * 13 + ["valid"] * 3 + ["test"] * 4
    assert all(len(r["captions"]) == 2 for r in records)


def test_caption_length_counts(tiny_dataset):
    counts = corpus.caption_length_counts(tiny_dataset, "train")
    pairs = tiny_dataset.caption_pairs("train")
    assert sum(counts.values()) == len(pairs)
    assert all(n >= 1 for n in counts)
