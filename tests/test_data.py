"""Loader, vocabulary, batching, and synthetic-generator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import expected_label_distribution, oracle_labels
from seqtag.data import (
    BOUNDARY,
    PAD,
    UNK,
    ColumnSpec,
    SyntheticSpec,
    TaggedSentence,
    Vocabulary,
    bucket_batches,
    build_vocabularies,
    encode_corpus,
    load_conll,
    make_synthetic_corpus,
    most_frequent_baseline,
    stream_chunks,
    token_stream,
    window_offsets,
    write_conll,
)
from seqtag.errors import ConfigError, IngestionError, VocabMismatchError
from seqtag.metrics import token_accuracy
from seqtag.rng import SplitMix64


class TestLoadConll:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "toy.conll"
        path.write_text("le\tB-cmd\nprix\tI-cmd\n", encoding="utf-8")
        sents = load_conll(path)
        assert len(sents) == 1
        assert sents[0].tokens == ["le", "prix"]
        assert sents[0].labels == ["B-cmd", "I-cmd"]

    def test_trailing_blank_lines_do_not_add_sentences(self, tmp_path):
        base = "a\tO\nb\tO\n\nc\tO\n"
        p1 = tmp_path / "plain.conll"
        p2 = tmp_path / "trailing.conll"
        p1.write_text(base, encoding="utf-8")
        p2.write_text(base + "\n\n\n", encoding="utf-8")
        assert len(load_conll(p1)) == len(load_conll(p2)) == 2

    def test_crlf_and_space_separated(self, tmp_path):
        path = tmp_path / "crlf.conll"
        path.write_bytes(b"a  O\r\nb\tO\r\n\r\nc O\r\n")
        sents = load_conll(path)
        assert [s.tokens for s in sents] == [["a", "b"], ["c"]]

    def test_ragged_columns_name_line_number(self, tmp_path):
        path = tmp_path / "ragged.conll"
        path.write_text("a\tO\nb\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=":2:"):
            load_conll(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.conll"
        path.write_text("", encoding="utf-8")
        assert load_conll(path) == []

    def test_loader_is_order_preserving_and_idempotent(self, tmp_path):
        path = tmp_path / "ord.conll"
        path.write_text("x\tO\n\ny\tB-a\n\nz\tO\n", encoding="utf-8")
        first = load_conll(path)
        second = load_conll(path)
        assert [s.tokens for s in first] == [["x"], ["y"], ["z"]]
        assert [s.tokens for s in first] == [s.tokens for s in second]
        assert [s.labels for s in first] == [s.labels for s in second]

    def test_feature_columns_and_unlabeled_spec(self, tmp_path):
        path = tmp_path / "feat.conll"
        path.write_text("paris\tCITY\tB-loc\n", encoding="utf-8")
        spec = ColumnSpec(token=0, features=(1,), label=2)
        sent = load_conll(path, spec)[0]
        assert sent.features == [["CITY"]]
        assert sent.labels == ["B-loc"]
        unlabeled = load_conll(path, ColumnSpec(token=0, label=None))[0]
        assert unlabeled.labels is None


class TestVocabulary:
    def _vocabs(self):
        train = [
            TaggedSentence(tokens=["a", "b", "a"], labels=["O", "B-x", "O"]),
            TaggedSentence(tokens=["c", "a"], labels=["O", "O"]),
        ]
        return train, build_vocabularies(train, min_count=1)

    def test_reserved_ids(self):
        _, vocabs = self._vocabs()
        assert vocabs.word.lookup("<pad>") == PAD
        assert vocabs.word.lookup("never-seen") == UNK
        assert vocabs.label.string(BOUNDARY) == "<bnd>"

    def test_round_trip_known_strings(self):
        _, vocabs = self._vocabs()
        for s in vocabs.word.strings:
            assert vocabs.word.string(vocabs.word.lookup(s)) == s

    def test_min_count_one_gives_zero_train_oov(self):
        train, vocabs = self._vocabs()
        for sent in train:
            assert all(vocabs.word.lookup(t) != UNK for t in sent.tokens)

    def test_min_count_folds_rare_words(self):
        train, _ = self._vocabs()
        vocabs = build_vocabularies(train, min_count=2)
        assert vocabs.word.lookup("a") != UNK  # occurs 3 times
        assert vocabs.word.lookup("b") == UNK  # occurs once

    def test_label_only_in_dev_is_a_mismatch(self):
        train, vocabs = self._vocabs()
        dev = [TaggedSentence(tokens=["a"], labels=["B-new"])]
        with pytest.raises(VocabMismatchError):
            encode_corpus(dev, vocabs)

    def test_encode_round_trip(self):
        train, vocabs = self._vocabs()
        (enc,) = encode_corpus(train[:1], vocabs)
        back = [vocabs.word.string(int(i)) for i in enc.word_ids]
        assert back == train[0].tokens

    def test_engineered_oov_rate(self):
        # all-filler corpus with a 20% reserved-pool rate on held-out splits
        spec = SyntheticSpec(
            n_train=300, n_dev=50, n_test=300, phrase_prob=0.0,
            n_filler_types=40, unseen_filler_rate=0.2,
        )
        train, _, test = make_synthetic_corpus(spec, seed=11)
        vocabs = build_vocabularies(train, min_count=1)
        total = oov = 0
        for sent in test:
            for tok in sent.tokens:
                total += 1
                oov += vocabs.word.lookup(tok) == UNK
        rate = oov / total
        sigma = math.sqrt(0.2 * 0.8 / total)
        assert abs(rate - 0.2) < 4 * sigma


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared between two implementations
        return type(exc), str(exc)


@st.composite
def _split(draw, words, chars, labels, n_feats, values):
    """Sentences over `words` (plus tokens of unseen `chars` when given),
    gold `labels`, or none where the list holds None."""
    pool = st.sampled_from(words)
    if chars:
        pool = st.one_of(pool, st.text(st.sampled_from(chars), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 7))
        tokens = draw(st.lists(pool, min_size=n, max_size=n))
        label = draw(st.sampled_from(labels))
        out.append(TaggedSentence(
            tokens=tokens,
            features=[draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
                      for _ in range(n_feats)],
            labels=None if label is None else draw(
                st.lists(st.sampled_from(label), min_size=n, max_size=n)),
        ))
    return out


class TestSetUpAgainstPerTokenWalk:
    """`build_vocabularies` counts once and adds each distinct token, and
    `encode_corpus` looks each one up once: both against the walk over
    every token in `oracle`, id for id and error for error."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           words=st.lists(st.text(st.sampled_from("abé中ß\U0001F600"), min_size=1, max_size=4),
                          min_size=1, max_size=8, unique=True),
           min_count=st.integers(1, 3), n_feats=st.integers(0, 2),
           unknown_label=st.booleans())
    def test_same_ids_in_the_same_order(self, data, words, min_count, n_feats, unknown_label):
        tags = ["O", "B-x", "I-x", "B-ü"]
        values = ["NN", "VB", "Äj"]
        train = data.draw(_split(words, "", [tags], n_feats, values))
        heldout_tags = [tags, None] + ([tags + ["B-new"]] if unknown_label else [])
        heldout = data.draw(_split(words, "qzé✓\U0001F600", heldout_tags, n_feats, values + ["RB"]))
        vocabs = build_vocabularies(train, min_count)
        want = oracle.build_vocabularies(train, min_count)
        for got_v, want_v in zip([vocabs.word, vocabs.char, vocabs.label, *vocabs.feats],
                                 [want.word, want.char, want.label, *want.feats]):
            assert got_v.strings == want_v.strings
        assert len(vocabs.feats) == len(want.feats) == n_feats
        for split in (train, heldout, train + heldout):
            got, expected = _outcome(encode_corpus, split, vocabs), _outcome(oracle.encode_corpus, split, want)
            if isinstance(expected, tuple):
                assert expected[0] is VocabMismatchError
                assert got == expected
                continue
            assert isinstance(got, list) and len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g.tokens == e.tokens
                assert g.char_ids == e.char_ids
                assert g.word_ids.dtype == e.word_ids.dtype == np.int64
                np.testing.assert_array_equal(g.word_ids, e.word_ids)
                assert len(g.feat_ids) == len(e.feat_ids)
                for gf, ef in zip(g.feat_ids, e.feat_ids):
                    assert gf.dtype == np.int64
                    np.testing.assert_array_equal(gf, ef)
                if e.label_ids is None:
                    assert g.label_ids is None
                else:
                    assert g.label_ids.dtype == np.int64
                    np.testing.assert_array_equal(g.label_ids, e.label_ids)

    def test_unseen_words_and_characters_are_unknown(self):
        train = [TaggedSentence(tokens=["ab", "ab", "c"], labels=["O", "O", "O"])]
        vocabs = build_vocabularies(train, min_count=2)
        (enc,) = encode_corpus([TaggedSentence(tokens=["ab", "c", "aé"])], vocabs)
        assert enc.word_ids.tolist() == [2, UNK, UNK]
        assert enc.char_ids == ((2, 3), (4,), (2, UNK))
        assert enc.label_ids is None

    def test_an_empty_corpus_encodes_to_nothing(self):
        vocabs = build_vocabularies([TaggedSentence(tokens=["a"], labels=["O"])])
        assert encode_corpus([], vocabs) == []


class TestStreamChunks:
    def _encode(self, token_lists):
        sents = [
            TaggedSentence(tokens=list(toks), labels=["O"] * len(toks)) for toks in token_lists
        ]
        vocabs = build_vocabularies(sents)
        return encode_corpus(sents, vocabs)

    def test_three_tokens_chunk_two_gives_offsets_012(self):
        batches = stream_chunks(self._encode([["a", "b", "c"]]), chunk_len=2)
        assert [b.origin for b in batches] == ["chunk@0", "chunk@1", "chunk@2"]
        assert [len(b.window) for b in batches] == [2, 2, 1]

    def test_chunk_at_least_stream_gives_one_window(self):
        enc = self._encode([["a", "b", "c"]])
        assert len(stream_chunks(enc, chunk_len=3)) == 1
        assert len(stream_chunks(enc, chunk_len=10)) == 1

    def test_chunk_len_below_two_rejected(self):
        with pytest.raises(ConfigError):
            stream_chunks(self._encode([["a"]]), chunk_len=1)

    def test_window_count_oracle_random_lengths(self):
        # expected appearances of element t, derived from the emission rule:
        # full windows start in [max(0, t-C+1), min(t, L-C)], the single
        # trailing partial starts at L-C+1
        rng = SplitMix64(3)
        for _ in range(30):
            length = 3 + rng.randint(40)
            chunk = 2 + rng.randint(8)
            tokens = [f"w{i}" for i in range(length)]
            batches = stream_chunks(self._encode([tokens]), chunk_len=chunk)
            counts = {i: 0 for i in range(length)}
            for b in batches:
                offset = int(b.origin.split("@")[1])
                for i in range(offset, offset + len(b.window)):
                    counts[i] += 1
            for t in range(length):
                if length <= chunk:
                    expected = 1
                else:
                    expected = min(t, length - chunk + 1) - max(0, t - chunk + 1) + 1
                assert counts[t] == expected, (length, chunk, t)
            # interior elements appear in exactly chunk windows
            if length > 2 * chunk:
                for t in range(chunk - 1, length - chunk):
                    assert counts[t] == min(chunk, length)

    def test_every_token_covered_and_stream_reconstructs(self):
        enc = self._encode([["a", "b"], ["c", "d", "e"], ["f"]])
        stream = token_stream(enc)
        batches = stream_chunks(enc, chunk_len=3)
        covered = set()
        for b in batches:
            offset = int(b.origin.split("@")[1])
            covered.update(range(offset, offset + len(b.window)))
        assert covered == set(range(len(stream)))
        rebuilt = [b.window[0] for b in batches[:-1]] + list(batches[-1].window)
        assert rebuilt == stream

    def test_fragments_reset_at_sentence_boundaries(self):
        enc = self._encode([["a", "b"], ["c"]])
        # window across the boundary splits into two fragments
        batches = stream_chunks(enc, chunk_len=4)
        assert len(batches) == 1
        frags = batches[0].sentences
        assert [f.tokens for f in frags] == [("a", "b"), ("c",)]

    def test_every_token_in_some_batch(self):
        enc = self._encode([["a", "b", "c"], ["d", "e"]])
        batches = stream_chunks(enc, chunk_len=3)
        seen = set()
        for b in batches:
            for frag in b.sentences:
                seen.update(frag.tokens)
        assert seen == {"a", "b", "c", "d", "e"}


class TestBucketBatches:
    def _encode(self, lengths):
        sents = [
            TaggedSentence(tokens=[f"s{i}t{j}" for j in range(n)], labels=["O"] * n)
            for i, n in enumerate(lengths)
        ]
        vocabs = build_vocabularies(sents)
        return encode_corpus(sents, vocabs)

    def test_equal_lengths_split_by_arithmetic(self):
        batches = bucket_batches(self._encode([5] * 6), max_tokens_per_batch=10)
        assert len(batches) == 3
        assert all(len(b) == 2 for b in batches)

    def test_partition_multiset_equality(self):
        rng = SplitMix64(9)
        lengths = [1 + rng.randint(7) for _ in range(40)]
        enc = self._encode(lengths)
        batches = bucket_batches(enc, max_tokens_per_batch=12)
        emitted = sorted(tok for b in batches for s in b.sentences for tok in s.tokens)
        original = sorted(tok for s in enc for tok in s.tokens)
        assert emitted == original

    def test_token_sum_matches(self):
        rng = SplitMix64(10)
        lengths = [1 + rng.randint(9) for _ in range(60)]
        enc = self._encode(lengths)
        batches = bucket_batches(enc, max_tokens_per_batch=15)
        assert sum(b.n_tokens for b in batches) == sum(lengths)

    def test_no_mixed_lengths_within_batch(self):
        enc = self._encode([2, 3, 2, 3, 3])
        for batch in bucket_batches(enc, max_tokens_per_batch=6):
            assert len({len(s) for s in batch.sentences}) == 1

    def test_oversized_sentence_named_in_error(self):
        enc = self._encode([3, 9])
        with pytest.raises(ConfigError, match="9 tokens"):
            bucket_batches(enc, max_tokens_per_batch=8)


class TestSyntheticCorpus:
    def test_same_seed_same_corpora(self):
        spec = SyntheticSpec(n_train=40, n_dev=10, n_test=10)
        a = make_synthetic_corpus(spec, seed=5)
        b = make_synthetic_corpus(spec, seed=5)
        for split_a, split_b in zip(a, b):
            assert [s.tokens for s in split_a] == [s.tokens for s in split_b]
            assert [s.labels for s in split_a] == [s.labels for s in split_b]

    def test_different_seed_differs(self):
        spec = SyntheticSpec(n_train=40, n_dev=10, n_test=10)
        a = make_synthetic_corpus(spec, seed=5)
        b = make_synthetic_corpus(spec, seed=6)
        assert [s.tokens for s in a[0]] != [s.tokens for s in b[0]]

    def test_label_distribution_matches_spec(self):
        spec = SyntheticSpec(n_train=2000, n_dev=1, n_test=1)
        train, _, _ = make_synthetic_corpus(spec, seed=13)
        counts: dict[str, int] = {}
        total = 0
        for sent in train:
            for lab in sent.labels:
                counts[lab] = counts.get(lab, 0) + 1
                total += 1
        expected = expected_label_distribution(spec)
        assert abs(sum(expected.values()) - 1.0) < 1e-12
        for lab, p in expected.items():
            observed = counts.get(lab, 0) / total
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(observed - p) < 5 * sigma, (lab, observed, p)

    def test_oracle_is_exact_and_baseline_needs_context(self):
        spec = SyntheticSpec(n_train=800, n_dev=100, n_test=300)
        train, _, test = make_synthetic_corpus(spec, seed=21)
        gold = [s.labels for s in test]
        oracle = [oracle_labels(s.tokens, spec) for s in test]
        assert token_accuracy(gold, oracle) == 1.0
        baseline = most_frequent_baseline(train)
        base_acc = token_accuracy(gold, [baseline(s) for s in test])
        assert base_acc < 0.90

    def test_round_trip_through_files(self, tmp_path):
        spec = SyntheticSpec(n_train=50, n_dev=5, n_test=5, emit_class_feature=True)
        train, _, _ = make_synthetic_corpus(spec, seed=2)
        path = tmp_path / "train.conll"
        write_conll(path, train)
        reloaded = load_conll(path, ColumnSpec(token=0, features=(1,), label=2))
        assert len(reloaded) == len(train)
        assert sum(len(s) for s in reloaded) == sum(len(s) for s in train)
        for a, b in zip(train, reloaded):
            assert a.tokens == b.tokens
            assert a.labels == b.labels
            assert a.features == b.features

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(min_units=5, max_units=2).validate()
        with pytest.raises(ConfigError):
            SyntheticSpec(phrase_prob=1.5).validate()


def test_window_offsets_rule():
    assert window_offsets(3, 2) == [0, 1, 2]
    assert window_offsets(3, 3) == [0]
    assert window_offsets(2, 5) == [0]
    assert window_offsets(10, 4) == list(range(8))
