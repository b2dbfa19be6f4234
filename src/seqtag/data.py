"""Corpus ingestion, vocabularies, batching, and synthetic task generation.

File format: column files in the usual tagging layout — one token per
line, blank line between sentences, columns separated by tabs or runs of
whitespace.  A column spec picks the token column, optional feature
columns, and the label column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, IngestionError, VocabMismatchError
from .rng import SplitMix64

PAD = 0
UNK = 1
BOUNDARY = 2  # label vocabulary only

_PAD_STR = "<pad>"
_UNK_STR = "<unk>"
_BOUNDARY_STR = "<bnd>"


@dataclass
class ColumnSpec:
    """Which file columns hold tokens, features, and labels.

    Negative indices count from the right; label None means unlabeled input.
    """

    token: int = 0
    features: tuple[int, ...] = ()
    label: int | None = -1


@dataclass
class TaggedSentence:
    tokens: list[str]
    features: list[list[str]] = field(default_factory=list)
    labels: list[str] | None = None
    columns: list[tuple[str, ...]] | None = None  # raw file columns, for re-emission

    def __len__(self):
        return len(self.tokens)

    def validate(self):
        n = len(self.tokens)
        if n == 0:
            raise ContractError("empty sentence")
        if any(tok == "" for tok in self.tokens):
            raise ContractError("empty token string")
        if self.labels is not None and len(self.labels) != n:
            raise ContractError(f"{n} tokens but {len(self.labels)} labels")
        for col in self.features:
            if len(col) != n:
                raise ContractError(f"{n} tokens but {len(col)} feature values")


def load_conll(path, column_spec: ColumnSpec | None = None) -> list[TaggedSentence]:
    """Read a column file into sentences, preserving order.

    Raises IngestionError with a line number on ragged or missing columns.
    An empty file yields an empty list.
    """
    spec = column_spec or ColumnSpec()
    sentences: list[TaggedSentence] = []
    rows: list[tuple[str, ...]] = []
    width: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                if rows:
                    sentences.append(_sentence_from_rows(rows, spec))
                    rows = []
                continue
            cols = tuple(stripped.split())
            if width is None:
                width = len(cols)
            elif len(cols) != width:
                raise IngestionError(
                    f"{path}:{lineno}: ragged columns ({len(cols)} fields, expected {width})"
                )
            for idx in (spec.token, spec.label, *spec.features):
                if idx is None:
                    continue
                if not -len(cols) <= idx < len(cols):
                    raise IngestionError(f"{path}:{lineno}: no column {idx} in {len(cols)} fields")
            rows.append(cols)
    if rows:
        sentences.append(_sentence_from_rows(rows, spec))
    return sentences


def _sentence_from_rows(rows, spec: ColumnSpec) -> TaggedSentence:
    sent = TaggedSentence(
        tokens=[r[spec.token] for r in rows],
        features=[[r[f] for r in rows] for f in spec.features],
        labels=None if spec.label is None else [r[spec.label] for r in rows],
        columns=list(rows),
    )
    sent.validate()
    return sent


def write_conll(path, sentences: list[TaggedSentence], extra_labels=None) -> None:
    """Write sentences back out; `extra_labels` appends one more column."""
    with open(path, "w", encoding="utf-8") as handle:
        for si, sent in enumerate(sentences):
            for ti in range(len(sent)):
                if sent.columns is not None:
                    cols = list(sent.columns[ti])
                else:
                    cols = [sent.tokens[ti]]
                    cols += [col[ti] for col in sent.features]
                    if sent.labels is not None:
                        cols.append(sent.labels[ti])
                if extra_labels is not None:
                    cols.append(extra_labels[si][ti])
                handle.write("\t".join(cols) + "\n")
            handle.write("\n")


class Vocabulary:
    """Bijection between strings and dense ids with reserved entries.

    Id 0 is padding and id 1 the unknown marker; label vocabularies add a
    sequence-boundary entry at id 2.  Unseen strings look up to UNK.
    """

    def __init__(self, with_boundary: bool = False):
        reserved = [_PAD_STR, _UNK_STR] + ([_BOUNDARY_STR] if with_boundary else [])
        self._strings: list[str] = list(reserved)
        self._ids: dict[str, int] = {s: i for i, s in enumerate(reserved)}

    def __len__(self):
        return len(self._strings)

    def __contains__(self, s: str) -> bool:
        return s in self._ids

    def add(self, s: str) -> int:
        got = self._ids.get(s)
        if got is None:
            got = len(self._strings)
            self._ids[s] = got
            self._strings.append(s)
        return got

    def lookup(self, s: str) -> int:
        return self._ids.get(s, UNK)

    def require(self, s: str) -> int:
        got = self._ids.get(s)
        if got is None:
            raise VocabMismatchError(f"label {s!r} missing from the model's label vocabulary")
        return got

    def string(self, i: int) -> str:
        return self._strings[i]

    @property
    def strings(self) -> list[str]:
        return list(self._strings)

    @classmethod
    def from_strings(cls, strings: list[str]) -> "Vocabulary":
        vocab = cls.__new__(cls)
        vocab._strings = list(strings)
        vocab._ids = {s: i for i, s in enumerate(strings)}
        return vocab


@dataclass
class VocabSet:
    word: Vocabulary
    char: Vocabulary
    label: Vocabulary
    feats: list[Vocabulary] = field(default_factory=list)


def build_vocabularies(train: list[TaggedSentence], min_count: int = 1) -> VocabSet:
    """Vocabularies over a training split.

    Words below min_count fold into UNK.  Characters, labels, and features
    are exhaustive; the label vocabulary is never pruned.
    """
    if not train:
        raise ContractError("cannot build vocabularies from an empty training set")
    counts: dict[str, int] = {}
    for sent in train:
        for tok in sent.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    word = Vocabulary()
    char = Vocabulary()
    label = Vocabulary(with_boundary=True)
    n_feat_cols = len(train[0].features)
    feats = [Vocabulary() for _ in range(n_feat_cols)]
    for sent in train:
        for tok in sent.tokens:
            if counts[tok] >= min_count:
                word.add(tok)
            for ch in tok:
                char.add(ch)
        if sent.labels:
            for lab in sent.labels:
                label.add(lab)
        for k, col in enumerate(sent.features):
            for value in col:
                feats[k].add(value)
    return VocabSet(word=word, char=char, label=label, feats=feats)


@dataclass
class EncodedSentence:
    tokens: tuple[str, ...]
    word_ids: np.ndarray
    char_ids: tuple[tuple[int, ...], ...]
    feat_ids: tuple[np.ndarray, ...]
    label_ids: np.ndarray | None

    def __len__(self):
        return len(self.tokens)


def encode_sentence(sent: TaggedSentence, vocabs: VocabSet) -> EncodedSentence:
    """Map a sentence to ids.  Unknown words/chars/features fall back to
    UNK; an unknown gold label is a vocabulary mismatch."""
    sent.validate()
    if len(sent.features) != len(vocabs.feats):
        raise IngestionError(
            f"sentence has {len(sent.features)} feature columns, vocabularies expect {len(vocabs.feats)}"
        )
    labels = None
    if sent.labels is not None:
        labels = np.array([vocabs.label.require(lab) for lab in sent.labels], dtype=np.int64)
    return EncodedSentence(
        tokens=tuple(sent.tokens),
        word_ids=np.array([vocabs.word.lookup(t) for t in sent.tokens], dtype=np.int64),
        char_ids=tuple(tuple(vocabs.char.lookup(c) for c in tok) for tok in sent.tokens),
        feat_ids=tuple(
            np.array([vocab.lookup(v) for v in col], dtype=np.int64)
            for col, vocab in zip(sent.features, vocabs.feats)
        ),
        label_ids=labels,
    )


def encode_corpus(sentences, vocabs: VocabSet) -> list[EncodedSentence]:
    return [encode_sentence(s, vocabs) for s in sentences]


def decode_labels(ids, vocabs: VocabSet) -> list[str]:
    return [vocabs.label.string(int(i)) for i in ids]


@dataclass
class Batch:
    sentences: list[EncodedSentence]
    origin: str
    window: list | None = None  # raw stream slice for stream batches

    def __len__(self):
        return len(self.sentences)

    @property
    def n_tokens(self):
        return sum(len(s) for s in self.sentences)


def token_stream(sentences: list[EncodedSentence]) -> list:
    """All tokens as one stream with None boundary markers between
    sentences.  Each element is (token, word_id, char_ids, feats, label_id)."""
    stream = []
    for si, sent in enumerate(sentences):
        if si:
            stream.append(None)
        for i in range(len(sent)):
            stream.append(
                (
                    sent.tokens[i],
                    int(sent.word_ids[i]),
                    sent.char_ids[i],
                    tuple(int(col[i]) for col in sent.feat_ids),
                    None if sent.label_ids is None else int(sent.label_ids[i]),
                )
            )
    return stream


def _fragments(window) -> list[EncodedSentence]:
    """Split a stream slice at boundary markers into sentence-like runs, so
    label recurrences restart at sentence boundaries inside a chunk."""
    out = []
    run = []
    for item in window + [None]:
        if item is None:
            if run:
                out.append(
                    EncodedSentence(
                        tokens=tuple(r[0] for r in run),
                        word_ids=np.array([r[1] for r in run], dtype=np.int64),
                        char_ids=tuple(r[2] for r in run),
                        feat_ids=tuple(
                            np.array([r[3][k] for r in run], dtype=np.int64)
                            for k in range(len(run[0][3]))
                        ),
                        label_ids=None
                        if run[0][4] is None
                        else np.array([r[4] for r in run], dtype=np.int64),
                    )
                )
            run = []
        else:
            run.append(item)
    return out


def window_offsets(stream_len: int, chunk_len: int) -> list[int]:
    """Start offsets of the overlapping windows: consecutive windows shift
    by one element, and one final partial window is emitted unpadded.  A
    stream no longer than one chunk gives exactly one window."""
    if stream_len <= chunk_len:
        return [0]
    return list(range(stream_len - chunk_len + 2))


def stream_chunks(sentences: list[EncodedSentence], chunk_len: int) -> list[Batch]:
    """Overlapping fixed-size windows over the single token stream, each
    split at sentence boundaries into independent fragments."""
    if chunk_len < 2:
        raise ConfigError(f"chunk_len must be >= 2, got {chunk_len}")
    stream = token_stream(sentences)
    batches = []
    for offset in window_offsets(len(stream), chunk_len):
        window = stream[offset : offset + chunk_len]
        frags = _fragments(window)
        if frags:
            batches.append(Batch(sentences=frags, origin=f"chunk@{offset}", window=window))
    return batches


def bucket_batches(sentences: list[EncodedSentence], max_tokens_per_batch: int) -> list[Batch]:
    """Group sentences by exact length and split groups so no batch holds
    more than max_tokens_per_batch tokens.  Equal lengths mean no padding."""
    groups: dict[int, list[EncodedSentence]] = {}
    for idx, sent in enumerate(sentences):
        n = len(sent)
        if n > max_tokens_per_batch:
            preview = " ".join(sent.tokens[:6])
            raise ConfigError(
                f"sentence #{idx} ({preview!r}..., {n} tokens) exceeds max_tokens_per_batch={max_tokens_per_batch}"
            )
        groups.setdefault(n, []).append(sent)
    batches = []
    for length in sorted(groups):
        group = groups[length]
        per_batch = max(1, max_tokens_per_batch // length)
        for k in range(0, len(group), per_batch):
            batches.append(
                Batch(sentences=group[k : k + per_batch], origin=f"bucket:len={length}#{k // per_batch}")
            )
    return batches


# ---------------------------------------------------------------------------
# synthetic corpus

_FILLER_CLASS = "FIL"
_ENTITY_CLASS = "ENT"


@dataclass
class SyntheticSpec:
    """Generator settings for the synthetic tagging task.

    Sentences are sequences of units: either a filler token (label O) or a
    phrase made of a trigger token (label O) followed by 1..max_span shared
    entity tokens.  The entity labels are B-c/I-c where the concept c is
    fixed by the trigger that opened the phrase, so the correct label of an
    entity token is determined by its left context, never by the token
    alone (the same entity tokens occur under every concept).
    """

    n_train: int = 1000
    n_dev: int = 200
    n_test: int = 200
    concepts: tuple[str, ...] = ("loc", "org")
    n_filler_types: int = 120
    n_entity_types: int = 30
    n_trigger_types: int = 3
    min_units: int = 3
    max_units: int = 8
    phrase_prob: float = 0.45
    max_span: int = 3
    unseen_filler_rate: float = 0.0  # dev/test only
    emit_class_feature: bool = False

    def validate(self):
        if not self.concepts:
            raise ConfigError("need at least one concept")
        if len(set(self.concepts)) != len(self.concepts):
            raise ConfigError("duplicate concept names")
        if self.min_units < 1 or self.max_units < self.min_units:
            raise ConfigError(f"bad unit range [{self.min_units}, {self.max_units}]")
        if not 0.0 <= self.phrase_prob <= 1.0:
            raise ConfigError(f"phrase_prob must be in [0, 1], got {self.phrase_prob}")
        if self.phrase_prob > 0 and (self.n_entity_types < 1 or self.n_trigger_types < 1):
            raise ConfigError("phrases need entity and trigger types")
        if self.phrase_prob < 1 and self.n_filler_types < 1:
            raise ConfigError("fillers need filler types")
        if self.max_span < 1:
            raise ConfigError(f"max_span must be >= 1, got {self.max_span}")
        if not 0.0 <= self.unseen_filler_rate < 1.0:
            raise ConfigError(f"unseen_filler_rate must be in [0, 1), got {self.unseen_filler_rate}")

    @property
    def labels(self) -> list[str]:
        out = ["O"]
        for c in self.concepts:
            out += [f"B-{c}", f"I-{c}"]
        return out


def _spec_words(spec: SyntheticSpec):
    fillers = [f"f{i}" for i in range(spec.n_filler_types)]
    unseen = [f"fx{i}" for i in range(max(1, spec.n_filler_types // 4))]
    entities = [f"e{i}" for i in range(spec.n_entity_types)]
    triggers = {c: [f"t{c}{i}" for i in range(spec.n_trigger_types)] for c in spec.concepts}
    return fillers, unseen, entities, triggers


def _synth_sentence(spec: SyntheticSpec, rng: SplitMix64, heldout: bool) -> TaggedSentence:
    fillers, unseen, entities, triggers = _spec_words(spec)
    tokens, labels, classes = [], [], []
    n_units = spec.min_units + rng.randint(spec.max_units - spec.min_units + 1)
    for _ in range(n_units):
        if rng.next_float() < spec.phrase_prob:
            concept = spec.concepts[rng.randint(len(spec.concepts))]
            tokens.append(rng.choice(triggers[concept]))
            labels.append("O")
            classes.append(f"TRG-{concept}")
            span = 1 + rng.randint(spec.max_span)
            for j in range(span):
                tokens.append(rng.choice(entities))
                labels.append(("B-" if j == 0 else "I-") + concept)
                classes.append(_ENTITY_CLASS)
        else:
            pool = unseen if heldout and rng.next_float() < spec.unseen_filler_rate else fillers
            tokens.append(rng.choice(pool))
            labels.append("O")
            classes.append(_FILLER_CLASS)
    features = [classes] if spec.emit_class_feature else []
    return TaggedSentence(tokens=tokens, features=features, labels=labels)


def make_synthetic_corpus(spec: SyntheticSpec, seed: int):
    """Deterministic (train, dev, test) splits for the rule-based task."""
    spec.validate()
    rng = SplitMix64(seed)
    train = [_synth_sentence(spec, rng.fork(), heldout=False) for _ in range(spec.n_train)]
    dev = [_synth_sentence(spec, rng.fork(), heldout=True) for _ in range(spec.n_dev)]
    test = [_synth_sentence(spec, rng.fork(), heldout=True) for _ in range(spec.n_test)]
    return train, dev, test


def most_frequent_baseline(train: list[TaggedSentence]):
    """Per-word most frequent label; unseen words get the global mode.
    Ties break lexicographically for determinism."""
    per_word: dict[str, dict[str, int]] = {}
    global_counts: dict[str, int] = {}
    for sent in train:
        for tok, lab in zip(sent.tokens, sent.labels):
            per_word.setdefault(tok, {})
            per_word[tok][lab] = per_word[tok].get(lab, 0) + 1
            global_counts[lab] = global_counts.get(lab, 0) + 1

    def mode(counts):
        return max(sorted(counts), key=lambda lab: counts[lab])

    fallback = mode(global_counts)
    table = {tok: mode(counts) for tok, counts in per_word.items()}

    def predict(sentence: TaggedSentence) -> list[str]:
        return [table.get(tok, fallback) for tok in sentence.tokens]

    return predict
