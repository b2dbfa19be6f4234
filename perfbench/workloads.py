"""The benchmark's workloads and the inputs they generate from a seed.
Why each workload exists is in README.md and BENCHMARK.json.

Inputs are made before any timed region and handed to the program as
plain `TaggedSentence` lists; the program never sees the seed's spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from seqtag.data import SyntheticSpec, TaggedSentence, make_synthetic_corpus

DESK_DIMS = dict(hidden=24, word_dim=16, char_dim=8, char_hidden=6, label_dim=8,
                 lr=3e-3, dropout=0.5)
PAPER_DIMS = dict(hidden=300, word_dim=300, char_dim=30, char_hidden=30, label_dim=30)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # sentence lengths, an inclusive range
    lengths: tuple[int, int]
    # sentences of each length per split: train, dev, held-out
    per_length: tuple[int, int, int]
    lexicon_words: int = 0
    warmup_train: int = 20
    must_beat_baseline: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-bucket-dual",
            config=dict(DESK_DIMS, batcher="bucket", regime="dual", epochs=2),
            # the bucket batcher makes one batch per distinct length, and
            # batches cost Python overhead per position: the same count of
            # every length gives every seed the same batches and tokens
            lengths=(3, 20),
            per_length=(33, 4, 56),
        ),
        Workload(
            name="paper-bucket-dual",
            config=dict(PAPER_DIMS, batcher="bucket", max_tokens=138, regime="dual", epochs=1),
            lexicon_words=20000,
            # one length and 138 tokens: one step per `train` call
            lengths=(6, 6),
            per_length=(23, 4, 138),
            warmup_train=23,
            must_beat_baseline=False,
        ),
    )
}


@dataclass
class Inputs:
    train: list[TaggedSentence]
    dev: list[TaggedSentence]
    heldout: list[TaggedSentence]
    # extra word types that reach the vocabulary through build_vocabularies
    lexicon: list[TaggedSentence] = field(default_factory=list)

    @property
    def vocab_source(self) -> list[TaggedSentence]:
        return self.train + self.lexicon


def lexicon_sentences(n_words: int, per_sentence: int = 500) -> list[TaggedSentence]:
    words = [f"w{i}" for i in range(n_words)]
    return [
        TaggedSentence(tokens=chunk, labels=["O"] * len(chunk))
        for chunk in (words[k:k + per_sentence] for k in range(0, n_words, per_sentence))
    ]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    lo, hi = workload.lengths
    splits = ([], [], [])
    counts = [dict.fromkeys(range(lo, hi + 1), 0) for _ in splits]
    n_lengths = hi - lo + 1
    round_seed = seed
    # draw rounds until every split holds its count of every length
    while any(count[n] < quota for count, quota in zip(counts, workload.per_length) for n in count):
        n_train, n_dev, n_heldout = (2 * quota * n_lengths for quota in workload.per_length)
        spec = SyntheticSpec(n_train=n_train, n_dev=n_dev, n_test=n_heldout)
        for split, count, quota, pool in zip(splits, counts, workload.per_length,
                                             make_synthetic_corpus(spec, round_seed)):
            for sent in pool:
                if count.get(len(sent), quota) < quota:
                    count[len(sent)] += 1
                    split.append(sent)
        round_seed += 1_000_003
    train, dev, heldout = splits
    return Inputs(train=train, dev=dev, heldout=heldout,
                  lexicon=lexicon_sentences(workload.lexicon_words))
