"""Tape-free straight-line recomputation of the network forward pass,
and the synthetic task's rules recomputed from its spec.

Used as the independent second route for model and loss tests: plain
numpy on raw parameter values (a name -> array dict), no Tensor, no tape,
unshifted softmax.  Single sentence, 1-D vectors per position.  The data
tests check generated corpora against `expected_label_distribution` and
`oracle_labels`, and set-up against the per-token vocabulary walk and
encoder at the end of this file.
"""

import numpy as np

from seqtag.data import EncodedSentence, SyntheticSpec, Vocabulary, VocabSet, _spec_words
from seqtag.errors import ContractError, IngestionError

BOUNDARY = 2
RESERVED = 3  # inference argmax skips pad/unk/boundary label ids


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_step(p, prefix, x, h):
    z = _sigmoid(x @ p[f"{prefix}.w_z"] + h @ p[f"{prefix}.u_z"] + p[f"{prefix}.b_z"])
    r = _sigmoid(x @ p[f"{prefix}.w_r"] + h @ p[f"{prefix}.u_r"] + p[f"{prefix}.b_r"])
    cand = np.tanh(x @ p[f"{prefix}.w_h"] + (r * h) @ p[f"{prefix}.u_h"] + p[f"{prefix}.b_h"])
    return (1.0 - z) * h + z * cand


def _bigru(p, prefix, xs):
    fw, h = [], p[f"{prefix}.h0_fw"]
    for x in xs:
        h = _gru_step(p, f"{prefix}.fw", x, h)
        fw.append(h)
    bw, h = [None] * len(xs), p[f"{prefix}.h0_bw"]
    for i in range(len(xs) - 1, -1, -1):
        h = _gru_step(p, f"{prefix}.bw", xs[i], h)
        bw[i] = h
    return [np.concatenate([f, b]) for f, b in zip(fw, bw)]


def _layer_norm(p, prefix, x, eps=1e-5):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return (x - mu) / np.sqrt(var + eps) * p[f"{prefix}.gain"] + p[f"{prefix}.bias"]


def _ffnn(p, prefix, x):
    inner = np.maximum(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"], 0.0)
    return inner @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def _log_softmax(x):
    return x - np.log(np.exp(x).sum())


def char_rep(p, char_ids):
    xs = [p["embed.char"][c] for c in char_ids]
    states = _bigru(p, "char.gru", xs)
    return np.tanh(sum(states) @ p["char.ffnn.w"] + p["char.ffnn.b"])


def encode(p, sent, blocks=True):
    lex = []
    for i in range(len(sent.word_ids)):
        parts = [p["embed.word"][sent.word_ids[i]], char_rep(p, sent.char_ids[i])]
        parts += [p[f"embed.feat{k}"][ids[i]] for k, ids in enumerate(sent.feat_ids)]
        lex.append(np.concatenate(parts))
    if not blocks:
        return _bigru(p, "enc.gru", lex)
    x_hat = [_layer_norm(p, "enc.norm1", x @ p["enc.proj"]) for x in lex]
    hidden = _bigru(p, "enc.gru", x_hat)
    out = []
    for x, h in zip(x_hat, hidden):
        y = _layer_norm(p, "enc.norm2", h + x)
        out.append(_ffnn(p, "enc.ffnn", y) + y)
    return out


def _decoder_step(p, prefix, x, h, blocks=True):
    if not blocks:
        h = _gru_step(p, f"{prefix}.gru", x, h)
        return h, h
    x_hat = _layer_norm(p, f"{prefix}.norm1", x @ p[f"{prefix}.proj"])
    h = _gru_step(p, f"{prefix}.gru", x_hat, h)
    y = _layer_norm(p, f"{prefix}.norm2", h + x_hat)
    return _ffnn(p, f"{prefix}.ffnn", y) + y, h


def decode_backward(p, enc, gold=None, blocks=True):
    n = len(enc)
    h = p["dec_bw.h0"]
    states, logps, preds = [None] * n, [None] * n, [None] * n
    context = BOUNDARY
    for i in range(n - 1, -1, -1):
        x = np.concatenate([enc[i], p["embed.label"][context]])
        state, h = _decoder_step(p, "dec_bw", x, h, blocks)
        logits = np.concatenate([enc[i], state]) @ p["out.bw.w"] + p["out.bw.b"]
        logps[i] = _log_softmax(logits)
        states[i] = state
        preds[i] = RESERVED + int(np.argmax(logps[i][RESERVED:]))
        context = gold[i] if gold is not None else preds[i]
    return states, logps, preds


def decode_forward(p, enc, bw_states, gold=None, blocks=True):
    n = len(enc)
    h = p["dec_fw.h0"]
    logps, preds = [None] * n, [None] * n
    context = BOUNDARY
    for i in range(n):
        x = np.concatenate([enc[i], p["embed.label"][context]])
        state, h = _decoder_step(p, "dec_fw", x, h, blocks)
        logits = np.concatenate([state, enc[i], bw_states[i]]) @ p["out.fw.w"] + p["out.fw.b"]
        logps[i] = _log_softmax(logits)
        preds[i] = RESERVED + int(np.argmax(logps[i][RESERVED:]))
        context = gold[i] if gold is not None else preds[i]
    return logps, preds


def full_forward(p, sent, gold=None, blocks=True):
    """(fw log-probs, bw log-probs, combined, combined argmax) per position."""
    enc = encode(p, sent, blocks)
    bw_states, bw_lps, _ = decode_backward(p, enc, gold, blocks)
    fw_lps, _ = decode_forward(p, enc, bw_states, gold, blocks)
    combined = [0.5 * (f + b) for f, b in zip(fw_lps, bw_lps)]
    return fw_lps, bw_lps, combined, [RESERVED + int(np.argmax(c[RESERVED:])) for c in combined]


def loss_value(p, sentences, l2):
    """Objective over teacher-forced sentences plus the quadratic penalty."""
    total = 0.0
    for sent in sentences:
        gold = [int(g) for g in sent.label_ids]
        fw_lps, bw_lps, _, _ = full_forward(p, sent, gold=gold)
        for i, g in enumerate(gold):
            total -= 0.5 * (fw_lps[i][g] + bw_lps[i][g])
    if l2:
        total += 0.5 * l2 * sum(float((v * v).sum()) for v in p.values())
    return total


# ---------------------------------------------------------------------------
# the synthetic task's rules


def expected_label_distribution(spec: SyntheticSpec) -> dict[str, float]:
    """Analytic token-level label probabilities implied by the rules."""
    mean_span = (1 + spec.max_span) / 2.0
    pp, k = spec.phrase_prob, len(spec.concepts)
    tokens_per_unit = (1 - pp) * 1.0 + pp * (1.0 + mean_span)
    dist = {"O": ((1 - pp) + pp) / tokens_per_unit}
    for c in spec.concepts:
        dist[f"B-{c}"] = pp / k / tokens_per_unit
        dist[f"I-{c}"] = pp * (mean_span - 1.0) / k / tokens_per_unit
    return dist


def oracle_labels(tokens: list[str], spec: SyntheticSpec) -> list[str]:
    """Reapply the generation rules from the observable token sequence;
    exact on anything the generator can emit."""
    trigger_concept = {}
    _, _, _, triggers = _spec_words(spec)
    for concept, words in triggers.items():
        for w in words:
            trigger_concept[w] = concept
    out = []
    open_concept = None
    for i, tok in enumerate(tokens):
        if tok in trigger_concept:
            out.append("O")
            open_concept = None
        elif tok.startswith("e"):
            prev = tokens[i - 1] if i else None
            if prev in trigger_concept:
                open_concept = trigger_concept[prev]
                out.append(f"B-{open_concept}")
            elif open_concept is not None:
                out.append(f"I-{open_concept}")
            else:
                out.append("O")  # unreachable for generated data
        else:
            out.append("O")
            open_concept = None
    return out


# ---------------------------------------------------------------------------
# set-up, one token at a time


def build_vocabularies(train, min_count=1):
    """Vocabularies from a walk over every token of every sentence, each
    string added where it first occurs."""
    if not train:
        raise ContractError("cannot build vocabularies from an empty training set")
    counts = {}
    for sent in train:
        for tok in sent.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    word = Vocabulary()
    char = Vocabulary()
    label = Vocabulary(with_boundary=True)
    feats = [Vocabulary() for _ in train[0].features]
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


def encode_corpus(sentences, vocabs):
    """Every token's word and characters looked up where it occurs."""
    out = []
    for sent in sentences:
        sent.validate()
        if len(sent.features) != len(vocabs.feats):
            raise IngestionError(
                f"sentence has {len(sent.features)} feature columns, "
                f"vocabularies expect {len(vocabs.feats)}")
        labels = None
        if sent.labels is not None:
            labels = np.array([vocabs.label.require(lab) for lab in sent.labels], dtype=np.int64)
        out.append(EncodedSentence(
            tokens=tuple(sent.tokens),
            word_ids=np.array([vocabs.word.lookup(t) for t in sent.tokens], dtype=np.int64),
            char_ids=tuple(tuple(vocabs.char.lookup(c) for c in tok) for tok in sent.tokens),
            feat_ids=tuple(
                np.array([vocab.lookup(v) for v in col], dtype=np.int64)
                for col, vocab in zip(sent.features, vocabs.feats)),
            label_ids=labels,
        ))
    return out
