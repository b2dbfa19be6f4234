"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configurable."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from oracle import loss_value  # noqa: F401  (imported for parity with unit suites)
from test_metrics import full_table_edit_distance, random_tags, scanner_chunks

from seqtag.autodiff import Tensor
from seqtag.cli import main
from seqtag.data import (
    SyntheticSpec,
    build_vocabularies,
    bucket_batches,
    encode_corpus,
    make_synthetic_corpus,
    most_frequent_baseline,
    stream_chunks,
    token_stream,
)
from seqtag.metrics import chunk_f1, concept_error_rate, levenshtein, token_accuracy
from seqtag.model import LABEL_RESERVED, _label_argmax, combine
from seqtag.rng import SplitMix64
from seqtag.serialization import load_model, save_model
from seqtag.training import (
    Corpus,
    TrainingConfig,
    evaluate,
    run_gradient_check,
    train,
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{name}]: {status}{suffix}")


def epochs_to_accuracy(result, threshold=0.99):
    for i, rep in enumerate(result.epoch_reports, start=1):
        if rep.token_accuracy >= threshold:
            return i
    return None


OVERFIT_SPEC = SyntheticSpec(
    n_train=40, n_dev=1, n_test=1, min_units=2, max_units=5,
    n_filler_types=15, n_entity_types=8, n_trigger_types=2,
)


def overfit_config(**overrides):
    base = dict(
        hidden=10, word_dim=10, char_dim=6, char_hidden=4, label_dim=6,
        lr=5e-3, l2=0.0, dropout=0.1, epochs=50, batcher="bucket",
        max_tokens=80, regime="single", seed=9, runs=1,
    )
    base.update(overrides)
    return TrainingConfig(**base)


@pytest.fixture(scope="module")
def overfit_runs():
    """Shared 50-epoch runs on the 40-sentence corpus: single and dual
    regimes with the residual wrapper, and single without it."""
    train_split, _, _ = make_synthetic_corpus(OVERFIT_SPEC, seed=17)
    corpus = Corpus(train=train_split, dev=train_split)
    started = time.perf_counter()
    runs = {
        "single": train(corpus, overfit_config()),
        "dual": train(corpus, overfit_config(regime="dual")),
        "plain": train(corpus, overfit_config(blocks=False, dropout=0.0)),
    }
    runs["seconds"] = time.perf_counter() - started
    return runs


def test_criterion_1_gradient_soundness():
    started = time.perf_counter()
    errors, ok = run_gradient_check(seed=1, tolerance=1e-4, h=1e-5)
    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = ok and elapsed < 60.0
    report(1, "gradient soundness", ok,
           f"{len(errors)} tensors, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_overfit_capability(overfit_runs):
    single = epochs_to_accuracy(overfit_runs["single"])
    dual = epochs_to_accuracy(overfit_runs["dual"])
    elapsed = overfit_runs["seconds"]
    ok = single is not None and dual is not None and elapsed < 300.0
    report(2, "overfit capability", ok,
           f"single {single} epochs, dual {dual} epochs, {elapsed:.0f}s")
    assert single is not None and single <= 50
    assert dual is not None and dual <= 50
    assert elapsed < 300.0


def test_criterion_3_generalisation_beats_baseline():
    started = time.perf_counter()
    spec = SyntheticSpec(n_train=1000, n_dev=150, n_test=250)
    train_split, dev_split, test_split = make_synthetic_corpus(spec, seed=23)
    corpus = Corpus(train=train_split, dev=dev_split, test=test_split)
    baseline = most_frequent_baseline(train_split)
    base_acc = token_accuracy(
        [s.labels for s in test_split], [baseline(s) for s in test_split]
    )
    accs = []
    for seed in (31, 32, 33):
        config = TrainingConfig(
            hidden=24, word_dim=16, char_dim=8, char_hidden=6, label_dim=8,
            lr=3e-3, l2=0.0, dropout=0.1, epochs=2, batcher="bucket",
            max_tokens=400, regime="dual", seed=seed, runs=1,
        )
        vocabs = build_vocabularies(train_split)
        result = train(corpus, config, vocabs)
        rep = evaluate(result.params, encode_corpus(test_split, vocabs), vocabs)
        accs.append(rep.token_accuracy)
    mean_acc = float(np.mean(accs))
    elapsed = time.perf_counter() - started
    margin = (mean_acc - base_acc) * 100
    ok = margin >= 5.0 and elapsed < 1200.0
    report(3, "generalisation vs baseline", ok,
           f"model {mean_acc:.4f} vs baseline {base_acc:.4f} (+{margin:.1f} pts), {elapsed:.0f}s")
    assert margin >= 5.0
    assert elapsed < 1200.0


def test_criterion_4_metric_oracle_equivalence():
    rng = SplitMix64(41)
    ok = True
    for _ in range(10_000):
        gold = random_tags(rng, 1 + rng.randint(10))
        pred = random_tags(rng, len(gold))
        # chunk F1 against the set-intersection scanner
        got = chunk_f1([gold], [pred])
        gold_set, pred_set = set(scanner_chunks(gold)), set(scanner_chunks(pred))
        tp = len(gold_set & pred_set)
        p = tp / len(pred_set) if pred_set else 0.0
        r = tp / len(gold_set) if gold_set else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ok = ok and got == (p, r, f)
        # edit distance against the full DP table
        g_seq = [c.label for c in scanner_chunks(gold)]
        p_seq = [c.label for c in scanner_chunks(pred)]
        ok = ok and levenshtein(g_seq, p_seq) == full_table_edit_distance(g_seq, p_seq)
        if not ok:
            break
    hand = concept_error_rate([["A", "B", "C"]], [["A", "C"]])
    ok = ok and hand == 1 / 3
    report(4, "metric oracle equivalence", ok, "10^4 random pairs, hand case 1/3")
    assert ok


def test_criterion_5_combination_rule():
    rng = SplitMix64(43)
    ok = True
    for _ in range(1000):
        # the reserved label ids come first and are never predicted
        width = LABEL_RESERVED + 2 + rng.randint(9)
        fw = rng.uniform_array((1, width), 1e-6, 1.0)
        bw = rng.uniform_array((1, width), 1e-6, 1.0)
        fw /= fw.sum()
        bw /= bw.sum()
        ids = _label_argmax(combine(Tensor(np.log(fw)), Tensor(np.log(bw))).values)
        ok = ok and ids[0] == LABEL_RESERVED + int(np.argmax((fw * bw)[0, LABEL_RESERVED:]))
        if not ok:
            break
    report(5, "geometric-mean combination", ok, "10^3 random row pairs")
    assert ok


def test_criterion_6_batcher_contracts():
    rng = SplitMix64(47)
    ok = True
    for trial in range(100):
        n_sents = 1 + rng.randint(8)
        sents = []
        from seqtag.data import TaggedSentence
        for i in range(n_sents):
            n = 1 + rng.randint(7)
            sents.append(TaggedSentence(
                tokens=[f"w{rng.randint(12)}" for _ in range(n)], labels=["O"] * n
            ))
        vocabs = build_vocabularies(sents)
        enc = encode_corpus(sents, vocabs)
        stream = token_stream(enc)
        chunk = 2 + rng.randint(5)
        batches = stream_chunks(enc, chunk)
        covered = set()
        for b in batches:
            offset = int(b.origin.split("@")[1])
            covered.update(range(offset, offset + len(b.window)))
        ok = ok and covered == set(range(len(stream)))
        rebuilt = [b.window[0] for b in batches[:-1]] + list(batches[-1].window)
        ok = ok and rebuilt == stream
        # tokens (not markers) all appear in some batch fragment
        n_stream_tokens = sum(1 for e in stream if e is not None)
        in_batches = {
            (frag.tokens[i], int(frag.word_ids[i]))
            for b in batches for frag in b.sentences for i in range(len(frag))
        }
        ok = ok and len(in_batches) <= n_stream_tokens
        # bucket batching is an exact partition
        max_tokens = max(len(s) for s in enc) + rng.randint(10)
        buckets = bucket_batches(enc, max_tokens)
        emitted = sorted(
            tok for b in buckets for s in b.sentences for tok in s.tokens
        )
        ok = ok and emitted == sorted(tok for s in enc for tok in s.tokens)
        ok = ok and all(len({len(s) for s in b.sentences}) == 1 for b in buckets)
        ok = ok and all(b.n_tokens <= max_tokens for b in buckets)
        if not ok:
            break
    report(6, "batcher contracts", ok, "100 random corpora")
    assert ok


def test_criterion_7_block_degradation(overfit_runs):
    plain = epochs_to_accuracy(overfit_runs["plain"])
    wrapped = epochs_to_accuracy(overfit_runs["single"])
    ok = plain is not None and wrapped is not None and wrapped <= 2 * plain
    report(7, "block degradation", ok,
           f"plain {plain} epochs, wrapped {wrapped} epochs")
    assert plain is not None and plain <= 50
    assert wrapped is not None
    assert wrapped <= 2 * plain


def test_criterion_8_reproducibility(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    spec_file = tmp_path / "spec.cfg"
    spec_file.write_text(
        "n_train = 25\nn_dev = 8\nn_test = 8\nmin_units = 2\nmax_units = 4\n"
        "n_filler_types = 12\nn_entity_types = 6\nn_trigger_types = 2\n",
        encoding="utf-8",
    )
    assert main(["synth", "--spec", str(spec_file), "--out-dir", str(corpus_dir),
                 "--seed", "3"]) == 0
    models = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        code = main([
            "train",
            "--train", str(corpus_dir / "train.conll"),
            "--dev", str(corpus_dir / "dev.conll"),
            "--model-out", str(out / "model.bin"),
            "--hidden", "6", "--word-dim", "6", "--char-dim", "4",
            "--char-hidden", "3", "--label-dim", "4", "--lr", "5e-3",
            "--l2", "0.0", "--dropout", "0.2", "--epochs", "3",
            "--max-tokens", "48", "--regime", "dual", "--seed", "13", "--runs", "1",
        ])
        assert code == 0
        models.append(out / "model.bin")
    logs = [
        re.sub(r" seconds=\S+", "", Path(str(p) + ".log").read_text(encoding="utf-8"))
        for p in models
    ]
    same_logs = logs[0] == logs[1]
    same_model = models[0].read_bytes() == models[1].read_bytes()
    same_manifest = (
        Path(str(models[0]) + ".manifest.json").read_bytes()
        == Path(str(models[1]) + ".manifest.json").read_bytes()
    )
    ok = same_logs and same_model and same_manifest
    report(8, "reproducibility", ok,
           f"logs equal={same_logs}, model bytes equal={same_model}")
    assert ok


def test_criterion_9_serialization_round_trip(tmp_path):
    train_split, dev_split, _ = make_synthetic_corpus(
        SyntheticSpec(n_train=20, n_dev=10, n_test=1, min_units=2, max_units=4), seed=29
    )
    corpus = Corpus(train=train_split, dev=dev_split)
    config = overfit_config(epochs=2, dropout=0.2, l2=1e-4, seed=7)
    vocabs = build_vocabularies(train_split)
    result = train(corpus, config, vocabs)
    enc_dev = encode_corpus(dev_split, vocabs)
    before = evaluate(result.params, enc_dev, vocabs)
    path = tmp_path / "model.bin"
    save_model(path, result.params, vocabs, {"dropout": config.dropout, "l2": config.l2})
    params2, vocabs2, _ = load_model(path)
    after = evaluate(params2, encode_corpus(dev_split, vocabs2), vocabs2)
    ok = before == after
    report(9, "serialization round trip", ok, "bit-exact evaluation after reload")
    assert ok
