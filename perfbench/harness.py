"""One workload, end to end, through seqtag's public API.

Each run prepares the program's inputs (vocabularies, encoding, batches,
parameter initialisation), warms up, trains, saves and reloads the
model, and tags a held-out split with the reloaded model.  Every output
is checked; a failed check counts as a failed operation, where an
operation is one training step or one tagged sentence.  A call that
raises fails the operations it was given, and the run stops there.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from seqtag import training
from seqtag.data import (
    VocabSet,
    build_vocabularies,
    bucket_batches,
    decode_labels,
    encode_corpus,
    most_frequent_baseline,
)
from seqtag.metrics import token_accuracy
from seqtag.model import LABEL_RESERVED, ModelDims, ModelParameters
from seqtag.rng import SplitMix64
from seqtag.serialization import load_model, save_model

from layers import per_layer_metrics, trace_targets
from tracing import NullTracer, Tracer
from workloads import Inputs, Workload, make_inputs

# Shares of --seconds for repeated `train` calls, set-ups (a preparation
# and a `load_model`) and tagging passes.  The three are interleaved, so
# that each samples the whole run: the host switches between a fast and
# a slow state, 1.2 to 1.9 times apart, that last seconds to minutes.
# Each end-to-end time is the fastest repetition, the program's speed in
# the fast state; the share of the run spent in the slow state changes
# from run to run, and with it the median.
SHARES = {"train": 0.75, "setup": 0.1, "tag": 0.15}


@dataclass
class Prepared:
    vocabs: VocabSet
    heldout: list
    batches: list
    seconds: float


class OperationsFailed(Exception):
    """A call raised; its operations are already counted as failed."""


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, operations: int, problem: str) -> bool:
        """Count `operations` as attempted; if the check fails they all
        fail, and a check over no new operation fails one."""
        self.attempted += operations
        if not ok:
            self.failed += max(operations, 1)
            self.attempted = max(self.attempted, self.failed)
            self.problems.append(problem)
        return ok

    def attempt(self, operations: int, what: str, fn, *args):
        """Return `fn(*args)`, counting `operations` as attempted.  If it
        raises, they fail and `OperationsFailed` stops the run."""
        try:
            result = fn(*args)
        except Exception as exc:
            self.check(False, operations, f"{what} raised {type(exc).__name__}: {exc}")
            raise OperationsFailed(what) from exc
        self.attempted += operations
        return result


def model_dims(config: training.TrainingConfig, vocabs: VocabSet) -> ModelDims:
    return ModelDims(
        n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
        n_feats=tuple(len(v) for v in vocabs.feats), word_dim=config.word_dim,
        char_dim=config.char_dim, char_hidden=config.char_hidden, label_dim=config.label_dim,
        feat_dim=config.feat_dim, hidden=config.hidden, blocks=config.blocks,
    )


def prepare(inputs: Inputs, config: training.TrainingConfig, tracer=NullTracer()) -> Prepared:
    """Program-side preparation, timed as a whole; input generation is not in it."""
    started = time.perf_counter()
    vocabs = build_vocabularies(inputs.vocab_source, config.min_count)
    with tracer.span("data.encode"):
        train, _dev, heldout = (encode_corpus(split, vocabs)
                                for split in (inputs.train, inputs.dev, inputs.heldout))
    with tracer.span("data.batch"):
        batches = bucket_batches(train, config.max_tokens)
    # timed as set-up cost only: `training.train` initialises its own
    ModelParameters(model_dims(config, vocabs), SplitMix64(config.seed))
    return Prepared(vocabs, heldout, batches, time.perf_counter() - started)


def epoch_losses(log: list[str]) -> list[float]:
    return [float(line.split("train_loss=")[1].split()[0]) for line in log]


class Run:
    """State shared by the phases of one run of one workload.  A
    non-finite loss makes `training.train` raise, which fails its steps."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, tally: Tally):
        self.workload = workload
        self.config = training.TrainingConfig(**workload.config, seed=seed, runs=1)
        self.inputs = make_inputs(workload, seed)
        self.workdir = workdir
        self.tally = tally
        self.corpus = training.Corpus(train=self.inputs.train, dev=self.inputs.dev)
        self.train_tokens = sum(len(s) for s in self.inputs.train)
        self.heldout_tokens = sum(len(s) for s in self.inputs.heldout)
        self.prep = prepare(self.inputs, self.config)

    # -- phases -----------------------------------------------------------

    def warm_up(self):
        """Untimed: one epoch on a prefix of the corpus, and one tagging
        pass with the model that trained; returns the training result."""
        n = self.workload.warmup_train
        corpus = training.Corpus(train=self.inputs.train[:n], dev=self.inputs.dev[:n])
        result = self.tally.attempt(0, "warm-up training.train", training.train,
                                    corpus, replace(self.config, epochs=1), self.prep.vocabs)
        self.tally.attempt(0, "warm-up training.predict_corpus", training.predict_corpus,
                           result.params, self.prep.heldout[:n])
        return result

    def train(self, tracer=NullTracer()):
        """One call of `training.train`; returns (result, wall seconds,
        last epoch's loss)."""
        steps = self.config.epochs * len(self.prep.batches)
        started = time.perf_counter()
        with tracer.span("training.train"):
            result = self.tally.attempt(steps, "training.train", training.train,
                                        self.corpus, self.config, self.prep.vocabs)
        seconds = time.perf_counter() - started
        return result, seconds, epoch_losses(result.log)[-1]

    @property
    def model_path(self) -> Path:
        return self.workdir / f"{self.workload.name}.bin"

    def save(self, result, tracer=NullTracer()) -> str:
        """Write the trained model; returns the digest of what was written."""
        with tracer.span("serialization.save"):
            self.tally.attempt(0, "save_model", save_model, self.model_path, result.params,
                               self.prep.vocabs, {"dropout": self.config.dropout, "l2": self.config.l2})
        return model_digest(result.params, self.prep.vocabs)

    def load(self, digest: str, tracer=NullTracer()):
        """Read the model back, checking that it round-trips bit for bit;
        returns (params, wall seconds)."""
        started = time.perf_counter()
        with tracer.span("serialization.load"):
            params, vocabs, _ = self.tally.attempt(0, "load_model", load_model, self.model_path)
        seconds = time.perf_counter() - started
        self.tally.check(model_digest(params, vocabs) == digest, 0,
                         "model file does not round-trip bit for bit")
        return params, seconds

    def predict(self, params: ModelParameters):
        """One `predict_corpus` pass over the held-out split, checked;
        returns (wall seconds, accuracy, predictions)."""
        heldout = self.prep.heldout
        started = time.perf_counter()
        preds = self.tally.attempt(len(heldout), "training.predict_corpus",
                                   training.predict_corpus, params, heldout)
        seconds = time.perf_counter() - started
        n_labels = len(self.prep.vocabs.label)
        for sent, row in zip(heldout, preds):
            ok = (row.shape == (len(sent),) and bool(np.all(row >= LABEL_RESERVED))
                  and bool(np.all(row < n_labels)))
            self.tally.check(ok, 0, "predicted id outside the real labels")
        gold = [s.labels for s in self.inputs.heldout]
        guess = [decode_labels(row, self.prep.vocabs) for row in preds]
        return seconds, token_accuracy(gold, guess), preds

    def check_baseline(self, accuracy: float):
        if not self.workload.must_beat_baseline:
            return
        baseline = most_frequent_baseline(self.inputs.train)
        base_acc = token_accuracy([s.labels for s in self.inputs.heldout],
                                  [baseline(s) for s in self.inputs.heldout])
        self.tally.check(accuracy > base_acc, 0,
                         f"held-out accuracy {accuracy:.4f} does not beat the baseline {base_acc:.4f}")


def model_digest(params: ModelParameters, vocabs: VocabSet) -> str:
    """SHA-256 over every tensor's name, dtype, shape and bytes, and every
    vocabulary's strings: equal digests mean a bit-for-bit round trip."""
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(f"{name} {t.values.dtype} {t.values.shape}\n".encode())
        h.update(np.ascontiguousarray(t.values).data)
    for vocab in [vocabs.word, vocabs.char, vocabs.label, *vocabs.feats]:
        h.update(("\x00".join(vocab.strings) + "\x01").encode())
    return h.hexdigest()


def interleave(tasks: dict, seconds: float, done: dict | None = None) -> dict[str, list]:
    """Run each task (name -> function returning a tuple whose first item
    is its wall time) at least once, and again while one more call at its
    mean wall keeps it within its `SHARES` part of `seconds`.  The task
    furthest behind its share runs next; ties go to the first in `tasks`.
    Calls already `done` count.  Garbage is collected before each call,
    so no call pays for another's."""
    done = {name: list((done or {}).get(name, ())) for name in tasks}

    def spent(name):
        return sum(r[0] for r in done[name])

    def fits(name):
        n = len(done[name])
        return n == 0 or spent(name) * (n + 1) / n <= SHARES[name] * seconds

    while waiting := [name for name in tasks if fits(name)]:
        name = min(waiting, key=lambda name: spent(name) / SHARES[name])
        gc.collect()
        done[name].append(tasks[name]())
    return done


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float, workdir: Path, tally: Tally):
    """End-to-end metrics, tracing off.  Returns (metrics, notes)."""
    run = Run(workload, seed, workdir, tally)
    # until the first `train` call, set-up loads the warm-up's model and
    # tagging uses it: a tagging pass costs the same whatever the weights
    state = {"digest": run.save(run.warm_up()), "params": None, "trained": False}

    def train_rep():
        # every repetition saves its model, so each runs after the same work
        result, wall, loss = run.train()
        state["digest"] = run.save(result)
        state["params"] = None  # one loaded model at a time
        state["params"], _ = run.load(state["digest"])
        state["trained"] = True
        return wall, loss, state["digest"]

    def setup_rep():
        run.prep = prepare(run.inputs, run.config)
        state["params"] = None
        state["params"], load_wall = run.load(state["digest"])
        return run.prep.seconds + load_wall, run.prep.seconds, load_wall

    def tag_rep():
        seconds, _, preds = run.predict(state["params"])
        return seconds, preds, state["trained"]

    tasks = {"setup": setup_rep, "tag": tag_rep, "train": train_rep}
    # set-up and tagging take half their shares before the first `train`
    # call, so that they sample both ends of the run
    reps = interleave({name: tasks[name] for name in ("setup", "tag")}, seconds / 2)
    reps = interleave(tasks, seconds, reps)
    trains, setups, tags = reps["train"], reps["setup"], reps["tag"]
    tally.check(len({r[1:] for r in trains}) == 1, 0, "training is not deterministic")
    # untimed: the trained model's accuracy
    _, accuracy, preds = run.predict(state["params"])
    tally.check(all(all(map(np.array_equal, preds, t[1])) for t in tags if t[2]), 0,
                "tagging is not deterministic")
    run.check_baseline(accuracy)

    loss = trains[0][1]
    metrics = {
        "train_tok_s": (run.train_tokens * run.config.epochs / min(t[0] for t in trains), "tokens/s"),
        "infer_tok_s": (run.heldout_tokens / min(t[0] for t in tags), "tokens/s"),
        "setup_s": (min(s[0] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "heldout_acc": (accuracy, "ratio"),
    }
    notes = [f"train_loss {loss!r} nats/token (last epoch; deterministic per seed, not bounded)",
             f"train reps {len(trains)}: " + " ".join(f"{t[0]:.3f}s" for t in trains),
             f"predict reps {len(tags)} ({sum(t[2] for t in tags)} with the trained model): "
             + spread_note(t[0] for t in tags),
             f"setup reps {len(setups)}: " + spread_note(s[0] for s in setups)
             + f"; preparation median {statistics.median(s[1] for s in setups):.4f}s, "
             f"load median {statistics.median(s[2] for s in setups):.4f}s"]
    return metrics, notes


def spread_note(walls) -> str:
    walls = sorted(walls)
    return f"fastest {walls[0]:.4f}s, median {statistics.median(walls):.4f}s, slowest {walls[-1]:.4f}s"


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path, tally: Tally):
    """Per-layer metrics: one untraced pass as the reference, then the same
    pass traced.  Returns (metrics, notes)."""
    run = Run(workload, seed, workdir, tally)
    run.warm_up()
    gc.collect()
    result, train_wall, loss = run.train()
    params, _ = run.load(run.save(result))
    del result
    predict_wall, accuracy, _ = run.predict(params)

    tracer = Tracer()
    with tracer.installed(trace_targets()):
        run.prep = prepare(run.inputs, run.config, tracer)
        gc.collect()
        t_result, _, t_loss = run.train(tracer)
        t_params, _ = run.load(run.save(t_result, tracer), tracer)
        _, t_accuracy, _ = run.predict(t_params)
    tally.check(t_loss == loss and t_accuracy == accuracy, 0,
                f"tracing changed the results: loss {loss} -> {t_loss}, "
                f"accuracy {accuracy} -> {t_accuracy}")
    run.check_baseline(accuracy)

    prep = run.prep
    metrics = per_layer_metrics(
        tracer.spans,
        epochs=run.config.epochs,
        n_batches=len(prep.batches),
        window_tokens=sum(b.n_tokens for b in prep.batches),
        corpus_tokens=run.train_tokens,
        model_bytes=run.model_path.stat().st_size,
        untraced={"train": train_wall, "predict": predict_wall},
    )
    metrics["training.train_loss"] = (t_loss, "nats/token")
    notes = [f"untraced train {train_wall:.3f}s predict {predict_wall:.3f}s"]
    return metrics, notes
