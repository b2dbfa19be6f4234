"""Optimisation loop, the adaptive-moment optimizer, evaluation, the
two-optimizer regime, multi-run averaging, and the model gradient check.

The objective over a batch D with per-sentence gold labels e is

    -sum_d sum_i 0.5 * (logP_fw(e_i) + logP_bw(e_i))  +  (l2/2) * sum |theta|^2

The tape records only the log-likelihood part.  The L2 penalty is
computed off the tape: its value is added to the logged loss and its
gradient, l2 * theta, is added analytically after the backward pass, or,
for a table that keeps its gradient as scattered rows, formed with them
where the optimizer reads them.

In the dual regime the parameters split into the backward-decoder group
(its decoder block plus the backward output projection), stepped by its
own optimizer on the backward-only term -sum logP_bw(e_i) without L2,
while a second optimizer steps all remaining parameters on the full
objective.  Every mini-batch runs one shared forward pass and takes both
gradients at the same parameters, before either optimizer steps: a
backward pass of the backward-only term with group A frozen, then one of
the full objective with group B frozen.  Each pass writes only its own
group's `.grad` and runs only the backward rules that lead to it.
`step_gradients` is that computation; the trainer and the gradient check
both use it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import lanes
from . import model as m
from .autodiff import Tape, Tensor, backward
from .data import (
    Batch,
    EncodedSentence,
    TaggedSentence,
    VocabSet,
    bucket_batches,
    build_vocabularies,
    decode_labels,
    encode_corpus,
    stream_chunks,
)
from .errors import ConfigError, ContractError, NumericError, TrainingError
from .metrics import EvalReport, evaluate_tags
from .model import ModelDims, ModelParameters
from .rng import SplitMix64
from .serialization import save_model


@dataclass
class TrainingConfig:
    hidden: int = 300
    word_dim: int = 300
    char_dim: int = 30
    char_hidden: int = 30
    label_dim: int = 30
    feat_dim: int = 30
    lr: float = 2.5e-4
    l2: float = 1e-6
    dropout: float = 0.5
    epochs: int = 30
    batcher: str = "bucket"  # or "stream"
    chunk_len: int = 15
    max_tokens: int = 2000
    regime: str = "dual"  # or "single"
    seed: int = 1
    runs: int = 10
    min_count: int = 1
    clip_norm: float = 5.0
    select_by: str = "acc"  # or "cer"
    blocks: bool = True
    jobs: int = 1

    def validate(self):
        for name in ("hidden", "word_dim", "char_dim", "char_hidden", "label_dim",
                     "feat_dim", "epochs", "runs", "min_count", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "l2", "clip_norm"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lr", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be non-negative, got {self.l2}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batcher not in ("bucket", "stream"):
            raise ConfigError(f"unknown batcher {self.batcher!r}")
        if self.regime not in ("single", "dual"):
            raise ConfigError(f"unknown regime {self.regime!r}")
        if self.select_by not in ("acc", "cer"):
            raise ConfigError(f"unknown selection criterion {self.select_by!r}")


@dataclass
class Corpus:
    train: list[TaggedSentence]
    dev: list[TaggedSentence]
    test: list[TaggedSentence] = field(default_factory=list)


# A flat buffer of `Adam` holds at most this many entries (16 MiB): below
# the 32 MiB up to which glibc serves an allocation from the kept heap
# (see `autodiff._keep_freed_memory`), not from a fresh mapping
FLAT_LIMIT = 1 << 21


@dataclass(frozen=True)
class FlatRun:
    """Consecutive tensors of at most `lanes.BLOCK` entries each, whole,
    in tensor order, at entries [lo, hi) of flat buffer `buffer`: at most
    `BLOCK` entries in all.  `members` holds each tensor's index and its
    entries [start, stop) within the run."""

    buffer: int
    lo: int
    hi: int
    members: tuple[tuple[int, int, int], ...]


def flat_runs(sizes: Sequence[int]) -> tuple[list[int], list[FlatRun]]:
    """The entry counts of the flat buffers that hold the arrays of at most
    `lanes.BLOCK` entries among arrays of `sizes`, in order, and their runs
    (`FlatRun`): a run ends where the next array would take it above
    `BLOCK`, a buffer where it would take it above `FLAT_LIMIT`."""
    buffers: list[int] = []
    runs: list[list] = []  # [buffer, lo, hi, members]
    for i, size in enumerate(sizes):
        if size > lanes.BLOCK:
            continue
        new_buffer = not buffers or buffers[-1] + size > FLAT_LIMIT
        if new_buffer:
            buffers.append(0)
        if new_buffer or runs[-1][2] - runs[-1][1] + size > lanes.BLOCK:
            runs.append([len(buffers) - 1, buffers[-1], buffers[-1], []])
        run = runs[-1]
        run[3].append((i, run[2] - run[1], run[2] - run[1] + size))
        run[2] += size
        buffers[-1] += size
    return buffers, [FlatRun(k, lo, hi, tuple(members)) for k, lo, hi, members in runs]


class Adam:
    """Adaptive-moment gradient steps over one named parameter group, with
    optional global-norm clipping.  Step counts start at zero.  `group`
    names the group in errors.

    The gradients, first and second moments of the tensors of at most
    `lanes.BLOCK` entries live in flat buffers, one each per group (more
    only past `FLAT_LIMIT` entries), cut into runs of whole tensors of at
    most `BLOCK` entries (`flat_runs`); each such tensor's `.grad`,
    `_m[i]` and `_v[i]` is a view of its slice.  The first pass (`grad_norm`
    or `step`) makes the gradient buffer and binds each small `.grad` to
    its view, so that the next backward passes and `zero_grads` write
    there; a `.grad` set to another array since is copied in at the next
    pass.  The moments are made by the first `step`, after a backward pass
    has freed the step's activations, and that step writes them directly,
    with the bytes a start from zero moments gives.  Values stay per
    tensor.

    The norm squares a run in one call and sums each of its tensors'
    slices; the update runs its chain of operations once per run, then
    subtracts each tensor's slice of the step from its values.  A larger
    tensor goes whole to the norm (`lanes.square_sum`) and by row blocks
    to the update.  Both passes run on two lanes when a tensor is larger
    than `BLOCK` (see `lanes`), each lane through two block-sized work
    areas of its own: the norm squares into the first, the update runs
    through both.  A table that keeps its gradient as rows
    (`autodiff.RowGradient`) has it formed in those areas as the passes
    go: the rows that cover a norm leaf in the second area, each update
    block in the first, with the bytes a dense `.grad` would hold."""

    def __init__(self, tensors: list[Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm: float | None = None,
                 group: str = "all"):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.group = group
        self.step_count = 0
        # the first and second moments, made by the first `step`
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._sizes = [t.values.size for t in tensors]
        self._blocked = lanes.blocked(self._sizes)
        self._buffers, self._runs = flat_runs(self._sizes)
        # the flat gradient buffers and each small tensor's view, made by
        # the first pass; the moment buffers, made by the first `step`
        self._grads: list[np.ndarray] | None = None
        self._views: list[tuple[int, np.ndarray]] = []
        self._moments: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        # both passes take the runs first, then the larger tensors: the norm
        # each whole, the update by row blocks (index among the larger
        # tensors, rows, entries)
        self._large = [i for i, size in enumerate(self._sizes) if size > lanes.BLOCK]
        self._rows = lanes.row_blocks([tensors[i].values.shape for i in self._large])
        runs = [run.hi - run.lo for run in self._runs]
        self._norm_sizes = runs + [self._sizes[i] for i in self._large]
        self._piece_sizes = runs + [size for *_, size in self._rows]
        # where each tensor's sum comes back among the norm's per-tensor sums
        where = {i: k for k, i in enumerate(
            [i for run in self._runs for i, _, _ in run.members] + self._large)}
        self._order = [where[i] for i in range(len(tensors))]
        # a work area holds the widest update piece, and a whole norm leaf
        # with the two part rows that a leaf formed from rows may cut
        widest = max((t.values.shape[1] for t in tensors if t.values.ndim == 2), default=0)
        width = max(self._piece_sizes + [lanes.BLOCK + 2 * widest if self._blocked else 0])
        self._work = [(np.empty(width), np.empty(width)) for _ in range(2 if self._blocked else 1)]
        # per lane and run, each member's index and its slice of the lane's
        # first work area, in its own shape: where the norm squares it and
        # the update leaves its step
        self._areas = [[[(i, area[start:stop].reshape(tensors[i].values.shape))
                         for i, start, stop in run.members] for run in self._runs]
                       for area, _ in self._work]
        self._norm = None

    def _slices(self, buffers: list[np.ndarray]) -> list[np.ndarray | None]:
        """Per tensor, the view of its slice of `buffers` in its own shape,
        or None for a tensor above `BLOCK` entries."""
        views: list[np.ndarray | None] = [None] * len(self.tensors)
        for run in self._runs:
            flat = buffers[run.buffer][run.lo:run.hi]
            for i, start, stop in run.members:
                views[i] = flat[start:stop].reshape(self.tensors[i].values.shape)
        return views

    def grad_norm(self) -> float:
        """Global L2 norm of the group's `.grad`, kept for the next `step`:
        one sum per tensor, each with the bits of np.multiply(g, g).sum(),
        added in tensor order.  A non-finite norm raises NumericError
        naming the group, so a caller can check every group before any of
        them steps."""
        grads = self._gradients()

        def square_sum(g, area, formed):
            if isinstance(g, ad.RowGradient):
                return lanes.square_sum(lambda lo, hi: g.entries(lo, hi, formed), area,
                                        g.values.size)
            return lanes.square_sum(g, area)

        def sums(lo, hi, lane):
            out = []
            for k in range(lo, hi):
                if k < len(self._runs):
                    run = self._runs[k]
                    g = self._grads[run.buffer][run.lo:run.hi]
                    np.multiply(g, g, out=self._work[lane][0][:g.size])
                    out += [float(np.add.reduce(square, axis=None))
                            for _, square in self._areas[lane][k]]
                else:
                    out.append(square_sum(grads[k - len(self._runs)], *self._work[lane]))
            return out

        per_piece = lanes.run(sums, self._norm_sizes, self._blocked)
        total = np.sqrt(sum(per_piece[k] for k in self._order))
        if not np.isfinite(total):
            raise NumericError(f"gradient norm of group {self.group} is {total}")
        self._norm = total
        return total

    def _gradients(self) -> list:
        """Each larger tensor's dense `.grad`, or its `RowGradient`,
        compacted here before any lane forms from it, in tensor order.  A
        small tensor's `.grad` is its view of the flat buffers from here on:
        one that is not the view is copied in and rebound to it."""
        if self._grads is None:
            self._grads = [np.empty(size) for size in self._buffers]
            self._views = [(i, view) for i, view in enumerate(self._slices(self._grads))
                           if view is not None]
        for i, view in self._views:
            t = self.tensors[i]
            if t.grad is not view:
                np.copyto(view, t.grad)
                t.grad = view
        large = [self.tensors[i] for i in self._large]
        return [t.grad if t.rows is None else t.rows.compact() for t in large]

    def step(self):
        if not self.tensors:
            return
        total = self.grad_norm() if self._norm is None else self._norm
        self._norm = None
        factor = 1.0
        if self.clip_norm is not None and total > self.clip_norm:
            factor = self.clip_norm / total
        first = self._m is None
        if first:
            self._moments = ([np.empty(size) for size in self._buffers],
                             [np.empty(size) for size in self._buffers])
            self._m, self._v = (
                [np.empty(t.values.shape) if view is None else view
                 for t, view in zip(self.tensors, self._slices(flat))]
                for flat in self._moments)
        self.step_count += 1
        grads = self._gradients()
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count

        # m += (1-b1)(g - m); v += (1-b2)(g*g - v);
        # theta -= lr (m/bc1) / (sqrt(v/bc2) + eps), one operation at a time,
        # the step lr (m/bc1) / (sqrt(v/bc2) + eps) left in `a`;
        # from zero moments the first two are m = g(1-b1) + 0 and
        # v = (g*g)(1-b2), the + 0 turning -0.0 into 0.0 as 0 + g(1-b1) does
        def chain(grad, m, v, a, b):
            g = grad if factor == 1.0 else np.multiply(grad, factor, out=a)
            if first:
                np.multiply(g, 1.0 - self.beta1, out=m)
                m += 0.0
                np.multiply(g, g, out=v)
                v *= 1.0 - self.beta2
            else:
                np.subtract(g, m, out=b)
                b *= 1.0 - self.beta1
                m += b
                np.multiply(g, g, out=b)
                b -= v
                b *= 1.0 - self.beta2
                v += b
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b

        # a run goes through the chain whole, then each of its tensors
        # takes its slice of the step; a block formed from rows is formed
        # before its values move
        def update(lo, hi, lane):
            work_a, work_b = self._work[lane]
            flat_m, flat_v = self._moments
            for k in range(lo, hi):
                if k < len(self._runs):
                    run = self._runs[k]
                    n, at = run.hi - run.lo, slice(run.lo, run.hi)
                    chain(self._grads[run.buffer][at], flat_m[run.buffer][at],
                          flat_v[run.buffer][at], work_a[:n], work_b[:n])
                    for i, step in self._areas[lane][k]:
                        theta = self.tensors[i].values
                        theta -= step
                    continue
                j, rows, size = self._rows[k - len(self._runs)]
                i = self._large[j]
                grad, theta = grads[j], self.tensors[i].values[rows]
                a = work_a[:size].reshape(theta.shape)
                b = work_b[:size].reshape(theta.shape)
                grad = (grad.form(rows.start, rows.stop, a) if isinstance(grad, ad.RowGradient)
                        else grad[rows])
                chain(grad, self._m[i][rows], self._v[i][rows], a, b)
                theta -= a
            return []

        lanes.run(update, self._piece_sizes, self._blocked)


def dual_parameter_groups(params: ModelParameters):
    """(group_a, group_b) names: group B is the backward decoder block plus
    the backward output projection; group A is everything else.  Asserted
    to partition the parameter set."""
    names = params.names()
    group_b = [n for n in names if n.startswith("dec_bw.") or n.startswith("out.bw.")]
    group_a = [n for n in names if n not in set(group_b)]
    if set(group_a) & set(group_b) or set(group_a) | set(group_b) != set(names):
        raise ContractError("optimizer groups do not partition the parameter set")
    return group_a, group_b


def nll_sums(batch: list[EncodedSentence], params: ModelParameters, mode: m.Mode):
    """Summed gold-label log-probabilities (forward total, backward total)
    over a batch of sentences of any lengths, teacher-forced, in one pass."""
    gold = [sent.label_ids for sent in batch]
    if any(labels is None for labels in gold):
        raise ContractError("training batch contains an unlabeled sentence")
    pack = m.Packing([len(sent) for sent in batch])
    enc = m.encode(batch, params, mode)
    bw_states, bw_lps = m.decode_backward(enc, pack, params, mode, teacher_labels=gold)
    _, fw_lps = m.decode_forward(enc, pack, bw_states, params, mode, teacher_labels=gold)
    gold_rows = pack.gather(gold)
    return ad.tensor_sum(ad.pick(fw_lps, gold_rows)), ad.tensor_sum(ad.pick(bw_lps, gold_rows))


def objective(sentences: list[EncodedSentence], params: ModelParameters,
              mode: m.Mode) -> tuple[Tensor, Tensor]:
    """Tape scalars of one batch: the full log-likelihood objective
    -0.5 * (fw + bw) and the backward-only term -bw.  L2 is not on the tape."""
    fw_total, bw_total = nll_sums(sentences, params, mode)
    return ad.scale(ad.add(fw_total, bw_total), -0.5), ad.scale(bw_total, -1.0)


def l2_penalty(params: ModelParameters, coefficient: float) -> float:
    """(coefficient / 2) * sum |theta|^2 over every parameter, in numpy."""
    if coefficient == 0.0:
        return 0.0
    values = [t.values for _, t in params.named_tensors()]
    sizes = [v.size for v in values]

    def sums(lo, hi, lane):
        return [float(np.vdot(v, v)) for v in values[lo:hi]]

    total = sum(lanes.run(sums, sizes, lanes.blocked(sizes)))
    return 0.5 * coefficient * total


def _track(tensors: list[Tensor], flag: bool):
    for t in tensors:
        t.requires_grad = flag


def step_gradients(sentences: list[EncodedSentence], params: ModelParameters, mode: m.Mode,
                   l2: float, group_b: Sequence[str] = ()) -> float:
    """One training step's gradients, left in every parameter's `.grad`,
    or, for a table above `lanes.BLOCK` entries, in the rows `take_rows`
    scatters into it (`autodiff.RowGradient`, formed into the dense array
    only if `.grad` is read); returns the logged loss value (the full
    objective, L2 included).

    Tensors named in `group_b` get the gradient of the backward-only term
    -bw.  Every other tensor gets the full objective's gradient: the
    tape's plus l2 * theta, added to a dense `.grad` here and set as the
    `l2` of a row gradient.  Both gradients are taken at the current
    parameters, from one forward pass: the backward-only pass runs with
    the other tensors frozen (`requires_grad` cleared) and the full pass
    with group B frozen, so each pass writes its own group's `.grad` and
    walks only the tape entries that lead to it.  A non-finite loss
    raises NumericError."""
    params.zero_grads()
    b_tensors = [params.get(name) for name in group_b]
    b_ids = {id(t) for t in b_tensors}
    a_tensors = [t for _, t in params.named_tensors() if id(t) not in b_ids]
    with Tape() as tape:
        full, bw_term = objective(sentences, params, mode)
        value = float(full.values) + l2_penalty(params, l2)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss {value}")
        try:
            if b_tensors:
                _track(a_tensors, False)
                backward(bw_term)
                _track(a_tensors, True)
            _track(b_tensors, False)
            backward(full)
        finally:
            _track(a_tensors + b_tensors, True)
            # a tape and its outputs refer to each other: emptying it frees
            # the step's activations now, not at the next cyclic collection
            tape.entries.clear()
    if l2 != 0.0:
        for t in a_tensors:
            if t.rows is not None:
                t.rows.l2 = l2
        dense = [t for t in a_tensors if t.rows is None]
        pieces = lanes.row_blocks([t.values.shape for t in dense])

        def add_l2(lo, hi, lane):
            for i, rows, _ in pieces[lo:hi]:
                rows = slice(None) if rows is None else rows
                grad = dense[i].grad[rows]
                grad += l2 * dense[i].values[rows]
            return []

        lanes.run(add_l2, [size for *_, size in pieces],
                  lanes.blocked([t.values.size for t in dense]))
    return value


# ---------------------------------------------------------------------------
# inference and evaluation


# `predict_corpus` tags sentences in batches of at most this many tokens;
# a longer sentence runs alone
PREDICT_TOKENS = 2000


def predict_corpus(params: ModelParameters, sentences: list[EncodedSentence]) -> list[np.ndarray]:
    """Greedy combined predictions per sentence, in input order.  The
    sentences are taken in stable length order, shortest first, and each
    batch runs until the next sentence would take it past `PREDICT_TOKENS`
    tokens: sentences of like length share a batch, so a batch takes fewer
    greedy positions than one cut from the input order."""
    out: list[np.ndarray | None] = [None] * len(sentences)

    def tag(ids: list[int]):
        for i, pred in zip(ids, m.predict_batch(params, [sentences[i] for i in ids])):
            out[i] = pred

    batch, tokens = [], 0
    for i in sorted(range(len(sentences)), key=lambda i: len(sentences[i])):
        if batch and tokens + len(sentences[i]) > PREDICT_TOKENS:
            tag(batch)
            batch, tokens = [], 0
        batch.append(i)
        tokens += len(sentences[i])
    if batch:
        tag(batch)
    return out


def evaluate(params: ModelParameters, split: list[EncodedSentence], vocabs: VocabSet,
             pred_ids: list[np.ndarray] | None = None) -> EvalReport:
    """Greedy inference over a split followed by the metric suite; given
    `pred_ids` from `predict_corpus`, it scores those instead."""
    if not split:
        raise ContractError("cannot evaluate an empty split")
    for sent in split:
        if sent.label_ids is None:
            raise ContractError("evaluation split contains an unlabeled sentence")
    if pred_ids is None:
        pred_ids = predict_corpus(params, split)
    gold = [decode_labels(s.label_ids, vocabs) for s in split]
    pred = [decode_labels(p, vocabs) for p in pred_ids]
    return evaluate_tags(gold, pred)


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    params: ModelParameters
    log: list[str]
    best_epoch: int
    best_report: EvalReport
    epoch_reports: list[EvalReport]


def _model_dims(config: TrainingConfig, vocabs: VocabSet) -> ModelDims:
    return ModelDims(
        n_words=len(vocabs.word),
        n_chars=len(vocabs.char),
        n_labels=len(vocabs.label),
        n_feats=tuple(len(v) for v in vocabs.feats),
        **{name: getattr(config, name) for name in ModelDims.layer_names()},
    )


def _make_batches(train: list[EncodedSentence], config: TrainingConfig) -> list[Batch]:
    if config.batcher == "stream":
        return stream_chunks(train, config.chunk_len)
    return bucket_batches(train, config.max_tokens)


def _better(candidate: EvalReport, incumbent: EvalReport | None, select_by: str) -> bool:
    if incumbent is None:
        return True
    if select_by == "cer":
        return candidate.cer < incumbent.cer
    return candidate.token_accuracy > incumbent.token_accuracy


def _format_epoch(epoch: int, train_loss: float, report: EvalReport, seconds: float) -> str:
    return (
        f"epoch={epoch} train_loss={train_loss:.6f} dev_acc={report.token_accuracy:.6f} "
        f"dev_f1={report.f1:.6f} dev_cer={report.cer:.6f} seconds={seconds:.3f}"
    )


# a diverging run overflows long before its loss is checked; every
# non-finite value it can produce ends in a named NumericError (the loss
# check, `log_softmax`, `Adam.grad_norm`), so numpy's warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def train(corpus: Corpus, config: TrainingConfig, vocabs: VocabSet | None = None) -> TrainResult:
    """Train on `corpus.train`, select the best epoch on `corpus.dev`.
    `config.regime` picks the optimizers: "single" steps every parameter
    on the full objective; "dual" steps the backward-decoder group on the
    backward term alone and the rest on the full objective, every
    mini-batch."""
    config.validate()
    if not corpus.train or not corpus.dev:
        raise ContractError("training needs non-empty train and dev splits")
    # score every split a run evaluates gold against gold, so that a split
    # the metrics reject fails here and not after the first epoch
    for split in (corpus.dev, corpus.test):
        gold = [s.labels for s in split]
        if None in gold:
            raise ContractError("evaluation split contains an unlabeled sentence")
        if gold:
            evaluate_tags(gold, gold)
    vocabs = vocabs or build_vocabularies(corpus.train, config.min_count)
    train = encode_corpus(corpus.train, vocabs)
    dev = encode_corpus(corpus.dev, vocabs)
    root = SplitMix64(config.seed)
    init_rng, shuffle_rng, dropout_rng = root.fork(), root.fork(), root.fork()
    dims = _model_dims(config, vocabs)
    params = ModelParameters(dims, init_rng)
    batches = _make_batches(train, config)
    mode = m.Mode(training=True, dropout_p=config.dropout if config.blocks else 0.0, rng=dropout_rng)

    if config.regime == "dual":
        group_a, group_b = dual_parameter_groups(params)
        groups = [(group_a, "a"), (group_b, "b")]
    else:
        group_b = []
        groups = [(params.names(), "all")]
    optimizers = [
        Adam([params.get(n) for n in names], config.lr, clip_norm=config.clip_norm, group=group)
        for names, group in groups
    ]

    log: list[str] = []
    epoch_reports: list[EvalReport] = []
    best_values = None
    best_report = None
    best_epoch = -1
    order = list(range(len(batches)))
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        shuffle_rng.shuffle(order)
        loss_total = 0.0
        token_total = 0
        for step, batch_idx in enumerate(order):
            batch = batches[batch_idx]
            try:
                value = step_gradients(batch.sentences, params, mode, config.l2, group_b)
                # every group's norm is checked before any parameter moves
                for opt in optimizers:
                    opt.grad_norm()
                for opt in optimizers:
                    opt.step()
            except NumericError as exc:
                raise TrainingError(f"diverged at epoch {epoch} step {step}: {exc}") from exc
            loss_total += value
            token_total += batch.n_tokens
        report = evaluate(params, dev, vocabs)
        epoch_reports.append(report)
        seconds = time.perf_counter() - started
        log.append(_format_epoch(epoch, loss_total / token_total, report, seconds))
        if _better(report, best_report, config.select_by):
            best_report = report
            best_epoch = epoch
            # no later step moves the last epoch's parameters: adopt them uncopied
            best_values = params.snapshot() if epoch < config.epochs else None
    if best_values is None:
        best = params
        for _, t in best.named_tensors():
            t.grad = None
    else:
        best = ModelParameters(dims, values=best_values)
    return TrainResult(
        params=best, log=log, best_epoch=best_epoch,
        best_report=best_report, epoch_reports=epoch_reports,
    )


# ---------------------------------------------------------------------------
# repeated runs


@dataclass
class RunStats:
    mean: dict[str, float]
    std: dict[str, float]
    reports: list[EvalReport]


_AGGREGATED = ("token_accuracy", "precision", "recall", "f1", "cer")


def _one_run(args) -> EvalReport:
    corpus, config, seed, output = args
    run_config = replace(config, seed=seed, runs=1)
    vocabs = build_vocabularies(corpus.train, run_config.min_count)
    result = train(corpus, run_config, vocabs)
    if output is not None:
        model_path, log_path = output
        for path in (model_path, log_path):
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        save_model(model_path, result.params, vocabs,
                   {"dropout": run_config.dropout, "l2": run_config.l2})
        Path(log_path).write_text("".join(line + "\n" for line in result.log), encoding="utf-8")
    held_out = corpus.test if corpus.test else corpus.dev
    return evaluate(result.params, encode_corpus(held_out, vocabs), vocabs)


def multi_run(corpus: Corpus, config: TrainingConfig, seeds: list[int] | None = None,
              outputs: list[tuple[str, str]] | None = None) -> RunStats:
    """Repeat training with seeds seed, seed+1, ... (or an explicit seed
    list) and aggregate the held-out reports (test split when present,
    dev otherwise).  With `outputs`, run k saves its best model and its
    epoch log to the k-th (model path, log path)."""
    if config.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {config.runs}")
    if seeds is None:
        seeds = [config.seed + k for k in range(config.runs)]
    elif len(seeds) != config.runs:
        raise ConfigError(f"{config.runs} runs but {len(seeds)} seeds")
    jobs = [(corpus, config, seed, output)
            for seed, output in zip(seeds, outputs or [None] * len(seeds), strict=True)]
    if config.jobs > 1:
        # the workers share the CPUs: each splits a pass over two lanes
        # only when it has two CPUs of its own
        workers = min(config.jobs, len(jobs))
        with ProcessPoolExecutor(max_workers=workers, initializer=lanes.share_cpus,
                                 initargs=(workers,)) as pool:
            reports = list(pool.map(_one_run, jobs))
    else:
        reports = [_one_run(job) for job in jobs]
    mean = {}
    std = {}
    for name in _AGGREGATED:
        vals = np.array([getattr(r, name) for r in reports])
        mean[name] = float(vals.mean())
        # shifting by the first value keeps the spread exactly zero when
        # every run produced the same number
        std[name] = float((vals - vals[0]).std())
    return RunStats(mean=mean, std=std, reports=reports)


# ---------------------------------------------------------------------------
# model gradient check


def _micro_fixture(seed: int):
    """Tiny deterministic instance: a mixed-length batch (two 3-token
    sentences and a 2-token one, one pass), 3 labels, words of 1..4
    characters, every architectural piece enabled."""
    sentences = [
        TaggedSentence(
            tokens=["abcd", "be", "c"],
            features=[["X", "Y", "X"]],
            labels=["B-p", "I-p", "O"],
        ),
        TaggedSentence(
            tokens=["be", "dd", "abcd"],
            features=[["Y", "Y", "X"]],
            labels=["O", "B-q", "I-q"],
        ),
        TaggedSentence(
            tokens=["dd", "c"],
            features=[["X", "Y"]],
            labels=["B-q", "O"],
        ),
    ]
    vocabs = build_vocabularies(sentences)
    dims = _model_dims(TrainingConfig(word_dim=4, char_dim=3, char_hidden=2, label_dim=3,
                                      feat_dim=2, hidden=3, blocks=True), vocabs)
    params = ModelParameters(dims, SplitMix64(seed))
    batch = encode_corpus(sentences, vocabs)
    return params, batch


def gradient_errors(params: ModelParameters, batch: list[EncodedSentence], make_mode,
                    l2: float = 0.01, h: float = 1e-5,
                    tolerance: float = 1e-4) -> dict[str, float]:
    """Max relative error per tensor of the gradients the trainer applies,
    from `step_gradients` in both regimes, against central finite
    differences: the full objective with L2 for every tensor in the single
    regime and for group A in the dual one, the backward-only term for
    group B.  `make_mode()` gives each evaluation its own Mode, so a
    seeded one repeats its dropout mask.  A central difference of f has
    roundoff of about eps*|f|/h, so each error is relative to at least
    eps*max|f|/(h*tolerance), f ranging over both objectives."""
    _, group_b = dual_parameter_groups(params)
    step_gradients(batch, params, make_mode(), l2)
    single = {name: t.grad.copy() for name, t in params.named_tensors()}
    step_gradients(batch, params, make_mode(), l2, group_b)
    dual = {name: t.grad.copy() for name, t in params.named_tensors()}

    def objectives():
        full, bw_term = objective(batch, params, make_mode())
        return float(full.values) + l2_penalty(params, l2), float(bw_term.values)

    floor = np.finfo(np.float64).eps * max(map(abs, objectives())) / (h * tolerance)
    errors = {}
    for name, tensor in params.named_tensors():
        fd_full, fd_bw = ad.numeric_gradients(objectives, tensor, h=h)
        errors[name] = max(ad.relative_error(single[name], fd_full, floor),
                           ad.relative_error(dual[name], fd_bw if name in group_b else fd_full,
                                             floor))
    return errors


def run_gradient_check(seed: int = 1, tolerance: float = 1e-4, h: float = 1e-5,
                       l2: float = 0.01) -> tuple[dict[str, float], bool]:
    """`gradient_errors` on the micro instance without dropout, and whether
    every error is below `tolerance`."""
    params, batch = _micro_fixture(seed)
    no_dropout = m.Mode(training=True, dropout_p=0.0, rng=None)
    errors = gradient_errors(params, batch, lambda: no_dropout, l2, h, tolerance)
    return errors, all(err < tolerance for err in errors.values())
