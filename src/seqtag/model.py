"""The tagging network: character-aware encoder, two label-context
decoders, and the combined output rule.

All sequence functions take a batch of sentences of any lengths and
carry one packed stack of shape (tokens, width), laid out by `Packing`:
the sentences sorted longest first, position i being the next
`running[i]` rows, and no row that is not a token.  Every position-wise
layer runs once on the stack; a recurrence is one `autodiff.gru_scan`
over it.  The character level packs the batch's words the same way.  The
encoder and both decoders run their recurrent layer inside a residual
wrapper:

    x_hat = Norm1(project(x))
    h     = recurrent(x_hat)             # hidden chain carries raw h
    y     = Norm2(Dropout(h) + x_hat)
    out   = FFNN(y) + y

With `blocks=False` the wrapper disappears and the recurrent layers run
directly on their raw inputs (no projection, norms, feed-forward, or
dropout), which is the plain configuration used as a training baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import BOUNDARY, EncodedSentence
from .errors import ConfigError, ContractError
from .rng import SplitMix64

LAYER_NORM_EPS = 1e-5

# the label vocabulary reserves padding/unknown/boundary at ids 0..2;
# inference never emits them, so argmax runs over the real labels only
LABEL_RESERVED = 3


def _label_argmax(log_prob_rows: np.ndarray) -> np.ndarray:
    """The prediction rule: each row's highest real label, ties going to
    the lowest id."""
    return LABEL_RESERVED + np.argmax(log_prob_rows[:, LABEL_RESERVED:], axis=1)


@dataclass(frozen=True)
class ModelDims:
    n_words: int
    n_chars: int
    n_labels: int
    n_feats: tuple[int, ...] = ()
    word_dim: int = 300
    char_dim: int = 30
    char_hidden: int = 30
    label_dim: int = 30
    feat_dim: int = 30
    hidden: int = 300
    blocks: bool = True

    @classmethod
    def layer_names(cls) -> list[str]:
        """Every field but the vocabulary sizes (n_*), as named in `TrainingConfig`."""
        return [f.name for f in fields(cls) if not f.name.startswith("n_")]

    @property
    def width(self) -> int:
        """Block width: both directions of the word-level recurrence."""
        return 2 * self.hidden

    @property
    def char_rep(self) -> int:
        return 2 * self.char_hidden

    @property
    def ffnn_inner(self) -> int:
        return 2 * self.width

    @property
    def lex_width(self) -> int:
        return self.word_dim + self.char_rep + len(self.n_feats) * self.feat_dim

    def validate(self):
        for name in ("n_words", "n_chars", "n_labels", "word_dim", "char_dim",
                     "char_hidden", "label_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_feats and self.feat_dim < 1:
            raise ConfigError(f"feat_dim must be >= 1, got {self.feat_dim}")


@dataclass
class Mode:
    """Forward-pass context: dropout is active only while training."""

    training: bool = False
    dropout_p: float = 0.0
    rng: SplitMix64 | None = None


EVAL = Mode()


class _Store:
    """Ordered named-parameter registry; the L2 term, the optimizers, the
    gradient checker, and the model file all enumerate exactly this set.
    Each tensor is drawn from `rng` (zeros without one) or, given
    `values`, adopts the array of its name uncopied."""

    def __init__(self, rng: SplitMix64 | None, values: dict[str, np.ndarray] | None = None):
        self._rng = rng
        self._values = values
        self.tensors: dict[str, Tensor] = {}

    def _register(self, name: str, shape, make) -> Tensor:
        if name in self.tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self._values is None:
            values = make()
        elif name not in self._values:
            raise ContractError(f"parameter set mismatch: {name!r} missing")
        else:
            values = self._values[name]
            if values.shape != shape:
                raise ContractError(
                    f"parameter {name}: shape {values.shape} does not match {shape}")
        t = Tensor(values, requires_grad=True, name=name)
        self.tensors[name] = t
        return t

    def matrix(self, name: str, shape, fan_in: int | None = None) -> Tensor:
        fan = shape[0] if fan_in is None else fan_in
        bound = 1.0 / np.sqrt(fan)
        return self._register(name, shape, lambda: (
            np.zeros(shape) if self._rng is None
            else self._rng.uniform_array(shape, -bound, bound)))

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, shape, lambda: np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, shape, lambda: np.ones(shape))


class LayerNormParams:
    def __init__(self, store: _Store, prefix: str, width: int):
        self.gain = store.ones(f"{prefix}.gain", (width,))
        self.bias = store.zeros(f"{prefix}.bias", (width,))

    def apply(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, eps=LAYER_NORM_EPS)


class FeedForward:
    """Two affine layers around a rectifier, width -> inner -> width."""

    def __init__(self, store: _Store, prefix: str, width: int, inner: int):
        self.w1 = store.matrix(f"{prefix}.w1", (width, inner))
        self.b1 = store.zeros(f"{prefix}.b1", (inner,))
        self.w2 = store.matrix(f"{prefix}.w2", (inner, width))
        self.b2 = store.zeros(f"{prefix}.b2", (width,))

    def apply(self, x: Tensor) -> Tensor:
        inner = ad.relu(ad.add(ad.matmul(x, self.w1), self.b1))
        return ad.add(ad.matmul(inner, self.w2), self.b2)


class Packing:
    """The one batch layout, over sequences of `lengths` (each >= 1), sorted
    longest first with ties in batch order (`order`).  Position i is the
    `running[i]` rows from `offsets[i]`, the j-th of them belonging to
    sequence order[j]; stack row r holds entry `rows[r]` of the
    concatenated sequences."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
            raise ContractError(f"a packing needs one or more lengths >= 1, got {lengths.tolist()}")
        self.lengths = lengths
        self.order = np.argsort(-lengths, kind="stable")
        self.running = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
        self.offsets = np.cumsum(self.running) - self.running
        starts = (np.cumsum(lengths) - lengths)[self.order]
        self.rows = np.concatenate([starts[:k] + i for i, k in enumerate(self.running)])

    def gather(self, seqs) -> np.ndarray:
        """Per-sequence entries, one sequence of its length each, in stack order."""
        if [len(s) for s in seqs] != self.lengths.tolist():
            raise ContractError(f"{[len(s) for s in seqs]} entries for lengths {self.lengths.tolist()}")
        return np.concatenate(seqs)[self.rows]

    def split(self, stacked: np.ndarray) -> list[np.ndarray]:
        """Stack rows back into one array per sequence, in batch order."""
        flat = np.empty_like(stacked)
        flat[self.rows] = stacked
        return np.split(flat, np.cumsum(self.lengths)[:-1])


class GruCell:
    """Gated recurrent cell.

    z = sigmoid(x W_z + h U_z + b_z), r likewise, candidate
    tanh(x W_h + (r*h) U_h + b_h), new state (1-z)*h + z*candidate.
    """

    def __init__(self, store: _Store, prefix: str, input_dim: int, hidden_dim: int):
        self.w_z = store.matrix(f"{prefix}.w_z", (input_dim, hidden_dim))
        self.u_z = store.matrix(f"{prefix}.u_z", (hidden_dim, hidden_dim))
        self.b_z = store.zeros(f"{prefix}.b_z", (hidden_dim,))
        self.w_r = store.matrix(f"{prefix}.w_r", (input_dim, hidden_dim))
        self.u_r = store.matrix(f"{prefix}.u_r", (hidden_dim, hidden_dim))
        self.b_r = store.zeros(f"{prefix}.b_r", (hidden_dim,))
        self.w_h = store.matrix(f"{prefix}.w_h", (input_dim, hidden_dim))
        self.u_h = store.matrix(f"{prefix}.u_h", (hidden_dim, hidden_dim))
        self.b_h = store.zeros(f"{prefix}.b_h", (hidden_dim,))

    def scan(self, x: Tensor, h0: Tensor, running, reverse: bool = False) -> Tensor:
        """The hidden state at every row of the packed stack `x`, starting
        from `h0` (running[0], hidden); see `ad.gru_scan`."""
        return ad.gru_scan(x, h0, (self.w_z, self.w_r, self.w_h), (self.u_z, self.u_r, self.u_h),
                           (self.b_z, self.b_r, self.b_h), running, reverse)


class BiGru:
    """Forward and backward cells; output row of position i is [fw_i, bw_i]."""

    def __init__(self, store: _Store, prefix: str, input_dim: int, hidden_dim: int):
        self.fw = GruCell(store, f"{prefix}.fw", input_dim, hidden_dim)
        self.bw = GruCell(store, f"{prefix}.bw", input_dim, hidden_dim)
        self.h0_fw = store.zeros(f"{prefix}.h0_fw", (hidden_dim,))
        self.h0_bw = store.zeros(f"{prefix}.h0_bw", (hidden_dim,))

    def run(self, x: Tensor, running) -> Tensor:
        bsz = int(running[0])
        return ad.concat([
            self.fw.scan(x, ad.tile_rows(self.h0_fw, bsz), running),
            self.bw.scan(x, ad.tile_rows(self.h0_bw, bsz), running, reverse=True),
        ])


class ResidualBlock:
    """The residual wrapper of the module docstring around `rnn`, a `BiGru`
    (encoder) or a `GruCell` (decoders): `enter` computes x_hat before the
    recurrence, `leave` the output after it."""

    def __init__(self, store: _Store, prefix: str, dims: ModelDims, input_dim: int,
                 rnn_type: type, rnn_hidden: int):
        width = dims.width
        self._blocks = dims.blocks
        if dims.blocks:
            self.proj = store.matrix(f"{prefix}.proj", (input_dim, width))
            self.norm1 = LayerNormParams(store, f"{prefix}.norm1", width)
            self.norm2 = LayerNormParams(store, f"{prefix}.norm2", width)
            self.rnn = rnn_type(store, f"{prefix}.gru", width, rnn_hidden)
            self.ffnn = FeedForward(store, f"{prefix}.ffnn", width, dims.ffnn_inner)
        else:
            self.rnn = rnn_type(store, f"{prefix}.gru", input_dim, rnn_hidden)

    def enter(self, x: Tensor) -> Tensor:
        if not self._blocks:
            return x
        return self.norm1.apply(ad.matmul(x, self.proj))

    def leave(self, h: Tensor, x_hat: Tensor, mode: Mode) -> Tensor:
        if not self._blocks:
            return h
        dropped = ad.dropout(h, mode.dropout_p, mode.training, mode.rng)
        y = self.norm2.apply(ad.add(dropped, x_hat))
        return ad.add(self.ffnn.apply(y), y)


class ModelParameters:
    """Every learned tensor of the network, enumerable by name.  Values
    are drawn from `rng`, zeros without one, or adopted uncopied from
    `values`, which must name every tensor with its shape.  No tensor
    holds a gradient until training writes one."""

    def __init__(self, dims: ModelDims, rng: SplitMix64 | None = None,
                 values: dict[str, np.ndarray] | None = None):
        dims.validate()
        self.dims = dims
        store = _Store(rng, values)
        d = dims.width
        self.word_table = store.matrix("embed.word", (dims.n_words, dims.word_dim), fan_in=dims.word_dim)
        self.char_table = store.matrix("embed.char", (dims.n_chars, dims.char_dim), fan_in=dims.char_dim)
        self.label_table = store.matrix("embed.label", (dims.n_labels, dims.label_dim), fan_in=dims.label_dim)
        self.feat_tables = [
            store.matrix(f"embed.feat{k}", (n, dims.feat_dim), fan_in=dims.feat_dim)
            for k, n in enumerate(dims.n_feats)
        ]
        self.char_bigru = BiGru(store, "char.gru", dims.char_dim, dims.char_hidden)
        self.char_ffnn_w = store.matrix("char.ffnn.w", (dims.char_rep, dims.char_rep))
        self.char_ffnn_b = store.zeros("char.ffnn.b", (dims.char_rep,))
        self.enc = ResidualBlock(store, "enc", dims, dims.lex_width, BiGru, dims.hidden)
        # each decoder reads the encoder state joined with a label embedding
        self.dec_bw = ResidualBlock(store, "dec_bw", dims, d + dims.label_dim, GruCell, d)
        self.dec_bw_h0 = store.zeros("dec_bw.h0", (d,))
        self.dec_fw = ResidualBlock(store, "dec_fw", dims, d + dims.label_dim, GruCell, d)
        self.dec_fw_h0 = store.zeros("dec_fw.h0", (d,))
        self.out_bw_w = store.matrix("out.bw.w", (2 * d, dims.n_labels))
        self.out_bw_b = store.zeros("out.bw.b", (dims.n_labels,))
        self.out_fw_w = store.matrix("out.fw.w", (3 * d, dims.n_labels))
        self.out_fw_b = store.zeros("out.fw.b", (dims.n_labels,))
        self._tensors = store.tensors
        if values is not None and len(values) != len(self._tensors):
            raise ContractError(
                f"parameter set mismatch: {sorted(set(values) - set(self._tensors))}")

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self._tensors.items())

    def names(self) -> list[str]:
        return list(self._tensors)

    def get(self, name: str) -> Tensor:
        return self._tensors[name]

    def zero_grads(self):
        """Zero every tensor's gradient, so that each optimizer finds one per
        tensor (see `autodiff.Tensor.zero_grad`).  A 2-D tensor above
        `lanes.BLOCK` entries that has no dense `.grad` gets none here: a
        table keeps the rows its gather scatters into it, and any other
        tensor gets its `.grad` at its first write, in `backward`."""
        for t in self._tensors.values():
            t.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._tensors.items()}

    def clone(self) -> "ModelParameters":
        return ModelParameters(self.dims, values=self.snapshot())


# ---------------------------------------------------------------------------
# forward passes


def _char_position_reps(batch: list[EncodedSentence], params: ModelParameters) -> Tensor:
    """Character representations of the batch's words, in the rows of its
    packed stack: each word's character recurrence states, summed over the
    word and mapped through the character feed-forward layer.  The words
    are packed by their own lengths, so one scan per direction runs every
    word over its own characters."""
    for b, sent in enumerate(batch):
        for i, chars in enumerate(sent.char_ids):
            if not chars:
                raise ContractError(f"empty token at sentence {b} position {i}")
    flat = [chars for sent in batch for chars in sent.char_ids]
    words = [flat[r] for r in Packing([len(sent) for sent in batch]).rows]
    chars = Packing([len(w) for w in words])
    x = ad.take_rows(params.char_table, chars.gather(words))
    total = ad.block_sum(params.char_bigru.run(x, chars.running), chars.running)
    reps = ad.tanh(ad.add(ad.matmul(total, params.char_ffnn_w), params.char_ffnn_b))
    return ad.take_rows(reps, np.argsort(chars.order))


def encode(batch: list[EncodedSentence], params: ModelParameters, mode: Mode) -> Tensor:
    """Context-sensitive representation of every position of a batch of
    sentences of any lengths: the packed (tokens, width) stack that
    `Packing` lays out over the sentence lengths."""
    for sent in batch:
        if len(sent.feat_ids) != len(params.feat_tables):
            raise ContractError(
                f"sentence has {len(sent.feat_ids)} feature columns, model expects {len(params.feat_tables)}"
            )
    pack = Packing([len(sent) for sent in batch])
    parts = [
        ad.take_rows(params.word_table, pack.gather([sent.word_ids for sent in batch])),
        _char_position_reps(batch, params),
    ]
    parts += [
        ad.take_rows(table, pack.gather([sent.feat_ids[k] for sent in batch]))
        for k, table in enumerate(params.feat_tables)
    ]
    x_hat = params.enc.enter(ad.concat(parts))
    return params.enc.leave(params.enc.rnn.run(x_hat, pack.running), x_hat, mode)


def _decode(enc: Tensor, pack: Packing, params: ModelParameters, mode: Mode,
            teacher_labels: list[np.ndarray] | None, block: ResidualBlock, h0: Tensor,
            out_w: Tensor, out_b: Tensor, out_inputs, reverse: bool):
    """One label decoder over the packed encoder output `enc`.  A row's
    context label is its sentence's label one position earlier in decoding
    order, `BOUNDARY` where the sentence starts.  Teacher forcing knows
    them all, so the layer body runs once over the stack; greedy decoding
    feeds back its argmax, so the body runs once per position.
    `out_inputs(at, states)` lists what the output layer reads, `at(t)`
    giving the current rows of a stacked tensor t."""

    def layer(at, context, h, running):
        x_hat = block.enter(ad.concat([at(enc), ad.take_rows(params.label_table, context)]))
        h = block.rnn.scan(x_hat, h, running, reverse)
        states = block.leave(h, x_hat, mode)
        logits = ad.matmul(ad.concat(out_inputs(at, states)), out_w)
        return h, states, ad.log_softmax(ad.add(logits, out_b))

    if teacher_labels is not None:
        edge = [BOUNDARY]
        context = pack.gather([np.concatenate([gold[1:], edge] if reverse else [edge, gold[:-1]])
                               for gold in teacher_labels])
        h = ad.tile_rows(h0, int(pack.running[0]))
        _, states, log_probs = layer(lambda t: t, context, h, pack.running)
        return states, log_probs
    n = len(pack.running)
    state_rows, lp_rows = [None] * n, [None] * n
    h, context = None, np.empty(0, dtype=np.int64)
    for i in range(n - 1, -1, -1) if reverse else range(n):
        k = int(pack.running[i])
        # sentences that ended leave the carried state; ones that start join it
        if k < len(context):
            h, context = ad.take_rows(h, np.arange(k)), context[:k]
        elif k > len(context):
            fresh = ad.tile_rows(h0, k - len(context))
            h = fresh if h is None else ad.concat([h, fresh], axis=0)
            context = np.concatenate([context, np.full(k - len(context), BOUNDARY)])
        rows = np.arange(pack.offsets[i], pack.offsets[i] + k)
        h, state_rows[i], lp_rows[i] = layer(lambda t: ad.take_rows(t, rows), context, h, [k])
        context = _label_argmax(lp_rows[i].values)
    return ad.concat(state_rows, axis=0), ad.concat(lp_rows, axis=0)


def decode_backward(enc: Tensor, pack: Packing, params: ModelParameters, mode: Mode,
                    teacher_labels: list[np.ndarray] | None = None):
    """Right-to-left decoding of the encoder output `enc`, packed by
    `pack`.  With `teacher_labels`, one array per sentence, the context
    label at each step is the gold next label; otherwise the decoder feeds
    its own argmax predictions.  Returns the stacked (states, log_probs)."""
    return _decode(enc, pack, params, mode, teacher_labels, params.dec_bw, params.dec_bw_h0,
                   params.out_bw_w, params.out_bw_b,
                   lambda at, states: [at(enc), states], reverse=True)


def decode_forward(enc: Tensor, pack: Packing, bw_states: Tensor, params: ModelParameters,
                   mode: Mode, teacher_labels: list[np.ndarray] | None = None):
    """Left-to-right decoding over encoder states and the right-context
    states produced by `decode_backward`."""
    if bw_states.values.shape[0] != enc.values.shape[0]:
        raise ContractError(
            f"{enc.values.shape[0]} encoder rows but {bw_states.values.shape[0]} backward-state rows"
        )
    return _decode(enc, pack, params, mode, teacher_labels, params.dec_fw, params.dec_fw_h0,
                   params.out_fw_w, params.out_fw_b,
                   lambda at, states: [states, at(enc), at(bw_states)], reverse=False)


def combine(log_probs_fw: Tensor, log_probs_bw: Tensor) -> Tensor:
    """Mean of the two log-probability rows: the log of the geometric mean
    of the distributions, deliberately unnormalised."""
    if log_probs_fw.values.shape != log_probs_bw.values.shape:
        raise ContractError(
            f"combine: shapes differ, {log_probs_fw.values.shape} vs {log_probs_bw.values.shape}"
        )
    return ad.scale(ad.add(log_probs_fw, log_probs_bw), 0.5)


def predict_batch(params: ModelParameters, batch: list[EncodedSentence]) -> list[np.ndarray]:
    """Greedy inference over sentences of any lengths: the label ids of
    the combined rows, one array per sentence."""
    pack = Packing([len(sent) for sent in batch])
    enc = encode(batch, params, EVAL)
    bw_states, bw_lps = decode_backward(enc, pack, params, EVAL)
    _, fw_lps = decode_forward(enc, pack, bw_states, params, EVAL)
    return pack.split(_label_argmax(combine(fw_lps, bw_lps).values))
