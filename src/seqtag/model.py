"""The tagging network: character-aware encoder, two label-context
decoders, and the combined output rule.

All sequence functions take a batch of B equal-length sentences of N
positions and carry one stacked, position-major tensor of shape
(N*B, width): row i*B + b holds position i of sentence b.  Every
position-wise layer runs once on the stack; a recurrence is one
`autodiff.gru_scan` over it.  The encoder and both decoders run their
recurrent layer inside a residual wrapper:

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
    gradient checker, and the model file all enumerate exactly this set."""

    def __init__(self, rng: SplitMix64 | None):
        self._rng = rng
        self.tensors: dict[str, Tensor] = {}

    def _register(self, name: str, values) -> Tensor:
        if name in self.tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True, name=name)
        self.tensors[name] = t
        return t

    def matrix(self, name: str, shape, fan_in: int | None = None) -> Tensor:
        fan = shape[0] if fan_in is None else fan_in
        bound = 1.0 / np.sqrt(fan)
        values = (
            np.zeros(shape)
            if self._rng is None
            else self._rng.uniform_array(shape, -bound, bound)
        )
        return self._register(name, values)

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))


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

    def apply(self, x: Tensor, n: int = 1) -> Tensor:
        inner = ad.relu(ad.add(ad.matmul(x, self.w1, n), self.b1))
        return ad.add(ad.matmul(inner, self.w2, n), self.b2)


def _position_major(rows) -> np.ndarray:
    """Flatten B equal-length id sequences so that entry i*B + b is
    position i of sequence b."""
    return np.array(rows, dtype=np.int64).T.reshape(-1)


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

    def scan(self, x: Tensor, h0: Tensor, n: int, reverse: bool = False) -> Tensor:
        """The hidden state at every row of the stacked `x` (n positions),
        starting from `h0` (B, hidden)."""
        return ad.gru_scan(x, h0, (self.w_z, self.w_r, self.w_h), (self.u_z, self.u_r, self.u_h),
                           (self.b_z, self.b_r, self.b_h), n, reverse)

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        return self.scan(x, h, 1)


class BiGru:
    """Forward and backward cells; output row of position i is [fw_i, bw_i]."""

    def __init__(self, store: _Store, prefix: str, input_dim: int, hidden_dim: int):
        self.fw = GruCell(store, f"{prefix}.fw", input_dim, hidden_dim)
        self.bw = GruCell(store, f"{prefix}.bw", input_dim, hidden_dim)
        self.h0_fw = store.zeros(f"{prefix}.h0_fw", (hidden_dim,))
        self.h0_bw = store.zeros(f"{prefix}.h0_bw", (hidden_dim,))

    def run(self, x: Tensor, n: int) -> Tensor:
        bsz = x.values.shape[0] // n
        return ad.concat([self.fw.scan(x, ad.tile_rows(self.h0_fw, bsz), n),
                          self.bw.scan(x, ad.tile_rows(self.h0_bw, bsz), n, reverse=True)])


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

    def enter(self, x: Tensor, n: int = 1) -> Tensor:
        if not self._blocks:
            return x
        return self.norm1.apply(ad.matmul(x, self.proj, n))

    def leave(self, h: Tensor, x_hat: Tensor, mode: Mode, n: int = 1,
              reverse: bool = False) -> Tensor:
        """`n` and `reverse` are the stack's positions and the recurrence's
        direction: dropout draws its masks in the recurrence's order."""
        if not self._blocks:
            return h
        dropped = ad.dropout(h, mode.dropout_p, mode.training, mode.rng, n, reverse)
        y = self.norm2.apply(ad.add(dropped, x_hat))
        return ad.add(self.ffnn.apply(y, n), y)


class ModelParameters:
    """Every learned tensor of the network, enumerable by name."""

    def __init__(self, dims: ModelDims, rng: SplitMix64 | None = None):
        dims.validate()
        self.dims = dims
        store = _Store(rng)
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

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self._tensors.items())

    def names(self) -> list[str]:
        return list(self._tensors)

    def get(self, name: str) -> Tensor:
        return self._tensors[name]

    def zero_grads(self):
        for t in self._tensors.values():
            t.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._tensors.items()}

    def load_snapshot(self, values: dict[str, np.ndarray]):
        if set(values) != set(self._tensors):
            missing = set(self._tensors) ^ set(values)
            raise ContractError(f"parameter set mismatch: {sorted(missing)}")
        for name, arr in values.items():
            t = self._tensors[name]
            if t.values.shape != arr.shape:
                raise ContractError(
                    f"parameter {name}: shape {arr.shape} does not match {t.values.shape}"
                )
            t.values = np.asarray(arr, dtype=np.float64)

    def clone(self) -> "ModelParameters":
        twin = ModelParameters(self.dims, rng=None)
        twin.load_snapshot(self.snapshot())
        return twin


# ---------------------------------------------------------------------------
# forward passes


def char_represent(char_ids, params: ModelParameters) -> Tensor:
    """Character-level representation of one word: run the character
    recurrence over its embeddings, sum the per-character states, and map
    through the character feed-forward layer.  Shape (1, char_rep)."""
    if len(char_ids) == 0:
        raise ContractError("cannot represent a word with no characters")
    return _char_group_rep(params, [tuple(char_ids)])


def _char_group_rep(params: ModelParameters, rows: list[tuple[int, ...]]) -> Tensor:
    """Representation for a group of words with equal character count."""
    length = len(rows[0])
    x = ad.take_rows(params.char_table, _position_major(rows))
    total = ad.block_sum(params.char_bigru.run(x, length), length)
    return ad.tanh(ad.add(ad.matmul(total, params.char_ffnn_w), params.char_ffnn_b))


def _char_position_reps(batch: list[EncodedSentence], params: ModelParameters) -> Tensor:
    """Stacked character representations of the whole batch, words
    grouped by character count so each group runs as one recurrence."""
    bsz = len(batch)
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for b, sent in enumerate(batch):
        for i, chars in enumerate(sent.char_ids):
            if len(chars) == 0:
                raise ContractError(f"empty token at sentence {b} position {i}")
            groups.setdefault(len(chars), []).append((i * bsz + b, chars))
    reps = []
    row_of = np.empty(bsz * len(batch[0]), dtype=np.int64)
    offset = 0
    for length in sorted(groups):
        members = groups[length]
        reps.append(_char_group_rep(params, [chars for _, chars in members]))
        for k, (row, _) in enumerate(members):
            row_of[row] = offset + k
        offset += len(members)
    return ad.take_rows(ad.stack_rows(reps), row_of)


def encode(batch: list[EncodedSentence], params: ModelParameters, mode: Mode) -> Tensor:
    """Context-sensitive representation of every position; the batch must
    hold equal-length sentences.  Returns the stacked (N*B, width) tensor."""
    if not batch:
        raise ContractError("encode needs a non-empty batch")
    n = len(batch[0])
    if n == 0:
        raise ContractError("encode needs non-empty sentences")
    for sent in batch:
        if len(sent) != n:
            raise ContractError(f"batch mixes lengths {n} and {len(sent)}")
        if len(sent.feat_ids) != len(params.feat_tables):
            raise ContractError(
                f"sentence has {len(sent.feat_ids)} feature columns, model expects {len(params.feat_tables)}"
            )
    parts = [
        ad.take_rows(params.word_table, _position_major([sent.word_ids for sent in batch])),
        _char_position_reps(batch, params),
    ]
    parts += [
        ad.take_rows(table, _position_major([sent.feat_ids[k] for sent in batch]))
        for k, table in enumerate(params.feat_tables)
    ]
    x_hat = params.enc.enter(ad.concat(parts), n)
    return params.enc.leave(params.enc.rnn.run(x_hat, n), x_hat, mode, n)


def _decode(enc: Tensor, n: int, params: ModelParameters, mode: Mode,
            teacher_labels: np.ndarray | None, block: ResidualBlock, h0: Tensor,
            out_w: Tensor, out_b: Tensor, out_inputs, reverse: bool):
    """One label decoder over the stacked encoder output of n positions.
    The context label of a position is the gold label of the one before
    it in decoding order under teacher forcing, so every position-wise
    layer runs once on the stack and the recurrence is one `gru_scan`.
    Greedy decoding feeds back its own argmax, one position at a time.
    `out_inputs(at, state)` lists what the output layer reads, `at(t)`
    giving the current rows of a stacked tensor t.  Returns (states,
    log_probs, predictions): stacked tensors and (B, N) label ids."""
    bsz = enc.values.shape[0] // n

    def output(at, state, positions):
        logits = ad.matmul(ad.concat(out_inputs(at, state)), out_w, positions)
        return ad.log_softmax(ad.add(logits, out_b))

    if teacher_labels is not None:
        context = np.full((n, bsz), BOUNDARY, dtype=np.int64)
        if reverse:
            context[:-1] = teacher_labels.T[1:]
        else:
            context[1:] = teacher_labels.T[:-1]
        x_hat = block.enter(ad.concat([enc, ad.take_rows(params.label_table, context.reshape(-1))]), n)
        h = block.rnn.scan(x_hat, ad.tile_rows(h0, bsz), n, reverse)
        states = block.leave(h, x_hat, mode, n, reverse)
        log_probs = output(lambda t: t, states, n)
    else:
        state_rows, lp_rows = [None] * n, [None] * n
        h = ad.tile_rows(h0, bsz)
        context = np.full(bsz, BOUNDARY, dtype=np.int64)
        for i in range(n - 1, -1, -1) if reverse else range(n):
            rows = np.arange(i * bsz, (i + 1) * bsz)

            def at(t, rows=rows):
                return ad.take_rows(t, rows)

            x_hat = block.enter(ad.concat([at(enc), ad.take_rows(params.label_table, context)]))
            h = block.rnn.step(x_hat, h)
            state_rows[i] = block.leave(h, x_hat, mode)
            lp_rows[i] = output(at, state_rows[i], 1)
            context = _label_argmax(lp_rows[i].values)
        states, log_probs = ad.stack_rows(state_rows), ad.stack_rows(lp_rows)
    return states, log_probs, _label_argmax(log_probs.values).reshape(n, bsz).T


def decode_backward(
    enc: Tensor,
    n: int,
    params: ModelParameters,
    mode: Mode,
    teacher_labels: np.ndarray | None = None,
):
    """Right-to-left decoding of the stacked encoder output `enc` (n
    positions).  With `teacher_labels` (B, N) the context label at each
    step is the gold next label; otherwise the decoder feeds its own
    argmax predictions.  Returns (states, log_probs, predictions)."""
    return _decode(enc, n, params, mode, teacher_labels, params.dec_bw, params.dec_bw_h0,
                   params.out_bw_w, params.out_bw_b,
                   lambda at, state: [at(enc), state], reverse=True)


def decode_forward(
    enc: Tensor,
    n: int,
    bw_states: Tensor,
    params: ModelParameters,
    mode: Mode,
    teacher_labels: np.ndarray | None = None,
):
    """Left-to-right decoding over encoder states and the right-context
    states produced by `decode_backward`."""
    if bw_states.values.shape[0] != enc.values.shape[0]:
        raise ContractError(
            f"{enc.values.shape[0]} encoder rows but {bw_states.values.shape[0]} backward-state rows"
        )
    return _decode(enc, n, params, mode, teacher_labels, params.dec_fw, params.dec_fw_h0,
                   params.out_fw_w, params.out_fw_b,
                   lambda at, state: [state, at(enc), at(bw_states)], reverse=False)


def combine(log_probs_fw: Tensor, log_probs_bw: Tensor) -> tuple[Tensor, np.ndarray]:
    """Mean of the two log-probability rows (the log of the geometric mean
    of the distributions, deliberately unnormalised) and its argmax.  Ties
    resolve to the lowest label id."""
    if log_probs_fw.values.shape != log_probs_bw.values.shape:
        raise ContractError(
            f"combine: shapes differ, {log_probs_fw.values.shape} vs {log_probs_bw.values.shape}"
        )
    combined = ad.scale(ad.add(log_probs_fw, log_probs_bw), 0.5)
    return combined, np.argmax(combined.values, axis=-1)


def predict_batch(params: ModelParameters, batch: list[EncodedSentence]) -> np.ndarray:
    """Greedy inference: (B, N) combined-argmax label ids."""
    enc = encode(batch, params, EVAL)
    n = len(batch[0])
    bw_states, bw_lps, _ = decode_backward(enc, n, params, EVAL)
    _, fw_lps, _ = decode_forward(enc, n, bw_states, params, EVAL)
    combined, _ = combine(fw_lps, bw_lps)
    return _label_argmax(combined.values).reshape(n, len(batch)).T
