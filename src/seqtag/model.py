"""The tagging network: character-aware encoder, two label-context
decoders, and the combined output rule.

All sequence functions take a batch of equal-length sentences and carry
per-position tensors of shape (batch, width).  The encoder and both
decoders run their recurrent layer inside a residual wrapper:

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
from functools import reduce

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

    def apply(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, self.w1), self.b1)), self.w2), self.b2)


def _scan(step, n: int, carry, reverse: bool = False) -> list:
    """The one recurrence loop: `step(i, carry) -> (out_i, carry)` over
    positions 0..n-1, or n-1..0 when `reverse`; outputs in position order."""
    outs = [None] * n
    for i in range(n - 1, -1, -1) if reverse else range(n):
        outs[i], carry = step(i, carry)
    return outs


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

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, self.w_z), ad.matmul(h, self.u_z)), self.b_z))
        r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, self.w_r), ad.matmul(h, self.u_r)), self.b_r))
        cand = ad.tanh(
            ad.add(ad.add(ad.matmul(x, self.w_h), ad.matmul(ad.mul(r, h), self.u_h)), self.b_h)
        )
        return ad.add(ad.mul(ad.add_scalar(ad.scale(z, -1.0), 1.0), h), ad.mul(z, cand))

    def scan(self, xs: list[Tensor], h0: Tensor, reverse: bool = False) -> list[Tensor]:
        """The hidden state at every position of `xs`, starting from `h0`."""
        def step(i, h):
            h = self.step(xs[i], h)
            return h, h
        return _scan(step, len(xs), ad.tile_rows(h0, xs[0].values.shape[0]), reverse)


class BiGru:
    """Forward and backward cells; output per position is [fw_i, bw_i]."""

    def __init__(self, store: _Store, prefix: str, input_dim: int, hidden_dim: int):
        self.fw = GruCell(store, f"{prefix}.fw", input_dim, hidden_dim)
        self.bw = GruCell(store, f"{prefix}.bw", input_dim, hidden_dim)
        self.h0_fw = store.zeros(f"{prefix}.h0_fw", (hidden_dim,))
        self.h0_bw = store.zeros(f"{prefix}.h0_bw", (hidden_dim,))

    def run(self, xs: list[Tensor]) -> list[Tensor]:
        fw_states = self.fw.scan(xs, self.h0_fw)
        bw_states = self.bw.scan(xs, self.h0_bw, reverse=True)
        return [ad.concat([f, b]) for f, b in zip(fw_states, bw_states)]


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
    xs = [ad.take_rows(params.char_table, [row[t] for row in rows]) for t in range(length)]
    total = reduce(ad.add, params.char_bigru.run(xs))
    return ad.tanh(ad.add(ad.matmul(total, params.char_ffnn_w), params.char_ffnn_b))


def _char_position_reps(batch: list[EncodedSentence], params: ModelParameters) -> list[Tensor]:
    """Per-position character representations for the whole batch, words
    grouped by character count so each group runs as one recurrence."""
    n = len(batch[0])
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for b, sent in enumerate(batch):
        for i, chars in enumerate(sent.char_ids):
            if len(chars) == 0:
                raise ContractError(f"empty token at sentence {b} position {i}")
            groups.setdefault(len(chars), []).append((b * n + i, chars))
    reps = []
    row_of = {}
    offset = 0
    for length in sorted(groups):
        members = groups[length]
        reps.append(_char_group_rep(params, [chars for _, chars in members]))
        for k, (flat, _) in enumerate(members):
            row_of[flat] = offset + k
        offset += len(members)
    stacked = ad.stack_rows(reps)
    return [
        ad.take_rows(stacked, [row_of[b * n + i] for b in range(len(batch))])
        for i in range(n)
    ]


def encode(batch: list[EncodedSentence], params: ModelParameters, mode: Mode) -> list[Tensor]:
    """Context-sensitive representation of every position; the batch must
    hold equal-length sentences.  Returns N tensors of shape (B, width)."""
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
    char_reps = _char_position_reps(batch, params)
    lex = []
    for i in range(n):
        parts = [
            ad.take_rows(params.word_table, [sent.word_ids[i] for sent in batch]),
            char_reps[i],
        ]
        parts += [
            ad.take_rows(table, [sent.feat_ids[k][i] for sent in batch])
            for k, table in enumerate(params.feat_tables)
        ]
        lex.append(ad.concat(parts))
    x_hat = [params.enc.enter(x) for x in lex]
    hidden = params.enc.rnn.run(x_hat)
    return [params.enc.leave(h, x, mode) for h, x in zip(hidden, x_hat)]


def _decode(enc_outs: list[Tensor], params: ModelParameters, mode: Mode,
            teacher_labels: np.ndarray | None, block: ResidualBlock, h0: Tensor,
            out_w: Tensor, out_b: Tensor, out_inputs, reverse: bool):
    """One label decoder.  The scan carries the raw hidden state and the
    context label: the gold label under teacher forcing, otherwise the
    decoder's own argmax.  `out_inputs(i, state)` lists what the output
    layer reads at position i.  Returns (states, log_probs, predictions)."""
    n = len(enc_outs)
    n_rows = enc_outs[0].values.shape[0]
    preds = np.zeros((n_rows, n), dtype=np.int64)

    def step(i, carry):
        h, context = carry
        x_hat = block.enter(ad.concat([enc_outs[i], ad.take_rows(params.label_table, context)]))
        h = block.rnn.step(x_hat, h)
        state = block.leave(h, x_hat, mode)
        lp = ad.log_softmax(ad.add(ad.matmul(ad.concat(out_inputs(i, state)), out_w), out_b))
        preds[:, i] = _label_argmax(lp.values)
        context = teacher_labels[:, i] if teacher_labels is not None else preds[:, i]
        return (state, lp), (h, context)

    carry = (ad.tile_rows(h0, n_rows), np.full(n_rows, BOUNDARY, dtype=np.int64))
    outs = _scan(step, n, carry, reverse)
    return [s for s, _ in outs], [lp for _, lp in outs], preds


def decode_backward(
    enc_outs: list[Tensor],
    params: ModelParameters,
    mode: Mode,
    teacher_labels: np.ndarray | None = None,
):
    """Right-to-left decoding.  With `teacher_labels` (B, N) the context
    label at each step is the gold next label; otherwise the decoder feeds
    its own argmax predictions.  Returns (states, log_probs, predictions)."""
    return _decode(enc_outs, params, mode, teacher_labels, params.dec_bw, params.dec_bw_h0,
                   params.out_bw_w, params.out_bw_b,
                   lambda i, state: [enc_outs[i], state], reverse=True)


def decode_forward(
    enc_outs: list[Tensor],
    bw_states: list[Tensor],
    params: ModelParameters,
    mode: Mode,
    teacher_labels: np.ndarray | None = None,
):
    """Left-to-right decoding over encoder states and the right-context
    states produced by `decode_backward`."""
    if len(bw_states) != len(enc_outs):
        raise ContractError(f"{len(enc_outs)} encoder states but {len(bw_states)} backward states")
    return _decode(enc_outs, params, mode, teacher_labels, params.dec_fw, params.dec_fw_h0,
                   params.out_fw_w, params.out_fw_b,
                   lambda i, state: [state, enc_outs[i], bw_states[i]], reverse=False)


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
    bw_states, bw_lps, _ = decode_backward(enc, params, EVAL)
    _, fw_lps, _ = decode_forward(enc, bw_states, params, EVAL)
    n_rows = enc[0].values.shape[0]
    preds = np.zeros((n_rows, len(enc)), dtype=np.int64)
    for i in range(len(enc)):
        combined, _ = combine(fw_lps[i], bw_lps[i])
        preds[:, i] = _label_argmax(combined.values)
    return preds
