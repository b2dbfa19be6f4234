"""Reverse-mode differentiation over numpy arrays with an explicit tape.

Tensors are thin wrappers around float64 arrays.  While a `Tape` is
active, every operation whose inputs require gradients appends one entry
(output, inputs, backward rule) in execution order, so the tape is
already topologically sorted; `backward` walks it once in reverse.
Without an active tape the same functions compute values only, which is
how inference runs.

Only leaves (tensors created with `requires_grad=True`, not produced by
an operation) keep a `.grad`, accumulated in place.  Gradients of
intermediate results live only while `backward` needs them.

Shape conventions: parameters and activations are 1-D or 2-D; 2-D
tensors carry batch rows.  The only broadcast supported is adding a 1-D
bias to each row of a 2-D tensor — nothing else in the model needs one.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError
from .rng import SplitMix64

_ids = itertools.count()
_tls = threading.local()

# Verification hook: scales every tanh derivative (the `tanh` op and the
# GRU candidate in `gru_scan`) so the gradient checker can prove it
# detects a wrong derivative.  1.0 in normal use.
_tanh_backward_scale = 1.0


def _active_tape():
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of executed operations for one forward pass."""

    def __init__(self):
        self._entries = []

    def __enter__(self):
        self._prev = _active_tape()
        _tls.tape = self
        return self

    def __exit__(self, *exc):
        _tls.tape = self._prev
        return False

    def __len__(self):
        return len(self._entries)

    @property
    def entries(self):
        return self._entries


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "node_id", "tape", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros(self.values.shape) if requires_grad else None
        self.node_id = next(_ids)
        self.tape = None
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.values.shape}, requires_grad={self.requires_grad})"


def _emit(values, inputs, backward_fn) -> Tensor:
    out = Tensor(values)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape._entries.append((out, inputs, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every leaf reachable from
    `loss`.  Repeated calls accumulate additively."""
    if loss.values.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    tape = loss.tape
    if tape is None:
        raise ContractError("loss was not produced by an operation recorded on a tape")
    pending: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}
    for out, inputs, back_fn in reversed(tape._entries):
        g = pending.pop(out.node_id, None)
        if g is None:
            continue
        for tensor, gi in zip(inputs, back_fn(g)):
            if gi is None or not tensor.requires_grad:
                continue
            if tensor.tape is None:
                tensor.grad += gi
            elif tensor.node_id in pending:
                pending[tensor.node_id] = pending[tensor.node_id] + gi
            else:
                pending[tensor.node_id] = gi


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        return _emit(av + bv, (a, b), lambda g: (g, g))
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        return _emit(av + bv, (a, b), lambda g: (g, g.sum(axis=0)))
    raise DimensionError(f"add: incompatible shapes {av.shape} and {bv.shape}")


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _emit(a.values + c, (a,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise DimensionError(f"mul: incompatible shapes {a.values.shape} and {b.values.shape}")
    av, bv = a.values, b.values
    return _emit(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    return _emit(a.values * c, (a,), lambda g: (g * c,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, so exp never
    overflows; both branches share e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _emit(out, (a,), lambda g: (g * (1.0 - out * out) * _tanh_backward_scale,))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return _emit(a.values * mask, (a,), lambda g: (g * mask,))


def matmul(a: Tensor, b: Tensor, n: int = 1) -> Tensor:
    """a @ b.  With n > 1, a stacks n equal row blocks (positions) and the
    forward multiplies each block on its own: BLAS rounds a GEMM
    differently depending on its shape, so only the per-position shape
    gives the bits of a per-position loop.  The backward multiplies whole
    stacks."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {av.shape} vs {bv.shape}")
    if n < 1 or av.shape[0] % n:
        raise DimensionError(f"matmul: {av.shape[0]} rows do not split into {n} blocks")
    out = np.matmul(av.reshape(n, av.shape[0] // n, -1), bv).reshape(av.shape[0], bv.shape[1])
    return _emit(out, (a, b), lambda g: (g @ bv.T, av.T @ g))


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; all other dimensions must agree."""
    if not parts:
        raise ContractError("concat needs at least one part")
    if len(parts) == 1:
        return parts[0]
    lead = parts[0].values.shape[:-1]
    for p in parts[1:]:
        if p.values.shape[:-1] != lead:
            raise DimensionError(
                f"concat: leading dimensions disagree, {parts[0].values.shape} vs {p.values.shape}"
            )
    widths = [p.values.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    return _emit(np.concatenate([p.values for p in parts], axis=-1), tuple(parts), back)


def stack_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors vertically (equal column counts)."""
    if not parts:
        raise ContractError("stack_rows needs at least one part")
    if len(parts) == 1:
        return parts[0]
    cols = parts[0].values.shape[-1]
    for p in parts:
        if p.values.ndim != 2 or p.values.shape[-1] != cols:
            raise DimensionError(f"stack_rows: expected 2-D with {cols} columns, got {p.values.shape}")
    counts = [p.values.shape[0] for p in parts]
    offsets = np.cumsum([0] + counts)

    def back(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(counts)))

    return _emit(np.concatenate([p.values for p in parts], axis=0), tuple(parts), back)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D tensor; duplicate ids accumulate on backward.
    A leaf source (an embedding table) receives its gradient rows straight
    into `.grad`, so no table-sized array is built."""
    idx = np.asarray(ids, dtype=np.int64)
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-D source, got shape {tv.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= tv.shape[0]):
        raise ContractError(f"take_rows: id out of range 0..{tv.shape[0] - 1}: {int(idx.max())}")

    def back(g):
        if table.tape is None:
            np.add.at(table.grad, idx, g)
            return (None,)
        gt = np.zeros_like(tv)
        np.add.at(gt, idx, g)
        return (gt,)

    return _emit(tv[idx], (table,), back)


def pick(x: Tensor, ids) -> Tensor:
    """Select one column per row of a 2-D tensor: out[b] = x[b, ids[b]]."""
    idx = np.asarray(ids, dtype=np.int64)
    xv = x.values
    if xv.ndim != 2 or idx.shape != (xv.shape[0],):
        raise ContractError(f"pick: need one id per row, got ids {idx.shape} for {xv.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= xv.shape[1]):
        raise ContractError(f"pick: column id out of range 0..{xv.shape[1] - 1}: {int(idx.max())}")
    rows = np.arange(xv.shape[0])

    def back(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, (rows, idx), g)
        return (gx,)

    return _emit(xv[rows, idx], (x,), back)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Broadcast a 1-D tensor to n identical rows."""
    if v.values.ndim != 1:
        raise DimensionError(f"tile_rows needs a 1-D tensor, got shape {v.values.shape}")
    return _emit(np.tile(v.values, (n, 1)), (v,), lambda g: (g.sum(axis=0),))


def tensor_sum(a: Tensor) -> Tensor:
    av = a.values
    return _emit(np.asarray(av.sum()), (a,), lambda g: (np.broadcast_to(g, av.shape),))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log softmax along the last axis, max-shifted for stability."""
    xv = x.values
    if xv.shape[-1] < 1:
        raise DimensionError("log_softmax needs at least one entry per row")
    if not np.all(np.isfinite(xv)):
        raise NumericError("log_softmax: input contains NaN or infinity")
    shifted = xv - xv.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def back(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _emit(out, (x,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardise the last axis (population variance), then scale and shift."""
    xv = x.values
    n = xv.shape[-1]
    if n < 2:
        raise DimensionError(f"layer_norm needs >= 2 features, got {n}")
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({n},), got {gain.values.shape} and {bias.values.shape}"
        )
    mu = xv.mean(axis=-1, keepdims=True)
    centred = xv - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv_std
    gv = gain.values

    def back(g):
        dgain = (g * xhat).sum(axis=0) if g.ndim == 2 else g * xhat
        dbias = g.sum(axis=0) if g.ndim == 2 else g
        dxhat = g * gv
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return (dx, np.asarray(dgain), np.asarray(dbias))

    return _emit(xhat * gv + bias.values, (x, gain, bias), back)


def block_sum(x: Tensor, n: int) -> Tensor:
    """Sum of the n equal row blocks of x, added in block order:
    x[0:B] + x[B:2B] + ... with B = rows / n."""
    xv = x.values
    if n < 1 or xv.shape[0] % n:
        raise DimensionError(f"block_sum: {xv.shape[0]} rows do not split into {n} blocks")
    blocks = xv.reshape(n, xv.shape[0] // n, *xv.shape[1:])
    out = blocks[0].copy()
    for block in blocks[1:]:
        out += block
    return _emit(out, (x,), lambda g: (np.concatenate([g] * n),))


def gru_scan(x: Tensor, h0: Tensor, w: tuple[Tensor, Tensor, Tensor],
             u: tuple[Tensor, Tensor, Tensor], b: tuple[Tensor, Tensor, Tensor],
             n: int, reverse: bool = False) -> Tensor:
    """A whole GRU recurrence as one tape entry.

    `x` (n*B, D) stacks n positions of B rows, row i*B + b being position
    i; `h0` (B, H) is the initial state; `w`, `u` and `b` are the
    (z, r, candidate) input weights, recurrent weights and biases.  Each
    step computes

        z = sigmoid((x W_z + h U_z) + b_z), r likewise,
        c = tanh((x W_h + (r*h) U_h) + b_h),  h' = (1 - z) h + z c

    over positions 0..n-1, or n-1..0 when `reverse`.  The x W products of
    every position are taken before the loop, block by block (the GEMM
    shapes of a per-position step, see `matmul`).  Returns the (n*B, H)
    states in position order.  The backward pass is backpropagation
    through time; the weight gradients come from whole-stack GEMMs."""
    xv = x.values
    rows = xv.shape[0]
    hid = h0.values.shape[-1]
    if (xv.ndim != 2 or n < 1 or rows % n or h0.values.shape != (rows // n, hid)
            or any(t.values.shape != (xv.shape[1], hid) for t in w)
            or any(t.values.shape != (hid, hid) for t in u)
            or any(t.values.shape != (hid,) for t in b)):
        raise DimensionError(
            f"gru_scan: x {xv.shape} over {n} positions, h0 {h0.values.shape}, "
            f"w {[t.values.shape for t in w]}, u {[t.values.shape for t in u]}, "
            f"b {[t.values.shape for t in b]}"
        )
    bsz = rows // n
    (u_z, u_r, u_h), (b_z, b_r, b_h) = (t.values for t in u), (t.values for t in b)
    xw_z, xw_r, xw_h = (np.matmul(xv.reshape(n, bsz, -1), t.values) for t in w)
    prev, states, zs, rs, cands = (np.empty((n, bsz, hid)) for _ in range(5))
    order = range(n - 1, -1, -1) if reverse else range(n)
    h = h0.values
    for i in order:
        prev[i] = h
        z = zs[i] = _sigmoid((xw_z[i] + h @ u_z) + b_z)
        r = rs[i] = _sigmoid((xw_r[i] + h @ u_r) + b_r)
        c = cands[i] = np.tanh((xw_h[i] + (r * h) @ u_h) + b_h)
        h = states[i] = (1.0 - z) * h + z * c

    def back(g):
        g = g.reshape(n, bsz, hid)
        da = np.empty((n, bsz, 3 * hid))
        u_zr = np.concatenate([u_z, u_r], axis=1)
        dh = np.zeros((bsz, hid))
        for i in reversed(order):
            dh = dh + g[i]
            z, r, c, hp = zs[i], rs[i], cands[i], prev[i]
            dc = dh * z * (1.0 - c * c) * _tanh_backward_scale
            drh = dc @ u_h.T
            da[i, :, :hid] = dh * (c - hp) * z * (1.0 - z)
            da[i, :, hid:2 * hid] = drh * hp * r * (1.0 - r)
            da[i, :, 2 * hid:] = dc
            dh = dh * (1.0 - z) + drh * r + da[i, :, :2 * hid] @ u_zr.T
        da = da.reshape(rows, 3 * hid)
        dx = da @ np.concatenate([t.values for t in w], axis=1).T
        dw = xv.T @ da
        flat_prev = prev.reshape(rows, hid)
        du_zr = flat_prev.T @ da[:, :2 * hid]
        du_h = (rs.reshape(rows, hid) * flat_prev).T @ da[:, 2 * hid:]
        db = da.sum(axis=0)
        parts = [slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, 3 * hid)]
        return (dx, dh, *(dw[:, k] for k in parts), du_zr[:, :hid], du_zr[:, hid:], du_h,
                *(db[k] for k in parts))

    return _emit(states.reshape(rows, hid), (x, h0, *w, *u, *b), back)


def dropout(x: Tensor, p: float, training: bool, rng: SplitMix64 | None,
            n: int = 1, reverse: bool = False) -> Tensor:
    """Inverted dropout: zero with probability p and rescale survivors by
    1/(1-p) in training mode; identity in evaluation mode.  With `reverse`
    the masks of x's n row blocks are drawn last block first, the order of
    a loop from position n-1 down to 0."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs a generator")
    keep = rng.floats(x.values.size) >= p
    if reverse:
        keep = keep.reshape(n, -1)[::-1]
    factor = keep.reshape(x.values.shape) / (1.0 - p)
    return _emit(x.values * factor, (x,), lambda g: (g * factor,))


@contextmanager
def corrupt_tanh_backward(factor: float = 1.01):
    """Deliberately mis-scale the tanh derivative. Only for proving the
    finite-difference checker catches a broken backward rule."""
    global _tanh_backward_scale
    _tanh_backward_scale = factor
    try:
        yield
    finally:
        _tanh_backward_scale = 1.0


# ---------------------------------------------------------------------------
# finite differences


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        value = value.values
    return float(np.asarray(value))


def numeric_gradient(f, tensor: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. tensor's entries."""
    return numeric_gradients(lambda: (f(),), tensor, h)[0]


def numeric_gradients(f, tensor: Tensor, h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of each scalar in the sequence f()
    returns, all from the same evaluations of f."""
    flat = tensor.values.reshape(-1)
    rows = []
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = [_scalar(v) for v in f()]
        flat[i] = orig - h
        down = [_scalar(v) for v in f()]
        flat[i] = orig
        rows.append([(u - d) / (2.0 * h) for u, d in zip(up, down)])
    if not rows:
        return [np.zeros(tensor.values.shape) for _ in f()]
    return [np.array(col).reshape(tensor.values.shape) for col in zip(*rows)]


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max element-wise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
