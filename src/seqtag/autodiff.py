"""Reverse-mode differentiation over numpy arrays with an explicit tape.

Tensors are thin wrappers around float64 arrays.  While a `Tape` is
active, every operation whose inputs require gradients appends one entry
(output, inputs, backward rule) in execution order, so the tape is
already topologically sorted; `backward` walks it once in reverse,
skipping what leads to no leaf that wants a gradient.  A rule is told
which of its inputs are wanted (`rule(g, want)`, one flag per input, as
`ctx.needs_input_grad` in PyTorch) and forms only their gradients.
Without an active tape the same functions compute values only, which is
how inference runs.

Only leaves (tensors created with `requires_grad=True`, not produced by
an operation) keep a `.grad`, accumulated in place.  A leaf holds none
until the first gradient is written to it, so a model that only tags
holds its values alone.  A table above `lanes.BLOCK` entries keeps the
rows `take_rows` scatters into it instead (`RowGradient`), so that a step
builds no table-sized gradient.  Gradients of intermediate results live
only while `backward` needs them.

Shape conventions: parameters and activations are 1-D or 2-D; 2-D
tensors carry batch rows.  The only broadcast supported is adding a 1-D
bias to each row of a 2-D tensor — nothing else in the model needs one.
"""

from __future__ import annotations

import ctypes
import itertools
import threading
from contextlib import contextmanager

import numpy as np

from . import lanes
from .errors import ConfigError, ContractError, DimensionError, NumericError
from .rng import SplitMix64

_ids = itertools.count()
_tls = threading.local()


def _keep_freed_memory() -> bool:
    """Have glibc's allocator keep what the process frees for its next
    allocations, so that a training step reuses the pages the step before
    it freed instead of faulting in fresh ones: blocks up to the 32 MiB
    ceiling come from the heap rather than from one mapping each, and the
    heap is never trimmed.  Larger arrays are still mapped per allocation.
    Every thread allocates from that one heap, so the helper lane (see
    `lanes`) holds no arena of its own.  Returns whether the settings took
    effect; without glibc's `mallopt` nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    # a trim threshold of -1 is the largest size_t: never trim
    return (bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, -1))
            and bool(mallopt(m_arena_max, 1)))


_FREED_MEMORY_KEPT = _keep_freed_memory()

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


class RowGradient:
    """The gradient of a 2-D table as the rows `take_rows` scatters into
    it, plus `l2`·θ once the L2 pass has set `l2`: what a table above
    `lanes.BLOCK` entries keeps instead of a dense `.grad`, as PyTorch's
    `nn.Embedding(sparse=True)` keeps its gradient rows.  Entries are
    formed where they are read, block by block (`form`, `entries`), from
    the table's values at that moment, with the bytes the dense gradient
    would hold: zeros, `np.add.at` of each scatter, then `+= l2·θ`."""

    __slots__ = ("values", "scatters", "l2", "_compact")

    def __init__(self, values: np.ndarray):
        self.values = values
        self.scatters: list[tuple[np.ndarray, np.ndarray]] = []  # (ids, rows), in arrival order
        self.l2 = 0.0
        self._compact = None

    def scatter(self, idx: np.ndarray, g: np.ndarray):
        self.scatters.append((idx, g))
        self._compact = None

    def compact(self) -> "RowGradient":
        """Sum the scatters once: the touched ids, sorted, and their rows,
        each getting the additions, in the order, that `np.add.at` into
        dense zeros gives it.  Call before lanes form from it."""
        if self._compact is None:
            ids = np.unique(np.concatenate([np.empty(0, np.int64)]
                                           + [idx.reshape(-1) for idx, _ in self.scatters]))
            rows = np.zeros((ids.size, self.values.shape[1]))
            for idx, g in self.scatters:
                np.add.at(rows, np.searchsorted(ids, idx), g)
            self._compact = ids, rows
        return self

    def form(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows [lo, hi) of the gradient, written into `out` (hi - lo rows):
        l2·θ + 0.0, the + 0.0 turning -0.0 into 0.0 as 0 + l2·θ does (0.0
        when l2 is 0), plus its sum on a touched row."""
        ids, rows = self.compact()._compact
        if self.l2 == 0.0:
            out.fill(0.0)
        else:
            np.multiply(self.values[lo:hi], self.l2, out=out)
            out += 0.0
        a, b = np.searchsorted(ids, (lo, hi))
        out[ids[a:b] - lo] += rows[a:b]
        return out

    def entries(self, lo: int, hi: int, area: np.ndarray) -> np.ndarray:
        """Flat entries [lo, hi) of the gradient, formed with the whole rows
        that cover them in `area` (at least hi - lo + 2·width entries)."""
        width = self.values.shape[1]
        first, last = lo // width, -(-hi // width)
        formed = self.form(first, last, area[:(last - first) * width].reshape(-1, width))
        return formed.reshape(-1)[lo - first * width:hi - first * width]


class Tensor:
    """A float64 array, and for a leaf its gradient.  `.grad` is None
    until something writes a gradient: `backward` or `zero_grad` creates
    it as zeros on the first write and accumulates into it from then on.
    A 2-D leaf above `lanes.BLOCK` entries without a dense `.grad` keeps
    its gradient as `rows` instead, a `RowGradient` that `zero_grad`
    makes and `take_rows` scatters into; its first dense write (from any
    other op) forms the dense array.  Reading `.grad` forms the dense
    array from those rows and keeps it, so the tensor then takes the
    dense path until `.grad` is set; setting `.grad` drops the rows."""

    __slots__ = ("values", "_grad", "rows", "requires_grad", "node_id", "tape", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self.rows: RowGradient | None = None
        self.node_id = next(_ids)
        self.tape = None
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        if self.rows is not None:
            self._grad = self.rows.form(0, self.values.shape[0], np.empty(self.values.shape))
            self.rows = None
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self._grad = value
        self.rows = None

    def _keeps_rows(self) -> bool:
        v = self.values
        return self._grad is None and v.ndim == 2 and v.size > lanes.BLOCK

    def grad_to_write(self) -> np.ndarray:
        """The dense `.grad`: formed from `rows` if the tensor keeps them,
        created as zeros if no gradient was written yet."""
        if self.grad is None:
            self._grad = np.zeros(self.values.shape)
        return self._grad

    def scatter_rows(self, idx: np.ndarray, g: np.ndarray):
        """Add row g[k] to gradient row idx[k] for every k, as `np.add.at`
        does: into `rows` when the tensor keeps them, else into `.grad`."""
        if self.rows is None and self._keeps_rows():
            self.rows = RowGradient(self.values)
        if self.rows is None:
            np.add.at(self.grad_to_write(), idx, g)
        else:
            self.rows.scatter(idx, g)

    def zero_grad(self):
        """Zero the gradient: fill a dense `.grad`, give a tensor that keeps
        rows empty ones, or create `.grad` as zeros."""
        if self._grad is not None:
            self._grad.fill(0.0)
        elif self._keeps_rows():
            self.rows = RowGradient(self.values)
        else:
            self._grad = np.zeros(self.values.shape)

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
    `loss` that has `requires_grad` now, creating a leaf's `.grad` on its
    first gradient.  Repeated calls accumulate additively.

    A leaf whose `requires_grad` was cleared after the forward pass is
    frozen: a forward sweep of the tape marks the entries whose output
    depends on a leaf that still wants its gradient, and the reverse walk
    runs the backward rules of those entries only.  Every consumer of a
    marked tensor is marked, so each wanted gradient receives the same
    contributions in the same order as in an unpruned walk.

    A rule is called as `rule(g, want)`, `want` holding one flag per
    input: whether it is a wanted leaf or a marked tensor.  At least one
    is set, so a rule of one input always has it wanted.  A rule returns
    None for each unwanted input and skips every product only that input
    needs; a wanted gradient is the same, byte for byte, whatever else is
    wanted.  None for a wanted input means the rule wrote it itself."""
    if loss.values.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    tape = loss.tape
    if tape is None:
        raise ContractError("loss was not produced by an operation recorded on a tape")
    live = set()

    def wanted(t: Tensor) -> bool:
        return t.requires_grad if t.tape is None else t.node_id in live

    for out, inputs, _ in tape._entries:
        if any(map(wanted, inputs)):
            live.add(out.node_id)
    # only marked tensors ever receive a gradient, so only marked entries run
    pending: dict[int, np.ndarray] = (
        {loss.node_id: np.ones_like(loss.values)} if loss.node_id in live else {})
    for out, inputs, back_fn in reversed(tape._entries):
        g = pending.pop(out.node_id, None)
        if g is None:
            continue
        want = tuple(map(wanted, inputs))
        for tensor, w, gi in zip(inputs, want, back_fn(g, want)):
            if gi is None or not w:
                continue
            if tensor.tape is None:
                grad = tensor.grad_to_write()
                grad += gi
            elif tensor.node_id in pending:
                pending[tensor.node_id] = pending[tensor.node_id] + gi
            else:
                pending[tensor.node_id] = gi


# ---------------------------------------------------------------------------
# operations


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape == bv.shape:
        return _emit(av + bv, (a, b), lambda g, want: (g if want[0] else None,
                                                       g if want[1] else None))
    if av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        return _emit(av + bv, (a, b), lambda g, want: (g if want[0] else None,
                                                       g.sum(axis=0) if want[1] else None))
    raise DimensionError(f"add: incompatible shapes {av.shape} and {bv.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise DimensionError(f"mul: incompatible shapes {a.values.shape} and {b.values.shape}")
    av, bv = a.values, b.values
    return _emit(av * bv, (a, b), lambda g, want: (g * bv if want[0] else None,
                                                   g * av if want[1] else None))


def scale(a: Tensor, c: float) -> Tensor:
    return _emit(a.values * c, (a,), lambda g, want: (g * c,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, so exp never
    overflows; both branches share e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.values)
    return _emit(out, (a,), lambda g, want: (g * out * (1.0 - out),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return _emit(out, (a,), lambda g, want: (g * (1.0 - out * out) * _tanh_backward_scale,))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return _emit(a.values * mask, (a,), lambda g, want: (g * mask,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over 2-D operands: one product, however many positions a
    stacks, on two lanes when it is large (see `lanes.matmul`)."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {av.shape} vs {bv.shape}")
    return _emit(lanes.matmul(av, bv), (a, b),
                 lambda g, want: (lanes.matmul(g, bv.T) if want[0] else None,
                                  lanes.matmul(av.T, g) if want[1] else None))


def concat(parts: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along `axis`; all other dimensions must agree."""
    if not parts:
        raise ContractError("concat needs at least one part")
    if len(parts) == 1:
        return parts[0]
    shapes = [p.values.shape for p in parts]
    ndim = len(shapes[0])
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat: axis {axis} out of range for shape {shapes[0]}")
    axis %= ndim

    def others(shape):
        return shape[:axis] + shape[axis + 1:]

    for shape in shapes[1:]:
        if len(shape) != ndim or others(shape) != others(shapes[0]):
            raise DimensionError(
                f"concat: dimensions other than axis {axis} disagree, {shapes[0]} vs {shape}"
            )
    cuts = np.cumsum([shape[axis] for shape in shapes[:-1]])
    return _emit(np.concatenate([p.values for p in parts], axis=axis), tuple(parts),
                 lambda g, want: tuple(gi if w else None
                                       for gi, w in zip(np.split(g, cuts, axis=axis), want)))


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D tensor; duplicate ids accumulate on backward.
    A leaf source (an embedding table) receives its gradient rows through
    `Tensor.scatter_rows`: kept as rows by a table above `lanes.BLOCK`
    entries, added into `.grad` otherwise, so no table-sized array is
    built beyond `.grad`.  Into an intermediate source, ids checked to be
    unique (a permutation) are assigned rather than accumulated: the same
    bytes, without `np.add.at`."""
    idx = np.asarray(ids, dtype=np.int64)
    tv = table.values
    if tv.ndim != 2:
        raise DimensionError(f"take_rows needs a 2-D source, got shape {tv.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= tv.shape[0]):
        raise ContractError(f"take_rows: id out of range 0..{tv.shape[0] - 1}: {int(idx.max())}")

    def back(g, want):
        if table.tape is None:
            table.scatter_rows(idx, g)
            return (None,)
        gt = np.zeros_like(tv)
        if np.bincount(idx, minlength=tv.shape[0]).max(initial=0) <= 1:
            gt[idx] = g
        else:
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

    def back(g, want):
        gx = np.zeros_like(xv)
        np.add.at(gx, (rows, idx), g)
        return (gx,)

    return _emit(xv[rows, idx], (x,), back)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Broadcast a 1-D tensor to n identical rows."""
    if v.values.ndim != 1:
        raise DimensionError(f"tile_rows needs a 1-D tensor, got shape {v.values.shape}")
    return _emit(np.tile(v.values, (n, 1)), (v,), lambda g, want: (g.sum(axis=0),))


def tensor_sum(a: Tensor) -> Tensor:
    av = a.values
    return _emit(np.asarray(av.sum()), (a,), lambda g, want: (np.broadcast_to(g, av.shape),))


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

    def back(g, want):
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

    def back(g, want):
        dx = dgain = dbias = None
        if want[0]:
            dxhat = g * gv
            dx = inv_std * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        if want[1]:
            dgain = np.asarray((g * xhat).sum(axis=0) if g.ndim == 2 else g * xhat)
        if want[2]:
            dbias = np.asarray(g.sum(axis=0) if g.ndim == 2 else g)
        return (dx, dgain, dbias)

    return _emit(xhat * gv + bias.values, (x, gain, bias), back)


def _packed_steps(op: str, running, rows: int) -> list[tuple[int, int, int]]:
    """(first row, end row, row count) of each position of a packed stack
    of `rows` rows; the counts must be at least 1, never grow, and sum to
    `rows`."""
    counts = [int(k) for k in running]
    if (not counts or counts[-1] < 1 or sum(counts) != rows
            or any(a < b for a, b in zip(counts, counts[1:]))):
        raise DimensionError(f"{op}: running counts {counts} do not pack {rows} rows")
    return [(lo, lo + k, k) for lo, k in zip(itertools.accumulate([0] + counts[:-1]), counts)]


def block_sum(x: Tensor, running) -> Tensor:
    """Per-sequence sum over a packed stack (see `gru_scan`): row j of the
    result adds the rows of sequence j, position 0 first."""
    xv = x.values
    steps = _packed_steps("block_sum", running, xv.shape[0])
    out = xv[:steps[0][2]].copy()
    for lo, hi, k in steps[1:]:
        out[:k] += xv[lo:hi]
    return _emit(out, (x,), lambda g, want: (np.concatenate([g[:k] for _, _, k in steps]),))


def gru_scan(x: Tensor, h0: Tensor, w: tuple[Tensor, Tensor, Tensor],
             u: tuple[Tensor, Tensor, Tensor], b: tuple[Tensor, Tensor, Tensor],
             running, reverse: bool = False) -> Tensor:
    """A whole GRU recurrence over a packed stack, as one tape entry.

    `x` (rows, D) is a packed stack: its sequences sorted longest first,
    position i is the next `running[i]` rows, the j-th of them belonging
    to sequence j.  `h0` (running[0], H) holds each sequence's initial
    state; `w`, `u` and `b` are the (z, r, candidate) input weights,
    recurrent weights and biases.  Each step computes

        z = sigmoid((x W_z + h U_z) + b_z), r likewise,
        c = tanh((x W_h + (r*h) U_h) + b_h),  h' = (1 - z) h + z c

    over positions 0, 1, ..., or from the last one down when `reverse`,
    for the sequences the position holds: a reversed scan so reaches each
    sequence at its own last position with its `h0` still in place.  The
    x W products are one GEMM per gate over the whole stack, taken before
    the loop.  Returns the (rows, H) states in stack order.  The backward
    pass is backpropagation through time with whole-stack weight GEMMs.
    Every product goes through `lanes.matmul`, so a large one runs on two
    lanes."""
    xv = x.values
    rows = xv.shape[0]
    hid = h0.values.shape[-1]
    steps = _packed_steps("gru_scan", running, rows)
    bsz = steps[0][2]
    if (xv.ndim != 2 or h0.values.shape != (bsz, hid)
            or any(t.values.shape != (xv.shape[1], hid) for t in w)
            or any(t.values.shape != (hid, hid) for t in u)
            or any(t.values.shape != (hid,) for t in b)):
        raise DimensionError(f"gru_scan: x {xv.shape}, h0 {h0.values.shape}, w {[t.values.shape for t in w]}, "
                             f"u {[t.values.shape for t in u]}, b {[t.values.shape for t in b]}")
    (u_z, u_r, u_h), (b_z, b_r, b_h) = (t.values for t in u), (t.values for t in b)
    xw_z, xw_r, xw_h = (lanes.matmul(xv, t.values) for t in w)
    # every row is written once: by its own position's step
    prev, states, zs, rs, cands = (np.empty((rows, hid)) for _ in range(5))
    if reverse:
        steps.reverse()
    h = h0.values.copy()
    for lo, hi, k in steps:
        hk = h[:k]
        prev[lo:hi] = hk
        z = zs[lo:hi] = _sigmoid((xw_z[lo:hi] + lanes.matmul(hk, u_z)) + b_z)
        r = rs[lo:hi] = _sigmoid((xw_r[lo:hi] + lanes.matmul(hk, u_r)) + b_r)
        c = cands[lo:hi] = np.tanh((xw_h[lo:hi] + lanes.matmul(r * hk, u_h)) + b_h)
        h[:k] = states[lo:hi] = (1.0 - z) * hk + z * c

    def back(g, want):
        da = np.empty((rows, 3 * hid))
        u_zr = np.concatenate([u_z, u_r], axis=1)
        dh = np.zeros((bsz, hid))
        for lo, hi, k in reversed(steps):
            dhk = dh[:k] + g[lo:hi]
            z, r, c, hp = zs[lo:hi], rs[lo:hi], cands[lo:hi], prev[lo:hi]
            dc = dhk * z * (1.0 - c * c) * _tanh_backward_scale
            drh = lanes.matmul(dc, u_h.T)
            da[lo:hi, :hid] = dhk * (c - hp) * z * (1.0 - z)
            da[lo:hi, hid:2 * hid] = drh * hp * r * (1.0 - r)
            da[lo:hi, 2 * hid:] = dc
            dh[:k] = dhk * (1.0 - z) + drh * r + lanes.matmul(da[lo:hi, :2 * hid], u_zr.T)
        thirds = [slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, 3 * hid)]

        def gates(wants, form):
            # the per-gate column blocks of one product, formed if any is wanted
            if not any(wants):
                return [None] * len(wants)
            full = form()
            return [full[..., k] if wk else None for k, wk in zip(thirds, wants)]

        dx = (lanes.matmul(da, np.concatenate([t.values for t in w], axis=1).T)
              if want[0] else None)
        return (dx, dh if want[1] else None,
                *gates(want[2:5], lambda: lanes.matmul(xv.T, da)),
                *gates(want[5:7], lambda: lanes.matmul(prev.T, da[:, :2 * hid])),
                lanes.matmul((rs * prev).T, da[:, 2 * hid:]) if want[7] else None,
                *gates(want[8:], lambda: da.sum(axis=0)))

    return _emit(states, (x, h0, *w, *u, *b), back)


def dropout(x: Tensor, p: float, training: bool, rng: SplitMix64 | None) -> Tensor:
    """Inverted dropout: zero with probability p and rescale survivors by
    1/(1-p) in training mode; identity in evaluation mode.  The mask is
    drawn in row-major order over x, whatever the rows stand for."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs a generator")
    factor = (rng.floats(x.values.size) >= p).reshape(x.values.shape) / (1.0 - p)
    return _emit(x.values * factor, (x,), lambda g, want: (g * factor,))


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
