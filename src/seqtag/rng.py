"""Deterministic pseudo-random numbers from a splitmix-style 64-bit state.

Every source of randomness in the package (parameter initialisation,
dropout masks, batch shuffling, corpus synthesis) draws from one of these
generators, so a single seed fixes a run bit-for-bit.  The update rule is
the classic splitmix64 sequence:

    state  <- state + 0x9E3779B97F4A7C15          (mod 2^64)
    output <- mix(state)

where mix xors and multiplies with the constants below.  Floats use the
top 53 bits of the output, giving uniform values in [0, 1).
"""

from __future__ import annotations

import sys

import numpy as np

from . import lanes

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# `floats` mixes this many states at a time through two reused buffers;
# _STEPS[i] is (i + 1) * gamma, the offset of the block's i-th state
_BLOCK = 1 << 16
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _draw(out: np.ndarray, state: int, bounds: tuple[float, float] | None):
    """Fill the 1-D `out` with the floats that follow `state`, one block
    at a time, each scaled to `bounds` (lo, hi) while it is in cache.

    A block's top 53 bits convert to float64 exactly through an int64
    view, in the multiply that writes them to `out`.  Scaling by 2^-53 is
    exact, so it folds into the width hi - lo: one multiply gives the
    bits that u * 2^-53 * (hi - lo) gives, unless the folded factor is
    not a normal float, where the two multiplies stay apart."""
    scale, width, lo = 2.0**-53, None, None
    if bounds is not None:
        lo, hi = bounds
        folded = (hi - lo) * 2.0**-53
        if sys.float_info.min <= abs(folded) <= sys.float_info.max:
            scale = folded
        else:
            width = hi - lo
    n = out.size
    z = np.empty(min(n, _BLOCK), dtype=np.uint64)
    shifted = np.empty_like(z)
    for start in range(0, n, _BLOCK):
        size = min(_BLOCK, n - start)
        zb, sb = z[:size], shifted[:size]
        np.add(_STEPS[:size], np.uint64(state), out=zb)
        state = (state + size * _GAMMA) & _MASK
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zb, np.uint64(shift), out=sb)
            zb ^= sb
            zb *= np.uint64(mult)
        np.right_shift(zb, np.uint64(31), out=sb)
        zb ^= sb
        zb >>= np.uint64(11)
        block = out[start:start + size]
        np.multiply(zb.view(np.int64), scale, out=block)
        if width is not None:
            block *= width
        if lo is not None:
            block += lo


class SplitMix64:
    """Seedable generator; `fork` derives an independent child stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def floats(self, n: int) -> np.ndarray:
        """Vectorised batch of `n` floats, identical to n next_float calls.
        A draw longer than one block is split over two lanes (see
        `lanes`): the state is a counter, so the value at offset o of the
        draw comes from state s + (o + 1) * gamma wherever it is drawn."""
        out = np.empty(n, dtype=np.float64)
        self._fill(out)
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """`floats` scaled to [lo, hi), each block scaled while in cache,
        on two lanes as `floats` is: bit for bit `floats(n) * (hi - lo)
        + lo`, in one multiply where that is exact (see `_draw`)."""
        n = int(np.prod(shape)) if shape else 1
        values = np.empty(n, dtype=np.float64)
        self._fill(values, (lo, hi))
        return values.reshape(shape)

    def _fill(self, out: np.ndarray, bounds: tuple[float, float] | None = None):
        """Fill the 1-D `out` with the next out.size floats, scaled to
        `bounds` when given, the second half on a helper lane when the
        draw is longer than one block."""
        n, state = out.size, self._state
        self._state = (state + n * _GAMMA) & _MASK
        if not lanes.two_lanes(n > _BLOCK):
            _draw(out, state, bounds)
            return
        half = n // 2
        lanes.pair(lambda: _draw(out[:half], state, bounds),
                   lambda: _draw(out[half:], (state + half * _GAMMA) & _MASK, bounds))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())
