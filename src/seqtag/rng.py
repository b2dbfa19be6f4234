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

import numpy as np

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
        """Vectorised batch of `n` floats, identical to n next_float calls."""
        out = np.empty(n, dtype=np.float64)
        for _ in self._fill(out):
            pass
        return out

    def _fill(self, out: np.ndarray):
        """Fill the 1-D `out` with the next out.size floats, one block at
        a time, yielding each block as soon as it is filled."""
        n = out.size
        z = np.empty(min(n, _BLOCK), dtype=np.uint64)
        shifted = np.empty_like(z)
        for start in range(0, n, _BLOCK):
            size = min(_BLOCK, n - start)
            zb, sb = z[:size], shifted[:size]
            np.add(_STEPS[:size], np.uint64(self._state), out=zb)
            self._state = (self._state + size * _GAMMA) & _MASK
            for shift, mult in ((30, _MIX1), (27, _MIX2)):
                np.right_shift(zb, np.uint64(shift), out=sb)
                zb ^= sb
                zb *= np.uint64(mult)
            np.right_shift(zb, np.uint64(31), out=sb)
            zb ^= sb
            zb >>= np.uint64(11)
            block = out[start:start + size]
            np.multiply(zb, 2.0**-53, out=block)
            yield block

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """`floats` scaled to [lo, hi), each block scaled while in cache."""
        n = int(np.prod(shape)) if shape else 1
        values = np.empty(n, dtype=np.float64)
        for block in self._fill(values):
            block *= hi - lo
            block += lo
        return values.reshape(shape)

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
