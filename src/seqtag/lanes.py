"""Two lanes for the passes that touch every parameter once.

The init draw, the L2 value and gradient, the clipping norm and the
Adam update do no GEMM: each is a chain of elementwise operations, or
one sum per tensor, over independent pieces, and on one core it runs at
memory bandwidth.  `run` splits the pieces of
such a pass into two contiguous runs of about equal entry counts; the
calling thread works through the first while a helper thread works
through the second.  A piece goes through the same operations whichever
lane runs it, and per-piece results come back in piece order, so what a
pass computes does not depend on the lanes, byte for byte.

A pass splits only when it has blocked work to share (an array larger
than `BLOCK`, or a draw longer than one generator block) and the
process has at least two CPUs of its own: the CPUs it may run on,
divided among the worker processes of a `multi_run` pool (`share_cpus`).
The helper is started for the pass and joined before the pass returns,
under the caller's numpy error settings: no thread outlives a pass, so a
forked worker or interpreter exit never meets one.  BLAS threads are not
touched.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Sequence

import numpy as np

# Elementwise passes run over row blocks of at most this many entries, so
# that the operands of one chain of operations stay in cache from one
# operation to the next.  Elementwise results do not depend on the blocking.
BLOCK = 1 << 15


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered outside Linux
        return os.cpu_count() or 1


# Processes of this program that share the usable CPUs: the size of the
# `multi_run` pool this process works in, 1 outside one
_sharers = 1


def share_cpus(processes: int):
    """Record that this process shares its CPUs with `processes` workers in
    all (a pool initializer), so that it splits a pass only when it has
    two CPUs of its own."""
    global _sharers
    _sharers = processes


def two_lanes(shared: bool) -> bool:
    """Whether a pass splits: it has blocked work to share (`shared`) and
    two CPUs of its own to run on."""
    return shared and usable_cpus() // _sharers >= 2


def blocked(sizes: Sequence[int]) -> bool:
    """Whether a pass over arrays of `sizes` entries has blocked work: an
    array larger than `BLOCK`."""
    return max(sizes, default=0) > BLOCK


def row_blocks(shapes) -> list[tuple[int, slice | None, int]]:
    """The pieces of an elementwise pass over arrays of `shapes`, in order:
    (array index, rows, entries).  An array that fits in one block is one
    piece (rows None); a larger one is cut into row slices of at most
    `BLOCK` entries, or of one row when a row is wider."""
    pieces = []
    for i, shape in enumerate(shapes):
        size = math.prod(shape)
        if size <= BLOCK:
            pieces.append((i, None, size))
            continue
        width = size // shape[0]
        step = max(1, BLOCK // width)
        for lo in range(0, shape[0], step):
            hi = min(lo + step, shape[0])
            pieces.append((i, slice(lo, hi), (hi - lo) * width))
    return pieces


def cut(sizes: Sequence[int]) -> int:
    """Index k that parts pieces of `sizes` entries into [:k] and [k:] with
    entry counts as near equal as whole pieces allow."""
    half = sum(sizes) / 2
    total = 0
    for k, size in enumerate(sizes):
        if total + size > half:
            return k + 1 if total + size - half < half - total else k
        total += size
    return len(sizes)


def pair(first: Callable, second: Callable) -> tuple:
    """(first(), second()), `second` run on a helper thread while `first`
    runs on this one.  The helper runs under this thread's numpy error
    settings (a new thread starts with numpy's defaults); it is joined
    before this returns, and an exception it raised is raised here."""
    outcome = {}
    errors = np.geterr()

    def helper():
        try:
            with np.errstate(**errors):
                outcome["value"] = second()
        except BaseException as exc:  # handed to the caller, which raises it
            outcome["error"] = exc

    thread = threading.Thread(target=helper, name="seqtag-lane")
    thread.start()
    try:
        mine = first()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return mine, outcome["value"]


def run(work: Callable[[int, int, int], list], sizes: Sequence[int], shared: bool) -> list:
    """`work(lo, hi, lane)` over the pieces [lo, hi) of a pass whose pieces
    hold `sizes` entries, returning a list of per-piece results.  On one
    lane (see `two_lanes`) that is work(0, n, 0); on two, lane 0 takes the
    pieces before `cut(sizes)` and lane 1, on the helper, the rest.  The
    results are returned in piece order."""
    n = len(sizes)
    if not two_lanes(shared):
        return work(0, n, 0)
    k = cut(sizes)
    first, second = pair(lambda: work(0, k, 0), lambda: work(k, n, 1))
    return first + second
