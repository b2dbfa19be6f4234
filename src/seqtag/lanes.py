"""Two lanes: the second CPU for large products and whole-parameter passes.

The calling thread is lane 0.  Lane 1 is one kept helper thread, started
at the first split and handed one share of work at a time (`pair`); it
runs under the caller's numpy error settings, and an exception it raises
is raised again in the caller.  A share the helper has not claimed by
the time the caller has finished its own, the caller runs itself.
Before the process forks (a `multi_run` pool) the helper is stopped, so
no child inherits it; the next split starts it again.

Two kinds of work split, and either computes the same bytes as on one
lane:

- A large product, `matmul(a, b)`: the rows of a @ b are cut near half,
  at a multiple of `SPLIT_ROWS`, and each lane writes its rows into the
  one output the caller allocates.  A product splits only when each half
  holds more than `SPLIT_MACS` multiply-adds (nothing at desk dims), and
  only while the loaded OpenBLAS runs one thread (`blas_threads`): a
  BLAS on more threads keeps the CPUs busy already, and the rows it
  gives each of its threads depend on the shape.
- A pass that touches every parameter once (the init draw, the L2 value,
  the L2 add into the dense gradients, the clipping norm and the Adam
  update, the last two forming a table's gradient from its scattered rows
  block by block as they go; see `autodiff.RowGradient`): elementwise
  chains, or one sum per tensor (`square_sum` for the norm), over
  independent pieces.  `run` splits the pieces into two contiguous runs
  of about equal entry counts; a piece goes through the same operations
  whichever lane runs it, and per-piece results come back in piece
  order.  A pass splits only when it has blocked work to share (an array
  larger than `BLOCK`, or a draw longer than one generator block).

Either splits only when the process has at least two CPUs of its own:
the CPUs it may run on, divided among the worker processes of a
`multi_run` pool (`share_cpus`).  BLAS threads are not touched.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections.abc import Callable, Sequence

import numpy as np

# Elementwise passes run over row blocks of at most this many entries, so
# that the operands of one chain of operations stay in cache from one
# operation to the next.  Elementwise results do not depend on the blocking.
BLOCK = 1 << 15

# A product splits only when each half holds more than this many
# multiply-adds: above OpenBLAS's small-matrix path (about 10^6), whose
# kernels differ from the large path's, and above desk's largest product
# (a 2000x48x96 tagging product, 4.6M per half).
SPLIT_MACS = 1 << 23
# Rows of a split product are cut at a multiple of this many: so cut, each
# half comes out byte for byte as those rows of the whole product, which
# cuts at multiples of 16 rows do not always do.
SPLIT_ROWS = 24


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
    all (a pool initializer), so that it splits work only when it has two
    CPUs of its own."""
    global _sharers
    _sharers = processes


def two_lanes(shared: bool) -> bool:
    """Whether work splits: it has work to share (`shared`) and two CPUs
    of its own to run on."""
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


def square_sum(x: np.ndarray | Callable[[int, int], np.ndarray], area: np.ndarray,
               size: int | None = None) -> float:
    """float(np.multiply(x, x).sum()), bit for bit, squared in `area` (at
    least min(size, BLOCK) entries) in leaves of at most `BLOCK` entries.
    `x` is an array, or, given the `size` of the array it stands for, a
    function x(lo, hi) that gives that array's flat entries [lo, hi) (a
    gradient formed where it is read).  numpy sums an array pairwise: n
    entries above 128 split into the first n2 = n // 2 - (n // 2) % 8 and
    the rest, and the two halves' sums are added.  Splitting where numpy
    does leaves every leaf the same sum, and adding the halves in the same
    order the same total."""
    if size is None:
        if x.size <= BLOCK:
            return float(np.multiply(x, x, out=area[:x.size].reshape(x.shape)).sum())
        flat = x.reshape(-1)
        x, size = (lambda lo, hi: flat[lo:hi]), flat.size

    def total(lo: int, hi: int) -> float:
        n = hi - lo
        if n <= BLOCK:
            leaf = x(lo, hi)
            return float(np.multiply(leaf, leaf, out=area[:n]).sum())
        n2 = n // 2
        n2 -= n2 % 8
        return total(lo, lo + n2) + total(lo + n2, hi)

    return total(0, size)


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


class _Helper:
    """The lane-1 thread.  `hand` leaves one piece of work pending and wakes
    the helper, which claims it, runs it and releases `_done`.  Work still
    pending when the caller has finished its own share, the caller takes
    back and runs itself (`result`), so a helper left waiting for a CPU by
    a busy machine delays nothing.  A daemon, so an idle helper never
    holds up interpreter exit."""

    def __init__(self):
        self._mutex = threading.Lock()  # guards `_pending` and `_stopping`
        self._pending = None  # (numpy error settings, work) not yet claimed
        self._stopping = False
        self._outcome = None
        self._wake, self._done = threading.Lock(), threading.Lock()
        self._wake.acquire()
        self._done.acquire()
        self.thread = threading.Thread(target=self._serve, name="seqtag-lane", daemon=True)
        self.thread.start()

    def _signal(self):
        # under `_mutex`: one wake-up at most waits for the helper, which
        # reads whatever is pending when it wakes
        if self._wake.locked():
            self._wake.release()

    def _serve(self):
        while True:
            self._wake.acquire()
            with self._mutex:
                if self._stopping:
                    return
                job, self._pending = self._pending, None
            if job is not None:  # not taken back
                self._outcome = self._run(*job)
                # a closure kept until the next handoff would keep the
                # arrays it reads alive with it
                job = None
                self._done.release()

    @staticmethod
    def _run(errors: dict, work: Callable) -> tuple:
        try:
            with np.errstate(**errors):
                return work(), None
        except BaseException as exc:  # handed to the caller, which raises it
            return None, exc

    def hand(self, work: Callable):
        """Leave work() for the helper, to run under this thread's numpy
        error settings (a new thread starts with numpy's defaults)."""
        with self._mutex:
            self._pending = (np.geterr(), work)
            self._signal()

    def result(self):
        """The value of the work handed last, or its exception raised; run
        here if the helper has not claimed it."""
        with self._mutex:
            job, self._pending = self._pending, None
        if job is not None:
            return job[1]()
        self._done.acquire()
        (value, error), self._outcome = self._outcome, None
        if error is not None:
            raise error
        return value

    def stop(self):
        with self._mutex:
            self._stopping = True
            self._signal()
        self.thread.join()


_helper: _Helper | None = None
# held while the helper works for a caller
_busy = threading.Lock()


def pair(first: Callable, second: Callable) -> tuple:
    """(first(), second()), `second` run on the helper while `first` runs
    on this thread; an exception either raises comes back here.  `second`
    runs here after `first` when the helper has not claimed it by then, or
    works for another caller, or for this one further up its stack."""
    global _helper
    if not _busy.acquire(blocking=False):
        return first(), second()
    try:
        if _helper is None:
            _helper = _Helper()
        _helper.hand(second)
        try:
            mine = first()
        finally:
            theirs = _helper.result()
        return mine, theirs
    finally:
        _busy.release()


def _retire_helper():
    """Stop the helper before the process forks: a child would inherit
    its state but not its thread, and forking a process that runs threads
    is unsafe.  The next split starts a new one."""
    global _helper
    with _busy:
        if _helper is not None:
            _helper.stop()
            _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_retire_helper)


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


# the OpenBLAS libraries the process has loaded, found at the first query
_openblas: list[ctypes.CDLL] | None = None
# `openblas_calls` results by function name: a symbol a library lacks is
# looked up again by ctypes at every ask
_calls: dict[str, list] = {}


def openblas_calls(name: str) -> list:
    """The OpenBLAS function `name` (say "get_num_threads") of every
    OpenBLAS library the process has loaded, found by the file names in
    /proc/self/maps; none where those cannot be read.  Found once per
    name."""
    global _openblas
    if name in _calls:
        return _calls[name]
    if _openblas is None:
        try:
            with open("/proc/self/maps", encoding="utf-8") as maps:
                paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        except OSError:
            paths = set()
        _openblas = []
        for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
            try:
                _openblas.append(ctypes.CDLL(path))
            except OSError:
                continue
    calls = []
    for lib in _openblas:
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}", f"scipy_openblas_{name}64_"):
            call = getattr(lib, symbol, None)
            if call is not None:
                calls.append(call)
                break
    _calls[name] = calls
    return calls


def blas_threads() -> int | None:
    """The most threads a loaded OpenBLAS runs a product on, None when no
    OpenBLAS can be asked."""
    counts = [call() for call in openblas_calls("get_num_threads")]
    return max(counts, default=None)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over 2-D operands, byte for byte.  A large product runs on two
    lanes: each computes a contiguous run of the output's rows into the one
    output the caller allocates (see the module notes for when)."""
    rows, inner = a.shape
    cols = b.shape[1]
    # one comparison for a product too small to split
    if rows * inner * cols <= 2 * SPLIT_MACS:
        return a @ b
    half = SPLIT_ROWS * round(rows / (2 * SPLIT_ROWS))
    if (min(half, rows - half) * inner * cols <= SPLIT_MACS or not two_lanes(True)
            or blas_threads() != 1):
        return a @ b
    out = np.empty((rows, cols), np.result_type(a, b))
    pair(lambda: np.matmul(a[:half], b, out=out[:half]),
         lambda: np.matmul(a[half:], b, out=out[half:]))
    return out
