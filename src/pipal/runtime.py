"""Shared runtime: sequential fork-join, auxiliary-space metering, splittable RNG.

Every algorithm in this package operates in place on 1-D contiguous numpy
arrays of unsigned 64-bit words.  Auxiliary heap space is counted in 64-bit
words and charged to the active :class:`SpaceMeter` through :func:`alloc` /
:func:`release`; persistent buffers must be charged, while frame-local
numpy temporaries (which live and die LIFO inside a single call) play the
role of stack-allocated space and are not charged.  In-place ("zero heap")
operations additionally restrict themselves to constant-size scratch of at
most ``SCRATCH_WORDS`` words per call.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

WORD = np.uint64
M64 = (1 << 64) - 1
NIL = M64  # shared sentinel for "no pointer" / empty table slot
GOLDEN = 0x9E3779B97F4A7C15
SCRATCH_WORDS = 256

__all__ = [
    "WORD", "M64", "NIL", "SCRATCH_WORDS",
    "as_words",
    "set_num_threads", "num_threads", "parallel_blocks", "fork_join",
    "SpaceMeter", "MeterReport", "meter_scope", "metered", "alloc",
    "alloc_bool", "release", "aux",
    "Rng", "EpsilonConfig", "POWER_ONLY_FRACTION",
    "compact_by_mask",
]


# ---------------------------------------------------------------------------
# Word arrays

def as_words(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is a mutable 1-D contiguous uint64 array."""
    if not isinstance(a, np.ndarray) or a.dtype != WORD or a.ndim != 1:
        raise TypeError("expected a 1-D numpy array of uint64 words")
    if not a.flags.c_contiguous:
        raise TypeError("word arrays must be C-contiguous")
    return a


# ---------------------------------------------------------------------------
# Fork-join
#
# The algorithms are written in the binary fork-join model; these two
# helpers mark where they fork and run the children sequentially, in order.
# Children must still write disjoint locations, as the model requires.
# Threads do not pay here: a thread pool behind them ran at 0.87-1.10x from
# 1 to 2 threads across 12 algorithms (n = 10^6, 2 vCPUs, Python 3.11,
# numpy 2.4).  The thread count is only validated and recorded for reports.

_threads = 1


def set_num_threads(n: int) -> None:
    """Record the thread count that reports carry; execution is sequential."""
    global _threads
    if n < 1:
        raise ValueError("thread count must be >= 1")
    _threads = n


def num_threads() -> int:
    return _threads


def parallel_blocks(lo: int, hi: int, body) -> None:
    """Run ``body(lo, hi)`` over the range [lo, hi) unless it is empty."""
    if hi > lo:
        body(lo, hi)


def fork_join(*thunks):
    """Run the forked thunks in order; returns their results as a tuple."""
    # a list, not a generator: a generator frame per level of a recursion
    # raised the strong ops' traced peak up to 8x
    return tuple([thunk() for thunk in thunks])


# ---------------------------------------------------------------------------
# Space metering

@dataclass
class MeterReport:
    peak_words: int
    budget_words: int
    exceeded: bool


class SpaceMeter:
    """Counts auxiliary heap words held by instrumented operations."""

    def __init__(self) -> None:
        self.current_words = 0
        self.peak_words = 0
        self._lock = threading.Lock()

    def acquire(self, words: int) -> None:
        if words < 0:
            raise ValueError("cannot acquire a negative word count")
        with self._lock:
            self.current_words += words
            if self.current_words > self.peak_words:
                self.peak_words = self.current_words

    def release(self, words: int) -> None:
        with self._lock:
            self.current_words -= words
            if self.current_words < 0:
                raise RuntimeError("space meter released more than acquired")


_meter_stack: list[SpaceMeter] = []


@contextmanager
def metered(meter: SpaceMeter):
    _meter_stack.append(meter)
    try:
        yield meter
    finally:
        _meter_stack.pop()


def _active_meter() -> SpaceMeter | None:
    return _meter_stack[-1] if _meter_stack else None


def meter_scope(meter: SpaceMeter, budget_words: int, body) -> MeterReport:
    """Run ``body`` with ``meter`` active; never aborts on budget overrun."""
    with metered(meter):
        body()
    return MeterReport(
        peak_words=meter.peak_words,
        budget_words=budget_words,
        exceeded=meter.peak_words > budget_words,
    )


def _charge_words(nbytes: int) -> int:
    return (nbytes + 7) // 8


def alloc(n: int, dtype=WORD, fill=None) -> np.ndarray:
    """Allocate a charged auxiliary buffer of ``n`` elements."""
    arr = np.empty(n, dtype=dtype)
    if fill is not None:
        arr.fill(fill)
    m = _active_meter()
    if m is not None:
        m.acquire(_charge_words(arr.nbytes))
    return arr


def alloc_bool(n: int, fill: bool = False) -> np.ndarray:
    return alloc(n, dtype=np.bool_, fill=fill)


def release(arr: np.ndarray) -> None:
    m = _active_meter()
    if m is not None:
        m.release(_charge_words(arr.nbytes))


@contextmanager
def aux(n: int, dtype=WORD, fill=None):
    """Charged auxiliary buffer released on scope exit."""
    arr = alloc(n, dtype=dtype, fill=fill)
    try:
        yield arr
    finally:
        release(arr)


# ---------------------------------------------------------------------------
# Counter-based splittable RNG
#
# value(seed, i) is a pure function, so draws are independent of thread
# count and scheduling.  The mix is the SplitMix64 finalizer over a
# golden-ratio counter stream.

def _mix64_scalar(z: int) -> int:
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> WORD(30))
    z = z * WORD(0xBF58476D1CE4E5B9)
    z = z ^ (z >> WORD(27))
    z = z * WORD(0x94D049BB133111EB)
    return z ^ (z >> WORD(31))


class Rng:
    """Deterministic counter-based random words."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & M64

    def word(self, i: int) -> int:
        return _mix64_scalar(self.seed + (i + 1) * GOLDEN)

    def words(self, lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo + 1, hi + 1, dtype=WORD)
        return _mix64((idx * WORD(GOLDEN)) + WORD(self.seed))

    def words_at(self, idx: np.ndarray) -> np.ndarray:
        z = (idx.astype(WORD) + WORD(1)) * WORD(GOLDEN) + WORD(self.seed)
        return _mix64(z)

    def below(self, i: int, bound: int) -> int:
        # modulo bias is < bound / 2^64, irrelevant at desk scale
        return self.word(i) % bound

    def derive(self, tag: int) -> "Rng":
        return Rng(_mix64_scalar(self.seed ^ _mix64_scalar(tag)))


# ---------------------------------------------------------------------------
# Relaxed-model budgets

POWER_ONLY_FRACTION = 1e-12  # effectively disables the percentage floor


@dataclass(frozen=True)
class EpsilonConfig:
    """Auxiliary-space budget b(n) = max(ceil(n^(1-epsilon)), floor(f*n))."""

    epsilon: float
    prefix_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError("prefix_fraction must lie in (0, 1]")

    def prefix_words(self, n: int) -> int:
        if n < 1:
            return 1
        b = max(math.ceil(n ** (1.0 - self.epsilon)),
                math.floor(self.prefix_fraction * n))
        return min(max(b, 1), n)


# ---------------------------------------------------------------------------
# Shared in-place primitive

def compact_by_mask(arr: np.ndarray, block_mask, lo: int, hi: int) -> int:
    """Stable in-place compaction of arr[lo:hi); returns the end of the kept run.

    ``block_mask(s, e)`` gives the keep mask of arr[s:e] for one block of at
    most SCRATCH_WORDS words; it is read before any element of the block
    moves.  Only one block is held at a time, so the scratch is constant and
    zero-heap operations may use it.
    """
    w = lo
    s = lo
    while s < hi:
        e = min(s + SCRATCH_WORDS, hi)
        idx = np.flatnonzero(block_mask(s, e))
        cnt = len(idx)
        if cnt:
            if w == s and cnt == e - s:
                w = e
            else:
                arr[w:w + cnt] = arr[s:e][idx]
                w += cnt
        s = e
    return w
