"""Shared runtime: sequential ``fork_join``, space metering, splittable RNG,
and the strong block loop with the compaction step that both models run.

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
# The one block constant (32 KiB): it sizes every block loop, sort leaf,
# reduce grain, compaction block and id window, and caps the f*n term of
# the round prefix (EpsilonConfig.round_words).  Any fixed value is O(1)
# scratch; 4096 is the knee of measured times at 2^18-2^20, and 8192
# doubles the strong ops' traced peak for little gain.
SCRATCH_WORDS = 4096

__all__ = [
    "WORD", "M64", "NIL", "SCRATCH_WORDS",
    "as_words", "ix",
    "set_num_threads", "num_threads", "fork_join",
    "SpaceMeter", "MeterReport", "meter_scope", "metered", "add_rounds",
    "alloc", "alloc_bool", "release", "aux",
    "Rng", "EpsilonConfig", "POWER_ONLY_FRACTION",
    "keep_block", "step_blocks", "run_starts",
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


def ix(words: np.ndarray) -> np.ndarray:
    """The int64 view of a word array, for use as a gather or scatter index.

    numpy casts a uint64 index to a fresh intp copy before every gather and
    scatter; an int64 view is used as it is, with no copy.  The view is
    exact only if every id and link in it is below 2^63, and it must be
    taken after NIL is masked out: NIL views as -1, which numpy accepts as
    the last element.  Comparisons stay on the words: numpy compares uint64
    with int64 as float64, which is slower and inexact above 2^53.
    """
    if not isinstance(words, np.ndarray) or words.dtype != WORD:
        raise TypeError("ix expects an array of uint64 words")
    return words.view(np.int64)


# ---------------------------------------------------------------------------
# Fork-join
#
# The algorithms are written in the binary fork-join model; fork_join marks
# where they fork and runs the children sequentially, in order.  Children
# must still write disjoint locations, as the model requires.  Loops over
# blocks are plain loops.  Threads do not pay here: a thread pool behind
# fork_join ran at 0.87-1.10x from 1 to 2 threads across 12 algorithms
# (n = 10^6, 2 vCPUs, Python 3.11, numpy 2.4).  The thread count is only
# validated and recorded for reports.

_threads = 1


def set_num_threads(n: int) -> None:
    """Record the thread count that reports carry; execution is sequential."""
    global _threads
    if n < 1:
        raise ValueError("thread count must be >= 1")
    _threads = n


def num_threads() -> int:
    return _threads


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
    """Counts auxiliary heap words held by instrumented operations, and the
    rounds their round loops ran (:func:`add_rounds`)."""

    def __init__(self) -> None:
        self.current_words = 0
        self.peak_words = 0
        self.rounds = 0
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


def add_rounds(k: int) -> None:
    """Add ``k`` rounds to the active meter; without one, do nothing."""
    m = _active_meter()
    if m is not None:
        with m._lock:
            m.rounds += k


def _charge_words(nbytes: int) -> int:
    return (nbytes + 7) // 8


def alloc(n: int, dtype=WORD) -> np.ndarray:
    """Allocate a charged auxiliary buffer of ``n`` elements."""
    arr = np.empty(n, dtype=dtype)
    m = _active_meter()
    if m is not None:
        m.acquire(_charge_words(arr.nbytes))
    return arr


def alloc_bool(n: int) -> np.ndarray:
    """A charged all-False bitmap of ``n`` bytes."""
    arr = alloc(n, dtype=np.bool_)
    arr.fill(False)
    return arr


def release(arr: np.ndarray) -> None:
    m = _active_meter()
    if m is not None:
        m.release(_charge_words(arr.nbytes))


@contextmanager
def aux(n: int):
    """Charged auxiliary word buffer released on scope exit."""
    arr = alloc(n)
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

    def derive(self, tag: int) -> "Rng":
        return Rng(_mix64_scalar(self.seed ^ _mix64_scalar(tag)))


# ---------------------------------------------------------------------------
# Relaxed-model budgets

POWER_ONLY_FRACTION = 1e-12  # effectively disables the percentage floor


@dataclass(frozen=True)
class EpsilonConfig:
    """Auxiliary-space budget b(n) = max(ceil(n^(1-epsilon)), floor(f*n)).

    ``prefix_words(n)`` is b(n), the budget every relaxed operation is
    charged against.  ``round_words(n)`` is p(n) <= b(n), the prefix of the
    deterministic-reservations rounds: the f*n term is capped at
    SCRATCH_WORDS, so a round's p-word temporaries stay cache-sized, while
    the n^(1-epsilon) term is kept, so rounds stay as wide as the paper's
    span bound needs.
    """

    epsilon: float
    prefix_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError("prefix_fraction must lie in (0, 1]")

    def prefix_words(self, n: int) -> int:
        return self._words(n, math.inf)

    def round_words(self, n: int) -> int:
        return self._words(n, SCRATCH_WORDS)

    def _words(self, n: int, cap: float) -> int:
        """max(ceil(n^(1-epsilon)), min(floor(f*n), cap)), clipped to [1, n]."""
        if n < 1:
            return 1
        b = max(math.ceil(n ** (1.0 - self.epsilon)),
                min(math.floor(self.prefix_fraction * n), cap))
        return min(max(b, 1), n)


# ---------------------------------------------------------------------------
# Shared array primitives

def run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal elements in x."""
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


def keep_block(a: np.ndarray, keep, buf: np.ndarray | None, m: int,
               pos: int, take: int) -> int:
    """Stably compact a[pos:pos+take] onto the m words kept so far in a[:m];
    returns the new m.  ``keep(s, e)`` gives the keep mask of a[s:e].

    The kept words are gathered to a[m:m+cnt], a run that ends below
    a[pos+take-1] unless the block is kept whole onto an undropped a[:pos],
    and such a block moves nothing; so keep(s, e) may also read a[s - 1],
    which still holds its input word.  buf is not used: the gather is a
    frame-local temporary of at most ``take`` words.  The block loops call
    it per block; the round engine calls it once per round over its whole
    prefix (m = pos = 0, buf None) to pack the failed iterates."""
    # nonzero, not flatnonzero: the same list on a 1-D mask, without
    # flatnonzero's ravel and Python wrappers, which on a 512-word mask
    # cost as much again as the search
    idx = keep(pos, pos + take).nonzero()[0]
    cnt = len(idx)
    if cnt and not (m == pos and cnt == take):
        a[m:m + cnt] = a[pos:pos + take][idx]
    return m + cnt


def step_blocks(a: np.ndarray, step, *args) -> int:
    """The strong block loop: run ``step(a, *args, buf, m, pos, take)`` over
    a's ``SCRATCH_WORDS``-word blocks in order through one uncharged
    one-block buffer; return m."""
    n = len(a)
    buf = np.empty(min(SCRATCH_WORDS, n), dtype=WORD)
    m = 0
    for pos in range(0, n, SCRATCH_WORDS):
        m = step(a, *args, buf, m, pos, min(SCRATCH_WORDS, n - pos))
    return m
