"""Relaxed in-place algorithms: sublinear auxiliary space via prefix rounds.

Each operation takes an :class:`~pipal.runtime.EpsilonConfig` budget and
keeps its charged auxiliary footprint within a small constant times
``budget.prefix_words(n)``.  Random permutation runs on the deterministic
reservations engine with one target-keyed reservation table, a sorted
write-max run built by one sort per round; filter,
partition and quicksort retire one budget-sized prefix per round.  All of
them run on :func:`pipal.detres.decompose_driver`, the one round loop, with
its one livelock rule.  Merging is the strong merge's bisection recursion
with 3·b(n)-word buffered leaves, and mergesort merges every segment with
the whole array's b(n), as quicksort partitions with it.
"""

from __future__ import annotations

import numpy as np

from .detres import (
    ReservationTable,
    RoundStats,
    decompose_driver,
    run_rounds,
)
from .runtime import (
    SCRATCH_WORDS,
    WORD,
    EpsilonConfig,
    alloc,
    as_words,
    aux,
    release,
)
from .strong import (
    _check_sorted_run,
    _merge,
    _merge_into,
    _mergesort,
    _quicksort,
    merge_strong,
    rotate,
)

# merge_strong and rotate are unused here; perfbench's tracer patches them
# by name in this module, so they stay importable from it
__all__ = [
    "RP_VARIANTS", "make_swap_sequence", "validate_swap_sequence",
    "random_permutation", "decompose_driver",
    "filter_relaxed", "partition_relaxed", "quicksort_relaxed",
    "merge_relaxed", "mergesort_relaxed", "merge_strong", "rotate",
]

DEFAULT_BUDGET = EpsilonConfig(epsilon=0.5)

RP_VARIANTS = ("final",)


# ---------------------------------------------------------------------------
# Swap sequences

def make_swap_sequence(n: int, rng) -> np.ndarray:
    """H with H[i] uniform over [0, i] (0-indexed)."""
    if n == 0:
        return np.empty(0, dtype=WORD)
    words = rng.words(0, n)
    return words % (np.arange(n, dtype=WORD) + WORD(1))


def validate_swap_sequence(h: np.ndarray) -> None:
    _check_swaps(h, len(h))


def _check_swaps(h: np.ndarray, block: int) -> int:
    """Check H[i] <= i over blocks of ``block`` words (so the temporaries
    stay O(block)); return the number of non-self swaps."""
    as_words(h)
    iterates = 0
    for lo in range(0, len(h), max(block, 1)):
        hb = h[lo:lo + block]
        pos = np.arange(lo, lo + len(hb), dtype=WORD)
        if bool(np.any(hb > pos)):
            raise ValueError("invalid swap sequence: H[i] must lie in [0, i]")
        iterates += len(hb) - int(np.count_nonzero(hb == pos))
    return iterates


# ---------------------------------------------------------------------------
# Random permutation (parallel shuffle equivalent to the sequential one)

class _RpClient:
    """Round callbacks and storage for random permutation.

    Swap targets are staged in a prefix-sized array, and one reservation
    table, a sorted run of at most prefix keys, is keyed by target only: an
    iterate writes its id at its target with write-max.  It commits when
    its target holds its own id and its own position was not claimed as
    anyone's target this round (a claim there always comes from a larger
    id, since h[j] < j).  The run is emptied after each round.
    """

    def __init__(self, a: np.ndarray, h: np.ndarray, prefix: int):
        self.a = a
        self.h = h
        self.rtable = ReservationTable(prefix)
        self.hcache = alloc(prefix)
        self.cursor = len(a) - 1

    def release(self) -> None:
        release(self.hcache)
        self.rtable.release()

    # -- iterate source: descending ids, self-swaps retired at ingestion
    def next_ids(self, count: int) -> np.ndarray:
        h = self.h
        while count > 0 and self.cursor >= 0:
            hi = self.cursor
            lo = max(0, hi - max(count, SCRATCH_WORDS) + 1)
            window = np.arange(hi, lo - 1, -1, dtype=np.int64)
            idx = np.flatnonzero(h[window] != window.astype(WORD))[:count]
            if len(idx):
                ids = window[idx].astype(WORD)
                self.cursor = int(ids[-1]) - 1
                return ids
            self.cursor = lo - 1
        return np.empty(0, dtype=WORD)

    # -- phases
    def reserve(self, view) -> None:
        ids = view.ids
        hv = self.hcache[:len(ids)]
        np.take(self.h, ids, out=hv)
        self.rtable.reserve_max(hv, ids)

    def commit(self, view) -> None:
        ids = view.ids
        hv = self.hcache[:len(ids)]
        own_found = self.rtable.lookup(ids)[1]
        tgt_vals, tgt_found = self.rtable.lookup(hv)
        view.committed[:] = ~own_found & tgt_found & (tgt_vals == ids)

        src = ids[view.committed]
        dst = hv[view.committed]
        tmp = self.a[src]
        self.a[src] = self.a[dst]
        self.a[dst] = tmp

    def clean(self, view) -> None:
        self.rtable.clear()


def random_permutation(a: np.ndarray, h: np.ndarray, variant: str = "final",
                       budget: EpsilonConfig = DEFAULT_BUDGET,
                       trace: list | None = None) -> RoundStats:
    """Apply the swap sequence in parallel rounds, in place.

    The output equals the sequential shuffle with the same ``h``: rounds
    work on the first pending swaps in sequential order and only commit
    swaps whose source and target reservations both succeeded.
    ``variant`` must be one of :data:`RP_VARIANTS`.
    """
    as_words(a)
    if len(h) != len(a):
        raise ValueError("swap sequence length must match the array")
    if variant not in RP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    prefix = budget.prefix_words(len(a))
    n_iterates = _check_swaps(h, prefix)
    if n_iterates == 0:
        return RoundStats()

    client = _RpClient(a, h, prefix)
    try:
        stats = run_rounds(n_iterates, prefix, client.reserve, client.commit,
                           client.clean, id_source=client.next_ids, trace=trace)
    finally:
        client.release()
    stats.peak_table_load = client.rtable.peak_load
    return stats


# ---------------------------------------------------------------------------
# Filter / partition / quicksort

def filter_relaxed(a: np.ndarray, pred, budget: EpsilonConfig = DEFAULT_BUDGET,
                   stats_sink: list | None = None) -> int:
    """Stable filter, one budget-sized prefix per round through a buffer."""
    as_words(a)
    n = len(a)
    if n == 0:
        return 0
    b = budget.prefix_words(n)
    state = {"m": 0, "pos": 0}
    with aux(b) as buf:
        def step(hint: int) -> int:
            pos, m = state["pos"], state["m"]
            take = min(hint, n - pos)
            chunk = a[pos:pos + take]
            mask = np.asarray(pred(chunk), dtype=bool)
            cnt = int(np.count_nonzero(mask))
            np.compress(mask, chunk, out=buf[:cnt])
            a[m:m + cnt] = buf[:cnt]
            state["m"] = m + cnt
            state["pos"] = pos + take
            return take

        stats = decompose_driver(n, b, step)
    if stats_sink is not None:
        stats_sink.append(stats)
    return state["m"]


def partition_relaxed(a: np.ndarray, pred, budget: EpsilonConfig = DEFAULT_BUDGET,
                      stats_sink: list | None = None) -> int:
    """Unstable partition; displaced non-matching elements swap into the
    scanned tail each round, preserving the multiset."""
    as_words(a)
    return _partition_rounds(a, pred, budget.prefix_words(len(a)), stats_sink)


def _partition_rounds(a: np.ndarray, pred, b: int,
                      stats_sink: list | None) -> int:
    """Partition ``a`` by ``pred`` in rounds of ``b`` words through one
    buffer of min(b, len(a)) words; return the number of matches."""
    n = len(a)
    if n == 0:
        return 0
    state = {"m": 0, "pos": 0}
    with aux(min(b, n)) as buf:
        def step(hint: int) -> int:
            pos, m = state["pos"], state["m"]
            take = min(hint, n - pos)
            chunk = buf[:take]
            chunk[:] = a[pos:pos + take]
            mask = np.asarray(pred(chunk), dtype=bool)
            tc = int(np.count_nonzero(mask))
            nf = pos - m  # false prefix length so far
            d = min(tc, nf)
            # the displaced falses move first: their destination lies in
            # [pos, pos + take), already staged in buf, and m + d <= pos
            dst0 = max(pos, m + tc)
            a[dst0:dst0 + d] = a[m:m + d]
            np.compress(mask, chunk, out=a[m:m + tc])
            np.compress(~mask, chunk, out=a[dst0 + d:pos + take])
            state["m"] = m + tc
            state["pos"] = pos + take
            return take

        stats = decompose_driver(n, b, step)
    if stats_sink is not None:
        stats_sink.append(stats)
    return state["m"]


def quicksort_relaxed(a: np.ndarray, rng, budget: EpsilonConfig = DEFAULT_BUDGET,
                      stats_sink: list | None = None) -> None:
    """The shared quicksort with partitions in b(n)-word rounds, for the
    whole array's b(n); segments of at most max(SCRATCH_WORDS, b(n)) words
    are sorted directly.  Segments run one at a time, so the peak footprint
    is a single partition's buffer.  One RoundStats per partition goes to
    ``stats_sink``."""
    as_words(a)
    b = budget.prefix_words(len(a))
    _quicksort(a, rng, lambda seg, pred: _partition_rounds(seg, pred, b, stats_sink),
               max(SCRATCH_WORDS, b))


# ---------------------------------------------------------------------------
# Merging

def _merge_buffered(a: np.ndarray, split: int) -> None:
    with aux(len(a)) as buf:
        _merge_into(a[:split], a[split:], buf)
        a[:] = buf


def merge_relaxed(a: np.ndarray, split: int, budget: EpsilonConfig = DEFAULT_BUDGET,
                  debug: bool = False) -> None:
    """In-place merge of a[0:split) and a[split:n) with at most 3·b(n)
    words of scratch."""
    as_words(a)
    n = len(a)
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    if debug:
        _check_sorted_run(a, 0, split)
        _check_sorted_run(a, split, n)
    _merge_words(a, split, budget.prefix_words(n))


def _merge_words(a: np.ndarray, split: int, k: int) -> None:
    """Merge by the shared bisection recursion down to subproblems of at
    most 3k words, each merged through one buffer of its own length, so the
    peak is 3k words.  It moves O(n·log(n/k)) words: the bisection's
    rotations move every word once per level."""
    _merge(a, split, 3 * k, _merge_buffered)


def mergesort_relaxed(a: np.ndarray, budget: EpsilonConfig = DEFAULT_BUDGET) -> None:
    """The shared mergesort, every merge with 3·b(n)-word leaves for the
    whole array's b(n); segments of at most max(SCRATCH_WORDS, b(n)) words
    are sorted directly, and siblings run in order, so the peak footprint
    is one merge leaf's buffer."""
    as_words(a)
    k = budget.prefix_words(len(a))
    _mergesort(a, lambda seg, split: _merge_words(seg, split, k),
               max(SCRATCH_WORDS, k))
