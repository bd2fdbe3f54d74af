"""Relaxed in-place algorithms: sublinear auxiliary space via prefix rounds.

Each operation takes an :class:`~pipal.runtime.EpsilonConfig` budget and
keeps its charged auxiliary footprint within a small constant times
``budget.prefix_words(n)``.  Random permutation runs on the deterministic
reservations engine over the cache-capped prefix ``budget.round_words(n)``
<= b(n); each round finds its write-max winners with one sort of packed
(target, position) words in one charged buffer.  Filter, partition and
quicksort run the strong steps (compaction, partition, split) through
:func:`_step_rounds`, the relaxed block loop: one b(n)-word block per round
through one charged buffer.  All of them run on :func:`pipal.detres.decompose_driver`, the one
round loop, with its one livelock rule.  Merging is the strong merge's
bisection recursion with max(SCRATCH_WORDS, 3·b(n))-word leaves, each sorted
in place, so the merges charge nothing; mergesort merges every segment with
the whole array's b(n), as quicksort splits with it.
"""

from __future__ import annotations

import numpy as np

from .detres import RoundStats, decompose_driver, run_rounds
from .runtime import (
    SCRATCH_WORDS,
    WORD,
    EpsilonConfig,
    alloc,
    as_words,
    aux,
    ix,
    keep_block,
    release,
    run_starts,
)
from .strong import (
    _check_sorted_run,
    _merge,
    _mergesort,
    _partition_block,
    _quicksort,
    _split_block,
    _run_args,
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

# a round's packed claim: the target above 32 bits, the batch position below
_SHIFT = WORD(32)
_LOW = WORD((1 << 32) - 1)


# ---------------------------------------------------------------------------
# Swap sequences

def make_swap_sequence(n: int, rng) -> np.ndarray:
    """H with H[i] uniform over [0, i] (0-indexed)."""
    if n == 0:
        return np.empty(0, dtype=WORD)
    words = rng.words(0, n)
    return words % (np.arange(n, dtype=WORD) + WORD(1))


def validate_swap_sequence(h: np.ndarray) -> int:
    """Check H[i] <= i over ``SCRATCH_WORDS``-word blocks (so the
    temporaries stay O(1)); return the number of non-self swaps."""
    as_words(h)
    iterates = 0
    pos = np.arange(min(len(h), SCRATCH_WORDS), dtype=WORD)
    for lo in range(0, len(h), SCRATCH_WORDS):
        hb = h[lo:lo + SCRATCH_WORDS]
        at = pos[:len(hb)]
        if bool(np.any(hb > at)):
            raise ValueError("invalid swap sequence: H[i] must lie in [0, i]")
        iterates += len(hb) - int(np.count_nonzero(hb == at))
        pos += WORD(SCRATCH_WORDS)
    return iterates


# ---------------------------------------------------------------------------
# Random permutation (parallel shuffle equivalent to the sequential one)

class _RpClient:
    """Round callbacks and storage for random permutation.

    Each round packs every iterate's claim into one prefix-sized buffer,
    its target above its batch position, and sorts it.  The round's ids
    strictly descend (failures stay in order ahead of the fresh ids, and
    every fresh id is below every earlier one), so each target's run starts
    at its smallest position, which holds its largest id: the write-max
    winner.  An iterate commits when it heads its target's run and no
    iterate targets its own position (a claim there always comes from a
    larger id, since h[j] < j).
    """

    def __init__(self, a: np.ndarray, h: np.ndarray, prefix: int):
        self.a = a
        self.h = h
        self.claims = alloc(prefix)
        self.cursor = len(a) - 1

    def release(self) -> None:
        release(self.claims)

    # -- iterate source: descending ids, self-swaps retired at ingestion
    def next_ids(self, count: int) -> np.ndarray:
        """The next ``count`` non-self swap ids below the cursor, descending
        (fewer only when the ids run out).  The first window is exactly
        ``count`` words; self-swaps in it leave a shortfall, which later
        windows of at least ``SCRATCH_WORDS`` words make up, so a long run
        of self-swaps costs few windows."""
        h = self.h
        parts = []
        width = count
        while count > 0 and self.cursor >= 0:
            hi = self.cursor + 1
            lo = max(0, hi - width)
            idx = (h[lo:hi] != np.arange(lo, hi, dtype=WORD)).nonzero()[0]
            idx = idx[max(0, len(idx) - count):]
            idx += lo
            self.cursor = int(idx[0]) - 1 if len(idx) == count else lo - 1
            parts.append(idx[::-1].view(WORD))
            count -= len(idx)
            width = max(count, SCRATCH_WORDS)
        return np.concatenate(parts) if parts else np.empty(0, dtype=WORD)

    # -- phases
    def reserve(self, view) -> None:
        ids = view.ids
        claims = self.claims[:len(ids)]
        np.take(self.h, ix(ids), out=claims)
        claims <<= _SHIFT
        claims |= np.arange(len(ids), dtype=WORD)
        claims.sort()

    def commit(self, view) -> None:
        ids = view.ids
        claims = self.claims[:len(ids)]
        claimed = view.committed  # by position, until the commit mask
        tgt = claims >> _SHIFT
        # every round id is at least ids[-1], so only the sorted targets'
        # tail from ids[-1] on can name one: search that tail into the
        # ascending ids[::-1] and mark the exact hits.  Every target is
        # below ids[0] (h[j] < j), so each search lands inside ids
        tail = tgt[np.searchsorted(tgt, ids[-1]):]
        at = np.searchsorted(ids[::-1], tail)
        claimed[::-1][at[ids[::-1].take(at) == tail]] = True
        won = claims[run_starts(tgt)]
        # free each temporary early: commit sets rp's traced peak
        del tgt, tail, at
        won = won[~claimed[ix(won & _LOW)]]
        dst = ix(won >> _SHIFT)
        won &= _LOW
        view.committed[:] = False
        view.committed[ix(won)] = True

        src = ix(ids[ix(won)])
        del won
        tmp = self.a[src]
        self.a[src] = self.a[dst]
        self.a[dst] = tmp

    def clean(self, view) -> None:
        pass


def random_permutation(a: np.ndarray, h: np.ndarray, variant: str = "final",
                       budget: EpsilonConfig = DEFAULT_BUDGET) -> RoundStats:
    """Apply the swap sequence in parallel rounds, in place.

    The output equals the sequential shuffle with the same ``h``: rounds
    work on the first pending swaps in sequential order and only commit
    swaps that win their target and whose own position nobody claims.
    Rounds run over p = ``budget.round_words(n)`` <= b(n) ids, and each
    round sorts one p-word buffer of packed claims, so the charged peak is
    2·p + ⌈p/8⌉ words: that buffer, the engine's p-word prefix and its
    p-byte commit mask.  Targets are packed into 32 bits, so ``a`` must
    hold fewer than 2^32 words.
    ``variant`` must be one of :data:`RP_VARIANTS`.
    """
    as_words(a)
    if len(a) >= 1 << 32:
        raise ValueError("random permutation supports fewer than 2^32 "
                         "elements")
    if len(h) != len(a):
        raise ValueError("swap sequence length must match the array")
    if variant not in RP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    prefix = budget.round_words(len(a))
    n_iterates = validate_swap_sequence(h)
    if n_iterates == 0:
        return RoundStats()

    client = _RpClient(a, h, prefix)
    try:
        return run_rounds(n_iterates, prefix, client.reserve, client.commit,
                          client.clean, id_source=client.next_ids)
    finally:
        client.release()


# ---------------------------------------------------------------------------
# Filter / partition / quicksort

def filter_relaxed(a: np.ndarray, pred,
                   budget: EpsilonConfig = DEFAULT_BUDGET) -> int:
    """Stable filter: the strong filter's step in b(n)-word rounds."""
    as_words(a)
    return _step_rounds(a, budget.prefix_words(len(a)), keep_block,
                        lambda s, e: pred(a[s:e]))


def partition_relaxed(a: np.ndarray, pred,
                      budget: EpsilonConfig = DEFAULT_BUDGET) -> int:
    """Unstable partition: the strong partition's step over one b(n)-word
    block per round, preserving the multiset."""
    as_words(a)
    return _step_rounds(a, budget.prefix_words(len(a)), _partition_block, pred)


def _step_rounds(a: np.ndarray, b: int, step, *args) -> int:
    """The relaxed block loop: run ``step(a, *args, buf, m, pos, take)`` over
    one ``b``-word block of ``a`` per round through one charged buffer of
    min(b, len(a)) words (which also covers keep_block's gather); return m."""
    n = len(a)
    if n == 0:
        return 0
    state = {"m": 0, "pos": 0}
    with aux(min(b, n)) as buf:
        def round_step(hint: int) -> int:
            pos = state["pos"]
            take = min(hint, n - pos)
            state["m"] = step(a, *args, buf, state["m"], pos, take)
            state["pos"] = pos + take
            return take

        decompose_driver(n, b, round_step)
    return state["m"]


def quicksort_relaxed(a: np.ndarray, rng,
                      budget: EpsilonConfig = DEFAULT_BUDGET) -> None:
    """The shared quicksort with each segment split by the strong split step
    in b(n)-word rounds, for the whole array's b(n); segments of at most
    max(SCRATCH_WORDS, b(n)) words are sorted directly.  Segments run one at
    a time, so the peak footprint is a single split's buffer.  Every split's
    rounds go to the active meter, so the meter holds the sort's rounds."""
    as_words(a)
    b = budget.prefix_words(len(a))
    _quicksort(a, rng, lambda seg, key, inclusive:
               _step_rounds(seg, b, _split_block, key, inclusive),
               max(SCRATCH_WORDS, b))


# ---------------------------------------------------------------------------
# Merging

def merge_relaxed(a: np.ndarray, split: int, budget: EpsilonConfig = DEFAULT_BUDGET,
                  debug: bool = False) -> None:
    """In-place merge of a[0:split) and a[split:n) with no charged scratch:
    the bisection runs down to leaves of max(SCRATCH_WORDS, 3·b(n)) words,
    each sorted in place (O(B log B) work for a B-word leaf, no heap).  It
    moves O(n·log(n/b(n))) words: the rotations move every word once per
    level."""
    n = _run_args(a, split, debug, _check_sorted_run)
    _merge(a, split, max(SCRATCH_WORDS, 3 * budget.prefix_words(n)))


def mergesort_relaxed(a: np.ndarray, budget: EpsilonConfig = DEFAULT_BUDGET) -> None:
    """The shared mergesort, every merge with max(SCRATCH_WORDS, 3·b(n))-word
    leaves for the whole array's b(n); segments of at most
    max(SCRATCH_WORDS, b(n)) words are sorted directly.  Nothing is charged:
    every leaf sorts in place and the rotations use stack scratch."""
    as_words(a)
    k = budget.prefix_words(len(a))
    leaf = max(SCRATCH_WORDS, 3 * k)
    _mergesort(a, lambda seg, split: _merge(seg, split, leaf),
               max(SCRATCH_WORDS, k))
