"""The round driver, the deterministic-reservations engine and a write-max
reservation table.

:func:`decompose_driver` is the one round loop behind every relaxed
algorithm: it retires a budget-sized prefix per round until nothing is
left, raises :class:`LivelockError` after :data:`LIVELOCK_ROUNDS` rounds in
a row that retire nothing, and adds its round count to the active space
meter (:func:`pipal.runtime.add_rounds`).  :func:`run_rounds` is one step
of that loop over a packed prefix of pending iterates: refill from the id
source, reserve phase, barrier, commit phase, barrier, cleaning phase, then
failure packing: one :func:`pipal.runtime.keep_block` call over the whole
prefix, which gathers the failed iterates to its front in order.  Phase
callbacks receive the whole active prefix at once and operate on it with
array operations, so results are independent of thread count.  Each
client resolves its own write-max claims: random permutation by one sort
of packed (target, position) words per round, the contractions by
comparing neighbor priorities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import (
    NIL,
    WORD,
    add_rounds,
    alloc,
    alloc_bool,
    keep_block,
    release,
    run_starts,
)

__all__ = ["ReservationTable", "RoundStats", "RoundView", "decompose_driver",
           "run_rounds", "LIVELOCK_ROUNDS", "LivelockError", "arange_source"]

LIVELOCK_ROUNDS = 64


class LivelockError(RuntimeError):
    """No iterate committed for LIVELOCK_ROUNDS consecutive rounds."""


# ---------------------------------------------------------------------------
# Reservation table

class ReservationTable:
    """Word->word map with write-max semantics, kept as one sorted run.

    No library operation uses it: random permutation now sorts its own
    packed claims.  It stays, with its tests, because perfbench's tracer
    patches its ``reserve_max``, ``lookup`` and ``delete`` by name.

    ``keys[:count]`` are the distinct keys in ascending order and
    ``vals[:count]`` their values; the run holds at most ``capacity``
    (below 2^32) keys and has no empty slots.  A batch update sorts the
    batch with the live run and keeps, per key, the maximum of the stored
    and all written values, which is exactly the effect of concurrent
    compare-and-swap max loops.
    """

    def __init__(self, capacity: int) -> None:
        cap = int(capacity)
        if cap >= 1 << 32:
            raise ValueError(f"reservation table capacity {cap} must be "
                             "below 2^32")
        self.capacity = cap
        self.keys = alloc(cap)
        self.vals = alloc(cap)
        self.count = 0
        self.peak_load = 0.0

    def release(self) -> None:
        release(self.keys)
        release(self.vals)

    def reserve_max(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Per key, set the value to the max of the stored and written
        values; raise ``RuntimeError`` and keep the run as it was if more
        than ``capacity`` distinct keys would result."""
        if not len(keys):
            return
        c = self.count
        if c:
            keys = np.concatenate((self.keys[:c], keys))
            values = np.concatenate((self.vals[:c], values))
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(run_starts(keys))
        m = len(starts)
        if m > self.capacity:
            raise RuntimeError("reservation table overfull; presize the table")
        self.vals[:m] = np.maximum.reduceat(values[order], starts)
        self.keys[:m] = keys[starts]
        self.count = m
        self.peak_load = max(self.peak_load, m / self.capacity)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, found) for a batch of keys; absent keys get NIL.

        The batch is sorted first: on a random batch, a sorted search into
        the run is about three times cheaper than an unsorted one."""
        c = self.count
        if not c:
            return np.full(len(keys), NIL, dtype=WORD), np.zeros(len(keys), bool)
        order = np.argsort(keys)
        pos = np.searchsorted(self.keys[:c], keys[order])
        np.minimum(pos, c - 1, out=pos)
        slot = np.empty_like(pos)
        slot[order] = pos
        found = self.keys[slot] == keys
        return np.where(found, self.vals[slot], WORD(NIL)), found

    def delete(self, keys: np.ndarray) -> None:
        """Remove the given keys from the run."""
        c = self.count
        keep = ~np.isin(self.keys[:c], keys)
        m = int(np.count_nonzero(keep))
        self.vals[:m] = self.vals[:c][keep]
        self.keys[:m] = self.keys[:c][keep]
        self.count = m

    def clear(self) -> None:
        self.count = 0


# ---------------------------------------------------------------------------
# Round engine

@dataclass
class RoundStats:
    """One driver run: its rounds and the iterates it retired."""

    rounds: int = 0
    total_committed: int = 0


@dataclass
class RoundView:
    """State handed to the phase callbacks for one round."""

    ids: np.ndarray        # active iterates, packed order (failures first)
    committed: np.ndarray  # bool, all False on entry; reserve may fill it,
                           # commit leaves the committed iterates set


def arange_source(n: int):
    """Default iterate source: ids 0..n-1 in ascending sequential order."""
    state = {"next": 0}

    def source(count: int) -> np.ndarray:
        lo = state["next"]
        hi = min(lo + count, n)
        state["next"] = hi
        return np.arange(lo, hi, dtype=WORD)

    return source


def decompose_driver(n: int, budget_words: int, step) -> RoundStats:
    """Run ``step(count_hint) -> retired`` rounds until all ``n`` are retired.

    This is the one round loop: every round retires part of a budget-sized
    prefix (``count_hint`` is ``min(budget_words, remaining)``).  It raises
    :class:`LivelockError` after :data:`LIVELOCK_ROUNDS` consecutive rounds
    that retire nothing, and ``RuntimeError`` if the steps retire more than
    ``n`` in total.  A finished run adds its rounds to the active meter.
    """
    if budget_words < 1:
        raise ValueError("budget must be >= 1")
    rounds = 0
    remaining = n
    zero_rounds = 0
    while remaining > 0:
        done = int(step(min(budget_words, remaining)))
        rounds += 1
        if done <= 0:
            zero_rounds += 1
            if zero_rounds >= LIVELOCK_ROUNDS:
                raise LivelockError(
                    f"no iterate retired for {LIVELOCK_ROUNDS} rounds "
                    f"({remaining} remain); the step cannot make progress")
        else:
            zero_rounds = 0
        remaining -= done
    if remaining < 0:
        raise RuntimeError(f"steps retired {n - remaining} of {n} iterates")
    add_rounds(rounds)
    return RoundStats(rounds, n)


def run_rounds(n_iterates: int, prefix_size: int, reserve, commit, clean,
               id_source=None) -> RoundStats:
    """Drive reserve/commit/clean rounds until all iterates are retired.

    Each phase receives a :class:`RoundView` whose ``committed`` mask starts
    all False; ``reserve`` may fill it, and ``commit`` leaves it holding the
    iterates that committed.  Failures are packed in order and the prefix
    is refilled from ``id_source`` (default: ascending ids), which must
    yield exactly ``n_iterates`` ids, each committing once; ``RuntimeError``
    reports a source that yields too few or too many.
    """
    if prefix_size < 1:
        raise ValueError("prefix size must be >= 1")
    source = id_source if id_source is not None else arange_source(n_iterates)
    prefix = max(1, min(prefix_size, n_iterates)) if n_iterates else 1

    ids = alloc(prefix)
    committed = alloc_bool(prefix)
    state = {"fill": 0}

    def step(_hint: int) -> int:
        fill = state["fill"]
        fresh = source(prefix - fill)
        ids[fill:fill + len(fresh)] = fresh
        fill += len(fresh)
        del fresh  # free the source's array before the phases allocate
        if fill == 0:
            raise RuntimeError("id source ran dry before every iterate "
                               "committed")
        view = RoundView(ids=ids[:fill], committed=committed[:fill])
        view.committed[:] = False
        reserve(view)
        commit(view)
        clean(view)
        state["fill"] = keep_block(ids, lambda s, e: ~committed[s:e], None,
                                   0, 0, fill)
        return fill - state["fill"]

    try:
        stats = decompose_driver(n_iterates, prefix, step)
        if state["fill"] or len(source(1)):
            raise RuntimeError(f"id source yielded more than {n_iterates} "
                               "iterates")
    finally:
        release(committed)
        release(ids)
    return stats
