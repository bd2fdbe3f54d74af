"""Deterministic-reservations round engine and write-max reservation table.

Rounds proceed over a packed prefix of pending iterates: reserve phase,
barrier, commit phase, barrier, cleaning phase, then failure packing and
prefix refill.  Phase callbacks receive the whole active prefix at once and
operate on it with array operations; write-max claims go through
:class:`ReservationTable`, whose batch updates are linearizable per key by
construction, so results are independent of thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .runtime import (
    GOLDEN,
    NIL,
    WORD,
    alloc,
    alloc_bool,
    compact_by_mask,
    release,
)

__all__ = ["ReservationTable", "RoundStats", "RoundView", "run_rounds",
           "LivelockError", "arange_source"]

LIVELOCK_ROUNDS = 64


class LivelockError(RuntimeError):
    """No iterate committed for LIVELOCK_ROUNDS consecutive rounds."""


# ---------------------------------------------------------------------------
# Reservation table

class ReservationTable:
    """Open-addressed, linear-probed word->word map with write-max semantics.

    Capacity is rounded up to a power of two; the caller must keep the load
    factor at or below one half (the engine pre-sizes tables so that a
    round's keys always fit).  Batch updates apply, per key, the maximum of
    all written values, which is exactly the effect of concurrent
    compare-and-swap max loops.
    """

    MIN_CAPACITY = 8

    def __init__(self, capacity: int) -> None:
        cap = self.MIN_CAPACITY
        while cap < capacity:
            cap <<= 1
        self.capacity = cap
        self._mask = WORD(cap - 1)
        self._shift = WORD(64 - cap.bit_length() + 1)
        self.keys = alloc(cap, fill=NIL)
        self.vals = alloc(cap)
        self.count = 0
        self.peak_load = 0.0

    def release(self) -> None:
        release(self.keys)
        release(self.vals)

    def _home(self, keys: np.ndarray) -> np.ndarray:
        return (keys * WORD(GOLDEN)) >> self._shift

    def _note_load(self) -> None:
        load = self.count / self.capacity
        if load > self.peak_load:
            self.peak_load = load
        if 2 * self.count > self.capacity:
            raise RuntimeError("reservation table overfull; presize the table")

    def reserve_max(self, keys: np.ndarray, values: np.ndarray,
                    values_max_first: bool = False) -> None:
        """Per key, set slot value to the max of existing and written values.

        ``values_max_first`` is a caller promise that duplicate keys carry
        their maximum value at the earliest position (true when values
        arrive in descending order), which saves a sort key.
        """
        if len(keys) == 0:
            return
        if values_max_first:
            order = np.argsort(keys, kind="stable")
            ks = keys[order]
            vs = values[order]
            pick = np.empty(len(ks), dtype=bool)
            pick[0] = True
            pick[1:] = ks[1:] != ks[:-1]
        else:
            order = np.lexsort((values, keys))
            ks = keys[order]
            vs = values[order]
            pick = np.empty(len(ks), dtype=bool)
            pick[:-1] = ks[1:] != ks[:-1]
            pick[-1] = True
        uk = ks[pick]
        uv = vs[pick]

        slot = self._home(uk)
        steps = 0
        while True:
            empty = self.keys[slot] == WORD(NIL)
            if empty.any():
                # claim by write-min on the key word itself: the empty
                # sentinel is the maximum word, so contending distinct keys
                # resolve to the smallest, deterministically
                es = slot[empty]
                np.minimum.at(self.keys, es, uk[empty])
                won = self.keys[es] == uk[empty]
                ws = es[won]
                self.vals[ws] = uv[empty][won]
                self.count += len(ws)
                self._note_load()
            hit = self.keys[slot] == uk
            hs = slot[hit]
            self.vals[hs] = np.maximum(self.vals[hs], uv[hit])
            if hit.all():
                return
            miss = ~hit
            uk = uk[miss]
            uv = uv[miss]
            slot = (slot[miss] + WORD(1)) & self._mask
            steps += 1
            if steps > self.capacity:
                raise RuntimeError("reservation table probe overflow")

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (values, found) for a batch of keys; absent keys get NIL."""
        out = np.full(len(keys), NIL, dtype=WORD)
        found = np.zeros(len(keys), dtype=bool)
        if len(keys) == 0 or self.count == 0:
            return out, found
        slot = self._home(keys)
        cur = self.keys[slot]
        hit = cur == keys
        if hit.any():
            out[hit] = self.vals[slot[hit]]
            found[hit] = True
        pending = np.flatnonzero(~(hit | (cur == WORD(NIL))))
        pslot = slot[pending]
        steps = 0
        while len(pending):
            pslot = (pslot + WORD(1)) & self._mask
            cur = self.keys[pslot]
            hit = cur == keys[pending]
            if hit.any():
                idx = pending[hit]
                out[idx] = self.vals[pslot[hit]]
                found[idx] = True
            live = ~(hit | (cur == WORD(NIL)))
            pending = pending[live]
            pslot = pslot[live]
            steps += 1
            if steps > self.capacity:
                raise RuntimeError("reservation table probe overflow")
        return out, found

    def delete(self, keys: np.ndarray) -> None:
        """Clear the given keys' slots.

        Only valid as part of a cleaning phase that removes every key
        inserted since the last clear, so probe chains need not be repaired.
        """
        if len(keys) == 0 or self.count == 0:
            return
        slot = self._home(keys)
        located: list[np.ndarray] = []
        steps = 0
        pend_keys = keys
        while len(pend_keys):
            cur = self.keys[slot]
            hit = cur == pend_keys
            if hit.any():
                located.append(slot[hit])
            live = ~(hit | (cur == WORD(NIL)))
            pend_keys = pend_keys[live]
            slot = (slot[live] + WORD(1)) & self._mask
            steps += 1
            if steps > self.capacity:
                raise RuntimeError("reservation table probe overflow")
        if located:
            slots = np.unique(np.concatenate(located))
            self.keys[slots] = WORD(NIL)
            self.count -= len(slots)

    def clear(self) -> None:
        self.keys.fill(NIL)
        self.count = 0

    # scalar conveniences
    def put_max(self, key: int, value: int) -> None:
        self.reserve_max(np.array([key], dtype=WORD), np.array([value], dtype=WORD))

    def get(self, key: int) -> int | None:
        vals, found = self.lookup(np.array([key], dtype=WORD))
        return int(vals[0]) if found[0] else None


# ---------------------------------------------------------------------------
# Round engine

@dataclass
class RoundStats:
    rounds: int = 0
    committed_per_round: list[int] = field(default_factory=list)
    peak_table_load: float = 0.0

    @property
    def total_committed(self) -> int:
        return sum(self.committed_per_round)


@dataclass
class RoundView:
    """State handed to the phase callbacks for one round."""

    ids: np.ndarray        # active iterates, packed order (failures first)
    committed: np.ndarray  # bool, filled by the commit callback
    new_pos0: int          # position where this round's fresh iterates begin
    round_index: int


def arange_source(n: int):
    """Default iterate source: ids 0..n-1 in ascending sequential order."""
    state = {"next": 0}

    def source(count: int) -> np.ndarray:
        lo = state["next"]
        hi = min(lo + count, n)
        state["next"] = hi
        return np.arange(lo, hi, dtype=WORD)

    return source


def run_rounds(n_iterates: int, prefix_size: int, reserve, commit, clean,
               id_source=None, trace: list | None = None) -> RoundStats:
    """Drive reserve/commit/clean rounds until all iterates are retired.

    ``reserve``/``clean`` receive a :class:`RoundView`; ``commit`` must fill
    ``view.committed`` for the active prefix.  Failures are packed in order
    and the prefix is refilled from ``id_source`` (default: ascending ids).
    """
    if prefix_size < 1:
        raise ValueError("prefix size must be >= 1")
    source = id_source if id_source is not None else arange_source(n_iterates)
    prefix = max(1, min(prefix_size, n_iterates)) if n_iterates else 1

    ids = alloc(prefix)
    committed = alloc_bool(prefix)
    stats = RoundStats()
    try:
        fill = 0
        zero_rounds = 0
        while True:
            fresh = source(prefix - fill)
            new_pos0 = fill
            if len(fresh):
                ids[fill:fill + len(fresh)] = fresh
                fill += len(fresh)
            if fill == 0:
                break
            view = RoundView(ids=ids[:fill], committed=committed[:fill],
                             new_pos0=new_pos0, round_index=stats.rounds)
            view.committed[:] = False
            reserve(view)
            commit(view)
            clean(view)
            ncommit = int(np.count_nonzero(view.committed))
            stats.rounds += 1
            stats.committed_per_round.append(ncommit)
            if trace is not None:
                trace.append(view.ids[view.committed].copy())
            if ncommit == 0:
                zero_rounds += 1
                if zero_rounds >= LIVELOCK_ROUNDS:
                    raise LivelockError(
                        f"no iterate committed for {LIVELOCK_ROUNDS} rounds "
                        f"({fill} active); the client's commit rule cannot "
                        "make progress")
            else:
                zero_rounds = 0
                fill = compact_by_mask(ids, lambda s, e: ~committed[s:e], 0, fill)
    finally:
        release(committed)
        release(ids)
    return stats
