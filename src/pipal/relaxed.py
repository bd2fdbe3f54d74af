"""Relaxed in-place algorithms: sublinear auxiliary space via prefix rounds.

Each operation takes an :class:`~pipal.runtime.EpsilonConfig` budget and
keeps its charged auxiliary footprint within a small constant times
``budget.prefix_words(n)``.  Random permutation runs on the deterministic
reservations engine in four storage variants; filter/partition/quicksort
retire one budget-sized prefix per round; merging works on budget-sized
chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detres import (
    LIVELOCK_ROUNDS,
    LivelockError,
    ReservationTable,
    RoundStats,
    run_rounds,
)
from .runtime import (
    NIL,
    SCRATCH_WORDS,
    WORD,
    EpsilonConfig,
    alloc,
    alloc_bool,
    as_words,
    aux,
    release,
)
from .strong import (
    SORT_BASE,
    _check_sorted_run,
    _merge_into,
    _split_point,
    merge_strong,
    rotate,
)

__all__ = [
    "RP_VARIANTS", "make_swap_sequence", "validate_swap_sequence",
    "random_permutation", "decompose_driver",
    "filter_relaxed", "partition_relaxed", "quicksort_relaxed",
    "merge_relaxed", "mergesort_relaxed",
]

DEFAULT_BUDGET = EpsilonConfig(epsilon=0.5)

RP_VARIANTS = ("naive", "flat", "oneres", "final")


# ---------------------------------------------------------------------------
# Swap sequences

def make_swap_sequence(n: int, rng) -> np.ndarray:
    """H with H[i] uniform over [0, i] (0-indexed)."""
    if n == 0:
        return np.empty(0, dtype=WORD)
    words = rng.words(0, n)
    return words % (np.arange(n, dtype=WORD) + WORD(1))


def validate_swap_sequence(h: np.ndarray) -> None:
    as_words(h)
    if len(h) and bool(np.any(h > np.arange(len(h), dtype=WORD))):
        raise ValueError("invalid swap sequence: H[i] must lie in [0, i]")


# ---------------------------------------------------------------------------
# Random permutation (parallel shuffle equivalent to the sequential one)

class _RpClient:
    """Per-variant round callbacks and storage for random permutation.

    Storage per variant: ``naive`` keeps both the reservation values and the
    staged swap targets in hash tables and clears them wholesale; ``flat``
    stages targets in a prefix-sized array; ``oneres`` additionally drops
    the source-side reservation (half-sized table, amended commit rule);
    ``final`` adds a flat array for the reservation slots of this round's
    consecutive fresh ids, leaving the hash table only for out-of-range
    targets, which are deleted individually while the flat array is reset
    wholesale.
    """

    def __init__(self, a: np.ndarray, h: np.ndarray, variant: str, prefix: int,
                 debug_sweep: bool = False):
        self.debug_sweep = debug_sweep
        self.a = a
        self.h = h
        self.variant = variant
        two_res = variant in ("naive", "flat")
        self.rtable = ReservationTable(4 * prefix if two_res else 2 * prefix)
        self.htable = ReservationTable(2 * prefix) if variant == "naive" else None
        self.hcache = alloc(prefix) if variant != "naive" else None
        if variant == "final":
            self.span_cap = prefix + prefix // 4 + 8
            self.dense = alloc(self.span_cap, fill=0)  # slot = 1 + writer id
        else:
            self.span_cap = None
            self.dense = None
        self.dlo = 1
        self.dhi = 0
        self.cursor = len(a) - 1

    def release(self) -> None:
        if self.dense is not None:
            release(self.dense)
        if self.hcache is not None:
            release(self.hcache)
        if self.htable is not None:
            self.htable.release()
        self.rtable.release()

    # -- iterate source: descending ids, self-swaps retired at ingestion
    def next_ids(self, count: int) -> np.ndarray:
        h = self.h
        while count > 0 and self.cursor >= 0:
            hi = self.cursor
            width = self.span_cap if self.span_cap is not None else max(count, 1024)
            lo = max(0, hi - width + 1)
            window = np.arange(hi, lo - 1, -1, dtype=np.int64)
            idx = np.flatnonzero(h[window] != window.astype(WORD))[:count]
            if len(idx):
                ids = window[idx].astype(WORD)
                self.cursor = int(ids[-1]) - 1
                return ids
            self.cursor = lo - 1
        return np.empty(0, dtype=WORD)

    # -- phases
    def _targets(self, view) -> np.ndarray:
        ids = view.ids
        if self.variant == "naive":
            vals, found = self.htable.lookup(ids)
            return vals
        return self.hcache[:len(ids)]

    def reserve(self, view) -> None:
        ids = view.ids
        if self.variant == "naive":
            hv = self.h[ids]
            self.htable.reserve_max(ids, hv)
        else:
            np.take(self.h, ids, out=self.hcache[:len(ids)])
            hv = self.hcache[:len(ids)]

        if self.variant in ("naive", "flat"):
            self.rtable.reserve_max(ids, ids, values_max_first=True)
            self.rtable.reserve_max(hv, ids, values_max_first=True)
            return
        if self.variant == "oneres":
            self.rtable.reserve_max(hv, ids, values_max_first=True)
            return

        # final: fresh ids form a consecutive (descending) key range served
        # by the flat array; only other targets touch the hash table
        fresh = ids[view.new_pos0:]
        if len(fresh):
            self.dhi = int(fresh[0])
            self.dlo = int(fresh[-1])
        else:
            self.dlo, self.dhi = 1, 0
        in_range = (hv >= WORD(self.dlo)) & (hv <= WORD(self.dhi))
        np.maximum.at(self.dense, (WORD(self.dhi) - hv[in_range]).astype(np.int64),
                      ids[in_range] + WORD(1))
        self.rtable.reserve_max(hv[~in_range], ids[~in_range],
                                values_max_first=True)

    def commit(self, view) -> None:
        ids = view.ids
        hv = self._targets(view)

        if self.variant in ("naive", "flat"):
            own_vals, own_found = self.rtable.lookup(ids)
            own_ok = own_found & (own_vals == ids)
            tgt_vals, tgt_found = self.rtable.lookup(hv)
            tgt_ok = tgt_found & (tgt_vals == ids)
        elif self.variant == "oneres":
            own_vals, own_found = self.rtable.lookup(ids)
            own_ok = (~own_found) | (own_vals == ids)
            tgt_vals, tgt_found = self.rtable.lookup(hv)
            tgt_ok = tgt_found & (tgt_vals == ids)
        else:
            own_ok = np.empty(len(ids), dtype=bool)
            stale = ids[:view.new_pos0]
            sv, sf = self.rtable.lookup(stale)
            own_ok[:view.new_pos0] = (~sf) | (sv == stale)
            fresh = ids[view.new_pos0:]
            dv = self.dense[(WORD(self.dhi) - fresh).astype(np.int64)]
            own_ok[view.new_pos0:] = (dv == 0) | (dv == fresh + WORD(1))

            in_range = (hv >= WORD(self.dlo)) & (hv <= WORD(self.dhi))
            tgt_ok = np.empty(len(ids), dtype=bool)
            tdv = self.dense[(WORD(self.dhi) - hv[in_range]).astype(np.int64)]
            tgt_ok[in_range] = tdv == ids[in_range] + WORD(1)
            ov, of = self.rtable.lookup(hv[~in_range])
            tgt_ok[~in_range] = of & (ov == ids[~in_range])

        view.committed[:] = own_ok & tgt_ok

        src = ids[view.committed]
        dst = hv[view.committed]
        tmp = self.a[src]
        self.a[src] = self.a[dst]
        self.a[dst] = tmp

    def clean(self, view) -> None:
        if self.variant == "naive":
            self.htable.clear()
            self.rtable.clear()
        elif self.variant in ("flat", "oneres"):
            self.rtable.clear()
        else:
            # final: wholesale reset of the flat range, targeted hash deletes
            if self.dhi >= self.dlo:
                self.dense[:self.dhi - self.dlo + 1] = 0
            hv = self.hcache[:len(view.ids)]
            out = ~((hv >= WORD(self.dlo)) & (hv <= WORD(self.dhi)))
            self.rtable.delete(hv[out])
        if self.debug_sweep:
            # every slot touched this round must read as empty again
            assert self.rtable.count == 0
            assert bool(np.all(self.rtable.keys == WORD(NIL)))
            if self.dense is not None:
                assert not self.dense.any()


def random_permutation(a: np.ndarray, h: np.ndarray, variant: str = "final",
                       budget: EpsilonConfig = DEFAULT_BUDGET,
                       trace: list | None = None,
                       debug: bool = False) -> RoundStats:
    """Apply the swap sequence in parallel rounds, in place.

    The output equals the sequential shuffle with the same ``h``: rounds
    work on the first pending swaps in sequential order and only commit
    swaps whose source and target reservations both succeeded.
    """
    as_words(a)
    if len(h) != len(a):
        raise ValueError("swap sequence length must match the array")
    validate_swap_sequence(h)
    if variant not in RP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = len(a)
    if n == 0:
        return RoundStats()
    n_iterates = int(np.count_nonzero(h != np.arange(n, dtype=WORD)))
    if n_iterates == 0:
        return RoundStats()
    prefix = budget.prefix_words(n)

    client = _RpClient(a, h, variant, prefix, debug_sweep=debug)
    try:
        stats = run_rounds(n_iterates, prefix, client.reserve, client.commit,
                           client.clean, id_source=client.next_ids, trace=trace)
    finally:
        client.release()
    stats.peak_table_load = client.rtable.peak_load
    return stats


# ---------------------------------------------------------------------------
# Decomposable-property driver

def decompose_driver(n: int, budget_words: int, step,
                     trace: list | None = None) -> RoundStats:
    """Iterate ``step(count_hint) -> retired`` until the problem is empty."""
    if budget_words < 1:
        raise ValueError("budget must be >= 1")
    stats = RoundStats()
    remaining = n
    zero_rounds = 0
    while remaining > 0:
        done = int(step(min(budget_words, remaining)))
        stats.rounds += 1
        stats.committed_per_round.append(done)
        if trace is not None:
            trace.append(done)
        if done <= 0:
            zero_rounds += 1
            if zero_rounds >= LIVELOCK_ROUNDS:
                raise LivelockError(
                    f"step retired nothing for {LIVELOCK_ROUNDS} rounds")
        else:
            zero_rounds = 0
        remaining -= done
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
    n = len(a)
    if n == 0:
        return 0
    b = budget.prefix_words(n)
    state = {"m": 0, "pos": 0}
    with aux(b) as buf:
        def step(hint: int) -> int:
            pos, m = state["pos"], state["m"]
            take = min(hint, n - pos)
            chunk = buf[:take]
            chunk[:] = a[pos:pos + take]
            mask = np.asarray(pred(chunk), dtype=bool)
            tc = int(np.count_nonzero(mask))
            nf = pos - m  # false prefix length so far
            d = min(tc, nf)
            displaced = a[m:m + d].copy()
            np.compress(mask, chunk, out=a[m:m + tc])
            dst0 = max(pos, m + tc)
            a[dst0:dst0 + d] = displaced
            np.compress(~mask, chunk, out=a[dst0 + d:pos + take])
            state["m"] = m + tc
            state["pos"] = pos + take
            return take

        stats = decompose_driver(n, b, step)
    if stats_sink is not None:
        stats_sink.append(stats)
    return state["m"]


def quicksort_relaxed(a: np.ndarray, rng, budget: EpsilonConfig = DEFAULT_BUDGET) -> None:
    """Quicksort over the relaxed partition; segments run one at a time, so
    the peak footprint is a single partition's buffer."""
    as_words(a)
    n = len(a)
    if n < 2:
        return
    stack = [(0, n, 0)]
    while stack:
        lo, hi, salt = stack.pop()
        while hi - lo > SORT_BASE:
            pv = int(a[lo + rng.word(((lo << 21) ^ hi) + salt) % (hi - lo)])
            less = partition_relaxed(a[lo:hi], lambda blk: blk < WORD(pv), budget)
            equal = partition_relaxed(a[lo + less:hi], lambda blk: blk == WORD(pv),
                                      budget)
            left_hi = lo + less
            right_lo = lo + less + equal
            if left_hi - lo < hi - right_lo:
                stack.append((right_lo, hi, salt))
                hi = left_hi
            else:
                stack.append((lo, left_hi, salt))
                lo = right_lo
        if hi - lo > 1:
            a[lo:hi].sort()


# ---------------------------------------------------------------------------
# Merging

def _merge_buffered(a: np.ndarray, split: int) -> None:
    with aux(len(a)) as buf:
        _merge_into(a[:split], a[split:], buf)
        a[:] = buf


def _merge_bisect(a: np.ndarray, split: int, k: int) -> None:
    """Median split by dual binary search + rotation until a subproblem fits
    the three-chunk buffer (the batched regime for small chunk sizes)."""
    n = len(a)
    if split == 0 or split == n:
        return
    if n <= 3 * k:
        _merge_buffered(a, split)
        return
    h = n // 2
    i = _split_point(a, 0, split, n, h)
    j = h - i
    rotate(a[i:split + j], split - i)
    _merge_bisect(a[:h], i, k)
    _merge_bisect(a[h:], split + j - h, k)


class _ChunkStream:
    """Streaming phase over chunk-permuted bodies: two staged input chunks
    plus one output chunk; a full output chunk flushes to the front."""

    def __init__(self, a: np.ndarray, k: int, x_pos: np.ndarray, y_pos: np.ndarray):
        self.a = a
        self.k = k
        self.x_pos = x_pos
        self.y_pos = y_pos
        self.bx = alloc(k)
        self.by = alloc(k)
        self.ob = alloc(k)
        self.xi = 0
        self.yi = 0
        self.bx_lo = k
        self.by_lo = k
        self.out = 0
        self.olen = 0

    def release(self) -> None:
        release(self.ob)
        release(self.by)
        release(self.bx)

    def _load(self, side: str) -> None:
        k = self.k
        if side == "x":
            p = int(self.x_pos[self.xi])
            self.xi += 1
            self.bx[:] = self.a[p * k:(p + 1) * k]
            self.bx_lo = 0
        else:
            p = int(self.y_pos[self.yi])
            self.yi += 1
            self.by[:] = self.a[p * k:(p + 1) * k]
            self.by_lo = 0

    def _reload_empties(self) -> None:
        # eager: a side is restaged the moment it empties, before any flush
        if self.bx_lo == self.k and self.xi < len(self.x_pos):
            self._load("x")
        if self.by_lo == self.k and self.yi < len(self.y_pos):
            self._load("y")

    def _emit(self, vals: np.ndarray) -> None:
        i = 0
        k = self.k
        while i < len(vals):
            t = min(k - self.olen, len(vals) - i)
            self.ob[self.olen:self.olen + t] = vals[i:i + t]
            self.olen += t
            i += t
            if self.olen == k:
                self.a[self.out:self.out + k] = self.ob
                self.out += k
                self.olen = 0

    def run(self) -> None:
        self._reload_empties()
        k = self.k
        while True:
            x_live = self.bx_lo < k
            y_live = self.by_lo < k
            if x_live and y_live:
                xs_all = self.bx[self.bx_lo:]
                ys_all = self.by[self.by_lo:]
                if int(xs_all[-1]) <= int(ys_all[-1]):
                    q = int(np.searchsorted(ys_all, xs_all[-1], side="left"))
                    xs = xs_all
                    ys = ys_all[:q]
                    self.bx_lo = k
                    self.by_lo += q
                else:
                    pcut = int(np.searchsorted(xs_all, ys_all[-1], side="right"))
                    xs = xs_all[:pcut]
                    ys = ys_all
                    self.bx_lo += pcut
                    self.by_lo = k
                merged = np.empty(len(xs) + len(ys), dtype=WORD)
                _merge_into(xs, ys, merged)
                self._reload_empties()
                self._emit(merged)
            elif x_live or y_live:
                rest = (self.bx[self.bx_lo:] if x_live else self.by[self.by_lo:]).copy()
                if x_live:
                    self.bx_lo = k
                else:
                    self.by_lo = k
                self._reload_empties()
                self._emit(rest)
            else:
                break
        if self.olen:
            raise AssertionError("stream ended with a partial output chunk")


def _merge_chunked(a: np.ndarray, split: int, k: int) -> None:
    """Descriptor sort + whole-chunk permutation + 3-chunk streaming merge.

    ``a`` must consist of two sorted runs whose lengths are multiples of k.
    """
    n = len(a)
    cx = split // k
    cy = (n - split) // k
    total = cx + cy
    xlasts = a[k - 1:split:k]
    ylasts = a[split + k - 1:n:k]

    dest = alloc(total)
    dest[:cx] = np.arange(cx, dtype=WORD) + \
        np.searchsorted(ylasts, xlasts, side="left").astype(WORD)
    dest[cx:] = np.arange(cy, dtype=WORD) + \
        np.searchsorted(xlasts, ylasts, side="right").astype(WORD)
    inv = alloc(total)
    inv[dest.astype(np.int64)] = np.arange(total, dtype=WORD)
    visited = alloc_bool(total)
    visited[:] = False

    with aux(k) as buf:
        for b0 in range(total):
            if visited[b0]:
                continue
            visited[b0] = True
            src = int(inv[b0])
            if src == b0:
                continue
            buf[:] = a[b0 * k:(b0 + 1) * k]
            b = b0
            while src != b0:
                a[b * k:(b + 1) * k] = a[src * k:(src + 1) * k]
                visited[src] = True
                b = src
                src = int(inv[b])
            a[b * k:(b + 1) * k] = buf
    release(visited)
    release(inv)

    stream = _ChunkStream(a, k, x_pos=dest[:cx], y_pos=dest[cx:])
    try:
        stream.run()
    finally:
        stream.release()
    release(dest)


def _copy_backward(a: np.ndarray, src: int, dst: int, cnt: int) -> None:
    i = cnt
    while i > 0:
        j = max(i - SCRATCH_WORDS, 0)
        a[dst + j:dst + i] = a[src + j:src + i].copy()
        i = j


def _merge_back_tail(a: np.ndarray, n1: int, p: int) -> None:
    """Merge the sorted suffix a[n1:n1+p] into the sorted prefix a[:n1]."""
    with aux(p) as buf:
        buf[:] = a[n1:n1 + p]
        ins = np.searchsorted(a[:n1], buf, side="left")
        for t in range(p, 0, -1):
            s0 = int(ins[t - 1])
            s1 = int(ins[t]) if t < p else n1
            if s1 > s0:
                _copy_backward(a, s0, s0 + t, s1 - s0)
        a[ins.astype(np.int64) + np.arange(p)] = buf


def merge_relaxed(a: np.ndarray, split: int, budget: EpsilonConfig = DEFAULT_BUDGET,
                  debug: bool = False) -> None:
    """In-place merge of a[0:split) and a[split:n) within the chunk budget."""
    as_words(a)
    n = len(a)
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    if debug:
        _check_sorted_run(a, 0, split)
        _check_sorted_run(a, split, n)
    if split == 0 or split == n or n == 0:
        return
    k = budget.prefix_words(n)
    if n <= 3 * k:
        _merge_buffered(a, split)
        return
    nchunks = (n + k - 1) // k
    if nchunks > k:
        _merge_bisect(a, split, k)
        return

    sx = split % k
    sy = (n - split) % k
    parked = sx + sy
    xbody = split - sx
    nbody = n - parked
    if sx:
        rotate(a[xbody:], sx)  # [X-tail | Y] becomes [Y | X-tail]
    if parked:
        merge_strong(a[nbody:], sy)
    if 0 < xbody < nbody:
        _merge_chunked(a[:nbody], xbody, k)
    if parked:
        _merge_back_tail(a, nbody, parked)


def mergesort_relaxed(a: np.ndarray, budget: EpsilonConfig = DEFAULT_BUDGET) -> None:
    """Mergesort over merge_relaxed; sibling segments run sequentially so the
    peak footprint is the final merge's."""
    as_words(a)
    n = len(a)
    base = max(SORT_BASE, budget.prefix_words(n))

    def rec(lo: int, hi: int) -> None:
        if hi - lo <= base:
            a[lo:hi].sort()
            return
        mid = lo + (hi - lo) // 2
        rec(lo, mid)
        rec(mid, hi)
        merge_relaxed(a[lo:hi], mid - lo, budget)

    if n > 1:
        rec(0, n)
