"""Strong in-place algorithms: zero auxiliary heap, logarithmic recursion.

Operations here never allocate through the space meter; per-call scratch is
bounded by ``runtime.SCRATCH_WORDS`` and is treated as stack space.  The
default element operation is addition mod 2^64 (``op=None``); any associative
python callable may be supplied instead, at reduced speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .runtime import (
    M64,
    SCRATCH_WORDS,
    WORD,
    as_words,
    compact_by_mask,
    fork_join,
    parallel_blocks,
)

__all__ = [
    "ScanResult", "reduce", "rotate", "scan", "scan_blocked",
    "filter_kway", "partition_unstable", "quicksort_strong",
    "merge_strong", "mergesort_strong",
    "set_union", "set_intersect", "set_difference",
]

SCAN_BASE = 256       # switch to a sequential in-place scan below this size
SORT_BASE = 64
REDUCE_GRAIN = 8192
TAG = 1 << 63         # mark bit used by the set operations
UNTAG = WORD(TAG ^ M64)


# ---------------------------------------------------------------------------
# Reduce and rotate

def reduce(a: np.ndarray, op=None, identity: int = 0) -> int:
    """Fold the array with an associative op; the array is not modified."""
    as_words(a)

    if op is None:
        def rec(s: int, t: int) -> int:
            if t - s <= REDUCE_GRAIN:
                return int(np.sum(a[s:t], dtype=WORD)) if t > s else 0
            mid = s + (t - s) // 2
            left, right = fork_join(lambda: rec(s, mid), lambda: rec(mid, t))
            return (left + right) & M64
        return rec(0, len(a)) if len(a) else identity & M64

    def rec_op(s: int, t: int) -> int:
        n = t - s
        if n == 1:
            return int(a[s])
        mid = s + n // 2
        left, right = fork_join(lambda: rec_op(s, mid), lambda: rec_op(mid, t))
        return op(left, right)

    return rec_op(0, len(a)) if len(a) else identity


def _reverse(a: np.ndarray, s: int, t: int) -> None:
    """Reverse a[s:t] in place with constant scratch per step."""
    half = (t - s) // 2

    def body(ls: int, le: int) -> None:
        i = ls
        while i < le:
            j = min(i + SCRATCH_WORDS, le)
            left = a[s + i:s + j]
            right = a[t - j:t - i]
            tmp = left.copy()
            left[:] = right[::-1]
            right[:] = tmp[::-1]
            i = j

    parallel_blocks(0, half, body)


def rotate(a: np.ndarray, o: int) -> None:
    """Left-rotate in place: output[i] = input[(i + o) mod n] (triple reversal)."""
    as_words(a)
    n = len(a)
    if not 0 <= o <= n:
        raise ValueError("offset must lie in [0, n]")
    if o == 0 or o == n or n < 2:
        return
    _reverse(a, 0, o)
    _reverse(a, o, n)
    _reverse(a, 0, n)


# ---------------------------------------------------------------------------
# Scan (recursive up-sweep / down-sweep, all partials kept inside the array)

@dataclass
class ScanResult:
    array: np.ndarray
    total: int


def _up_sweep_add(a: np.ndarray, s: int, t: int, base: int) -> None:
    # inclusive positions [s, t]
    if t - s + 1 <= base:
        np.cumsum(a[s:t + 1], dtype=WORD, out=a[s:t + 1])
        return
    mid = (s + t) // 2
    fork_join(lambda: _up_sweep_add(a, s, mid, base),
              lambda: _up_sweep_add(a, mid + 1, t, base))
    a[t] = WORD((int(a[t]) + int(a[mid])) & M64)


def _down_sweep_add(a: np.ndarray, s: int, t: int, p: int, base: int) -> None:
    if t - s + 1 <= base:
        block = a[s:t + 1]
        tmp = block.copy()
        block[0] = WORD(p)
        if t > s:
            block[1:] = tmp[:-1] + WORD(p)
        return
    mid = (s + t) // 2
    left_sum = int(a[mid])
    fork_join(lambda: _down_sweep_add(a, s, mid, p, base),
              lambda: _down_sweep_add(a, mid + 1, t, (p + left_sum) & M64, base))


def _up_sweep_op(a: np.ndarray, s: int, t: int, op) -> None:
    if s == t:
        return
    mid = (s + t) // 2
    fork_join(lambda: _up_sweep_op(a, s, mid, op),
              lambda: _up_sweep_op(a, mid + 1, t, op))
    a[t] = WORD(op(int(a[mid]), int(a[t])) & M64)


def _down_sweep_op(a: np.ndarray, s: int, t: int, p: int, op) -> None:
    if s == t:
        a[s] = WORD(p & M64)
        return
    mid = (s + t) // 2
    left_sum = int(a[mid])
    fork_join(lambda: _down_sweep_op(a, s, mid, p, op),
              lambda: _down_sweep_op(a, mid + 1, t, op(p, left_sum), op))


def scan(a: np.ndarray, op=None, identity: int = 0,
         base: int = SCAN_BASE) -> ScanResult:
    """Exclusive in-place scan; returns the rewritten array and the total."""
    as_words(a)
    n = len(a)
    if n == 0:
        return ScanResult(a, identity & M64 if op is None else identity)
    if op is None:
        _up_sweep_add(a, 0, n - 1, base)
        total = int(a[n - 1])
        _down_sweep_add(a, 0, n - 1, 0, base)
        return ScanResult(a, total)
    _up_sweep_op(a, 0, n - 1, op)
    total = int(a[n - 1])
    _down_sweep_op(a, 0, n - 1, identity, op)
    return ScanResult(a, total)


def _ex_scan_view(v: np.ndarray) -> int:
    """In-place exclusive scan of a (possibly strided) view; returns its total."""
    n = len(v)
    if n == 1:
        total = int(v[0])
        v[0] = 0
        return total
    mid = n // 2
    tl = _ex_scan_view(v[:mid])
    tr = _ex_scan_view(v[mid:])
    v[mid:] += WORD(tl)
    return (tl + tr) & M64


def scan_blocked(a: np.ndarray, op=None, identity: int = 0,
                 block: int = SCAN_BASE) -> ScanResult:
    """Blocked scan: sequential per-block pass, scan over block sums, offset add.

    Same contract as :func:`scan`; for the generic-op path it simply defers
    to :func:`scan` with base case 1.
    """
    as_words(a)
    n = len(a)
    if n == 0:
        return ScanResult(a, identity & M64 if op is None else identity)
    if op is not None:
        return scan(a, op, identity, base=1)
    if n <= block:
        return scan(a, base=block)

    nfull = n // block

    def sweep(bs: int, be: int) -> None:
        for b in range(bs, be):
            s = b * block
            np.cumsum(a[s:s + block], dtype=WORD, out=a[s:s + block])

    parallel_blocks(0, nfull, sweep)

    tail = nfull * block
    if tail < n:
        np.cumsum(a[tail:], dtype=WORD, out=a[tail:])

    # exclusive scan over the last element of each full block, in place
    full_total = _ex_scan_view(a[block - 1::block][:nfull])

    def offsets(bs: int, be: int) -> None:
        for b in range(bs, be):
            s = b * block
            seg = a[s:s + block]
            basev = int(seg[-1])
            tmp = seg.copy()
            seg[0] = WORD(basev)
            seg[1:] = tmp[:-1] + WORD(basev)
        return

    parallel_blocks(0, nfull, offsets)

    total = full_total
    if tail < n:
        seg = a[tail:]
        tail_total = int(seg[-1])
        tmp = seg.copy()
        seg[0] = WORD(full_total)
        if len(seg) > 1:
            seg[1:] = tmp[:-1] + WORD(full_total)
        total = (full_total + tail_total) & M64
    return ScanResult(a, total)


# ---------------------------------------------------------------------------
# Filter / partition / quicksort

def _count_pred(a: np.ndarray, s: int, t: int, pred) -> int:
    cnt = 0
    while s < t:
        e = min(s + SCRATCH_WORDS, t)
        cnt += int(np.count_nonzero(pred(a[s:e])))
        s = e
    return cnt


def _compact_pred(a: np.ndarray, s: int, t: int, pred) -> int:
    """Stable in-place compaction of a[s:t] by pred; returns the kept run's end."""
    return compact_by_mask(a, lambda bs, be: pred(a[bs:be]), s, t)


def _copy_forward(a: np.ndarray, src: int, dst: int, cnt: int) -> None:
    """Copy a[src:src+cnt] to a[dst:dst+cnt] where dst <= src (overlap-safe)."""
    if dst == src or cnt == 0:
        return
    i = 0
    while i < cnt:
        j = min(i + SCRATCH_WORDS, cnt)
        a[dst + i:dst + j] = a[src + i:src + j]
        i = j


_FILTER_BATCH = SCRATCH_WORDS  # chunks moved together in one parallel step


def filter_kway(a: np.ndarray, pred, n: int | None = None) -> int:
    """Stable in-place filter: kept elements end up in a[0:m); returns m.

    Splits the array into ~sqrt(n) chunks handled one batch at a time; all
    chunks of a batch whose destinations precede the batch source are moved
    in one parallel step.
    """
    as_words(a)
    n = len(a) if n is None else n
    if n == 0:
        return 0
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    chunk = (n + k - 1) // k
    nchunks = (n + chunk - 1) // chunk

    m = 0
    c = 0
    while c < nchunks:
        jcap = min(_FILTER_BATCH, nchunks - c)
        counts = [0] * jcap

        def count_body(i0: int, i1: int) -> None:
            for t in range(i0, i1):
                s = (c + t) * chunk
                counts[t] = _count_pred(a, s, min(s + chunk, n), pred)

        parallel_blocks(0, jcap, count_body)

        csum = [0] * (jcap + 1)
        for t in range(jcap):
            csum[t + 1] = csum[t] + counts[t]

        first_src = c * chunk
        # binary search: largest j with every batched destination left of the
        # batch's first source element
        lo_j, hi_j = 1, jcap
        while lo_j < hi_j:
            mid = (lo_j + hi_j + 1) // 2
            if m + csum[mid] <= first_src:
                lo_j = mid
            else:
                hi_j = mid - 1
        j = lo_j if m + csum[lo_j] <= first_src else 0

        if j == 0:
            # lone chunk, ordered overlap-safe move
            s = c * chunk
            e = min(s + chunk, n)
            cnt = _compact_pred(a, s, e, pred) - s
            _copy_forward(a, s, m, cnt)
            m += cnt
            c += 1
            continue

        def move_body(i0: int, i1: int) -> None:
            for t in range(i0, i1):
                s = (c + t) * chunk
                e = min(s + chunk, n)
                cnt = _compact_pred(a, s, e, pred) - s
                _copy_forward(a, s, m + csum[t], cnt)

        parallel_blocks(0, j, move_body)
        m += csum[j]
        c += j
    return m


def _block_partition(a: np.ndarray, s: int, e: int, pred) -> int:
    """Rearrange a[s:e] (one scratch block) as [true | false]; returns #true."""
    seg = a[s:e]
    mask = np.asarray(pred(seg), dtype=bool)
    ti = np.flatnonzero(mask)
    if len(ti) == e - s:
        return len(ti)
    fi = np.flatnonzero(~mask)
    tmp = seg.copy()
    seg[:len(ti)] = tmp[ti]
    seg[len(ti):] = tmp[fi]
    return len(ti)


def _swap_ranges(a: np.ndarray, p: int, q: int, cnt: int) -> None:
    """Swap a[p:p+cnt] with a[q:q+cnt]; ranges must be disjoint."""
    i = 0
    while i < cnt:
        j = min(i + SCRATCH_WORDS, cnt)
        tmp = a[p + i:p + j].copy()
        a[p + i:p + j] = a[q + i:q + j]
        a[q + i:q + j] = tmp
        i = j


def _partition_range(a: np.ndarray, lo: int, hi: int, pred) -> int:
    """Unstable in-place partition of a[lo:hi); returns count of true elements."""
    w = lo
    s = lo
    while s < hi:
        e = min(s + SCRATCH_WORDS, hi)
        t = _block_partition(a, s, e, pred)
        if t:
            if w + t <= s:
                _swap_ranges(a, w, s, t)
            elif w < s:
                rotate(a[w:s + t], s - w)
            w += t
        s = e
    return w - lo


def partition_unstable(a: np.ndarray, pred, n: int | None = None) -> int:
    """Unstable partition: pred-true elements first, multiset preserved."""
    as_words(a)
    n = len(a) if n is None else n
    if n == 0:
        return 0
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    chunk = max((n + k - 1) // k, SCRATCH_WORDS)

    # chunks partitioned with intra-chunk parallelism is pointless below a
    # chunk's size; partition each chunk, then fold its true-prefix leftward
    m = 0
    s = 0
    while s < n:
        e = min(s + chunk, n)
        t = _partition_range(a, s, e, pred)
        if t:
            if m + t <= s:
                _swap_ranges(a, m, s, t)
            elif m < s:
                rotate(a[m:s + t], s - m)
            m += t
        s = e
    return m


def quicksort_strong(a: np.ndarray, rng) -> None:
    """In-place quicksort over unstable partition with random pivots.

    Recursion depth is capped at 4*log2(n); a segment exceeding the cap
    restarts with a fresh pivot stream.
    """
    as_words(a)
    n = len(a)
    if n < 2:
        return
    limit = 4 * max(1, math.ceil(math.log2(n)))

    def sort_segment(lo: int, hi: int, depth: int, attempt: int) -> None:
        while hi - lo > SORT_BASE:
            if depth > limit:
                attempt += 1
                depth = 0
            pv = int(a[lo + rng.word(((lo << 21) ^ hi) + attempt * 0x9E37) % (hi - lo)])
            less = partition_unstable(a[lo:hi], lambda b: b < WORD(pv))
            equal = partition_unstable(a[lo + less:hi], lambda b: b == WORD(pv))
            left_hi = lo + less
            right_lo = lo + less + equal
            depth += 1
            if left_hi - lo < hi - right_lo:
                fork_join(lambda s=lo, t=left_hi, d=depth, at=attempt:
                          sort_segment(s, t, d, at))
                lo = right_lo
            else:
                fork_join(lambda s=right_lo, t=hi, d=depth, at=attempt:
                          sort_segment(s, t, d, at))
                hi = left_hi
        if hi - lo > 1:
            a[lo:hi].sort()

    sort_segment(0, n, 0, 0)


# ---------------------------------------------------------------------------
# Merging and mergesort (dual binary search + rotation)

def _merge_into(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Stable merge of sorted x, y into out; equal keys taken from x first."""
    px = np.arange(len(x), dtype=np.int64) + np.searchsorted(y, x, side="left")
    py = np.arange(len(y), dtype=np.int64) + np.searchsorted(x, y, side="right")
    out[px] = x
    out[py] = y


def _merge_base(a: np.ndarray, lo: int, mid: int, hi: int) -> None:
    scratch = a[lo:hi].copy()
    _merge_into(scratch[:mid - lo], scratch[mid - lo:], a[lo:hi])


def _split_point(a: np.ndarray, lo: int, mid: int, hi: int, h: int) -> int:
    """Smallest i with i + (h-i) = h low elements, equal keys taken from the left."""
    na = mid - lo
    nb = hi - mid
    ilo = max(0, h - nb)
    ihi = min(na, h)
    while ilo < ihi:
        im = (ilo + ihi) // 2
        jm = h - im
        # i too small iff the right run still holds an element that must be low
        if jm > 0 and im < na and a[mid + jm - 1] >= a[lo + im]:
            ilo = im + 1
        else:
            ihi = im
    return ilo


def _check_sorted_run(a: np.ndarray, lo: int, hi: int) -> None:
    if hi - lo > 1 and bool(np.any(a[lo + 1:hi] < a[lo:hi - 1])):
        raise ValueError("unsorted input run")


def merge_strong(a: np.ndarray, split: int, debug: bool = False) -> None:
    """In-place merge of the sorted runs a[0:split) and a[split:n)."""
    as_words(a)
    n = len(a)
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    if debug:
        _check_sorted_run(a, 0, split)
        _check_sorted_run(a, split, n)

    def rec(lo: int, mid: int, hi: int) -> None:
        na = mid - lo
        nb = hi - mid
        if na == 0 or nb == 0:
            return
        if hi - lo <= SCRATCH_WORDS:
            _merge_base(a, lo, mid, hi)
            return
        h = (hi - lo) // 2
        i = _split_point(a, lo, mid, hi, h)
        j = h - i
        rotate(a[lo + i:mid + j], mid - (lo + i))
        cut = lo + h
        fork_join(lambda: rec(lo, lo + i, cut),
                  lambda: rec(cut, mid + j, hi))

    rec(0, split, n)


def mergesort_strong(a: np.ndarray) -> None:
    """Mergesort over merge_strong (O(n log^2 n) work, not work-efficient)."""
    as_words(a)

    def rec(lo: int, hi: int) -> None:
        if hi - lo <= SORT_BASE:
            a[lo:hi].sort()
            return
        mid = lo + (hi - lo) // 2
        fork_join(lambda: rec(lo, mid), lambda: rec(mid, hi))
        merge_strong(a[lo:hi], mid - lo)

    rec(0, len(a))


# ---------------------------------------------------------------------------
# Set operations on sorted duplicate-free runs (63-bit values; the top bit
# marks elements selected for the output)

def _check_set_run(a: np.ndarray, lo: int, hi: int) -> None:
    run = a[lo:hi]
    if len(run) and int(run.max()) & TAG:
        raise ValueError("set operations require 63-bit values")
    if np.any(run[1:] <= run[:-1]):
        raise ValueError("unsorted input run")


def _tag_filter(a: np.ndarray, n: int) -> int:
    m = _compact_pred(a, 0, n, lambda b: (b & WORD(TAG)) != 0)
    s = 0
    while s < m:
        e = min(s + SCRATCH_WORDS, m)
        a[s:e] &= UNTAG
        s = e
    return m


def set_union(a: np.ndarray, split: int, debug: bool = False) -> int:
    """Union of two sorted duplicate-free runs; result in a[0:m), returns m."""
    as_words(a)
    n = len(a)
    if debug:
        _check_set_run(a, 0, split)
        _check_set_run(a, split, n)
    if n == 0:
        return 0
    merge_strong(a, split)

    def tag_first(s: int, e: int) -> None:
        while s < e:
            t = min(s + SCRATCH_WORDS, e)
            block = a[s:t]
            vals = block & UNTAG
            keep = np.empty(t - s, dtype=bool)
            keep[0] = s == 0 or vals[0] != (int(a[s - 1]) & ~TAG)
            keep[1:] = vals[1:] != vals[:-1]
            block |= keep.astype(WORD) << WORD(63)
            s = t

    # sequential left-to-right so the cross-block predecessor is final; the
    # comparison masks tags, so ordering only matters for determinism
    tag_first(0, n)
    return _tag_filter(a, n)


def _tag_matches(a: np.ndarray, probe_lo: int, probe_hi: int,
                 run_lo: int, run_hi: int, keep_found: bool) -> None:
    run = a[run_lo:run_hi]

    def body(s: int, e: int) -> None:
        while s < e:
            t = min(s + SCRATCH_WORDS, e)
            block = a[probe_lo + s:probe_lo + t]
            idx = np.searchsorted(run, block)
            found = (idx < len(run)) & (run[np.minimum(idx, max(len(run) - 1, 0))] == block) \
                if len(run) else np.zeros(t - s, dtype=bool)
            keep = found if keep_found else ~found
            block |= keep.astype(WORD) << WORD(63)
            s = t

    parallel_blocks(0, probe_hi - probe_lo, body)


def set_intersect(a: np.ndarray, split: int, debug: bool = False) -> int:
    """Intersection of two sorted duplicate-free runs; returns result length."""
    as_words(a)
    n = len(a)
    if debug:
        _check_set_run(a, 0, split)
        _check_set_run(a, split, n)
    if split == 0 or split == n:
        return 0
    # probe the smaller run against the larger
    if split <= n - split:
        _tag_matches(a, 0, split, split, n, keep_found=True)
    else:
        _tag_matches(a, split, n, 0, split, keep_found=True)
    return _tag_filter(a, n)


def set_difference(a: np.ndarray, split: int, debug: bool = False) -> int:
    """a[0:split) minus a[split:n); result in a[0:m), returns m."""
    as_words(a)
    n = len(a)
    if debug:
        _check_set_run(a, 0, split)
        _check_set_run(a, split, n)
    if split == 0:
        return 0
    _tag_matches(a, 0, split, split, n, keep_found=False)
    return _tag_filter(a, n)
