"""Strong in-place algorithms: zero auxiliary heap, logarithmic recursion.

Operations here never allocate through the space meter; per-call scratch is
bounded by ``runtime.SCRATCH_WORDS`` and is treated as stack space.  Scan and
reduce add mod 2^64 over ``SCRATCH_WORDS``-word blocks; the scan keeps its
block sums inside the array and scans them by the same blocked pass, so it
recurses log_{SCRATCH_WORDS}(n) deep.  Every array pass runs one step,
``runtime.keep_block``, the partition or the split (an in-place selection),
over ``SCRATCH_WORDS`` blocks through ``runtime.step_blocks``; the merge
bisects down to sorted ``SCRATCH_WORDS``-word leaves.  The relaxed model
runs these over larger blocks and leaves.
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
    fork_join,
    keep_block,
    run_starts,
    step_blocks,
)

__all__ = [
    "ScanResult", "reduce", "rotate", "scan", "scan_blocked",
    "filter_kway", "partition_unstable", "quicksort_strong",
    "merge_strong", "mergesort_strong",
    "set_union", "set_intersect", "set_difference",
]


# ---------------------------------------------------------------------------
# Reduce and rotate

def reduce(a: np.ndarray) -> int:
    """Sum of the array mod 2^64, one ``SCRATCH_WORDS``-word block at a
    time; the array is not modified."""
    as_words(a)
    total = 0
    for s in range(0, len(a), SCRATCH_WORDS):
        total += int(np.sum(a[s:s + SCRATCH_WORDS], dtype=WORD))
    return total & M64


def _swap_ranges(a: np.ndarray, p: int, q: int, cnt: int) -> None:
    """Swap a[p:p+cnt] with a[q:q+cnt]; ranges must be disjoint."""
    i = 0
    while i < cnt:
        j = min(i + SCRATCH_WORDS, cnt)
        tmp = a[p + i:p + j].copy()
        a[p + i:p + j] = a[q + i:q + j]
        a[q + i:q + j] = tmp
        i = j


def rotate(a: np.ndarray, o: int) -> None:
    """Left-rotate in place: output[i] = input[(i + o) mod n].

    Block swaps (Gries-Mills) put one side's worth of words in place per
    step while both sides are longer than ``SCRATCH_WORDS``; then the
    shorter side is parked in one scratch block and the longer side shifts
    over it (numpy copies overlapping 1-D slices in the safe direction)."""
    as_words(a)
    n = len(a)
    if not 0 <= o <= n:
        raise ValueError("offset must lie in [0, n]")
    s, m, t = 0, o, n  # rotate a[s:t] left by m - s
    while m - s > SCRATCH_WORDS and t - m > SCRATCH_WORDS:
        if m - s <= t - m:
            _swap_ranges(a, s, m, m - s)  # [A B1 B2] -> [B1 A B2]
            s, m = m, 2 * m - s
        else:
            _swap_ranges(a, 2 * m - t, m, t - m)  # [A1 A2 B] -> [A1 B A2]
            m, t = 2 * m - t, m
    if s == m or m == t:
        return
    if m - s <= t - m:
        tmp = a[s:m].copy()
        a[s:s + t - m] = a[m:t]
        a[s + t - m:t] = tmp
    else:
        tmp = a[m:t].copy()
        a[s + t - m:t] = a[s:m]
        a[s:s + t - m] = tmp


# ---------------------------------------------------------------------------
# Scan (blocked: all partials kept inside the array)

@dataclass
class ScanResult:
    array: np.ndarray
    total: int


def _shift_exclusive(seg: np.ndarray, offset: int) -> None:
    """Turn an inclusive scan of seg into an exclusive one plus offset
    (numpy builds the right-hand sum before it assigns)."""
    seg[1:] = seg[:-1] + WORD(offset)
    seg[0] = WORD(offset)


def _scan_blocks(v: np.ndarray, block: int) -> int:
    """Exclusive add-scan of a 1-D (possibly strided) view in place; returns
    its total.

    Each block gets an inclusive cumsum.  The full blocks' last words, now
    the block sums, are scanned by this function through a strided view,
    which leaves each full block's offset in its last word.  Each full block
    then shifts to an exclusive scan plus that offset, and the tail block
    to one plus the full blocks' total.  The recursion is log_block(n) deep;
    ``block`` must be at least 2, or it would recurse on the same view."""
    n = len(v)
    if n == 0:
        return 0
    for s in range(0, n, block):
        np.cumsum(v[s:s + block], dtype=WORD, out=v[s:s + block])
    full = n - n % block
    total = _scan_blocks(v[block - 1:full:block], block)
    for s in range(0, full, block):
        seg = v[s:s + block]
        _shift_exclusive(seg, int(seg[-1]))
    if full < n:
        seg = v[full:]
        tail_total = int(seg[-1])
        _shift_exclusive(seg, total)
        total = (total + tail_total) & M64
    return total


def scan(a: np.ndarray) -> ScanResult:
    """Exclusive in-place scan; returns the rewritten array and the total."""
    as_words(a)
    return ScanResult(a, _scan_blocks(a, SCRATCH_WORDS))


# perfbench calls and traces both names; the alias goes with ROADMAP item 6
scan_blocked = scan


# ---------------------------------------------------------------------------
# Filter / partition / quicksort

def filter_kway(a: np.ndarray, pred) -> int:
    """Stable in-place filter: kept elements end up in a[0:m); returns m.

    One pass of the keep step over blocks.  The paper's sqrt(n)-chunk schedule
    (count, compact and move chunks in parallel) is not kept: fork_join runs
    in order, so the chunks would only add passes.
    """
    as_words(a)
    return step_blocks(a, keep_block, lambda s, e: pred(a[s:e]))


def _partition_block(a: np.ndarray, pred, buf: np.ndarray, m: int, pos: int,
                     take: int) -> int:
    """Partition a[pos:pos+take] onto a[:pos], whose first m words match
    pred and the rest do not; returns the new match count.

    The one partition step of both space models.  The block is staged in
    buf; the d non-matches that its t matches displace from a[m:] move
    first, to a[max(pos, m + t):], which lies inside the staged block; then
    the block's matches and non-matches are written back.  A block with no
    matches, or of only matches onto an all-match a[:pos], moves nothing
    and is skipped."""
    block = a[pos:pos + take]
    mask = np.asarray(pred(block), dtype=bool)
    t = int(np.count_nonzero(mask))
    if t == 0 or (t == take and m == pos):
        return m + t
    chunk = buf[:take]
    chunk[:] = block
    d = min(t, pos - m)
    dst = max(pos, m + t)
    a[dst:dst + d] = a[m:m + d]
    np.compress(mask, chunk, out=a[m:m + t])
    np.compress(~mask, chunk, out=a[dst + d:pos + take])
    return m + t


def partition_unstable(a: np.ndarray, pred) -> int:
    """Unstable partition: pred-true elements first, multiset preserved.

    One pass of the partition step over ``SCRATCH_WORDS``-word blocks.
    """
    as_words(a)
    return step_blocks(a, _partition_block, pred)


def _split_block(a: np.ndarray, key, inclusive: bool, buf: np.ndarray,
                 m: int, pos: int, take: int) -> int:
    """The quicksorts' step: split a[pos:pos+take] onto a[:pos], whose first
    m words are below ``key`` (at most ``key`` if inclusive) and the rest
    not; returns the new m.  The block's t matches are its t smallest words,
    so ``ndarray.partition`` (in-place introselect) moves them first; then
    its last d = min(t, pos - m) swap through buf with a[m:m+d]."""
    block = a[pos:pos + take]
    t = int(np.count_nonzero(block <= key if inclusive else block < key))
    if t == 0 or (t == take and m == pos):
        return m + t
    if t < take:
        block.partition(t)
    d = min(t, pos - m)
    buf[:d] = a[m:m + d]
    a[m:m + d] = a[pos + t - d:pos + t]
    a[pos + t - d:pos + t] = buf[:d]
    return m + t


def _quicksort(a: np.ndarray, rng, split, base: int) -> None:
    """Quicksort shared by both space models.

    ``split(seg, key, inclusive)`` moves seg's words below the key (at most
    the key if inclusive) first, by the split step, and returns their count;
    segments of at most ``base`` words are sorted directly.  The
    smaller side recurses and the larger one loops, so the recursion depth is
    at most log2(n).  After 4*log2(n) partitions on one path the pivot
    stream restarts, which bounds a path against a run of bad pivots.
    """
    n = len(a)
    if n < 2:
        return
    limit = 4 * max(1, math.ceil(math.log2(n)))

    def sort_segment(lo: int, hi: int, depth: int, attempt: int) -> None:
        while hi - lo > base:
            if depth > limit:
                attempt += 1
                depth = 0
            pv = a[lo + rng.word(((lo << 21) ^ hi) + attempt * 0x9E37) % (hi - lo)]
            less = split(a[lo:hi], pv, False)
            # less > 0 shrinks both sides; else <= pv splits off the == pv
            equal = 0 if less else split(a[lo:hi], pv, True)
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


def quicksort_strong(a: np.ndarray, rng) -> None:
    """In-place quicksort by the split step with random pivots.

    Recursion depth is at most log2(n) (the smaller side recurses); after
    4*log2(n) partitions on one path the pivot stream restarts.
    """
    as_words(a)
    _quicksort(a, rng, lambda seg, key, inclusive:
               step_blocks(seg, _split_block, key, inclusive), SCRATCH_WORDS)


# ---------------------------------------------------------------------------
# Merging and mergesort (dual binary search + rotation, shared by both models)

def _split_point(a: np.ndarray, split: int, h: int) -> int:
    """Smallest i with i + (h-i) = h low elements, equal keys taken from the left."""
    ilo = max(0, h - (len(a) - split))
    ihi = min(split, h)
    while ilo < ihi:
        im = (ilo + ihi) // 2
        jm = h - im
        # i too small iff the right run still holds an element that must be low
        if jm > 0 and im < split and a[split + jm - 1] >= a[im]:
            ilo = im + 1
        else:
            ihi = im
    return ilo


def _check_sorted_run(run: np.ndarray) -> None:
    if bool(np.any(run[1:] < run[:-1])):
        raise ValueError("unsorted input run")


def _check_set_run(run: np.ndarray) -> None:
    if bool(np.any(run[1:] <= run[:-1])):
        raise ValueError("unsorted input run")


def _run_args(a: np.ndarray, split: int, debug: bool, check_run) -> int:
    """Check the arguments of an operation on the runs a[0:split) and
    a[split:n); in debug mode ``check_run(run)`` checks each run.  Returns n."""
    as_words(a)
    n = len(a)
    if not 0 <= split <= n:
        raise ValueError("split out of range")
    if debug:
        check_run(a[:split])
        check_run(a[split:])
    return n


def _merge(a: np.ndarray, split: int, base: int) -> None:
    """Merge recursion shared by both space models: split at the midpoint by
    dual binary search, rotate, recurse through fork_join.  A subproblem of
    at most ``base`` words is sorted in place with numpy's default sort,
    which takes no heap buffer; equal words cannot be told apart, so the
    result is the stable merge of a[:split] and a[split:]."""
    n = len(a)
    if split == 0 or split == n:
        return
    if n <= base:
        a.sort()
        return
    h = n // 2
    i = _split_point(a, split, h)
    j = h - i
    rotate(a[i:split + j], split - i)
    fork_join(lambda: _merge(a[:h], i, base),
              lambda: _merge(a[h:], split + j - h, base))


def merge_strong(a: np.ndarray, split: int, debug: bool = False) -> None:
    """In-place merge of the sorted runs a[0:split) and a[split:n)."""
    _run_args(a, split, debug, _check_sorted_run)
    _merge(a, split, SCRATCH_WORDS)


def _mergesort(a: np.ndarray, merge, base: int) -> None:
    """Mergesort shared by both space models: ``merge(seg, split)`` merges
    seg's two sorted runs in place; segments of at most ``base`` words are
    sorted directly.  Siblings fork through fork_join, which runs them in
    order, so one merge's scratch is live at a time."""

    def rec(lo: int, hi: int) -> None:
        if hi - lo <= base:
            a[lo:hi].sort()
            return
        mid = lo + (hi - lo) // 2
        fork_join(lambda: rec(lo, mid), lambda: rec(mid, hi))
        merge(a[lo:hi], mid - lo)

    rec(0, len(a))


def mergesort_strong(a: np.ndarray) -> None:
    """Mergesort over merge_strong (O(n log^2 n) work, not work-efficient)."""
    as_words(a)
    _mergesort(a, merge_strong, SCRATCH_WORDS)


# ---------------------------------------------------------------------------
# Set operations on sorted duplicate-free runs: each compacts by a keep mask
# worked out one block at a time

def set_union(a: np.ndarray, split: int, debug: bool = False) -> int:
    """Union of two sorted duplicate-free runs; result in a[0:m), returns m."""
    _run_args(a, split, debug, _check_set_run)
    merge_strong(a, split)

    def first_of_pair(s: int, e: int) -> np.ndarray:
        # a[s - 1] still holds its merged word (see keep_block)
        keep = run_starts(a[s:e])
        keep[0] = s == 0 or a[s] != a[s - 1]
        return keep

    return step_blocks(a, keep_block, first_of_pair)


def _compact_members(a: np.ndarray, run: np.ndarray, keep_found: bool) -> int:
    """Compact a to the words found (keep_found) or not found in the
    nonempty sorted run, which must lie outside a; returns the kept count."""
    last = len(run) - 1

    def member(s: int, e: int) -> np.ndarray:
        block = a[s:e]
        idx = np.searchsorted(run, block)
        np.minimum(idx, last, out=idx)
        found = run[idx] == block
        return found if keep_found else ~found

    return step_blocks(a, keep_block, member)


def set_intersect(a: np.ndarray, split: int, debug: bool = False) -> int:
    """Intersection of two sorted duplicate-free runs; returns result length."""
    n = _run_args(a, split, debug, _check_set_run)
    if split == 0 or split == n:
        return 0
    # probe the smaller run against the larger
    if split <= n - split:
        return _compact_members(a[:split], a[split:], keep_found=True)
    m = _compact_members(a[split:], a[:split], keep_found=True)
    a[:m] = a[split:split + m]  # disjoint: m <= n - split < split
    return m


def set_difference(a: np.ndarray, split: int, debug: bool = False) -> int:
    """a[0:split) minus a[split:n); result in a[0:m), returns m."""
    n = _run_args(a, split, debug, _check_set_run)
    if split == 0 or split == n:
        return split
    return _compact_members(a[:split], a[split:], keep_found=False)
