from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipal import baselines as bl
from pipal import relaxed, runtime, strong
from pipal.runtime import (
    M64,
    SCRATCH_WORDS,
    WORD,
    Rng,
    SpaceMeter,
    meter_scope,
    run_starts,
    set_num_threads,
)


def words(vals):
    return np.array(vals, dtype=np.uint64)


def rand_words(seed, n):
    return np.random.default_rng(seed).integers(0, 1 << 64, size=n, dtype=np.uint64)


EVEN = lambda b: (b & WORD(1)) == 0


# ---------------------------------------------------------------------------
# reduce / rotate

def test_reduce_identity_and_analytic():
    assert strong.reduce(words([])) == 0
    assert strong.reduce(words(range(1, 101))) == 5050


def test_reduce_matches_sequential_fold():
    # sizes about the block edge, and a run of many blocks
    for n in (SCRATCH_WORDS - 1, SCRATCH_WORDS, SCRATCH_WORDS + 1,
              3 * SCRATCH_WORDS + 57, 100_000):
        a = rand_words(1, n)
        assert strong.reduce(a) == int(np.sum(a, dtype=np.uint64)), n


def test_rotate_examples():
    a = words([1, 2, 3, 4, 5])
    strong.rotate(a, 2)
    assert a.tolist() == [3, 4, 5, 1, 2]
    b = words([1, 2, 3])
    strong.rotate(b, 0)
    strong.rotate(b, 3)
    assert b.tolist() == [1, 2, 3]


@given(st.integers(0, 2**32), st.integers(0, 800))
@settings(max_examples=50, deadline=None)
def test_rotate_matches_modular_index_oracle(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    o = int(rng.integers(0, n + 1))
    got = a.copy()
    strong.rotate(got, o)
    expected = np.array([a[(i + o) % n] for i in range(n)], dtype=np.uint64) \
        if n else a
    assert np.array_equal(got, expected)


def test_rotate_inverse_property():
    # long enough that a block swap precedes the final shift
    n = 3 * SCRATCH_WORDS + 17
    a = rand_words(3, n)
    ref = a.copy()
    strong.rotate(a, SCRATCH_WORDS + 317)
    strong.rotate(a, n - SCRATCH_WORDS - 317)
    assert np.array_equal(a, ref)


@pytest.mark.parametrize("n, o", [
    (n, o)
    for n in (2 * SCRATCH_WORDS + 1, 3 * SCRATCH_WORDS + 7, 5 * SCRATCH_WORDS)
    for o in (1, SCRATCH_WORDS, SCRATCH_WORDS + 1, n // 2,
              n - SCRATCH_WORDS - 1, n - 1)])
def test_rotate_block_swaps_match_roll(n, o, traced_peak):
    # offsets just past one block run the block-swap loop several times
    # from either side, then shift the longer side left or right; at
    # 5 blocks a whole-array copy would break the strong traced bound
    a = rand_words(n + o, n)
    ref = np.roll(a, -o)
    peak, _ = traced_peak(lambda: strong.rotate(a, o))
    assert np.array_equal(a, ref)
    assert peak <= TRACED_BOUND_BYTES, peak


# ---------------------------------------------------------------------------
# scan

def test_scan_single_element():
    a = words([7])
    res = strong.scan(a)
    assert a.tolist() == [0] and res.total == 7


def test_scan_ones():
    a = words([1, 1, 1, 1])
    res = strong.scan(a)
    assert a.tolist() == [0, 1, 2, 3] and res.total == 4


def test_scan_matches_oracle_small():
    a = words([3, 1, 4, 1, 5, 9, 2, 6])
    ref, total = bl.seq_scan(a)
    res = strong.scan(a)
    assert a.tolist() == ref.tolist() and res.total == total == 31


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 1000, SCRATCH_WORDS - 1,
                               SCRATCH_WORDS, SCRATCH_WORDS + 1,
                               3 * SCRATCH_WORDS + 57, 65536, 100_001])
def test_scan_matches_oracle_sizes(n):
    a = rand_words(n, n)
    ref, total = bl.seq_scan(a)
    res = strong.scan(a)
    assert np.array_equal(a, ref) and res.total == total


def test_scan_reconstruction_recovers_input():
    orig = rand_words(9, 5000)
    a = orig.copy()
    res = strong.scan(a)
    rec = np.empty_like(a)
    rec[:-1] = a[1:] - a[:-1]
    rec[-1] = WORD((res.total - int(a[-1])) & M64)
    assert np.array_equal(rec, orig)


@pytest.mark.parametrize("block", [2, 3, 7])
def test_scan_blocks_at_block_edges(block):
    # small blocks run one to three levels of the block-sum recursion, with
    # and without a tail block; words spread over 64 bits wrap the sums
    for n in (0, 1, block - 1, block, block + 1, block ** 2, block ** 2 + 1,
              block ** 3 + block - 1):
        v = rand_words(7 * n + block, n)
        ref, ref_total = bl.seq_scan(v)
        assert strong._scan_blocks(v, block) == ref_total, n
        assert np.array_equal(v, ref), n


@pytest.mark.parametrize("n", [1, 5, 255, 256, 1000, SCRATCH_WORDS - 1,
                               SCRATCH_WORDS, 65536, 100_001])
def test_scan_blocked_bit_identical_to_scan(n):
    # scan_blocked is kept as a public name; both must give the sequential
    # oracle's prefix sums and total, bit for bit
    a1 = rand_words(n, n)
    a2 = a1.copy()
    ref, total = bl.seq_scan(a1)
    r1 = strong.scan(a1)
    r2 = strong.scan_blocked(a2)
    assert np.array_equal(a1, a2) and r1.total == r2.total
    assert np.array_equal(a2, ref) and r2.total == total


# ---------------------------------------------------------------------------
# filter / partition / quicksort

def test_filter_kway_examples():
    a = words([5, 2, 7, 4])
    m = strong.filter_kway(a, EVEN)
    assert m == 2 and a[:2].tolist() == [2, 4]

    b = words([2, 4, 6])
    assert strong.filter_kway(b, EVEN) == 3
    assert b.tolist() == [2, 4, 6]


KEEP = {"even": EVEN, "all": lambda b: b == b, "none": lambda b: b != b}


# the even cases keep their bare-size ids
@pytest.mark.parametrize("n, keep", [
    pytest.param(n, keep, id=str(n) if keep == "even" else f"{keep}-{n}")
    for keep in KEEP
    for n in [0, 1, 10, 1000, 9999, 65536, SCRATCH_WORDS - 1,
              SCRATCH_WORDS + 1, 3 * SCRATCH_WORDS + 17]])
def test_filter_kway_matches_stable_oracle(n, keep):
    a = rand_words(n + 17, n)
    ref = bl.seq_filter(a, KEEP[keep])
    m = strong.filter_kway(a, KEEP[keep])
    assert m == len(ref)
    assert np.array_equal(a[:m], ref)


def test_filter_kway_stability_random_cases():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(0, 120))
        a = rng.integers(0, 8, size=n, dtype=np.uint64)
        ref = bl.seq_filter(a, lambda b: (b & WORD(1)) == 1)
        m = strong.filter_kway(a, lambda b: (b & WORD(1)) == 1)
        assert a[:m].tolist() == ref.tolist()


def test_partition_unstable_counts_and_multiset():
    a = words([1, 2, 3, 4])
    m = strong.partition_unstable(a, lambda b: b <= WORD(2))
    assert m == 2
    assert sorted(a[:2].tolist()) == [1, 2] and sorted(a[2:].tolist()) == [3, 4]

    b = words([5, 7, 9])
    assert strong.partition_unstable(b, lambda x: x < WORD(0)) == 0
    assert sorted(b.tolist()) == [5, 7, 9]


@pytest.mark.parametrize("n", [0, 1, 17, 1000, 30_000])
def test_partition_unstable_matches_counting_oracle(n):
    a = rand_words(n + 3, n)
    ref = a.copy()
    m = strong.partition_unstable(a, EVEN)
    assert m == int(np.count_nonzero(EVEN(ref)))
    assert np.all(EVEN(a[:m])) and not np.any(EVEN(a[m:]))
    assert np.array_equal(np.sort(a), np.sort(ref))


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.integers(0, 3), max_size=64), t=st.integers(0, 3),
       block=st.integers(1, 8))
def test_partition_step_at_tiny_blocks(vals, t, block):
    # values 0-3 against x <= t give all-match, no-match and already
    # partitioned blocks; both drivers of the one step must partition
    pred = lambda x: x <= WORD(t)
    ref = words(vals)
    count = int(np.count_nonzero(pred(ref)))

    def check(a, m):
        assert m == count
        assert np.all(pred(a[:m])) and not np.any(pred(a[m:]))
        assert np.array_equal(np.sort(a), np.sort(ref))

    a = ref.copy()
    buf = np.empty(block, dtype=WORD)
    m = 0
    for pos in range(0, len(a), block):
        m = strong._partition_block(a, pred, buf, m, pos, min(block, len(a) - pos))
    check(a, m)
    a = ref.copy()
    check(a, relaxed._step_rounds(a, block, strong._partition_block, pred))


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.integers(0, 3), max_size=64), key=st.integers(0, 3),
       inclusive=st.booleans(), block=st.integers(1, 8))
@example(vals=[3] * 9, key=0, inclusive=False, block=4)  # t = 0 throughout
@example(vals=[0] * 9, key=0, inclusive=True, block=4)  # matches onto matches
@example(vals=[3, 3, 1, 0, 0, 1], key=1, inclusive=True, block=2)  # t = take
def test_split_step_at_tiny_blocks(vals, key, inclusive, block):
    # values 0-3 against < key or <= key give every count 0..take and
    # already split prefixes; both drivers of the one split step must split
    below = (lambda x: x <= WORD(key)) if inclusive else (lambda x: x < WORD(key))
    ref = words(vals)
    count = int(np.count_nonzero(below(ref)))

    def check(a, m):
        assert m == count
        assert np.all(below(a[:m])) and not np.any(below(a[m:]))
        assert np.array_equal(np.sort(a), np.sort(ref))

    a = ref.copy()
    buf = np.empty(block, dtype=WORD)
    m = 0
    for pos in range(0, len(a), block):
        m = strong._split_block(a, WORD(key), inclusive, buf, m, pos,
                                min(block, len(a) - pos))
    check(a, m)
    a = ref.copy()
    check(a, relaxed._step_rounds(a, block, strong._split_block, WORD(key),
                                  inclusive))


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.integers(0, 3), max_size=64), block=st.integers(1, 8),
       first_of_run=st.booleans())
@example(vals=[1] * 9 + [0, 1, 1], block=4, first_of_run=False)
@example(vals=[0, 1, 2, 3] * 2 + [3, 3, 0], block=4, first_of_run=True)
@example(vals=[0, 0, 1, 1, 2], block=1, first_of_run=True)
def test_keep_step_at_tiny_blocks(vals, block, first_of_run):
    # odd values 0-3 give all-kept, none-kept and undropped prefixes before
    # a drop; the first-of-run mask reads a[s - 1] across block edges, as
    # set_union's does; both loops of the one keep step compact stably
    ref = words(vals)
    expected = ref[run_starts(ref) if first_of_run else (ref & WORD(1)) == 1]

    def keep_for(a):
        def first(s, e):
            keep = run_starts(a[s:e])
            keep[0] = s == 0 or a[s] != a[s - 1]
            return keep

        return first if first_of_run else lambda s, e: (a[s:e] & WORD(1)) == 1

    a = ref.copy()
    with mock.patch.object(runtime, "SCRATCH_WORDS", block):
        m = runtime.step_blocks(a, runtime.keep_block, keep_for(a))
    assert a[:m].tolist() == expected.tolist()
    a = ref.copy()
    m = relaxed._step_rounds(a, block, runtime.keep_block, keep_for(a))
    assert a[:m].tolist() == expected.tolist()


@pytest.mark.parametrize("n", [0, 1, 3, 100, 10_000, 50_000])
def test_quicksort_strong_matches_sorted_oracle(n):
    a = rand_words(n + 1, n)
    ref = np.sort(a)
    strong.quicksort_strong(a, Rng(31))
    assert np.array_equal(a, ref)


def test_quicksort_strong_duplicates():
    # three leaves' worth of heavy duplicates, so the < pivot and == pivot
    # partitions run before the leaves sort
    a = words([3, 1, 2] * SCRATCH_WORDS)
    strong.quicksort_strong(a, Rng(5))
    assert np.array_equal(a, np.sort(words([3, 1, 2] * SCRATCH_WORDS)))


def test_quicksort_strong_splits_off_equals_only_at_a_minimum_pivot(monkeypatch):
    # the == split runs only when the pivot is its segment's minimum, which
    # a distinct-word segment of thousands of words almost never draws
    blocks = {False: 0, True: 0}  # split-step calls per inclusive flag
    step = strong._split_block

    def record(a, key, inclusive, buf, m, pos, take):
        blocks[inclusive] += 1
        return step(a, key, inclusive, buf, m, pos, take)

    monkeypatch.setattr(strong, "_split_block", record)
    n = 1 << 16
    a = rand_words(12, n)
    assert len(np.unique(a)) == n
    ref = np.sort(a)
    strong.quicksort_strong(a, Rng(4))
    assert np.array_equal(a, ref)
    assert blocks[False] > 0 and blocks[True] == 0, blocks


# ---------------------------------------------------------------------------
# merge / mergesort

def test_merge_strong_example():
    a = words([1, 3, 5, 2, 4, 6])
    strong.merge_strong(a, 3)
    assert a.tolist() == [1, 2, 3, 4, 5, 6]


def test_merge_strong_debug_rejects_unsorted():
    a = words([3, 1, 2, 4])
    with pytest.raises(ValueError, match="unsorted input run"):
        strong.merge_strong(a, 2, debug=True)


def test_merge_strong_empty_run():
    a = np.sort(rand_words(8, 100))
    ref = a.copy()
    strong.merge_strong(a, 0)
    assert np.array_equal(a, ref)
    strong.merge_strong(a, len(a))
    assert np.array_equal(a, ref)


# the last two split by bisection before their leaves
@pytest.mark.parametrize("sizes", [(1, 1), (5, 3), (100, 1), (1, 100),
                                   (SCRATCH_WORDS, SCRATCH_WORDS + 1),
                                   (4 * SCRATCH_WORDS, SCRATCH_WORDS - 1)])
def test_merge_strong_matches_two_finger_oracle(sizes):
    na, nb = sizes
    rng = np.random.default_rng(na * 7919 + nb)
    x = np.sort(rng.integers(0, 50, size=na, dtype=np.uint64))
    y = np.sort(rng.integers(0, 50, size=nb, dtype=np.uint64))
    ref = bl.seq_two_finger_merge(x, y)
    a = np.concatenate([x, y])
    strong.merge_strong(a, na)
    assert np.array_equal(a, ref)


@given(st.lists(st.integers(0, 7), max_size=300), st.integers(2, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_recursions_below_the_scratch_size(vals, base, data):
    # a leaf or block of 2-8 words drives the merge bisection, the
    # mergesort recursion and the scan's block-sum recursion through many
    # levels, which inputs under SCRATCH_WORDS never reach otherwise
    split = data.draw(st.integers(0, len(vals)))
    x = np.sort(words(vals[:split]))
    y = np.sort(words(vals[split:]))
    a = np.concatenate([x, y])
    strong._merge(a, split, base)
    assert np.array_equal(a, bl.seq_two_finger_merge(x, y))

    b = words(vals)
    strong._mergesort(b, lambda seg, s: strong._merge(seg, s, base), base)
    assert np.array_equal(b, np.sort(words(vals)))

    v = words(vals) * WORD(0x9E3779B97F4A7C15)  # spread over 64 bits, wrapping
    ref, ref_total = bl.seq_scan(v)
    assert strong._scan_blocks(v, base) == ref_total
    assert np.array_equal(v, ref)


@pytest.mark.parametrize("n", [0, 1, 3, 1000, 20_000])
def test_mergesort_strong(n):
    a = rand_words(n + 5, n)
    ref = np.sort(a)
    strong.mergesort_strong(a)
    assert np.array_equal(a, ref)


# ---------------------------------------------------------------------------
# set operations

def _sets_to_array(xs, ys):
    return np.concatenate([np.array(sorted(xs), dtype=np.uint64),
                           np.array(sorted(ys), dtype=np.uint64)]), len(xs)


def test_set_union_example():
    a, split = _sets_to_array([1, 3], [2, 3])
    m = strong.set_union(a, split)
    assert m == 3 and a[:3].tolist() == [1, 2, 3]


def test_set_intersect_empty_side():
    a, split = _sets_to_array([1, 2, 9], [])
    assert strong.set_intersect(a, split) == 0


SET_OPS = {"union": (strong.set_union, lambda x, y: x | y),
           "intersect": (strong.set_intersect, lambda x, y: x & y),
           "difference": (strong.set_difference, lambda x, y: x - y)}


def test_set_ops_match_set_algebra_oracle():
    rng = np.random.default_rng(21)
    xs = set(rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64).tolist())
    ys = set(rng.integers(0, 1 << 62, size=1_000, dtype=np.uint64).tolist())
    ys |= set(list(xs)[:200])  # force overlap
    # put a word in both runs whose merged pair straddles the first block edge
    edge = sorted(list(xs) + list(ys))[SCRATCH_WORDS - 1]
    xs.add(edge)
    ys.add(edge)
    merged = np.sort(_sets_to_array(xs, ys)[0])
    assert merged[SCRATCH_WORDS - 1] == merged[SCRATCH_WORDS] == edge

    # both orders: intersect probes the right run, then the left one
    for left, right in ((xs, ys), (ys, xs)):
        for fn, ref in SET_OPS.values():
            a, split = _sets_to_array(left, right)
            m = fn(a, split)
            assert a[:m].tolist() == sorted(ref(left, right))


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("op", SET_OPS)
def test_set_ops_take_words_with_the_top_bit_set(op, debug):
    top = 1 << 63
    xs = {1, 7, top, top + 1, M64}
    ys = {2, 7, top + 1, top + 5, M64}
    fn, ref = SET_OPS[op]
    for left, right in ((xs, ys), (ys, xs)):
        a, split = _sets_to_array(left, right)
        m = fn(a, split, debug=debug)
        assert a[:m].tolist() == sorted(ref(left, right))


def test_set_ops_debug_rejects_unsorted():
    a = words([2, 1, 3, 4])
    with pytest.raises(ValueError, match="unsorted input run"):
        strong.set_union(a, 2, debug=True)


@pytest.mark.parametrize("op", ["set_union", "set_intersect", "set_difference"])
@pytest.mark.parametrize("split", [-1, 6])
def test_set_ops_reject_split_out_of_range(op, split):
    with pytest.raises(ValueError, match="split out of range"):
        getattr(strong, op)(words([1, 3, 5, 2, 3]), split)


# ---------------------------------------------------------------------------
# zero-heap + determinism

def test_every_strong_op_reports_zero_heap():
    n = 20_000
    meter = SpaceMeter()

    def body():
        a = rand_words(50, n)
        strong.reduce(a)
        strong.rotate(a, n // 3)
        strong.scan(a.copy())
        strong.scan_blocked(a.copy())
        strong.filter_kway(a.copy(), EVEN)
        strong.partition_unstable(a.copy(), EVEN)
        strong.quicksort_strong(a.copy(), Rng(1))
        b = a.copy()
        b[:n // 2].sort()
        b[n // 2:].sort()
        strong.merge_strong(b, n // 2)
        strong.mergesort_strong(a.copy())
        s = np.concatenate([np.sort(rand_words(51, 400)),
                            np.sort(rand_words(52, 300))])
        strong.set_union(s.copy(), 400)

    report = meter_scope(meter, 0, body)
    assert report.peak_words == 0 and not report.exceeded


# README's bound on any strong op's real footprint: four scratch blocks
TRACED_BOUND_BYTES = 4 * SCRATCH_WORDS * 8
STRONG_OPS = [op for op in strong.__all__ if op != "ScanResult"]


def _strong_args(op, n):
    a = rand_words(n, n)
    half = n // 2
    if op == "merge_strong":
        a[:half].sort()
        a[half:].sort()
        return a, half
    if op.startswith("set_"):
        x = np.unique(a[:half])
        y = np.unique(a[half:])
        return np.concatenate([x, y]), len(x)
    extra = {"rotate": (n // 3,), "filter_kway": (EVEN,),
             "partition_unstable": (EVEN,), "quicksort_strong": (Rng(1),)}
    return (a,) + extra.get(op, ())


@pytest.mark.parametrize("n", [1 << 16, 1 << 20])
@pytest.mark.parametrize("op", STRONG_OPS)
def test_strong_traced_peak_is_a_constant(op, n, traced_peak):
    args = _strong_args(op, n)
    peak, _ = traced_peak(lambda: getattr(strong, op)(*args))
    assert peak <= TRACED_BOUND_BYTES, (op, n, peak)


def test_quicksort_strong_traced_peak_is_one_block(traced_peak):
    # the split step selects in place and swaps through its one-block
    # buffer, so at 2^20 the sort traces about one block plus temporaries
    a = rand_words(3, 1 << 20)
    ref = np.sort(a)
    peak, _ = traced_peak(lambda: strong.quicksort_strong(a, Rng(1)))
    assert np.array_equal(a, ref)
    assert peak <= 64 * 1024, peak


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_strong_ops_deterministic_across_threads(threads):
    set_num_threads(threads)
    a = rand_words(77, 30_000)
    res = strong.scan(a)
    m = strong.filter_kway(a, EVEN)
    strong.quicksort_strong(a, Rng(9))
    state = (res.total, m, a.tolist())

    set_num_threads(1)
    b = rand_words(77, 30_000)
    res2 = strong.scan(b)
    m2 = strong.filter_kway(b, EVEN)
    strong.quicksort_strong(b, Rng(9))
    assert state == (res2.total, m2, b.tolist())
