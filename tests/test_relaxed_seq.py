from __future__ import annotations

import sys

import numpy as np
import pytest

from pipal import baselines as bl
from pipal import relaxed, strong
from pipal.detres import LivelockError
from pipal.relaxed import (
    decompose_driver,
    filter_relaxed,
    merge_relaxed,
    mergesort_relaxed,
    partition_relaxed,
    quicksort_relaxed,
)
from pipal.runtime import (
    M64,
    POWER_ONLY_FRACTION,
    SCRATCH_WORDS,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    WORD,
    meter_scope,
)

EVEN = lambda b: (b & WORD(1)) == 0
PURE = lambda eps: EpsilonConfig(eps, prefix_fraction=POWER_ONLY_FRACTION)


def rand_words(seed, n):
    return np.random.default_rng(seed).integers(0, 1 << 64, size=n, dtype=np.uint64)


def sorted_pair(seed, na, nb, hi=1 << 63):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.integers(0, hi, size=na, dtype=np.uint64))
    y = np.sort(rng.integers(0, hi, size=nb, dtype=np.uint64))
    return np.concatenate([x, y]), na


# ---------------------------------------------------------------------------
# decompose_driver

def test_driver_one_round_when_budget_covers():
    stats = decompose_driver(100, 100, lambda hint: hint)
    assert stats.rounds == 1


def test_driver_exact_rounds():
    hints = []
    stats = decompose_driver(100, 10, lambda hint: hints.append(hint) or 10)
    assert stats.rounds == 10 and stats.total_committed == 100
    assert hints == [10] * 10


def test_driver_livelock_guard():
    with pytest.raises(LivelockError):
        decompose_driver(5, 2, lambda hint: 0)


def test_driver_rejects_retiring_more_than_remains():
    with pytest.raises(RuntimeError, match="retired 6 of 5"):
        decompose_driver(5, 2, lambda hint: 3)


# ---------------------------------------------------------------------------
# filter / partition / quicksort

@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [0, 1, 100, 4096, 65_537])
def test_filter_relaxed_bit_identical_to_strong(n, eps):
    a1 = rand_words(n + 11, n)
    a2 = a1.copy()
    m1 = strong.filter_kway(a1, EVEN)
    m2 = filter_relaxed(a2, EVEN, PURE(eps))
    assert m1 == m2
    assert np.array_equal(a1[:m1], a2[:m2])


def test_filter_relaxed_all_pass_unchanged():
    a = rand_words(5, 1000) | WORD(0)
    ref = a.copy()
    m = filter_relaxed(a, lambda b: np.ones(len(b), dtype=bool), PURE(0.5))
    assert m == 1000 and np.array_equal(a, ref)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [0, 1, 37, 4096, 65_537])
def test_partition_relaxed_matches_oracle(n, eps):
    a = rand_words(n + 13, n)
    ref = a.copy()
    m = partition_relaxed(a, EVEN, PURE(eps))
    assert m == int(np.count_nonzero(EVEN(ref)))
    assert np.all(EVEN(a[:m])) and not np.any(EVEN(a[m:]))
    assert np.array_equal(np.sort(a), np.sort(ref))


@pytest.mark.parametrize("n", [0, 1, 3, 1000, 50_000])
def test_quicksort_relaxed(n):
    a = rand_words(n + 17, n)
    ref = np.sort(a)
    quicksort_relaxed(a, Rng(12), PURE(0.5))
    assert np.array_equal(a, ref)


def test_quicksort_relaxed_duplicates():
    a = (rand_words(3, 20_000) % WORD(7))
    ref = np.sort(a)
    quicksort_relaxed(a, Rng(4))
    assert np.array_equal(a, ref)


def _edge_input(kind, n):
    if kind == "all-equal":
        return np.full(n, 12345, dtype=WORD)
    if kind == "all-max":
        return np.full(n, M64, dtype=WORD)
    if kind == "two-valued":
        return rand_words(21, n) % WORD(2) + WORD(7)
    if kind == "top-bit":
        return rand_words(23, n) | WORD(1 << 63)
    a = np.sort(rand_words(22, n))
    return a if kind == "sorted" else a[::-1].copy()


@pytest.mark.parametrize("budget", [PURE(0.5), None], ids=["pure-0.5", "default"])
@pytest.mark.parametrize("kind", ["all-equal", "two-valued", "sorted", "reverse"])
def test_quicksort_relaxed_edge_inputs(kind, budget):
    a = _edge_input(kind, 1 << 16)
    ref = np.sort(a)
    quicksort_relaxed(a, Rng(5), *([] if budget is None else [budget]))
    assert np.array_equal(a, ref)


QUICKSORTS = {
    "strong": lambda a: strong.quicksort_strong(a, Rng(6)),
    "relaxed": lambda a: quicksort_relaxed(a, Rng(6)),
}


@pytest.mark.parametrize("n", [SCRATCH_WORDS - 1, SCRATCH_WORDS + 1,
                               3 * SCRATCH_WORDS + 7, 1 << 16])
@pytest.mark.parametrize("kind", ["all-equal", "two-valued", "sorted", "reverse",
                                  "all-max", "top-bit"])
@pytest.mark.parametrize("model", sorted(QUICKSORTS))
def test_quicksorts_on_edge_shapes(model, kind, n):
    a = _edge_input(kind, n)
    ref = np.sort(a)
    QUICKSORTS[model](a)
    assert np.array_equal(a, ref)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quicksort_relaxed_partitions_in_top_level_rounds(seed, monkeypatch):
    n = 1 << 16
    cfg = EpsilonConfig(0.5, POWER_ONLY_FRACTION)
    b = cfg.prefix_words(n)
    assert b == 256
    a = rand_words(seed, n)
    ref = np.sort(a)
    runs = []  # per partition, the words each round retired
    driver = relaxed.decompose_driver

    def spy(n_words, budget_words, step):
        retired = []
        runs.append(retired)
        return driver(n_words, budget_words,
                      lambda hint: retired.append(step(hint)) or retired[-1])

    monkeypatch.setattr(relaxed, "decompose_driver", spy)
    meter = SpaceMeter()
    meter_scope(meter, 1 << 62, lambda: quicksort_relaxed(a, Rng(seed), cfg))
    assert np.array_equal(a, ref)
    assert runs
    for retired in runs:
        *full, last = retired
        assert all(done == b for done in full)
        assert 1 <= last <= b
    total = sum(len(retired) for retired in runs)
    assert meter.rounds == total
    assert total <= 4 * (n // b) * int(np.log2(n // b))


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class _FirstPivotRng:
    """Draws 0 every time, so each pivot is its segment's first word, and
    records the Python stack depth at each draw."""

    def __init__(self):
        self.depths = []

    def word(self, i):
        self.depths.append(_stack_depth())
        return 0


@pytest.mark.parametrize("model", ["strong", "relaxed"])
def test_worst_case_pivots_keep_shared_quicksort_shallow(model):
    # segments of at most SCRATCH_WORDS words are leaves, so the input runs
    # n - SCRATCH_WORDS partitions, more than the 4*log2(n) restart limit
    log2n = SCRATCH_WORDS.bit_length()
    n = SCRATCH_WORDS + 8 * log2n
    assert log2n == (n - 1).bit_length()  # ceil(log2(n))
    a = np.sort(rand_words(31, n))
    ref = a.copy()
    rng = _FirstPivotRng()
    cfg = PURE(0.5)
    b = cfg.prefix_words(n)
    meter = SpaceMeter()
    entry = _stack_depth()
    if model == "strong":
        report = meter_scope(meter, 0, lambda: strong.quicksort_strong(a, rng))
    else:
        report = meter_scope(meter, b, lambda: quicksort_relaxed(a, rng, cfg))
    assert np.array_equal(a, ref)
    assert report.peak_words <= (0 if model == "strong" else b)
    # every partition peels one word off one path, so the path passes the
    # 4*log2(n) partition limit and the pivot stream restarts
    assert len(rng.depths) > 4 * log2n + 1
    assert max(rng.depths) - entry <= 4 * log2n


# ---------------------------------------------------------------------------
# merge / mergesort

def test_merge_relaxed_tiny_example():
    a = np.array([1, 3, 5, 2, 4, 6], dtype=np.uint64)
    merge_relaxed(a, 3, PURE(0.5))
    assert a.tolist() == [1, 2, 3, 4, 5, 6]


def test_merge_relaxed_empty_run():
    a, split = sorted_pair(8, 100, 0)
    ref = a.copy()
    merge_relaxed(a, split, PURE(0.5))
    assert np.array_equal(a, ref)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("sizes", [
    # (len x, len y, values drawn from [0, hi))
    (1, 1, 2000), (9, 3, 2000), (1000, 1, 2000), (1, 1000, 2000),
    (5000, 5000, 2000), (10_000, 3777, 2000), (999, 65_536, 2000),
    # at eps = 0.5, k = 4: n = 3k is one buffered leaf, and n = 3k + 1
    # takes one bisection level above two leaves
    (5, 7, 2000), (6, 7, 2000),
    # at eps = 0.5: k = 265, so 7 bisection levels above 128 leaves of 548
    # or 549 words (k = 118 and 64 leaves for 10_000 + 3777); with values
    # in [0, 3) runs of equal keys cross the leaf edges and split points
    (40_014, 30_209, 2000), (40_014, 30_209, 3), (10_000, 3777, 3),
    # at eps = 0.3: k = 2187 and 16 leaves of 3690 or 3691 words, close to
    # one scratch block; at eps = 0.7: k = 27 and 1024 leaves of 57 or 58
    # words; with values in [0, 3) ties cross the leaf edges
    (11 * 2187 - 1, 16 * 2187 - 1, 2000), (11 * 2187 - 1, 16 * 2187 - 1, 3),
])
def test_merge_relaxed_matches_oracle(sizes, eps):
    na, nb, hi = sizes
    a, split = sorted_pair(na * 131 + nb, na, nb, hi=hi)
    ref = bl.seq_two_finger_merge(a[:split], a[split:])
    merge_relaxed(a, split, PURE(eps))
    assert np.array_equal(a, ref)


def test_merge_relaxed_debug_rejects_unsorted():
    a = np.array([2, 1, 3, 4], dtype=np.uint64)
    with pytest.raises(ValueError, match="unsorted input run"):
        merge_relaxed(a, 2, PURE(0.5), debug=True)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("n", [0, 1, 3, 1000, 65_537])
def test_mergesort_relaxed(n, eps):
    a = rand_words(n + 29, n)
    ref = np.sort(a)
    mergesort_relaxed(a, PURE(eps))
    assert np.array_equal(a, ref)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_mergesort_relaxed_merges_in_top_level_chunks(monkeypatch, eps):
    n = 65_537
    cfg = PURE(eps)
    bases = []
    merge = relaxed._merge

    def record(seg, split, base):
        bases.append(base)
        merge(seg, split, base)

    monkeypatch.setattr(relaxed, "_merge", record)
    a = rand_words(n, n)
    ref = np.sort(a)
    mergesort_relaxed(a, cfg)
    assert np.array_equal(a, ref)
    assert bases and set(bases) == {max(SCRATCH_WORDS, 3 * cfg.prefix_words(n))}


def test_partitions_step_over_their_blocks(monkeypatch):
    # both space models run the one partition step, the strong one over
    # SCRATCH_WORDS-word blocks and the relaxed one over b(n)-word rounds
    takes = []
    step = strong._partition_block

    def record(a, pred, buf, m, pos, take):
        takes.append(take)
        return step(a, pred, buf, m, pos, take)

    monkeypatch.setattr(strong, "_partition_block", record)
    monkeypatch.setattr(relaxed, "_partition_block", record)
    n = 3 * SCRATCH_WORDS + 5
    a = rand_words(8, n)
    assert strong.partition_unstable(a, EVEN) == int(np.count_nonzero(EVEN(a)))
    assert takes == [SCRATCH_WORDS] * 3 + [5]

    takes.clear()
    n = 65_537
    cfg = EpsilonConfig(0.5)
    b = cfg.prefix_words(n)
    partition_relaxed(rand_words(9, n), EVEN, cfg)
    assert takes[:-1] == [b] * (len(takes) - 1)
    assert 0 < takes[-1] <= b and sum(takes) == n


def test_quicksorts_split_over_their_blocks(monkeypatch):
    # both quicksorts run the one split step, the strong one over
    # SCRATCH_WORDS-word blocks and the relaxed one over b(n)-word rounds;
    # neither runs the predicate step
    calls = []  # per split step: (segment length, pos, take)
    step = strong._split_block

    def record(seg, key, inclusive, buf, m, pos, take):
        calls.append((len(seg), pos, take))
        return step(seg, key, inclusive, buf, m, pos, take)

    def refuse(*args):
        raise AssertionError("a quicksort entered the predicate step")

    for module in (strong, relaxed):
        monkeypatch.setattr(module, "_split_block", record)
        monkeypatch.setattr(module, "_partition_block", refuse)
    n = 1 << 16
    cfg = EpsilonConfig(0.5, POWER_ONLY_FRACTION)
    b = cfg.prefix_words(n)
    assert b == 256
    for sort, block in ((lambda a: strong.quicksort_strong(a, Rng(2)), SCRATCH_WORDS),
                        (lambda a: quicksort_relaxed(a, Rng(2), cfg), b)):
        calls.clear()
        a = rand_words(10, n)
        ref = np.sort(a)
        sort(a)
        assert np.array_equal(a, ref)
        assert calls[0] == (n, 0, block)
        assert all(pos % block == 0 and take == min(block, size - pos)
                   for size, pos, take in calls)


def test_array_ops_keep_the_whole_budget(monkeypatch):
    # only the round engine's clients run over the capped round_words(n);
    # the array ops keep b(n), where they are fastest
    n = 1 << 19
    cfg = EpsilonConfig(0.5)
    b = cfg.prefix_words(n)
    assert cfg.round_words(n) == SCRATCH_WORDS < b
    for op in (lambda a: filter_relaxed(a, EVEN, cfg),
               lambda a: quicksort_relaxed(a, Rng(3), cfg)):
        meter = SpaceMeter()
        report = meter_scope(meter, b, lambda: op(rand_words(21, n)))
        assert report.peak_words == b  # c = 1.0
        assert meter.current_words == 0
    bases = []
    merge = relaxed._merge
    monkeypatch.setattr(relaxed, "_merge",
                        lambda seg, split, base: (bases.append(base),
                                                  merge(seg, split, base)))
    a = rand_words(22, n)
    ref = np.sort(a)
    mergesort_relaxed(a, cfg)
    assert np.array_equal(a, ref)
    assert bases and set(bases) == {max(SCRATCH_WORDS, 3 * b)}


# ---------------------------------------------------------------------------
# space budgets

@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_relaxed_seq_ops_within_budget(eps):
    n = 65_536
    cfg = PURE(eps)
    b = cfg.prefix_words(n)
    seeds = {"filter": 11, "partition": 12, "merge": 13, "qsort": 14,
             "msort": 15}
    for run in seeds:
        meter = SpaceMeter()
        a = rand_words(seeds[run], n)
        if run == "merge":
            a[:n // 2].sort()
            a[n // 2:].sort()

        def body():
            if run == "filter":
                filter_relaxed(a, EVEN, cfg)
            elif run == "partition":
                partition_relaxed(a, EVEN, cfg)
            elif run == "merge":
                merge_relaxed(a, n // 2, cfg)
            elif run == "msort":
                mergesort_relaxed(a, cfg)
            else:
                quicksort_relaxed(a, Rng(7), cfg)

        report = meter_scope(meter, 8 * b, body)
        assert meter.current_words == 0
        assert report.peak_words <= 8 * b, (run, eps, report.peak_words, 8 * b)


MERGES = {
    "merge_relaxed": lambda a, cfg: merge_relaxed(a, len(a) // 2, cfg),
    "mergesort_relaxed": mergesort_relaxed,
}


def merge_input(op, seed, n):
    if op == "merge_relaxed":
        return sorted_pair(seed, n // 2, n - n // 2)[0]
    return rand_words(seed, n)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("op", sorted(MERGES))
def test_relaxed_merges_charge_nothing(op, eps):
    # every leaf sorts in place, so no merge charges the meter
    n = 65_536
    cfg = PURE(eps)
    a = merge_input(op, 41, n)
    ref = np.sort(a)
    meter = SpaceMeter()
    report = meter_scope(meter, 0, lambda: MERGES[op](a, cfg))
    assert np.array_equal(a, ref)
    assert meter.current_words == 0
    assert report.peak_words == 0, report.peak_words


def test_quicksort_relaxed_traced_peak_is_two_buffers(traced_peak):
    # the split's charged b(n)-word buffer and its block temporaries,
    # nothing that grows with the segment
    n = 1 << 18
    cfg = EpsilonConfig(0.5)
    b = cfg.prefix_words(n)
    assert b == 5242
    a = rand_words(44, n)
    ref = np.sort(a)
    peak, _ = traced_peak(lambda: quicksort_relaxed(a, Rng(1), cfg))
    assert np.array_equal(a, ref)
    assert peak <= 2 * 8 * b, peak


@pytest.mark.parametrize("budget", [
    EpsilonConfig(0.5),
    EpsilonConfig(0.5, prefix_fraction=POWER_ONLY_FRACTION),
], ids=["b5242", "b512"])
@pytest.mark.parametrize("op", sorted(MERGES))
def test_relaxed_merges_traced_peak_is_sublinear(op, budget, traced_peak):
    # the real footprint is the strong merge's: only the rotation's
    # block copies, whatever b(n) is
    n = 1 << 18
    b = budget.prefix_words(n)
    assert b in (5242, 512)
    a = merge_input(op, 43, n)
    ref = np.sort(a)
    peak, _ = traced_peak(lambda: MERGES[op](a, budget))
    assert np.array_equal(a, ref)
    assert peak <= 4 * SCRATCH_WORDS * 8, peak
