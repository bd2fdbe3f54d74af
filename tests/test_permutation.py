from __future__ import annotations

import itertools

import numpy as np
import pytest

from pipal import baselines as bl
from pipal import relaxed
from pipal.relaxed import (
    RP_VARIANTS,
    make_swap_sequence,
    random_permutation,
    validate_swap_sequence,
)
from pipal.runtime import (
    POWER_ONLY_FRACTION,
    SCRATCH_WORDS,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    WORD,
    meter_scope,
    set_num_threads,
)

FULL_PREFIX = EpsilonConfig(epsilon=0.5, prefix_fraction=1.0)


def words(vals):
    return np.array(vals, dtype=np.uint64)


def seq_result(n, h):
    a = np.arange(n, dtype=np.uint64)
    bl.seq_knuth_shuffle(a, h)
    return a


def test_validate_rejects_bad_sequence():
    with pytest.raises(ValueError):
        validate_swap_sequence(words([0, 2]))


def test_all_self_swaps_is_identity():
    n = 64
    a = np.arange(n, dtype=np.uint64)
    stats = random_permutation(a, np.arange(n, dtype=np.uint64))
    assert a.tolist() == list(range(n))
    assert stats.rounds == 0


def test_worked_example_first_round_commits(capture_rounds):
    # H = [1,1,2,4,2,3,4,2] in 1-indexed form; with a full prefix the first
    # round commits exactly the swap sources 6, 7, 8 (1-indexed)
    h = words([0, 0, 1, 3, 1, 2, 3, 1])
    rounds = capture_rounds(relaxed)
    for variant in RP_VARIANTS:
        a = np.arange(8, dtype=np.uint64)
        rounds.clear()
        random_permutation(a, h, variant=variant, budget=FULL_PREFIX)
        assert sorted(rounds[0][1]) == [5, 6, 7]
        assert a.tolist() == seq_result(8, h).tolist()


def test_worked_example_swaps_match_sequential():
    h = words([0, 0, 1, 3, 1, 2, 3, 1])
    expect = seq_result(8, h)
    # spot-check the first parallel step's effect: positions 5<->2, 6<->3, 7<->1
    a = np.arange(8, dtype=np.uint64)
    random_permutation(a, h, budget=FULL_PREFIX)
    assert np.array_equal(a, expect)


@pytest.mark.parametrize("variant", RP_VARIANTS)
def test_exhaustive_small_all_h(variant):
    # all valid H for n <= 5 (n=6 is covered by the acceptance suite)
    for n in range(1, 6):
        for tail in itertools.product(*(range(i + 1) for i in range(1, n))):
            h = words((0,) + tail)
            expect = seq_result(n, h)
            a = np.arange(n, dtype=np.uint64)
            random_permutation(a, h, variant=variant, budget=FULL_PREFIX)
            assert np.array_equal(a, expect), (n, h.tolist(), variant)


@pytest.mark.parametrize("variant", RP_VARIANTS)
def test_random_h_matches_sequential(variant):
    n = 10_000
    h = make_swap_sequence(n, Rng(177))
    expect = seq_result(n, h)
    a = np.arange(n, dtype=np.uint64)
    stats = random_permutation(a, h, variant=variant)
    assert np.array_equal(a, expect)
    assert stats.total_committed == int(np.count_nonzero(h != np.arange(n, dtype=WORD)))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_thread_count_invariance(threads):
    set_num_threads(threads)
    n = 20_000
    h = make_swap_sequence(n, Rng(3))
    a = np.arange(n, dtype=np.uint64)
    random_permutation(a, h)
    assert np.array_equal(a, seq_result(n, h))


def test_prefix_budget_metering():
    n = 100_000
    h = make_swap_sequence(n, Rng(55))
    budget = EpsilonConfig(epsilon=0.5)  # 2% floor -> 2000 words
    b = budget.prefix_words(n)
    meter = SpaceMeter()
    a = np.arange(n, dtype=np.uint64)
    report = meter_scope(meter, 8 * b, lambda: random_permutation(a, h, budget=budget))
    assert report.peak_words <= 8 * b
    assert meter.current_words == 0
    assert np.array_equal(a, seq_result(n, h))


def test_traced_peak_is_sublinear(traced_peak):
    # the swap-sequence check inside the call must not build n-word
    # temporaries: the real footprint stays O(b), not O(n)
    n = 1 << 18
    budget = EpsilonConfig(0.5, prefix_fraction=POWER_ONLY_FRACTION)
    b = budget.prefix_words(n)
    assert b == 512
    h = make_swap_sequence(n, Rng(1))
    a = np.arange(n, dtype=np.uint64)
    peak, _ = traced_peak(lambda: random_permutation(a, h, budget=budget))
    assert peak <= 64 * 8 * b + 64 * 1024, peak
    assert np.array_equal(a, seq_result(n, h))


@pytest.mark.parametrize("n", [10**6, 1 << 20])
def test_default_budget_charges_at_most_8b(n):
    # the default budget has the 2% floor (b = 20000 at n = 10^6), where the
    # table's 2b slots are not a power of two
    budget = EpsilonConfig(0.5)
    b = budget.prefix_words(n)
    assert b == n // 50
    h = make_swap_sequence(n, Rng(1))
    a = np.arange(n, dtype=np.uint64)
    meter = SpaceMeter()
    report = meter_scope(meter, 8 * b, lambda: random_permutation(a, h, budget=budget))
    assert report.peak_words <= 8 * b, report.peak_words / b
    assert meter.current_words == 0


@pytest.mark.parametrize("n, budget", [
    (10**6, EpsilonConfig(0.5)),
    (1 << 20, EpsilonConfig(0.5)),
    (1 << 18, EpsilonConfig(0.5, prefix_fraction=POWER_ONLY_FRACTION)),
    (1000, EpsilonConfig(0.99, prefix_fraction=POWER_ONLY_FRACTION)),
])
def test_charged_peak_is_4b_plus_mask(n, budget):
    # for the round prefix p = round_words(n) <= b(n): the p-key run (2p
    # words), the p-word target stage, the engine's p-word prefix and its
    # p-byte commit mask
    b, p = budget.prefix_words(n), budget.round_words(n)
    assert p == (SCRATCH_WORDS if b > SCRATCH_WORDS else b)
    h = make_swap_sequence(n, Rng(1))
    a = np.arange(n, dtype=np.uint64)
    meter = SpaceMeter()
    report = meter_scope(meter, 8 * b, lambda: random_permutation(a, h, budget=budget))
    assert report.peak_words == 4 * p + -(-p // 8), (p, report.peak_words)
    assert np.array_equal(a, seq_result(n, h))


def _reference_rounds(h, prefix):
    """The committed ids of each round, by the engine and commit rule in
    plain Python: failures in order, then fresh non-self ids in descending
    order up to the prefix; write-max of each id at its target; an id
    commits iff its target's max is the id and its own position is either
    unclaimed or holds the id."""
    h = h.tolist()
    fresh = [i for i in range(len(h) - 1, -1, -1) if h[i] != i]
    pending: list[int] = []
    rounds = []
    while pending or fresh:
        take = prefix - len(pending)
        ids, fresh = pending + fresh[:take], fresh[take:]
        best: dict[int, int] = {}
        for i in ids:
            best[h[i]] = max(best.get(h[i], 0), i)
        done = [i for i in ids if best[h[i]] == i and best.get(i, i) == i]
        rounds.append(done)
        done_set = set(done)
        pending = [i for i in ids if i not in done_set]
    return rounds


@pytest.mark.parametrize("budget", [
    FULL_PREFIX,
    EpsilonConfig(0.5, prefix_fraction=0.02),
    EpsilonConfig(0.5, prefix_fraction=POWER_ONLY_FRACTION),
])
def test_rounds_match_reference(capture_rounds, budget):
    n = 5000
    h = make_swap_sequence(n, Rng(8))
    a = np.arange(n, dtype=np.uint64)
    rounds = capture_rounds(relaxed)
    random_permutation(a, h, budget=budget)
    # the rounds run over round_words(n): the full prefix is capped at 4096
    assert budget.round_words(n) == min(budget.prefix_words(n), SCRATCH_WORDS)
    expect = _reference_rounds(h, budget.round_words(n))
    assert [sorted(done) for _, done in rounds] == [sorted(r) for r in expect]
    assert np.array_equal(a, seq_result(n, h))


def test_round_stats_conservation():
    n = 5000
    h = make_swap_sequence(n, Rng(21))
    a = np.arange(n, dtype=np.uint64)
    stats = random_permutation(a, h, budget=EpsilonConfig(0.5, prefix_fraction=0.02))
    niter = int(np.count_nonzero(h != np.arange(n, dtype=WORD)))
    assert stats.total_committed == niter
