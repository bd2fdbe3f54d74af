from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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


def test_validate_traced_peak_is_constant(traced_peak):
    # the check walks SCRATCH_WORDS-word blocks: no n-word temporary
    n = 1 << 20
    h = make_swap_sequence(n, Rng(9))
    peak, _ = traced_peak(lambda: validate_swap_sequence(h))
    assert peak < 4 * SCRATCH_WORDS * 8, peak


@pytest.mark.parametrize("at", [SCRATCH_WORDS - 1, SCRATCH_WORDS,
                                3 * SCRATCH_WORDS, 3 * SCRATCH_WORDS + 6],
                         ids=["block-end", "block-start", "last-block-start",
                              "last-word"])
def test_validate_rejects_at_block_edges(at):
    n = 3 * SCRATCH_WORDS + 7  # the last block holds 7 words
    h = make_swap_sequence(n, Rng(10))
    # the count of non-self swaps, which random_permutation runs as iterates
    assert validate_swap_sequence(h) == int(np.count_nonzero(h != np.arange(n)))
    h[at] = at + 1
    with pytest.raises(ValueError, match="must lie in"):
        validate_swap_sequence(h)


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
    # for the round prefix p = round_words(n) <= b(n): only the engine's
    # p-word prefix and its p-byte commit mask; the claims go into h itself
    b, p = budget.prefix_words(n), budget.round_words(n)
    assert p == (SCRATCH_WORDS if b > SCRATCH_WORDS else b)
    h = make_swap_sequence(n, Rng(1))
    a = np.arange(n, dtype=np.uint64)
    meter = SpaceMeter()
    report = meter_scope(meter, 8 * b, lambda: random_permutation(a, h, budget=budget))
    assert report.peak_words == p + -(-p // 8), (p, report.peak_words)
    assert np.array_equal(a, seq_result(n, h))


class _MinimumThatRaises:
    """``np.minimum`` whose ``at`` raises after its writes on the chosen
    call, so a round fails between the targets' overwrite and restore."""

    def __init__(self, real, on_call):
        self.real = real
        self.on_call = on_call
        self.calls = 0

    def __call__(self, *args, **kwargs):
        return self.real(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.real, name)

    def at(self, *args):
        self.real.at(*args)
        self.calls += 1
        if self.calls == self.on_call:
            raise KeyboardInterrupt


@pytest.mark.parametrize("on_call", [1, 5])
def test_reserve_restores_h_when_a_round_raises(monkeypatch, on_call):
    # the reserve writes its claims into h's target slots; whatever a round
    # raises, every slot gets its word back and the engine's words return
    n = 5000
    h = make_swap_sequence(n, Rng(33))
    before = h.tobytes()
    minimum = _MinimumThatRaises(np.minimum, on_call)
    monkeypatch.setattr(np, "minimum", minimum)
    meter = SpaceMeter()
    a = np.arange(n, dtype=np.uint64)
    budget = EpsilonConfig(0.5, prefix_fraction=POWER_ONLY_FRACTION)
    with pytest.raises(KeyboardInterrupt):
        meter_scope(meter, 8 * budget.prefix_words(n),
                    lambda: random_permutation(a, h, budget=budget))
    assert minimum.calls == on_call
    assert h.tobytes() == before
    assert meter.current_words == 0


def _reference_rounds(h, prefix):
    """The committed ids of each round, by the engine and commit rule in
    plain Python: failures in order, then fresh non-self ids in descending
    order up to the prefix; write-max of each id at its target; an id
    commits iff its target's max is the id and its own position is either
    unclaimed or holds the id."""
    h = h.tolist()
    fresh = [i for i in range(len(h) - 1, -1, -1) if h[i] != i]
    next_fresh = 0
    pending: list[int] = []
    rounds = []
    while pending or next_fresh < len(fresh):
        take = prefix - len(pending)
        ids = pending + fresh[next_fresh:next_fresh + take]
        next_fresh += take
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


@pytest.mark.parametrize("eps, p", [(0.5, 512), (0.7, 43)])
def test_refill_is_exact_across_self_swap_runs(capture_rounds, eps, p):
    # runs of self-swaps across the first refill's window and across a
    # later refill, one of them longer than SCRATCH_WORDS: the rounds still
    # take exactly p ids while that many remain
    n = 1 << 18
    budget = EpsilonConfig(eps, prefix_fraction=POWER_ONLY_FRACTION)
    assert budget.round_words(n) == p
    h = make_swap_sequence(n, Rng(31))
    for lo, hi in ((n - p - 20, n - p + 20), (n // 2 - SCRATCH_WORDS - 900,
                                                n // 2)):
        h[lo:hi] = np.arange(lo, hi, dtype=WORD)
    a = np.arange(n, dtype=np.uint64)
    rounds = capture_rounds(relaxed)
    random_permutation(a, h, budget=budget)
    expect = _reference_rounds(h, p)
    assert [sorted(done) for _, done in rounds] == [sorted(r) for r in expect]
    assert len(rounds[0][0]) == len(rounds[1][0]) == p
    assert np.array_equal(a, seq_result(n, h))


def test_rp_id_source_takes_exactly_count():
    # every refill returns the largest `count` pending non-self ids,
    # descending, whatever runs of self-swaps lie below the cursor
    n = 3 * SCRATCH_WORDS
    h = make_swap_sequence(n, Rng(32))
    h[100:SCRATCH_WORDS + 300] = np.arange(100, SCRATCH_WORDS + 300, dtype=WORD)
    h[n - 5:n - 2] = np.arange(n - 5, n - 2, dtype=WORD)
    pending = [i for i in range(n - 1, -1, -1) if h[i] != i]
    client = relaxed._RpClient(np.arange(n, dtype=WORD), h)
    for count in (4, 1, 2 * SCRATCH_WORDS, 7, 500, n):
        assert client.next_ids(count).tolist() == pending[:count]
        pending = pending[count:]
    assert not pending


@st.composite
def _narrow_cases(draw):
    n = draw(st.integers(0, 64))
    h = [draw(st.integers(0, i)) for i in range(n)]
    return words(h), draw(st.sampled_from([0.5, 0.7, 0.9, 0.99]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_narrow_cases())
@example((words([0] * 40), 0.7))  # every id targets 0
@example((words([0] + list(range(39))), 0.7))  # every id its predecessor
@example((words([0]), 0.5))
def test_narrow_prefix_rounds_match_reference(capture_rounds, case):
    # p = ceil(n^(1-eps)) runs from 1 to 8, so failures carry over for many
    # rounds ahead of the fresh ids: the round's ids must still descend
    h, eps = case
    n = len(h)
    budget = EpsilonConfig(eps, prefix_fraction=POWER_ONLY_FRACTION)
    a = np.arange(n, dtype=np.uint64)
    rounds = capture_rounds(relaxed)
    random_permutation(a, h, budget=budget)
    expect = _reference_rounds(h, budget.round_words(n))
    assert [sorted(done) for _, done in rounds] == [sorted(r) for r in expect]
    assert np.array_equal(a, seq_result(n, h))


def test_length_checks_raise_before_any_word_is_charged():
    # no word is packed, so no length cap remains; a length mismatch is
    # still rejected from the lengths alone, before any word is read or
    # charged, even at 2^32 words
    class Huge(np.ndarray):
        def __len__(self):
            return 1 << 32

    huge = np.zeros(4, dtype=np.uint64).view(Huge)
    small = np.zeros(4, dtype=np.uint64)
    for a, h in ((huge, small), (small, huge)):
        meter = SpaceMeter()
        with pytest.raises(ValueError, match="length must match"):
            meter_scope(meter, 1, lambda: random_permutation(a, h))
        assert meter.current_words == 0


def test_round_stats_conservation():
    n = 5000
    h = make_swap_sequence(n, Rng(21))
    a = np.arange(n, dtype=np.uint64)
    stats = random_permutation(a, h, budget=EpsilonConfig(0.5, prefix_fraction=0.02))
    niter = int(np.count_nonzero(h != np.arange(n, dtype=WORD)))
    assert stats.total_committed == niter
