from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipal import runtime
from pipal.detres import decompose_driver, run_rounds
from pipal.runtime import (
    M64,
    SCRATCH_WORDS,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    add_rounds,
    alloc,
    aux,
    fork_join,
    ix,
    keep_block,
    meter_scope,
    metered,
    release,
    run_starts,
    set_num_threads,
    step_blocks,
)


@pytest.mark.parametrize("threads", [1, 3])
def test_nested_fork_join_does_not_deadlock(threads):
    set_num_threads(threads)
    order = []

    def leaf(i):
        order.append(i)
        return i

    assert fork_join(lambda: leaf(0), lambda: leaf(1), lambda: leaf(2)) == (0, 1, 2)
    assert order == [0, 1, 2]

    def tree_sum(lo, hi):
        if hi - lo == 1:
            return leaf(lo)
        mid = (lo + hi) // 2
        l, r = fork_join(lambda: tree_sum(lo, mid), lambda: tree_sum(mid, hi))
        return l + r

    order.clear()
    assert tree_sum(0, 512) == 512 * 511 // 2
    assert order == list(range(512))


def test_meter_scope_counts_peak_and_conservation():
    meter = SpaceMeter()

    def body():
        buf = alloc(100)
        release(buf)
        with aux(60):
            pass

    report = meter_scope(meter, 100, body)
    assert report.peak_words == 100
    assert not report.exceeded
    assert meter.current_words == 0


def test_meter_scope_zero_when_nothing_allocated():
    meter = SpaceMeter()
    report = meter_scope(meter, 0, lambda: None)
    assert report.peak_words == 0 and not report.exceeded


def test_meter_flags_budget_overrun_without_abort():
    meter = SpaceMeter()

    def body():
        with aux(50):
            pass

    report = meter_scope(meter, 10, body)
    assert report.exceeded and report.peak_words == 50


def test_bool_buffers_charged_in_words():
    meter = SpaceMeter()
    with metered(meter):
        buf = alloc(64, dtype=np.bool_)
        assert meter.current_words == 8
        release(buf)
    assert meter.current_words == 0


def test_rounds_land_on_the_innermost_meter():
    outer, inner = SpaceMeter(), SpaceMeter()
    with metered(outer):
        add_rounds(2)
        with metered(inner):
            add_rounds(3)
            decompose_driver(10, 4, lambda hint: hint)  # 3 rounds
        add_rounds(1)
    assert (outer.rounds, inner.rounds) == (3, 6)


def test_rounds_outside_any_meter_run_without_error():
    assert runtime._active_meter() is None
    add_rounds(5)
    assert decompose_driver(10, 4, lambda hint: hint).rounds == 3
    assert SpaceMeter().rounds == 0


def test_one_run_rounds_call_adds_exactly_its_rounds():
    def commit_first_half(view):
        view.committed[:(len(view.ids) + 1) // 2] = True

    meter = SpaceMeter()
    with metered(meter):
        add_rounds(7)
        stats = run_rounds(100, 16, lambda view: None, commit_first_half,
                           lambda view: None)
    assert stats.rounds > 100 // 16 + 1 and stats.total_committed == 100
    assert meter.rounds == 7 + stats.rounds


def test_rng_pure_and_seed_sensitive():
    r = Rng(42)
    assert r.word(17) == r.word(17)
    other = Rng(43)
    assert any(r.word(i) != other.word(i) for i in range(100))


def test_rng_vector_matches_scalar():
    r = Rng(12345)
    vec = r.words(0, 1000)
    assert vec.tolist() == [r.word(i) for i in range(1000)]
    idx = np.array([3, 9, 500], dtype=np.uint64)
    assert r.words_at(idx).tolist() == [r.word(3), r.word(9), r.word(500)]


def test_rng_bit_balance():
    r = Rng(2024)
    words = r.words(0, 1_000_000)
    bits = np.unpackbits(words.view(np.uint8)).reshape(-1, 64)
    freq = bits.mean(axis=0)
    assert freq.min() >= 0.49 and freq.max() <= 0.51


def test_epsilon_config_budget_bounds():
    cfg = EpsilonConfig(0.5)
    assert cfg.prefix_words(1) == 1
    assert cfg.prefix_words(10**6) == 20_000  # 2% floor dominates
    pure = EpsilonConfig(0.5, prefix_fraction=runtime.POWER_ONLY_FRACTION)
    assert pure.prefix_words(10**6) == 1000
    for n in (1, 2, 10, 999, 10**6):
        b = pure.prefix_words(n)
        assert 1 <= b <= n


def test_round_words_caps_only_the_fraction_term():
    configs = [EpsilonConfig(0.5), EpsilonConfig(0.3), EpsilonConfig(0.9),
               EpsilonConfig(0.5, prefix_fraction=1.0),
               EpsilonConfig(0.01, prefix_fraction=1.0),
               EpsilonConfig(1e-6, prefix_fraction=1.0),
               EpsilonConfig(0.5, prefix_fraction=runtime.POWER_ONLY_FRACTION),
               EpsilonConfig(0.99, prefix_fraction=runtime.POWER_ONLY_FRACTION)]
    sizes = [0, 1, 2, 1000, SCRATCH_WORDS, 50 * SCRATCH_WORDS, 10**6,
             1 << 20, 1 << 22, 10**9]
    for cfg in configs:
        for n in sizes:
            b, p = cfg.prefix_words(n), cfg.round_words(n)
            power = math.ceil(n ** (1 - cfg.epsilon)) if n else 1
            assert 1 <= p <= b, (cfg, n)
            assert p >= min(power, max(n, 1)), (cfg, n)  # n^(1-eps) wide
            assert p == min(b, max(power, SCRATCH_WORDS)), (cfg, n)
            # p < b exactly when f·n exceeds both n^(1-eps) and the cap
            fn = min(math.floor(cfg.prefix_fraction * n), n)
            assert (p == b) == (fn <= max(power, SCRATCH_WORDS)), (cfg, n)
            if cfg.prefix_fraction == runtime.POWER_ONLY_FRACTION:
                assert p == b, (cfg, n)


def test_round_words_values():
    cfg = EpsilonConfig(0.5)
    assert cfg.prefix_words(1 << 20) == 20_971
    assert cfg.round_words(1 << 20) == SCRATCH_WORDS
    assert cfg.round_words(10**6) == SCRATCH_WORDS
    assert cfg.round_words(100_000) == cfg.prefix_words(100_000) == 2000
    # f·n is capped, but n^(1-eps) is not
    assert EpsilonConfig(0.3).round_words(10**6) == math.ceil((10**6) ** 0.7)
    # f = 1 is capped too: a whole-input prefix needs epsilon near 0
    full = EpsilonConfig(0.5, prefix_fraction=1.0)
    assert full.prefix_words(5000) == 5000
    assert full.round_words(5000) == SCRATCH_WORDS
    assert full.round_words(SCRATCH_WORDS) == SCRATCH_WORDS
    assert EpsilonConfig(1e-6, prefix_fraction=1.0).round_words(5000) == 5000
    pure = EpsilonConfig(0.5, prefix_fraction=runtime.POWER_ONLY_FRACTION)
    assert pure.round_words(1 << 18) == pure.prefix_words(1 << 18) == 512


def test_epsilon_config_validation():
    with pytest.raises(ValueError):
        EpsilonConfig(0.0)
    with pytest.raises(ValueError):
        EpsilonConfig(0.5, prefix_fraction=0.0)


# masks of up to three blocks and a bit, so kept runs cross block edges
@given(st.lists(st.booleans(), max_size=3 * SCRATCH_WORDS + 17),
       st.integers(0, 2**32))
@example(mask=[True] * (SCRATCH_WORDS + 5) + [False, True] * SCRATCH_WORDS,
         seed=0)
@example(mask=[False, True, True] * SCRATCH_WORDS, seed=1)
@settings(max_examples=60, deadline=None)
def test_compact_by_mask_matches_boolean_indexing(mask, seed):
    rng = np.random.default_rng(seed)
    keep = np.array(mask, dtype=bool)
    arr = rng.integers(0, 1 << 64, size=len(keep), dtype=np.uint64)
    expected = arr[keep].tolist()
    cnt = step_blocks(arr, keep_block, lambda s, e: keep[s:e])
    assert arr[:cnt].tolist() == expected


@pytest.mark.parametrize("vals, starts", [
    ([], []),
    ([7], [True]),
    ([2, 2, 5, 5, 5, 2, 9], [True, False, True, False, False, True, True]),
])
def test_run_starts_marks_the_first_of_each_run(vals, starts):
    assert run_starts(np.array(vals, dtype=np.uint64)).tolist() == starts


def test_ix_is_an_int64_view_without_a_copy():
    words = np.array([0, 7, (1 << 63) - 1], dtype=np.uint64)
    view = ix(words)
    assert view.dtype == np.int64 and np.shares_memory(view, words)
    assert view.tolist() == [0, 7, (1 << 63) - 1]


@pytest.mark.parametrize("arr", [np.arange(3, dtype=np.int64),
                                 np.zeros(3, dtype=bool), [0, 1]],
                         ids=["int64", "bool", "list"])
def test_ix_rejects_anything_but_words(arr):
    with pytest.raises(TypeError):
        ix(arr)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_determinism_across_thread_counts(threads):
    set_num_threads(threads)
    n = 50_000
    a = Rng(5).words(0, n)
    out = np.zeros(n, dtype=np.uint64)
    fork_join(lambda: out.__setitem__(slice(0, n // 2), a[:n // 2] * np.uint64(3)),
              lambda: out.__setitem__(slice(n // 2, n), a[n // 2:] * np.uint64(3)))
    assert int(out.sum(dtype=np.uint64)) == int((a * np.uint64(3)).sum(dtype=np.uint64))
