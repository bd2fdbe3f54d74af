from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipal import runtime
from pipal.runtime import (
    M64,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    alloc,
    aux,
    compact_by_mask,
    fork_join,
    meter_scope,
    metered,
    parallel_blocks,
    release,
    set_num_threads,
)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_parallel_for_identity_fill(threads):
    set_num_threads(threads)
    a = np.zeros(4, dtype=np.uint64)

    def body(s, t):
        for i in range(s, t):
            a[i] = i

    parallel_blocks(0, 4, body)
    assert a.tolist() == [0, 1, 2, 3]


def test_parallel_for_empty_range():
    calls = []
    parallel_blocks(0, 0, lambda s, t: calls.append((s, t)))
    parallel_blocks(5, 3, lambda s, t: calls.append((s, t)))
    assert calls == []


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_parallel_for_matches_sequential_loop(threads):
    n = 100_000
    rng = np.random.default_rng(7)
    base = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)

    expected = base.copy()
    for s in range(0, n, 1000):
        expected[s:s + 1000] += np.uint64(1)

    set_num_threads(threads)
    got = base.copy()
    parallel_blocks(0, n, lambda s, t: got.__setitem__(slice(s, t), got[s:t] + np.uint64(1)))
    assert np.array_equal(got, expected)


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


def test_epsilon_config_validation():
    with pytest.raises(ValueError):
        EpsilonConfig(0.0)
    with pytest.raises(ValueError):
        EpsilonConfig(0.5, prefix_fraction=0.0)


@given(st.lists(st.booleans(), max_size=600), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_compact_by_mask_matches_boolean_indexing(mask, seed):
    rng = np.random.default_rng(seed)
    keep = np.array(mask, dtype=bool)
    arr = rng.integers(0, 1 << 64, size=len(keep), dtype=np.uint64)
    expected = arr[keep].tolist()
    cnt = compact_by_mask(arr, lambda s, e: keep[s:e], 0, len(arr))
    assert arr[:cnt].tolist() == expected


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_determinism_across_thread_counts(threads):
    set_num_threads(threads)
    n = 50_000
    a = Rng(5).words(0, n)
    out = np.zeros(n, dtype=np.uint64)
    parallel_blocks(0, n, lambda s, t: out.__setitem__(slice(s, t), a[s:t] * np.uint64(3)))
    assert int(out.sum(dtype=np.uint64)) == int((a * np.uint64(3)).sum(dtype=np.uint64))
