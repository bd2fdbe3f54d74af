from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipal.detres import (
    LivelockError,
    ReservationTable,
    run_rounds,
)
from pipal.runtime import SCRATCH_WORDS, SpaceMeter, metered


def words(vals):
    return np.array(vals, dtype=np.uint64)


# ---------------------------------------------------------------------------
# ReservationTable

def get(t, key):
    vals, found = t.lookup(words([key]))
    return int(vals[0]) if found[0] else None


def test_put_then_get():
    t = ReservationTable(16)
    t.reserve_max(words([3]), words([7]))
    assert get(t, 3) == 7
    assert get(t, 4) is None


def test_max_semantics_batched_duplicates():
    t = ReservationTable(16)
    t.reserve_max(words([5, 5, 5]), words([3, 9, 5]))
    assert get(t, 5) == 9
    t.reserve_max(words([5]), words([4]))
    assert get(t, 5) == 9
    t.reserve_max(words([5]), words([11]))
    assert get(t, 5) == 11


def test_table_matches_sequential_max_map():
    rng = np.random.default_rng(42)
    keys = rng.integers(0, 500, size=10_000, dtype=np.uint64)
    vals = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
    ref: dict[int, int] = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        ref[k] = max(ref.get(k, 0), v)

    for capacity in (2048, 1000, 41942):  # exact sizes, not rounded up
        t = ReservationTable(capacity)
        assert t.capacity == capacity
        for s in range(0, 10_000, 700):  # several batches, arbitrary cuts
            t.reserve_max(keys[s:s + 700], vals[s:s + 700])
        got, found = t.lookup(np.arange(500, dtype=np.uint64))
        for k in range(500):
            if k in ref:
                assert found[k] and int(got[k]) == ref[k]
            else:
                assert not found[k]


def test_overfull_at_capacity():
    t = ReservationTable(64)
    keys = np.arange(0, 128, 2, dtype=np.uint64)
    t.reserve_max(keys, keys)
    t.reserve_max(keys[::-1], keys)  # repeats add no key
    assert t.count == t.capacity == 64 and t.peak_load == 1.0
    with pytest.raises(RuntimeError, match="overfull"):
        t.reserve_max(words([5, 0]), words([1 << 63, 1 << 63]))
    assert t.count == 64
    assert t.keys.tolist() == keys.tolist()
    assert t.vals.tolist() == np.maximum(keys, keys[::-1]).tolist()


def test_lookup_outside_the_run_and_empty_batches():
    t = ReservationTable(8)
    vals, found = t.lookup(words([0, 5, (1 << 64) - 1]))  # empty run
    assert not found.any() and vals.tolist() == [(1 << 64) - 1] * 3
    t.reserve_max(words([]), words([]))
    assert t.count == 0
    t.reserve_max(words([10, 20, 30]), words([1, 2, 3]))
    vals, found = t.lookup(words([(1 << 64) - 1, 9, 0, 31, 20]))
    assert found.tolist() == [False, False, False, False, True]
    assert int(vals[4]) == 2
    vals, found = t.lookup(words([]))
    assert len(vals) == 0 and len(found) == 0


def test_delete_then_empty():
    t = ReservationTable(32)
    keys = words([1, 9, 17, 25, 33])
    t.reserve_max(keys, keys)
    t.delete(keys)
    assert t.count == 0
    _, found = t.lookup(keys)
    assert not found.any()


def test_clear_resets_all_slots():
    t = ReservationTable(32)
    t.reserve_max(words([2, 4, 6]), words([1, 1, 1]))
    t.clear()
    assert t.count == 0
    _, found = t.lookup(words([2, 4, 6]))
    assert not found.any()


@given(st.lists(st.lists(st.tuples(st.integers(0, 40),
                                   st.integers(0, (1 << 64) - 1)),
                         max_size=60),
                max_size=5),
       st.sampled_from([41, 100, 1000, 41942]))
@settings(max_examples=80, deadline=None)
def test_table_property_vs_dict(batches, capacity):
    t = ReservationTable(capacity)
    ref: dict[int, int] = {}
    for pairs in batches:  # keys repeat within and across batches
        t.reserve_max(words([k for k, _ in pairs]), words([v for _, v in pairs]))
        for k, v in pairs:
            ref[k] = max(ref.get(k, 0), v)
        for k in range(41):
            assert get(t, k) == ref.get(k)
    assert t.count == len(ref)


def test_capacity_beyond_32_bits_rejected_before_allocating():
    meter = SpaceMeter()
    with metered(meter):
        with pytest.raises(ValueError, match="2\\^32"):
            ReservationTable(1 << 32)
    assert meter.peak_words == 0


def test_table_charges_meter():
    meter = SpaceMeter()
    with metered(meter):
        t = ReservationTable(512)
        assert meter.current_words == 2 * 512
        t.release()
    assert meter.current_words == 0


# ---------------------------------------------------------------------------
# run_rounds

def _client_all_succeed(committed=None):
    """A client whose every iterate commits; ``committed``, when given,
    gains each round's commit count."""
    def reserve(view):
        pass

    def commit(view):
        view.committed[:] = True
        if committed is not None:
            committed.append(len(view.ids))

    def clean(view):
        pass

    return reserve, commit, clean


def test_all_commits_two_rounds():
    committed = []
    r, c, cl = _client_all_succeed(committed)
    stats = run_rounds(8, 4, r, c, cl)
    assert stats.rounds == 2 and stats.total_committed == 8
    assert committed == [4, 4]


def test_single_iterate_single_round():
    committed = []
    r, c, cl = _client_all_succeed(committed)
    stats = run_rounds(1, 4, r, c, cl)
    assert stats.rounds == 1 and committed == [1]


def test_conservation_and_packing_order():
    # every iterate commits exactly once; failures retry in packed order,
    # ahead of the fresh ids.  The second input's prefix spans more than
    # one SCRATCH_WORDS block, so the packing runs over several blocks' ids
    for n, prefix in ((1000, 128),
                      (3 * SCRATCH_WORDS + 7, 2 * SCRATCH_WORDS + 1)):
        seen: list[int] = []
        failed = np.empty(0, dtype=np.uint64)

        def reserve(view):
            # the last round's failures lead the prefix, in order
            assert np.array_equal(view.ids[:len(failed)], failed)

        def commit(view):
            nonlocal failed
            ids = view.ids
            # commit only even ids on their first try; everything on retry
            ok = (ids % np.uint64(2) == 0) | retried[ids]
            view.committed[:] = ok
            seen.extend(ids[ok].tolist())
            failed = ids[~ok]
            retried[ids] = True

        def clean(view):
            # packed order respected: active prefix must be ascending
            assert np.all(np.diff(view.ids.astype(np.int64)) > 0)

        retried = np.zeros(n, dtype=bool)
        stats = run_rounds(n, prefix, reserve, commit, clean)
        assert sorted(seen) == list(range(n))
        assert stats.total_committed == n


def test_livelock_guard_aborts():
    def reserve(view):
        pass

    def commit(view):
        view.committed[:] = False

    def clean(view):
        pass

    with pytest.raises(LivelockError):
        run_rounds(10, 4, reserve, commit, clean)


@pytest.mark.parametrize("yielded", [list(range(5)), list(range(10)) + [3]],
                         ids=["short", "surplus"])
def test_source_must_yield_exactly_n_iterates(yielded):
    pending = iter(yielded)

    def source(count):
        return np.fromiter(itertools.islice(pending, count), dtype=np.uint64)

    r, c, cl = _client_all_succeed()
    with pytest.raises(RuntimeError) as err:
        run_rounds(10, 5, r, c, cl, id_source=source)
    assert not isinstance(err.value, LivelockError)
