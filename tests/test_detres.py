from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipal.detres import (
    LivelockError,
    ReservationTable,
    run_rounds,
)
from pipal.runtime import NIL, SpaceMeter, WORD, metered


def words(vals):
    return np.array(vals, dtype=np.uint64)


# ---------------------------------------------------------------------------
# ReservationTable

def test_put_then_get():
    t = ReservationTable(16)
    t.put_max(3, 7)
    assert t.get(3) == 7
    assert t.get(4) is None


def test_max_semantics_batched_duplicates():
    t = ReservationTable(16)
    t.reserve_max(words([5, 5, 5]), words([3, 9, 5]))
    assert t.get(5) == 9
    t.put_max(5, 4)
    assert t.get(5) == 9
    t.put_max(5, 11)
    assert t.get(5) == 11


def test_table_matches_sequential_max_map():
    rng = np.random.default_rng(42)
    keys = rng.integers(0, 500, size=10_000, dtype=np.uint64)
    vals = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
    ref: dict[int, int] = {}
    for k, v in zip(keys.tolist(), vals.tolist()):
        ref[k] = max(ref.get(k, 0), v)

    t = ReservationTable(2048)
    for s in range(0, 10_000, 700):  # several batches, arbitrary cuts
        t.reserve_max(keys[s:s + 700], vals[s:s + 700])
    got, found = t.lookup(np.arange(500, dtype=np.uint64))
    for k in range(500):
        if k in ref:
            assert found[k] and int(got[k]) == ref[k]
        else:
            assert not found[k]


def test_load_factor_capped_at_half():
    t = ReservationTable(64)
    t.reserve_max(np.arange(32, dtype=np.uint64), np.arange(32, dtype=np.uint64))
    assert t.peak_load <= 0.5
    with pytest.raises(RuntimeError, match="overfull"):
        t.reserve_max(np.arange(32, 64, dtype=np.uint64),
                      np.arange(32, dtype=np.uint64))


def test_delete_then_empty():
    t = ReservationTable(32)
    keys = words([1, 9, 17, 25, 33])  # likely colliding homes
    t.reserve_max(keys, keys)
    t.delete(keys)
    assert t.count == 0
    _, found = t.lookup(keys)
    assert not found.any()


def test_probe_overflow_raises():
    t = ReservationTable(8)
    t.keys[:] = np.arange(100, 100 + t.capacity, dtype=np.uint64)
    t.count = t.capacity
    absent = words([7])
    with pytest.raises(RuntimeError, match="probe overflow"):
        t.lookup(absent)
    with pytest.raises(RuntimeError, match="probe overflow"):
        t.delete(absent)


def test_clear_resets_all_slots():
    t = ReservationTable(32)
    t.reserve_max(words([2, 4, 6]), words([1, 1, 1]))
    t.clear()
    assert t.count == 0
    _, found = t.lookup(words([2, 4, 6]))
    assert not found.any()


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1000)), max_size=200))
@settings(max_examples=80, deadline=None)
def test_table_property_vs_dict(pairs):
    t = ReservationTable(256)
    ref: dict[int, int] = {}
    if pairs:
        ks = words([k for k, _ in pairs])
        vs = words([v for _, v in pairs])
        t.reserve_max(ks, vs)
        for k, v in pairs:
            ref[k] = max(ref.get(k, 0), v)
    for k in range(41):
        assert t.get(k) == ref.get(k)


def test_table_charges_meter():
    meter = SpaceMeter()
    with metered(meter):
        t = ReservationTable(512)
        assert meter.current_words == 2 * 512
        t.release()
    assert meter.current_words == 0


# ---------------------------------------------------------------------------
# run_rounds

def _client_all_succeed():
    def reserve(view):
        pass

    def commit(view):
        view.committed[:] = True

    def clean(view):
        pass

    return reserve, commit, clean


def test_all_commits_two_rounds():
    r, c, cl = _client_all_succeed()
    stats = run_rounds(8, 4, r, c, cl)
    assert stats.rounds == 2
    assert stats.committed_per_round == [4, 4]


def test_single_iterate_single_round():
    r, c, cl = _client_all_succeed()
    stats = run_rounds(1, 4, r, c, cl)
    assert stats.rounds == 1 and stats.committed_per_round == [1]


def test_conservation_and_packing_order():
    # every iterate commits exactly once; failures retry in packed order
    n = 1000
    seen: list[int] = []

    def reserve(view):
        pass

    def commit(view):
        ids = view.ids
        # commit only even ids on their first try; everything on retry
        first_try = ids >= np.uint64(len(seen_rounds) * 0)  # always true
        ok = (ids % np.uint64(2) == 0) | retried[ids]
        view.committed[:] = ok
        seen.extend(ids[ok].tolist())
        retried[ids] = True

    def clean(view):
        # packed order respected: active prefix must be ascending
        assert np.all(np.diff(view.ids.astype(np.int64)) > 0)

    seen_rounds: list[int] = []
    retried = np.zeros(n, dtype=bool)
    stats = run_rounds(n, 128, reserve, commit, clean)
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


def test_trace_collects_committed_ids():
    trace: list[np.ndarray] = []

    def commit(view):
        view.committed[:] = (view.ids % np.uint64(3) != 0) | (view.round_index > 0)

    def other(view):
        pass

    run_rounds(9, 9, other, commit, other, trace=trace)
    assert sorted(trace[0].tolist()) == [1, 2, 4, 5, 7, 8]
    assert sorted(trace[1].tolist()) == [0, 3, 6]
