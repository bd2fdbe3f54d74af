from __future__ import annotations

import tracemalloc

import pytest

from pipal import runtime


@pytest.fixture(autouse=True)
def single_thread_default():
    """Each test starts with a thread count of 1 unless it sets another."""
    runtime.set_num_threads(1)
    yield
    runtime.set_num_threads(1)


def _traced_peak(fn):
    """Run ``fn()`` under tracemalloc; return (peak bytes traced above the
    start of the call, ``fn()``'s result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture
def traced_peak():
    """The ``traced_peak(fn) -> (peak_bytes, result)`` helper."""
    return _traced_peak


@pytest.fixture
def capture_rounds(monkeypatch):
    """``capture_rounds(module)`` wraps ``module.run_rounds`` for the rest of
    the test and returns a list that gains one (ids, committed ids) pair of
    lists per round: the ids reserve sees, and those committed after commit.
    Called again for the same module, it empties and returns the same list,
    so a hypothesis test can take a fresh list per example."""
    captured = {}

    def capture(module):
        if module in captured:
            captured[module].clear()
            return captured[module]
        rounds = captured[module] = []
        real = module.run_rounds

        def wrapped(n, prefix, reserve, commit, clean, **kwargs):
            seen = []

            def spy_reserve(view):
                seen.append(view.ids.tolist())
                reserve(view)

            def spy_commit(view):
                commit(view)
                rounds.append((seen.pop(), view.ids[view.committed].tolist()))

            return real(n, prefix, spy_reserve, spy_commit, clean, **kwargs)

        monkeypatch.setattr(module, "run_rounds", wrapped)
        return rounds

    return capture
