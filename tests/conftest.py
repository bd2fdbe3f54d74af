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
