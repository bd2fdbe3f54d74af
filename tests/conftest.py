from __future__ import annotations

import pytest

from pipal import runtime


@pytest.fixture(autouse=True)
def single_thread_default():
    """Each test starts with a thread count of 1 unless it sets another."""
    runtime.set_num_threads(1)
    yield
    runtime.set_num_threads(1)

