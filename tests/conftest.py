from __future__ import annotations

import numpy as np
import pytest

from pipal import runtime


@pytest.fixture(autouse=True)
def single_thread_default():
    """Each test starts with a thread count of 1 unless it sets another."""
    runtime.set_num_threads(1)
    yield
    runtime.set_num_threads(1)


def random_words(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
