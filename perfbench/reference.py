"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's host is shared: over seconds to minutes the same pure
Python or numpy code runs up to 25% slower or faster, in every process at
once.  The timed passes therefore run this kernel just before every
operation (and before every ``QUERY_STRIDE``-th consecutive graph query),
and ``body_over_ref`` divides each op's time by the kernel time of its
pass.  The kernel runs no pipal code, so a change to pipal cannot move it.

It mixes the two kinds of work pipal's operations do: a breadth-first
search over Python lists, sets and ints, and numpy sort, scan and mask
passes over a 64 KiB-word array.  One call takes a few milliseconds.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

QUERY_STRIDE = 25
_N = 4000
_DEGREE = 4
_WORDS = 1 << 16


class Reference:
    def __init__(self) -> None:
        rnd = random.Random(7)
        self.adj = [[rnd.randrange(_N) for _ in range(_DEGREE)] for _ in range(_N)]
        self.words = np.random.default_rng(7).integers(0, 1 << 62, _WORDS)

    def __call__(self) -> float:
        """Run the kernel once; returns its seconds."""
        t0 = perf_counter()
        seen = {0}
        queue = [0]
        for x in queue:
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        a = self.words
        np.cumsum(np.sort(a))
        np.argsort(a[(a & 1) == 0])
        return perf_counter() - t0
