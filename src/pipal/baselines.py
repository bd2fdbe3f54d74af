"""Sequential and non-in-place reference implementations.

These are the correctness oracles for the in-place modules and the
non-in-place performance comparators.  They deliberately share no code
with the primary modules: the sequential oracles are single-threaded and
written in the most direct style possible.

The loop oracles index their arrays through ``memoryview``s, which yield
plain Python ints, so no input is copied into a Python list (about 40
bytes a word).  Each one's footprint is its output, plus an O(depth)
stack for the tree sums, plus O(1) Python objects.  The union-find
parents are the components' output array; Kruskal also holds its edge
order (m words) and its parents (n words).
"""

from __future__ import annotations

import numpy as np

from .runtime import (M64, NIL, SCRATCH_WORDS, WORD, add_rounds, alloc, as_words,
                      ix, release)

__all__ = [
    "seq_scan", "seq_filter", "seq_knuth_shuffle", "seq_list_rank",
    "seq_tree_eval", "seq_two_finger_merge", "seq_sort",
    "union_find_components", "kruskal_msf",
    "nonip_scan", "nonip_filter", "fullres_shuffle",
]


# ---------------------------------------------------------------------------
# Sequential oracles

def seq_scan(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Exclusive prefix sums mod 2^64 of ``a`` plus the total; ``a`` untouched."""
    as_words(a)
    inc = np.cumsum(a, dtype=WORD)
    out = np.empty_like(a)
    if len(a):
        out[0] = 0
        out[1:] = inc[:-1]
        return out, int(inc[-1])
    return out, 0


def seq_filter(a: np.ndarray, pred) -> np.ndarray:
    """Stable filter into a fresh array; ``pred`` maps a word array to a mask."""
    as_words(a)
    return a[np.asarray(pred(a), dtype=bool)].copy()


def seq_knuth_shuffle(a: np.ndarray, h: np.ndarray) -> None:
    """The textbook shuffle: for i from n-1 down to 0, swap a[i] and a[h[i]]."""
    as_words(a)
    if len(h) != len(a):
        raise ValueError("swap sequence length must match the array")
    av, hv = memoryview(a), memoryview(h)
    for i in range(len(av) - 1, -1, -1):
        j = hv[i]
        av[i], av[j] = av[j], av[i]


def seq_list_rank(next_arr: np.ndarray, prev_arr: np.ndarray) -> np.ndarray:
    """Pointer-walk ranks: position of each node within its chain."""
    n = len(next_arr)
    ranks = np.zeros(n, dtype=WORD)
    nxt, prv, rk = memoryview(next_arr), memoryview(prev_arr), memoryview(ranks)
    for head in range(n):
        if prv[head] != NIL:
            continue
        r = 0
        v = head
        while v != NIL:
            rk[v] = r
            r += 1
            v = nxt[v]
    return ranks


def seq_tree_eval(parent: np.ndarray, left: np.ndarray, right: np.ndarray,
                  values: np.ndarray) -> dict[int, int]:
    """Iterative post-order subtree sums (mod 2^64); returns {root: total}."""
    par, li, ri = memoryview(parent), memoryview(left), memoryview(right)
    vals = memoryview(values)
    out: dict[int, int] = {}
    for root in range(len(par)):
        if par[root] != NIL:
            continue
        total = 0
        stack = [root]
        while stack:
            v = stack.pop()
            total = (total + vals[v]) & M64
            if li[v] != NIL:
                stack.append(li[v])
            if ri[v] != NIL:
                stack.append(ri[v])
        out[root] = total
    return out


def seq_two_finger_merge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Classic two-finger merge of two sorted runs (ties taken from x)."""
    xs, ys = memoryview(x), memoryview(y)
    out = np.empty(len(xs) + len(ys), dtype=WORD)
    o = memoryview(out)
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            o[i + j] = xs[i]
            i += 1
        else:
            o[i + j] = ys[j]
            j += 1
    out[i + j:len(xs) + j] = x[i:]
    out[len(xs) + j:] = y[j:]
    return out


def seq_sort(a: np.ndarray) -> np.ndarray:
    return np.sort(a, kind="stable")


def union_find_components(n: int, edges_u: np.ndarray, edges_v: np.ndarray) -> np.ndarray:
    """Component label per vertex (label = smallest vertex id in component)."""
    parent = np.arange(n, dtype=WORD)
    p = memoryview(parent)

    def find(x: int) -> int:
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    for u, v in zip(memoryview(edges_u), memoryview(edges_v)):
        ru, rv = find(u), find(v)
        if ru != rv:
            if ru < rv:
                p[rv] = ru
            else:
                p[ru] = rv
    # find leaves each vertex pointing straight at its root
    for x in range(n):
        find(x)
    return parent


def kruskal_msf(n: int, edges_u: np.ndarray, edges_v: np.ndarray,
                weights: np.ndarray) -> list[int]:
    """Edge ids of the unique MSF under (weight, edge-id) tie-breaking."""
    order = np.argsort(weights, kind="stable")  # ties by edge id
    eu, ev = memoryview(edges_u), memoryview(edges_v)
    parent = np.arange(n, dtype=WORD)
    p = memoryview(parent)

    def find(x: int) -> int:
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    taken = []
    for e in memoryview(order):
        ru, rv = find(eu[e]), find(ev[e])
        if ru != rv:
            p[ru] = rv
            taken.append(e)
    taken.sort()
    return taken


# ---------------------------------------------------------------------------
# Non-in-place comparators (metered, to demonstrate the Theta(n) contrast)

def nonip_scan(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Two-pass blocked scan writing into a fresh output array.

    Allocates the output plus a per-block partial-sum table, so the metered
    footprint is >= n words.
    """
    as_words(a)
    n = len(a)
    out = alloc(n)
    if n == 0:
        return out, 0
    nblocks = (n + SCRATCH_WORDS - 1) // SCRATCH_WORDS
    sums = alloc(nblocks)
    for b in range(nblocks):
        s = b * SCRATCH_WORDS
        t = min(s + SCRATCH_WORDS, n)
        np.cumsum(a[s:t], dtype=WORD, out=out[s:t])
        sums[b] = out[t - 1]
    total = 0
    for b in range(nblocks):
        block_total = int(sums[b])
        sums[b] = total
        total = (total + block_total) & M64
    for b in range(nblocks):
        s = b * SCRATCH_WORDS
        t = min(s + SCRATCH_WORDS, n)
        base = sums[b]
        out[s + 1:t] = out[s:t - 1] + base
        out[s] = base
    release(sums)
    return out, total


def nonip_filter(a: np.ndarray, pred) -> np.ndarray:
    """Filter into a separate output array (chunk counts + scatter)."""
    as_words(a)
    n = len(a)
    mask = alloc(n, dtype=np.bool_)
    mask[:] = pred(a)
    out = alloc(int(np.count_nonzero(mask)))
    w = 0
    for s in range(0, n, SCRATCH_WORDS):
        t = min(s + SCRATCH_WORDS, n)
        kept = a[s:t][mask[s:t]]
        out[w:w + len(kept)] = kept
        w += len(kept)
    release(mask)
    return out


def fullres_shuffle(a: np.ndarray, h: np.ndarray) -> int:
    """Non-prefixed parallel shuffle: every pending swap reserves into a
    full-size array each round (the linear-auxiliary-space comparator).

    Returns the number of rounds taken, which it also adds to the active
    meter; output equals the sequential shuffle with the same swap
    sequence.
    """
    as_words(a)
    n = len(a)
    if len(h) != n:
        raise ValueError("swap sequence length must match the array")
    if n == 0:
        return 0
    reservations = alloc(n)
    pending = alloc(n)
    idx = np.arange(n, dtype=WORD)
    live = np.flatnonzero(h != idx).astype(WORD)[::-1]  # sequential order
    cnt = len(live)
    pending[:cnt] = live
    rounds = 0
    while cnt:
        ids = pending[:cnt]
        own = ix(ids)
        tgt = ix(h[own])
        tag = ids + WORD(1)
        reservations.fill(0)
        np.maximum.at(reservations, tgt, tag)
        np.maximum.at(reservations, own, tag)
        ok = (reservations[own] == tag) & (reservations[tgt] == tag)
        src = own[ok]
        dst = tgt[ok]
        tmp = a[src]
        a[src] = a[dst]
        a[dst] = tmp
        keep = np.flatnonzero(~ok)
        pending[:len(keep)] = ids[keep]
        cnt = len(keep)
        rounds += 1
    release(pending)
    release(reservations)
    add_rounds(rounds)
    return rounds
