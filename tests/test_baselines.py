from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pipal.ops import generate_input
from pipal.runtime import M64, NIL, SpaceMeter, WORD, meter_scope, release
from pipal import baselines as bl


def words(vals):
    return np.array(vals, dtype=np.uint64)


def test_seq_scan_small():
    out, total = bl.seq_scan(words([1, 1, 1]))
    assert out.tolist() == [0, 1, 2]
    assert total == 3


def test_seq_scan_wraps_mod_2_64():
    out, total = bl.seq_scan(words([M64, 5]))
    assert out.tolist() == [0, M64]
    assert total == 4


def test_seq_knuth_shuffle_identity_on_self_swaps():
    a = words(range(8))
    bl.seq_knuth_shuffle(a, words(range(8)))
    assert a.tolist() == list(range(8))


def _shuffle_alt(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    # second, independently written rendering: build the permutation by
    # composing transpositions functionally
    perm = list(range(len(a)))
    for i in range(len(a) - 1, -1, -1):
        j = int(h[i])
        perm[i], perm[j] = perm[j], perm[i]
    return a[np.array(perm, dtype=np.int64)] if len(a) else a.copy()


def test_oracles_double_entry_shuffle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        h = np.array([rng.integers(0, i + 1) for i in range(n)], dtype=np.uint64)
        a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        got = a.copy()
        bl.seq_knuth_shuffle(got, h)
        assert got.tolist() == _shuffle_alt(a, h).tolist()


def test_oracles_double_entry_scan():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 50))
        a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        out, total = bl.seq_scan(a)
        acc = 0
        ref = []
        for v in a.tolist():
            ref.append(acc)
            acc = (acc + v) & M64
        assert out.tolist() == ref and total == acc


def test_seq_list_rank_two_chains():
    # chains: 0 -> 2 -> 4 and 1 -> 3
    nxt = words([2, 3, 4, NIL, NIL])
    prv = words([NIL, NIL, 0, 1, 2])
    ranks = bl.seq_list_rank(nxt, prv)
    assert ranks.tolist() == [0, 0, 1, 1, 2]


def test_seq_tree_eval_three_nodes():
    parent = words([NIL, 0, 0])
    left = words([1, NIL, NIL])
    right = words([2, NIL, NIL])
    vals = words([10, 20, 30])
    assert bl.seq_tree_eval(parent, left, right, vals) == {0: 60}


def test_seq_two_finger_merge_prefers_left_ties():
    out = bl.seq_two_finger_merge(words([1, 3, 3]), words([3, 4]))
    assert out.tolist() == [1, 3, 3, 3, 4]


def test_union_find_components_basic():
    labels = bl.union_find_components(5, words([0, 1]), words([1, 2]))
    assert labels.tolist() == [0, 0, 0, 3, 4]


def test_kruskal_msf_triangle():
    u, v = words([0, 1, 2]), words([1, 2, 0])
    w = words([1, 2, 3])
    assert bl.kruskal_msf(3, u, v, w) == [0, 1]


def test_kruskal_breaks_ties_by_edge_id():
    u, v = words([0, 1, 0]), words([1, 2, 2])
    w = words([5, 5, 5])
    assert bl.kruskal_msf(3, u, v, w) == [0, 1]


def test_nonip_scan_matches_and_allocates_linear():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
    ref, ref_total = bl.seq_scan(a)
    meter = SpaceMeter()
    holder = {}

    def body():
        out, total = bl.nonip_scan(a)
        holder["ok"] = np.array_equal(out, ref) and total == ref_total
        release(out)

    report = meter_scope(meter, 10**9, body)
    assert holder["ok"]
    assert report.peak_words >= len(a)
    assert meter.current_words == 0


def test_nonip_filter_matches_seq_filter():
    rng = np.random.default_rng(14)
    a = rng.integers(0, 1 << 64, size=50_000, dtype=np.uint64)
    pred = lambda b: (b & WORD(1)) == 0
    ref = bl.seq_filter(a, pred)
    meter = SpaceMeter()
    holder = {}

    def body():
        out = bl.nonip_filter(a, pred)
        holder["ok"] = np.array_equal(out, ref)
        release(out)

    meter_scope(meter, 10**9, body)
    assert holder["ok"] and meter.current_words == 0


# ---------------------------------------------------------------------------
# The oracles read their arrays through memoryviews.  These are the earlier
# bodies, which copied every input into a Python list first; the oracles
# must return exactly what they return.

def _list_knuth_shuffle(a, h):
    hl = h.tolist()
    al = a.tolist()
    for i in range(len(al) - 1, -1, -1):
        j = hl[i]
        al[i], al[j] = al[j], al[i]
    a[:] = al


def _list_list_rank(next_arr, prev_arr):
    n = len(next_arr)
    ranks = np.zeros(n, dtype=WORD)
    nxt = next_arr.tolist()
    prv = prev_arr.tolist()
    for head in range(n):
        if prv[head] != NIL:
            continue
        r = 0
        v = head
        while v != NIL:
            ranks[v] = r
            r += 1
            v = nxt[v]
    return ranks


def _list_tree_eval(parent, left, right, values):
    n = len(parent)
    li = left.tolist()
    ri = right.tolist()
    vals = values.tolist()
    out = {}
    for root in range(n):
        if parent[root] != NIL:
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


def _list_two_finger_merge(x, y):
    xs = x.tolist()
    ys = y.tolist()
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return np.array(out, dtype=WORD)


def _list_union_find_components(n, edges_u, edges_v):
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(edges_u.tolist(), edges_v.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.array([find(x) for x in range(n)], dtype=WORD)


def _list_kruskal_msf(n, edges_u, edges_v, weights):
    order = np.lexsort((np.arange(len(weights)), weights))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    taken = []
    for e in order.tolist():
        ru, rv = find(int(edges_u[e])), find(int(edges_v[e]))
        if ru != rv:
            parent[ru] = rv
            taken.append(e)
    taken.sort()
    return taken


def _chains(rng, n, cuts):
    """n nodes in random order, cut into chains at ``cuts`` random places
    (n - 1 cuts: every node its own chain, all pointers NIL)."""
    order = rng.permutation(n)
    nxt = np.full(n, NIL, dtype=WORD)
    prv = np.full(n, NIL, dtype=WORD)
    link = np.ones(max(n - 1, 0), dtype=bool)
    link[rng.permutation(len(link))[:cuts]] = False
    s, t = order[:-1][link], order[1:][link]
    nxt[s], prv[t] = t, s
    return nxt, prv


def _forest(rng, n, roots):
    """A random binary forest on n nodes whose first ``roots`` nodes (in a
    random order) are roots; the others hang off a free child slot of an
    earlier node.  Children and parents not set are NIL."""
    order = rng.permutation(n).tolist()
    parent = np.full(n, NIL, dtype=WORD)
    left = np.full(n, NIL, dtype=WORD)
    right = np.full(n, NIL, dtype=WORD)
    slots = []
    for k, v in enumerate(order):
        if k >= max(roots, 1):
            i = int(rng.integers(len(slots)))
            u, side = slots[i]
            slots[i] = slots[-1]
            slots.pop()
            parent[v] = u
            side[u] = v
        slots += [(v, left), (v, right)]
    return parent, left, right


def _graph(rng, n, m):
    u = rng.integers(0, max(n, 1), size=m, dtype=np.uint64)
    v = rng.integers(0, max(n, 1), size=m, dtype=np.uint64)
    w = rng.integers(0, 4, size=m, dtype=np.uint64)  # many ties
    return u, v, w


@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
@pytest.mark.parametrize("seed", range(4))
def test_oracles_bit_identical_to_list_bodies(n, seed):
    rng = np.random.default_rng([n, seed])
    # shuffle: random swap targets, then only self-swaps
    for h in (np.array([rng.integers(0, i + 1) for i in range(n)], dtype=WORD),
              np.arange(n, dtype=WORD)):
        a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        got, want = a.copy(), a.copy()
        bl.seq_knuth_shuffle(got, h)
        _list_knuth_shuffle(want, h)
        assert got.tolist() == want.tolist()
    # ranks and tree sums: one chain / tree, some, and all-NIL pointers
    for k in (1, 1 + n // 8, n):
        nxt, prv = _chains(rng, n, k - 1)
        got = bl.seq_list_rank(nxt, prv)
        assert got.dtype == WORD
        assert got.tolist() == _list_list_rank(nxt, prv).tolist()
        parent, left, right = _forest(rng, n, k)
        vals = rng.integers(M64 - 3, M64, size=n, dtype=np.uint64, endpoint=True)
        assert (bl.seq_tree_eval(parent, left, right, vals)
                == _list_tree_eval(parent, left, right, vals))
    # merge: runs with ties across them, either of them possibly empty
    for cut in (0, n // 3, n):
        words = np.sort(rng.integers(0, max(n // 4, 1), size=n, dtype=np.uint64))
        x, y = np.sort(words[:cut]), np.sort(words[cut:] + WORD(1))
        got = bl.seq_two_finger_merge(x, y)
        assert got.dtype == WORD
        assert got.tolist() == _list_two_finger_merge(x, y).tolist()
    # union-find and Kruskal: no edges, few (many singletons) and many
    for m in (0, n // 4, 3 * n):
        u, v, w = _graph(rng, n, m)
        got = bl.union_find_components(n, u, v)
        assert got.dtype == WORD
        assert got.tolist() == _list_union_find_components(n, u, v).tolist()
        assert bl.kruskal_msf(n, u, v, w) == _list_kruskal_msf(n, u, v, w)


FOOTPRINT_N = 1 << 16
FOOTPRINT_SLACK = 64 * 1024


def _footprint_cases():
    n = FOOTPRINT_N
    lst = generate_input("list", n, 1)
    tree = generate_input("tree", n + 1, 1)
    g = generate_input("graph", n, 1)
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 1 << 64, size=n + 1, dtype=np.uint64)
    h = (rng.integers(0, 1 << 62, size=n, dtype=np.uint64)
         % np.arange(1, n + 1, dtype=np.uint64))
    a = np.arange(n, dtype=WORD)
    x = np.sort(rng.integers(0, 1 << 64, size=n // 2, dtype=np.uint64))
    y = np.sort(rng.integers(0, 1 << 64, size=n // 2, dtype=np.uint64))
    # Kruskal's working state besides its output: the edge order (m words),
    # the union-find parents (n words) and the sort of its edge-id list (at
    # most half a pointer per taken edge, and it takes at most n - 1)
    return {
        "seq_knuth_shuffle": (lambda: bl.seq_knuth_shuffle(a, h), 0),
        "seq_list_rank": (lambda: bl.seq_list_rank(lst.next, lst.prev), 0),
        "seq_tree_eval": (lambda: bl.seq_tree_eval(tree.parent, tree.left,
                                                   tree.right, vals), 0),
        "seq_two_finger_merge": (lambda: bl.seq_two_finger_merge(x, y), 0),
        "union_find_components": (lambda: bl.union_find_components(g.n, g.u, g.v), 0),
        "kruskal_msf": (lambda: bl.kruskal_msf(g.n, g.u, g.v, g.w),
                        8 * (g.n + g.m) + 4 * g.n),
    }


@pytest.mark.parametrize("oracle", ["seq_knuth_shuffle", "seq_list_rank",
                                    "seq_tree_eval", "seq_two_finger_merge",
                                    "union_find_components", "kruskal_msf"])
def test_oracle_footprint_is_its_output(oracle):
    # no list copy of an input: the traced peak is the output (the bytes
    # still traced when the call returns), Kruskal's working state, a
    # tree's O(depth) stack and O(1) Python objects
    run, working = _footprint_cases()[oracle]
    run()  # numpy's one-time caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()  # held while the traced bytes are read
        held, peak = (t - base for t in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= held + working + FOOTPRINT_SLACK, (oracle, peak, held)
