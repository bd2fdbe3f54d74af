from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipal import baselines as bl
from pipal import contraction
from pipal.contraction import (
    BinaryTree,
    LinkedList,
    list_contract,
    list_rank,
    make_priorities,
    tree_contract,
    validate_binary_tree,
    validate_linked_list,
)
from pipal.detres import RoundView
from pipal.ops import generate_input
from pipal.runtime import (
    M64,
    NIL,
    POWER_ONLY_FRACTION,
    SCRATCH_WORDS,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    WORD,
    ix,
    meter_scope,
)

FULL = EpsilonConfig(0.5, prefix_fraction=1.0)
PURE = lambda eps: EpsilonConfig(eps, prefix_fraction=POWER_ONLY_FRACTION)


def words(vals):
    return np.array([NIL if v is None else v for v in vals], dtype=np.uint64)


def chain_list(order):
    """Build a LinkedList whose single chain visits `order` in sequence."""
    n = len(order)
    nxt = np.full(n, NIL, dtype=np.uint64)
    prv = np.full(n, NIL, dtype=np.uint64)
    for a, b in zip(order, order[1:]):
        nxt[a] = b
        prv[b] = a
    return LinkedList(nxt, prv)


def random_chains(rng, n, nchains):
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=nchains - 1, replace=False)) \
        if nchains > 1 else np.array([], dtype=np.int64)
    nxt = np.full(n, NIL, dtype=np.uint64)
    prv = np.full(n, NIL, dtype=np.uint64)
    prev_cut = 0
    for cut in list(cuts) + [n]:
        seg = order[prev_cut:cut]
        for a, b in zip(seg, seg[1:]):
            nxt[a] = b
            prv[b] = a
        prev_cut = cut
    return LinkedList(nxt, prv)


def random_full_binary_tree(rng, n):
    """Random shape, random node ids; every internal node has two children."""
    assert n % 2 == 1
    ids = rng.permutation(n)
    parent = np.full(n, NIL, dtype=np.uint64)
    left = np.full(n, NIL, dtype=np.uint64)
    right = np.full(n, NIL, dtype=np.uint64)
    # grow by replacing a random leaf with an internal node + two leaves
    leaves = [int(ids[0])]
    used = 1
    while used < n:
        pick = int(rng.integers(0, len(leaves)))
        node = leaves.pop(pick)
        l, r = int(ids[used]), int(ids[used + 1])
        used += 2
        left[node] = l
        right[node] = r
        parent[l] = node
        parent[r] = node
        leaves.extend([l, r])
    return BinaryTree(parent, left, right)


# ---------------------------------------------------------------------------
# validation

def test_validate_rejects_non_inverse_links():
    bad = LinkedList(words([1, None]), words([None, None]))
    with pytest.raises(ValueError):
        validate_linked_list(bad)


def test_validate_rejects_cycles():
    two_cycle = LinkedList(words([1, 0]), words([1, 0]))
    with pytest.raises(ValueError, match="cycle"):
        validate_linked_list(two_cycle)


def test_validate_tree_rejects_one_child():
    bad = BinaryTree(words([None, 0]), words([1, None]), words([None, None]))
    with pytest.raises(ValueError, match="exactly two children"):
        validate_binary_tree(bad)


def test_validate_tree_rejects_shared_child():
    bad = BinaryTree(words([None, 0, 0]), words([1, None, None]),
                     words([1, None, None]))
    with pytest.raises(ValueError, match="inconsistent"):
        validate_binary_tree(bad)


def contraction_lines(fn):
    """Run ``fn`` and count the Python lines it executes in pipal.contraction:
    a deterministic stand-in for the number of vectorized steps."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == contraction.__file__ else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return count


def test_validate_long_chain_in_logarithmic_steps():
    n = 1 << 16
    lst = chain_list(range(n))
    assert contraction_lines(lambda: validate_linked_list(lst)) < 500
    lst.next[n - 1] = 0
    lst.prev[0] = n - 1
    with pytest.raises(ValueError, match="cycle"):
        validate_linked_list(lst)


@st.composite
def jump_forests(draw):
    """(up, dist): a random forest of up to 64 nodes over shuffled ids, its
    parent links pointing both up and down the id range, sometimes with one
    node's root linked back to that node to close a cycle."""
    n = draw(st.integers(1, 64))
    order = draw(st.permutations(range(n)))
    up = np.full(n, NIL, dtype=np.uint64)
    for i in range(1, n):
        j = draw(st.integers(-1, i - 1))
        if j >= 0:
            up[order[i]] = order[j]
    if draw(st.booleans()):
        v = draw(st.integers(0, n - 1))
        root = v
        while up[root] != NIL:
            root = int(up[root])
        up[root] = v
    dist = np.array(draw(st.lists(st.integers(0, M64), min_size=n,
                                  max_size=n)), dtype=np.uint64)
    return up, dist


@given(jump_forests(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_block_jump_matches_synchronous_doubling(forest, block):
    up, dist = forest
    ref_up, ref_dist = up.copy(), dist.copy()
    done = contraction._jump(ref_up, ref_dist)
    assert contraction._jump(up, dist, block) == done
    if done:
        assert np.array_equal(dist, ref_dist)
        assert np.all(up == NIL)


def caterpillar(k, closed=False):
    """Spine 0..k-1 (left children), one leaf per spine node (right children);
    ``closed`` makes the last spine node's left child the root, else a leaf."""
    n = 2 * k + (0 if closed else 1)
    pa = np.full(n, NIL, dtype=np.uint64)
    lf = np.full(n, NIL, dtype=np.uint64)
    rt = np.full(n, NIL, dtype=np.uint64)
    spine = np.arange(k)
    lf[spine[:-1]] = spine[1:]
    pa[spine[1:]] = spine[:-1]
    rt[spine] = k + spine
    pa[k + spine] = spine
    lf[k - 1] = 0 if closed else 2 * k
    pa[lf[k - 1]] = k - 1
    return BinaryTree(pa, lf, rt)


def test_validate_deep_caterpillar_in_logarithmic_steps():
    tree = caterpillar(1 << 15)
    assert contraction_lines(lambda: validate_binary_tree(tree)) < 500
    with pytest.raises(ValueError, match="cycle"):
        validate_binary_tree(caterpillar(1 << 15, closed=True))


# ---------------------------------------------------------------------------
# list contraction

def test_singleton_splices_in_one_round(capture_rounds):
    lst = LinkedList(words([None]), words([None]))
    rounds = capture_rounds(contraction)
    stats = list_contract(lst, words([0]), budget=FULL)
    assert stats.rounds == 1 and rounds == [([0], [0])]


def test_worked_instance_first_round_and_round_count(capture_rounds):
    # chain with priorities [5,1,6,2,9,3,7,4,8] along it: the first full-
    # prefix round contracts exactly priorities {1,2,3,4}; 4 rounds total
    prios_along_chain = [5, 1, 6, 2, 9, 3, 7, 4, 8]
    order = list(range(9))
    lst = chain_list(order)
    p = words([v - 1 for v in prios_along_chain])  # 0-based, distinct
    rounds = capture_rounds(contraction)
    stats = list_contract(lst, p, budget=FULL)
    first = sorted(int(p[v]) + 1 for v in rounds[0][1])
    assert first == [1, 2, 3, 4]
    assert stats.rounds == 4
    assert stats.total_committed == 9


def test_contract_forest_context_is_splice_time_neighbors(capture_rounds):
    order = [3, 1, 4, 0, 2]
    lst = chain_list(order)
    p = words([4, 0, 3, 2, 1])  # node 1 is the global minimum
    rounds = capture_rounds(contraction)
    list_contract(lst, p, budget=FULL)
    # rounds splice {1, 2}, then 4, 3 and 0; node 1 goes first, between 3
    # and 4, and every element keeps its splice-time (prev, next) pair
    assert [len(done) for _, done in rounds] == [2, 1, 1, 1]
    context = {1: (3, 4), 2: (0, NIL), 4: (3, 0), 3: (NIL, 0), 0: (NIL, NIL)}
    for v, (u, x) in context.items():
        assert (int(lst.prev[v]), int(lst.next[v])) == (u, x)


def test_every_node_spliced_exactly_once_random():
    rng = np.random.default_rng(5)
    lst = random_chains(rng, 4000, 7)
    p = make_priorities(4000, Rng(77))
    stats = list_contract(lst, p)
    assert stats.total_committed == 4000


# ---------------------------------------------------------------------------
# list ranking

def test_rank_single_and_tiny_chain():
    lst = LinkedList(words([None]), words([None]))
    ranks = list_rank(lst, words([0]), budget=FULL)
    assert ranks.tolist() == [0]

    lst = chain_list([0, 1, 2])
    ranks = list_rank(lst, words([2, 0, 1]), budget=FULL)
    assert ranks.tolist() == [0, 1, 2]


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_rank_random_lists_match_pointer_walk(eps):
    rng = np.random.default_rng(int(eps * 100))
    for trial in range(20):
        n = int(rng.integers(1, 2000))
        nchains = int(rng.integers(1, max(2, n // 3)))
        lst = random_chains(rng, n, min(nchains, n))
        ref = bl.seq_list_rank(lst.next, lst.prev)
        p = make_priorities(n, Rng(trial))
        ranks = list_rank(lst, p, budget=PURE(eps))
        assert np.array_equal(ranks, ref)


def test_rank_worked_instance():
    order = list(range(9))
    lst = chain_list(order)
    ref = bl.seq_list_rank(lst.next, lst.prev)
    p = words([4, 0, 5, 1, 8, 2, 6, 3, 7])
    ranks = list_rank(lst, p, budget=FULL)
    assert np.array_equal(ranks, ref)


def test_rank_budget_metered():
    rng = np.random.default_rng(8)
    n = 50_000
    lst = random_chains(rng, n, 3)
    ref = bl.seq_list_rank(lst.next, lst.prev)
    p = make_priorities(n, Rng(10))
    cfg = PURE(0.5)
    b = cfg.prefix_words(n)
    meter = SpaceMeter()
    out = {}
    report = meter_scope(meter, 8 * b,
                         lambda: out.__setitem__("r", list_rank(lst, p, cfg)))
    assert report.peak_words <= 8 * b
    assert meter.current_words == 0
    assert np.array_equal(out["r"], ref)


@pytest.mark.parametrize("op", ["list_contract", "list_rank", "tree_contract"])
def test_default_budget_charges_only_engine_state(op):
    """Near n = 2^20 the list ops charge only the engine's prefix and commit
    mask, p + ceil(p/8) words for the round prefix p = round_words(n), below
    b(n); tree contraction adds its p-word frontier queue."""
    n = (1 << 20) - (op == "tree_contract")  # a full binary tree has odd n
    budget = contraction.DEFAULT_BUDGET
    p = budget.round_words(n)
    assert p == SCRATCH_WORDS < budget.prefix_words(n)
    pri = make_priorities(n, Rng(4))
    ids = np.arange(n, dtype=np.uint64)
    if op == "tree_contract":
        # heap layout: node i's children are 2i+1 and 2i+2
        kids = lambda k: np.where(k < n, k, NIL).astype(np.uint64)
        tree = BinaryTree(np.where(ids > 0, (ids - 1) // 2, NIL).astype(np.uint64),
                          kids(2 * ids + 1), kids(2 * ids + 2))
        body = lambda: tree_contract(tree, pri, np.ones(n, dtype=np.uint64))
        limit = 2 * p + -(-p // 8)
    else:
        order = np.random.default_rng(4).permutation(ids)
        lst = LinkedList(np.full(n, NIL, dtype=np.uint64),
                         np.full(n, NIL, dtype=np.uint64))
        lst.next[order[:-1]] = order[1:]
        lst.prev[order[1:]] = order[:-1]
        body = lambda: getattr(contraction, op)(lst, pri)
        limit = p + -(-p // 8)
    meter = SpaceMeter()
    report = meter_scope(meter, limit, body)
    assert report.peak_words == limit
    assert meter.current_words == 0


# ---------------------------------------------------------------------------
# tree contraction

def test_tree_single_root():
    t = BinaryTree(words([None]), words([None]), words([None]))
    roots, stats = tree_contract(t, words([0]), words([42]), budget=FULL)
    assert roots == {0: 42} and stats.rounds == 1


def test_tree_three_nodes_subtree_sum():
    t = BinaryTree(words([None, 0, 0]), words([1, None, None]),
                   words([2, None, None]))
    roots, _ = tree_contract(t, words([2, 0, 1]), words([10, 20, 30]),
                             budget=FULL, debug=True)
    assert roots == {0: 60}


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
def test_tree_random_matches_sequential_fold(eps):
    rng = np.random.default_rng(int(eps * 10))
    for trial in range(12):
        n = int(rng.integers(1, 1000)) | 1
        tree = random_full_binary_tree(rng, n)
        validate_binary_tree(tree)
        vals = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
        p = make_priorities(n, Rng(trial + 1))
        roots, _ = tree_contract(tree, p, vals.copy(), budget=PURE(eps),
                                 debug=True)
        assert roots == ref


def test_tree_forest_of_many_roots():
    # three independent single nodes
    t = BinaryTree(words([None, None, None]), words([None] * 3), words([None] * 3))
    roots, _ = tree_contract(t, words([2, 0, 1]), words([5, 6, 7]), budget=FULL)
    assert roots == {0: 5, 1: 6, 2: 7}
    # more bare roots than one round's prefix holds, so they commit over
    # many rounds
    n = 3 * SCRATCH_WORDS + 7
    t = BinaryTree(*(np.full(n, NIL, dtype=np.uint64) for _ in range(3)))
    vals = np.random.default_rng(5).integers(0, 1 << 64, size=n, dtype=np.uint64)
    ref = bl.seq_tree_eval(t.parent, t.left, t.right, vals)
    for budget in (FULL, PURE(0.5)):
        roots, stats = tree_contract(t, make_priorities(n, Rng(4)), vals.copy(),
                                     budget=budget)
        assert roots == ref
        assert stats.rounds > 1


def test_tree_frontier_is_fifo_and_overflow_raises():
    t = BinaryTree(words([None]), words([None]), words([None]))
    client = contraction._TreeClient(t, words([0]), words([0]), 10, False)
    client.cursor = client.n  # nothing left to sweep
    client._push(np.arange(10, dtype=np.uint64))  # capacity: the prefix, 10
    with pytest.raises(RuntimeError, match="frontier overflow"):
        client._push(words([10]))
    assert client.next_ids(3).tolist() == [0, 1, 2]
    client._push(words([10, 11, 12]))
    assert client.next_ids(4).tolist() == [3, 4, 5, 6]
    client._push(words([13, 14, 15, 16]))
    with pytest.raises(RuntimeError, match="frontier overflow"):
        client._push(words([17]))
    assert client.next_ids(20).tolist() == list(range(7, 17))


def test_tree_budget_metered():
    rng = np.random.default_rng(3)
    n = 50_001
    tree = random_full_binary_tree(rng, n)
    vals = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    cfg = PURE(0.5)
    b = cfg.prefix_words(n)
    p = make_priorities(n, Rng(2))
    meter = SpaceMeter()
    out = {}
    report = meter_scope(
        meter, 8 * b,
        lambda: out.__setitem__("r", tree_contract(tree, p, vals, cfg, debug=True)))
    assert report.peak_words <= 8 * b
    assert out["r"][0] == ref


@pytest.mark.parametrize("budget", [contraction.DEFAULT_BUDGET, PURE(0.5)],
                         ids=["b5242", "b513"])
def test_tree_traced_peak_is_sublinear(budget, traced_peak):
    # every commit temporary is at most b words, and the frontier sweep
    # reads SCRATCH_WORDS-word blocks: nothing grows with n
    n = (1 << 18) + 1
    b = budget.prefix_words(n)
    assert b in (5242, 513)
    tree = generate_input("tree", n, seed=5)
    vals = Rng(7).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    p = make_priorities(n, Rng(6))
    peak, (roots, _) = traced_peak(lambda: tree_contract(tree, p, vals, budget))
    assert roots == ref
    assert peak <= 12 * 8 * b + 4 * SCRATCH_WORDS * 8, peak


def joined_forest(trees):
    """One forest of the given trees, their ids offset to follow each other."""
    links = {k: [words([])] for k in ("parent", "left", "right")}
    base = 0
    for t in trees:
        for k, parts in links.items():
            a = getattr(t, k)
            parts.append(np.where(a == NIL, a, a + np.uint64(base)))
        base += len(t)
    return BinaryTree(*(np.concatenate(parts) for parts in links.values()))


def bare_forest(n):
    return BinaryTree(*(np.full(n, NIL, dtype=np.uint64) for _ in range(3)))


THREE = BinaryTree(words([None, 0, 0]), words([1, None, None]),
                   words([2, None, None]))


@pytest.mark.parametrize("shape", ["singletons", "three-node-trees"])
def test_tree_forest_traced_peak_is_sublinear(shape, traced_peak):
    # the roots are read from tree.parent and values, so a forest of 2^16
    # to 3·2^16 roots traces within the same bound as one tree
    n = 3 << 16
    budget = contraction.DEFAULT_BUDGET
    b = budget.prefix_words(n)
    tree = bare_forest(n) if shape == "singletons" else joined_forest([THREE] * (n // 3))
    vals = Rng(8).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    p = make_priorities(n, Rng(9))
    peak, (roots, _) = traced_peak(lambda: tree_contract(tree, p, vals, budget))
    assert roots == ref and len(roots) == len(ref)
    assert peak <= 12 * 8 * b + 4 * SCRATCH_WORDS * 8, peak


@pytest.mark.parametrize("shape", ["empty", "one-tree", "forest"])
def test_tree_roots_view_matches_sequential_fold(shape):
    rng = np.random.default_rng(12)
    trees = {"empty": [],
             "one-tree": [random_full_binary_tree(rng, 2 * SCRATCH_WORDS + 1)],
             "forest": [random_full_binary_tree(rng, int(rng.integers(0, 300)) | 1)
                        for _ in range(40)] + [bare_forest(SCRATCH_WORDS + 5)]}[shape]
    tree = joined_forest(trees)
    n = len(tree)
    vals = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    roots, _ = tree_contract(tree, make_priorities(n, Rng(13)), vals,
                             budget=PURE(0.5), debug=True)
    assert roots == ref
    assert len(roots) == len(ref) and list(roots) == sorted(ref)


def test_tree_roots_view_has_only_root_keys():
    vals = words([10, 20, 30])
    roots, _ = tree_contract(THREE, words([2, 0, 1]), vals, budget=FULL)
    assert roots[0] == 60 and 0 in roots
    for key in (1, 2, 3, -1, "0"):
        with pytest.raises(KeyError):
            roots[key]
        assert key not in roots
    # the view reads the caller's values when asked
    vals[0] = 5
    assert roots[0] == 5


@pytest.mark.parametrize("budget", [contraction.DEFAULT_BUDGET, PURE(0.5)],
                         ids=["b5242", "b512"])
def test_list_traced_peak_is_sublinear(budget, traced_peak):
    # every round temporary is at most b words: nothing grows with n
    n = 1 << 18
    b = budget.prefix_words(n)
    assert b in (5242, 512)
    lst = generate_input("list", n, seed=5)
    p = make_priorities(n, Rng(6))
    peak, stats = traced_peak(lambda: list_contract(lst, p, budget))
    assert stats.total_committed == n
    assert peak <= 12 * 8 * b + 4 * SCRATCH_WORDS * 8, peak


@pytest.mark.parametrize("budget", [contraction.DEFAULT_BUDGET, PURE(0.5)],
                         ids=["b5242", "b512"])
def test_list_rank_traced_peak_is_sublinear(budget, traced_peak):
    # the ranks come from blocked in-place doubling, whose temporaries are
    # SCRATCH_WORDS-id blocks: nothing grows with n
    n = 1 << 18
    b = budget.prefix_words(n)
    assert b in (5242, 512)
    lst = generate_input("list", n, seed=5)
    ref = bl.seq_list_rank(lst.next, lst.prev)
    p = make_priorities(n, Rng(6))
    peak, ranks = traced_peak(lambda: list_rank(lst, p, budget))
    assert np.array_equal(ranks, ref)
    assert peak <= 12 * 8 * b + 6 * SCRATCH_WORDS * 8, peak


# one commit on a hand-built tree: (parent, left, right) before, the
# committed ids and the cursor; then the queue, the links after and the
# values after, node i starting with the value 10^i; ``_`` is NIL
_ = None
LEAVES_UNDER_1 = ([_, 0, 0, 1, 1], [1, 3, _, _, _], [2, 4, _, _, _])
CHERRY = ([_, 0, 0], [1, _, _], [2, _, _])
FRESH_PARENT_CASES = [
    pytest.param(LEAVES_UNDER_1, [3, 4], 5, [1],
                 ([_, 0, 0, 1, 1], [1, _, _, _, _], [2, _, _, _, _]),
                 [1, 11010, 100, 1000, 10000], id="non-root-raked-both-sides"),
    pytest.param(LEAVES_UNDER_1, [3], 5, [1],
                 ([_, 0, 0, 1, 1], [1, _, _, _, _], [2, 4, _, _, _]),
                 [1, 1010, 100, 1000, 10000], id="non-root-raked-one-side"),
    pytest.param(([_, 0, 0, 1], [1, 3, _, _], [2, _, _, _]), [3], 4, [],
                 ([_, 0, 0, 1], [1, _, _, _], [2, _, _, _]),
                 [1, 1010, 100, 1000], id="non-root-unary-raked"),
    pytest.param(([_, 0], [_, _], [1, _]), [1], 2, [0],
                 ([_, 0], [_, _], [_, _]), [11, 10], id="root-unary-raked"),
    pytest.param(CHERRY, [1, 2], 3, [0], ([_, 0, 0], [_, _, _], [_, _, _]),
                 [111, 10, 100], id="root-raked-both-sides"),
    pytest.param(CHERRY, [1], 3, [], ([_, 0, 0], [_, _, _], [2, _, _]),
                 [11, 10, 100], id="root-raked-one-side"),
    pytest.param(LEAVES_UNDER_1, [3, 4], 1, [],
                 ([_, 0, 0, 1, 1], [1, _, _, _, _], [2, _, _, _, _]),
                 [1, 11010, 100, 1000, 10000], id="parent-at-cursor"),
    # 4 is 1's right child and 5 is 2's left child: the sides' fresh
    # parents come out as [2], [1] and queue ascending
    pytest.param(([_, 0, 0, 1, 1, 2, 2], [1, 3, 5, _, _, _, _],
                  [2, 4, 6, _, _, _, _]), [4, 5], 7, [1, 2],
                 ([_, 0, 0, 1, 1, 2, 2], [1, 3, _, _, _, _, _],
                  [2, _, 6, _, _, _, _]),
                 [1, 10010, 100100, 1000, 10000, 100000, 1000000],
                 id="fresh-parents-ascending"),
    # 3 takes the compress of its parent 1 and the rake of its child 4
    pytest.param(([_, 0, 0, 1, 3, 3], [1, 3, _, 4, _, _], [2, _, _, 5, _, _]),
                 [1, 4], 6, [3],
                 ([_, 0, 0, 0, 3, 3], [3, 3, _, _, _, _], [2, _, _, 5, _, _]),
                 [1, 10, 100, 11010, 10000, 100000], id="compress-and-rake"),
    # 1's unary children 3 and 4 compress: each side's scatter writes its
    # own slot of 1, which keeps two children and is not queued
    pytest.param(([_, 0, 0, 1, 1, 3, 4], [1, 3, _, 5, _, _, _],
                  [2, 4, _, _, 6, _, _]), [3, 4], 7, [],
                 ([_, 0, 0, 1, 1, 1, 1], [1, 5, _, 5, _, _, _],
                  [2, 6, _, _, 6, _, _]),
                 [1, 10, 100, 1000, 10000, 101000, 1010000],
                 id="parent-compressed-both-sides"),
    # 1 loses its left leaf 3 and keeps 4's child 5 on its right: queued once
    pytest.param(([_, 0, 0, 1, 1, 4], [1, 3, _, _, _, _], [2, 4, _, _, 5, _]),
                 [3, 4], 6, [1],
                 ([_, 0, 0, 1, 1, 1], [1, _, _, _, _, _], [2, 5, _, _, 5, _]),
                 [1, 1010, 100, 1000, 10000, 110000],
                 id="left-rake-right-compress"),
]


@pytest.mark.parametrize("before, ids, cursor, queue, after, values",
                         FRESH_PARENT_CASES)
def test_tree_commit_queues_fresh_parents(before, ids, cursor, queue, after,
                                          values):
    # a raked parent is queued once it becomes contractible: a non-root one
    # that had two children, a root once bare, and only behind the cursor
    tree = BinaryTree(*map(words, before))
    n = len(tree)
    client = contraction._TreeClient(tree, words(range(n)),
                                     words([10 ** i for i in range(n)]), n, True)
    client.cursor = cursor
    view = RoundView(ids=words(ids), committed=np.ones(len(ids), bool))
    client.commit(view)
    assert client.queue[:client.qsize].tolist() == queue
    assert client.values.tolist() == values
    assert [a.tolist() for a in (tree.parent, tree.left, tree.right)] \
        == [words(a).tolist() for a in after]


# ---------------------------------------------------------------------------
# round-by-round reference of the activity rule

def local_minima(ids, p, neighbors, contractible=lambda v: True):
    """The ids, in order, whose priority is below that of every neighbor
    that is in this round's ids."""
    active = set(ids)
    return [v for v in ids if contractible(v)
            and all(p[v] < p[u] for u in neighbors(v) if u in active)]


def check_list_rounds(nxt, prv, p, prefix, rounds):
    """Replay the list rounds in plain Python: each round's ids are the last
    round's failures in order, then the next fresh ids up to the prefix, and
    its committed ids are the local minima among them."""
    nxt, prv, p = nxt.tolist(), prv.tolist(), p.tolist()
    n = len(p)
    fresh, pending = 0, []
    for ids, done in rounds:
        top = min(n, fresh + prefix - len(pending))
        assert ids == pending + list(range(fresh, top))
        fresh = top
        expect = local_minima(ids, p, lambda v: (nxt[v], prv[v]))
        assert done == expect
        for v in done:
            u, x = prv[v], nxt[v]
            if u != NIL:
                nxt[u] = x
            if x != NIL:
                prv[x] = u
        gone = set(done)
        pending = [v for v in ids if v not in gone]
    assert fresh == n and not pending


def check_tree_rounds(tree, p, rounds):
    """Replay the tree rounds in plain Python: every id is pending, and the
    committed ids are the contractible local minima among the round's ids
    (a node is contractible when bare, or when it has a parent and one
    child)."""
    pa, lf, rt, p = (a.tolist() for a in (tree.parent, tree.left,
                                          tree.right, p))
    pending = set(range(len(p)))

    def contractible(v):
        kids = (lf[v] != NIL) + (rt[v] != NIL)
        return kids == 0 or (kids == 1 and pa[v] != NIL)

    for ids, done in rounds:
        assert pending.issuperset(ids)
        expect = local_minima(ids, p, lambda v: (pa[v], lf[v], rt[v]),
                              contractible)
        assert done == expect
        for v in done:
            q, c = pa[v], lf[v] if lf[v] != NIL else rt[v]
            if q != NIL:
                if lf[q] == v:
                    lf[q] = c
                else:
                    rt[q] = c
            if c != NIL:
                pa[c] = q
        pending.difference_update(done)
    assert not pending


REFERENCE_BUDGETS = [pytest.param(FULL, id="full"),
                     pytest.param(contraction.DEFAULT_BUDGET, id="default"),
                     pytest.param(PURE(0.5), id="power")]


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
def test_list_rounds_match_reference(capture_rounds, budget):
    n = 4000
    rounds = capture_rounds(contraction)
    lst = random_chains(np.random.default_rng(11), n, 7)
    nxt, prv = lst.next.copy(), lst.prev.copy()
    p = make_priorities(n, Rng(12))
    stats = list_contract(lst, p, budget=budget)
    assert len(rounds) == stats.rounds
    check_list_rounds(nxt, prv, p, budget.round_words(n), rounds)


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
def test_rank_rounds_match_reference(capture_rounds, budget):
    n = 4000
    rounds = capture_rounds(contraction)
    lst = random_chains(np.random.default_rng(13), n, 7)
    nxt, prv = lst.next.copy(), lst.prev.copy()
    ref = bl.seq_list_rank(nxt, prv)
    p = make_priorities(n, Rng(14))
    assert np.array_equal(list_rank(lst, p, budget), ref)
    check_list_rounds(nxt, prv, p, budget.round_words(n), rounds)


def test_list_reserve_tie_fails_both():
    # chain 0-1-2-3: 0 and 1 tie, 2 sits above 1, 3 is a strict minimum
    client = contraction._ListClient(chain_list([0, 1, 2, 3]),
                                     words([3, 3, 9, 1]))
    view = RoundView(ids=words([0, 1, 2, 3]), committed=np.zeros(4, bool))
    client.reserve(view)
    assert view.committed.tolist() == [False, False, False, True]


def test_tree_reserve_tie_fails_both():
    # root 0 with children 1 and 2; 1 has kept one child, the leaf 3.  The
    # unary node 1 and its child 3 tie; 2's parent is not active.
    tree = BinaryTree(words([None, 0, 0, 1]), words([1, 3, None, None]),
                      words([2, None, None, None]))
    client = contraction._TreeClient(tree, words([0, 4, 1, 4]),
                                     words([0] * 4), 3, False)
    view = RoundView(ids=words([3, 2, 1]), committed=np.zeros(3, bool))
    client.reserve(view)
    assert view.committed.tolist() == [False, True, False]


@st.composite
def edge_batches(draw):
    """(parent, ids): a parent array over 0..n-1 whose slots each hold an
    id or NIL, with no tree shape asked of it (an id may have any number
    of children, or be its own parent), and a batch of distinct ids in any
    order."""
    n = draw(st.integers(1, 24))
    parent = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                           min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)).flatmap(
        lambda perm: st.integers(0, n).map(lambda k: perm[:k])))
    return parent, ids


@given(edge_batches())
@example(([None], []))
@example(([None], [0]))
@example(([0], [0]))
@example(([None, 0, 0, 0], [3, 0, 2]))
@example(([2, 2, None], [2, 1, 0]))
@settings(max_examples=300, deadline=None)
def test_tree_edges_match_nested_loop(batch):
    parent, ids = batch
    n = len(parent)
    pa = words(parent)
    tree = BinaryTree(pa, words([None] * n), words([None] * n))
    client = contraction._TreeClient(tree, words(range(n)), words([0] * n),
                                     n, False)
    up = pa[words(ids).astype(np.int64)]
    kid, par = client._edges(words(ids), up)
    assert len(kid) == len(par)
    oracle = {(c, q) for c in range(len(ids)) for q in range(len(ids))
              if up[c] == ids[q]}
    assert set(zip(kid.tolist(), par.tolist())) == oracle
    assert len(oracle) == len(kid)
    # the tags are gone: every parent slot holds its word again
    assert pa.tobytes() == words(parent).tobytes()


def random_forest(rng, sizes):
    """Random full binary trees of the given odd sizes over one random
    relabelling of 0..n-1, so the trees' ids interleave."""
    n = sum(sizes)
    relabel = rng.permutation(n)
    links = [np.full(n, NIL, dtype=np.uint64) for _ in range(3)]
    lo = 0
    for size in sizes:
        tree = random_full_binary_tree(rng, size)
        ids = relabel[lo:lo + size]
        for src, dst in zip((tree.parent, tree.left, tree.right), links):
            live = src != NIL
            dst[ids[live]] = ids[src[live].astype(np.int64)]
        lo += size
    return BinaryTree(*links)


def complete_tree(depth):
    """The complete binary tree of 2^depth - 1 nodes in heap order."""
    n = (1 << depth) - 1
    ids = np.arange(n)
    pa = np.full(n, NIL, dtype=np.uint64)
    lf = np.full(n, NIL, dtype=np.uint64)
    rt = np.full(n, NIL, dtype=np.uint64)
    inner = ids[:n // 2]
    lf[inner] = 2 * inner + 1
    rt[inner] = 2 * inner + 2
    pa[1:] = (ids[1:] - 1) // 2
    return BinaryTree(pa, lf, rt)


@pytest.mark.parametrize("before, ids", [
    pytest.param(LEAVES_UNDER_1, [3, 1], id="parented-with-two-children"),
    pytest.param(([_, 0], [_, _], [1, _]), [0], id="root-with-one-child"),
])
def test_tree_debug_check_fires_on_a_prefix_id_that_cannot_contract(before, ids):
    tree = BinaryTree(*map(words, before))
    n = len(tree)
    for debug in (False, True):
        client = contraction._TreeClient(tree, words(range(n)),
                                         words([0] * n), n, debug)
        view = RoundView(ids=words(ids), committed=np.zeros(len(ids), bool))
        if debug:
            with pytest.raises(AssertionError, match="neither parented nor"):
                client.reserve(view)
        else:
            client.reserve(view)  # only debug mode checks


TREE_SHAPES = {
    "random": lambda: random_full_binary_tree(np.random.default_rng(41),
                                              20_001),
    "forest": lambda: random_forest(np.random.default_rng(42),
                                    [9_001, 6_001, 2_999, 1, 1, 3, 2_001]),
    "caterpillar": lambda: caterpillar(10_000),
    "complete": lambda: complete_tree(14),
    "singletons": lambda: BinaryTree(*(np.full(3 * SCRATCH_WORDS + 7, NIL,
                                               dtype=np.uint64)
                                       for _ in range(3))),
}


@pytest.mark.parametrize("budget", [contraction.DEFAULT_BUDGET, PURE(0.5)],
                         ids=["default", "power"])
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_debug_check_holds_on_shapes(monkeypatch, capture_rounds, shape,
                                          budget):
    # every prefix id can contract (bare, or parented with at most one
    # child): the debug check runs on every id of every round and never fires
    tree = TREE_SHAPES[shape]()
    validate_binary_tree(tree)
    n = len(tree)
    vals = Rng(43).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    checked = []
    ready = contraction._TreeClient._ready

    def spy(self, at):
        out = ready(self, at)
        if not isinstance(at, slice):
            checked.append(len(out))
        return out

    monkeypatch.setattr(contraction._TreeClient, "_ready", spy)
    rounds = capture_rounds(contraction)
    roots, stats = tree_contract(tree, make_priorities(n, Rng(44)), vals,
                                 budget=budget, debug=True)
    assert roots == ref
    assert checked == [len(ids) for ids, _ in rounds]
    assert len(checked) == stats.rounds > 1


@pytest.mark.parametrize("budget", [FULL, contraction.DEFAULT_BUDGET,
                                    PURE(0.5), PURE(0.99)],
                         ids=["full", "default", "power", "power-0.99"])
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_frontier_holds_at_most_the_request(monkeypatch, shape, budget):
    # the sweep fills only what the engine asks for, and a round's commit
    # queues at most what the next round asks for: no request finds more
    # than it asks queued, and the queue never passes the prefix p
    tree = TREE_SHAPES[shape]()
    n = len(tree)
    vals = Rng(48).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    next_ids, push = contraction._TreeClient.next_ids, contraction._TreeClient._push
    requests = []

    def spy_next_ids(self, count):
        assert self.qsize <= count
        requests.append(count)
        return next_ids(self, count)

    def spy_push(self, ids):
        assert self.qsize + len(ids) <= budget.round_words(n) == len(self.queue)
        push(self, ids)

    monkeypatch.setattr(contraction._TreeClient, "next_ids", spy_next_ids)
    monkeypatch.setattr(contraction._TreeClient, "_push", spy_push)
    roots, stats = tree_contract(tree, make_priorities(n, Rng(49)), vals,
                                 budget=budget)
    assert roots == ref
    assert len(requests) > stats.rounds  # the last request finds nothing


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_rounds_match_reference(capture_rounds, shape, budget):
    # on a caterpillar every compress is of a left child (a spine node)
    rounds = capture_rounds(contraction)
    tree = TREE_SHAPES[shape]()
    n = len(tree)
    start = BinaryTree(tree.parent.copy(), tree.left.copy(), tree.right.copy())
    vals = Rng(15).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    p = make_priorities(n, Rng(16))
    roots, stats = tree_contract(tree, p, vals, budget=budget)
    assert roots == ref and len(rounds) == stats.rounds
    check_tree_rounds(start, p, rounds)


def _reference_commit(self, view):
    """The tree commit with a boolean-mask compress for every split: what
    ``_TreeClient.commit`` computed before it gathered and scattered
    through index lists."""
    v = view.ids[view.committed]
    pa = self.pa[ix(v)]
    if self.debug and len(self._edges(v, pa)[0]):
        raise AssertionError("a parent and its child contracted together")
    pm = pa != NIL
    if not pm.all():
        v, pa = v[pm], pa[pm]
    vi = ix(v)
    pi = ix(pa)
    child = np.minimum(self.lf[vi], self.rt[vi])
    cm = child != NIL
    np.add.at(self.values, ix(np.where(cm, child, pa)), self.values[vi])
    self.pa[ix(child[cm])] = pa[cm]
    is_left = self.lf[pi] == v
    rake = ~cm
    p = pa[rake]
    q = ix(p)
    on_left = is_left[rake]
    sib = self.rt[q]
    self.lf[pi[is_left]] = child[is_left]
    is_right = ~is_left
    self.rt[pi[is_right]] = child[is_right]
    np.copyto(sib, self.lf[q], where=~on_left)
    self._push(np.sort(p[((sib != NIL) == (self.pa[q] != NIL))
                         & (p < WORD(self.cursor))]))


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_commit_matches_mask_reference(monkeypatch, capture_rounds,
                                            shape, budget):
    # the index-list commit makes the mask commit's writes: the same links,
    # values, rounds and queue order
    runs = []
    for commit in (contraction._TreeClient.commit, _reference_commit):
        monkeypatch.setattr(contraction._TreeClient, "commit", commit)
        rounds = capture_rounds(contraction)
        tree = TREE_SHAPES[shape]()
        n = len(tree)
        vals = Rng(45).words(0, n)
        _, stats = tree_contract(tree, make_priorities(n, Rng(46)), vals,
                                 budget=budget, debug=True)
        runs.append((tree.parent, tree.left, tree.right, vals, stats.rounds,
                     list(rounds)))
    (*got, got_rounds, got_seen), (*want, want_rounds, want_seen) = runs
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert got_rounds == want_rounds == len(got_seen) > 1
    assert got_seen == want_seen


def test_tree_debug_check_fires_on_co_contraction(monkeypatch):
    def admit_all(self, view):
        view.committed[:] = True

    monkeypatch.setattr(contraction._TreeClient, "reserve", admit_all)
    tree = caterpillar(8)
    n = len(tree)
    with pytest.raises(AssertionError, match="parent and its child"):
        tree_contract(tree, make_priorities(n, Rng(1)),
                      np.ones(n, dtype=np.uint64), budget=FULL, debug=True)
