from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
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
    """Near n = 2^20 every contraction op charges only the engine's prefix
    and commit mask: p + ceil(p/8) words for the round prefix
    p = round_words(n), below b(n)."""
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


def test_tree_frontier_is_fifo_and_overflow_raises(monkeypatch):
    # the frontier is the leaf sweep: requests take the leaves in id order,
    # exactly as many as asked while leaves remain, across the windows of a
    # caterpillar whose first half (the spine) holds no leaf
    tree = caterpillar(3 * SCRATCH_WORDS)
    n = len(tree)
    client = contraction._TreeClient(tree, words(range(n)), words([0] * n),
                                     False)
    leaves = np.flatnonzero(tree.left == NIL).tolist()
    assert client.count_leaves() == len(leaves) == 3 * SCRATCH_WORDS + 1
    for count in (4, 1, 2 * SCRATCH_WORDS, 7, 500, n):
        assert client.next_ids(count).tolist() == leaves[:count]
        leaves = leaves[count:]
    assert not leaves and client.next_ids(5).tolist() == []
    # an engine told of one iterate fewer than the sweep finds reports it
    count_leaves = contraction._TreeClient.count_leaves
    monkeypatch.setattr(contraction._TreeClient, "count_leaves",
                        lambda self: count_leaves(self) - 1)
    tree = caterpillar(8)
    with pytest.raises(RuntimeError, match="more than"):
        tree_contract(tree, make_priorities(len(tree), Rng(1)),
                      np.ones(len(tree), dtype=np.uint64), budget=FULL)


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


# one commit on a hand-built tree: (parent, left, right) before and the
# committed leaves; then the links and the values after, node i starting
# with the value 10^i, or the debug check's message for steps that may not
# commit together; ``_`` is NIL.  A compress hands the raked parent's other
# child a fresh parent, the grandparent; nothing is queued.
_ = None
LEAVES_UNDER_1 = ([_, 0, 0, 1, 1], [1, 3, _, _, _], [2, 4, _, _, _])
CHERRY = ([_, 0, 0], [1, _, _], [2, _, _])
FRESH_PARENT_CASES = [
    pytest.param(LEAVES_UNDER_1, [3, 4], "share a parent", None,
                 id="non-root-raked-both-sides"),
    # 3 rakes into 1 and 1 compresses: 4 takes 1's slot under 0
    pytest.param(LEAVES_UNDER_1, [3],
                 ([_, 0, 0, 1, 0], [4, 3, _, _, _], [2, 4, _, _, _]),
                 [1, 10, 100, 1000, 11010], id="non-root-raked-one-side"),
    # the raked parent's other child is internal: it moves up with its kids
    pytest.param(([_, 0, 0, 1, 1, 4, 4], [1, 3, _, _, 5, _, _],
                  [2, 4, _, _, 6, _, _]), [3],
                 ([_, 0, 0, 1, 0, 4, 4], [4, 3, _, _, 5, _, _],
                  [2, 4, _, _, 6, _, _]),
                 [1, 10, 100, 1000, 11010, 100000, 1000000],
                 id="non-root-unary-raked"),
    # a root whose left slot was raked before has one child left
    pytest.param(([_, 0], [0, _], [1, _]), [1], ([_, 0], [0, _], [0, _]),
                 [11, 10], id="root-unary-raked"),
    pytest.param(CHERRY, [1, 2], "share a parent", None,
                 id="root-raked-both-sides"),
    # a root rake: the root keeps its id and takes the leaf's value, and
    # the leaf's slot gets the root's own id
    pytest.param(CHERRY, [1], ([_, 0, 0], [0, _, _], [2, _, _]),
                 [11, 10, 100], id="root-raked-one-side"),
    # the leaves come first in id order, their parents past them
    pytest.param(([4, 4, 3, _, 3], [_, _, _, 4, 0], [_, _, _, 2, 1]), [0],
                 ([4, 3, 3, _, 3], [_, _, _, 1, 0], [_, _, _, 2, 1]),
                 [1, 10011, 100, 1000, 10000], id="parent-at-cursor"),
    # two compresses under one grandparent write its two slots
    pytest.param(([_, 0, 0, 1, 1, 2, 2], [1, 3, 5, _, _, _, _],
                  [2, 4, 6, _, _, _, _]), [4, 5],
                 ([_, 0, 0, 0, 1, 2, 0], [3, 3, 5, _, _, _, _],
                  [6, 4, 6, _, _, _, _]),
                 [1, 10, 100, 11010, 10000, 100000, 1100100],
                 id="fresh-parents-ascending"),
    # a compress under the root and a rake into it commit together: each
    # writes its own slot of the root
    pytest.param(([_, 0, 0, 1, 1], [1, 3, _, _, _], [2, 4, _, _, _]), [2, 3],
                 ([_, 0, 0, 1, 0], [4, 3, _, _, _], [0, 4, _, _, _]),
                 [101, 10, 100, 1000, 11010], id="compress-and-rake"),
    # 1's internal children 3 and 4 both compress: 6 and 8 take its slots
    pytest.param(([_, 0, 0, 1, 1, 3, 3, 4, 4], [1, 3, _, 5, 7, _, _, _, _],
                  [2, 4, _, 6, 8, _, _, _, _]), [5, 7],
                 ([_, 0, 0, 1, 1, 3, 1, 4, 1], [1, 6, _, 5, 7, _, _, _, _],
                  [2, 8, _, 6, 8, _, _, _, _]),
                 [1, 10, 100, 1000, 10000, 100000, 1101000, 10000000,
                  110010000], id="parent-compressed-both-sides"),
    pytest.param(([_, 0, 0, 2, 2], [1, _, 3, _, _], [2, _, 4, _, _]), [1, 3],
                 ([_, 0, 0, 2, 0], [0, _, 3, _, _], [4, _, 4, _, _]),
                 [11, 10, 100, 1000, 11100], id="left-rake-right-compress"),
]


@pytest.mark.parametrize("before, ids, after, values", FRESH_PARENT_CASES)
def test_tree_commit_queues_fresh_parents(before, ids, after, values):
    tree = BinaryTree(*map(words, before))
    n = len(tree)
    vals = words([10 ** i for i in range(n)])
    client = contraction._TreeClient(tree, words(range(n)), vals, True)
    client.cursor = 3
    view = RoundView(ids=words(ids), committed=np.ones(len(ids), bool))
    if isinstance(after, str):
        # the debug check runs before any write
        with pytest.raises(AssertionError, match=after):
            client.commit(view)
        after, values = before, [10 ** i for i in range(n)]
    else:
        client.commit(view)
    assert client.cursor == 3  # a commit never moves the sweep
    assert vals.tolist() == values
    assert [a.tolist() for a in (tree.parent, tree.left, tree.right)] \
        == [words(a).tolist() for a in after]


# ---------------------------------------------------------------------------
# round-by-round reference of the activity rule

def local_minima(ids, p, neighbors):
    """The ids, in order, whose priority is below that of every neighbor
    that is in this round's ids."""
    active = set(ids)
    return [v for v in ids
            if all(p[v] < p[u] for u in neighbors(v) if u in active)]


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


def leaf_steps(pa, lf, rt, ids):
    """{leaf: (p, g)} for a round's leaves over plain-list links: None for a
    bare root's p, and for g under a root."""
    steps = {}
    for v in ids:
        q = pa[v]
        steps[v] = (None, None) if q == NIL else (q, None if pa[q] == NIL
                                                  else pa[q])
    return steps


def step_conflicts(steps):
    """The conflict rule as a nested loop: two steps conflict when they
    share a parent, or when one's parent is the other's grandparent and
    both compress (a root rake has no grandparent and writes no tag)."""
    def conflicts(v):
        q, g = steps[v]
        for u, (qu, gu) in steps.items():
            if u != v and q is not None and (
                    qu == q or (g is not None and gu is not None
                                and (qu == g or gu == q))):
                yield u
    return conflicts


def apply_step(pa, lf, rt, v):
    """One leaf step over plain-list links: rake v into its parent p and
    compress p, or, under a root, only rake."""
    q = pa[v]
    if q == NIL:
        return
    g = pa[q]
    if g == NIL:
        host, old, new = q, v, q
    else:
        s = rt[q] if lf[q] == v else lf[q]
        pa[s] = g
        host, old, new = g, q, s
    if lf[host] == old:
        lf[host] = new
    else:
        rt[host] = new


def check_tree_rounds(tree, p, prefix, rounds):
    """Replay the leaf steps in plain Python: each round's ids are the last
    round's failures in order, then the next leaves in id order up to the
    prefix, and its committed ids are the steps below every step they
    conflict with."""
    pa, lf, rt, p = (a.tolist() for a in (tree.parent, tree.left,
                                          tree.right, p))
    leaves = [v for v in range(len(p)) if lf[v] == NIL]
    fresh, pending = 0, []
    for ids, done in rounds:
        top = min(len(leaves), fresh + prefix - len(pending))
        assert ids == pending + leaves[fresh:top]
        fresh = top
        expect = local_minima(ids, p, step_conflicts(leaf_steps(pa, lf, rt,
                                                                ids)))
        assert done == expect
        for v in done:
            apply_step(pa, lf, rt, v)
        gone = set(done)
        pending = [v for v in ids if v not in gone]
    assert fresh == len(leaves) and not pending


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
    # root 0 holds the leaf 2 and 1; 1 holds the leaf 3 and 4; 4 holds the
    # leaves 5 and 6.  2 rakes into the root and conflicts with nothing;
    # 3 compresses 1, which is 5's and 6's grandparent
    tree = BinaryTree(words([None, 0, 0, 1, 1, 4, 4]),
                      words([1, 3, None, None, 5, None, None]),
                      words([2, 4, None, None, 6, None, None]))
    ids = words([2, 3, 5, 6])
    for pri, expect in [
            # the siblings 5 and 6 tie and both fail; both beat 3
            ([0, 0, 9, 5, 0, 1, 1], [True, False, False, False]),
            # 5 beats its sibling 6 and ties with 3: 3 and 5 fail
            ([0, 0, 9, 1, 0, 1, 4], [True, False, False, False]),
            # 5 beats its sibling 6 and 3
            ([0, 0, 9, 3, 0, 2, 8], [True, False, True, False])]:
        client = contraction._TreeClient(tree, words(pri), words([0] * 7),
                                         False)
        view = RoundView(ids=ids, committed=np.zeros(4, bool))
        client.reserve(view)
        assert view.committed.tolist() == expect
        assert tree.parent.tolist() == words([None, 0, 0, 1, 1, 4, 4]).tolist()


@st.composite
def step_batches(draw):
    """(tree, priorities, ids): a random full binary forest after a random
    set of its leaves has stepped one by one, and a round of every live
    leaf up to a drawn id, ascending, with priorities that may tie."""
    sizes = draw(st.lists(st.integers(0, 12).map(lambda k: 2 * k + 1),
                          min_size=1, max_size=3))
    tree = random_forest(np.random.default_rng(draw(st.integers(0, 2**16))),
                         sizes)
    n = len(tree)
    pa, lf, rt = (a.tolist() for a in (tree.parent, tree.left, tree.right))
    leaves = [v for v in range(n) if lf[v] == NIL]
    order = draw(st.permutations(leaves))
    for v in order[:draw(st.integers(0, len(leaves) - 1))]:
        apply_step(pa, lf, rt, v)
        leaves.remove(v)
    top = draw(st.integers(leaves[0], n))
    ids = [v for v in leaves if v <= top]
    pri = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return BinaryTree(words(pa), words(lf), words(rt)), pri, ids


@given(step_batches())
@settings(max_examples=300, deadline=None)
def test_tree_edges_match_nested_loop(batch):
    # the reserve's sibling check and tag search against the conflict rule
    # as a nested loop over every pair of the round's steps
    tree, pri, ids = batch
    before = [a.tobytes() for a in (tree.parent, tree.left, tree.right)]
    n = len(tree)
    client = contraction._TreeClient(tree, words(pri), words([0] * n), True)
    view = RoundView(ids=words(ids), committed=np.zeros(len(ids), bool))
    client.reserve(view)
    pa, lf, rt = (a.tolist() for a in (tree.parent, tree.left, tree.right))
    expect = local_minima(ids, pri, step_conflicts(leaf_steps(pa, lf, rt,
                                                              ids)))
    assert [v for v, ok in zip(ids, view.committed) if ok] == expect
    # the tags are gone: every parent slot holds its word again
    assert [a.tobytes() for a in (tree.parent, tree.left, tree.right)] == before
    # and the winners commit together under the debug check
    client.commit(view)


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
    pytest.param(LEAVES_UNDER_1, [1, 3], id="parented-with-two-children"),
    # left NIL alone does not make a leaf
    pytest.param(([_, 0], [_, _], [1, _]), [0], id="root-with-one-child"),
])
def test_tree_debug_check_fires_on_a_prefix_id_that_cannot_contract(before, ids):
    # only a leaf can step, so every id the source yields must be one
    tree = BinaryTree(*map(words, before))
    n = len(tree)
    for debug in (False, True):
        client = contraction._TreeClient(tree, words(range(n)),
                                         words([0] * n), debug)
        view = RoundView(ids=words(ids), committed=np.zeros(len(ids), bool))
        if debug:
            with pytest.raises(AssertionError, match="not a leaf"):
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
    # every prefix id is a leaf, and no two committed steps share a parent
    # or stand as parent and grandparent: the debug checks run on every
    # round's ids and steps and never fire
    tree = TREE_SHAPES[shape]()
    validate_binary_tree(tree)
    n = len(tree)
    bare = set(np.flatnonzero((tree.parent == NIL) & (tree.left == NIL)).tolist())
    vals = Rng(43).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    leaves, steps = [], []
    check_leaves = contraction._TreeClient._check_leaves
    check_steps = contraction._TreeClient._check_steps

    def spy_leaves(self, i):
        leaves.append(len(i))
        check_leaves(self, i)

    def spy_steps(parents, compressed, grandparents):
        steps.append(len(parents))
        check_steps(parents, compressed, grandparents)

    monkeypatch.setattr(contraction._TreeClient, "_check_leaves", spy_leaves)
    monkeypatch.setattr(contraction._TreeClient, "_check_steps",
                        staticmethod(spy_steps))
    rounds = capture_rounds(contraction)
    roots, stats = tree_contract(tree, make_priorities(n, Rng(44)), vals,
                                 budget=budget, debug=True)
    assert roots == ref
    assert leaves == [len(ids) for ids, _ in rounds]
    assert steps == [len(set(done) - bare) for _, done in rounds]
    assert len(leaves) == stats.rounds > 1


@pytest.mark.parametrize("budget", [FULL, contraction.DEFAULT_BUDGET,
                                    PURE(0.5), PURE(0.99)],
                         ids=["full", "default", "power", "power-0.99"])
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_frontier_holds_at_most_the_request(monkeypatch, shape, budget):
    # the frontier is the leaf sweep: each request gets at most the ids it
    # asks for, exactly that many while leaves remain, and over the run
    # every leaf once, in id order
    tree = TREE_SHAPES[shape]()
    n = len(tree)
    leaves = np.flatnonzero(tree.left == NIL).tolist()
    vals = Rng(48).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    next_ids = contraction._TreeClient.next_ids
    requests, swept = [], []

    def spy_next_ids(self, count):
        out = next_ids(self, count)
        assert len(out) == count or (len(out) < count and self.cursor == n)
        requests.append(count)
        swept.extend(out.tolist())
        return out

    monkeypatch.setattr(contraction._TreeClient, "next_ids", spy_next_ids)
    roots, stats = tree_contract(tree, make_priorities(n, Rng(49)), vals,
                                 budget=budget)
    assert roots == ref
    assert swept == leaves
    assert max(requests) <= budget.round_words(n)
    assert len(requests) > stats.rounds  # the last request finds nothing


# rounds of node-by-node contraction (every node an iterate, through a
# frontier queue of contractible nodes) with priorities from Rng(44), at
# FULL, the default budget, PURE(0.5) and PURE(0.99)
NODE_BY_NODE_ROUNDS = {
    "caterpillar": (40, 134, 337, 10002),
    "complete": (16, 60, 139, 10241),
    "forest": (19, 60, 150, 10007),
    "random": (21, 62, 153, 10003),
    "singletons": (4, 51, 111, 6148),
}


@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_rounds_within_node_by_node_rounds(shape):
    # each leaf step removes a leaf and its parent, so the leaf loop needs
    # no more rounds than contracting one node per iterate: about half as
    # many on random trees, as many on bare roots
    got = []
    for budget in (FULL, contraction.DEFAULT_BUDGET, PURE(0.5), PURE(0.99)):
        tree = TREE_SHAPES[shape]()
        n = len(tree)
        _, stats = tree_contract(tree, make_priorities(n, Rng(44)),
                                 Rng(47).words(0, n), budget=budget)
        got.append(stats.rounds)
    assert all(a <= b for a, b in zip(got, NODE_BY_NODE_ROUNDS[shape])), got


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_rounds_match_reference(capture_rounds, shape, budget):
    # on a caterpillar each leaf's parent is its neighbor leaf's grandparent
    rounds = capture_rounds(contraction)
    tree = TREE_SHAPES[shape]()
    n = len(tree)
    start = BinaryTree(tree.parent.copy(), tree.left.copy(), tree.right.copy())
    vals = Rng(15).words(0, n)
    ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
    p = make_priorities(n, Rng(16))
    roots, stats = tree_contract(tree, p, vals, budget=budget)
    assert roots == ref and len(rounds) == stats.rounds
    check_tree_rounds(start, p, budget.round_words(n), rounds)


def _reference_commit(self, view):
    """The leaf commit with a boolean mask for every split (bare or not,
    compress or rake, left or right slot), where ``_TreeClient.commit``
    gathers and scatters through index lists."""
    v = view.ids[view.committed]
    up = self.pa[ix(v)]
    pm = up != NIL
    v, up = v[pm], up[pm]
    q = ix(up)
    g = self.pa[q]
    sib = np.where(self.lf[q] == v, self.rt[q], self.lf[q])
    cm = g != NIL
    if self.debug:
        self._check_steps(up, up[cm], g[cm])
    rake = ~cm
    gc, qc, sc = ix(g[cm]), q[cm], sib[cm]
    qr, vr = q[rake], v[rake]
    into_s = self.values[ix(v[cm])] + self.values[qc]
    into_root = self.values[ix(vr)]
    g_left = self.lf[gc] == up[cm]
    r_left = self.lf[qr] == vr
    self.values[ix(sc)] += into_s
    self.values[qr] += into_root
    self.pa[ix(sc)] = g[cm]
    self.lf[gc[g_left]] = sc[g_left]
    self.rt[gc[~g_left]] = sc[~g_left]
    self.lf[qr[r_left]] = up[rake][r_left]
    self.rt[qr[~r_left]] = up[rake][~r_left]


@pytest.mark.parametrize("budget", REFERENCE_BUDGETS)
@pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
def test_tree_commit_matches_mask_reference(monkeypatch, capture_rounds,
                                            shape, budget):
    # the index-list commit makes the mask commit's writes: the same links,
    # values and rounds
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
    # a reserve that admits steps the rule keeps apart: the commit's debug
    # check fires before any write
    admit = {}

    def admit_some(self, view):
        view.committed[:] = np.isin(view.ids, admit["ids"])

    monkeypatch.setattr(contraction._TreeClient, "reserve", admit_some)
    # the caterpillar's last spine node holds two leaves, which share it
    tree = caterpillar(8)
    n = len(tree)
    admit["ids"] = words([15, 16])
    with pytest.raises(AssertionError, match="share a parent"):
        tree_contract(tree, make_priorities(n, Rng(1)),
                      np.ones(n, dtype=np.uint64), budget=FULL, debug=True)
    # leaf 9 sits under spine node 1, which is leaf 10's grandparent
    tree = caterpillar(8)
    admit["ids"] = words([9, 10])
    with pytest.raises(AssertionError, match="another's grandparent"):
        tree_contract(tree, make_priorities(n, Rng(1)),
                      np.ones(n, dtype=np.uint64), budget=FULL, debug=True)
