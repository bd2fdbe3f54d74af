"""The input kinds and the algorithm table behind ``pipal run`` and ``sweep``.

``KINDS`` holds, per input kind, its generator, file writer, reader and
validator, and size.  ``ALGOS`` holds, per algorithm, one :class:`Algo`:
its input kind, its space contract, its untimed preparation, its timed
body and its oracle check against :mod:`pipal.baselines`.  Nothing else
in the package lists the algorithms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines as bl
from . import formats, graph, relaxed, strong
from .contraction import (
    BinaryTree,
    LinkedList,
    list_contract,
    list_rank,
    make_priorities,
    tree_contract,
    validate_binary_tree,
    validate_linked_list,
)
from .runtime import NIL, WORD, Rng, ix, run_starts

__all__ = [
    "EVEN", "gen_list", "gen_tree", "gen_graph", "check_size", "Kind", "KINDS",
    "generate_input", "Algo", "ALGOS", "NAMES",
]

EVEN = lambda b: (b & WORD(1)) == 0


# ---------------------------------------------------------------------------
# Input kinds

def gen_list(n: int, rng: Rng) -> LinkedList:
    order = np.arange(n, dtype=WORD)
    if n > 1:
        relaxed.random_permutation(order, relaxed.make_swap_sequence(n, rng))
    nxt = np.full(n, NIL, dtype=WORD)
    prv = np.full(n, NIL, dtype=WORD)
    if n > 1:
        # break the permutation order into chains (roughly one per thousand)
        breaks = rng.derive(0xC4A15).words(0, n - 1) % WORD(1000) == 0
        src = order[:-1][~breaks]
        dst = order[1:][~breaks]
        nxt[src] = dst
        prv[dst] = src
    return LinkedList(nxt, prv)


def check_size(kind: str, n: int) -> None:
    """Raise ``ValueError`` when no ``kind`` input has ``n`` elements."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind == "tree" and n % 2 == 0:
        raise ValueError("tree inputs need an odd node count "
                         "(internal nodes have exactly two children)")
    if kind == "tree" and n >= 1 << 33:
        raise ValueError(f"tree inputs need fewer than 2^33 nodes, got {n}")


def gen_tree(n: int, rng: Rng) -> BinaryTree:
    """A random binary tree on n nodes (n odd), grown by random leaf expansion.

    The ids are a random permutation of 0..n-1 and ids[0] is the root.  Step
    s, for s < (n - 1) / 2, expands one of the s + 1 current leaves into the
    children l_s = ids[2s + 1] and r_s = ids[2s + 2].  The leaves sit in a
    swap-remove list: step s takes the leaf at position
    p_s = ``rng.derive(0x7EE).word(s)`` % (s + 1), moves the last entry,
    position s, into p_s and appends l_s and r_s at positions s and s + 1.

    So before step s, position s holds r_{s-1} = ids[2s] (the root at s = 0),
    and a position p < s was last written either by step p (with l_p) or by a
    later step t with p_t = p (with r_{t-1} = ids[2t]).  The leaf that step s
    expands is therefore ids[2t] for the latest earlier step t with the same
    pick and t > p_s; failing that ids[2p_s + 1] if p_s < s, else ids[2s].
    One sort of the packed words p_s << 32 | s lists the steps of each pick in
    order, so that latest earlier step is the previous word of the same run.
    ``check_size`` keeps the step count below 2^32.
    """
    check_size("tree", n)
    ids = np.arange(n, dtype=WORD)
    if n > 1:
        relaxed.random_permutation(ids, relaxed.make_swap_sequence(n, rng))
    steps = np.arange(n // 2, dtype=WORD)
    picks = rng.derive(0x7EE).words(0, len(steps)) % (steps + WORD(1))
    key = np.sort((picks << WORD(32)) | steps)
    p, s = key >> WORD(32), key & WORD(0xFFFFFFFF)
    prev = np.roll(s, 1)
    later = ~run_starts(p) & (prev > p)
    src = np.where(later, 2 * prev, np.where(p < s, 2 * p + 1, 2 * s))
    node = np.empty_like(steps)
    node[ix(s)] = ids[ix(src)]
    parent = np.full(n, NIL, dtype=WORD)
    left = np.full(n, NIL, dtype=WORD)
    right = np.full(n, NIL, dtype=WORD)
    left[ix(node)] = ids[1::2]
    right[ix(node)] = ids[2::2]
    parent[ix(ids[1::2])] = node
    parent[ix(ids[2::2])] = node
    return BinaryTree(parent, left, right)


def gen_graph(n: int, rng: Rng, edges_per_vertex: int = 5) -> graph.GraphEdges:
    m = edges_per_vertex * n
    u = rng.words(0, m) % WORD(n)
    v = rng.derive(0xEDFE).words(0, m) % WORD(max(n - 1, 1))
    v = np.where(v >= u, v + WORD(1), v) % WORD(n)  # no self-loops for n > 1
    w = rng.derive(0x3E16).words(0, m)
    return graph.GraphEdges(n, u, v, w)


@dataclass(frozen=True)
class Kind:
    """One input kind: ``generate(n, rng)``, ``write(path, data)``,
    ``read(path)`` (raises ``ValueError`` for a file of another kind),
    ``validate(data)`` (raises ``ValueError``), and ``size(data)``, the n
    that report rows carry."""

    generate: Callable
    write: Callable
    read: Callable
    validate: Callable = lambda data: None
    size: Callable = len


KINDS = {
    "ints": Kind(lambda n, rng: rng.words(0, n), formats.write_ints, formats.read_ints),
    "perm": Kind(relaxed.make_swap_sequence, formats.write_ints, formats.read_ints,
                 relaxed.validate_swap_sequence),
    "list": Kind(gen_list, formats.write_list, formats.read_list, validate_linked_list),
    "tree": Kind(gen_tree, formats.write_tree, formats.read_tree, validate_binary_tree),
    "graph": Kind(gen_graph, formats.write_graph, formats.read_graph,
                  size=lambda g: g.n),
}


def generate_input(kind: str, n: int, seed: int):
    check_size(kind, n)
    if kind not in KINDS:
        raise ValueError(f"unknown input kind {kind!r}")
    return KINDS[kind].generate(n, Rng(seed))


# ---------------------------------------------------------------------------
# Algorithms

@dataclass(frozen=True)
class Algo:
    """One algorithm as ``pipal run`` drives it.

    ``prepare(data, cfg)`` builds the body's arguments outside the timer
    from the input and the run's ``BenchConfig``; ``body(*args)`` is the
    timed, metered work, whose round loops count their rounds into the
    meter; ``check(data, args, result)`` compares the result with the
    sequential oracle on the untouched input.  ``contract`` is the space
    the tests hold the body to: ``strong`` (no heap), ``relaxed``
    (O(b(n)) words), ``graph`` (O(m/k + k log n) words, k = m^ε) or
    ``comparator`` (a non-in-place baseline).  ``row``, when set, is the
    name report rows carry, and ``--algo`` accepts it too.
    """

    kind: str
    contract: str
    prepare: Callable
    body: Callable
    check: Callable
    row: str = ""


def _copy(data, cfg):
    return (data.copy(),)


def _with_even(data, cfg):
    return data.copy(), EVEN


def _sorted_halves(data, cfg):
    a = data.copy()
    split = len(a) // 2
    a[:split].sort()
    a[split:].sort()
    return a, split


def _dedup_sets(data, cfg=None) -> tuple[np.ndarray, int]:
    half = len(data) // 2
    x = np.unique(data[:half])
    y = np.unique(data[half:])
    return np.concatenate([x, y]), len(x)


def _scanned(data, out, total) -> bool:
    ref, ref_total = bl.seq_scan(data)
    return np.array_equal(out, ref) and total == ref_total


def _filtered(data, args, m) -> bool:
    return np.array_equal(args[0][:m], bl.seq_filter(data, EVEN))


def _partitioned(data, args, m) -> bool:
    a = args[0]
    return (m == int(np.count_nonzero(EVEN(data))) and bool(np.all(EVEN(a[:m])))
            and not bool(np.any(EVEN(a[m:])))
            and np.array_equal(bl.seq_sort(a), bl.seq_sort(data)))


def _sorted(data, args, result) -> bool:
    return np.array_equal(args[0], bl.seq_sort(data))


def _set_op(body, op) -> Algo:
    def check(data, args, m):
        # the halves are np.unique outputs: sorted and duplicate-free
        a, cut = _dedup_sets(data)
        return np.array_equal(args[0][:m], op(a[:cut], a[cut:]))

    return Algo("ints", "strong", _dedup_sets, body, check)


def _identity(h, cfg):
    """The identity array a swap sequence ``h`` shuffles, and ``h``."""
    return np.arange(len(h), dtype=WORD), h


def _shuffled(data, args, result) -> bool:
    ref = np.arange(len(data), dtype=WORD)
    bl.seq_knuth_shuffle(ref, data)
    return np.array_equal(args[0], ref)


def _list_args(lst, cfg):
    return (LinkedList(lst.next.copy(), lst.prev.copy()),
            make_priorities(len(lst), Rng(cfg.seed)), cfg.budget())


def _chain_heads(lst) -> np.ndarray:
    """The head of each element's chain, by pointer doubling on ``prev``."""
    n = len(lst)
    up = np.where(lst.prev == NIL, np.arange(n, dtype=WORD), lst.prev)
    for _ in range(n.bit_length()):
        up = up[ix(up)]
    return up


def _contexts_bracket(lst, args, stats) -> bool:
    """Every element committed, and the (prev, next) pair saved in each
    element's slots brackets it in its chain of the untouched input:
    rank(u) < rank(v) < rank(x), with NIL allowed at either end."""
    n = len(lst)
    if stats.total_committed != n:
        return False
    rank = bl.seq_list_rank(lst.next, lst.prev)
    head = _chain_heads(lst)
    saved = args[0]
    for ends, before in ((saved.prev, True), (saved.next, False)):
        v = np.flatnonzero(ends != NIL)
        e = ends[v]
        if bool(np.any(e >= WORD(n))):
            return False
        e = ix(e)
        order = rank[e] < rank[v] if before else rank[v] < rank[e]
        if not bool(np.all(order & (head[e] == head[v]))):
            return False
    return True


def _tree_args(data, cfg):
    rng = Rng(cfg.seed)
    tree = BinaryTree(data.parent.copy(), data.left.copy(), data.right.copy())
    return (tree, make_priorities(len(tree), rng), _tree_values(len(tree), rng),
            cfg.budget(), rng)


def _tree_values(n: int, rng: Rng) -> np.ndarray:
    # fresh for each rep: the timed body folds them in place
    return rng.derive(0x7A1).words(0, n)


def _same_components(g, args, oracle) -> bool:
    ref = bl.union_find_components(g.n, g.u, g.v)
    remap: dict[int, int] = {}
    for x, ref_l in enumerate(ref.tolist()):
        if remap.setdefault(graph.query_connectivity(oracle, x), ref_l) != ref_l:
            return False
    return len(set(remap.values())) == len(remap)


def _same_forest(g, args, oracle) -> bool:
    """The whole forest is Kruskal's, and ``query_msf_edge`` answers its
    membership on every ceil(m/1000)-th edge."""
    ref = bl.kruskal_msf(g.n, g.u, g.v, g.w)
    if graph.msf_full_edge_set(oracle) != ref:
        return False
    members = set(ref)
    return all(graph.query_msf_edge(oracle, e) == (e in members)
               for e in range(0, g.m, max(1, -(-g.m // 1000))))


_scanned_in_place = lambda data, args, res: _scanned(data, args[0], res.total)
_graph_args = lambda g, cfg: (g, cfg.epsilon, cfg.seed)
_even_in_rounds = lambda data, cfg: (data.copy(), EVEN, cfg.budget())

ALGOS = {
    "scan": Algo("ints", "strong", _copy, strong.scan, _scanned_in_place),
    "reduce": Algo("ints", "strong", _copy, strong.reduce,
                   lambda data, args, total: total == bl.seq_scan(data)[1]),
    "rotate": Algo("ints", "strong", lambda data, cfg: (data.copy(), len(data) // 3),
                   strong.rotate,
                   lambda data, args, res: np.array_equal(args[0],
                                                          np.roll(data, -args[1]))),
    "filter": Algo("ints", "strong", _with_even, strong.filter_kway, _filtered),
    "partition": Algo("ints", "strong", _with_even, strong.partition_unstable,
                      _partitioned),
    "quicksort": Algo("ints", "strong", lambda data, cfg: (data.copy(), Rng(cfg.seed)),
                      strong.quicksort_strong, _sorted),
    "mergesort": Algo("ints", "strong", _copy, strong.mergesort_strong, _sorted),
    "merge": Algo("ints", "strong", _sorted_halves, strong.merge_strong, _sorted),
    "set-union": _set_op(strong.set_union, np.union1d),
    "set-intersect": _set_op(strong.set_intersect,
                             functools.partial(np.intersect1d, assume_unique=True)),
    "set-difference": _set_op(strong.set_difference,
                              functools.partial(np.setdiff1d, assume_unique=True)),
    "filter-relaxed": Algo("ints", "relaxed", _even_in_rounds, relaxed.filter_relaxed,
                           _filtered),
    "partition-relaxed": Algo("ints", "relaxed", _even_in_rounds,
                              relaxed.partition_relaxed, _partitioned),
    "quicksort-relaxed": Algo(
        "ints", "relaxed", lambda data, cfg: (data.copy(), Rng(cfg.seed), cfg.budget()),
        relaxed.quicksort_relaxed, _sorted),
    "mergesort-relaxed": Algo("ints", "relaxed",
                              lambda data, cfg: (data.copy(), cfg.budget()),
                              relaxed.mergesort_relaxed, _sorted),
    "merge-relaxed": Algo("ints", "relaxed",
                          lambda data, cfg: (*_sorted_halves(data, cfg), cfg.budget()),
                          relaxed.merge_relaxed, _sorted),
    "rp": Algo("perm", "relaxed", lambda h, cfg: (*_identity(h, cfg), cfg.budget()),
               lambda a, h, budget: relaxed.random_permutation(a, h, budget=budget),
               _shuffled, row="rp-final"),
    "list-contract": Algo("list", "relaxed", _list_args, list_contract,
                          _contexts_bracket),
    "list-rank": Algo(
        "list", "relaxed", _list_args, list_rank,
        lambda lst, args, ranks: np.array_equal(ranks,
                                                bl.seq_list_rank(lst.next, lst.prev))),
    "tree-contract": Algo(
        "tree", "relaxed", _tree_args,
        lambda tree, p, values, budget, rng: tree_contract(tree, p, values, budget),
        lambda t, args, res: res[0] == bl.seq_tree_eval(
            t.parent, t.left, t.right, _tree_values(len(t), args[-1]))),
    "connectivity": Algo("graph", "graph", _graph_args, graph.build_connectivity,
                         _same_components),
    "msf": Algo("graph", "graph", _graph_args, graph.build_msf, _same_forest),
    "nonip-scan": Algo("ints", "comparator", _copy, bl.nonip_scan,
                       lambda data, args, res: _scanned(data, *res)),
    "nonip-filter": Algo("ints", "comparator", _with_even, bl.nonip_filter,
                         lambda data, args, out: np.array_equal(
                             out, bl.seq_filter(data, EVEN))),
    "rp-fullres": Algo("perm", "comparator", _identity, bl.fullres_shuffle, _shuffled),
}

# every name ``--algo`` accepts: the table's names and their row names
NAMES = {**ALGOS, **{a.row: a for a in ALGOS.values() if a.row}}
