"""The benchmark's workloads: inputs made from a seed, and the operations
run on them.

Inputs come from ``pipal.cli.generate_input`` (priorities from
``contraction.make_priorities``) and pass through a ``pipal.formats`` write
and read before use.  An operation has a ``prepare`` that makes its fresh
argument, a ``body`` that the harness times inside a space-meter scope,
and a ``check`` against ``pipal.baselines`` (numpy where baselines has no
oracle); ``prepare`` and ``check`` run outside the timed region.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from pipal import baselines as bl
from pipal import contraction, formats, graph, relaxed, strong
from pipal.cli import generate_input
from pipal.contraction import BinaryTree, LinkedList
from pipal.graph import GraphEdges
from pipal.runtime import POWER_ONLY_FRACTION, WORD, EpsilonConfig, Rng

EPSILON = 0.5
# The graph workload's graph is a fixed data set, built with the decomposition
# from this seed; only the query ids follow --seed.  Across generated graphs
# build_msf's real (traced) peak swings from 107 to 185 times b (IQR 27% of
# the median over seeds 21-28), and the sampled center count (32-61 over
# seeds 1-29) moves build and query work by +-15% in opposite directions;
# either would swamp any change a later commit makes.  Seed 14 gives 45
# centers, the expected n/k.
GRAPH_SEED = 14
DEFAULT_BUDGET = EpsilonConfig(EPSILON)  # f = 2%: b(2^18) = 5242, b(2^20) = 20971
POWER_BUDGET = EpsilonConfig(EPSILON, POWER_ONLY_FRACTION)  # b(2^18) = 512

SIZES = {
    "arrays": {"n": 1 << 18},
    "rounds": {"n": 1 << 20},
    "sublinear": {"n": 1 << 18},
    "graph": {"n": 10_000, "conn_queries": 2000, "msf_queries": 200},
}
# warm-up (and test) sizes: every code path of the full sizes, in milliseconds
TINY = {
    "arrays": {"n": 1 << 10},
    "rounds": {"n": 1 << 10},
    "sublinear": {"n": 1 << 10},
    "graph": {"n": 300, "conn_queries": 40, "msf_queries": 10},
}

RELAXED_ARRAY_OPS = ("filter_relaxed", "partition_relaxed", "quicksort_relaxed",
                     "merge_relaxed", "mergesort_relaxed")


def even(block: np.ndarray) -> np.ndarray:
    return (block & WORD(1)) == 0


@dataclass
class Op:
    name: str                  # "<module>.<public name>"
    kind: str                  # "strong", "relaxed", "build", "query" or
                               # "comparator" (non-in-place, traced run only)
    n: int                     # input size
    budget: int                # b in words (relaxed ops and builds), else 0
    prepare: Callable          # ctx -> argument
    body: Callable             # argument -> result
    check: Callable | None     # (argument, result, ctx) -> bool; None: must not raise


# ---------------------------------------------------------------------------
# Inputs

def make_inputs(workload: str, seed: int, sizes: dict) -> dict:
    n = sizes["n"]
    if workload == "arrays":
        return {"ints": generate_input("ints", n, seed)}
    if workload in ("rounds", "sublinear"):
        rng = Rng(seed)
        inputs = {
            "perm": generate_input("perm", n, seed),
            "list": generate_input("list", n, seed),
            "list_prio": contraction.make_priorities(n, rng),
            "tree": generate_input("tree", n + 1, seed),
            "tree_prio": contraction.make_priorities(n + 1, rng),
            "tree_vals": generate_input("ints", n + 1, seed ^ 0x7A1),
        }
        if workload == "sublinear":
            inputs["ints"] = generate_input("ints", n, seed)
        return inputs
    if workload == "graph":
        g = generate_input("graph", n, GRAPH_SEED)
        return {
            "graph": g,
            "conn_ids": generate_input("ints", sizes["conn_queries"], seed ^ 0xC0)
            % WORD(g.n),
            "msf_ids": generate_input("ints", sizes["msf_queries"], seed ^ 0x3F)
            % WORD(g.m),
        }
    raise ValueError(f"unknown workload {workload!r}")


_FORMATS = {
    np.ndarray: (formats.write_ints, formats.read_ints, ("",)),
    LinkedList: (formats.write_list, formats.read_list, ("next", "prev")),
    BinaryTree: (formats.write_tree, formats.read_tree, ("parent", "left", "right")),
    GraphEdges: (formats.write_graph, formats.read_graph, ("u", "v", "w")),
}


def _fields(obj, names) -> list[np.ndarray]:
    return [obj if not f else getattr(obj, f) for f in names]


def round_trip(inputs: dict, workdir: Path) -> tuple[dict, float, float, list[str]]:
    """Write every input with pipal.formats and read it back.

    Empties ``inputs`` as it goes, so that only one original is alive next
    to the read-back copies.  Returns (read-back inputs, write seconds, read
    seconds, names of inputs that did not read back equal).
    """
    out = {}
    write_s = read_s = 0.0
    mismatched = []
    while inputs:
        key, obj = inputs.popitem()
        write, read, names = _FORMATS[type(obj)]
        path = workdir / f"{key}.bin"
        t0 = perf_counter()
        write(path, obj)
        t1 = perf_counter()
        back = read(path)
        t2 = perf_counter()
        write_s += t1 - t0
        read_s += t2 - t1
        if not all(np.array_equal(x, y) for x, y in
                   zip(_fields(obj, names), _fields(back, names))):
            mismatched.append(key)
        out[key] = back
    return out, write_s, read_s, mismatched


# ---------------------------------------------------------------------------
# Operations

def make_ops(workload: str, inputs: dict, seed: int) -> list[Op]:
    if workload == "arrays":
        return _array_ops(inputs["ints"], seed, DEFAULT_BUDGET,
                          include_strong=True, relaxed_ops=RELAXED_ARRAY_OPS)
    if workload == "rounds":
        return _round_ops(inputs, DEFAULT_BUDGET)
    if workload == "sublinear":
        return _round_ops(inputs, POWER_BUDGET) + _array_ops(
            inputs["ints"], seed, POWER_BUDGET, include_strong=False,
            relaxed_ops=("filter_relaxed", "partition_relaxed", "merge_relaxed",
                         "mergesort_relaxed"))
    if workload == "graph":
        return _graph_ops(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _array_ops(a: np.ndarray, seed: int, budget: EpsilonConfig,
               include_strong: bool, relaxed_ops: tuple[str, ...]) -> list[Op]:
    n = len(a)
    b = budget.prefix_words(n)
    split = n // 2
    shift = n // 3
    rng = Rng(seed)

    sorted_ref = functools.cache(lambda: bl.seq_sort(a))
    scan_ref = functools.cache(lambda: bl.seq_scan(a))
    filter_ref = functools.cache(lambda: bl.seq_filter(a, even))

    @functools.cache
    def set_input() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.unique(a[:split] >> WORD(1))
        y = np.unique(a[split:] >> WORD(1))
        return x, y, np.concatenate([x, y])

    set_refs = {
        "set_union": functools.cache(lambda: np.union1d(*set_input()[:2])),
        "set_intersect": functools.cache(lambda: np.intersect1d(*set_input()[:2])),
        "set_difference": functools.cache(lambda: np.setdiff1d(*set_input()[:2])),
    }

    def fresh(ctx):
        return a.copy()

    def halves(ctx):
        x = a.copy()
        x[:split].sort()
        x[split:].sort()
        return x

    def sets(ctx):
        return set_input()[2].copy()

    def is_sorted(x, res, ctx):
        return np.array_equal(x, sorted_ref())

    def scan_ok(out, total):
        ref, ref_total = scan_ref()
        return np.array_equal(out, ref) and total == ref_total

    def scanned(x, res, ctx):
        return scan_ok(x, res.total)

    def filtered(x, m, ctx):
        ref = filter_ref()
        return m == len(ref) and np.array_equal(x[:m], ref)

    def partitioned(x, m, ctx):
        return (m == len(filter_ref()) and bool(np.all(even(x[:m])))
                and not bool(np.any(even(x[m:])))
                and np.array_equal(np.sort(x), sorted_ref()))

    def set_check(name):
        def check(x, m, ctx):
            return np.array_equal(x[:m], set_refs[name]())
        return check

    def strong_op(name, prepare, body, check):
        return Op(f"strong.{name}", "strong", n, 0, prepare, body, check)

    def relaxed_op(name, prepare, body, check):
        return Op(f"relaxed.{name}", "relaxed", n, b, prepare, body, check)

    ops = []
    if include_strong:
        nsets = len(set_input()[2])
        split_sets = len(set_input()[0])
        ops += [
            strong_op("scan", fresh, lambda x: strong.scan(x), scanned),
            strong_op("scan_blocked", fresh, lambda x: strong.scan_blocked(x), scanned),
            strong_op("reduce", fresh, lambda x: strong.reduce(x),
                      lambda x, t, ctx: t == scan_ref()[1]),
            strong_op("rotate", fresh, lambda x: strong.rotate(x, shift),
                      lambda x, res, ctx: np.array_equal(x, np.roll(a, -shift))),
            strong_op("filter_kway", fresh, lambda x: strong.filter_kway(x, even),
                      filtered),
            strong_op("partition_unstable", fresh,
                      lambda x: strong.partition_unstable(x, even), partitioned),
            strong_op("quicksort_strong", fresh,
                      lambda x: strong.quicksort_strong(x, rng), is_sorted),
            strong_op("merge_strong", halves, lambda x: strong.merge_strong(x, split),
                      is_sorted),
            strong_op("mergesort_strong", fresh, lambda x: strong.mergesort_strong(x),
                      is_sorted),
        ]
        ops += [Op(f"strong.{name}", "strong", nsets, 0, sets,
                   lambda x, name=name: getattr(strong, name)(x, split_sets),
                   set_check(name))
                for name in ("set_union", "set_intersect", "set_difference")]
    relaxed_table = {
        "filter_relaxed": (fresh, lambda x: relaxed.filter_relaxed(x, even, budget),
                           filtered),
        "partition_relaxed": (fresh,
                              lambda x: relaxed.partition_relaxed(x, even, budget),
                              partitioned),
        "quicksort_relaxed": (fresh,
                              lambda x: relaxed.quicksort_relaxed(x, rng, budget),
                              is_sorted),
        "merge_relaxed": (halves, lambda x: relaxed.merge_relaxed(x, split, budget),
                          is_sorted),
        "mergesort_relaxed": (fresh, lambda x: relaxed.mergesort_relaxed(x, budget),
                              is_sorted),
    }
    ops += [relaxed_op(name, *relaxed_table[name]) for name in relaxed_ops]
    if include_strong:
        ops += [
            Op("baselines.nonip_scan", "comparator", n, 0, fresh,
               lambda x: bl.nonip_scan(x),
               lambda x, res, ctx: scan_ok(*res)),
            Op("baselines.nonip_filter", "comparator", n, 0, fresh,
               lambda x: bl.nonip_filter(x, even),
               lambda x, out, ctx: filtered(out, len(out), ctx)),
        ]
    return ops


def _round_ops(inputs: dict, budget: EpsilonConfig) -> list[Op]:
    h = inputs["perm"]
    lst = inputs["list"]
    lp = inputs["list_prio"]
    tree = inputs["tree"]
    tp = inputs["tree_prio"]
    vals = inputs["tree_vals"]
    n = len(h)
    nt = len(tree)

    @functools.cache
    def shuffle_ref():
        ref = np.arange(n, dtype=WORD)
        bl.seq_knuth_shuffle(ref, h)
        return ref

    rank_ref = functools.cache(lambda: bl.seq_list_rank(lst.next, lst.prev))
    tree_ref = functools.cache(
        lambda: bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals))

    def fresh_list(ctx):
        return LinkedList(lst.next.copy(), lst.prev.copy())

    def fresh_tree(ctx):
        return BinaryTree(tree.parent.copy(), tree.left.copy(), tree.right.copy()), \
            vals.copy()

    return [
        Op("relaxed.random_permutation", "relaxed", n, budget.prefix_words(n),
           lambda ctx: np.arange(n, dtype=WORD),
           lambda x: relaxed.random_permutation(x, h, "final", budget),
           lambda x, stats, ctx: np.array_equal(x, shuffle_ref())),
        Op("contraction.list_contract", "relaxed", n, budget.prefix_words(n),
           fresh_list, lambda x: contraction.list_contract(x, lp, budget=budget),
           lambda x, stats, ctx: stats.total_committed == n),
        Op("contraction.list_rank", "relaxed", n, budget.prefix_words(n),
           fresh_list, lambda x: contraction.list_rank(x, lp, budget),
           lambda x, ranks, ctx: np.array_equal(ranks, rank_ref())),
        Op("contraction.tree_contract", "relaxed", nt, budget.prefix_words(nt),
           fresh_tree, lambda x: contraction.tree_contract(x[0], tp, x[1], budget),
           lambda x, res, ctx: res[0] == tree_ref()),
        Op("baselines.fullres_shuffle", "comparator", n, 0,
           lambda ctx: np.arange(n, dtype=WORD), lambda x: bl.fullres_shuffle(x, h),
           lambda x, rounds, ctx: np.array_equal(x, shuffle_ref())),
    ]


def graph_budget(g: GraphEdges) -> int:
    """Acceptance criterion 10's build budget without its factor 8."""
    k = max(2, round(max(g.m, 2) ** EPSILON))
    return g.m // k + k * max(1, int(math.log2(max(g.n, 2))))


def _graph_ops(inputs: dict) -> list[Op]:
    g = inputs["graph"]
    b = graph_budget(g)
    labels_ref = functools.cache(lambda: bl.union_find_components(g.n, g.u, g.v))
    msf_ref = functools.cache(lambda: set(bl.kruskal_msf(g.n, g.u, g.v, g.w)))

    def same_partition(arg, label, ctx):
        # oracle labels are a relabelling of union-find's: the sample must
        # map one-to-one between the two
        ref = int(labels_ref()[arg[1]])
        fwd = ctx.setdefault("conn_fwd", {})
        back = ctx.setdefault("conn_back", {})
        return fwd.setdefault(label, ref) == ref and back.setdefault(ref, label) == label

    def in_msf(arg, member, ctx):
        return member == (arg[1] in msf_ref())

    ops = [
        Op("graph.build_connectivity", "build", g.n, b, lambda ctx: None,
           lambda _: graph.build_connectivity(g, EPSILON, GRAPH_SEED), None),
        Op("graph.build_msf", "build", g.n, b, lambda ctx: None,
           lambda _: graph.build_msf(g, EPSILON, GRAPH_SEED), None),
    ]
    ops += [Op("graph.query_connectivity", "query", g.n, 0,
               lambda ctx, x=x: (ctx["graph.build_connectivity"], x),
               lambda arg: graph.query_connectivity(*arg), same_partition)
            for x in inputs["conn_ids"].tolist()]
    ops += [Op("graph.query_msf_edge", "query", g.n, 0,
               lambda ctx, e=e: (ctx["graph.build_msf"], e),
               lambda arg: graph.query_msf_edge(*arg), in_msf)
            for e in inputs["msf_ids"].tolist()]
    return ops
