"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 11 is
informative-only: a miss (or an unmet hardware condition) emits a warning
line instead of failing the build.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from pipal import baselines as bl
from pipal import graph as gr
from pipal import contraction, relaxed, strong
from pipal.cli import BenchConfig
from pipal.contraction import (
    BinaryTree,
    LinkedList,
    list_contract,
    list_rank,
    make_priorities,
    tree_contract,
)
from pipal.ops import ALGOS, gen_graph, gen_list, gen_tree, generate_input
from pipal.runtime import (
    NIL,
    POWER_ONLY_FRACTION,
    WORD,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    meter_scope,
    release,
    set_num_threads,
)

FULL_PREFIX = EpsilonConfig(0.5, prefix_fraction=1.0)


def PURE(eps):
    return EpsilonConfig(eps, prefix_fraction=POWER_ONLY_FRACTION)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def thread_counts() -> list[int]:
    return sorted({1, 2, os.cpu_count() or 1})


def rand_words(seed: int, n: int) -> np.ndarray:
    return Rng(seed).words(0, n)


# ---------------------------------------------------------------------------

def test_criterion_01_scan_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 1001))
        a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
        ref, total = bl.seq_scan(a)
        for fn in (strong.scan, strong.scan_blocked):
            b = a.copy()
            res = fn(b)
            ok &= np.array_equal(b, ref) and res.total == total
    for trial in range(10):
        a = rand_words(1000 + trial, 10**6)
        ref, total = bl.seq_scan(a)
        for fn in (strong.scan, strong.scan_blocked):
            b = a.copy()
            res = fn(b)
            ok &= np.array_equal(b, ref) and res.total == total
    elapsed = time.perf_counter() - t0
    _report(1, "scan bit-identical to sequential oracle",
            ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_02_strong_zero_heap():
    # every strong entry of the algorithm table, each on a fresh copy of one
    # input inside one meter scope
    n = 10**6
    base = rand_words(7, n)
    strong_ops = [name for name, algo in ALGOS.items() if algo.contract == "strong"]
    meter = SpaceMeter()

    def body():
        for name in strong_ops:
            algo = ALGOS[name]
            algo.body(*algo.prepare(base, BenchConfig(name, n, seed=3)))

    report = meter_scope(meter, 0, body)
    _report(2, "strong operations charge zero auxiliary heap",
            report.peak_words == 0 and meter.current_words == 0,
            f"peak={report.peak_words}, {len(strong_ops)} operations")


def test_criterion_03_permutation_determinism():
    t0 = time.perf_counter()
    counts = thread_counts()
    ok = True
    try:
        for n in range(1, 7):
            seqs = itertools.product(*(range(i + 1) for i in range(1, n))) \
                if n > 1 else [()]
            for tail in seqs:
                h = np.array((0,) + tuple(tail), dtype=np.uint64)
                ref = np.arange(n, dtype=np.uint64)
                bl.seq_knuth_shuffle(ref, h)
                for variant in relaxed.RP_VARIANTS:
                    for tc in counts:
                        set_num_threads(tc)
                        a = np.arange(n, dtype=np.uint64)
                        relaxed.random_permutation(a, h, variant, FULL_PREFIX)
                        ok &= np.array_equal(a, ref)
        n = 10**5
        for trial in range(50):
            h = relaxed.make_swap_sequence(n, Rng(5000 + trial))
            ref = np.arange(n, dtype=np.uint64)
            bl.seq_knuth_shuffle(ref, h)
            for variant in relaxed.RP_VARIANTS:
                for tc in counts:
                    set_num_threads(tc)
                    a = np.arange(n, dtype=np.uint64)
                    relaxed.random_permutation(a, h, variant)
                    ok &= np.array_equal(a, ref)
    finally:
        set_num_threads(1)
    elapsed = time.perf_counter() - t0
    _report(3, "permutation equals sequential shuffle everywhere",
            ok and elapsed < 60.0, f"{elapsed:.1f}s, threads={counts}")


def test_criterion_04_permutation_uniformity():
    # the swap-to-permutation map is proven identical to the sequential
    # shuffle by criterion 3's exhaustive check, so the trials use the
    # vectorized sequential form
    trials = 240_000
    rng = Rng(4242)
    perms = np.tile(np.arange(4, dtype=np.uint64), (trials, 1))
    rows = np.arange(trials)
    for i in (3, 2, 1):
        h = rng.derive(i).words(0, trials) % WORD(i + 1)
        tmp = perms[rows, i].copy()
        perms[rows, i] = perms[rows, h]
        perms[rows, h] = tmp
    codes = perms[:, 0] * 64 + perms[:, 1] * 16 + perms[:, 2] * 4 + perms[:, 3]
    counts = np.bincount(codes.astype(np.int64), minlength=256)
    observed = counts[counts > 0]
    assert len(observed) == 24
    p = scipy.stats.chisquare(observed).pvalue
    _report(4, "n=4 outputs uniform over 24 permutations",
            p > 0.001, f"chi-square p={p:.4f}")


def test_criterion_05_worked_example_replay(capture_rounds):
    h = np.array([0, 0, 1, 3, 1, 2, 3, 1], dtype=np.uint64)
    ok = True
    rounds = capture_rounds(relaxed)
    for variant in relaxed.RP_VARIANTS:
        a = np.arange(8, dtype=np.uint64)
        rounds.clear()
        relaxed.random_permutation(a, h, variant, FULL_PREFIX)
        ok &= sorted(rounds[0][1]) == [5, 6, 7]
    _report(5, "first full-prefix round commits exactly sources {6,7,8}",
            ok, "1-indexed")


def test_criterion_06_relaxed_space_budgets():
    # every relaxed entry of the algorithm table at the power-only budget;
    # the input is built and prepared outside the meter, the body inside
    t0 = time.perf_counter()
    n = 10**6
    ok = True
    details = []
    rows = []
    for name, algo in ALGOS.items():
        if algo.contract != "relaxed":
            continue
        label = algo.row or name
        rows.append(label)
        size = n + (algo.kind == "tree")
        data = generate_input(algo.kind, size, seed=61)
        peaks, cs = [], []
        for eps in (0.3, 0.5, 0.7):
            cfg = BenchConfig(name, size, eps, POWER_ONLY_FRACTION, seed=62)
            b = cfg.budget().prefix_words(size)
            args = algo.prepare(data, cfg)
            meter = SpaceMeter()
            meter_scope(meter, 1 << 62, lambda: algo.body(*args))
            assert meter.current_words == 0, label
            peaks.append(meter.peak_words)
            cs.append(meter.peak_words / b)
            if meter.peak_words > 8 * b:
                ok = False
                details.append(f"{label}@{eps}: {meter.peak_words} > 8*{b}")
        if not (peaks[0] >= peaks[1] >= peaks[2]):
            ok = False
            details.append(f"{label}: peaks not monotone {peaks}")
        details.append(f"{label} c<= {max(cs):.2f}")
    assert sorted(rows) == sorted([
        "rp-final", "filter-relaxed", "partition-relaxed", "quicksort-relaxed",
        "mergesort-relaxed", "merge-relaxed", "list-contract", "list-rank",
        "tree-contract"])
    elapsed = time.perf_counter() - t0
    _report(6, "relaxed peaks within 8*b(n), nonincreasing in epsilon", ok,
            f"{elapsed:.0f}s; " + "; ".join(details))


def test_criterion_07_list_ranking(capture_rounds):
    rng = np.random.default_rng(71)
    ok = True
    for trial in range(100):
        lst = gen_list(1000, Rng(7100 + trial))
        ref = bl.seq_list_rank(lst.next, lst.prev)
        ranks = list_rank(lst, make_priorities(1000, Rng(trial)))
        ok &= np.array_equal(ranks, ref)

    # worked instance: chain priorities [5,1,6,2,9,3,7,4,8]; a full-prefix
    # run contracts priorities {1,2,3,4} first and finishes in 4 rounds
    order = list(range(9))
    nxt = np.full(9, NIL, dtype=np.uint64)
    prv = np.full(9, NIL, dtype=np.uint64)
    for x, y in zip(order, order[1:]):
        nxt[x] = y
        prv[y] = x
    p = np.array([5, 1, 6, 2, 9, 3, 7, 4, 8], dtype=np.uint64) - np.uint64(1)
    rounds = capture_rounds(contraction)
    stats = list_contract(LinkedList(nxt, prv), p, budget=FULL_PREFIX)
    first = sorted(int(p[v]) + 1 for v in rounds[0][1])
    ok &= first == [1, 2, 3, 4] and stats.rounds == 4
    _report(7, "ranks equal pointer walk; worked instance replays",
            ok, f"instance rounds={stats.rounds}, first={first}")


def test_criterion_08_tree_contraction():
    ok = True
    sizes = [999] * 100 + [100_001] * 3
    for i, n in enumerate(sizes):
        tree = gen_tree(n, Rng(8000 + i))
        vals = rand_words(880 + i, n)
        ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals)
        roots, _ = tree_contract(tree, make_priorities(n, Rng(i)), vals.copy(),
                                 debug=True)  # raises on any co-contraction
        ok &= roots == ref
    _report(8, "subtree sums match; zero parent-child co-contractions", ok,
            f"{len(sizes)} forests")


def test_criterion_09_merging():
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    ok = True
    sizes = [(int(rng.integers(0, 500)), int(rng.integers(0, 500)))
             for _ in range(995)]
    sizes += [(60_000, 50_000), (100_000, 1), (1, 100_000), (85_000, 85_000),
              (500_000, 500_000)]
    assert len(sizes) == 1000
    for i, (na, nb) in enumerate(sizes):
        x = np.sort(rng.integers(0, 10_000, size=na, dtype=np.uint64))
        y = np.sort(rng.integers(0, 10_000, size=nb, dtype=np.uint64))
        ref = bl.seq_two_finger_merge(x, y)
        a = np.concatenate([x, y])
        strong.merge_strong(a, na)
        ok &= np.array_equal(a, ref)

        cfg = PURE(0.5)
        b = np.concatenate([x, y])
        n = len(b)
        meter = SpaceMeter()
        meter_scope(meter, 1 << 62, lambda: relaxed.merge_relaxed(b, na, cfg))
        ok &= np.array_equal(b, ref) and meter.peak_words == 0
    elapsed = time.perf_counter() - t0
    _report(9, "merges equal two-finger oracle and charge no heap", ok,
            f"{elapsed:.0f}s")


def _partitions_equal(a, b) -> bool:
    seen: dict[int, int] = {}
    for x, y in zip(a, b):
        if seen.setdefault(x, y) != y:
            return False
    return len(set(seen.values())) == len(set(a))


def _structured_graphs():
    path = gr.GraphEdges(
        1000,
        np.arange(999, dtype=np.uint64),
        np.arange(1, 1000, dtype=np.uint64),
        (np.arange(999, dtype=np.uint64) * np.uint64(7)) + np.uint64(1))
    star = gr.GraphEdges(
        1000,
        np.zeros(999, dtype=np.uint64),
        np.arange(1, 1000, dtype=np.uint64),
        (np.arange(999, dtype=np.uint64) * np.uint64(13)) + np.uint64(2))
    forest_u, forest_v, forest_w, base = [], [], [], 0
    for size in (3, 17, 80, 400, 500):
        for i in range(size - 1):
            forest_u.append(base + i)
            forest_v.append(base + i + 1)
            forest_w.append(31 * (base + i) + 5)
        base += size
    forest = gr.GraphEdges(base,
                           np.array(forest_u, dtype=np.uint64),
                           np.array(forest_v, dtype=np.uint64),
                           np.array(forest_w, dtype=np.uint64))
    two = gen_graph(500, Rng(1009), edges_per_vertex=2)
    dense = gen_graph(100, Rng(1013), edges_per_vertex=30)
    return [path, star, forest, two, dense]


def test_criterion_10_graphs():
    t0 = time.perf_counter()
    eps = 0.5
    ok = True
    graphs = [gen_graph(1000, Rng(10_000 + i)) for i in range(50)]
    graphs += _structured_graphs()
    for i, g in enumerate(graphs):
        k = max(2, round(max(g.m, 2) ** eps))
        budget = 8 * (g.m // k + k * max(1, int(math.log2(max(g.n, 2)))))
        ref_labels = bl.union_find_components(g.n, g.u, g.v).tolist()
        ref_msf = bl.kruskal_msf(g.n, g.u, g.v, g.w)

        meter = SpaceMeter()
        holder = {}

        def body():
            holder["conn"] = gr.build_connectivity(g, eps, seed=i)
            holder["msf"] = gr.build_msf(g, eps, seed=i)

        meter_scope(meter, budget, body)
        if meter.peak_words > budget:
            ok = False
        got = [gr.query_connectivity(holder["conn"], x) for x in range(g.n)]
        ok &= _partitions_equal(got, ref_labels)
        ok &= gr.msf_full_edge_set(holder["msf"]) == ref_msf
    elapsed = time.perf_counter() - t0
    _report(10, "connectivity equals union-find; MSF equals Kruskal", ok,
            f"{elapsed:.0f}s, 55 graphs")


def test_criterion_11_relative_performance():
    # informative only: a miss prints a warning row instead of failing
    hw = os.cpu_count() or 1
    if hw < 8:
        print(f"ACCEPTANCE 11 relative performance: PASS "
              f"(warning: skipped, {hw} hardware threads < 8)")
        return
    n = 10**8
    set_num_threads(hw)
    try:
        a = rand_words(11, n)
        t0 = time.perf_counter()
        strong.scan(a.copy())
        t_in = time.perf_counter() - t0
        meter = SpaceMeter()
        t0 = time.perf_counter()

        def body():
            out, _ = bl.nonip_scan(a)
            release(out)

        meter_scope(meter, 1 << 62, body)
        t_non = time.perf_counter() - t0
        if t_in > 1.1 * t_non:
            print(f"ACCEPTANCE 11: PASS (warning: scan {t_in:.2f}s > "
                  f"1.1x nonip {t_non:.2f}s)")
        h = relaxed.make_swap_sequence(n, Rng(12))
        arr = np.arange(n, dtype=np.uint64)
        t0 = time.perf_counter()
        relaxed.random_permutation(arr, h)
        t_rp = time.perf_counter() - t0
        arr = np.arange(n, dtype=np.uint64)
        t0 = time.perf_counter()
        bl.fullres_shuffle(arr, h)
        t_full = time.perf_counter() - t0
        if t_rp > 2.0 * t_full:
            print(f"ACCEPTANCE 11: PASS (warning: rp {t_rp:.2f}s > "
                  f"2.0x full-reservation {t_full:.2f}s)")
        print(f"ACCEPTANCE 11 relative performance: PASS "
              f"(scan {t_in:.2f}s vs {t_non:.2f}s; rp {t_rp:.2f}s vs {t_full:.2f}s)")
    finally:
        set_num_threads(1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _thread_determinism_outputs() -> str:
    h = hashlib.sha256()
    # criterion 1 workload
    a = rand_words(121, 10**6)
    res = strong.scan(a)
    h.update(a.tobytes() + res.total.to_bytes(8, "little"))
    # criterion 3 workload
    hs = relaxed.make_swap_sequence(10**5, Rng(122))
    for variant in relaxed.RP_VARIANTS:
        arr = np.arange(10**5, dtype=np.uint64)
        relaxed.random_permutation(arr, hs, variant)
        h.update(arr.tobytes())
    # criterion 7 workload
    lst = gen_list(10**5, Rng(123))
    ranks = list_rank(lst, make_priorities(10**5, Rng(124)))
    h.update(ranks.tobytes())
    # criterion 8 workload
    tree = gen_tree(100_001, Rng(125))
    vals = rand_words(126, 100_001)
    roots, _ = tree_contract(tree, make_priorities(100_001, Rng(127)), vals)
    h.update(repr(sorted(roots.items())).encode())
    # criterion 9 workload
    m = rand_words(128, 10**6)
    m[:500_000].sort()
    m[500_000:].sort()
    mm = m.copy()
    strong.merge_strong(m, 500_000)
    relaxed.merge_relaxed(mm, 500_000, PURE(0.5))
    h.update(m.tobytes() + mm.tobytes())
    # criterion 10 workload
    g = gen_graph(1000, Rng(129))
    oracle = gr.build_connectivity(g, 0.5, seed=7)
    labels = [gr.query_connectivity(oracle, x) for x in range(g.n)]
    msf = gr.build_msf(g, 0.5, seed=7)
    h.update(repr(labels).encode() + repr(msf_edges(msf)).encode())
    return h.hexdigest()


def msf_edges(oracle):
    return gr.msf_full_edge_set(oracle)


def test_criterion_12_thread_count_determinism():
    digests = {}
    try:
        for tc in thread_counts():
            set_num_threads(tc)
            digests[tc] = _thread_determinism_outputs()
    finally:
        set_num_threads(1)
    ok = len(set(digests.values())) == 1
    _report(12, "identical primary outputs across thread counts", ok,
            f"threads={sorted(digests)}")
