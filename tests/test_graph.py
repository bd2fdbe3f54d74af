from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from pipal import baselines as bl
from pipal import graph
from pipal.graph import (
    GraphEdges,
    ImplicitDecomposition,
    _grow,
    build_connectivity,
    build_msf,
    msf_full_edge_set,
    query_connectivity,
    query_msf_edge,
)
from pipal.ops import gen_graph, generate_input
from pipal.runtime import Rng, SpaceMeter, ix, meter_scope


def graph_from(n, triples):
    u = np.array([t[0] for t in triples], dtype=np.uint64)
    v = np.array([t[1] for t in triples], dtype=np.uint64)
    w = np.array([t[2] for t in triples], dtype=np.uint64)
    return GraphEdges(n, u, v, w)


def random_graph(rng, n, m, wmax=1 << 40):
    u = rng.integers(0, n, size=m, dtype=np.uint64)
    v = rng.integers(0, n - 1, size=m, dtype=np.uint64)
    v = np.where(v >= u, v + np.uint64(1), v)  # no self-loops
    w = rng.integers(0, wmax, size=m, dtype=np.uint64)
    return GraphEdges(n, u, v, w)


def loopy_graph(rng, n, m, wmax=8):
    """Random multigraph: self-loops, repeated endpoint pairs and weights
    drawn from a few values, so (weight, edge id) ties are broken often."""
    u = rng.integers(0, n, size=m, dtype=np.uint64)
    v = rng.integers(0, n, size=m, dtype=np.uint64)
    v[::7] = u[::7]                     # self-loops
    k = m // 5
    u[-k:], v[-k:] = u[:k], v[:k]       # parallel copies of the first k edges
    w = rng.integers(0, wmax, size=m, dtype=np.uint64)
    return GraphEdges(n, u, v, w)


def path_graph(n):
    return graph_from(n, [(i, i + 1, 7 * i + 3) for i in range(n - 1)])


def star_graph(n):
    return graph_from(n, [(0, i, 13 * i + 1) for i in range(1, n)])


def barbell_graph(small=12, large=40, bridges=5):
    """Two dense halves of different sizes, weights 0-99, joined by bridges
    of distinct weights spread over the same range."""
    rng = np.random.default_rng(3)
    triples = []
    for lo, size in ((0, small), (small, large)):
        triples += [(lo + i, lo + j, int(rng.integers(0, 100)))
                    for i in range(size) for j in range(i + 1, size)
                    if rng.random() < 0.5]
    triples += [(int(rng.integers(0, small)), small + int(rng.integers(0, large)),
                 20 * i + 7) for i in range(bridges)]
    return graph_from(small + large, triples)


def partitions_equal(a, b):
    seen = {}
    for x, y in zip(a, b):
        if x in seen:
            if seen[x] != y:
                return False
        else:
            seen[x] = y
    return len(set(seen.values())) == len(set(a))


def oracle_partition(g, eps=0.5, seed=11):
    o = build_connectivity(g, eps, seed)
    return [query_connectivity(o, x) for x in range(g.n)]


# ---------------------------------------------------------------------------
# adjacency index

def test_neighbors_of_an_array_concatenates_the_slices():
    # 0: self-loop and a parallel pair to 1; 2 and 5: isolated
    g = graph_from(6, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 3, 4), (4, 3, 5),
                       (3, 3, 6)])
    cases = [[1], [2], [2, 5], [0, 0, 1], [3, 0, 3], [5, 4, 2, 0],
             list(range(6)), []]
    for xs in cases:
        nbr, eid = g.neighbors(np.array(xs, dtype=np.int64))
        ref = [g.neighbors(x) for x in xs]
        want_nbr = np.concatenate([r[0] for r in ref]) if xs else np.empty(0)
        want_eid = np.concatenate([r[1] for r in ref]) if xs else np.empty(0)
        assert nbr.tolist() == want_nbr.tolist(), xs
        assert eid.tolist() == want_eid.tolist(), xs
        assert g.neighbor_vertices(np.array(xs, dtype=np.int64)).tolist() \
            == want_nbr.tolist(), xs
    nbr, eid = g.neighbors(0)
    assert sorted(zip(eid.tolist(), nbr.tolist())) == [(0, 0), (0, 0), (1, 1), (2, 1)]
    assert g.neighbor_vertices(0).tolist() == nbr.tolist()


# ---------------------------------------------------------------------------
# decomposition

def test_centers_sampled_at_rate_one_over_k():
    g = random_graph(np.random.default_rng(0), 2000, 10_000)
    dec = ImplicitDecomposition.sample(g, 0.5, seed=3)
    assert dec.k == round(10_000 ** 0.5)
    frac = len(dec.center_ids) / g.n
    assert 0.4 / dec.k < frac < 2.5 / dec.k
    assert np.array_equal(np.flatnonzero(dec.is_center(np.arange(g.n, dtype=np.uint64))),
                          dec.center_ids.astype(np.int64))


# ---------------------------------------------------------------------------
# connectivity

def test_no_edges_every_vertex_own_label():
    g = graph_from(5, [])
    labels = oracle_partition(g)
    assert labels == [0, 1, 2, 3, 4]


def test_path_graph_single_label():
    g = path_graph(400)
    labels = oracle_partition(g)
    assert len(set(labels)) == 1


def test_star_graph_single_label():
    g = star_graph(500)
    labels = oracle_partition(g)
    assert len(set(labels)) == 1


def test_center_queries_label_without_expansion():
    # a center's query reads its stored label only: on a copy of the graph
    # whose adjacency index is empty it still answers, while a non-center's
    # query, which must search, cannot
    g = path_graph(100)
    o = build_connectivity(g, 0.5, seed=5)
    centers = o.decomposition.center_ids.tolist()
    assert centers
    stripped = copy.copy(g)
    stripped.adj_off = np.empty(0, dtype=np.int64)
    stripped.adj_nbr = np.empty(0, dtype=np.int64)
    blind = dataclasses.replace(o, graph=stripped)
    for c in centers:
        assert query_connectivity(blind, c) == o.center_label[c] \
            == query_connectivity(o, c)
    x = next(x for x in range(g.n) if x not in o.center_label)
    with pytest.raises(IndexError):
        query_connectivity(blind, x)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_connectivity_labels_are_the_component_minimum_center(seed):
    # one edge per vertex leaves many small components, some with a center
    # and some without; the query returns at the first center it meets,
    # which is exact only because the build labels every center of a
    # component alike
    n = 2000
    g = gen_graph(n, Rng(seed), edges_per_vertex=1)
    comp = bl.union_find_components(g.n, g.u, g.v).astype(np.int64)
    for eps in (0.3, 0.5, 0.7):
        o = build_connectivity(g, eps, seed)
        centers = ix(o.decomposition.center_ids)
        assert sorted(o.center_label) == centers.tolist()
        labels_of = {}
        for c, label in o.center_label.items():
            labels_of.setdefault(int(comp[c]), set()).add(label)
        assert all(len(s) == 1 for s in labels_of.values()), eps
        min_center = np.full(n, n, dtype=np.int64)
        np.minimum.at(min_center, comp[centers], centers)
        want = np.where(min_center[comp] < n, min_center[comp], comp)
        assert 0 < len(labels_of) < len(np.unique(comp)), eps   # both kinds occur
        assert [query_connectivity(o, x) for x in range(n)] == want.tolist(), eps


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_connectivity_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n, m = 500, 1500
    g = random_graph(rng, n, m)
    ref = bl.union_find_components(n, g.u, g.v).tolist()
    for eps in (0.3, 0.5, 0.7):
        got = oracle_partition(g, eps, seed=seed + 7)
        assert partitions_equal(got, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_connectivity_with_loops_and_parallel_edges(seed):
    rng = np.random.default_rng(seed + 40)
    g = loopy_graph(rng, 300, 450)
    ref = bl.union_find_components(g.n, g.u, g.v).tolist()
    for eps in (0.3, 0.5, 0.7):
        assert partitions_equal(oracle_partition(g, eps, seed=seed + 3), ref)


def test_connectivity_disconnected_forest():
    triples = []
    base = 0
    for size in (1, 2, 5, 17, 40):
        triples += [(base + i, base + i + 1, 1000 + base + i) for i in range(size - 1)]
        base += size
    g = graph_from(base, triples)
    ref = bl.union_find_components(g.n, g.u, g.v).tolist()
    got = oracle_partition(g)
    assert partitions_equal(got, ref)


@pytest.mark.parametrize("n", [20_000, 80_000])
def test_connectivity_build_expands_each_vertex_once(n, monkeypatch):
    # the searches share one visited bitmap, so a non-center region is
    # walked by one center's search only and no vertex is expanded twice;
    # a search per center over its whole region expands about n vertices
    # per center (1,256,031 at n = 2·10^4)
    g = generate_input("graph", n, 14)
    assert g.m == 5 * n
    expanded = 0
    gather = GraphEdges.neighbor_vertices

    def counted(self, x):
        nonlocal expanded
        expanded += len(x) if isinstance(x, np.ndarray) else 1
        return gather(self, x)

    monkeypatch.setattr(GraphEdges, "neighbor_vertices", counted)
    k = max(2, round(g.m ** 0.5))
    budget = 8 * (g.m // k + k * max(1, int(math.log2(n))))
    meter = SpaceMeter()
    report = meter_scope(meter, budget, lambda: build_connectivity(g, 0.5, 14))
    assert expanded <= n, expanded
    assert meter.current_words == 0
    assert report.peak_words <= budget, (report.peak_words, budget)


def test_connectivity_when_no_center_is_sampled():
    # every query runs out its whole component and labels it by the
    # minimum vertex id, as union-find does
    g = loopy_graph(np.random.default_rng(5), 40, 90)
    seed = next(s for s in range(200)
                if not len(ImplicitDecomposition.sample(g, 0.7, s).center_ids))
    o = build_connectivity(g, 0.7, seed)
    assert not o.center_label
    assert oracle_partition(g, 0.7, seed) \
        == bl.union_find_components(g.n, g.u, g.v).tolist()


def test_connectivity_query_work():
    # each query looks up the label of each new vertex it meets, one at a
    # time, and stops at the first center: 408,210 lookups over these 2000
    # queries (bounded at 1.05x), against 455,628 when every neighbor is
    # looked up before the seen test and 1,394,415 vertices in the levels
    # that a search testing whole levels reaches
    g = generate_input("graph", 10_000, 14)
    o = build_connectivity(g, 0.5, 14)

    class CountedLabels(dict):
        looked_up = 0

        def get(self, key, default=None):
            self.looked_up += 1
            return super().get(key, default)

    o.center_label = CountedLabels(o.center_label)
    xs = (Rng(14).words(0, 2000) % np.uint64(g.n)).tolist()
    got = [query_connectivity(o, x) for x in xs]
    ref = bl.union_find_components(g.n, g.u, g.v)[xs].tolist()
    assert partitions_equal(got, ref)
    assert o.center_label.looked_up <= 430_000, o.center_label.looked_up


def test_query_rejects_out_of_range():
    g = path_graph(4)
    o = build_connectivity(g, 0.5, 0)
    with pytest.raises(IndexError):
        query_connectivity(o, 4)


# ---------------------------------------------------------------------------
# minimum spanning forest

def test_triangle_msf():
    g = graph_from(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)])
    o = build_msf(g, 0.5, seed=1)
    eids = msf_full_edge_set(o)
    assert eids == [0, 1]
    assert int(g.w[eids].sum()) == 3


def test_tree_input_all_edges_in_msf():
    g = path_graph(64)
    o = build_msf(g, 0.5, seed=2)
    assert msf_full_edge_set(o) == list(range(g.m))


def test_lightest_edge_in_heaviest_cycle_edge_out():
    g = graph_from(4, [(0, 1, 10), (1, 2, 20), (2, 0, 30), (2, 3, 5)])
    o = build_msf(g, 0.5, seed=3)
    assert query_msf_edge(o, 3)       # unique lightest edge
    assert not query_msf_edge(o, 2)   # heaviest edge of the cycle


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_msf_matches_kruskal(seed):
    rng = np.random.default_rng(seed + 100)
    n, m = 300, 1200
    g = random_graph(rng, n, m, wmax=50)  # small weights force tie-breaking
    ref = bl.kruskal_msf(n, g.u, g.v, g.w)
    for eps in (0.3, 0.5, 0.7):
        o = build_msf(g, eps, seed=seed)
        assert msf_full_edge_set(o) == ref
        # each Boruvka round commits only edges between distinct clusters
        assert np.all(np.diff(o.committed_eids) > 0)


def test_msf_edge_queries_match_kruskal_membership():
    rng = np.random.default_rng(7)
    n, m = 120, 500
    g = random_graph(rng, n, m, wmax=40)
    ref = set(bl.kruskal_msf(n, g.u, g.v, g.w))
    o = build_msf(g, 0.5, seed=9)
    got = {e for e in range(m) if query_msf_edge(o, e)}
    assert got == ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_msf_edge_queries_with_loops_parallel_edges_and_ties(seed):
    rng = np.random.default_rng(seed + 60)
    g = loopy_graph(rng, 150, 450, wmax=4)
    ref = set(bl.kruskal_msf(g.n, g.u, g.v, g.w))
    for eps in (0.3, 0.5, 0.7):
        o = build_msf(g, eps, seed=seed)
        assert {e for e in range(g.m) if query_msf_edge(o, e)} == ref
        assert msf_full_edge_set(o) == sorted(ref)


@pytest.mark.parametrize("shape", ["barbell", "star", "path", "disconnected"])
def test_msf_edge_queries_match_kruskal_on_shapes(shape):
    # on the barbell the lighter components of a bridge's two ends differ
    # in size, so the smaller side's search runs out first
    g = {"barbell": barbell_graph,
         "star": lambda: star_graph(60),
         "path": lambda: path_graph(60),
         "disconnected": lambda: graph_from(
             6, [(0, 1, 5), (1, 2, 4), (2, 0, 9), (3, 4, 1)])}[shape]()
    ref = set(bl.kruskal_msf(g.n, g.u, g.v, g.w))
    o = build_msf(g, 0.5, seed=4)
    assert {e for e in range(g.m) if query_msf_edge(o, e)} == ref


def test_msf_edge_query_work(monkeypatch):
    # the searches from both ends stop when the smaller lighter component
    # runs out or the two meet: 12,054 vertices expanded over these 200
    # queries, against 524,635 for a search of x's whole lighter subgraph
    g = generate_input("graph", 10_000, 14)
    o = build_msf(g, 0.5, 14)
    ref = set(bl.kruskal_msf(g.n, g.u, g.v, g.w))
    expanded = 0
    gather = GraphEdges.neighbors

    def counted(self, x):
        nonlocal expanded
        expanded += len(x) if isinstance(x, np.ndarray) else 1
        return gather(self, x)

    monkeypatch.setattr(GraphEdges, "neighbors", counted)
    eids = range(0, g.m, 250)
    assert len(eids) == 200
    assert [query_msf_edge(o, e) for e in eids] == [e in ref for e in eids]
    assert expanded <= 40_000, expanded


def test_msf_edge_query_charges_one_bitmap():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 1001, 4000, wmax=16)
    o = build_msf(g, 0.5, seed=5)
    bitmap = -(-g.n // 8)
    for e in range(0, g.m, 97):
        meter = SpaceMeter()
        report = meter_scope(meter, bitmap, lambda: query_msf_edge(o, e))
        assert meter.current_words == 0
        assert report.peak_words <= bitmap, (e, report.peak_words)


def test_msf_query_rejects_out_of_range():
    g = path_graph(5)
    o = build_msf(g, 0.5, seed=2)
    with pytest.raises(IndexError):
        query_msf_edge(o, 99)


def test_msf_disconnected():
    triples = [(0, 1, 5), (1, 2, 4), (2, 0, 9), (3, 4, 1)]
    g = graph_from(6, triples)
    o = build_msf(g, 0.5, seed=4)
    assert msf_full_edge_set(o) == [0, 1, 3]


@pytest.mark.parametrize("triples", [[], [(0, 0, 1), (1, 1, 0), (1, 1, 2), (3, 3, 5)]],
                         ids=["no-edges", "only-self-loops"])
def test_msf_of_a_graph_with_no_joining_edge(triples):
    g = graph_from(5, triples)
    for eps in (0.3, 0.5, 0.7):
        o = build_msf(g, eps, seed=1)
        assert msf_full_edge_set(o) == bl.kruskal_msf(g.n, g.u, g.v, g.w) == []
        assert len(o.committed_eids) == 0


def test_msf_when_no_center_is_sampled():
    # every cluster the growth phase leaves is then a whole component, and
    # nothing is committed
    g = loopy_graph(np.random.default_rng(5), 40, 90)
    seed = next(s for s in range(200)
                if not len(ImplicitDecomposition.sample(g, 0.7, s).center_ids))
    o = build_msf(g, 0.7, seed)
    assert len(o.committed_eids) == 0
    assert msf_full_edge_set(o) == bl.kruskal_msf(g.n, g.u, g.v, g.w)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_growth_leaves_one_center_per_cluster_or_a_whole_component(seed):
    # the invariant the commit phase rests on: after the growth phase a
    # cluster holds at most one center, and a centerless cluster is a whole
    # component (labelled, like union-find's, by its minimum vertex id)
    g = loopy_graph(np.random.default_rng(seed + 80), 300, 600)
    comp = bl.union_find_components(g.n, g.u, g.v)
    for eps in (0.3, 0.5, 0.7):
        dec = ImplicitDecomposition.sample(g, eps, seed)
        lab = np.arange(g.n, dtype=np.uint64)
        _grow(g, dec, lab, [])
        centers = np.bincount(lab[dec.center_ids], minlength=g.n)
        assert centers.max(initial=0) <= 1, eps
        free = np.flatnonzero(centers[lab] == 0)
        assert np.array_equal(lab[free], comp[free]), eps
        assert np.array_equal(np.bincount(lab, minlength=g.n)[lab[free]],
                              np.bincount(comp, minlength=g.n)[comp[free]]), eps


# ---------------------------------------------------------------------------
# space budgets

def test_builds_within_epsilon_budget():
    rng = np.random.default_rng(17)
    n, m = 1000, 10_000
    g = random_graph(rng, n, m)
    for eps in (0.3, 0.5, 0.7):
        k = max(2, round(m ** eps))
        budget = 8 * (m // k + k * max(1, int(math.log2(n))))
        meter = SpaceMeter()

        def body():
            oc = build_connectivity(g, eps, 3)
            om = build_msf(g, eps, 3)

        report = meter_scope(meter, budget, body)
        assert meter.current_words == 0
        assert report.peak_words <= budget, (eps, report.peak_words, budget)


def test_msf_build_releases_everything_it_charged():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 400, 1600, wmax=16)
    meter = SpaceMeter()
    report = meter_scope(meter, 1 << 62, lambda: build_msf(g, 0.5, seed=6))
    # the one charged n-word label array both Boruvka phases share
    assert report.peak_words == g.n
    assert meter.current_words == 0


def test_connectivity_build_traced_peak(traced_peak):
    # the searches gather neighbor vertices only, not their edge ids, and
    # share one visited bitmap that is never cleared: on a 10^4-vertex,
    # 5·10^4-edge graph the build's real footprint measured 49.1·8b
    g = generate_input("graph", 10_000, 14)
    k = max(2, round(g.m ** 0.5))
    b = g.m // k + k * int(math.log2(g.n))
    assert b == 3135
    peak, oracle = traced_peak(lambda: build_connectivity(g, 0.5, 14))
    assert peak <= 56 * 8 * b, peak / (8 * b)
    ref = bl.union_find_components(g.n, g.u, g.v).tolist()
    assert partitions_equal([query_connectivity(oracle, x) for x in range(0, g.n, 97)],
                            ref[::97])


def test_msf_build_work(monkeypatch):
    # the build reads the edge list only, never the adjacency index, and its
    # Boruvka rounds (one hook each) halve the picking classes: 8 rounds here
    g = generate_input("graph", 10_000, 14)
    rounds = 0
    hook = graph._hook

    def counted(lab, ca, cb):
        nonlocal rounds
        rounds += 1
        hook(lab, ca, cb)

    def no_adjacency(self, x):
        raise AssertionError("build_msf read the adjacency index")

    monkeypatch.setattr(graph, "_hook", counted)
    monkeypatch.setattr(GraphEdges, "neighbors", no_adjacency)
    monkeypatch.setattr(GraphEdges, "neighbor_vertices", no_adjacency)
    o = build_msf(g, 0.5, 14)
    assert 0 < rounds <= 2 * math.ceil(math.log2(g.n)), rounds
    assert msf_full_edge_set(o) == bl.kruskal_msf(g.n, g.u, g.v, g.w)


def test_msf_build_traced_peak(traced_peak):
    # the charged n-word labels, a Boruvka step's two n-word minimum
    # targets and its live edges' labels and weights: 111.3·8b measured
    # (a per-vertex heap search from every vertex measured 147.5·8b)
    g = generate_input("graph", 10_000, 14)
    k = max(2, round(g.m ** 0.5))
    b = g.m // k + k * int(math.log2(g.n))
    assert b == 3135
    peak, oracle = traced_peak(lambda: build_msf(g, 0.5, 14))
    assert peak <= 122 * 8 * b, peak / (8 * b)
    assert msf_full_edge_set(oracle) == bl.kruskal_msf(g.n, g.u, g.v, g.w)
