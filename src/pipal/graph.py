"""Space-bounded graph algorithms over an implicit center decomposition.

Vertices are sampled as centers with probability 1/k (k = m^epsilon); only
per-center state is stored, and queries run local searches instead of
reading stored labels.  Connectivity labels come from breadth-first
searches that share one visited bitmap: each non-center region is walked
once, by the first center that touches it, which links that center to every
center on the region's boundary; hook-and-contract rounds over the tiny
center graph then join the linked centers.  The minimum spanning forest
runs vectorized Boruvka over the edge list on one n-word label array,
joined by the same hook-and-contract: first only the fragments that hold
no center pick, which grows the decomposition's clusters, then every
cluster picks; only the second phase's inter-center forest edges are
stored.  Effective edge weights are the pairs (weight, edge id), so ties
are impossible and the MSF is unique.

The connectivity build's searches and the MSF-edge query's two searches
expand a whole frontier level with one gather through the ingestion-time
CSR index; the MSF build reads no adjacency.  The connectivity build holds
one n-byte visited bitmap.  A connectivity query walks the CSR slices one
vertex at a time, in queue order, and stops at the first center it meets.
An MSF-edge query searches lighter edges from both ends at once, expanding
the smaller frontier each level, and holds one n-byte side array that
marks which end reached a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .runtime import (
    M64,
    WORD,
    Rng,
    alloc,
    alloc_bool,
    as_words,
    ix,
    release,
    run_starts,
)

__all__ = [
    "GraphEdges", "ImplicitDecomposition", "ConnectivityOracle", "MsfOracle",
    "build_connectivity", "query_connectivity", "build_msf", "query_msf_edge",
]

# ---------------------------------------------------------------------------
# Graph representation

class GraphEdges:
    """Weighted undirected edge list with ingestion-time adjacency offsets.

    The adjacency index (CSR over both edge directions) is built once when
    the graph is ingested, as caller-provided scratch; the metered builds
    only read it.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        as_words(u), as_words(v), as_words(w)
        if not len(u) == len(v) == len(w):
            raise ValueError("edge arrays must have equal length")
        if len(u) and (int(u.max()) >= n or int(v.max()) >= n):
            raise ValueError("edge endpoint out of range")
        self.n = n
        self.m = len(u)
        self.u = u
        self.v = v
        self.w = w
        ends = ix(np.concatenate([u, v]))
        eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
        order = np.argsort(ends, kind="stable")
        self.adj_off = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.adj_off, ends + 1, 1)
        np.cumsum(self.adj_off, out=self.adj_off)
        self.adj_eid = eids[order]
        other = ix(np.concatenate([v, u]))
        self.adj_nbr = other[order]

    def neighbors(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(neighbors, edge ids) of vertex x; for an int64 array x, those of
        every vertex in it, concatenated in CSR order by one index."""
        i = self._adjacency(x)
        return self.adj_nbr[i], self.adj_eid[i]

    def neighbor_vertices(self, x) -> np.ndarray:
        """The neighbors that ``neighbors(x)`` returns, without gathering
        the edge ids, for searches that only follow vertices."""
        return self.adj_nbr[self._adjacency(x)]

    def _adjacency(self, x):
        """x's positions in the CSR arrays: a slice for one vertex, one
        index array for an int64 array of vertices."""
        if not isinstance(x, np.ndarray):
            return slice(self.adj_off[x], self.adj_off[x + 1])
        start = self.adj_off[x]
        cnt = self.adj_off[x + 1] - start
        end = np.cumsum(cnt)
        total = int(end[-1]) if len(end) else 0
        return np.repeat(start - (end - cnt), cnt) + np.arange(total)


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a, by one sort and an adjacent-difference
    mask (numpy's ``unique`` hashes, which is slower at these sizes)."""
    a = np.sort(a)
    return a[run_starts(a)] if len(a) > 1 else a


@dataclass
class ImplicitDecomposition:
    """Centers sampled with probability 1/k; membership is recomputed from
    (seed, vertex), never stored per vertex."""

    k: int
    seed: int
    center_ids: np.ndarray = field(repr=False)

    @classmethod
    def sample(cls, g: GraphEdges, epsilon: float, seed: int) -> "ImplicitDecomposition":
        k = max(2, int(round(max(g.m, 2) ** epsilon)))
        rng = Rng(seed)
        ids = np.flatnonzero(rng.words(0, g.n) % WORD(k) == 0).astype(WORD)
        return cls(k=k, seed=seed, center_ids=ids)

    def is_center(self, vs: np.ndarray) -> np.ndarray:
        return Rng(self.seed).words_at(vs) % WORD(self.k) == 0


# ---------------------------------------------------------------------------
# Connectivity

@dataclass
class ConnectivityOracle:
    decomposition: ImplicitDecomposition
    center_label: dict[int, int]
    graph: GraphEdges


def _bfs_to_centers(g: GraphEdges, dec: ImplicitDecomposition, start: int,
                    visited: np.ndarray) -> list[np.ndarray]:
    """BFS from a center through the unvisited non-center region around it,
    one CSR gather per level; marks the region's vertices in ``visited`` and
    returns the centers it meets as per-level sorted arrays.  Centers are
    never marked, so every search still meets its neighboring centers."""
    frontier = np.array([start], dtype=np.int64)
    found: list[np.ndarray] = []
    while len(frontier):
        nbr = g.neighbor_vertices(frontier)
        cand = _distinct(nbr[~visited[nbr]])
        centers = dec.is_center(cand)
        found.append(cand[centers])
        frontier = cand[~centers]
        visited[frontier] = True
    return found


def _hook(lab: np.ndarray, ca: np.ndarray, cb: np.ndarray) -> None:
    """Hook-and-contract: join the classes at the two ends of every edge
    (ca[i], cb[i]).  Each round hooks every class root to its minimum
    neighboring root, then shortcuts, until every edge's ends share a label.
    ``lab`` holds each class member's root on entry and on exit (a root
    labels itself), and a root is its class's minimum member."""
    while True:
        la = lab[ca]
        lb = lab[cb]
        m = la != lb
        if not bool(m.any()):
            return
        np.minimum.at(lab, ix(la[m]), lb[m])
        np.minimum.at(lab, ix(lb[m]), la[m])
        while True:
            nxt = lab[ix(lab)]
            if bool(np.array_equal(nxt, lab)):
                break
            lab[:] = nxt


def build_connectivity(g: GraphEdges, epsilon: float, seed: int) -> ConnectivityOracle:
    """Center graph by one search per center over the non-center regions
    no earlier search walked, so every vertex is expanded at most once,
    then hook-and-contract labels."""
    dec = ImplicitDecomposition.sample(g, epsilon, seed)
    centers = ix(dec.center_ids)

    visited = alloc_bool(g.n)
    ea: list[np.ndarray] = []
    eb: list[np.ndarray] = []
    try:
        for i, c in enumerate(centers.tolist()):
            for f in _bfs_to_centers(g, dec, c, visited):
                ea.append(np.full(len(f), i, dtype=np.int64))
                eb.append(np.searchsorted(centers, f))
    finally:
        release(visited)

    nc = len(centers)
    lab = alloc(nc)
    lab[:] = np.arange(nc, dtype=WORD)
    if ea:
        _hook(lab, np.concatenate(ea), np.concatenate(eb))
    # labels are the minimum center vertex id of each center component
    label_map = {int(c): int(centers[int(lab[i])])
                 for i, c in enumerate(centers.tolist())}
    release(lab)
    return ConnectivityOracle(decomposition=dec, center_label=label_map, graph=g)


def query_connectivity(oracle: ConnectivityOracle, x: int) -> int:
    """Component label of x: a breadth-first search in queue order, one
    vertex at a time, that returns the label of the first center it meets;
    a centerless component labels as its minimum vertex id.  The build
    labels every center of a component alike, so the first center met
    answers as the minimum-id center at the minimum depth would.  The
    search holds a set and a queue of the ids it has seen, no per-vertex
    array."""
    g = oracle.graph
    if not 0 <= x < g.n:
        raise IndexError("vertex out of range")
    labels = oracle.center_label
    label = labels.get(x)
    if label is not None:
        return label
    # zero-copy views: off[v] is a Python int, and a slice's tolist() the
    # same ids as the array's, with no numpy scalar or view per vertex
    off, nbr = memoryview(g.adj_off), memoryview(g.adj_nbr)
    seen = {x}
    queue = [x]
    add, push = seen.add, queue.append
    for v in queue:
        for u in nbr[off[v]:off[v + 1]].tolist():
            if u not in seen:
                if u in labels:
                    return labels[u]
                add(u)
                push(u)
    return min(seen)


# ---------------------------------------------------------------------------
# Minimum spanning forest

@dataclass
class MsfOracle:
    decomposition: ImplicitDecomposition
    committed_eids: np.ndarray      # inter-center MSF edges, sorted
    graph: GraphEdges


def _min_edges(g: GraphEdges, lab: np.ndarray, live: np.ndarray,
               anchored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Boruvka step over the classes of ``lab``: drop from ``live`` the
    edges inside a class, then pick each class root's minimum outgoing edge
    by (weight, edge id), except for the roots in ``anchored``.  Returns
    the live edges left and the sorted distinct picks.  The minimum needs
    no sort: one ``np.minimum.at`` per edge side finds each root's lightest
    weight, and one per side its least edge id among the edges at that
    weight."""
    lu = ix(lab[ix(g.u)[live]])
    lv = ix(lab[ix(g.v)[live]])
    cross = lu != lv
    live = live[cross]
    lu = lu[cross]
    lv = lv[cross]
    w = g.w[live]
    least = np.full(g.n, M64, dtype=WORD)
    np.minimum.at(least, lu, w)
    np.minimum.at(least, lv, w)
    pick = np.full(g.n, g.m, dtype=np.int64)
    at = w == least[lu]
    np.minimum.at(pick, lu[at], live[at])
    at = w == least[lv]
    np.minimum.at(pick, lv[at], live[at])
    pick[ix(anchored)] = g.m
    return live, _distinct(pick[pick < g.m])


def _boruvka(g: GraphEdges, lab: np.ndarray, live: np.ndarray,
             centers: np.ndarray, picked: list[np.ndarray]) -> np.ndarray:
    """Boruvka rounds on ``lab`` until no class that holds none of
    ``centers`` has an outgoing edge in ``live``.  Each round's picks are
    appended to ``picked`` and joined by ``_hook``; the live edges left are
    returned.  A class that holds a center is anchored and does not pick;
    ``lab[centers]`` names the anchored roots afresh each round."""
    while True:
        live, picks = _min_edges(g, lab, live, lab[centers])
        if not len(picks):
            return live
        picked.append(picks)
        _hook(lab, ix(g.u)[picks], ix(g.v)[picks])


def _grow(g: GraphEdges, dec: ImplicitDecomposition, lab: np.ndarray,
          picked: list[np.ndarray]) -> np.ndarray:
    """Growth phase: Boruvka from single vertices in which only centerless
    fragments pick.  Every such fragment picks one edge and no anchored one
    picks, so each component of a round's picks holds at most one center;
    every final cluster holds exactly one center or is a whole centerless
    component.  Every pick is an MSF edge by the cut property."""
    return _boruvka(g, lab, np.arange(g.m), ix(dec.center_ids), picked)


def build_msf(g: GraphEdges, epsilon: float, seed: int) -> MsfOracle:
    """Boruvka in two phases on one charged n-word label array: the growth
    phase (``_grow``) forms the decomposition clusters, then every cluster
    picks its minimum outgoing edge each round, and only these inter-center
    picks are committed.  Distinct (weight, edge id) keys make each round's
    picks a forest."""
    dec = ImplicitDecomposition.sample(g, epsilon, seed)
    lab = alloc(g.n)
    lab[:] = np.arange(g.n, dtype=WORD)
    live = _grow(g, dec, lab, [])
    committed = [np.empty(0, dtype=np.int64)]
    _boruvka(g, lab, live, np.empty(0, dtype=np.int64), committed)
    release(lab)
    return MsfOracle(decomposition=dec,
                     committed_eids=np.sort(np.concatenate(committed)),
                     graph=g)


def msf_full_edge_set(oracle: MsfOracle) -> list[int]:
    """Materialize the whole forest: the growth phase's picks, rerun on an
    uncharged label array, plus the committed inter-center edges
    (verification helper)."""
    g = oracle.graph
    grown = [oracle.committed_eids]
    _grow(g, oracle.decomposition, np.arange(g.n, dtype=WORD), grown)
    return np.sort(np.concatenate(grown)).tolist()


def query_msf_edge(oracle: MsfOracle, e: int) -> bool:
    """Membership by the cycle property: e = (x, y) is in the unique MSF iff
    no path of strictly lighter effective weight connects x and y.

    Lighter-edge searches grow from x and from y at once, one level of the
    side with the smaller frontier at a time, and mark their vertices 1 and
    2 in one n-byte side array.  A lighter edge from one side to a vertex
    of the other is such a path; a side whose frontier runs out has
    reached its whole lighter component without meeting the other."""
    g = oracle.graph
    if not 0 <= e < g.m:
        raise IndexError("edge id out of range")
    we = g.w[e]
    x, y = int(g.u[e]), int(g.v[e])
    if x == y:
        return False
    side = alloc(g.n, dtype=np.uint8)
    try:
        side.fill(0)
        side[x], side[y] = 1, 2
        fronts = [x, y]
        sizes = [1, 1]
        while True:
            s = int(sizes[1] < sizes[0])
            nbr, eid = g.neighbors(fronts[s])
            w = g.w[eid]
            ends = nbr[(w < we) | ((w == we) & (eid < e))]
            mark = side[ends]
            if bool((mark == 2 - s).any()):     # side s marks s + 1
                return False
            ends = _distinct(ends[mark == 0])
            if not len(ends):
                return True
            side[ends] = s + 1
            fronts[s] = ends
            sizes[s] = len(ends)
    finally:
        release(side)
