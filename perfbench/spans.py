"""Span tracer for the benchmark's traced pass.

The tracer wraps pipal's public entry points from outside the library by
replacing module and class attributes, and restores them afterwards, so
no library source changes.  Functions that the library calls through a
module global (``strong.rotate``, ``relaxed.run_rounds``, ...) are patched
in every module that holds the name, so internal and recursive calls are
attributed too.

Each span records inclusive time (outermost call of a name only), self
time (inclusive minus the time of child spans) and a call count.  Free
counters (rounds, keys, allocated words, ...) are recorded at the same
boundaries.  Everything stays in memory; :meth:`Tracer.snapshot` flattens
it into ``<span>.s`` / ``<span>.self_s`` / ``<span>.calls`` and the
counter names.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from pipal import baselines, contraction, detres, graph, relaxed, runtime, strong

STRONG_OPS = ("scan", "scan_blocked", "reduce", "rotate", "filter_kway",
              "partition_unstable", "quicksort_strong", "merge_strong",
              "mergesort_strong", "set_union", "set_intersect", "set_difference")
RELAXED_OPS = ("random_permutation", "decompose_driver", "filter_relaxed",
               "partition_relaxed", "quicksort_relaxed", "merge_relaxed",
               "mergesort_relaxed")
CONTRACTION_OPS = ("list_contract", "list_rank", "tree_contract")
ROUND_CLIENTS = ("relaxed.random_permutation",) + tuple(
    f"contraction.{op}" for op in CONTRACTION_OPS)
GRAPH_BUILDS = ("graph.build_connectivity", "graph.build_msf")
GRAPH_QUERIES = ("graph.query_connectivity", "graph.query_msf_edge")
TABLE_METHODS = ("reserve_max", "lookup", "delete")


class Tracer:
    """In-memory span and counter store."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self._child: list[float] = []

    def reset(self) -> None:
        """Forget everything recorded; installed wrappers keep recording."""
        for store in (self.inclusive, self.self_time, self.calls, self.counts,
                      self.active, self._child):
            store.clear()

    def any_active(self, names) -> bool:
        return any(self.active[n] for n in names)

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` may return new
        arguments, ``after(result, args, kwargs)`` records counters."""
        tr = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            tr.active[name] += 1
            tr._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tr._child.pop()
                tr.active[name] -= 1
                tr.calls[name] += 1
                tr.self_time[name] += dt - child
                if not tr.active[name]:
                    tr.inclusive[name] += dt
                if tr._child:
                    tr._child[-1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Count calls of ``fn`` without a span (for very frequent calls)."""
        tr = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tr.calls[name] += 1
            if amount is not None:
                amount(result, args)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
        for name, t in self.inclusive.items():
            out[f"{name}.s"] = t
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        return out


class _Patcher:
    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


@contextmanager
def installed(tr: Tracer):
    """Patch pipal's entry points with ``tr``'s spans for the scope."""
    p = _Patcher()
    try:
        _install(tr, p)
        yield tr
    finally:
        p.restore()


def _install(tr: Tracer, p: _Patcher) -> None:
    counts = tr.counts

    # strong: every public op; relaxed holds its own merge_strong / rotate
    for op in STRONG_OPS:
        wrapped = tr.span(f"strong.{op}", getattr(strong, op))
        p.set(strong, op, wrapped)
        if op in ("merge_strong", "rotate"):
            p.set(relaxed, op, wrapped)
    p.set(strong, "fork_join", tr.counter("strong.fork_join", strong.fork_join))

    # detres: the engine with its phase callbacks, and the reservation table
    def note_active(args, kwargs):
        counts["detres.active"] += len(args[0].ids)
        return args, kwargs

    def engine_args(args, kwargs):
        args = list(args)
        for i, phase in ((2, "reserve"), (3, "commit"), (4, "clean")):
            args[i] = tr.span(f"detres.{phase}", args[i],
                              before=note_active if phase == "reserve" else None)
        source = kwargs.get("id_source")
        if source is not None:
            kwargs = dict(kwargs, id_source=tr.span("detres.source", source))
        return tuple(args), kwargs

    def engine_done(stats, args, kwargs):
        counts["detres.run_rounds.rounds"] += stats.rounds
        counts["detres.committed"] += stats.total_committed
        for client in ROUND_CLIENTS:
            if tr.active[client]:
                counts[f"{client}.rounds"] += stats.rounds

    engine = tr.span("detres.run_rounds", detres.run_rounds,
                     before=engine_args, after=engine_done)
    p.set(relaxed, "run_rounds", engine)
    p.set(contraction, "run_rounds", engine)
    source = detres.arange_source
    p.set(detres, "arange_source",
          lambda n: tr.span("detres.source", source(n)))

    table = detres.ReservationTable
    for method in TABLE_METHODS:
        name = f"detres.ReservationTable.{method}"

        def note_keys(args, kwargs, name=name):
            counts[f"{name}.keys"] += len(args[1])
            return args, kwargs

        p.set(table, method, tr.span(name, getattr(table, method), before=note_keys))
    table_release = table.release

    def release_table(self):
        counts["detres.peak_table_load"] = max(counts["detres.peak_table_load"],
                                               self.peak_load)
        table_release(self)

    p.set(table, "release", release_table)

    # relaxed
    def quicksort_partition(args, kwargs):
        if tr.active["relaxed.quicksort_relaxed"]:
            counts["relaxed.quicksort_relaxed.partition_calls"] += 1
        return args, kwargs

    def driver_done(stats, args, kwargs):
        counts["relaxed.decompose_driver.rounds"] += stats.rounds

    hooks = {"partition_relaxed": {"before": quicksort_partition},
             "decompose_driver": {"after": driver_done}}
    for op in RELAXED_OPS:
        p.set(relaxed, op, tr.span(f"relaxed.{op}", getattr(relaxed, op),
                                   **hooks.get(op, {})))

    # contraction
    for op in CONTRACTION_OPS:
        p.set(contraction, op, tr.span(f"contraction.{op}", getattr(contraction, op)))

    # graph: builds, queries, sampling, and the adjacency reads they make
    for name in GRAPH_BUILDS + GRAPH_QUERIES:
        op = name.split(".", 1)[1]
        p.set(graph, op, tr.span(name, getattr(graph, op)))

    def note_centers(dec, args, kwargs):
        counts["graph.centers"] = len(dec.center_ids)

    sample = inspect.getattr_static(graph.ImplicitDecomposition, "sample").__func__
    p.set(graph.ImplicitDecomposition, "sample", classmethod(
        tr.span("graph.ImplicitDecomposition.sample", sample, after=note_centers)))
    neighbors = graph.GraphEdges.neighbors

    def counted_neighbors(self, x):
        if tr.any_active(GRAPH_BUILDS):
            counts["graph.GraphEdges.neighbors.build_calls"] += 1
        elif tr.any_active(GRAPH_QUERIES):
            counts["graph.GraphEdges.neighbors.query_calls"] += 1
        return neighbors(self, x)

    p.set(graph.GraphEdges, "neighbors", counted_neighbors)

    # runtime: charged allocations, through every module's imported name
    # (runtime's own name also serves alloc_bool and aux)
    def alloc_words(arr, args):
        counts["runtime.alloc.words"] += (arr.nbytes + 7) // 8

    alloc = tr.counter("runtime.alloc", runtime.alloc, amount=alloc_words)
    for module in (runtime, detres, relaxed, contraction, graph, baselines):
        p.set(module, "alloc", alloc)
