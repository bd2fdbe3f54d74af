"""Run one workload in fresh worker processes: set-up, timed passes,
memory pass and traced pass.

Load model: a closed loop with one caller, one operation at a time, and
the fork-join pool pinned to one thread.  Each operation body is timed
inside a ``SpaceMeter`` scope after a ``gc.collect()`` (once per batch of
consecutive graph queries); gc stays enabled.  Outputs are checked against
``pipal.baselines`` after the timer stops.  An operation that raises or
answers wrongly counts as failed and the workload continues.

Every measurement runs in an interpreter started for it (a worker), and
the parent process only combines what the workers return.  Within one
process the op times were steady to about 1% over a minute, but differed
by up to 15% between processes started one after another, so one process
per run would be a single draw of that spread.

``--trace 0`` reports the end-to-end metrics from ``WORKERS`` timed
workers, each of which sets up and runs timed passes for its share of the
run's seconds.  The timed passes also run the :mod:`reference` kernel
before the ops, and ``body_over_ref`` divides each op's time by the kernel
time of its pass.  On a shared 2-vCPU Xeon host, over ten seeds, the
bodies' wall time (printed as ``body_s``) spread 11-38% of its median
between runs (IQR), its ratio to the kernel 3-9%.

``--trace 1`` reports the per-layer metrics from one worker: untraced
passes alternating with passes that have :mod:`spans` installed (so the
tracing overhead is measured under the same drift), a memory pass over
every operation under ``tracemalloc``, and the non-in-place comparators,
whose times never enter ``body_over_ref``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import manifest
import spans
import workloads
from reference import QUERY_STRIDE, Reference
from pipal import runtime
from pipal.runtime import SpaceMeter, metered

THREADS = 1
WORKERS = 4  # timed worker processes per --trace 0 run
COMPARATOR_REPS = 3
TIMED_KINDS = ("strong", "relaxed", "build", "query")
BUDGETED_KINDS = ("relaxed", "build")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reported: set = field(default_factory=set)

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if name not in self.reported:  # one message per operation name
            self.reported.add(name)
            print(f"perfbench: {name} failed: {why}", file=sys.stderr)


@dataclass
class Sample:
    """One run of an operation, as plain data: it holds no reference to the
    op's inputs and pickles back from a worker."""
    name: str
    kind: str
    n: int
    budget: int
    seconds: float
    charged_words: int
    traced_bytes: int
    check_seconds: float
    ref_seconds: float  # the reference kernel run just before, or 0


def run_op(op: workloads.Op, ctx: dict, tally: Tally, collect: bool = True,
           trace_memory: bool = False, reference: Reference | None = None) -> Sample:
    tally.attempted += 1
    meter = SpaceMeter()
    elapsed = checked = ref = 0.0
    traced = 0
    try:
        arg = op.prepare(ctx)
        if reference is not None:
            ref = reference()
        if collect:
            gc.collect()
        if trace_memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = perf_counter()
        try:
            with metered(meter):
                result = op.body(arg)
        finally:
            elapsed = perf_counter() - t0
            if trace_memory:
                traced = tracemalloc.get_traced_memory()[1] - base
        ctx[op.name] = result
        t1 = perf_counter()
        ok = op.check is None or bool(op.check(arg, result, ctx))
        checked = perf_counter() - t1
        if not ok:
            tally.fail(op.name, "wrong answer")
    except Exception as exc:  # a failing operation must not stop the workload
        tally.fail(op.name, repr(exc))
    return Sample(op.name, op.kind, op.n, op.budget, elapsed, meter.peak_words,
                  traced, checked, ref)


def run_pass(ops: list, tally: Tally, kinds=TIMED_KINDS, trace_memory: bool = False,
             reference: Reference | None = None) -> list[Sample]:
    """One pass over ``ops``.  With a ``reference``, the kernel runs before
    every op but a graph query, and before every QUERY_STRIDE-th query of
    a run of them."""
    ctx: dict = {}
    samples = []
    queries = 0  # graph queries since the last other op
    for op in ops:
        if op.kind not in kinds:
            continue
        if op.kind == "query":  # one gc.collect() per run of queries
            collect, probe = queries == 0, queries % QUERY_STRIDE == 0
            queries += 1
        else:
            collect, probe, queries = True, True, 0
        samples.append(run_op(op, ctx, tally, collect, trace_memory,
                              reference if probe else None))
    return samples


def timed_passes(ops: list, tally: Tally, seconds: float) -> list[list[Sample]]:
    """Whole passes, with the reference kernel, until ``seconds`` have gone
    by; at least one."""
    reference = Reference()
    passes = []
    end = perf_counter() + seconds
    while not passes or perf_counter() < end:
        passes.append(run_pass(ops, tally, reference=reference))
    return passes


def memory_pass(ops: list, tally: Tally, kinds) -> list[Sample]:
    tracemalloc.start()
    try:
        return run_pass(ops, tally, kinds, trace_memory=True)
    finally:
        tracemalloc.stop()


def set_up(workload: str, seed: int, sizes: dict, tally: Tally,
           workdir: Path) -> tuple[list, float, float]:
    """Inputs, formats round trip and a tiny-n warm-up of every op.

    ``tally`` counts the round-trip checks and warm-up ops, apart from the
    measured passes.  Returns (ops, formats write seconds, formats read
    seconds).
    """
    inputs = workloads.make_inputs(workload, seed, sizes)
    inputs, write_s, read_s, changed = workloads.round_trip(inputs, workdir)
    tally.attempted += len(inputs)
    for key in changed:
        tally.fail(f"formats.{key}", "round trip changed the input")
    tiny = workloads.make_inputs(workload, seed, workloads.TINY[workload])
    run_pass(workloads.make_ops(workload, tiny, seed), tally,
             TIMED_KINDS + ("comparator",))
    return workloads.make_ops(workload, inputs, seed), write_s, read_s


# ---------------------------------------------------------------------------
# Metrics

def _ratio_max(samples: list[Sample], value) -> float:
    return max((value(s) / s.budget for s in samples
                if s.kind in BUDGETED_KINDS and s.budget), default=0.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median_body_s(passes: list[list[Sample]]) -> float:
    """Sum over the pass's operations of each one's median across passes,
    so a burst of host noise in one pass moves only the ops it hit."""
    return sum(statistics.median(column) for column in
               zip(*([s.seconds for s in p] for p in passes)))


def body_over_ref(passes: list[list[Sample]]) -> float:
    """As :func:`median_body_s`, with each op's time divided by the
    reference kernel time of its pass, so host speed drift cancels."""
    return sum(statistics.median(column) for column in zip(*(
        [s.seconds / sum(x.ref_seconds for x in p) for s in p] for p in passes)))


def end_to_end(timed: list[dict]) -> dict[str, float]:
    """Metrics from the timed workers' reports."""
    passes = [p for report in timed for p in report["passes"]]
    values = {
        "body_over_ref": body_over_ref(passes),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "charged_over_b_max": _ratio_max(passes[0], lambda s: s.charged_words),
    }
    return {name: values[name] for name in manifest.units("end_to_end")}


def per_layer(plain, traced, snaps, memory, comparators,
              setup: dict) -> dict[str, float]:
    keys = set().union(*snaps)
    flat = {k: statistics.median(s.get(k, 0.0) for s in snaps) for k in keys}

    times = defaultdict(list)
    for p in plain + comparators:
        for s in p:
            times[s.name].append(s.seconds)
    op_s = {name: statistics.median(ts) for name, ts in times.items()}
    sizes = {s.name: s.n for s in plain[0]}
    mem = {s.name: s for s in memory}

    def pct(name: str, q: float) -> float:
        ts = times.get(name)
        return float(np.percentile(ts, q)) * 1e6 if ts else 0.0

    def ratio(num: str, den: str) -> float:
        return op_s[num] / op_s[den] if num in op_s and op_s.get(den) else 0.0

    out = {
        "strong.charged_words": sum(s.charged_words for s in plain[0]
                                    if s.kind == "strong"),
        "strong.traced_kb_max": max((s.traced_bytes for s in memory
                                     if s.kind == "strong"), default=0) / 1024,
        "memory.traced_over_b_max": _ratio_max(memory, lambda s: s.traced_bytes / 8),
        "detres.commit_ratio": (flat["detres.committed"] / flat["detres.active"]
                                if flat.get("detres.active") else 0.0),
        "graph.query_connectivity.us_p50": pct("graph.query_connectivity", 50),
        "graph.query_connectivity.us_p99": pct("graph.query_connectivity", 99),
        "graph.query_msf_edge.us_p50": pct("graph.query_msf_edge", 50),
        "graph.query_msf_edge.us_p95": pct("graph.query_msf_edge", 95),
        "formats.read.s": setup["read_s"],
        "formats.write.s": setup["write_s"],
        # the first pass's checks include computing the references
        "baselines.verify_s": sum(s.check_seconds for s in plain[0]),
        "baselines.ratio.scan_over_nonip": ratio("strong.scan", "baselines.nonip_scan"),
        "baselines.ratio.filter_over_nonip": ratio("strong.filter_kway",
                                                   "baselines.nonip_filter"),
        "baselines.ratio.rp_final_over_fullres": ratio("relaxed.random_permutation",
                                                       "baselines.fullres_shuffle"),
        "trace.overhead_frac": (median_body_s(traced) / median_body_s(plain) - 1),
    }
    for name in ("baselines.nonip_scan", "baselines.nonip_filter",
                 "baselines.fullres_shuffle"):
        out[f"{name}.s"] = op_s.get(name, 0.0)
    for name in ("relaxed.random_permutation", "contraction.list_rank"):
        if name in mem:
            out[f"{name}.charged_kb"] = mem[name].charged_words * 8 / 1024
            out[f"{name}.traced_kb"] = mem[name].traced_bytes / 1024
    for op in spans.CONTRACTION_OPS:
        name = f"contraction.{op}"
        if name in sizes:
            out[f"{name}.rounds_over_log2n"] = (flat.get(f"{name}.rounds", 0.0)
                                                / math.log2(sizes[name]))
    return {name: float(out.get(name, flat.get(name, 0.0)))
            for name in manifest.units("per_layer")}


# ---------------------------------------------------------------------------
# Workers

def launch(worker, *args) -> dict:
    """Run ``worker(started, *args)`` in a fresh interpreter (perfbench/
    worker.py), wait until it has ended and return its report.  ``started``
    is read from the monotonic clock, which all processes of the machine
    share, so the worker's set-up time includes starting the interpreter."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         worker.__name__, repr(started), json.dumps(args)],
        stdout=subprocess.PIPE, check=True)
    return pickle.loads(proc.stdout)


def _set_up_worker(started: float, workload: str, seed: int,
                   sizes: dict) -> tuple[list, dict]:
    runtime.set_num_threads(THREADS)
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=manifest.ROOT))
    try:
        ops, write_s, read_s = set_up(workload, seed, sizes, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ops, {
        "setup_s": time.monotonic() - started,
        "write_s": write_s,
        "read_s": read_s,
        # ru_maxrss never falls: read here, it is the set-up's own peak
        "setup_rss_mb": _peak_rss_mb(),
        "setup_attempted": tally.attempted,
        "setup_failed": tally.failed,
        "threads": runtime.num_threads(),
    }


def _finish(report: dict, tally: Tally) -> dict:
    report.update(attempted=tally.attempted, failed=tally.failed,
                  peak_rss_mb=_peak_rss_mb())
    return report


def timed_worker(started, workload, seed, sizes, seconds) -> dict:
    ops, report = _set_up_worker(started, workload, seed, sizes)
    tally = Tally()
    report["passes"] = timed_passes(ops, tally, seconds)
    return _finish(report, tally)


def traced_worker(started, workload, seed, sizes, seconds) -> dict:
    ops, report = _set_up_worker(started, workload, seed, sizes)
    tally = Tally()
    tracer = spans.Tracer()
    plain, traced, snaps = [], [], []
    end = perf_counter() + seconds
    while not traced or perf_counter() < end:
        plain.append(run_pass(ops, tally))
        tracer.reset()
        with spans.installed(tracer):
            traced.append(run_pass(ops, tally))
        snaps.append(tracer.snapshot())
    memory = memory_pass(ops, tally, ("strong",) + BUDGETED_KINDS)
    comparators = [run_pass(ops, tally, ("comparator",))
                   for _ in range(COMPARATOR_REPS)]
    report["values"] = per_layer(plain, traced, snaps, memory, comparators, report)
    return _finish(report, tally)


# ---------------------------------------------------------------------------
# Runs

def run(workload: str, seed: int, seconds: float, trace: int,
        sizes: dict | None = None) -> dict:
    """Run one workload, print its report and return the result object."""
    sizes = sizes or workloads.SIZES[workload]
    notes = []
    if trace:
        reports = [launch(traced_worker, workload, seed, sizes, seconds)]
        values = reports[0]["values"]
        units = manifest.units("per_layer")
    else:
        reports = [launch(timed_worker, workload, seed, sizes, seconds / WORKERS)
                   for _ in range(WORKERS)]
        values = end_to_end(reports)
        units = manifest.units("end_to_end")
        passes = [p for r in reports for p in r["passes"]]
        notes.append(f"body_s = {median_body_s(passes):.6g} s (wall time of the "
                     f"bodies over {len(passes)} passes; gated as body_over_ref)")
        notes.append("reference kernel = " + format(statistics.median(
            sum(s.ref_seconds for s in p) for p in passes), ".6g") + " s per pass")
    attempted, failed, setup_attempted, setup_failed = (
        sum(r[key] for r in reports)
        for key in ("attempted", "failed", "setup_attempted", "setup_failed"))
    result = {
        "correct": failed == 0 and setup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"env": environment(seed, reports[0]["threads"]),
                      "workload": workload, "sizes": sizes, "trace": trace,
                      "workers": len(reports)}))
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{workload} {note}")
    print(f"{workload} fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} measured operations)")
    print(f"{workload} set-up checks failed = {setup_failed} of "
          f"{setup_attempted} (round trips and warm-up ops)")
    print(f"{workload} peak_rss_mb at the end of set-up = "
          f"{statistics.median(r['setup_rss_mb'] for r in reports):.6g} MiB "
          "(median over workers)")
    print(json.dumps(result), flush=True)
    return result


def environment(seed: int, threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "threads": threads,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' in a
    checkout that is not a repository."""
    git = manifest.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
