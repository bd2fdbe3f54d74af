"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import manifest
import workloads
from pipal import strong
from pipal.runtime import WORD

SECONDS = 1e-3  # shorter than one pass: every worker makes exactly one timed pass
EXACT_COUNTS = (
    "relaxed.random_permutation.rounds",
    "contraction.list_contract.rounds",
    "contraction.list_rank.rounds",
    "contraction.tree_contract.rounds",
    "contraction.list_contract.rounds_over_log2n",
    "contraction.list_rank.rounds_over_log2n",
    "contraction.tree_contract.rounds_over_log2n",
    "detres.run_rounds.rounds",
    "detres.commit_ratio",
    "relaxed.decompose_driver.rounds",
    "relaxed.quicksort_relaxed.partition_calls",
    "graph.GraphEdges.neighbors.build_calls",
    "graph.GraphEdges.neighbors.query_calls",
    "graph.centers",
)


def tiny_run(workload: str, trace: int, seed: int = 3) -> dict:
    return harness.run(workload, seed, SECONDS, trace, sizes=workloads.TINY[workload])


@pytest.fixture
def in_process(monkeypatch):
    """Run the workers in this process, so that the faults a test patches
    into pipal reach them."""
    monkeypatch.setattr(harness, "launch",
                        lambda worker, *args: worker(time.monotonic(), *args))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", manifest.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    spec = manifest.units("end_to_end" if trace == 0 else "per_layer")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == spec
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", manifest.WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    first = tiny_run(workload, 1)["metrics"]
    second = tiny_run(workload, 1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] for name in EXACT_COUNTS)


def test_corrupted_output_is_counted_as_failed(monkeypatch, in_process):
    scan = strong.scan

    def corrupting_scan(a, *args, **kwargs):
        res = scan(a, *args, **kwargs)
        a[len(a) // 2] ^= WORD(1)
        return res

    monkeypatch.setattr(strong, "scan", corrupting_scan)
    result = tiny_run("arrays", 0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_raising_op_is_counted_and_the_workload_continues(monkeypatch, in_process):
    clean = tiny_run("arrays", 0)

    def broken_reduce(a, *args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(strong, "reduce", broken_reduce)
    result = tiny_run("arrays", 0)
    assert result["attempted"] == clean["attempted"]
    # one call per timed worker; the warm-up calls are counted apart
    assert result["failed"] == harness.WORKERS
    assert not result["correct"]
    assert result["metrics"]["body_over_ref"]["value"] > 0


def test_set_up_failure_makes_the_run_incorrect(monkeypatch, in_process):
    write, read, names = workloads._FORMATS[np.ndarray]

    def corrupting_read(path):
        a = read(path)
        a[0] ^= WORD(1)
        return a

    monkeypatch.setitem(workloads._FORMATS, np.ndarray, (write, corrupting_read, names))
    result = tiny_run("arrays", 0)
    assert not result["correct"]
    assert result["failed"] == 0  # the ops themselves ran on the read-back input


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(manifest.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(manifest.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arrays", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
