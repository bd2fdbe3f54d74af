from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pipal
from pipal import cli, formats
from pipal.cli import ALGORITHMS, BenchConfig, generate_input, run_bench
from pipal.contraction import LinkedList, validate_binary_tree, validate_linked_list
from pipal.runtime import NIL, WORD


def test_ints_file_roundtrip_and_size(tmp_path):
    path = tmp_path / "x.u64"
    data = np.array([1, 2, 3, 4], dtype=np.uint64)
    formats.write_ints(path, data)
    assert path.stat().st_size == 8 + 8 + 32  # magic + count + 4 words
    assert np.array_equal(formats.read_ints(path), data)


def test_list_file_single_node(tmp_path):
    path = tmp_path / "one.lst"
    lst = generate_input("list", 1, seed=3)
    assert lst.next[0] == WORD(NIL)
    formats.write_list(path, lst)
    back = formats.read_list(path)
    assert back.next.tolist() == lst.next.tolist()
    assert back.prev.tolist() == lst.prev.tolist()


def test_graph_file_roundtrip_endpoints_in_range(tmp_path):
    path = tmp_path / "g.grp"
    g = generate_input("graph", 100, seed=5)
    assert g.m == 500
    formats.write_graph(path, g)
    back = formats.read_graph(path)
    assert back.n == 100 and back.m == 500
    assert int(back.u.max()) < 100 and int(back.v.max()) < 100
    assert np.array_equal(back.w, g.w)


def test_generated_inputs_validate():
    validate_linked_list(generate_input("list", 2000, seed=9))
    validate_binary_tree(generate_input("tree", 2001, seed=9))
    h = generate_input("perm", 500, seed=2)
    assert bool(np.all(h <= np.arange(500, dtype=np.uint64)))


def test_gen_is_deterministic_per_seed():
    a = generate_input("ints", 100, seed=7)
    b = generate_input("ints", 100, seed=7)
    c = generate_input("ints", 100, seed=8)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_tree_gen_rejects_even_sizes():
    with pytest.raises(ValueError):
        generate_input("tree", 10, seed=1)


def test_csv_schema_and_checker(tmp_path):
    path = tmp_path / "r.csv"
    rows = [{
        "algo": "scan", "n": 10, "epsilon": 0.5, "threads": 1, "seed": 1,
        "rep": 0, "time_ms": 1.25, "peak_heap_words": 0, "rounds": 0,
        "verified": "true",
    }]
    formats.append_report_rows(path, rows)
    formats.append_report_rows(path, rows)  # append-only, header once
    parsed = formats.check_report_csv(path)
    assert len(parsed) == 2 and parsed[0]["algo"] == "scan"
    with open(path) as f:
        assert f.readline().strip() == ",".join(formats.CSV_COLUMNS)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_algorithm_runs_and_verifies(algo):
    kind = cli.ALGO_KIND[algo]
    n = 1001 if kind == "tree" else (200 if kind == "graph" else 3000)
    data = generate_input(kind, n, seed=4)
    cfg = BenchConfig(algo=algo, n=cli.input_size(kind, data), verify=True,
                      seed=4)
    rows = run_bench(cfg, data)
    assert rows[0]["verified"] == "true", algo
    if algo in ("scan", "scan-blocked", "reduce", "rotate", "filter",
                "partition", "quicksort", "merge", "mergesort",
                "set-union", "set-intersect", "set-difference"):
        assert rows[0]["peak_heap_words"] == 0, algo


def test_nonip_scan_charges_linear_space():
    data = generate_input("ints", 4096, seed=2)
    cfg = BenchConfig(algo="nonip-scan", n=4096, verify=True)
    rows = run_bench(cfg, data)
    assert rows[0]["peak_heap_words"] >= 4096


def test_cli_end_to_end(tmp_path):
    inp = tmp_path / "a.u64"
    csvp = tmp_path / "out.csv"
    assert cli.main(["gen", "--kind", "ints", "--n", "4096", "--seed", "1",
                     "--out", str(inp)]) == 0
    assert cli.main(["run", "--algo", "scan", "--input", str(inp),
                     "--verify", "--csv", str(csvp)]) == 0
    rows = formats.check_report_csv(csvp)
    assert rows[0]["verified"] == "true"
    assert rows[0]["peak_heap_words"] == 0


def test_cli_rp_variant_alias(tmp_path):
    inp = tmp_path / "h.u64"
    assert cli.main(["gen", "--kind", "perm", "--n", "2000", "--seed", "3",
                     "--out", str(inp)]) == 0
    assert cli.main(["run", "--algo", "rp-final", "--input", str(inp),
                     "--verify"]) == 0


def test_cli_kind_mismatch_is_usage_error(tmp_path):
    inp = tmp_path / "a.u64"
    cli.main(["gen", "--kind", "ints", "--n", "16", "--seed", "1",
              "--out", str(inp)])
    assert cli.main(["run", "--algo", "tree-contract", "--input", str(inp)]) == 1


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli.main(["run", "--algo", "scan",
                     "--input", str(tmp_path / "nope.u64")]) == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algo"])
    assert exc.value.code == 1


def test_cli_sweep_rows(tmp_path):
    csvp = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--algo", "rp", "--n", "2000", "--epsilon",
                     "0.3", "0.5", "0.7", "--threads", "1", "--seed", "5",
                     "--verify", "--csv", str(csvp),
                     "--prefix-frac", "1e-12"]) == 0
    rows = formats.check_report_csv(csvp)
    assert len(rows) == 3
    peaks = [r["peak_heap_words"] for r in rows]
    assert peaks == sorted(peaks, reverse=True)  # nonincreasing in epsilon


def _malformed_input(path, case):
    nil = int(NIL)
    if case == "truncated-header":
        path.write_bytes(formats.MAGIC["ints"] + b"\x05\x00\x00")
        return "scan"
    if case == "huge-count":
        path.write_bytes(formats.MAGIC["ints"] + struct.pack("<3Q", 1 << 60, 1, 2))
        return "scan"
    if case == "cyclic-list":
        formats.write_list(path, LinkedList(np.array([1, 2, 0], dtype=WORD),
                                            np.array([2, 0, 1], dtype=WORD)))
        return "list-rank"
    formats.write_list(path, LinkedList(np.array([7, nil], dtype=WORD),
                                        np.array([nil, 0], dtype=WORD)))
    return "list-rank"


@pytest.mark.parametrize("case", ["truncated-header", "huge-count", "cyclic-list",
                                  "next-out-of-range"])
def test_cli_malformed_input_is_one_line_usage_error(tmp_path, case):
    path = tmp_path / "bad.bin"
    algo = _malformed_input(path, case)
    src = str(Path(pipal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pipal.cli", "run", "--algo", algo, "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
