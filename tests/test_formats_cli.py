from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pipal
from pipal import cli, formats, graph, relaxed
from pipal.cli import BenchConfig, generate_input, run_bench
from pipal.contraction import (
    BinaryTree,
    LinkedList,
    validate_binary_tree,
    validate_linked_list,
)
from pipal.ops import ALGOS, KINDS, NAMES, check_size, gen_tree
from pipal.runtime import NIL, POWER_ONLY_FRACTION, SCRATCH_WORDS, WORD, Rng


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


def _tree_ids(n, rng):
    ids = np.arange(n, dtype=WORD)
    if n > 1:
        relaxed.random_permutation(ids, relaxed.make_swap_sequence(n, rng))
    return ids


def _gen_tree_loop(n, rng):
    """gen_tree's random process run leaf by leaf: step s expands the leaf at
    position word(s) % (s + 1) of a swap-remove list into ids[2s + 1] and
    ids[2s + 2]."""
    ids = _tree_ids(n, rng)
    parent, left, right = (np.full(n, NIL, dtype=WORD) for _ in range(3))
    leaves = [int(ids[0])]
    pick_rng = rng.derive(0x7EE)
    for step in range(n // 2):
        pick = pick_rng.word(step) % len(leaves)
        node = leaves[pick]
        leaves[pick] = leaves[-1]
        leaves.pop()
        l, r = int(ids[2 * step + 1]), int(ids[2 * step + 2])
        left[node], right[node] = l, r
        parent[l] = parent[r] = node
        leaves.extend([l, r])
    return BinaryTree(parent, left, right)


@pytest.mark.parametrize("seed", [1, 2, 14, 99])
def test_gen_tree_matches_the_leaf_by_leaf_process(seed):
    for n in [*range(1, 402, 2), 1001, 4097, (1 << 16) + 1]:
        got, want = gen_tree(n, Rng(seed)), _gen_tree_loop(n, Rng(seed))
        for f in ("parent", "left", "right"):
            assert np.array_equal(getattr(got, f), getattr(want, f)), (n, f)


def test_gen_tree_shapes():
    one = gen_tree(1, Rng(3))
    assert [a.tolist() for a in (one.parent, one.left, one.right)] == [[int(NIL)]] * 3
    for seed in (1, 2, 3):
        ids = _tree_ids(3, Rng(seed)).tolist()
        three = gen_tree(3, Rng(seed))
        assert (int(three.left[ids[0]]), int(three.right[ids[0]])) == (ids[1], ids[2])
        assert three.parent[ids[1]] == three.parent[ids[2]] == ids[0]
    for n in (1, 3, 5, 7, 99, 2001):
        for seed in (1, 7):
            tree = gen_tree(n, Rng(seed))
            validate_binary_tree(tree)
            roots = np.flatnonzero(tree.parent == NIL).tolist()
            assert roots == [int(_tree_ids(n, Rng(seed))[0])]


def test_tree_size_limit_is_checked_before_any_allocation():
    check_size("tree", (1 << 33) - 1)
    with pytest.raises(ValueError, match="2\\^33"):
        generate_input("tree", (1 << 33) + 1, 1)


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


ROUND_ENTRIES = {"filter-relaxed", "partition-relaxed", "quicksort-relaxed", "rp",
                 "list-contract", "list-rank", "tree-contract", "rp-fullres"}


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_every_algorithm_runs_and_verifies(algo):
    entry = ALGOS[algo]
    # ints span two sort leaves, so the relaxed sorts partition in rounds
    n = {"tree": 1001, "graph": 200}.get(entry.kind, 2 * SCRATCH_WORDS)
    data = generate_input(entry.kind, n, seed=4)
    cfg = BenchConfig(algo=algo, n=KINDS[entry.kind].size(data), verify=True,
                      seed=4)
    rows = run_bench(cfg, data)
    assert rows[0]["verified"] == "true", algo
    peak, b = rows[0]["peak_heap_words"], cfg.budget().prefix_words(cfg.n)
    if entry.contract == "strong":
        assert peak == 0, algo
    if entry.contract == "relaxed":
        assert peak <= 8 * b, algo  # README's acceptance gate
    if entry.contract == "comparator":
        assert peak > 8 * b, algo  # the space contrast it exists to show
    if algo in ROUND_ENTRIES:
        assert rows[0]["rounds"] > 0, algo
    else:
        assert rows[0]["rounds"] == 0, algo


def test_nonip_scan_charges_linear_space():
    data = generate_input("ints", 4096, seed=2)
    cfg = BenchConfig(algo="nonip-scan", n=4096, verify=True)
    rows = run_bench(cfg, data)
    assert rows[0]["peak_heap_words"] >= 4096


def test_quicksort_relaxed_rounds_readout_holds_no_per_round_state(
        monkeypatch, traced_peak):
    # the entry's prepare, body and rounds readout as run_bench runs them,
    # with the body traced: at 2^18 with the power-only budget (b = 513)
    # the sort runs hundreds of partitions and thousands of rounds, and the
    # readout may not keep anything per round or per partition
    n = 1 << 18
    algo = ALGOS["quicksort-relaxed"]
    peaks = []

    def traced_body(*args):
        peak, result = traced_peak(lambda: algo.body(*args))
        peaks.append(peak)
        return result

    monkeypatch.setitem(NAMES, "quicksort-relaxed",
                        dataclasses.replace(algo, body=traced_body))
    cfg = BenchConfig(algo="quicksort-relaxed", n=n, verify=True,
                      prefix_fraction=POWER_ONLY_FRACTION)
    rows = run_bench(cfg, generate_input("ints", n, seed=1))
    assert rows[0]["verified"] == "true"
    assert rows[0]["rounds"] > 1000
    assert peaks[0] < 48 * 1024, peaks[0]


def test_tree_contract_body_does_not_copy_the_values(traced_peak):
    # the values are fresh for each rep, so the timed body folds them in
    # place; a copy alone would take 8n bytes
    n = (1 << 16) + 1
    data = generate_input("tree", n, seed=3)
    algo = ALGOS["tree-contract"]
    args = algo.prepare(data, BenchConfig(algo="tree-contract", n=n, seed=3))
    peak, result = traced_peak(lambda: algo.body(*args))
    assert algo.check(data, args, result)
    assert peak < 8 * n, peak


@pytest.mark.parametrize("corrupt", ["prev-after", "next-before", "self",
                                     "other-chain", "out-of-range"])
def test_list_contract_check_rejects_a_corrupted_context(corrupt):
    # a run that commits every element still fails if one saved (prev,
    # next) pair does not bracket its element in the input's chain
    n = 20_000
    data = generate_input("list", n, seed=3)
    algo = ALGOS["list-contract"]
    args = algo.prepare(data, BenchConfig(algo="list-contract", n=n, seed=3))
    stats = algo.body(*args)
    assert algo.check(data, args, stats)
    h, g = np.flatnonzero(data.prev == NIL)[:2].tolist()
    v = int(data.next[h])  # second in h's chain
    far = int(data.next[int(data.next[g])])  # third in g's chain
    slot, value = {"prev-after": ("prev", data.next[v]),
                   "next-before": ("next", h), "self": ("prev", v),
                   "other-chain": ("next", far),
                   "out-of-range": ("next", n)}[corrupt]
    getattr(args[0], slot)[v] = value
    assert not algo.check(data, args, stats)


def test_msf_check_asks_the_edge_query(monkeypatch):
    # the forest is right, so only the sampled edge queries can fail the
    # check: one wrong answer, on edge 0, must
    n = 3000
    data = generate_input("graph", n, seed=3)
    algo = ALGOS["msf"]
    args = algo.prepare(data, BenchConfig(algo="msf", n=n, seed=3))
    oracle = algo.body(*args)
    assert algo.check(data, args, oracle)
    query = graph.query_msf_edge
    monkeypatch.setattr(graph, "query_msf_edge",
                        lambda o, e: query(o, e) != (e == 0))
    assert not algo.check(data, args, oracle)


def test_readme_lists_the_algorithm_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    constants = re.findall(r"^\| ([a-z-]+) +\| [0-9.]+ +\|$", readme, re.M)
    assert sorted(constants) == sorted(
        name for name, algo in ALGOS.items() if algo.contract == "relaxed")
    listed = readme.split("\nAlgorithms: ", 1)[1].split("\n\n", 1)[0]
    names, alias = re.match(r"`([^`]*)` \(plus `([^`]*)`", listed).groups()
    assert sorted(names.split() + [alias]) == sorted(NAMES)


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


def test_cli_rp_has_one_variant(tmp_path):
    inp = tmp_path / "h.u64"
    assert cli.main(["gen", "--kind", "perm", "--n", "200", "--seed", "3",
                     "--out", str(inp)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algo", "rp", "--variant", "final", "--input", str(inp)])
    assert exc.value.code == 1
    for alias in ("rp-naive", "rp-flat", "rp-oneres"):
        assert cli.main(["run", "--algo", alias, "--input", str(inp)]) == 1


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
    assert rows[0]["algo"] == "rp-final"
    peaks = [r["peak_heap_words"] for r in rows]
    assert peaks == sorted(peaks, reverse=True)  # nonincreasing in epsilon


_OUT_OF_RANGE = {
    "gen-graph-n": ["gen", "--kind", "graph", "--n", "-2"],
    "gen-ints-n": ["gen", "--kind", "ints", "--n", "-4"],
    "gen-tree-too-large": ["gen", "--kind", "tree", "--n", str((1 << 33) + 1)],
    "sweep-n": ["sweep", "--algo", "rp", "--n", "-3"],
    "sweep-later-n": ["sweep", "--algo", "rp", "--n", "100", "-3"],
    "sweep-later-even-tree": ["sweep", "--algo", "tree-contract", "--n", "101", "100"],
    "sweep-tree-too-large": ["sweep", "--algo", "tree-contract", "--n",
                             str((1 << 33) + 1)],
    "sweep-threads": ["sweep", "--algo", "rp", "--n", "16", "--threads", "0"],
    "sweep-epsilon": ["sweep", "--algo", "rp", "--n", "16", "--epsilon", "1.5"],
    "sweep-prefix-frac": ["sweep", "--algo", "rp", "--n", "16",
                          "--prefix-frac", "0"],
    "run-threads": ["run", "--algo", "scan", "--threads", "0"],
    "run-epsilon": ["run", "--algo", "scan", "--epsilon", "1.5"],
    "run-prefix-frac": ["run", "--algo", "scan", "--prefix-frac", "0"],
    "run-reps": ["run", "--algo", "scan", "--reps", "0"],
}


@pytest.mark.parametrize("argv", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE)
def test_cli_out_of_range_number_is_one_line_usage_error(tmp_path, argv):
    inp = tmp_path / "a.u64"
    formats.write_ints(inp, generate_input("ints", 16, 1))
    out = tmp_path / "out"
    _assert_one_line_usage_error(
        argv + {"gen": ["--out", str(out)], "sweep": ["--csv", str(out)],
                "run": ["--input", str(inp), "--csv", str(out)]}[argv[0]], out)


def _assert_one_line_usage_error(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().strip().splitlines()
    assert code == 1, err.getvalue()
    assert len(lines) == 1 and lines[0].startswith(f"pipal {argv[0]}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "ints", "--n", "1099511627776"],
    ["sweep", "--algo", "scan", "--n", "1099511627776"],
], ids=["gen", "sweep"])
def test_cli_input_too_large_for_memory_is_one_line_usage_error(
        tmp_path, monkeypatch, argv):
    def no_memory(kind, n, seed):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_input", no_memory)
    out = tmp_path / "out"
    _assert_one_line_usage_error(
        argv + {"gen": ["--out", str(out)], "sweep": ["--csv", str(out)]}[argv[0]], out)


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
    if case == "next-out-of-range":
        formats.write_list(path, LinkedList(np.array([7, nil], dtype=WORD),
                                            np.array([nil, 0], dtype=WORD)))
        return "list-rank"
    path.write_bytes(formats.MAGIC["graph"] + struct.pack("<2Q", 1 << 40, 0))
    return "connectivity"


@pytest.mark.parametrize("case", ["truncated-header", "huge-count", "cyclic-list",
                                  "next-out-of-range", "huge-vertex-count"])
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


_FUZZ_ALGOS = {"ints": ["rp", "scan"], "list": ["list-rank", "list-contract"],
               "tree": ["tree-contract"], "graph": ["connectivity", "msf"]}
_WRITERS = {"ints": formats.write_ints, "list": formats.write_list,
            "tree": formats.write_tree, "graph": formats.write_graph}


@st.composite
def _mutated_input(draw):
    """A valid small input file of one of the four formats, then flipped,
    truncated or extended a few times."""
    kind = draw(st.sampled_from(sorted(_WRITERS)))
    n = draw(st.integers(1, 64))
    data = generate_input("perm" if kind == "ints" else kind,
                          (n - 1) | 1 if kind == "tree" else n,
                          seed=draw(st.integers(1, 4)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.bin"
        _WRITERS[kind](path, data)
        raw = bytearray(path.read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "extend"]))
        if op == "flip" and raw:
            # past the magic when there is a body: truncation covers the
            # magic, and flips there only ever read as an unknown kind
            pos = draw(st.integers(8 if len(raw) > 8 else 0, len(raw) - 1))
            raw[pos] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del raw[draw(st.integers(0, len(raw))):]
        else:
            raw += draw(st.binary(min_size=1, max_size=32))
    return draw(st.sampled_from(_FUZZ_ALGOS[kind])), bytes(raw)


@given(_mutated_input())
@example(("list-rank", formats.MAGIC["list"] + struct.pack("<Q", 0)))  # empty list
@settings(max_examples=120, deadline=None)
def test_cli_mutated_input_fails_with_one_line(case):
    algo, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.bin"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--algo", algo, "--input", str(path),
                             "--verify"])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
