"""Binary input files and the benchmark report CSV.

All integers are little-endian 64-bit words.  Each input file starts with
an 8-byte magic that pins the kind and version.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path

import numpy as np

from .contraction import BinaryTree, LinkedList
from .graph import GraphEdges
from .runtime import WORD

__all__ = [
    "MAGIC", "write_ints", "read_ints", "write_list", "read_list",
    "write_tree", "read_tree", "write_graph", "read_graph",
    "CSV_COLUMNS", "append_report_rows", "check_report_csv",
]

MAGIC = {
    "ints": b"PIPU64\x00\x01",
    "list": b"PIPLST\x00\x01",
    "tree": b"PIPTRE\x00\x01",
    "graph": b"PIPGRP\x00\x01",
}
_KIND_BY_MAGIC = {v: k for k, v in MAGIC.items()}

CSV_COLUMNS = ["algo", "n", "epsilon", "threads", "seed", "rep",
               "time_ms", "peak_heap_words", "rounds", "verified"]


def _write_arrays(path, magic: bytes, counts: list[int],
                  arrays: list[np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(magic)
        for c in counts:
            f.write(struct.pack("<Q", c))
        for arr in arrays:
            f.write(arr.astype("<u8", copy=False).tobytes())


def _read_header(f, path) -> str:
    magic = f.read(8)
    kind = _KIND_BY_MAGIC.get(magic)
    if kind is None:
        raise ValueError(f"{path}: unrecognized file magic")
    return kind


def _read_counts(f, path, k: int, words_per_count: int) -> tuple[int, ...]:
    """Read k header counts; the last one times words_per_count words must
    fit in the rest of the file, which is checked before anything is read."""
    raw = f.read(8 * k)
    if len(raw) != 8 * k:
        raise ValueError(f"{path}: truncated header")
    counts = struct.unpack(f"<{k}Q", raw)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if 8 * words_per_count * counts[-1] > left:
        raise ValueError(f"{path}: declared count {counts[-1]} does not fit the file")
    return counts


def _read_words(f, count: int, path) -> np.ndarray:
    raw = f.read(8 * count)
    if len(raw) != 8 * count:
        raise ValueError(f"{path}: truncated file")
    return np.frombuffer(raw, dtype="<u8").astype(WORD)


def write_ints(path, words: np.ndarray) -> None:
    _write_arrays(path, MAGIC["ints"], [len(words)], [words])


def read_ints(path) -> np.ndarray:
    with open(path, "rb") as f:
        if _read_header(f, path) != "ints":
            raise ValueError(f"{path}: not an integer file")
        (n,) = _read_counts(f, path, 1, 1)
        return _read_words(f, n, path)


def write_list(path, lst: LinkedList) -> None:
    _write_arrays(path, MAGIC["list"], [len(lst)], [lst.next, lst.prev])


def read_list(path) -> LinkedList:
    with open(path, "rb") as f:
        if _read_header(f, path) != "list":
            raise ValueError(f"{path}: not a list file")
        (n,) = _read_counts(f, path, 1, 2)
        return LinkedList(_read_words(f, n, path), _read_words(f, n, path))


def write_tree(path, tree: BinaryTree) -> None:
    _write_arrays(path, MAGIC["tree"], [len(tree)],
                  [tree.parent, tree.left, tree.right])


def read_tree(path) -> BinaryTree:
    with open(path, "rb") as f:
        if _read_header(f, path) != "tree":
            raise ValueError(f"{path}: not a tree file")
        (n,) = _read_counts(f, path, 1, 3)
        return BinaryTree(_read_words(f, n, path), _read_words(f, n, path),
                          _read_words(f, n, path))


def write_graph(path, g: GraphEdges) -> None:
    triples = np.empty(3 * g.m, dtype=WORD)
    triples[0::3] = g.u
    triples[1::3] = g.v
    triples[2::3] = g.w
    _write_arrays(path, MAGIC["graph"], [g.n, g.m], [triples])


def read_graph(path) -> GraphEdges:
    with open(path, "rb") as f:
        if _read_header(f, path) != "graph":
            raise ValueError(f"{path}: not a graph file")
        n, m = _read_counts(f, path, 2, 3)
        # a file with m edges holds 24 + 24m bytes, so this admits every
        # written graph and keeps the n + 1 offsets within 8x the file
        if n > os.fstat(f.fileno()).st_size:
            raise ValueError(f"{path}: vertex count {n} exceeds the file size")
        triples = _read_words(f, 3 * m, path)
        return GraphEdges(n, triples[0::3].copy(), triples[1::3].copy(),
                          triples[2::3].copy())


def append_report_rows(path, rows: list[dict]) -> None:
    """Append rows to the report CSV, writing the header on first use."""
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})


def check_report_csv(path) -> list[dict]:
    """The repo's report checker: schema-stable, fully parseable rows."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV columns {reader.fieldnames}")
        rows = []
        for row in reader:
            parsed = {
                "algo": row["algo"],
                "n": int(row["n"]),
                "epsilon": float(row["epsilon"]),
                "threads": int(row["threads"]),
                "seed": int(row["seed"]),
                "rep": int(row["rep"]),
                "time_ms": float(row["time_ms"]),
                "peak_heap_words": int(row["peak_heap_words"]),
                "rounds": int(row["rounds"]),
                "verified": row["verified"],
            }
            if parsed["verified"] not in ("true", "false", "skipped"):
                raise ValueError(f"{path}: bad verified flag {row['verified']!r}")
            rows.append(parsed)
        return rows
