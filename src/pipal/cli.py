"""Benchmark and verification harness.

Subcommands: ``gen`` writes deterministic inputs, ``run`` executes one
algorithm with metering and optional oracle verification, ``sweep`` crosses
parameter lists through ``run``.  Results append to a CSV with the fixed
column set; any verification failure exits with status 3.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import formats, graph, relaxed, strong
from .contraction import (
    BinaryTree,
    LinkedList,
    list_contract,
    list_rank,
    make_priorities,
    tree_contract,
    validate_binary_tree,
    validate_linked_list,
)
from .runtime import (
    NIL,
    WORD,
    EpsilonConfig,
    Rng,
    SpaceMeter,
    meter_scope,
    release,
    set_num_threads,
)

EVEN = lambda b: (b & WORD(1)) == 0


@dataclass
class BenchConfig:
    algo: str
    n: int
    epsilon: float = 0.5
    prefix_fraction: float = 0.02
    threads: int = 1
    seed: int = 1
    reps: int = 1
    verify: bool = False

    def budget(self) -> EpsilonConfig:
        return EpsilonConfig(self.epsilon, self.prefix_fraction)


# ---------------------------------------------------------------------------
# Input generation

def gen_ints(n: int, rng: Rng) -> np.ndarray:
    return rng.words(0, n)


def gen_perm(n: int, rng: Rng) -> np.ndarray:
    return relaxed.make_swap_sequence(n, rng)


def gen_list(n: int, rng: Rng) -> LinkedList:
    order = np.arange(n, dtype=WORD)
    if n > 1:
        relaxed.random_permutation(order, relaxed.make_swap_sequence(n, rng))
    nxt = np.full(n, NIL, dtype=WORD)
    prv = np.full(n, NIL, dtype=WORD)
    if n > 1:
        # break the permutation order into chains (roughly one per thousand)
        breaks = rng.derive(0xC4A15).words(0, n - 1) % WORD(1000) == 0
        src = order[:-1][~breaks]
        dst = order[1:][~breaks]
        nxt[src] = dst
        prv[dst] = src
    return LinkedList(nxt, prv)


def _check_size(kind: str, n: int) -> None:
    """Raise ``ValueError`` when no ``kind`` input has ``n`` elements."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind == "tree" and n % 2 == 0:
        raise ValueError("tree inputs need an odd node count "
                         "(internal nodes have exactly two children)")


def gen_tree(n: int, rng: Rng) -> BinaryTree:
    _check_size("tree", n)
    ids = np.arange(n, dtype=WORD)
    if n > 1:
        relaxed.random_permutation(ids, relaxed.make_swap_sequence(n, rng))
    parent = np.full(n, NIL, dtype=WORD)
    left = np.full(n, NIL, dtype=WORD)
    right = np.full(n, NIL, dtype=WORD)
    leaves = [int(ids[0])]
    used = 1
    pick_rng = rng.derive(0x7EE)
    step = 0
    while used < n:
        pick = pick_rng.word(step) % len(leaves)
        step += 1
        node = leaves[pick]
        leaves[pick] = leaves[-1]
        leaves.pop()
        l, r = int(ids[used]), int(ids[used + 1])
        used += 2
        left[node] = l
        right[node] = r
        parent[l] = node
        parent[r] = node
        leaves.extend([l, r])
    return BinaryTree(parent, left, right)


def gen_graph(n: int, rng: Rng, edges_per_vertex: int = 5) -> graph.GraphEdges:
    m = edges_per_vertex * n
    u = rng.words(0, m) % WORD(n)
    v = rng.derive(0xEDFE).words(0, m) % WORD(max(n - 1, 1))
    v = np.where(v >= u, v + WORD(1), v) % WORD(n)  # no self-loops for n > 1
    w = rng.derive(0x3E16).words(0, m)
    return graph.GraphEdges(n, u.astype(WORD), v.astype(WORD), w)


GEN_KINDS = ("ints", "perm", "list", "tree", "graph")


# ---------------------------------------------------------------------------
# Algorithm registry
#
# Each entry: input kind plus a runner(data, cfg) -> (body, verify, rounds_of)
# where body() executes the timed, metered work and verify() consults the
# matching sequential oracle afterwards.

def _sorted_halves(a: np.ndarray) -> int:
    split = len(a) // 2
    a[:split].sort()
    a[split:].sort()
    return split


def _dedup_sets(a: np.ndarray) -> tuple[np.ndarray, int]:
    half = len(a) // 2
    x = np.unique(a[:half] >> WORD(1))
    y = np.unique(a[half:] >> WORD(1))
    return np.concatenate([x, y]), len(x)


class _Run:
    """One rep of one algorithm: work closure plus its oracle check."""

    def __init__(self, body, verify, rounds=None):
        self.body = body
        self.verify = verify
        self.rounds = rounds if rounds is not None else (lambda: 0)


def _make_run(cfg: BenchConfig, data) -> _Run:
    algo = cfg.algo
    budget = cfg.budget()
    rng = Rng(cfg.seed)

    if algo in ("scan", "scan-blocked", "nonip-scan"):
        a = data.copy()
        ref = bl.seq_scan(a) if cfg.verify else None
        state = {}

        def body():
            if algo == "scan":
                state["res"] = strong.scan(a)
            elif algo == "scan-blocked":
                state["res"] = strong.scan_blocked(a)
            else:
                out, total = bl.nonip_scan(a)
                state["out"], state["total"] = out, total

        def verify():
            if algo == "nonip-scan":
                ok = np.array_equal(state["out"], ref[0]) and state["total"] == ref[1]
                release(state["out"])
                return ok
            return np.array_equal(a, ref[0]) and state["res"].total == ref[1]

        return _Run(body, verify)

    if algo == "reduce":
        a = data.copy()
        ref = int(np.sum(a, dtype=WORD)) if cfg.verify else None
        state = {}
        return _Run(lambda: state.__setitem__("t", strong.reduce(a)),
                    lambda: state["t"] == ref)

    if algo == "rotate":
        a = data.copy()
        o = len(a) // 3
        ref = np.roll(data, -o) if cfg.verify else None
        return _Run(lambda: strong.rotate(a, o), lambda: np.array_equal(a, ref))

    if algo in ("filter", "filter-relaxed", "nonip-filter"):
        a = data.copy()
        ref = bl.seq_filter(a, EVEN) if cfg.verify else None
        state = {}

        def body():
            if algo == "filter":
                state["m"] = strong.filter_kway(a, EVEN)
            elif algo == "filter-relaxed":
                state["m"] = relaxed.filter_relaxed(a, EVEN, budget,
                                                    stats_sink=state.setdefault("s", []))
            else:
                state["out"] = bl.nonip_filter(a, EVEN)

        def verify():
            if algo == "nonip-filter":
                ok = np.array_equal(state["out"], ref)
                release(state["out"])
                return ok
            return state["m"] == len(ref) and np.array_equal(a[:state["m"]], ref)

        def rounds():
            return state["s"][0].rounds if state.get("s") else 0

        return _Run(body, verify, rounds)

    if algo in ("partition", "partition-relaxed"):
        a = data.copy()
        want = int(np.count_nonzero(EVEN(data))) if cfg.verify else None
        state = {}

        def body():
            if algo == "partition":
                state["m"] = strong.partition_unstable(a, EVEN)
            else:
                state["m"] = relaxed.partition_relaxed(a, EVEN, budget,
                                                       stats_sink=state.setdefault("s", []))

        def verify():
            m = state["m"]
            return (m == want and bool(np.all(EVEN(a[:m])))
                    and not bool(np.any(EVEN(a[m:])))
                    and np.array_equal(np.sort(a), np.sort(data)))

        def rounds():
            return state["s"][0].rounds if state.get("s") else 0

        return _Run(body, verify, rounds)

    if algo in ("quicksort", "mergesort", "quicksort-relaxed", "mergesort-relaxed"):
        a = data.copy()
        ref = np.sort(data) if cfg.verify else None
        sink: list = []
        fn = {
            "quicksort": lambda: strong.quicksort_strong(a, rng),
            "mergesort": lambda: strong.mergesort_strong(a),
            "quicksort-relaxed": lambda: relaxed.quicksort_relaxed(
                a, rng, budget, stats_sink=sink),
            "mergesort-relaxed": lambda: relaxed.mergesort_relaxed(a, budget),
        }[algo]
        return _Run(fn, lambda: np.array_equal(a, ref),
                    lambda: sum(s.rounds for s in sink))

    if algo in ("merge", "merge-relaxed"):
        a = data.copy()
        split = _sorted_halves(a)
        ref = np.sort(data) if cfg.verify else None
        fn = {
            "merge": lambda: strong.merge_strong(a, split),
            "merge-relaxed": lambda: relaxed.merge_relaxed(a, split, budget),
        }[algo]
        return _Run(fn, lambda: np.array_equal(a, ref))

    if algo in ("set-union", "set-intersect", "set-difference"):
        a, split = _dedup_sets(data)
        xs, ys = set(a[:split].tolist()), set(a[split:].tolist())
        ref = {"set-union": xs | ys, "set-intersect": xs & ys,
               "set-difference": xs - ys}[algo] if cfg.verify else None
        fn = {"set-union": strong.set_union, "set-intersect": strong.set_intersect,
              "set-difference": strong.set_difference}[algo]
        state = {}
        return _Run(lambda: state.__setitem__("m", fn(a, split)),
                    lambda: a[:state["m"]].tolist() == sorted(ref))

    if algo in ("rp", "rp-fullres"):
        h = data
        a = np.arange(len(h), dtype=WORD)
        state = {}

        def body():
            state["rounds"] = (relaxed.random_permutation(a, h, budget=budget).rounds
                               if algo == "rp" else bl.fullres_shuffle(a, h))

        def verify():
            ref = np.arange(len(h), dtype=WORD)
            bl.seq_knuth_shuffle(ref, h)
            return np.array_equal(a, ref)

        return _Run(body, verify, lambda: state["rounds"])

    if algo == "list-contract":
        lst = LinkedList(data.next.copy(), data.prev.copy())
        p = make_priorities(len(lst), rng)
        state = {}
        return _Run(lambda: state.__setitem__("s", list_contract(lst, p, budget=budget)),
                    lambda: state["s"].total_committed == len(lst),
                    lambda: state["s"].rounds)

    if algo == "list-rank":
        lst = LinkedList(data.next.copy(), data.prev.copy())
        ref = bl.seq_list_rank(data.next, data.prev) if cfg.verify else None
        p = make_priorities(len(lst), rng)
        state: dict = {"s": []}
        return _Run(lambda: state.__setitem__(
                        "r", list_rank(lst, p, budget, stats_sink=state["s"])),
                    lambda: np.array_equal(state["r"], ref),
                    lambda: sum(s.rounds for s in state["s"]))

    if algo == "tree-contract":
        tree = BinaryTree(data.parent.copy(), data.left.copy(), data.right.copy())
        vals = rng.derive(0x7A1).words(0, len(tree))
        ref = bl.seq_tree_eval(tree.parent, tree.left, tree.right, vals) \
            if cfg.verify else None
        p = make_priorities(len(tree), rng)
        state = {}

        def body():
            state["roots"], state["s"] = tree_contract(tree, p, vals, budget)

        return _Run(body, lambda: state["roots"] == ref,
                    lambda: state["s"].rounds)

    if algo == "connectivity":
        g = data
        state = {}

        def body():
            state["o"] = graph.build_connectivity(g, cfg.epsilon, cfg.seed)

        def verify():
            ref = bl.union_find_components(g.n, g.u, g.v)
            got = np.array([graph.query_connectivity(state["o"], x)
                            for x in range(g.n)], dtype=np.int64)
            remap: dict[int, int] = {}
            for got_l, ref_l in zip(got.tolist(), ref.tolist()):
                if remap.setdefault(got_l, ref_l) != ref_l:
                    return False
            return len(set(remap.values())) == len(remap)

        return _Run(body, verify)

    if algo == "msf":
        g = data
        state = {}

        def body():
            state["o"] = graph.build_msf(g, cfg.epsilon, cfg.seed)

        def verify():
            ref = bl.kruskal_msf(g.n, g.u, g.v, g.w)
            ok = graph.msf_full_edge_set(state["o"]) == ref
            state["o"].release()
            return ok

        return _Run(body, verify)

    raise ValueError(f"unknown algorithm {algo!r}")


ALGO_KIND = {
    "scan": "ints", "scan-blocked": "ints", "nonip-scan": "ints",
    "reduce": "ints", "rotate": "ints",
    "filter": "ints", "filter-relaxed": "ints", "nonip-filter": "ints",
    "partition": "ints", "partition-relaxed": "ints",
    "quicksort": "ints", "mergesort": "ints",
    "quicksort-relaxed": "ints", "mergesort-relaxed": "ints",
    "merge": "ints", "merge-relaxed": "ints",
    "set-union": "ints", "set-intersect": "ints", "set-difference": "ints",
    "rp": "perm", "rp-fullres": "perm",
    "list-contract": "list", "list-rank": "list",
    "tree-contract": "tree",
    "connectivity": "graph", "msf": "graph",
}

ALGORITHMS = sorted(ALGO_KIND)


def generate_input(kind: str, n: int, seed: int):
    _check_size(kind, n)
    rng = Rng(seed)
    if kind == "ints":
        return gen_ints(n, rng)
    if kind == "perm":
        return gen_perm(n, rng)
    if kind == "list":
        return gen_list(n, rng)
    if kind == "tree":
        return gen_tree(n, rng)
    if kind == "graph":
        return gen_graph(n, rng)
    raise ValueError(f"unknown input kind {kind!r}")


def input_size(kind: str, data) -> int:
    if kind == "graph":
        return data.n
    return len(data)


def run_bench(cfg: BenchConfig, data) -> list[dict]:
    """Run reps of one algorithm; timing covers only the algorithm body."""
    set_num_threads(cfg.threads)
    rows = []
    for rep in range(cfg.reps):
        run = _make_run(cfg, data)
        meter = SpaceMeter()
        t0 = time.perf_counter()
        report = meter_scope(meter, 1 << 62, run.body)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        verified = "skipped"
        if cfg.verify:
            verified = "true" if run.verify() else "false"
        rows.append({
            "algo": cfg.algo if cfg.algo != "rp" else "rp-final",
            "n": cfg.n,
            "epsilon": cfg.epsilon,
            "threads": cfg.threads,
            "seed": cfg.seed,
            "rep": rep,
            "time_ms": round(elapsed_ms, 3),
            "peak_heap_words": report.peak_words,
            "rounds": run.rounds(),
            "verified": verified,
        })
    return rows


# ---------------------------------------------------------------------------
# Command line

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _normalize_algo(cfg_algo: str) -> str:
    return "rp" if cfg_algo == "rp-final" else cfg_algo


def build_parser() -> _Parser:
    parser = _Parser(prog="pipal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic input file")
    g.add_argument("--kind", required=True, choices=GEN_KINDS)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="run one algorithm")
    r.add_argument("--algo", required=True)
    r.add_argument("--input", required=True)
    r.add_argument("--epsilon", type=float, default=0.5)
    r.add_argument("--prefix-frac", type=float, default=0.02)
    r.add_argument("--threads", type=int, default=1)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--reps", type=int, default=1)
    r.add_argument("--verify", action="store_true")
    r.add_argument("--csv")

    s = sub.add_parser("sweep", help="cross parameter lists through run")
    s.add_argument("--algo", required=True)
    s.add_argument("--n", required=True, type=int, nargs="+")
    s.add_argument("--epsilon", type=float, nargs="+", default=[0.5])
    s.add_argument("--threads", type=int, nargs="+", default=[1])
    s.add_argument("--prefix-frac", type=float, default=0.02)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--verify", action="store_true")
    s.add_argument("--csv", required=True)
    return parser


def _cmd_gen(args) -> int:
    try:
        data = generate_input(args.kind, args.n, args.seed)
    except ValueError as exc:
        print(f"pipal gen: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"pipal gen: no memory for an input of n = {args.n}",
              file=sys.stderr)
        return 1
    try:
        if args.kind in ("ints", "perm"):
            formats.write_ints(args.out, data)
        elif args.kind == "list":
            formats.write_list(args.out, data)
        elif args.kind == "tree":
            formats.write_tree(args.out, data)
        else:
            formats.write_graph(args.out, data)
    except OSError as exc:
        print(f"pipal gen: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_numbers(kind: str, sizes, epsilons, prefix_frac: float, threads,
                   reps: int) -> None:
    """Raise ``ValueError`` for an out-of-range numeric option, through the
    library's own checks (``run_bench`` sets the thread count again per row),
    before any row is written."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for n in sizes:
        _check_size(kind, n)
    for eps in epsilons:
        EpsilonConfig(eps, prefix_frac)
    for t in threads:
        set_num_threads(t)


def _load_input(algo: str, path) -> object:
    kind = ALGO_KIND[algo]
    file_kind = formats.kind_of_path(path)
    want = "ints" if kind == "perm" else kind
    if file_kind != want:
        raise ValueError(
            f"{path}: holds a {file_kind!r} input but {algo} expects {want!r}")
    if kind in ("ints", "perm"):
        data = formats.read_ints(path)
        if kind == "perm":
            relaxed.validate_swap_sequence(data)
        return data
    if kind == "list":
        lst = formats.read_list(path)
        validate_linked_list(lst)
        return lst
    if kind == "tree":
        tree = formats.read_tree(path)
        validate_binary_tree(tree)
        return tree
    return formats.read_graph(path)


def _cmd_run(args) -> int:
    algo = _normalize_algo(args.algo)
    if algo not in ALGO_KIND:
        print(f"pipal run: unknown algorithm {args.algo!r}", file=sys.stderr)
        return 1
    try:
        _check_numbers(ALGO_KIND[algo], (), [args.epsilon], args.prefix_frac,
                       [args.threads], args.reps)
    except ValueError as exc:
        print(f"pipal run: {exc}", file=sys.stderr)
        return 1
    try:
        data = _load_input(algo, args.input)
    except OSError as exc:
        print(f"pipal run: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"pipal run: {exc}", file=sys.stderr)
        return 1
    kind = ALGO_KIND[algo]
    cfg = BenchConfig(algo=algo, n=input_size(kind, data), epsilon=args.epsilon,
                      prefix_fraction=args.prefix_frac, threads=args.threads,
                      seed=args.seed, reps=args.reps, verify=args.verify)
    rows = run_bench(cfg, data)
    for row in rows:
        print(",".join(str(row[c]) for c in formats.CSV_COLUMNS))
    if args.csv:
        try:
            formats.append_report_rows(args.csv, rows)
        except OSError as exc:
            print(f"pipal run: cannot write {args.csv}: {exc}", file=sys.stderr)
            return 2
    if args.verify and any(r["verified"] == "false" for r in rows):
        print("pipal run: verification FAILED", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep(args) -> int:
    algo = _normalize_algo(args.algo)
    if algo not in ALGO_KIND:
        print(f"pipal sweep: unknown algorithm {args.algo!r}", file=sys.stderr)
        return 1
    kind = ALGO_KIND[algo]
    try:
        _check_numbers(kind, args.n, args.epsilon, args.prefix_frac,
                       args.threads, args.reps)
    except ValueError as exc:
        print(f"pipal sweep: {exc}", file=sys.stderr)
        return 1
    failed = False
    for n in args.n:
        try:
            data = generate_input(kind, n, args.seed)
        except ValueError as exc:
            print(f"pipal sweep: {exc}", file=sys.stderr)
            return 1
        except MemoryError:
            print(f"pipal sweep: no memory for an input of n = {n}",
                  file=sys.stderr)
            return 1
        for eps in args.epsilon:
            for threads in args.threads:
                cfg = BenchConfig(algo=algo, n=input_size(kind, data),
                                  epsilon=eps, prefix_fraction=args.prefix_frac,
                                  threads=threads, seed=args.seed,
                                  reps=args.reps, verify=args.verify)
                rows = run_bench(cfg, data)
                try:
                    formats.append_report_rows(args.csv, rows)
                except OSError as exc:
                    print(f"pipal sweep: cannot write {args.csv}: {exc}",
                          file=sys.stderr)
                    return 2
                failed |= any(r["verified"] == "false" for r in rows)
    return 3 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
