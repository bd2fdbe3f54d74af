"""Benchmark and verification harness.

Subcommands: ``gen`` writes deterministic inputs, ``run`` executes one
algorithm with metering and optional oracle verification, ``sweep`` crosses
parameter lists through ``run``.  Results append to a CSV with the fixed
column set; any verification failure exits with status 3.  Every input
kind and algorithm comes from the tables in :mod:`pipal.ops`.

Exit codes: 0 ok, 1 usage, 2 I/O, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from . import formats
from .ops import KINDS, NAMES, Algo, Kind, check_size, generate_input
from .runtime import EpsilonConfig, SpaceMeter, meter_scope, set_num_threads


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


def run_bench(cfg: BenchConfig, data) -> list[dict]:
    """Run reps of one algorithm; timing covers only the algorithm body."""
    algo = NAMES[cfg.algo]
    set_num_threads(cfg.threads)
    rows = []
    for rep in range(cfg.reps):
        args = algo.prepare(data, cfg)
        out = []
        meter = SpaceMeter()
        t0 = time.perf_counter()
        report = meter_scope(meter, 1 << 62, lambda: out.append(algo.body(*args)))
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        verified = "skipped"
        if cfg.verify:
            verified = "true" if algo.check(data, args, out[0]) else "false"
        rows.append({
            "algo": algo.row or cfg.algo,
            "n": cfg.n,
            "epsilon": cfg.epsilon,
            "threads": cfg.threads,
            "seed": cfg.seed,
            "rep": rep,
            "time_ms": round(elapsed_ms, 3),
            "peak_heap_words": report.peak_words,
            "rounds": meter.rounds,
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


class _Exit(Exception):
    """``_Exit(code, message)`` ends a command with a one-line message."""


def build_parser() -> _Parser:
    parser = _Parser(prog="pipal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic input file")
    g.add_argument("--kind", required=True, choices=list(KINDS))
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


def _generate(kind: str, n: int, seed: int):
    try:
        return generate_input(kind, n, seed)
    except ValueError as exc:
        raise _Exit(1, exc) from exc
    except MemoryError as exc:
        raise _Exit(1, f"no memory for an input of n = {n}") from exc


def _algo(name: str, sizes, epsilons, prefix_frac: float, threads,
          reps: int) -> Algo:
    """The table entry for ``name``, once every numeric option has passed
    the library's own checks (``run_bench`` sets the thread count again per
    row), before any row is written."""
    algo = NAMES.get(name)
    if algo is None:
        raise _Exit(1, f"unknown algorithm {name!r}")
    try:
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        for n in sizes:
            check_size(algo.kind, n)
        for eps in epsilons:
            EpsilonConfig(eps, prefix_frac)
        for t in threads:
            set_num_threads(t)
    except ValueError as exc:
        raise _Exit(1, exc) from exc
    return algo


def _load_input(kind: Kind, path):
    try:
        data = kind.read(path)
        kind.validate(data)
    except OSError as exc:
        raise _Exit(2, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _Exit(1, exc) from exc
    return data


def _write(write, path, data) -> None:
    try:
        write(path, data)
    except OSError as exc:
        raise _Exit(2, f"cannot write {path}: {exc}") from exc


def _config(args, n: int, epsilon: float, threads: int) -> BenchConfig:
    return BenchConfig(args.algo, n, epsilon, args.prefix_frac, threads, args.seed,
                       args.reps, args.verify)


def _cmd_gen(args) -> int:
    _write(KINDS[args.kind].write, args.out, _generate(args.kind, args.n, args.seed))
    return 0


def _cmd_run(args) -> int:
    algo = _algo(args.algo, (), [args.epsilon], args.prefix_frac, [args.threads],
                 args.reps)
    kind = KINDS[algo.kind]
    data = _load_input(kind, args.input)
    rows = run_bench(_config(args, kind.size(data), args.epsilon, args.threads), data)
    for row in rows:
        print(",".join(str(row[c]) for c in formats.CSV_COLUMNS))
    if args.csv:
        _write(formats.append_report_rows, args.csv, rows)
    if any(r["verified"] == "false" for r in rows):
        raise _Exit(3, "verification FAILED")
    return 0


def _cmd_sweep(args) -> int:
    algo = _algo(args.algo, args.n, args.epsilon, args.prefix_frac, args.threads,
                 args.reps)
    failed = False
    for n in args.n:
        data = _generate(algo.kind, n, args.seed)
        for eps in args.epsilon:
            for threads in args.threads:
                rows = run_bench(_config(args, KINDS[algo.kind].size(data), eps,
                                         threads), data)
                _write(formats.append_report_rows, args.csv, rows)
                failed |= any(r["verified"] == "false" for r in rows)
    return 3 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"gen": _cmd_gen, "run": _cmd_run, "sweep": _cmd_sweep}[args.command]
    try:
        return command(args)
    except _Exit as exc:
        code, message = exc.args
        print(f"pipal {args.command}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
