"""pipal benchmark: one workload per run, measured in fresh worker processes.

    python3 perfbench/run.py --workload arrays --seed 1 --seconds 8 --trace 0

Workloads: arrays, rounds, sublinear, graph (see BENCHMARK.json for why
each exists, and for the metrics).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it carry the environment
and a readable copy of each metric.
"""

import argparse
import sys
from pathlib import Path

import manifest

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pipal" / "__init__.py").is_file():
        print(f"perfbench: no pipal sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    harness.run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
