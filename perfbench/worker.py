"""One worker process of a benchmark run (see harness.launch).

    python3 perfbench/worker.py <harness function> <started> <JSON argument list>

Runs the named worker function of :mod:`harness` and writes its pickled
report to standard output; failures of single operations are reported on
standard error and counted in the report.
"""

import json
import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402

WORKERS = {f.__name__: f for f in (harness.timed_worker, harness.traced_worker)}

if __name__ == "__main__":
    name, started, args = sys.argv[1], float(sys.argv[2]), json.loads(sys.argv[3])
    report = WORKERS[name](started, *args)
    sys.stdout.buffer.write(pickle.dumps(report))
