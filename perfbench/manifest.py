"""Names and units of the benchmark's workloads and metrics.

``BENCHMARK.json`` at the repository root is the only copy; this module
reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_SECONDS = SPEC["run_seconds"]


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in SPEC[section]}
