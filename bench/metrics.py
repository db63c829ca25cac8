"""Layer names, count metrics, and the metric units BENCHMARK.json defines.

BENCHMARK.json at the root of the repository is the one list of metric
names and units; `units` reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

LAYERS = ("cli", "config", "model", "numerics", "topology", "openchain",
          "spectroscopy", "linalg")
LINALG_CALLS = ("solve", "lstsq", "eigh", "cond", "eigh_tridiagonal")

# Metrics that count work; two traced runs of one seed must repeat them
# exactly (bench/repeat_check.py).
COUNTS = tuple(
    [f"{L}.{k}" for L in LAYERS for k in ("calls", "errors")]
    + [f"linalg.{f}_calls" for f in LINALG_CALLS]
    + ["spectroscopy.lstsq_per_spectrum", "openchain.diag_per_point",
       "spectroscopy.reflections_per_sample", "linalg.solve_mflop",
       "cli.output_bytes", "trace.spans", "workload.points"]
)


def cmd_metric(command: str) -> str:
    return f"cli.cmd.{command.replace('-', '_')}_s"


def units(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}
