"""Check that the traced counts repeat exactly between two runs of one seed.

    python3 bench/repeat_check.py --workload arc_charge --seed 0 --seconds 55

Makes two traced runs of bench/run.py and compares every count metric
(calls, errors, waste ratios, linalg call counts, computed flops, output
bytes, spans).  Exits 1 and lists the counters that differ if any does.
A count-based claim may rest only on a counter this check passes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import COUNTS

RUN = Path(__file__).resolve().with_name("run.py")


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = [name for name in COUNTS if first[name] != second[name]]
    for name in COUNTS:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name} {first[name]} {second[name]} {mark}")
    print(f"{len(COUNTS) - len(differ)} of {len(COUNTS)} counters repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
