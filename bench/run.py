"""weyllab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload arc_charge --seed 0 --seconds 55 --trace 0

Run from anywhere; the program under test is the weyllab package in the
`src/` directory next to this one, imported from source.  With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics setup_s, wall_s, peak_rss_mb and ok_frac; with --trace 1 it has
the per-layer metrics of a traced run instead.  The lines before it give
the same numbers for people, plus fail_frac and any failed check by name.

Each run uses one fresh worker interpreter.  Every time the benchmark
reports is normalised by a calibration kernel timed just before and after
it (calibration.py), because the shared host's speed switches between
levels up to 1.9x apart in spells that can outlast a run.  setup_s is the
median, over SETUP_SAMPLES probe interpreters started between the
worker's passes, of the time from starting an interpreter until
`weyllab.cli` is imported.  wall_s is the sum over the workload's jobs of
each job's median time over the run's passes.  The summary lines also
print the times as measured and every pass's CPU time.  BLAS runs
single-threaded in every interpreter, on every commit compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import units as metric_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds a worker may run beyond --seconds: the pass in progress when
# time runs out, the output checks and writing the trace.
WORKER_GRACE = 100


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time, read at its READY line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not import weyllab.cli")
    return proc, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weyllab" / "cli.py").is_file():
        print(f"weyllab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out"
    run_dir = scratch / f"run-{os.getpid()}"
    trace_file = scratch / f"{args.workload}-trace.csv.gz"

    try:
        worker_args = [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(run_dir), "--trace-file", str(trace_file),
        ]
        proc, _ = start_worker(worker_args)
        try:
            out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("worker timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        report = json.loads(out.strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload} seed {args.seed}: {report['passes']} passes of "
          f"{report['jobs']} jobs, {report['points']} {report['points_unit']} per pass")
    for label, checks in report["failures"]:
        print(f"  FAILED {label}: {', '.join(checks)}")
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} jobs)")
    print(f"pass times as measured {' '.join(f'{w:.3f}' for w in report['walls'])} s, "
          f"median {statistics.median(report['walls'])} s; "
          f"sum of each job's fastest {report['raw_wall_s']} s")
    print(f"pass cpu times {' '.join(f'{c:.3f}' for c in report['cpus'])} s")

    if args.trace:
        units = metric_units("per_layer")
        metrics = {name: report["layer"][name] for name in units}
        print(f"trace file {trace_file.relative_to(ROOT)}")
    else:
        units = metric_units("end_to_end")
        values = {
            "setup_s": statistics.median(report["setups"]),
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: values[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
