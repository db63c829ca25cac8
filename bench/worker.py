"""Benchmark worker: one fresh interpreter runs one workload in a closed loop.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The worker prints READY as soon as weyllab.cli is imported, so that a
probe interpreter can time set-up.  It then runs passes over the
workload's jobs, each an in-process `weyllab.cli.main([...])` call, one
after another (a single client in a closed loop), for about --seconds,
with the calibration kernel timed between jobs; checks every job's
outputs after each pass, in a forked child so that the checks' memory
stays out of the worker's peak RSS; times one set-up probe after each of
the first passes; and prints one JSON line with the results.  With --trace 1 every second pass is traced (the others give
the untraced time the tracing overhead is measured against), and the
spans are written to --trace-file.
"""

import sys

import weyllab.cli

print("READY", flush=True)
if sys.argv[1:] == ["--probe"]:
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from calibration import kernel_seconds, normalised  # noqa: E402
from checks import check_job  # noqa: E402
from metrics import COUNTS, LINALG_CALLS, units  # noqa: E402
from run import SETUP_SAMPLES, start_worker  # noqa: E402
from workloads import ARC_POINTS, WINDING_SAMPLES, WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).with_name("reference_seed0.json")
MAX_FAILURES_LISTED = 20


def _run_pass(workload, out_root: Path, tracer):
    """Run every job once, with the calibration kernel timed before the
    first job and after each; return [(start, end, exit code or exception
    name, job time normalised by the kernel times beside it)]."""
    for job in workload.jobs:
        shutil.rmtree(out_root / job.label, ignore_errors=True)
    results = []
    kernel = kernel_seconds()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.label
        start = time.perf_counter()
        try:
            code = weyllab.cli.main(job.argv(str(out_root / job.label)))
        except Exception as exc:  # a job that raises is a failed job, not a crash
            traceback.print_exc()
            code = f"exception_{type(exc).__name__}"
        end = time.perf_counter()
        kernel_after = kernel_seconds()
        results.append((start, end, code, normalised(end - start, kernel, kernel_after)))
        kernel = kernel_after
    return results


def _check_pass(workload, results, out_root: Path, ctx) -> list:
    """[(job label, [failed check names])] for the jobs that failed."""
    failures = []
    for job, (_, _, code, _) in zip(workload.jobs, results):
        if isinstance(code, str):
            bad = [code]
        else:
            try:
                bad = check_job(job, code, out_root / job.label, ctx)
            except Exception as exc:  # unreadable or malformed output
                bad = [f"output_unreadable_{type(exc).__name__}"]
        if bad:
            failures.append((job.label, bad))
    return failures


def _check_in_child(workload, results, out_root: Path, ctx) -> list:
    """_check_pass in a forked child, which sends its failures back through a
    pipe: ru_maxrss is a high-water mark, and the checks read whole output
    files, so run here they could set the peak RSS the benchmark reports."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            failures = _check_pass(workload, results, out_root, ctx)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(failures, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        sent = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return [(job.label, ["check_process_failed"]) for job in workload.jobs]
    return [(label, bad) for label, bad in json.loads(sent)]


def _pass_time(job_times) -> float:
    """One pass's time, summed over jobs from each job's median time over
    the passes of the run."""
    return sum(statistics.median(times) for times in job_times)


def _time_setup() -> float:
    """One set-up sample, normalised by the kernel times beside it."""
    kernel = kernel_seconds()
    proc, setup = start_worker(["--probe"])
    if proc.wait() != 0:
        raise RuntimeError("set-up probe failed")
    return normalised(setup, kernel, kernel_seconds())


def _output_bytes(workload, out_root: Path) -> int:
    return sum(
        p.stat().st_size
        for job in workload.jobs
        for p in (out_root / job.label).iterdir()
    )


def _layer_metrics(workload, layer: dict, counts: dict) -> dict:
    """Complete one traced pass's metrics with the ratios and call counts."""
    m = {name: 0.0 for name in units("per_layer")}
    m.update(layer)
    cmd = {}
    for (command, name), n in counts.items():
        cmd.setdefault(command, {})
        cmd[command][name] = cmd[command].get(name, 0) + n
    for f in LINALG_CALLS:
        m[f"linalg.{f}_calls"] = sum(c.get(f"linalg.{f}", 0) for c in cmd.values())
    sizes = sum(len(job.param("table1.sizes"))
                for job in workload.jobs if job.command == "table1")
    if sizes:
        points = ARC_POINTS * sizes
        t1 = cmd.get("table1", {})
        m["spectroscopy.lstsq_per_spectrum"] = t1.get("linalg.lstsq", 0) / points
        m["openchain.diag_per_point"] = (
            t1.get("openchain.diagonalize_chain", 0) / points
        )
    windings = sum(job.command == "winding" for job in workload.jobs)
    if windings:
        samples = windings * WINDING_SAMPLES
        m["spectroscopy.reflections_per_sample"] = (
            cmd.get("winding", {}).get("spectroscopy.reflection", 0) / samples
        )
    m["workload.points"] = workload.points
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    out_root = Path(args.out)
    reference = json.loads(REFERENCE.read_text()) if args.seed == 0 else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    job_command = {job.label: job.command for job in workload.jobs}

    walls, traced_flags, layer_passes, cpus, setups = [], [], [], [], []
    # job_times[traced][i]: job i's normalised times over the passes of
    # that kind; raw_times: its measured times over the untraced passes.
    job_times = {False: [[] for _ in workload.jobs], True: [[] for _ in workload.jobs]}
    raw_times = [[] for _ in workload.jobs]
    attempted, failed, failures = 0, 0, []
    deadline = time.perf_counter() + args.seconds
    while True:
        iteration_start = time.perf_counter()
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        cpu = time.process_time()
        try:
            results = _run_pass(workload, out_root, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(end - start for start, end, _, _ in results)
        if not traced:
            cpus.append(time.process_time() - cpu)
            for times, (start, end, _, _) in zip(raw_times, results):
                times.append(end - start)
        if traced:
            job_seconds = wall
            layer, counts = tracer.end_pass(len(walls), job_command, job_seconds)
            layer["cli.output_bytes"] = _output_bytes(workload, out_root)
            layer_passes.append(_layer_metrics(workload, layer, counts))
        walls.append(wall)
        traced_flags.append(traced)
        for times, (_, _, _, norm) in zip(job_times[traced], results):
            times.append(norm)
        ctx = SimpleNamespace(
            reference=reference,
            chirality={},
            rng=np.random.default_rng([args.seed, len(walls)]),
        )
        pass_failures = _check_in_child(workload, results, out_root, ctx)
        attempted += len(results)
        failed += len(pass_failures)
        failures += pass_failures
        if tracer is None and len(setups) < SETUP_SAMPLES:
            # Set-up samples spread over the run, so that one slow spell of
            # the host does not set them all.
            setups.append(_time_setup())
        # Stop once the next pass, with its checks, would end more than
        # half a pass late.
        now = time.perf_counter()
        if now + (now - iteration_start) / 2 >= deadline and (
            tracer is None or layer_passes
        ):
            break

    while tracer is None and len(setups) < SETUP_SAMPLES:
        setups.append(_time_setup())

    report = {
        "passes": len(walls),
        "wall_s": _pass_time(job_times[False]),
        "raw_wall_s": sum(min(times) for times in raw_times),
        "setups": setups,
        "walls": [w for w, t in zip(walls, traced_flags) if not t],
        "cpus": cpus,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_LISTED],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": workload.points,
        "points_unit": workload.points_unit,
        "jobs": len(workload.jobs),
    }
    if tracer is not None:
        layer = {}
        first = layer_passes[0]
        for name in first:
            values = [p[name] for p in layer_passes]
            layer[name] = first[name] if name in COUNTS else statistics.median(values)
        layer["trace.wall_s"] = _pass_time(job_times[True])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - report["wall_s"]
        report["layer"] = layer
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
