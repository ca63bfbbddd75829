"""convsep benchmark: one workload per run, closed loop, one job at a time
in one process.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

With --trace 0 it times jobs back to back for --seconds (at least one job)
and reports the end-to-end metrics; with --trace 1 it runs one job with
every traced convsep function wrapped, then alternates short plain and
traced jobs to measure the tracing overhead, and reports the per-layer
metrics. Every job is checked (see check.py). It prints one line per metric
with its unit, then the result as one JSON object on the last line, and
writes the result, the environment and any spans to .perfbench_out/ in the
repository root. With --workload all each workload runs in a fresh process
of its own, so that no figure, peak memory included, carries over from the
one before; the last line then maps each workload to its result.

Exits with 2 and prints no result when the convsep sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("flagship", "pair-l1-l64", "cli-roundtrip")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Capped so that a many-core machine runs the configuration the baseline used.
MAX_BLAS_THREADS = 2
SETUP_REPEATS = 3
WARM_UP_ITERATIONS = 2
# The overhead jobs: short, so that several plain/traced pairs fit in a run.
OVERHEAD_ITERATIONS = 40
OVERHEAD_PAIRS = 6
CHILD_TIMEOUT_S = 120

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "emg_sir_gain_db": "dB",
}


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def _git_commit() -> str:
    """HEAD of the checkout, read without running git (which would search
    directories outside it); 'unknown' outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": _cpu_model(),
    }


def run_child(mode: str, name: str, seed: int, threads: int, parent: Path) -> dict:
    """Run child.py in a fresh process, in a new directory under parent;
    its last output line is JSON."""
    env = dict(os.environ, **{var: str(threads) for var in BLAS_VARS})
    workdir = tempfile.mkdtemp(prefix="child-", dir=parent)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, name, str(seed), workdir],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_job(workload, inputs, checker, tracer=None) -> float | None:
    """Run one job, traced when a tracer is given, then check it untimed;
    return its wall time, or None when it raised."""
    start = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            produced = workload.run(inputs)
        wall = time.perf_counter() - start
        checker.check(workload.outcome(inputs, produced), key=inputs.iterations)
    except Exception as exc:  # a failing job is counted, never dropped
        checker.fail(f"{type(exc).__name__}: {exc}")
        return None
    return wall


def warm_up(workload, inputs) -> None:
    """A short untimed, unchecked job first, so lazy imports and first-touch
    costs do not land on the first timed job. A program that fails here
    fails again, counted, in the timed jobs."""
    with contextlib.suppress(Exception):
        workload.run(dataclasses.replace(inputs, iterations=WARM_UP_ITERATIONS))


def measure_end_to_end(name, seed, seconds, workload, workdir, checker) -> tuple[dict, dict]:
    setups = [run_child("setup", name, seed, blas_threads(), workdir)["setup_s"] for _ in range(SETUP_REPEATS)]
    inputs = workload.make_inputs(seed, workdir)
    warm_up(workload, inputs)
    walls = []
    start = time.perf_counter()
    while checker.attempted == 0 or time.perf_counter() - start < seconds:
        wall = timed_job(workload, inputs, checker)
        if wall is not None:
            walls.append(wall)
    if not walls:
        raise RuntimeError(f"no job completed: {checker.failures}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "emg_sir_gain_db": checker.reference.quality["emg_sir_gain_db"],
    }
    return metrics, {"walls_s": walls, "setups_s": setups}


def overhead_ratios(workload, inputs, checker) -> list[float]:
    """Traced over plain wall time of OVERHEAD_PAIRS pairs of short jobs,
    run in alternating order (plain first, then traced first) so that drift
    cancels; spans of these jobs are discarded."""
    import tracing

    short = dataclasses.replace(inputs, iterations=OVERHEAD_ITERATIONS)
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        walls = {traced: timed_job(workload, short, checker, tracing.Tracer() if traced else None) for traced in order}
        if None in walls.values():
            raise RuntimeError(f"job failed: {checker.failures}")
        ratios.append(walls[True] / walls[False])
    return ratios


def measure_per_layer(name, seed, workload, workdir, checker, tracer) -> tuple[dict, dict]:
    import tracing

    with tracer:
        inputs = workload.make_inputs(seed, workdir)
    warm_up(workload, inputs)
    traced = timed_job(workload, inputs, checker, tracer)
    if traced is None:
        raise RuntimeError(f"job failed: {checker.failures}")
    ratios = overhead_ratios(workload, inputs, checker)
    threads1_ms = run_child("threads1", name, seed, 1, workdir)["ms_per_iter"]
    overhead = statistics.median(ratios) - 1.0
    metrics = tracing.layer_metrics(tracer, overhead, checker.reference.out_dir_bytes, threads1_ms)
    return metrics, {"traced_wall_s": traced, "overhead_ratios": ratios}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import check
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    checker = check.Checker()
    tracer = tracing.Tracer()
    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR))
    try:
        if trace:
            metrics, extra = measure_per_layer(name, seed, workload, workdir, checker, tracer)
        else:
            metrics, extra = measure_end_to_end(name, seed, seconds, workload, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = tracing.UNITS if trace else UNITS
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = dict(checker.reference.quality, failed_frac=checker.failed / checker.attempted)
    if trace:
        # The overhead is resolved only where it exceeds this spread.
        quartiles = statistics.quantiles(extra["overhead_ratios"], n=4)
        details["trace.overhead_iqr"] = quartiles[2] - quartiles[0]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "result": result,
        "details": details,
        "failures": checker.failures,
        **extra,
        "spans": [[s.id, s.parent, s.name, s.start, s.end, s.nbytes] for s in tracer.spans],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    for key, metric in result["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}  details {json.dumps(details)}")
    print(f"{name}  environment {json.dumps(record['environment'])}")
    return result


def run_all(args) -> int:
    """Each workload in a fresh process of this script; passes its lines
    through and ends with one JSON object of every workload's result."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"run.py: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        for line in lines:
            print(line)
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convsep" / "__init__.py").is_file():
        print(f"run.py: no convsep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = blas_threads()
    os.environ.update({var: str(threads) for var in BLAS_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    import convsep

    if Path(convsep.__file__).resolve().parent != SRC / "convsep":
        print(f"run.py: imported convsep from {convsep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        with contextlib.suppress(OSError):  # still in use by another run
            TMP_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
