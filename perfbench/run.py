#!/usr/bin/env python3
"""Outside-in benchmark of the deoq-dyn command line.

    python3 perfbench/run.py --workload sweep-heavy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs the workload's CLI
commands as fresh ``python -m deoq_dyn.cli`` processes, one after the other,
until ``--seconds`` have passed (at least MIN_REPS times), and after each
rep times SETUP_PER_REP bare imports of ``deoq_dyn.cli``.  It prints the
end-to-end metrics.  ``--trace 1`` runs the same commands in this process through
``deoq_dyn.cli.main``: a warm-up, then twice untraced and twice with spans
around each layer boundary, in turn, and prints the per-layer metrics of
the traced runs.
Every run's outputs pass the correctness gate in ``workloads.py``.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# relative to ROOT, the working directory of every run, so that the paths
# written into configs and outputs have the same length in any checkout
WORK = HERE.relative_to(ROOT) / "work"

MIN_REPS = 2
SETUP_PER_REP = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Fix what the program sees: its source tree, thread counts, no sweep pool."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    os.environ.pop("DEOQ_DYN_WORKERS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment_record() -> dict:
    """Hardware and library versions, read in a child so numpy stays out of this process."""
    out = subprocess.run([sys.executable, str(HERE / "envinfo.py")],
                         capture_output=True, text=True, check=True).stdout
    return dict(json.loads(out), threads={var: os.environ[var] for var in THREAD_VARS})


def fresh_dir() -> Path:
    rep = WORK / "rep"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True)
    return rep


def write_config(work: Path, step) -> Path:
    path = work / f"{step.out}.config.json"
    path.write_text(json.dumps(step.config))
    return path


def run_child(argv: list, stderr_path: Path) -> tuple:
    """Run one process to completion: (wall seconds, exit code, peak RSS MiB).

    On Linux the peak that wait4 reports includes the address space the
    child had before exec, a copy of this process, so it reads
    max(child, this process).  This process therefore never loads numpy or
    large outputs in ``--trace 0``, and ``measure`` checks that its own peak
    stays below the children's.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(step, config: Path, out: Path) -> list:
    return [step.command, "--config", str(config), "--out", str(out)]


def run_rep(workload, seed: int, in_process: bool = False, tracer=None) -> tuple:
    """One pass over the workload's steps: (wall s, peak RSS MiB, failure messages).

    A ``tracer`` is installed for the steps only, so the correctness gate's
    own library calls stay out of the trace.
    """
    work = fresh_dir()
    wall, rss = 0.0, 0.0
    if tracer is not None:
        import layers

        layers.install(tracer)
    try:
        for step in workload.steps(seed, work):
            argv = cli_argv(step, write_config(work, step), work / step.out)
            if in_process:
                from deoq_dyn import cli

                start = time.perf_counter()
                try:
                    code, detail = cli.main(argv), ""
                except Exception as exc:
                    # python -m deoq_dyn.cli exits 1 on an uncaught exception
                    code, detail = 1, repr(exc)
                wall += time.perf_counter() - start
            else:
                err = work / f"{step.out}.stderr"
                seconds, code, peak = run_child([sys.executable, "-m", "deoq_dyn.cli"] + argv, err)
                wall, rss = wall + seconds, max(rss, peak)
                detail = err.read_text()[-400:]
            if code != 0:
                return wall, rss, [f"{step.command} exited {code}: {detail}"] * workload.ops
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        return wall, rss, workload.check(work)
    except (OSError, ValueError, LookupError) as exc:
        return wall, rss, [f"unreadable output: {exc!r}"] * workload.ops


def setup_seconds(count: int) -> list:
    err = fresh_dir() / "setup.stderr"
    times = []
    for _ in range(count):
        wall, code, _ = run_child([sys.executable, "-c", "import deoq_dyn.cli"], err)
        if code != 0:
            raise SystemExit(f"importing deoq_dyn.cli failed: {err.read_text()}")
        times.append(wall)
    return times


def measure(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics with tracing off."""
    walls, setup, rss, failures = [], [], 0.0, []
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, peak, failed = run_rep(workload, seed)
        walls.append(wall)
        rss = max(rss, peak)
        failures += failed
        # imports after every rep see the host's speed drift as the reps do
        setup += setup_seconds(SETUP_PER_REP)
    attempted = workload.ops * len(walls)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# benchmark process peak RSS: {own:.1f} MiB")
    if own >= rss:
        failures.append(f"benchmark's own peak RSS {own:.1f} MiB hides the CLI's {rss:.1f} MiB")
    print(f"# wall_s per rep: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"# setup_s per import: {' '.join(f'{s:.3f}' for s in setup)}")
    print(f"# failed_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return metrics, attempted, failures


def traced(workload, seed: int) -> tuple:
    """Per-layer metrics: a warm-up, then untraced and traced in-process runs in turn."""
    import layers
    from tracer import Tracer

    # the warm-up takes first-call costs (lazy imports, FFT plans) out of the
    # untraced time that the tracing overhead is measured against
    _, _, failures = run_rep(workload, seed, in_process=True)
    untraced, traces = [], []
    for _ in range(2):
        wall, _, failed = run_rep(workload, seed, in_process=True)
        untraced.append(wall)
        failures += failed
        t = Tracer()
        wall, _, failed = run_rep(workload, seed, in_process=True, tracer=t)
        failures += failed
        traces.append((t, wall))
    if t.missing:
        print(f"# boundaries missing: {', '.join(sorted(t.missing))}")
    first, second = (layers.metrics(t, wall, statistics.median(untraced)) for t, wall in traces)
    metrics = {}
    for name, (value, unit) in first.items():
        other = second[name][0]
        if unit == "s":
            value = None if value is None else statistics.median([value, other])
        elif value != other:
            # a count must repeat exactly between the two traced runs
            failures.append(f"count {name} did not repeat: {value} then {other}")
        metrics[name] = (value, unit)
    return metrics, 5 * workload.ops, failures


def report(workload, metrics: dict, attempted: int, failures: list) -> None:
    for message in failures:
        print(f"# FAILED {workload.name}: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"# {workload.name} {name} = {shown}")
    failed = min(len(failures), attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "deoq_dyn" / "cli.py").is_file():
        print(f"perfbench: no deoq_dyn sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_environment()
    try:
        print("# env " + json.dumps(environment_record(), sort_keys=True))
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                result = traced(workload, args.seed)
            else:
                result = measure(workload, args.seed, args.seconds)
            report(workload, *result)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
