"""Print how much of each command-line run is start-up: fresh processes' wall time and peak RSS.

Each row runs a fresh interpreter REPS times in turn: ``python -c pass``,
``python -c "import numpy"``, a bare ``import deoq_dyn.cli``, and the
commands of each perfbench workload at the benchmark's sizes (the configs
come from perfbench/workloads.py; mc-roundtrip is its MC simulate and then
the fit of that trace).  A row prints the median wall time with its range,
from perf_counter around the process, and the largest peak RSS, the
child's ru_maxrss from os.wait4.  Last, one bare import under
``-X importtime`` prints the self and cumulative import times of site,
numpy and each deoq_dyn module.  The children see PYTHONPATH=src and this
process's environment otherwise (PYTHONDONTWRITEBYTECODE included, which
decides whether src/ is compiled in every process).  Outputs go to a
temporary directory; nothing under perfbench/ is written.
Usage: python3 tools/startup.py [REPS]   (REPS defaults to 5)
"""
import json, os, pathlib, statistics, subprocess, sys, tempfile, time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
IMPORTS = {"python -c pass": "pass", "import numpy": "import numpy", "import deoq_dyn.cli": "import deoq_dyn.cli"}


def run(argv: list, cwd: str) -> tuple:
    """Wall seconds and peak RSS in MiB of one fresh process, which must exit 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def row(name: str, runs: list) -> None:
    walls = [1e3 * w for w, _ in runs]
    print(f"  {name:<32} {statistics.median(walls):7.1f} ms ({min(walls):.1f}-{max(walls):.1f})"
          f"  {max(r for _, r in runs):6.2f} MiB")


def main() -> None:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"fresh processes, {reps} each: median wall (range), largest peak RSS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, code in IMPORTS.items():
            row(name, [run([sys.executable, "-c", code], tmp) for _ in range(reps)])
        for workload in WORKLOADS.values():
            steps = workload.steps(1, pathlib.Path(tmp))
            runs = {k: [] for k in range(len(steps))}
            for _ in range(reps):
                for k, step in enumerate(steps):  # in order: a fit reads the trace its simulate wrote
                    config = pathlib.Path(tmp, f"config-{k}.json")
                    config.write_text(json.dumps(step.config))
                    runs[k].append(run([sys.executable, "-m", "deoq_dyn.cli", step.command, "--config",
                                        str(config), "--out", str(pathlib.Path(tmp, step.out))], tmp))
            for k, step in enumerate(steps):
                row(f"{workload.name}: {step.command}", runs[k])
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import deoq_dyn.cli"],
                             cwd=tmp, env=ENV, capture_output=True, text=True, check=True).stderr
    print("-X importtime of one bare import of deoq_dyn.cli: self / cumulative")
    for line in err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].strip()
            if name in ("site", "numpy") or name.startswith("deoq_dyn"):
                print(f"  {name:<32} {int(fields[0]) / 1e3:7.1f} ms / {int(fields[1]) / 1e3:7.1f} ms")


if __name__ == "__main__":
    main()
