"""The benchmark's workloads: CLI steps, inputs made from the seed, and the
correctness gate each run's outputs must pass.

An operation is one averaged trace plus its fit: a row of a sweep or
materials table, or one simulate-then-fit round trip.  ``check`` returns one
message per failed operation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

# T2* of a table row may move this much (relative) from the reference
# output before the row counts as failed.
T2_REL_TOL = 1e-2
# Largest |p_mc - p_quad| / stderr accepted over the MC trace.  With 8000
# correlated points, max z stays near 3.5; 5 flags a biased estimator.
MC_MAX_Z = 5.0
QUAD_ERR = 1e-6
# Relative distance allowed between the T2* fitted to the noisy MC trace
# and the one fitted to the quadrature average of the same noise.
MC_T2_REL_TOL = 0.05

MC_NOISE = {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1}
MC_TIMES = {"t_max": 200.0, "n_points": 8001}
MC_SAMPLES = 15000


@dataclass(frozen=True)
class Step:
    command: str
    config: dict
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int
    steps: Callable[[int, Path], list]
    check: Callable[[Path], list]


def _data_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [ln.split(",") for ln in lines[1:] if ln and not ln.startswith("#")]


def _t2_close(value: str, ref: str) -> bool:
    got, want = float(value), float(ref)
    if math.isnan(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= T2_REL_TOL * abs(want)


def _check_table(out: Path, reference: Path, n_key: int, t2_col: int, status) -> list:
    rows, ref_rows = _data_rows(out), _data_rows(reference)
    failures = [f"row {k}: missing" for k in range(len(rows), len(ref_rows))]
    failures += [f"row {k}: not in reference" for k in range(len(ref_rows), len(rows))]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row[:n_key] != ref[:n_key]:
            failures.append(f"row {k}: key {row[:n_key]} != reference {ref[:n_key]}")
        elif status(row) != status(ref):
            failures.append(f"row {k} {row[:n_key]}: status {status(row)} != {status(ref)}")
        elif status(row) == "fit-failure" or not _t2_close(row[t2_col], ref[t2_col]):
            failures.append(f"row {k} {row[:n_key]}: t2 {row[t2_col]} vs reference {ref[t2_col]}")
    return failures


def _materials_status(row: list) -> str:
    t2 = float(row[3])
    return "fit-failure" if math.isnan(t2) else "no-decay" if math.isinf(t2) else "converged"


# ------------------------------------------------------------- sweep-heavy

SWEEP_CONFIG = {
    "command": "sweep",
    "grid": {"sigma_e_values": [0.5, 1.0], "sigma_j_values": [0.0, 0.1, 0.3, 0.5]},
    "initial": "zero",
    "times": {"t_max": 100.0, "n_points": 4001},
}


def _sweep_steps(seed: int, work: Path) -> list:
    return [Step("sweep", SWEEP_CONFIG, "sweep.csv")]


def _sweep_check(work: Path) -> list:
    return _check_table(work / "sweep.csv", REFERENCE / "sweep-heavy.csv", 2, 2, lambda r: r[6])


# -------------------------------------------------------- materials-subset

MATERIALS_CONFIG = {
    "command": "materials",
    "sigma_j_values_ev": [3e-9, 4.43e-8],
}


def _materials_steps(seed: int, work: Path) -> list:
    return [Step("materials", MATERIALS_CONFIG, "materials.csv")]


def _materials_check(work: Path) -> list:
    return _check_table(
        work / "materials.csv", REFERENCE / "materials-subset.csv", 3, 3, _materials_status
    )


# ------------------------------------------------------------ mc-roundtrip


def _mc_steps(seed: int, work: Path) -> list:
    simulate = {
        "command": "simulate", "method": "mc", "initial": "superposition",
        "noise": MC_NOISE, "times": MC_TIMES, "n_samples": MC_SAMPLES, "seed": seed,
    }
    fit = {"command": "fit", "trace_file": str(work / "trace.csv")}
    return [Step("simulate", simulate, "trace.csv"), Step("fit", fit, "fit.json")]


@functools.lru_cache(maxsize=1)
def quadrature_oracle():
    """Quadrature average of the MC workload's noise and its fitted T2*.

    Both are stored outputs of the commit that added this benchmark:
    ``simulate --method quadrature`` with the same noise and times, and
    ``fit`` on that trace.  Stored rather than recomputed, so that a change
    shared by the quadrature and MC code cannot move the oracle with it.
    """
    path = REFERENCE / "mc-roundtrip-quadrature.csv"
    config = json.loads(path.read_text().rsplit("# config=", 1)[1])
    if config["initial"] != "superposition" or any(
        config["noise"][k] != v for k, v in MC_NOISE.items()
    ):
        raise ValueError(f"{path.name} was made for other noise than {MC_NOISE}")
    rows = _data_rows(path)
    fit = json.loads((REFERENCE / "mc-roundtrip-fit.json").read_text())["fit"]
    return [float(r[0]) for r in rows], [float(r[2]) for r in rows], fit["t2_star"]


def _mc_check(work: Path) -> list:
    rows = _data_rows(work / "trace.csv")
    t_quad, p_quad, t2_quad = quadrature_oracle()
    failures = []
    if len(rows) != len(t_quad) or not all(
        math.isclose(float(r[0]), t, rel_tol=1e-8) for r, t in zip(rows, t_quad)
    ):
        return [f"trace has {len(rows)} points, not the reference's {len(t_quad)} times"]
    # the oracle's own error (the binned evaluator's ~1e-6 bound) joins the
    # MC standard error, so near-zero stderr at early times cannot blow up z
    z = max(abs(float(r[2]) - p) / math.hypot(float(r[3]), QUAD_ERR) for r, p in zip(rows, p_quad))
    if not z <= MC_MAX_Z:
        failures.append(f"MC trace off the quadrature average: max z {z:.2f}")
    fit = json.loads((work / "fit.json").read_text())["fit"]
    t2 = fit["t2_star"]
    if fit["status"] != "converged" or t2 is None or abs(t2 - t2_quad) > MC_T2_REL_TOL * t2_quad:
        failures.append(f"fit {fit['status']} t2 {t2} vs quadrature {t2_quad:.6g}")
    return ["; ".join(failures)] if failures else []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-heavy", 8, _sweep_steps, _sweep_check),
        Workload("materials-subset", 12, _materials_steps, _materials_check),
        Workload("mc-roundtrip", 1, _mc_steps, _mc_check),
    )
}
