"""Noise-grid sweeps and material comparisons."""

import math

import numpy as np
import pytest

from deoq_dyn import disorder, polar
from deoq_dyn.analysis import PhysicalScale, fit_trace, quality_factor, to_physical_time
from deoq_dyn.disorder import NoiseSpec, disorder_average_quadrature
from deoq_dyn.qubit import ExchangeParams
from deoq_dyn.sweep import (
    DEFAULT_SIGMA_E_VALUES,
    DEFAULT_SIGMA_J_VALUES,
    MaterialPreset,
    MaterialsConfig,
    SweepConfig,
    SweepGrid,
    Times,
    default_material_presets,
    default_material_sigma_j_ev,
    material_comparison,
    run_cell,
    run_sweep,
    score,
    suggested_time_grid,
)

SHORT_TIMES = np.linspace(0.0, 100.0, 2001)


def short_grid(se_values, sj_values, **kw):
    return SweepConfig(grid=SweepGrid(sigma_e_values=se_values, sigma_j_values=sj_values),
                       times=Times(100.0, 2001), **kw)


def test_default_grids():
    assert DEFAULT_SIGMA_E_VALUES == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert DEFAULT_SIGMA_J_VALUES == (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
    times = Times().grid()
    assert times[0] == 0.0 and times[-1] == 200.0 and len(times) == 8001


def test_noiseless_cell_has_no_decay():
    cell = run_cell(0.0, 0.0, short_grid((0.0,), (0.0,)))
    assert cell.fit_status == "no-decay"
    assert math.isinf(cell.j0_t2_star)
    assert cell.q == 1.0


def test_cell_matches_manual_pipeline():
    grid = short_grid((0.3,), (0.1,))
    cell = run_cell(0.3, 0.1, grid)
    noise = NoiseSpec(sigma_e=0.3, sigma_j1=0.1, sigma_j2=0.1)
    trace = disorder_average_quadrature(ExchangeParams(), noise, "zero", SHORT_TIMES)
    fit = fit_trace(trace)
    assert cell.fit_status == fit.status == "converged"
    assert cell.j0_t2_star == fit.t2_star
    assert cell.alpha == fit.alpha
    assert cell.q == quality_factor(fit.t2_star)
    assert cell.q == math.exp(-1.0 / cell.j0_t2_star)


def test_score_maps_fit_errors_to_fit_failure(monkeypatch):
    trace = disorder_average_quadrature(ExchangeParams(), NoiseSpec(sigma_e=0.2), "zero", SHORT_TIMES)
    t2, q, alpha, status = score(trace)
    assert status == "converged" and q == pytest.approx(quality_factor(t2), rel=1e-12)

    def no_start(trace):
        raise RuntimeError("envelope fit failed to produce a finite objective from any start")

    monkeypatch.setattr("deoq_dyn.sweep.fit_trace", no_start)
    t2, q, alpha, status = score(trace)
    assert status == "fit-failure"
    assert math.isnan(t2) and math.isnan(q) and math.isnan(alpha)

    def broken(trace):
        raise TypeError("a programming error, not a fit problem")

    monkeypatch.setattr("deoq_dyn.sweep.fit_trace", broken)
    with pytest.raises(TypeError):
        score(trace)


def test_single_cell_sweep_equals_run_cell():
    grid = short_grid((0.2,), (0.1,))
    (swept,) = run_sweep(grid)
    direct = run_cell(0.2, 0.1, grid)
    assert swept == direct


def test_sweep_row_major_order_and_determinism():
    grid = short_grid((0.2, 0.4), (0.0, 0.1))
    cells = run_sweep(grid)
    assert [(c.sigma_e, c.sigma_j) for c in cells] == [
        (0.2, 0.0), (0.2, 0.1), (0.4, 0.0), (0.4, 0.1)
    ]
    assert run_sweep(grid) == cells


def test_coherence_decreases_along_charge_noise_row():
    grid = short_grid((0.2,), (0.0, 0.05, 0.1, 0.2))
    cells = run_sweep(grid)
    t2 = [c.j0_t2_star for c in cells]
    assert all(c.fit_status == "converged" for c in cells)
    assert all(b < a for a, b in zip(t2, t2[1:]))
    assert all(c.q < 1.0 for c in cells)


def test_grid_validation():
    with pytest.raises(ValueError, match="sigma_e_values"):
        SweepGrid(sigma_e_values=())
    with pytest.raises(ValueError, match="sigma_j_values"):
        SweepGrid(sigma_j_values=(0.1, 0.1))
    with pytest.raises(ValueError, match="sigma_e_values"):
        SweepGrid(sigma_e_values=(-0.1, 0.2))
    with pytest.raises(ValueError, match="initial"):
        SweepConfig(initial="plus")


def test_material_defaults():
    presets = default_material_presets()
    assert [p.name for p in presets] == ["28Si", "Si", "GaAs"]
    assert [p.sigma_e_floor_ev for p in presets] == [0.0, 3e-9, 1e-7]
    sj = default_material_sigma_j_ev()
    assert len(sj) == 20
    assert sj[0] == pytest.approx(0.003e-6, rel=1e-12)
    assert sj[-1] == pytest.approx(0.5e-6, rel=1e-12)
    assert np.all(np.diff(np.log(sj)) > 0)


def test_material_preset_validation():
    with pytest.raises(ValueError, match="sigma_e_floor"):
        MaterialPreset("X", -1e-9)
    with pytest.raises(ValueError, match="sigma_e_floor"):
        MaterialPreset("X", math.nan)


def test_suggested_time_grid_window():
    quiet = suggested_time_grid(NoiseSpec())
    assert quiet[-1] == 3000.0 and len(quiet) == 20001
    loud = suggested_time_grid(NoiseSpec(sigma_j1=5.0, sigma_j2=5.0))
    assert loud[-1] == 60.0
    mid = suggested_time_grid(NoiseSpec(sigma_e=0.1))
    assert mid[-1] == pytest.approx(120.0, rel=1e-12)
    # 40 samples per time unit
    assert mid[1] - mid[0] == pytest.approx(0.025, rel=1e-3)


def test_material_comparison_small_run():
    presets = (MaterialPreset("clean", 0.0), MaterialPreset("noisy", 1e-7))
    sj = (0.01e-6, 0.1e-6)
    rows = material_comparison(MaterialsConfig(presets=presets, sigma_j_values_ev=sj,
                                               both_initial_conditions=False))
    assert [(r.material, r.sigma_j_ev) for r in rows] == [
        ("clean", 0.01e-6), ("clean", 0.1e-6), ("noisy", 0.01e-6), ("noisy", 0.1e-6)
    ]
    assert all(r.initial_condition == "zero" for r in rows)
    assert all(r.fit_status == "converged" for r in rows)
    by = {(r.material, r.sigma_j_ev): r for r in rows}
    # the magnetic floor costs coherence where charge noise is weak
    assert by[("noisy", 0.01e-6)].t2_star_seconds < by[("clean", 0.01e-6)].t2_star_seconds
    # at strong charge noise the floor barely matters
    ratio = by[("noisy", 0.1e-6)].t2_star_seconds / by[("clean", 0.1e-6)].t2_star_seconds
    assert 0.7 < ratio <= 1.0
    assert material_comparison(MaterialsConfig(presets=presets, sigma_j_values_ev=sj,
                                               both_initial_conditions=False)) == rows


def test_material_comparison_both_initials_ordering():
    presets = (MaterialPreset("clean", 0.0),)
    rows = material_comparison(MaterialsConfig(presets=presets, sigma_j_values_ev=(0.1e-6,)))
    assert [r.initial_condition for r in rows] == ["zero", "superposition"]
    assert all(r.material == "clean" for r in rows)


def test_material_points_build_one_node_set_and_one_pass(monkeypatch):
    """Both initial states of a material point share its node set and one
    evaluator pass: 2 presets x 2 widths build 4 node sets and make 4
    evaluator calls, not 8 of each."""
    counts = {"nodes": 0, "passes": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(polar, "reduced_nodes", "nodes")
    counted(disorder, "_evaluate", "passes")
    presets = (MaterialPreset("Si", 3e-9), MaterialPreset("GaAs", 1e-7))
    rows = material_comparison(MaterialsConfig(presets=presets, sigma_j_values_ev=(0.05e-6, 0.1e-6)))
    assert len(rows) == 8
    assert counts == {"nodes": 4, "passes": 4}


def test_material_zero_floor_matches_pure_charge_pipeline():
    rows = material_comparison(MaterialsConfig(
        presets=(MaterialPreset("clean", 0.0),),
        sigma_j_values_ev=(0.1e-6,),
        both_initial_conditions=False,
    ))
    noise = NoiseSpec(sigma_j1=0.1, sigma_j2=0.1)
    times = suggested_time_grid(noise)
    trace = disorder_average_quadrature(ExchangeParams(), noise, "zero", times)
    fit = fit_trace(trace)
    row = rows[0]
    assert row.j0_t2_star == fit.t2_star
    assert row.alpha == fit.alpha
    assert row.t2_star_seconds == to_physical_time(fit.t2_star, PhysicalScale(1e-6))
