"""Parameter sweeps over noise strengths and material presets.

Each cell of a (sigma_e, sigma_j) grid runs the full pipeline: quadrature
disorder average, envelope extraction, stretched-exponential fit, quality
factor.  Charge noise is applied symmetrically, sigma_j1 = sigma_j2 =
sigma_j.  Material presets fix the magnetic-noise floor in eV and compare
coherence times across a charge-noise range in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import PhysicalScale, fit_trace, quality_factor, to_physical_time
from .disorder import NoiseSpec, ProbabilityTrace, QuadratureSpec, _quadrature_traces, disorder_average_quadrature
from .qubit import ExchangeParams

DEFAULT_SIGMA_E_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_SIGMA_J_VALUES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)

DEFAULT_J0_EV = 1e-6


def default_time_grid() -> np.ndarray:
    """Uniform grid to t = 200 hbar/j0 at 40 samples per time unit."""
    return np.linspace(0.0, 200.0, 8001)


def default_material_presets() -> tuple["MaterialPreset", ...]:
    """Magnetic-noise floors: isotopically purified 28Si, natural Si, GaAs."""
    return (
        MaterialPreset("28Si", 0.0),
        MaterialPreset("Si", 3e-9),
        MaterialPreset("GaAs", 1e-7),
    )


def default_material_sigma_j_ev() -> np.ndarray:
    """20 logarithmic charge-noise widths from 0.003 to 0.5 microeV."""
    return np.geomspace(0.003e-6, 0.5e-6, 20)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (sigma_e, sigma_j) grid plus everything a cell needs.

    quadrature=None sizes node counts per cell from the grid's time window;
    a fixed QuadratureSpec is honored as given.
    """

    sigma_e_values: Sequence[float] = DEFAULT_SIGMA_E_VALUES
    sigma_j_values: Sequence[float] = DEFAULT_SIGMA_J_VALUES
    initial: str = "zero"
    params: ExchangeParams = ExchangeParams()
    times: np.ndarray = field(default_factory=default_time_grid)
    quadrature: Optional[QuadratureSpec] = None

    def __post_init__(self) -> None:
        for name in ("sigma_e_values", "sigma_j_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) == 0:
                raise ValueError(f"{name} must be non-empty")
            if any(not math.isfinite(v) or v < 0 for v in vals):
                raise ValueError(f"{name} must be finite and >= 0")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, vals)
        if self.initial not in ("zero", "superposition"):
            raise ValueError(f"initial must be 'zero' or 'superposition', got {self.initial!r}")
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))


@dataclass(frozen=True)
class SweepCell:
    """One grid point: dimensionless coherence time and quality factor.

    j0_t2_star is +inf for no-decay cells (then q = 1) and nan when the fit
    had too few envelope points or failed, with fit_status saying which.
    """

    sigma_e: float
    sigma_j: float
    j0_t2_star: float
    q: float
    fit_status: str
    alpha: float


@dataclass(frozen=True)
class MaterialPreset:
    """A host material, reduced to its magnetic-noise floor in eV."""

    name: str
    sigma_e_floor_ev: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("preset name must be a non-empty string")
        if not (math.isfinite(self.sigma_e_floor_ev) and self.sigma_e_floor_ev >= 0):
            raise ValueError(f"sigma_e_floor_ev must be finite and >= 0, got {self.sigma_e_floor_ev!r}")


@dataclass(frozen=True)
class MaterialPoint:
    """One material-comparison row, coherence time in seconds."""

    material: str
    sigma_j_ev: float
    initial_condition: str
    t2_star_seconds: float
    j0_t2_star: float
    alpha: float
    fit_status: str


def suggested_time_grid(noise: NoiseSpec) -> np.ndarray:
    """Time window matched to the expected dephasing rate of a noise spec.

    The oscillation frequency responds to (j1, j2, delta_e) with gradient
    components bounded by 1, giving a frequency spread of roughly
    sqrt(1.25 sigma_j^2 + 0.5 sigma_e^2) at the default working point and a
    Gaussian-dephasing time near sqrt(2) over that.  Six of those fit in the
    window (clamped to [60, 3000]) so both the decay and the asymptote are
    sampled; resolution is 40 samples per time unit up to 20000 intervals.
    """
    var = 1.25 * (noise.sigma_j1 ** 2 + noise.sigma_j2 ** 2) / 2.0 + 0.5 * noise.sigma_e ** 2
    if var > 0:
        t_max = 6.0 * math.sqrt(2.0) / math.sqrt(var)
        t_max = min(3000.0, max(60.0, t_max))
    else:
        t_max = 3000.0
    n = min(int(t_max / 0.025), 20000)
    return np.linspace(0.0, t_max, n + 1)


def score(trace: ProbabilityTrace) -> tuple[float, float, float, str]:
    """Fit a trace and reduce it to (j0_t2_star, q, alpha, fit_status).

    Fit problems never raise: too few envelope points ("insufficient-peaks")
    and a fit that cannot run ("fit-failure", fit_trace raising RuntimeError
    or ValueError) come back with nan results.  No-decay gives t2 = inf,
    q = 1.
    """
    try:
        fit = fit_trace(trace)
    except (RuntimeError, ValueError):
        return math.nan, math.nan, math.nan, "fit-failure"
    if fit.status == "insufficient-peaks":
        return math.nan, math.nan, math.nan, fit.status
    return fit.t2_star, quality_factor(fit.t2_star), fit.alpha, fit.status


def run_cell(sigma_e: float, sigma_j: float, config: SweepGrid) -> SweepCell:
    """Average, fit, and score a single (sigma_e, sigma_j) grid point.

    Fit problems never raise; see ``score``.
    """
    noise = NoiseSpec(
        sigma_e=float(sigma_e),
        sigma_j1=float(sigma_j),
        sigma_j2=float(sigma_j),
        j01=config.params.j1,
        j02=config.params.j2,
    )
    trace = disorder_average_quadrature(
        config.params, noise, config.initial, config.times, q=config.quadrature
    )
    t2, q, alpha, status = score(trace)
    return SweepCell(float(sigma_e), float(sigma_j), t2, q, status, alpha)


def run_sweep(grid: SweepGrid) -> list[SweepCell]:
    """All grid cells, row-major by sigma_e then sigma_j, computed one after another."""
    return [run_cell(se, sj, grid) for se in grid.sigma_e_values for sj in grid.sigma_j_values]


def material_comparison(
    presets: Sequence[MaterialPreset] = None,
    sigma_j_values_ev: Sequence[float] = None,
    j0_ev: float = DEFAULT_J0_EV,
    both_initial_conditions: bool = True,
    params: ExchangeParams = ExchangeParams(),
) -> list[MaterialPoint]:
    """Physical coherence times per (material, charge-noise width, initial).

    Noise widths arrive in eV and are reduced by j0_ev to simulation units;
    results convert back through the same scale.  Each point picks its own
    time window from the expected dephasing rate, so microsecond-scale decays
    (28Si at small sigma_j) and nanosecond-scale ones resolve equally.  The
    initial conditions of a point share one node set and one evaluator pass.
    Rows are ordered preset-major, then sigma_j, then initial condition.
    """
    if presets is None:
        presets = default_material_presets()
    if sigma_j_values_ev is None:
        sigma_j_values_ev = default_material_sigma_j_ev()
    scale = PhysicalScale(j0_ev)
    initials = ("zero", "superposition") if both_initial_conditions else ("zero",)
    rows: list[MaterialPoint] = []
    for preset in presets:
        sigma_e = preset.sigma_e_floor_ev / j0_ev
        for sj_ev in sigma_j_values_ev:
            sigma_j = float(sj_ev) / j0_ev
            noise = NoiseSpec(
                sigma_e=sigma_e,
                sigma_j1=sigma_j,
                sigma_j2=sigma_j,
                j01=params.j1,
                j02=params.j2,
            )
            times = suggested_time_grid(noise)
            for initial, trace in zip(initials, _quadrature_traces(params, noise, initials, times)):
                t2, _, alpha, status = score(trace)
                # nan (no fit) and inf (no decay) pass through the unit conversion
                t2_seconds = to_physical_time(t2, scale)
                rows.append(MaterialPoint(preset.name, float(sj_ev), initial, t2_seconds, t2, alpha, status))
    return rows
