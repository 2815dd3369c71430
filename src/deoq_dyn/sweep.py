"""Parameter sweeps over noise strengths and material presets.

Each cell of a (sigma_e, sigma_j) grid runs the full pipeline: quadrature
disorder average, envelope extraction, stretched-exponential fit, quality
factor.  Charge noise is applied symmetrically, sigma_j1 = sigma_j2 =
sigma_j.  Material presets fix the magnetic-noise floor in eV and compare
coherence times across a charge-noise range in physical units.

Each run takes one config object, ``SweepConfig`` or ``MaterialsConfig``,
whose fields are the keys of the CLI command that runs it, with the same
defaults; the command echoes that object into its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .analysis import PhysicalScale, fit_trace, quality_factor, to_physical_time
from .disorder import NoiseSpec, ProbabilityTrace, QuadratureSpec, _quadrature_traces, disorder_average_quadrature
from .qubit import ExchangeParams

DEFAULT_SIGMA_E_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_SIGMA_J_VALUES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)

DEFAULT_J0_EV = 1e-6

_Initial = Literal["zero", "superposition"]


@dataclass(frozen=True)
class MaterialPreset:
    """A host material, reduced to its magnetic-noise floor in eV.

    The name is a field of a CSV row, so it may not hold a comma or a line
    break, nor start with the comment mark ``#``.
    """

    name: str
    sigma_e_floor_ev: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("preset name must be a non-empty string")
        if self.name.startswith("#") or any(c in self.name for c in ",\r\n"):
            raise ValueError(f"preset name {self.name!r} must not start with '#' or hold a comma or line break")
        if not (math.isfinite(self.sigma_e_floor_ev) and self.sigma_e_floor_ev >= 0):
            raise ValueError(f"sigma_e_floor_ev must be finite and >= 0, got {self.sigma_e_floor_ev!r}")


def default_material_presets() -> tuple[MaterialPreset, ...]:
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
class Times:
    """The ``times`` block: a uniform grid from 0 to t_max (hbar/j0 units)."""

    t_max: float = 200.0
    n_points: int = 8001

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max!r}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class SweepGrid:
    """The sweep's ``grid`` block: non-empty, strictly increasing widths, each finite and >= 0."""

    sigma_e_values: list[float] = DEFAULT_SIGMA_E_VALUES
    sigma_j_values: list[float] = DEFAULT_SIGMA_J_VALUES

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


@dataclass(frozen=True)
class SweepConfig:
    """The ``sweep`` config: a (sigma_e, sigma_j) grid and everything a cell needs.

    quadrature=None sizes node counts per cell from the time window; a fixed
    QuadratureSpec is honored as given.  j0_ev only converts T2* to seconds.
    """

    command: Optional[Literal["sweep"]] = "sweep"
    grid: SweepGrid = SweepGrid()
    params: ExchangeParams = ExchangeParams()
    initial: _Initial = "zero"
    times: Times = Times()
    quadrature: Optional[QuadratureSpec] = None
    j0_ev: float = DEFAULT_J0_EV

    def __post_init__(self) -> None:
        if self.initial not in ("zero", "superposition"):
            raise ValueError(f"initial must be 'zero' or 'superposition', got {self.initial!r}")


@dataclass(frozen=True)
class MaterialsConfig:
    """The ``materials`` config: presets, charge-noise widths in eV and the eV scale j0_ev.

    Null presets or widths in a JSON config mean the defaults.
    """

    command: Optional[Literal["materials"]] = "materials"
    presets: Optional[list[MaterialPreset]] = default_material_presets()
    sigma_j_values_ev: Optional[list[float]] = tuple(map(float, default_material_sigma_j_ev()))
    j0_ev: float = DEFAULT_J0_EV
    both_initial_conditions: bool = True
    params: ExchangeParams = ExchangeParams()

    def __post_init__(self) -> None:
        if not self.presets:
            raise ValueError("presets must be a non-empty list")
        if not (self.sigma_j_values_ev and all(v > 0 for v in self.sigma_j_values_ev)):
            raise ValueError("sigma_j_values_ev must be a non-empty list of positive numbers")


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
class MaterialPoint:
    """One material-comparison row, coherence time in seconds."""

    material: str
    sigma_j_ev: float
    initial_condition: str
    t2_star_seconds: float
    j0_t2_star: float
    alpha: float
    fit_status: str


def _noise(sigma_e: float, sigma_j: float, params: ExchangeParams) -> NoiseSpec:
    """A cell's noise: sigma_j on both couplings, whose means are those of params."""
    return NoiseSpec(float(sigma_e), float(sigma_j), float(sigma_j), params.j1, params.j2)


def _material_noises(config: MaterialsConfig):
    """(preset, sigma_j_ev, noise) of each material point, preset-major, widths reduced by j0_ev."""
    for preset in config.presets:
        for sj_ev in map(float, config.sigma_j_values_ev):
            yield preset, sj_ev, _noise(preset.sigma_e_floor_ev / config.j0_ev, sj_ev / config.j0_ev, config.params)


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


def run_cell(sigma_e: float, sigma_j: float, config: SweepConfig) -> SweepCell:
    """Average, fit, and score a single (sigma_e, sigma_j) grid point.

    Fit problems never raise; see ``score``.
    """
    trace = disorder_average_quadrature(
        config.params, _noise(sigma_e, sigma_j, config.params), config.initial, config.times.grid(),
        q=config.quadrature,
    )
    t2, q, alpha, status = score(trace)
    return SweepCell(float(sigma_e), float(sigma_j), t2, q, status, alpha)


def run_sweep(config: SweepConfig) -> list[SweepCell]:
    """All grid cells, row-major by sigma_e then sigma_j, computed one after another."""
    return [run_cell(se, sj, config) for se in config.grid.sigma_e_values for sj in config.grid.sigma_j_values]


def material_comparison(config: MaterialsConfig) -> list[MaterialPoint]:
    """Physical coherence times per (material, charge-noise width, initial).

    Noise widths arrive in eV and are reduced by j0_ev to simulation units;
    results convert back through the same scale.  Each point picks its own
    time window from the expected dephasing rate, so microsecond-scale decays
    (28Si at small sigma_j) and nanosecond-scale ones resolve equally.  The
    initial conditions of a point share one node set and one evaluator pass.
    Rows are ordered preset-major, then sigma_j, then initial condition.
    """
    scale = PhysicalScale(config.j0_ev)
    initials = ("zero", "superposition") if config.both_initial_conditions else ("zero",)
    rows: list[MaterialPoint] = []
    for preset, sj_ev, noise in _material_noises(config):
        traces = _quadrature_traces(config.params, noise, initials, suggested_time_grid(noise))
        for initial, trace in zip(initials, traces):
            t2, _, alpha, status = score(trace)
            # nan (no fit) and inf (no decay) pass through the unit conversion
            t2_seconds = to_physical_time(t2, scale)
            rows.append(MaterialPoint(preset.name, sj_ev, initial, t2_seconds, t2, alpha, status))
    return rows
