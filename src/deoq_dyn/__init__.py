"""Coherence of a double-dot exchange-only spin qubit under static noise.

Free evolution of the two-level logical subspace is solved in closed form;
magnetic (field-gradient) and charge (exchange-coupling) disorder is
averaged by deterministic quadrature or Monte Carlo; the decaying envelope
of the return probability yields T2* and the quality factor Q, with
conversions to physical seconds for a given exchange energy scale.
"""

from .analysis import (
    HBAR_EV_S,
    EnvelopeFit,
    PhysicalScale,
    extract_upper_envelope,
    fit_envelope,
    fit_trace,
    quality_factor,
    to_physical_time,
)
from .disorder import (
    NoiseSpec,
    NumericalError,
    ProbabilityTrace,
    QuadratureSpec,
    disorder_average_mc,
    disorder_average_quadrature,
    pdf_delta_e,
    pdf_exchange,
    sample_noise,
)
from .qubit import (
    ExchangeParams,
    build_full_hamiltonian,
    build_logical_hamiltonian,
    evolve,
    logical_basis_vectors,
    oscillation_terms,
    propagator,
    return_probability_superposition,
    return_probability_zero,
)
from .sweep import (
    MaterialPoint,
    MaterialPreset,
    MaterialsConfig,
    SweepCell,
    SweepConfig,
    SweepGrid,
    Times,
    default_material_presets,
    default_material_sigma_j_ev,
    material_comparison,
    run_cell,
    run_sweep,
    suggested_time_grid,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_EV_S",
    "EnvelopeFit",
    "ExchangeParams",
    "MaterialPoint",
    "MaterialPreset",
    "MaterialsConfig",
    "NoiseSpec",
    "NumericalError",
    "PhysicalScale",
    "ProbabilityTrace",
    "QuadratureSpec",
    "SweepCell",
    "SweepConfig",
    "SweepGrid",
    "Times",
    "build_full_hamiltonian",
    "build_logical_hamiltonian",
    "default_material_presets",
    "default_material_sigma_j_ev",
    "disorder_average_mc",
    "disorder_average_quadrature",
    "evolve",
    "extract_upper_envelope",
    "fit_envelope",
    "fit_trace",
    "logical_basis_vectors",
    "material_comparison",
    "oscillation_terms",
    "pdf_delta_e",
    "pdf_exchange",
    "propagator",
    "quality_factor",
    "return_probability_superposition",
    "return_probability_zero",
    "run_cell",
    "run_sweep",
    "sample_noise",
    "suggested_time_grid",
    "to_physical_time",
]
