"""Command-line interface: simulate, fit, sweep, materials.

Each run takes a JSON config and writes one output file (CSV for traces and
tables, JSON for fit reports).  Every output embeds the fully resolved
config that produced it (a trailing ``# config=...`` line in CSV, a
``config`` key in JSON), so any result can be reproduced bit-for-bit from
the file alone.  Exit codes: 0 success, 2 invalid input, 3 I/O failure,
4 internal numerical failure.

Config blocks are read straight into the package's dataclasses by one
reader, ``_read``, and the echo is built from those same objects, so the
config that runs a command and the config it writes cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from .analysis import PhysicalScale, extract_upper_envelope, fit_trace, quality_factor
from .disorder import (
    NoiseSpec,
    NumericalError,
    ProbabilityTrace,
    QuadratureSpec,
    disorder_average_mc,
    disorder_average_quadrature,
)
from .qubit import ExchangeParams
from .sweep import (
    DEFAULT_J0_EV,
    MaterialPreset,
    SweepGrid,
    default_material_presets,
    default_material_sigma_j_ev,
    material_comparison,
    run_sweep,
)

SCHEMA_VERSION = "1"
TRACE_HEADER = "t,t_seconds,p,p_stderr"
SWEEP_HEADER = "sigma_e,sigma_j,j0_t2_star,t2_star_seconds,q,alpha,status"
MATERIALS_HEADER = "material,sigma_j_ev,initial_condition,t2_star_seconds"

_DEFAULT_N_SAMPLES = 100000


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class _Times:
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


_KINDS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string", list: "a list"}


def _typed(value, kind: type, name: str):
    """``value`` if it is a JSON value of ``kind`` (ints widen to float); null never is."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _numbers(values, name: str) -> list:
    """A JSON list of numbers, each entry typed like a float field."""
    return [_typed(v, float, f"{name} entry") for v in _typed(values, list, name)]


def _get(cfg: dict, key: str, default):
    """Top-level ``key``, typed like ``default``, or ``default`` when absent."""
    return _typed(cfg[key], type(default), f"config.{key}") if key in cfg else default


def _require_keys(d, allowed, context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {context}")


def _read(cls, d, context: str, **defaults):
    """Build dataclass ``cls`` from the JSON object ``d``.

    Keys must be field names; each value must have the type of the field's
    default.  Missing keys take ``defaults``, then the field defaults, and
    the dataclass itself validates the values.
    """
    kinds = {f.name: type(f.default) for f in fields(cls)}
    _require_keys(d, kinds, context)
    values = {**defaults, **{k: _typed(v, kinds[k], f"{context}.{k}") for k, v in d.items()}}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _quadrature(cfg: dict) -> Optional[QuadratureSpec]:
    """The optional ``quadrature`` block; absent or null sizes nodes adaptively."""
    d = cfg.get("quadrature")
    return None if d is None else _read(QuadratureSpec, d, "quadrature")


def _initial(cfg: dict, default: str = "zero") -> str:
    initial = cfg.get("initial", default)
    if initial not in ("zero", "superposition"):
        raise ConfigError(f"initial must be 'zero' or 'superposition', got {initial!r}")
    return initial


def _j0_ev(cfg: dict, default: Optional[float], nullable: bool = False) -> Optional[float]:
    """Top-level ``j0_ev`` in eV; where ``nullable``, null or no value at all means none."""
    j0_ev = cfg.get("j0_ev", default)
    if j0_ev is None and nullable:
        return None
    j0_ev = _typed(j0_ev, float, "config.j0_ev")
    if not (math.isfinite(j0_ev) and j0_ev > 0):
        raise ConfigError(f"j0_ev must be finite and > 0, got {j0_ev!r}")
    return j0_ev


def _check_config(cfg: dict, allowed: tuple, command: str) -> None:
    """Top-level keys must be ``allowed``; a declared command must be ``command``."""
    _require_keys(cfg, allowed, "config")
    declared = cfg.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")


def _echo(**entries) -> dict:
    """Resolved config: dataclasses become their fields, None entries are left out."""
    return {k: asdict(v) if is_dataclass(v) else v for k, v in entries.items() if v is not None}


def _fmt(x) -> str:
    """9 significant digits; empty for missing values."""
    if x is None:
        return ""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.9g}"


def _json_value(x):
    if x is None or not math.isfinite(x):
        return None
    return x


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and ``os.replace``,
    so a failed run leaves no partial file and any earlier file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, lines: list, echo: dict) -> None:
    lines.append("# config=" + json.dumps(echo, sort_keys=True, separators=(",", ":")))
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- simulate


_SIMULATE_KEYS = (
    "command", "params", "noise", "initial", "times", "quadrature",
    "method", "seed", "n_samples", "j0_ev", "check_convergence",
)


def _simulate(cfg: dict, args) -> tuple[dict, ProbabilityTrace]:
    """Validate a simulate config, run it, and return (echo, trace)."""
    _check_config(cfg, _SIMULATE_KEYS, "simulate")
    method = cfg.get("method", "quadrature")
    if args is not None and args.method is not None:
        method = args.method
    if method not in ("quadrature", "mc"):
        raise ConfigError(f"method must be 'quadrature' or 'mc', got {method!r}")
    params = _read(ExchangeParams, cfg.get("params", {}), "params")
    noise = _read(NoiseSpec, cfg.get("noise", {}), "noise", j01=params.j1, j02=params.j2)
    quad = _quadrature(cfg)
    times = _read(_Times, cfg.get("times", {}), "times")
    check = _get(cfg, "check_convergence", False)
    initial = _initial(cfg)
    seed = n_samples = None
    if method == "mc":
        seed = _get(cfg, "seed", 0)
        if args is not None and args.seed is not None:
            seed = args.seed
        n_samples = _get(cfg, "n_samples", _DEFAULT_N_SAMPLES)
        if args is not None and args.samples is not None:
            n_samples = args.samples
        if n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {n_samples!r}")
    j0_ev = _j0_ev(cfg, None, nullable=True)
    echo = _echo(
        command="simulate", method=method, params=params, noise=noise, initial=initial,
        times=times, check_convergence=check, quadrature=quad, seed=seed,
        n_samples=n_samples, j0_ev=j0_ev,
    )
    if method == "mc":
        trace = disorder_average_mc(params, noise, initial, times.grid(), n_samples, seed)
    else:
        trace = disorder_average_quadrature(
            params, noise, initial, times.grid(), q=quad, check_convergence=check
        )
        if "warning" in trace.metadata:
            print(f"deoq-dyn: warning: {trace.metadata['warning']}", file=sys.stderr)
    return echo, trace


def cmd_simulate(cfg: dict, out_path: str, args=None) -> int:
    """Write a disorder-averaged trace as CSV."""
    echo, trace = _simulate(cfg, args)
    j0_ev = echo.get("j0_ev")
    scale = PhysicalScale(j0_ev) if j0_ev is not None else None
    errs = trace.mc_std_errors
    lines = [TRACE_HEADER]
    for k, t in enumerate(trace.times):
        t_s = _fmt(t * scale.time_unit_s) if scale is not None else ""
        err = _fmt(errs[k]) if errs is not None else ""
        lines.append(f"{_fmt(t)},{t_s},{_fmt(trace.values[k])},{err}")
    _write_csv(out_path, lines, echo)
    return 0


# --------------------------------------------------------------------- fit


_FIT_KEYS = ("command", "trace_file", "simulate", "initial", "j0_ev")


def _read_trace_csv(path: str):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"trace file must start with header {TRACE_HEADER!r}")
    echo = None
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        if ln.startswith("#"):
            if ln.startswith("# config="):
                echo = json.loads(ln[len("# config="):])
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise ConfigError(f"malformed trace row {ln!r}")
        try:
            t = float(parts[0])
            p = float(parts[2])
            err = float(parts[3]) if parts[3] != "" else None
        except ValueError as exc:
            raise ConfigError(f"malformed trace row {ln!r}") from exc
        rows.append((t, p, err))
    if not rows:
        raise ConfigError("trace file contains no data rows")
    return rows, echo


def cmd_fit(cfg: dict, out_path: str, args=None) -> int:
    """Fit the upper envelope of a trace (from file or inline simulate)."""
    _check_config(cfg, _FIT_KEYS, "fit")
    has_file = "trace_file" in cfg
    has_inline = "simulate" in cfg
    if has_file == has_inline:
        raise ConfigError("config must provide exactly one of trace_file or simulate")

    if has_inline:
        sim_echo, trace = _simulate(cfg["simulate"], args)
        j0_ev = _j0_ev(cfg, sim_echo.get("j0_ev"), nullable=True)
        echo = {"command": "fit", "simulate": sim_echo}
    else:
        path = cfg["trace_file"]
        if not isinstance(path, str):
            raise ConfigError(f"trace_file must be a string path, got {path!r}")
        rows, file_echo = _read_trace_csv(path)
        times = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        errs = [r[2] for r in rows]
        mc_errs = np.array(errs, dtype=float) if all(e is not None for e in errs) else None
        file_echo = file_echo or {}
        initial = _initial(cfg, file_echo.get("initial", "zero"))
        j0_ev = _j0_ev(cfg, file_echo.get("j0_ev"), nullable=True)
        params = _read(ExchangeParams, file_echo.get("params", {}), "params")
        noise = _read(NoiseSpec, file_echo.get("noise", {}), "noise", j01=params.j1, j02=params.j2)
        try:
            trace = ProbabilityTrace(
                times=times, values=values, initial=initial,
                method=file_echo.get("method", "file"), params=params, noise=noise,
                mc_std_errors=mc_errs,
            )
        except ValueError as exc:
            raise ConfigError(f"trace file: {exc}") from exc
        echo = {"command": "fit", "trace_file": path, "initial": initial}
    if j0_ev is not None:
        echo["j0_ev"] = j0_ev

    fit = fit_trace(trace)
    out = {k: _json_value(getattr(fit, k)) for k in ("p_infinity", "p_start", "t2_star", "alpha", "sse")}
    out["status"] = fit.status
    out["q"] = None if fit.status == "insufficient-peaks" else _json_value(quality_factor(fit.t2_star))
    out["t2_star_seconds"] = None
    if j0_ev is not None and math.isfinite(fit.t2_star):
        out["t2_star_seconds"] = _json_value(fit.t2_star * PhysicalScale(j0_ev).time_unit_s)
    if fit.status == "insufficient-peaks":
        out["n_envelope_points"] = len(extract_upper_envelope(trace))
    report = {"schema_version": SCHEMA_VERSION, "config": echo, "fit": out}
    _write_atomic(out_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------------- sweep


_SWEEP_KEYS = ("command", "grid", "params", "initial", "times", "quadrature", "j0_ev")


def cmd_sweep(cfg: dict, out_path: str, args=None) -> int:
    """Run a (sigma_e, sigma_j) grid and write the T2*/Q map as CSV."""
    _check_config(cfg, _SWEEP_KEYS, "sweep")
    grid_cfg = cfg.get("grid", {})
    _require_keys(grid_cfg, ("sigma_e_values", "sigma_j_values"), "grid")
    params = _read(ExchangeParams, cfg.get("params", {}), "params")
    times = _read(_Times, cfg.get("times", {}), "times")
    quad = _quadrature(cfg)
    grid_cfg = {key: _numbers(values, f"grid.{key}") for key, values in grid_cfg.items()}
    try:
        grid = SweepGrid(
            **grid_cfg, initial=_initial(cfg), params=params, times=times.grid(), quadrature=quad
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc
    j0_ev = _j0_ev(cfg, DEFAULT_J0_EV)
    echo = _echo(
        command="sweep",
        grid={"sigma_e_values": list(grid.sigma_e_values),
              "sigma_j_values": list(grid.sigma_j_values)},
        params=params, initial=grid.initial, times=times, j0_ev=j0_ev, quadrature=quad,
    )
    unit_s = PhysicalScale(j0_ev).time_unit_s
    lines = [SWEEP_HEADER]
    for c in run_sweep(grid):
        # inf and nan (no decay, failed fit) carry through the product unchanged
        lines.append(
            f"{_fmt(c.sigma_e)},{_fmt(c.sigma_j)},{_fmt(c.j0_t2_star)},"
            f"{_fmt(c.j0_t2_star * unit_s)},{_fmt(c.q)},{_fmt(c.alpha)},{c.fit_status}"
        )
    _write_csv(out_path, lines, echo)
    return 0


# --------------------------------------------------------------- materials


_MATERIALS_KEYS = (
    "command", "presets", "sigma_j_values_ev", "j0_ev", "both_initial_conditions", "params",
)


def _presets(cfg: dict) -> tuple:
    entries = cfg.get("presets")
    if entries is None:
        return default_material_presets()
    if not isinstance(entries, list) or not entries:
        raise ConfigError("presets must be a non-empty list")
    presets = []
    for entry in entries:
        _require_keys(entry, ("name", "sigma_e_floor_ev"), "presets entry")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"preset name must be a non-empty string, got {name!r}")
        if entry.get("sigma_e_floor_ev") is None:
            raise ConfigError(f"preset {name!r} needs sigma_e_floor_ev")
        floor = _typed(entry["sigma_e_floor_ev"], float, "presets entry.sigma_e_floor_ev")
        try:
            presets.append(MaterialPreset(name, floor))
        except ValueError as exc:
            raise ConfigError(f"preset {name!r}: {exc}") from exc
    return tuple(presets)


def cmd_materials(cfg: dict, out_path: str, args=None) -> int:
    """Compare material presets across charge-noise widths; write CSV."""
    _check_config(cfg, _MATERIALS_KEYS, "materials")
    params = _read(ExchangeParams, cfg.get("params", {}), "params")
    j0_ev = _j0_ev(cfg, DEFAULT_J0_EV)
    both = _get(cfg, "both_initial_conditions", True)
    presets = _presets(cfg)
    sj_values = cfg.get("sigma_j_values_ev")
    if sj_values is None:
        sj_values = default_material_sigma_j_ev()
    elif not sj_values or not all(v > 0 for v in _numbers(sj_values, "sigma_j_values_ev")):
        raise ConfigError("sigma_j_values_ev must be a non-empty list of positive numbers")
    sj_values = [float(v) for v in sj_values]

    rows = material_comparison(
        presets=presets,
        sigma_j_values_ev=sj_values,
        j0_ev=j0_ev,
        both_initial_conditions=both,
        params=params,
    )
    echo = _echo(
        command="materials",
        presets=[{"name": p.name, "sigma_e_floor_ev": p.sigma_e_floor} for p in presets],
        sigma_j_values_ev=sj_values, j0_ev=j0_ev, both_initial_conditions=both, params=params,
    )
    lines = [MATERIALS_HEADER]
    for r in rows:
        lines.append(f"{r.material},{_fmt(r.sigma_j_ev)},{r.initial_condition},{_fmt(r.t2_star_seconds)}")
    _write_csv(out_path, lines, echo)
    return 0


# -------------------------------------------------------------------- main


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "sweep": cmd_sweep,
    "materials": cmd_materials,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deoq-dyn",
        description="Exchange-only qubit coherence under quasi-static noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
        p.add_argument("--method", choices=("quadrature", "mc"), default=None,
                       help="averaging method override")
        p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("sweep", "materials") and (
        args.seed is not None or args.method is not None or args.samples is not None
    ):
        print(f"deoq-dyn {args.command}: --seed/--method/--samples do not apply", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"deoq-dyn: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"deoq-dyn: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("deoq-dyn: config must be a JSON object", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args.out, args)
    except ValueError as exc:
        print(f"deoq-dyn: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"deoq-dyn: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"deoq-dyn: internal numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
