"""Command-line interface: simulate, fit, sweep, materials.

Each run takes a JSON config and writes one output file (CSV for traces and
tables, JSON for fit reports).  Every output embeds the fully resolved
config that produced it (a trailing ``# config=...`` line in CSV, a
``config`` key in JSON), so any result can be reproduced bit-for-bit from
the file alone.  Exit codes: 0 success, 2 invalid input, 3 I/O failure,
4 internal numerical failure.

Config model: each command has one frozen dataclass whose fields are the
command's keys with their defaults, and whose nested blocks are the
package's own dataclasses: ``SimulateConfig`` and ``FitConfig`` here,
``SweepConfig`` and ``MaterialsConfig`` in ``sweep``.  One reader, ``_read``,
builds it from the JSON object by the field annotations.  The command runs
from the object it read: ``sweep.run_sweep`` and
``sweep.material_comparison`` take theirs as it is, so a table run has no
second model or second set of defaults.  The echo is ``asdict`` of that
object with None entries left out, so the config that runs a command and
the config it writes cannot drift apart.  ``--method``, ``--seed`` and
``--samples`` override the keys of the simulate config that runs (the
top-level one, or ``fit``'s inline ``simulate`` block).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

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
from .sweep import MaterialsConfig, SweepConfig, Times, _Initial, material_comparison, run_sweep

SCHEMA_VERSION = "1"
TRACE_HEADER = "t,t_seconds,p,p_stderr"
SWEEP_HEADER = "sigma_e,sigma_j,j0_t2_star,t2_star_seconds,q,alpha,status"
MATERIALS_HEADER = "material,sigma_j_ev,initial_condition,t2_star_seconds"

# trace rows per piece of a simulate CSV, written as it is formatted: 8,001
# rows go out in 8 pieces of 17-48 KB, not as one string of 0.16-0.38 MB
_ROWS_PER_PIECE = 1024


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


_KINDS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string", list: "a list"}


def _typed(value, kind: type, name: str):
    """``value`` if it is a JSON value of ``kind`` (ints widen to float); null never is."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _value(value, kind, name: str):
    """``value`` read as the annotation ``kind``."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]; _read has already dropped a null
        return _value(value, args[0], name)
    if origin is Literal:
        if value not in args:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, args))}, got {value!r}")
        return value
    if origin is list:
        return [_value(v, args[0], f"{name}[{k}]") for k, v in enumerate(_typed(value, list, name))]
    return _read(kind, value, name) if is_dataclass(kind) else _typed(value, kind, name)


def _read(cls, d, context: str):
    """Build the dataclass ``cls`` from the JSON object ``d``.

    Keys must be field names, and each value must fit its field's
    annotation: a nested dataclass reads from an object, ``list[X]`` from a
    list of X, ``Literal[...]`` from one of its values, and ``Optional[X]``
    also from null, which stands for the field's default.  Missing keys take
    the defaults and the dataclass validates the values.  A class with a
    ``resolved`` method gets the object back to fill defaults that depend
    on other keys.  This module's classes resolve their annotations in its
    own globals, not in ``sys.modules["__main__"]``, which is the tool's
    module when a tool runs this one, as ``python -m cProfile -m
    deoq_dyn.cli`` does.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a JSON object")
    kinds = get_type_hints(cls, globals() if cls.__module__ == __name__ else None)
    for key in d:
        if key not in kinds:
            raise ConfigError(f"unknown key {key!r} in {context}")
    values = {k: _value(v, kinds[k], f"{context}.{k}") for k, v in d.items()
              if v is not None or type(None) not in get_args(kinds[k])}
    missing = [f.name for f in fields(cls)
               if f.name not in values and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{context} needs {', '.join(missing)}")
    try:
        obj = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return obj.resolved(d) if hasattr(obj, "resolved") else obj


def _echo(cfg) -> dict:
    """The config that ran: ``asdict`` of it, None entries left out."""
    return asdict(cfg, dict_factory=lambda items: {k: v for k, v in items if v is not None})


@dataclass(frozen=True)
class SimulateConfig:
    """The ``simulate`` config.

    ``seed`` and ``n_samples`` are Monte Carlo keys: a quadrature run takes
    them unread and drops them.  ``j0_ev``, when given, fills the t_seconds
    column.
    """

    command: Optional[Literal["simulate"]] = "simulate"
    method: Literal["quadrature", "mc"] = "quadrature"
    params: ExchangeParams = ExchangeParams()
    noise: NoiseSpec = NoiseSpec()
    initial: _Initial = "zero"
    times: Times = Times()
    check_convergence: bool = False
    quadrature: Optional[QuadratureSpec] = None
    seed: int = 0
    n_samples: int = 100000
    j0_ev: Optional[float] = None

    def __post_init__(self) -> None:
        if self.method == "quadrature":
            object.__setattr__(self, "seed", None)
            object.__setattr__(self, "n_samples", None)
        elif self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples!r}")
        if self.j0_ev is not None:
            PhysicalScale(self.j0_ev)  # validates it

    def resolved(self, d: dict) -> SimulateConfig:
        """Noise means the config ``d`` leaves out are the couplings params.j1, params.j2."""
        given = d.get("noise", {})
        means = {k: getattr(self.params, j) for k, j in (("j01", "j1"), ("j02", "j2")) if k not in given}
        return replace(self, noise=replace(self.noise, **means))


@dataclass(frozen=True)
class FitConfig:
    """The ``fit`` config: exactly one of ``trace_file`` and an inline ``simulate``.

    ``initial`` (trace files only) and ``j0_ev`` default to those of the
    simulate config, for a trace file the one embedded in it.
    """

    command: Optional[Literal["fit"]] = "fit"
    trace_file: Optional[str] = None
    simulate: Optional[SimulateConfig] = None
    initial: Optional[_Initial] = None
    j0_ev: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.trace_file is None) == (self.simulate is None):
            raise ValueError("provide exactly one of trace_file or simulate")
        if self.simulate is not None and self.initial is not None:
            raise ValueError("initial belongs inside simulate")


def _fmt(x) -> str:
    """9 significant digits (nan, inf and -inf as such); empty for missing values."""
    return "" if x is None else f"{x:.9g}"


def _json_value(x):
    """``x`` for JSON, a non-finite float as null."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _write_atomic(path: str, pieces) -> None:
    """Write the text ``pieces`` in turn to a temp file beside ``path`` and
    ``os.replace`` it onto ``path``, so a run that fails while it formats or
    writes a piece leaves no partial file and any earlier file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, header: str, rows, cfg) -> None:
    """Write ``header``, the text pieces ``rows`` (whole lines) and the ``# config=`` line."""
    config = "# config=" + json.dumps(_echo(cfg), sort_keys=True, separators=(",", ":")) + "\n"
    _write_atomic(path, itertools.chain([header + "\n"], rows, [config]))


# ---------------------------------------------------------------- simulate


def _simulate(cfg: SimulateConfig) -> ProbabilityTrace:
    """Run a simulate config's average; a convergence warning goes to stderr."""
    times = cfg.times.grid()
    if cfg.method == "mc":
        return disorder_average_mc(cfg.params, cfg.noise, cfg.initial, times, cfg.n_samples, cfg.seed)
    trace = disorder_average_quadrature(
        cfg.params, cfg.noise, cfg.initial, times, q=cfg.quadrature,
        check_convergence=cfg.check_convergence,
    )
    if "warning" in trace.metadata:
        print(f"deoq-dyn: warning: {trace.metadata['warning']}", file=sys.stderr)
    return trace


def cmd_simulate(cfg: dict, out_path: str) -> int:
    """Write a disorder-averaged trace as CSV."""
    cfg = _read(SimulateConfig, cfg, "config")
    trace = _simulate(cfg)
    t_s = trace.times * PhysicalScale(cfg.j0_ev).time_unit_s if cfg.j0_ev is not None else None
    columns = (trace.times, t_s, trace.values, trace.mc_std_errors)
    # one format per row; a missing column is an empty field
    row = ",".join("" if c is None else "{:.9g}" for c in columns) + "\n"
    present = [c for c in columns if c is not None]
    pieces = ("".join(row.format(*r) for r in zip(*(c[s:s + _ROWS_PER_PIECE].tolist() for c in present)))
              for s in range(0, len(trace.times), _ROWS_PER_PIECE))
    _write_csv(out_path, TRACE_HEADER, pieces, cfg)
    return 0


# --------------------------------------------------------------------- fit


def _read_trace_csv(path: str):
    """The rows (t, p, p_stderr or None) of a trace file and its embedded config."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"trace file must start with header {TRACE_HEADER!r}")
    config = {}
    rows = []
    for ln in lines[1:]:
        if not ln:
            continue
        if ln.startswith("#"):
            if ln.startswith("# config="):
                try:
                    config = json.loads(ln[len("# config="):])
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"trace file config is not valid JSON: {exc}") from exc
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
    return rows, config


def cmd_fit(cfg: dict, out_path: str) -> int:
    """Fit the upper envelope of a trace (from file or inline simulate)."""
    cfg = _read(FitConfig, cfg, "config")
    if cfg.simulate is not None:
        sim, trace = cfg.simulate, _simulate(cfg.simulate)
    else:
        rows, file_cfg = _read_trace_csv(cfg.trace_file)
        sim = _read(SimulateConfig, file_cfg, "trace file config")
        cfg = replace(cfg, initial=cfg.initial or sim.initial)
        errs = [r[2] for r in rows]
        try:
            trace = ProbabilityTrace(
                times=np.array([r[0] for r in rows]), values=np.array([r[1] for r in rows]),
                initial=cfg.initial, method="file", params=sim.params, noise=sim.noise,
                mc_std_errors=np.array(errs, dtype=float) if None not in errs else None,
            )
        except ValueError as exc:
            raise ConfigError(f"trace file: {exc}") from exc
    if cfg.j0_ev is None:
        cfg = replace(cfg, j0_ev=sim.j0_ev)
    unit_s = PhysicalScale(cfg.j0_ev).time_unit_s if cfg.j0_ev is not None else None

    fit = fit_trace(trace)
    out = {k: _json_value(v) for k, v in asdict(fit).items()}
    out["q"] = None if fit.status == "insufficient-peaks" else _json_value(quality_factor(fit.t2_star))
    out["t2_star_seconds"] = None
    if unit_s is not None and math.isfinite(fit.t2_star):
        out["t2_star_seconds"] = _json_value(fit.t2_star * unit_s)
    if fit.status == "insufficient-peaks":
        out["n_envelope_points"] = len(extract_upper_envelope(trace))
    report = {"schema_version": SCHEMA_VERSION, "config": _echo(cfg), "fit": out}
    _write_atomic(out_path, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0


# ------------------------------------------------------------------- sweep


def cmd_sweep(cfg: dict, out_path: str) -> int:
    """Run a (sigma_e, sigma_j) grid and write the T2*/Q map as CSV."""
    cfg = _read(SweepConfig, cfg, "config")
    unit_s = PhysicalScale(cfg.j0_ev).time_unit_s
    # inf and nan (no decay, failed fit) carry through the product unchanged
    lines = [f"{_fmt(c.sigma_e)},{_fmt(c.sigma_j)},{_fmt(c.j0_t2_star)},"
             f"{_fmt(c.j0_t2_star * unit_s)},{_fmt(c.q)},{_fmt(c.alpha)},{c.fit_status}\n" for c in run_sweep(cfg)]
    _write_csv(out_path, SWEEP_HEADER, lines, cfg)
    return 0


# --------------------------------------------------------------- materials


def cmd_materials(cfg: dict, out_path: str) -> int:
    """Compare material presets across charge-noise widths; write CSV."""
    cfg = _read(MaterialsConfig, cfg, "config")
    lines = [f"{r.material},{_fmt(r.sigma_j_ev)},{r.initial_condition},{_fmt(r.t2_star_seconds)}\n"
             for r in material_comparison(cfg)]
    _write_csv(out_path, MATERIALS_HEADER, lines, cfg)
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
    parser.add_argument("--method", choices=("quadrature", "mc"), default=None, help="averaging method override")
    parser.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count override")
    return parser


def _config(args) -> dict:
    """The JSON object at ``args.config``, with the flags applied.

    The flags override keys of the simulate config that runs, and apply to
    no other; a quadrature run leaves its Monte Carlo keys unread.  An
    unreadable file raises OSError, any other fault ConfigError.
    """
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("command") not in (None, args.command):
        raise ConfigError(f"config declares command {cfg['command']!r} but {args.command!r} was invoked")
    flags = {k: v for k, v in (("method", args.method), ("seed", args.seed), ("n_samples", args.samples))
             if v is not None}
    sim = cfg if args.command == "simulate" else cfg.get("simulate") if args.command == "fit" else None
    if flags and not isinstance(sim, dict):
        raise ConfigError(f"--seed/--method/--samples do not apply to {args.command}")
    if isinstance(sim, dict):
        sim.update(flags)
        if sim.get("method", "quadrature") == "quadrature":
            for key in ("seed", "n_samples"):
                sim.pop(key, None)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_config(args), args.out)
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
