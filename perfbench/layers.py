"""Trace boundaries between deoq_dyn's layers and the per-layer metrics.

The layers are the package's modules: ``cli``, ``sweep``, ``disorder``,
``qubit`` and ``analysis``.  Each boundary is a public name in the module
that calls it, so a span measures one layer's call into another.  Two
library calls get layers of their own so that they do not count as their
caller's self time: ``scipy.signal.czt`` (the binned evaluator's transform)
and ``analysis.minimize`` (the Nelder-Mead starts).
"""

from __future__ import annotations

import json
import os
import statistics

import scipy.signal

from deoq_dyn import analysis, cli, disorder, sweep
from tracer import Tracer

COMMANDS = ("simulate", "fit", "sweep", "materials")
QUADRATURE = ("cli.disorder_average_quadrature", "sweep.disorder_average_quadrature")
FITS = ("cli.fit_trace", "sweep.fit_trace")

# name -> (unit, boundaries it needs)
PER_LAYER = {
    "qubit.osc_s": ("s", ("disorder.oscillation_terms",)),
    "qubit.osc_calls": ("count", ("disorder.oscillation_terms",)),
    "qubit.osc_points": ("count", ("disorder.oscillation_terms",)),
    "disorder.nodes": ("count", QUADRATURE),
    "disorder.self_s": ("s", QUADRATURE + ("cli.disorder_average_mc", "disorder.oscillation_terms",
                                           "scipy.signal.czt")),
    "disorder.quad_s": ("s", QUADRATURE),
    "disorder.direct_traces": ("count", QUADRATURE),
    "disorder.binned_traces": ("count", QUADRATURE),
    "disorder.czt_s": ("s", ("scipy.signal.czt",)),
    "disorder.czt_bins": ("count", ("scipy.signal.czt",)),
    "disorder.mc_s": ("s", ("cli.disorder_average_mc",)),
    "disorder.mc_sample_times": ("count", ("cli.disorder_average_mc",)),
    "analysis.fit_s": ("s", FITS),
    "analysis.fits": ("count", FITS),
    "analysis.minimize_s": ("s", ("analysis.minimize",)),
    "analysis.nm_starts": ("count", ("analysis.minimize",)),
    "analysis.objective_evals": ("count", ("analysis.minimize",)),
    "analysis.envelope_points": ("count", ("analysis.fit_envelope",)),
    "analysis.fit_failures": ("count", FITS),
    "cli.self_s": ("s", ("cli.main",) + tuple(f"cli.cmd_{c}" for c in COMMANDS)),
    "cli.bytes_written": ("B", ("cli.main",)),
    "cli.bytes_read": ("B", ("cli.main",)),
    "sweep.self_s": ("s", ("cli.run_sweep", "cli.material_comparison")),
    "sweep.traces": ("count", ("sweep.disorder_average_quadrature",)),
    "sweep.trace_p50_s": ("s", ("sweep.disorder_average_quadrature", "sweep.fit_trace")),
    "sweep.trace_max_s": ("s", ("sweep.disorder_average_quadrature", "sweep.fit_trace")),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def _argv_value(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _count_io(counts, args, kwargs, code) -> None:
    argv = list(args[0])
    config, out = _argv_value(argv, "--config"), _argv_value(argv, "--out")
    if code != 0 or not os.path.isfile(out):
        return  # the benchmark reports the failed call; there is nothing to count
    counts["bytes_written"] += os.path.getsize(out)
    counts["bytes_read"] += os.path.getsize(config)
    with open(config) as fh:
        trace_file = json.load(fh).get("trace_file")
    if trace_file:
        counts["bytes_read"] += os.path.getsize(trace_file)


def _count_quadrature(counts, args, kwargs, trace) -> None:
    meta = trace.metadata
    if "n_nodes" not in meta or "evaluator" not in meta:
        counts["nodes_unreported"] += 1
        return
    counts["nodes"] += meta["n_nodes"]
    counts[meta["evaluator"] + "_traces"] += 1


def _count_mc(counts, args, kwargs, trace) -> None:
    counts["mc_sample_times"] += trace.metadata["n_samples"] * len(trace.times)


def _count_osc(counts, args, kwargs, result) -> None:
    counts["osc_points"] += result[0].size


def _count_czt(counts, args, kwargs, result) -> None:
    counts["czt_bins"] += len(args[0])


def _count_envelope(counts, args, kwargs, fit) -> None:
    counts["envelope_points"] += len(args[0])


def _count_minimize(counts, args, kwargs, res) -> None:
    counts["objective_evals"] += res.nfev


def install(t: Tracer) -> None:
    """Wrap every boundary; ``t.restore()`` undoes it."""
    t.wrap(cli, "main", "cli.main", "cli", _count_io)
    # main dispatches through its command table when it has one
    table = getattr(cli, "_COMMANDS", None)
    for command in COMMANDS:
        if isinstance(table, dict) and command in table:
            t.wrap(table, command, f"cli.cmd_{command}", "cli")
        else:
            t.wrap(cli, f"cmd_{command}", f"cli.cmd_{command}", "cli")
    t.wrap(cli, "run_sweep", "cli.run_sweep", "sweep")
    t.wrap(cli, "material_comparison", "cli.material_comparison", "sweep")
    t.wrap(cli, "disorder_average_quadrature", QUADRATURE[0], "disorder", _count_quadrature)
    t.wrap(cli, "disorder_average_mc", "cli.disorder_average_mc", "disorder", _count_mc)
    t.wrap(cli, "fit_trace", "cli.fit_trace", "analysis")
    t.wrap(sweep, "run_cell", "sweep.run_cell", "sweep")
    t.wrap(sweep, "disorder_average_quadrature", QUADRATURE[1], "disorder", _count_quadrature)
    t.wrap(sweep, "fit_trace", "sweep.fit_trace", "analysis")
    t.wrap(disorder, "oscillation_terms", "disorder.oscillation_terms", "qubit", _count_osc)
    t.wrap(disorder, "sample_noise", "disorder.sample_noise", "disorder")
    t.wrap(analysis, "fit_envelope", "analysis.fit_envelope", "analysis", _count_envelope)
    t.wrap(analysis, "minimize", "analysis.minimize", "minimize", _count_minimize)
    t.wrap(scipy.signal, "czt", "scipy.signal.czt", "czt", _count_czt)


def _trace_seconds(t: Tracer) -> list:
    """Average-plus-fit time of each trace the sweep layer computed."""
    pending, out = {}, []
    for span in t.spans:
        if span.name == "sweep.disorder_average_quadrature":
            pending[span.parent] = span
        elif span.name == "sweep.fit_trace" and span.parent in pending:
            out.append(pending.pop(span.parent).duration + span.duration)
    return out


def metrics(t: Tracer, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer values of one traced run; None where a boundary is missing."""
    c = t.counts

    def calls(*names):
        return sum(c[n + ".calls"] for n in names)

    traces = _trace_seconds(t)
    values = {
        "qubit.osc_s": t.total_s("disorder.oscillation_terms"),
        "qubit.osc_calls": calls("disorder.oscillation_terms"),
        "qubit.osc_points": c["osc_points"],
        "disorder.nodes": None if c["nodes_unreported"] else c["nodes"],
        "disorder.self_s": t.self_s("disorder"),
        "disorder.quad_s": t.total_s(*QUADRATURE),
        "disorder.direct_traces": None if c["nodes_unreported"] else c["direct_traces"],
        "disorder.binned_traces": None if c["nodes_unreported"] else c["binned_traces"],
        "disorder.czt_s": t.total_s("scipy.signal.czt"),
        "disorder.czt_bins": c["czt_bins"],
        "disorder.mc_s": t.total_s("cli.disorder_average_mc"),
        "disorder.mc_sample_times": c["mc_sample_times"],
        "analysis.fit_s": t.total_s(*FITS),
        "analysis.fits": calls(*FITS) + sum(c[n + ".raised"] for n in FITS),
        "analysis.minimize_s": t.total_s("analysis.minimize"),
        "analysis.nm_starts": calls("analysis.minimize"),
        "analysis.objective_evals": c["objective_evals"],
        "analysis.envelope_points": c["envelope_points"],
        "analysis.fit_failures": sum(c[n + ".raised"] for n in FITS),
        "cli.self_s": t.self_s("cli"),
        "cli.bytes_written": c["bytes_written"],
        "cli.bytes_read": c["bytes_read"],
        "sweep.self_s": t.self_s("sweep"),
        "sweep.traces": calls("sweep.disorder_average_quadrature"),
        "sweep.trace_p50_s": statistics.median(traces) if traces else 0.0,
        "sweep.trace_max_s": max(traces, default=0.0),
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    return {
        name: (None if t.missing.intersection(needs) else values[name], unit)
        for name, (unit, needs) in PER_LAYER.items()
    }
