"""Fit the 208-fit check set and compare it with an earlier run of this script.

The set is the 22 fits of tests/fit_regression.json, the 66 cells of the
default sweep and the 120 traces of the default materials run (3 presets x
20 widths x 2 initial states).  The traces are computed once, in this
process, and each is fitted by ``fit_trace`` as the CLI fits it.  One JSON
record per fit goes to OUT, a line each: name, status, t2_star, alpha, sse,
nfev (the polish's residual calls, ``Minimum.nfev``) and n_points (the
points handed to ``fit_envelope``).  A fit that raises is recorded with
status "fit-failure" and null numbers.

Given BASE, an earlier OUT, it prints every status change, every SSE rise,
the largest relative T2* moves, the summed residual calls of both, and the
fit time of this run.  A rise is judged against the SSE of the base fit's
(T2*, alpha) on this run's envelope points, with the amplitudes at their
best for it (``analysis._amplitudes``), so that a trace moved by rounding
is judged on its own points; a no-decay base fit, whose T2* is recorded as
inf, is judged against its own SSE.  A rise is marked when it exceeds that
reference by the rounding bound 8 eps sqrt(sse n), which holds for values
in [0, 1].  Exits 1 on a status change or an SSE rise beyond that bound.
Usage: python3 tools/fit_check.py OUT.jsonl [BASE.jsonl]
"""
import json, math, pathlib, sys, time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
from deoq_dyn import analysis, disorder, sweep  # noqa: E402


def traces():
    """(name, ProbabilityTrace) of the default sweep cells and the default materials run."""
    cfg = sweep.SweepConfig()
    for se in cfg.grid.sigma_e_values:
        for sj in cfg.grid.sigma_j_values:
            trace = disorder.disorder_average_quadrature(cfg.params, sweep._noise(se, sj, cfg.params), cfg.initial,
                                                         cfg.times.grid())
            yield f"sweep/{se}/{sj}", trace
    cfg = sweep.MaterialsConfig()
    for preset, sj_ev, noise in sweep._material_noises(cfg):
        both = disorder._quadrature_traces(cfg.params, noise, ("zero", "superposition"),
                                           sweep.suggested_time_grid(noise))
        for trace in both:
            yield f"materials/{preset.name}/{sj_ev:.6g}/{trace.initial}", trace


def number(x):
    return None if x is None or math.isnan(x) else (str(x) if math.isinf(x) else float(x))


def records():
    """One record per fit of the set, the seconds spent fitting, and each fit's (points, fixed_start, t_max)."""
    polish, fit_envelope = analysis.minimize, analysis.fit_envelope
    seen = {}

    def counted_minimize(*args):
        res = polish(*args)
        seen["nfev"] = res.nfev
        return res

    def counted_fit(points, fixed_start=None, t_max=None):
        seen["n_points"] = len(points)
        seen["fit"] = (np.array(points, dtype=float), fixed_start, t_max)
        return fit_envelope(points, fixed_start, t_max)

    cases = [(c["name"], lambda c=c: analysis.fit_envelope(np.array(c["points"]), c["fixed_start"], c["t_max"]))
             for c in json.loads((ROOT / "tests" / "fit_regression.json").read_text())["fits"]]
    cases += [(name, lambda t=trace: analysis.fit_trace(t)) for name, trace in traces()]
    analysis.minimize, analysis.fit_envelope = counted_minimize, counted_fit
    out, spent, inputs = [], 0.0, {}
    try:
        for name, fit in cases:
            seen.clear()
            start = time.perf_counter()
            try:
                res = fit()
                status, t2, alpha, sse = res.status, res.t2_star, res.alpha, res.sse
            except (RuntimeError, ValueError):
                status, t2, alpha, sse = "fit-failure", None, None, None
            spent += time.perf_counter() - start
            out.append({"name": name, "status": status, "t2_star": number(t2), "alpha": number(alpha),
                        "sse": number(sse), "nfev": seen.get("nfev"), "n_points": seen.get("n_points")})
            inputs[name] = seen.get("fit")
    finally:
        analysis.minimize, analysis.fit_envelope = polish, fit_envelope
    return out, spent, inputs


def sse_at(t2_star, alpha, fit):
    """The SSE of (t2_star, alpha) on a fit's points, amplitudes at their best, as ``fit_envelope`` forms it."""
    points, fixed_start, t_max = fit
    unit = t_max if t_max is not None else points[-1, 0]
    e = np.exp(-(points[:, 0] / unit / (t2_star / unit)) ** alpha)
    return analysis._amplitudes(e, points[:, 1], fixed_start)[0]


def compare(base, new, inputs, shown=10):
    """Print the differences of two record lists; True if a status changed or an SSE rose past rounding.

    ``inputs`` maps a name of ``new`` to the (points, fixed_start, t_max) it was fitted on.
    """
    old = {r["name"]: r for r in base}
    bad, moves = False, []
    for r in new:
        b = old.get(r["name"])
        if b is None:
            print(f"{r['name']}: not in the base run")
            continue
        if b["status"] != r["status"]:
            print(f"{r['name']}: status {b['status']} -> {r['status']}")
            bad = True
        if isinstance(b["sse"], float) and isinstance(r["sse"], float) and r["sse"] > b["sse"]:
            ref = b["sse"]
            if isinstance(b["t2_star"], float):
                ref = sse_at(b["t2_star"], b["alpha"], inputs[r["name"]])
            bound = 8 * np.finfo(float).eps * math.sqrt(ref * r["n_points"])
            over = r["sse"] - ref > bound
            bad |= over
            print(f"{r['name']}: sse {b['sse']!r} -> {r['sse']!r} (+{r['sse'] - b['sse']:.2e}; the base "
                  f"parameters give {ref!r} here, {'above' if over else 'within'} the rounding bound {bound:.2e})")
        if isinstance(b["t2_star"], float) and isinstance(r["t2_star"], float):
            moves.append((abs(r["t2_star"] / b["t2_star"] - 1.0), r["name"], b["t2_star"], r["t2_star"]))
    for rel, name, a, c in sorted(moves, reverse=True)[:shown]:
        print(f"{name}: t2_star {a!r} -> {c!r} ({rel:.2e} relative)")
    calls = [sum(r["nfev"] or 0 for r in rs) for rs in (base, new)]
    print(f"{len(new)} fits; residual calls {calls[0]} -> {calls[1]}")
    return bad


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.rsplit("Usage: ", 1)[1])
    recs, spent, inputs = records()
    pathlib.Path(sys.argv[1]).write_text("".join(json.dumps(r) + "\n" for r in recs))
    print(f"{len(recs)} fits in {spent:.3f} s")
    if len(sys.argv) == 3:
        base = [json.loads(line) for line in pathlib.Path(sys.argv[2]).read_text().splitlines()]
        sys.exit(1 if compare(base, recs, inputs) else 0)
