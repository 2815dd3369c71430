"""Fit the 208-fit check set and compare it with an earlier run of this script.

The set is the 22 fits of tests/fit_regression.json, the 66 cells of the
default sweep and the 120 traces of the default materials run (3 presets x
20 widths x 2 initial states).  The traces are computed once, in this
process, and each is fitted by ``fit_trace`` as the CLI fits it.  One JSON
record per fit goes to OUT, a line each: name, status, t2_star, alpha, sse,
nfev (the polish's residual calls, ``Minimum.nfev``) and n_points (the
points handed to ``fit_envelope``).  A fit that raises is recorded with
status "fit-failure" and null numbers.

Given BASE, an earlier OUT, it prints every status change, every SSE rise
(marked when it exceeds the rounding bound 8 eps sqrt(sse n), which holds
for values in [0, 1]), the largest relative T2* moves, the summed residual
calls of both, and the fit time of this run.  Exits 1 on a status change or
an SSE rise beyond that bound.
Usage: python3 tools/fit_check.py OUT.jsonl [BASE.jsonl]
"""
import json, math, pathlib, sys, time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
from deoq_dyn import analysis, disorder, sweep  # noqa: E402
from deoq_dyn.qubit import ExchangeParams  # noqa: E402


def traces():
    """(name, ProbabilityTrace) of the default sweep cells and the default materials run."""
    grid = sweep.SweepGrid()
    for se in grid.sigma_e_values:
        for sj in grid.sigma_j_values:
            noise = disorder.NoiseSpec(se, sj, sj, grid.params.j1, grid.params.j2)
            yield f"sweep/{se}/{sj}", disorder.disorder_average_quadrature(grid.params, noise, grid.initial, grid.times)
    p, j0 = ExchangeParams(), sweep.DEFAULT_J0_EV
    for preset in sweep.default_material_presets():
        for sj_ev in sweep.default_material_sigma_j_ev():
            sj = float(sj_ev) / j0
            noise = disorder.NoiseSpec(preset.sigma_e_floor_ev / j0, sj, sj, p.j1, p.j2)
            both = disorder._quadrature_traces(p, noise, ("zero", "superposition"), sweep.suggested_time_grid(noise))
            for trace in both:
                yield f"materials/{preset.name}/{sj_ev:.6g}/{trace.initial}", trace


def number(x):
    return None if x is None or math.isnan(x) else (str(x) if math.isinf(x) else float(x))


def records():
    """One record per fit of the set, and the seconds spent fitting."""
    polish, fit_envelope = analysis.minimize, analysis.fit_envelope
    seen = {}

    def counted_minimize(*args):
        res = polish(*args)
        seen["nfev"] = res.nfev
        return res

    def counted_fit(points, *args, **kwargs):
        seen["n_points"] = len(points)
        return fit_envelope(points, *args, **kwargs)

    cases = [(c["name"], lambda c=c: analysis.fit_envelope(np.array(c["points"]), c["fixed_start"], c["t_max"]))
             for c in json.loads((ROOT / "tests" / "fit_regression.json").read_text())["fits"]]
    cases += [(name, lambda t=trace: analysis.fit_trace(t)) for name, trace in traces()]
    analysis.minimize, analysis.fit_envelope = counted_minimize, counted_fit
    out, spent = [], 0.0
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
    finally:
        analysis.minimize, analysis.fit_envelope = polish, fit_envelope
    return out, spent


def compare(base, new, shown=10):
    """Print the differences of two record lists; True if a status changed or an SSE rose past rounding."""
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
            bound = 8 * np.finfo(float).eps * math.sqrt(b["sse"] * r["n_points"])
            over = r["sse"] - b["sse"] > bound
            bad |= over
            print(f"{r['name']}: sse {b['sse']!r} -> {r['sse']!r} (+{r['sse'] - b['sse']:.2e}, "
                  f"{'above' if over else 'within'} the rounding bound {bound:.2e})")
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
    recs, spent = records()
    pathlib.Path(sys.argv[1]).write_text("".join(json.dumps(r) + "\n" for r in recs))
    print(f"{len(recs)} fits in {spent:.3f} s")
    if len(sys.argv) == 3:
        base = [json.loads(line) for line in pathlib.Path(sys.argv[2]).read_text().splitlines()]
        sys.exit(1 if compare(base, recs) else 0)
