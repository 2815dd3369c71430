"""Print the quadrature counts of the default sweep and materials runs, and the default MC simulate's bins.

Both runs are computed in this process, without their fits: the sweep's 66
cells, one trace each, and the material points, one node set for both
initial states of a point.  Per run it prints, from the trace metadata, the
weight evaluations (``n_nodes``) and the terms (``n_r``) summed over the
node sets with the largest of each and its cell, the largest ``n_bins``,
the largest tracemalloc peak of one average (its node set, evaluator
pass and clipping) with its cell, and the Gauss-Legendre rules the run
asked for and built, from ``_leggauss.cache_info()``, emptied before each
run.  A peak includes what an average leaves cached, such as a Gauss rule
or numpy's FFT plan for a new length, the first time it is built.  After
the rule counts it prints the largest distance of a node set from its own
rule at 3x the counts, max |P - P_3x| over both initial states, with its
cell (about 6 s of the run).  Last, it runs the default Monte Carlo
simulate config (1e5 samples x 8,001 times) and prints its ``n_bins``,
from the band of its draws' brackets, and the traced peak of its average.
Then it times a tensor rule of 2,000 x 2,000 Legendre nodes on 2,001 times
to 50 at (sigma_e, sigma_j1, sigma_j2) = (0.3, 0, 0.2), whose j1 dimension
collapses, once its Gauss rules are cached, and prints its traced peak.
Usage: python3 tools/rule_counts.py
"""
import functools, pathlib, sys, time, tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
import numpy as np  # noqa: E402
from deoq_dyn import cli, disorder, polar, sweep  # noqa: E402
from deoq_dyn.qubit import ExchangeParams  # noqa: E402


def traced(average, *args):
    """average(*args) and its tracemalloc peak in MiB."""
    tracemalloc.start()
    try:
        return average(*args), tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def off_3x(p, noise, times):
    """max |P - P_3x| over both initial states: the 2D rule against itself at 3x its counts."""
    ones, threes = (disorder._average(polar.reduced_nodes(noise, p.j_prime, float(times[-1]), scale),
                                      ("zero", "superposition"), times) for scale in (1, 3))
    return max(float(np.abs(one - three).max()) for (one, _), (three, _) in zip(ones, threes))


def sweep_metas():
    cfg = sweep.SweepConfig()
    times = cfg.times.grid()
    for se in cfg.grid.sigma_e_values:
        for sj in cfg.grid.sigma_j_values:
            noise = sweep._noise(se, sj, cfg.params)
            trace, peak = traced(disorder.disorder_average_quadrature, cfg.params, noise, cfg.initial, times,
                                 cfg.quadrature)
            off = functools.partial(off_3x, cfg.params, noise, times)
            yield f"sigma_e {se}, sigma_j {sj}", trace.metadata, peak, off


def materials_metas():
    cfg = sweep.MaterialsConfig()
    for preset, sj_ev, noise in sweep._material_noises(cfg):
        times = sweep.suggested_time_grid(noise)
        traces, peak = traced(disorder._quadrature_traces, cfg.params, noise, ("zero", "superposition"), times)
        off = functools.partial(off_3x, cfg.params, noise, times)
        yield f"{preset.name} at sigma_j {sj_ev * 1e6:.4g} ueV", traces[0].metadata, peak, off


def report(name, metas):
    disorder._leggauss.cache_clear()
    metas = list(metas)
    info = disorder._leggauss.cache_info()
    print(f"{name}: {len(metas)} node sets")
    for key in ("n_nodes", "n_r"):
        total = sum(meta[key] for _, meta, _, _ in metas)
        cell, top = max(((cell, meta[key]) for cell, meta, _, _ in metas), key=lambda item: item[1])
        print(f"  {key}: {total:,} in all, at most {top:,} ({cell})")
    print(f"  n_bins: at most {max(meta['n_bins'] for _, meta, _, _ in metas):,}")
    cell, _, peak, _ = max(metas, key=lambda item: item[2])
    print(f"  traced peak of one average: at most {peak:.2f} MiB ({cell})")
    print(f"  Gauss-Legendre rules: {info.hits + info.misses:,} asked for, {info.misses:,} built")
    cell, off = max(((cell, off()) for cell, _, _, off in metas), key=lambda item: item[1])
    print(f"  |P - P_3x| over both states: at most {off:.1e} ({cell})")


def report_mc():
    cfg = cli.SimulateConfig(method="mc").resolved({})
    trace, peak = traced(disorder.disorder_average_mc, cfg.params, cfg.noise, cfg.initial, cfg.times.grid(),
                         cfg.n_samples, cfg.seed)
    print(f"default MC simulate: {cfg.n_samples:,} samples x {len(trace.times):,} times")
    print(f"  n_bins: {trace.metadata['n_bins']:,}")
    print(f"  traced peak of its average: {peak:.2f} MiB")


def report_tensor():
    p = ExchangeParams()
    args = (p, disorder.NoiseSpec(0.3, 0.0, 0.2, p.j1, p.j2), "zero", np.linspace(0.0, 50.0, 2001),
            disorder.QuadratureSpec(2000, 2000, delta_e_rule="legendre"))
    disorder.disorder_average_quadrature(*args)  # its Gauss rules, cached
    start = time.perf_counter()
    disorder.disorder_average_quadrature(*args)
    wall = time.perf_counter() - start
    _, peak = traced(disorder.disorder_average_quadrature, *args)
    print("tensor rule of 2,000 x 2,000 nodes at (sigma_e, sigma_j1, sigma_j2) = (0.3, 0, 0.2), 2,001 times to 50")
    print(f"  average: {wall * 1e3:.0f} ms, traced peak {peak:.2f} MiB")


if __name__ == "__main__":
    report("default sweep", sweep_metas())
    report("default materials", materials_metas())
    report_mc()
    report_tensor()
