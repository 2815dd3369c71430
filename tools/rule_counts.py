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
cell (about 6 s of the run).  Then it averages a 21 x 21 map, sigma_e in
linspace(0, 1, 21) x sigma_j in linspace(0, 0.5, 21) in the default sweep
config (zero state, 8,001 times to 200), cell by cell as ``sweep`` does,
and prints its weight evaluations and terms, the Gauss-Legendre rules it
asked for, built and holds, the nodes those rules hold (the cache keeps
every size it builds, so these are the distinct sizes asked for, summed)
and the averages' wall time, from an emptied cache.  Next, it runs the
default Monte Carlo simulate config (1e5 samples x 8,001 times) and prints
its ``n_bins``, from the band of its draws' brackets, and the traced peak
of its average.
Then it times a tensor rule of 2,000 x 2,000 Legendre nodes on 2,001 times
to 50 at (sigma_e, sigma_j1, sigma_j2) = (0.3, 0, 0.2), whose j1 dimension
collapses, once its Gauss rules are cached, and prints its traced peak.
Last, it runs the commands of the sweep-heavy and materials-subset
benchmark workloads (configs from perfbench/workloads.py, outputs to a
temporary directory) through ``cli.main``, three times each from an emptied
Gauss-Legendre cache (cold) and each time once more with the rules cached
(warm), and prints the rules a cold run builds, their nodes and the
seconds spent building them, and the cold and warm wall times, as medians
over the three.  The cold runs are not fresh processes: the imports, and
what the reports above left in numpy, are already there.
Usage: python3 tools/rule_counts.py
"""
import functools, json, pathlib, statistics, sys, tempfile, time, tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import numpy as np  # noqa: E402
from deoq_dyn import cli, disorder, polar, sweep  # noqa: E402
from deoq_dyn.qubit import ExchangeParams  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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


def report_map():
    cfg = sweep.SweepConfig()
    times, rule, sizes = cfg.times.grid(), disorder._leggauss, set()
    disorder._leggauss.cache_clear()
    disorder._leggauss = lambda n: sizes.add(n) or rule(n)
    try:
        start = time.perf_counter()
        metas = [disorder.disorder_average_quadrature(cfg.params, sweep._noise(se, sj, cfg.params), cfg.initial,
                                                      times).metadata
                 for se in np.linspace(0.0, 1.0, 21) for sj in np.linspace(0.0, 0.5, 21)]
        wall = time.perf_counter() - start
    finally:
        disorder._leggauss = rule
    info = rule.cache_info()
    print(f"21 x 21 map: {len(metas)} cells, {len(times):,} times to {times[-1]:g}, {cfg.initial} state")
    for key in ("n_nodes", "n_r"):
        print(f"  {key}: {sum(meta[key] for meta in metas):,} in all")
    print(f"  Gauss-Legendre rules: {info.hits + info.misses:,} asked for, {info.misses:,} built, "
          f"{info.currsize:,} held with {sum(sizes):,} nodes ({16 * sum(sizes) / 2 ** 20:.2f} MiB)")
    print(f"  averages: {wall:.2f} s")


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


def report_command(name, tmp):
    """The rules a cold run of the workload's command builds, their build time, and its cold and warm wall times."""
    (step,) = WORKLOADS[name].steps(1, tmp)
    config = tmp / f"{name}.json"
    config.write_text(json.dumps(step.config))
    argv = [step.command, "--config", str(config), "--out", str(tmp / step.out)]
    rule, built, runs = disorder._leggauss, [], []

    def timed(n):  # the rule; a call that builds it adds its size and build time to built
        misses, start = rule.cache_info().misses, time.perf_counter()
        out = rule(n)
        if rule.cache_info().misses > misses:
            built.append((n, time.perf_counter() - start))
        return out

    disorder._leggauss = timed
    try:
        for _ in range(3):
            rule.cache_clear()
            built.clear()
            walls = []
            for _ in range(2):  # cold, then warm
                start = time.perf_counter()
                if cli.main(argv) != 0:
                    sys.exit(f"{name}: {' '.join(argv)} failed")
                walls.append(time.perf_counter() - start)
            runs.append((sum(t for _, t in built), *walls))
    finally:
        disorder._leggauss = rule
    build_s, cold, warm = (statistics.median(x) for x in zip(*runs))
    print(f"{name}: {step.command} through cli.main, median of 3")
    print(f"  Gauss-Legendre rules built cold: {len(built):,}, {sum(n for n, _ in built):,} nodes, "
          f"{build_s * 1e3:.1f} ms to build")
    print(f"  wall: {cold * 1e3:.1f} ms cold, {warm * 1e3:.1f} ms warm")


if __name__ == "__main__":
    report("default sweep", sweep_metas())
    report("default materials", materials_metas())
    report_map()
    report_mc()
    report_tensor()
    with tempfile.TemporaryDirectory() as work:
        for workload in ("sweep-heavy", "materials-subset"):
            report_command(workload, pathlib.Path(work))
