"""Run the benchmark on a parent and a change checkout in alternating pairs, and judge each end-to-end metric.

PARENT and CHANGE are checkouts, each holding src/, perfbench/ and
BENCHMARK.json.  Pair k runs the benchmark command of the parent's
BENCHMARK.json once per workload in each directory with --seed k, the
parent first in even pairs and the change first in odd ones.  For each
workload and end-to-end metric it prints both medians, the parent's
interquartile range (IQR), the change's wins, ties and losses over the
pairs, the bound in the metric's unit and a verdict.  A bound in BENCHMARK.json is a share of
the parent's median (0.25 lets wall_s worsen by 25%; perfbench/README.md),
so the verdict scales it by that median:

- better: the change wins at least nine tenths of the pairs, ties counting
  for neither, and its median is better by more than the parent's IQR;
- worse: the change's median is worse by more than the bound;
- unresolved: neither, and the parent's IQR is wider than the bound, unless
  every run of the change reads better than every run of the parent;
- no worse: otherwise.

Each workload also prints each side's failed share of operations; a gain
does not count where the change fails more.  This script writes no file
under perfbench/.
Usage: python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seconds 20] [--workload W]
"""
import argparse, json, pathlib, statistics, subprocess


def quartiles(runs):
    """The lower quartile, median and upper quartile of the runs."""
    return statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else [runs[0]] * 3


def verdict(parent, change, bound, lower_is_better=True):
    """(verdict, wins, ties, losses) of the change's runs against the parent's, pair k against pair k;
    bound is a share of the parent's median."""
    sign = 1.0 if lower_is_better else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins, ties = sum(g > 0 for g in gains), sum(g == 0 for g in gains)
    (p_lo, p_mid, p_hi), c_mid = quartiles(parent), statistics.median(change)
    gain, allowed = sign * (p_mid - c_mid), bound * abs(p_mid)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(gains) and gain > p_hi - p_lo:
        word = "better"
    elif gain < -allowed:
        word = "worse"
    elif p_hi - p_lo > allowed and not separated:
        word = "unresolved"
    else:
        word = "no worse"
    return word, wins, ties, len(gains) - wins - ties


def run(directory, command, workload, seed, seconds):
    """(metric values, failed share) of one benchmark run in its directory."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(argv)} in {directory} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"] / max(result["attempted"], 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", help="one workload (repeatable); all by default")
    args = parser.parse_args()
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {(side, w): [] for side in ("parent", "change") for w in workloads}
    for k in range(args.pairs):
        for w in workloads:
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side, w].append(run(getattr(args, side), bench["command"], w, k, args.seconds))
                print(f"# pair {k} {w} {side}: {json.dumps(runs[side, w][-1])}", flush=True)
    for w in workloads:
        parent, change = runs["parent", w], runs["change", w]
        print(f"{w} ({args.pairs} pairs)")
        print(f"  {'metric':14} {'parent':>10} {'change':>10} {'parent IQR':>11} {'W/T/L':>8} {'bound':>9}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p, c = [r[0][name] for r in parent], [r[0][name] for r in change]
            word, wins, ties, losses = verdict(p, c, metric["bound"], metric["better"] == "lower")
            lo, _, hi = quartiles(p)
            print(f"  {name:14} {statistics.median(p):10.4g} {statistics.median(c):10.4g} {hi - lo:11.3g} "
                  f"{f'{wins}/{ties}/{losses}':>8} {metric['bound'] * statistics.median(p):9.3g}  {word}")
        p_fail, c_fail = (statistics.mean(r[1] for r in side) for side in (parent, change))
        print(f"  failed share of operations: parent {p_fail:.3g}, change {c_fail:.3g}"
              + ("  (the change fails more)" if c_fail > p_fail else ""))


if __name__ == "__main__":
    main()
