#!/usr/bin/env python3
"""Compares benchmark result sets from two commits.

A result set is a directory of files named <workload>__<seed>.json, each
holding the last stdout line of one `perfbench/run.py` run, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload mem-1core --seed $s --seconds 30 \\
        | tail -n 1 > base/mem-1core__$s.json
    done

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR         # two commits
    python3 perfbench/compare.py --self SET_A SET_B       # one commit twice

For every workload and metric it prints each side's median and quartiles,
the pair win rate (runs paired by seed; ties count for neither side) and a
verdict:

  improved    the new side wins at least 9/10 of the pairs and the medians
              differ by more than the base side's interquartile range
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the metric's bound, and not every new run reads
              better than every base run
  worse       the new median is worse than the base median by more than
              the bound
  unchanged   otherwise

With --self the two sets come from one commit and the last column says
whether they agree: each set's interquartile range, as a share of its
median, is within the metric's bound, and the two medians lie within the
bound of each other.

Bounds and directions come from BENCHMARK.json; metrics without a bound
(the per-layer ones) are listed without a verdict. The exit status is 1 when
any metric is worse or, with --self, when any metric disagrees.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value b reads better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(base, new, direction, bound, pairs):
    """Verdict for one metric. `pairs` holds (base, new) values of runs made
    with the same seed."""
    bq1, bmed, bq3 = quartiles(base)
    nmed = quartiles(new)[1]
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    if (pairs and wins >= 0.9 * len(pairs) and better(bmed, nmed, direction)
            and abs(nmed - bmed) > bq3 - bq1):
        return "improved"
    spread = max(relative_spread(base), relative_spread(new))
    all_better = all(better(a, b, direction) for a in base for b in new)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = (nmed - bmed) if direction == "lower" else (bmed - nmed)
    if bmed and worse_by / abs(bmed) > bound:
        return "worse"
    return "unchanged"


def agree(a, b, bound):
    """Self-agreement of two sets from one commit."""
    if max(relative_spread(a), relative_spread(b)) > bound:
        return False
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    return abs(mb - ma) <= bound * abs(ma)


def load_set(path):
    """{workload: {seed: metrics}} from a result-set directory."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json") or "__" not in name:
            continue
        workload, seed = name[:-len(".json")].split("__", 1)
        with open(os.path.join(path, name)) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        if not result.get("correct"):
            print(f"warning: {path}/{name} is marked incorrect",
                  file=sys.stderr)
        runs.setdefault(workload, {})[seed] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def main():
    parser = argparse.ArgumentParser(
        description="Compares benchmark result sets from two commits.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--self", dest="self_mode", action="store_true",
                        help="both sets come from one commit")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    directions = dict(bounded)
    directions.update({m["name"]: m for m in spec["per_layer"]})
    base, new = load_set(args.base), load_set(args.new)

    failed = False
    print(f"{'workload':14} {'metric':34} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8} {'wins':>7} verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        seeds = sorted(set(b_runs) & set(n_runs))
        names = sorted(set.intersection(
            *[set(m) for m in list(b_runs.values()) + list(n_runs.values())]))
        for name in names:
            if name not in directions:
                continue
            direction = directions[name]["better"]
            b = [m[name] for m in b_runs.values()]
            n = [m[name] for m in n_runs.values()]
            pairs = [(b_runs[s][name], n_runs[s][name]) for s in seeds]
            wins = sum(1 for a, c in pairs if better(a, c, direction))
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            if name not in bounded:
                v = "-"
            elif args.self_mode:
                ok = agree(b, n, bounded[name]["bound"])
                v = "agree" if ok else "DISAGREE"
                failed |= not ok
            else:
                v = verdict(b, n, direction, bounded[name]["bound"], pairs)
                failed |= v == "worse"
            bs = f"{bq[1]:.6g} [{bq[0]:.5g}, {bq[2]:.5g}]"
            ns = f"{nq[1]:.6g} [{nq[0]:.5g}, {nq[2]:.5g}]"
            print(f"{workload:14} {name:34} {bs:>32} {ns:>32} "
                  f"{change:+8.1%} {wins:>3}/{len(pairs):<3} {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
