#!/usr/bin/env python3
"""Repeats bench_e2e runs and applies the bounds of BENCHMARK.json.

    python3 bench/e2e/repeat.py [--runs 10] [--seed 1] [--out set.json]
    python3 bench/e2e/repeat.py --compare PARENT CHANGE [--runs 10]
                                [--seed 1] [--out pairs.json]

Every run goes through run.py, untraced, for run_seconds of BENCHMARK.json;
run i of a workload uses seed --seed + i, and the order of the workloads is
reversed from one round to the next. Spreads are the quartile distance over
the median, with quartiles as statistics.quantiles(values, n=4) gives them.

The first form runs every workload --runs times in this checkout and prints
each end-to-end metric's median, quartiles and spread. A spread above the
metric's bound is flagged "OVER", one above a third of it "wide".

The second form compares two checkouts of the repository (directories),
PARENT and CHANGE, from --runs interleaved pairs: in each round both run
every workload back to back with the same seed, and which side runs first
alternates from round to round. Per workload and metric it prints both
sides' medians and spreads, how much worse CHANGE's median is, how many pairs
CHANGE won, and a verdict:

  REGRESSION  CHANGE's median is worse by more than the bound, and no
              spread is above the bound or every CHANGE run reads worse
              than every PARENT run
  unresolved  a side's spread is above the bound, and neither every
              CHANGE run reads better than every PARENT run nor the above
  gain        CHANGE won at least 9 in 10 pairs and its median is better
              by more than PARENT's quartile distance
  ok          otherwise

--compare needs at least 10 pairs. The exit code is 1 when a run failed, a
spread is OVER or a metric regressed, 2 when a metric is unresolved, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def run(root, workload, seed, seconds):
    """One untraced run in checkout `root`: its metric values, or None."""
    cmd = [sys.executable, str(Path(root) / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else None
    ok = res.returncode == 0 and out is not None and out["correct"]
    print(f"{root} {workload} seed {seed}: "
          f"{'ok' if ok else f'FAILED (exit {res.returncode})'}", flush=True)
    return {n: m["value"] for n, m in out["metrics"].items()} if ok else None


def rounds(spec, runs):
    """(round, workload) in run order: workloads reversed every round."""
    names = [w["name"] for w in spec["workloads"]]
    for i in range(runs):
        for w in names if i % 2 == 0 else names[::-1]:
            yield i, w


def single(args, spec, bounds):
    values = {w["name"]: {} for w in spec["workloads"]}
    failed = 0
    for i, w in rounds(spec, args.runs):
        m = run(ROOT, w, args.seed + i, spec["run_seconds"])
        if m is None:
            failed += 1
            continue
        for name, v in m.items():
            values[w].setdefault(name, []).append(v)
    over = 0
    for w, metrics in values.items():
        print(f"\n{w}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            s, bound = spread(vals), bounds[name]["bound"]
            flag = "OVER" if s > bound else "wide" if s > bound / 3 else ""
            over += flag == "OVER"
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.2%} {bound:>6} {flag}")
    return values, 1 if failed or over else 0


def verdict(parent, change, metric):
    """(verdict, how much worse CHANGE's median is, pairs CHANGE won)."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    worse = (mc - mp) / mp if lower else (mp - mc) / mp
    wins = sum(better(c, p) for p, c in zip(parent, change))
    q1, _, q3 = quartiles(parent)
    gain = worse < 0 and wins >= 0.9 * len(parent) and abs(mc - mp) > q3 - q1
    if max(spread(parent), spread(change)) > metric["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "gain" if gain else "ok", worse, wins
        if worse > metric["bound"] and all(
                better(p, c) for c in change for p in parent):
            return "REGRESSION", worse, wins
        return "unresolved", worse, wins
    if worse > metric["bound"]:
        return "REGRESSION", worse, wins
    return "gain" if gain else "ok", worse, wins


def compare(args, spec, bounds):
    sides = {"parent": args.compare[0], "change": args.compare[1]}
    # values[w][i] = {side: metrics} for the pairs where both sides ran.
    values = {w["name"]: [] for w in spec["workloads"]}
    failed = 0
    for i, w in rounds(spec, args.runs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            pair[side] = run(sides[side], w, args.seed + i,
                             spec["run_seconds"])
        if None in pair.values():
            failed += 1
            continue
        values[w].append(pair)
    verdicts = []
    for w, pairs in values.items():
        print(f"\n{w} ({len(pairs)} pairs)")
        print(f"  {'metric':<16} {'parent':>11} {'spread':>7} "
              f"{'change':>11} {'spread':>7} {'worse by':>9} {'bound':>6} "
              f"{'won':>5}  verdict")
        if not pairs:
            continue
        for name, metric in bounds.items():
            p = [pair["parent"][name] for pair in pairs]
            c = [pair["change"][name] for pair in pairs]
            v, worse, wins = verdict(p, c, metric)
            verdicts.append(v)
            print(f"  {name:<16} {statistics.median(p):>11.5g} "
                  f"{spread(p):>7.1%} {statistics.median(c):>11.5g} "
                  f"{spread(c):>7.1%} {worse:>9.1%} {metric['bound']:>6} "
                  f"{wins:>2}/{len(pairs):<2}  {v}")
    print(f"\n{failed} failed pairs, {verdicts.count('REGRESSION')} "
          f"regressions, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('gain')} gains")
    if failed or "REGRESSION" in verdicts:
        return values, 1
    return values, 2 if "unresolved" in verdicts else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs (pairs with --compare) per workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="two checkouts of the repository")
    ap.add_argument("--out", help="save the raw values as JSON")
    args = ap.parse_args()
    if args.compare and args.runs < 10:
        ap.error("--compare needs --runs 10 or more")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values, code = (compare if args.compare else single)(args, spec, bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
