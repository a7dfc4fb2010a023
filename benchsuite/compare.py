#!/usr/bin/env python3
"""Compares two set files written by `run.py --suite` (A = before, B = after).

    python3 benchsuite/compare.py A.json B.json

End-to-end files: for every (workload, metric) prints both medians and
quartiles and a verdict under the metric's bound in BENCHMARK.json:

  worse       B's median is worse than A's by more than the bound
  better      a gain by the rule of a claim: at least 10 runs a side, B
              beats A in at least 90% of (A run, B run) pairs, and the
              medians differ by more than A's quartile spread
  same        neither (with fewer than 10 runs a side, never "better")
  unresolved  A's or B's quartile spread exceeds the bound, and B's runs
              neither all beat nor all lose to A's runs

Per-layer files: prints every deterministic count (events, peers, ratios
the simulation produces) whose values differ, as exact diffs, and the
timing medians side by side.

Both kinds: the output digests must match when both sets used one seed.
Exits 1 on a worse verdict or a digest mismatch, 2 on unusable input.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "ppsim-benchsuite-v1":
        raise ValueError(f"{path}: not a run.py --suite file")
    return data


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def summary(values):
    lo, med, hi = quartiles(values)
    return f"{med:.4g} [{lo:.4g},{hi:.4g}]"


def verdict(a, b, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    a_lo, a_med, a_hi = quartiles(a)
    b_lo, b_med, b_hi = quartiles(b)
    change = sign * (b_med - a_med) / a_med  # > 0 means B is worse
    a_spread = (a_hi - a_lo) / a_med
    spread = max(a_spread, (b_hi - b_lo) / b_med)
    b_wins = statistics.mean(sign * (y - x) < 0 for x in a for y in b)
    gain = (min(len(a), len(b)) >= 10 and b_wins >= 0.9
            and -change > a_spread)
    if spread > bound:
        if b_wins == 1:
            return ("better" if gain else "same"), change
        if b_wins == 0 and change > bound:
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    return ("better" if gain else "same"), change


def deterministic(name, unit):
    """Per-layer values the simulation fixes exactly for a seed."""
    return unit in ("count", "bytes", "frac") and not name.startswith(
        ("wire.", "obs."))


def compare_digests(a, b):
    bad = 0
    if a["seed"] != b["seed"]:
        print(f"digests: not compared (seeds {a['seed']} vs {b['seed']})")
        return 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        da = a["workloads"][name]["digests"]
        db = b["workloads"][name]["digests"]
        if da != db:
            print(f"DIGEST MISMATCH {name}: {da} vs {db}")
            bad += 1
    return bad


def compare_e2e(a, b, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    print(f"{'workload':15s} {'metric':14s} {'A median [q1,q3]':>32s} "
          f"{'B median [q1,q3]':>32s} {'change':>8s} {'bound':>6s}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric, m in bounds.items():
            va = a["workloads"][name]["metrics"].get(metric, {}).get("values")
            vb = b["workloads"][name]["metrics"].get(metric, {}).get("values")
            if not va or not vb:
                print(f"{name:15s} {metric:14s} missing")
                continue
            v, change = verdict(va, vb, m["bound"], m["better"] == "lower")
            worse += v == "worse"
            print(f"{name:15s} {metric:14s} {summary(va):>32s} "
                  f"{summary(vb):>32s} {change:+8.1%} {m['bound']:6.0%}  {v}")
    return worse


def compare_layers(a, b):
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma = a["workloads"][name]["metrics"]
        mb = b["workloads"][name]["metrics"]
        diffs, timings = [], []
        for metric in sorted(set(ma) & set(mb)):
            unit = ma[metric]["unit"]
            va, vb = ma[metric]["values"], mb[metric]["values"]
            if deterministic(metric, unit):
                if sorted(va) != sorted(vb):
                    diffs.append(f"  {metric}: {va} -> {vb}")
            else:
                timings.append(f"  {metric:32s} {statistics.median(va):12.4g} "
                               f"{statistics.median(vb):12.4g} {unit}")
        print(f"{name}: {len(diffs)} deterministic value(s) differ")
        print("\n".join(diffs + timings))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    if a["pass"] != b["pass"]:
        print("compare.py: one file is e2e, the other layers", file=sys.stderr)
        return 2
    bad = compare_digests(a, b)
    if a["pass"] == "e2e":
        bad += compare_e2e(a, b, spec)
    else:
        compare_layers(a, b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
