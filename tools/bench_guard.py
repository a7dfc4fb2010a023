#!/usr/bin/env python3
"""Coverage guard for ppsim-bench-v1 files (docs/OBSERVABILITY.md).

Compares a freshly emitted bench file against the committed baseline by
*names* — ns_per_op / rss / wall values are machine-dependent and are
never compared exactly. Two coverage modes:

  default   every benchmark named in the baseline must be present in the
            current run: coverage must never silently shrink. Used by the
            BENCH_micro guard, where CI re-runs the whole suite.

  --subset  every benchmark named in the current run must be present in the
            baseline: the run is allowed to cover less (a smoke re-running
            one sweep point), but must not produce rows the committed
            trajectory does not track. Used by the BENCH_scale smoke.

--min-baseline-rows N additionally fails if the baseline itself holds fewer
than N rows — pinning, e.g., that BENCH_scale.json keeps >= 3 sweep points.

--max-regress-pct X adds a loose per-row value check on top of coverage:
for every benchmark present in both files with a positive ns_per_op on both
sides, fail if the current ns/op exceeds baseline by more than X percent.
Absolute values stay machine-dependent, so X must be generous (CI uses
several hundred percent — the guard exists to catch order-of-magnitude
cliffs, not jitter). Rows missing ns_per_op on either side are skipped.

Always on: a ceiling on allocs_per_op (heap allocations per event, written
by bench_scale). Every shared row whose baseline carries the field must
carry it too, at no more than baseline * (1 + ALLOCS_CEILING_PCT/100).
Unlike wall time, the count does not move with host load, only with the
run's length and the standard-library build, so the margin can be tight.
Baselines without the field (BENCH_micro.json) are unaffected.

Exit status: 0 clean, 1 guard violation, 2 usage/file errors.
"""

import argparse
import json
import sys

# Margin of the allocs_per_op ceiling. It covers the CI scale smoke's
# shorter run (2 sim-minutes amortize setup over fewer events: 0.311 vs the
# 4-minute 1k row's 0.293 with GCC 12) and a different libstdc++ on the
# runner. One more allocation per packet roughly doubles the count, so 25%
# still catches any per-packet regression.
ALLOCS_CEILING_PCT = 25


def number(row, key):
    value = row.get(key)
    return value if isinstance(value, (int, float)) else None


def load(path):
    """Returns (schema, {name: ns_per_op-or-None}, {name: allocs_per_op})
    for one ppsim-bench-v1 NDJSON file; rows without allocs_per_op are
    absent from the last map."""
    schema = None
    rows = {}
    allocs = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(f"error: {path}:{lineno}: not JSON: {e}")
                if "bench_schema" in row:
                    schema = row["bench_schema"]
                elif "name" in row:
                    rows[row["name"]] = number(row, "ns_per_op")
                    if number(row, "allocs_per_op") is not None:
                        allocs[row["name"]] = row["allocs_per_op"]
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    return schema, rows, allocs


def main():
    parser = argparse.ArgumentParser(
        description="ppsim-bench-v1 coverage guard (names always; values "
        "only via the loose --max-regress-pct threshold)")
    parser.add_argument("--baseline", required=True,
                        help="committed trajectory file, e.g. "
                        "bench/BENCH_micro.json")
    parser.add_argument("--current", required=True,
                        help="freshly emitted bench file")
    parser.add_argument("--subset", action="store_true",
                        help="require current ⊆ baseline instead of "
                        "baseline ⊆ current")
    parser.add_argument("--min-baseline-rows", type=int, default=0,
                        metavar="N",
                        help="fail if the baseline holds fewer than N rows")
    parser.add_argument("--max-regress-pct", type=float, default=0,
                        metavar="X",
                        help="fail if any shared benchmark's ns_per_op "
                        "worsens by more than X%% vs baseline (0 disables)")
    args = parser.parse_args()

    base_schema, baseline, base_allocs = load(args.baseline)
    cur_schema, current, cur_allocs = load(args.current)
    for path, schema in ((args.baseline, base_schema),
                         (args.current, cur_schema)):
        if schema != "ppsim-bench-v1":
            raise SystemExit(
                f"error: {path}: bench_schema is {schema!r}, "
                "expected 'ppsim-bench-v1'")

    print(f"baseline={len(baseline)} rows ({args.baseline}), "
          f"current={len(current)} rows ({args.current})")

    ok = True
    if len(baseline) < args.min_baseline_rows:
        print(f"FAIL: baseline holds {len(baseline)} rows, "
              f"needs >= {args.min_baseline_rows}")
        ok = False
    if args.subset:
        unknown = sorted(set(current) - set(baseline))
        if unknown:
            print("FAIL: current rows missing from the committed baseline "
                  f"(extend it deliberately): {unknown}")
            ok = False
    else:
        missing = sorted(set(baseline) - set(current))
        if missing:
            print(f"FAIL: benchmarks missing vs baseline: {missing}")
            ok = False
    if args.max_regress_pct > 0:
        checked = 0
        for name in sorted(set(baseline) & set(current)):
            base_ns, cur_ns = baseline[name], current[name]
            if not base_ns or not cur_ns or base_ns <= 0 or cur_ns <= 0:
                continue
            checked += 1
            regress_pct = (cur_ns / base_ns - 1.0) * 100.0
            if regress_pct > args.max_regress_pct:
                print(f"FAIL: {name}: ns_per_op {base_ns:g} -> {cur_ns:g} "
                      f"(+{regress_pct:.0f}%, limit "
                      f"+{args.max_regress_pct:g}%)")
                ok = False
        print(f"regression check: {checked} shared rows vs "
              f"+{args.max_regress_pct:g}% limit")
    shared_allocs = sorted(set(base_allocs) & set(current))
    for name in shared_allocs:
        ceiling = base_allocs[name] * (1.0 + ALLOCS_CEILING_PCT / 100.0)
        cur = cur_allocs.get(name)
        if cur is None:
            print(f"FAIL: {name}: no allocs_per_op (baseline "
                  f"{base_allocs[name]:g})")
            ok = False
        elif cur > ceiling:
            print(f"FAIL: {name}: allocs_per_op {base_allocs[name]:g} -> "
                  f"{cur:g} (ceiling {ceiling:g}, +{ALLOCS_CEILING_PCT}%)")
            ok = False
        else:
            print(f"{name}: allocs_per_op {cur:g} <= ceiling {ceiling:g}")
    if shared_allocs:
        print(f"allocation check: {len(shared_allocs)} shared rows vs "
              f"+{ALLOCS_CEILING_PCT}% ceiling")
    if ok:
        print("coverage ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
