#!/usr/bin/env python3
"""ppsim benchmark: four workloads, end-to-end and per-layer metrics.

One measurement of one workload (the form BENCHMARK.json names):

    python3 benchsuite/run.py --workload popular-2k --seed 7 \
        --seconds 25 --trace 0

runs fresh `ppsim_bench_run` processes, one rep each, until --seconds have
passed (at least three reps), checks every output, prints each metric with
its unit and ends with one JSON line {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (README.md has both tables).

Whole sets, for the committed baselines and for compare.py:

    python3 benchsuite/run.py --suite --runs 3 --out A.json # e2e
    python3 benchsuite/run.py --suite --trace 1 --runs 1 --out L.json
    python3 benchsuite/run.py --quick                       # self-test

The first call builds the runner from the checkout's sources into
.bench_build/ (CMake, Release). Every path used is inside the checkout.
"""

import argparse
import json
import math
import os
import platform
import socket
import statistics
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SUITE_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "ppsim_bench_run")
WORK = os.path.join(BUILD, "work")
DEFAULT_SEED = 20081012
REP_TIMEOUT_S = 60

# Why each workload exists is in README.md. `sim` is the run_experiment
# scenario (for wire-loopback: the run whose TELE-probe capture is
# replayed); `datagrams` is how many datagrams one loopback replay sends
# (for the sim workloads, the traced pass's replay of their own capture
# sends TRACED_REPLAY_DATAGRAMS).
WORKLOADS = {
    "popular-2k": {
        "kind": "sim",
        "sim": {"channel": "popular", "viewers": 2000, "duration-s": 12,
                "ramp-s": 6, "probe-join-s": 6},
    },
    "unpopular-long": {
        "kind": "sim",
        "sim": {"channel": "unpopular", "viewers": 64, "duration-s": 400,
                "ramp-s": 90, "probe-join-s": 390},
    },
    "zapping-1k": {
        "kind": "sim",
        "sim": {"channel": "popular", "viewers": 1000, "duration-s": 24,
                "ramp-s": 6, "probe-join-s": 6, "session-s": 60,
                "rejoin-s": 5},
    },
    "wire-loopback": {
        "kind": "wire",
        "sim": {"channel": "popular", "viewers": 420, "duration-s": 120,
                "ramp-s": 30, "probe-join-s": 30},
        "datagrams": 400_000,
    },
}
TRACED_REPLAY_DATAGRAMS = 100_000
# --quick: every workload at about 1/20 size.
QUICK_SIM = {"viewers": 100, "duration-s": 30, "ramp-s": 10,
             "probe-join-s": 10}
QUICK_DATAGRAMS = 50_000


class BenchError(Exception):
    """The benchmark itself cannot run (build, input, usage)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def load_digests():
    with open(os.path.join(SUITE_DIR, "digests.json")) as f:
        return json.load(f)


# --- build -------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("ppsim sources (src/) not found next to benchsuite/")
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "ppsim_bench_run",
                  "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {log})")


# --- one rep = one process ----------------------------------------------

def runner(args, timeout=REP_TIMEOUT_S):
    """Runs ppsim_bench_run; returns (exit code, JSON or None, stderr)."""
    proc = subprocess.run([RUNNER] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT)
    if proc.returncode == 2:
        raise BenchError("runner usage error: " + proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    return proc.returncode, out, proc.stderr


def sim_args(workload, seed, quick):
    spec = dict(WORKLOADS[workload]["sim"])
    if quick:
        spec.update(QUICK_SIM)
    args = ["sim", "--seed", seed]
    for key, value in spec.items():
        args += ["--" + key, value]
    return args


def pick_port():
    """An OS-assigned UDP port, released again; a lost race shows up as a
    bind failure, which wire_rep() retries with a fresh port."""
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def timed_reps(rep, seconds, min_reps):
    """Calls rep() until `seconds` would be exceeded by one more rep."""
    reps, t0 = [], time.monotonic()
    while True:
        reps.append(rep())
        elapsed = time.monotonic() - t0
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if len(reps) >= min_reps and next_end > seconds:
            return reps


# --- measurement ----------------------------------------------------------

class Outcome:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def problem(self, text):
        self.problems.append(text)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def check_digests(o, workload, seed, quick):
    """Same-seed reps must agree; at the default seed they must also match
    the digest committed in digests.json."""
    if len(o.digests) > 1:
        o.problem(f"{workload}: same-seed reps disagree: {sorted(o.digests)}")
    if seed == DEFAULT_SEED and o.digests:
        want = load_digests()["quick" if quick else "workloads"].get(workload)
        if want is not None and o.digests != {want}:
            o.problem(f"{workload}: digest {sorted(o.digests)} "
                      f"!= committed {want}")


def sim_rep(o, workload, seed, quick, extra=()):
    """One sim rep; returns its JSON or None when it failed."""
    o.attempted += 1
    code, out = runner(sim_args(workload, seed, quick) + list(extra))[:2]
    if code != 0 or out is None or out.get("check") != "ok":
        o.failed += 1
        o.problem(f"{workload}: sim rep failed (exit {code}, "
                  f"check {out and out.get('check')})")
        return None
    o.digests.add(out["digest"])
    return out


def capture_seed(workload, seed):
    """wire-loopback replays one reference capture, whatever the seed
    (README.md, "Workloads"); the seed picks where its replay starts."""
    return DEFAULT_SEED if WORKLOADS[workload]["kind"] == "wire" else seed


def generate_trace(o, workload, seed, quick, traced):
    """Runs the workload's sim scenario once, keeping the probe capture for
    the loopback replay; returns (capture path, runner JSON) or None."""
    seed = capture_seed(workload, seed)
    suffix = "-quick" if quick else ""
    path = os.path.join(WORK, f"{workload}-{seed}{suffix}.trace")
    extra = ["--trace-out", path] + (["--traced"] if traced else [])
    code, out, _ = runner(sim_args(workload, seed, quick) + extra)
    if code != 0 or out is None or out.get("check") != "ok":
        o.problem(f"{workload}: capture run failed (exit {code}, "
                  f"check {out and out.get('check')})")
        return None
    o.digests.add(out["digest"])
    return path, out


def wire_rep(o, trace_file, datagrams, offset, traced, count_datagrams):
    """One loopback replay; returns its JSON, or None when it failed. The
    end-to-end pass counts datagrams as operations, the traced pass reps."""
    for _ in range(3):
        args = ["wire", "--trace-file", trace_file, "--port", pick_port(),
                "--datagrams", datagrams, "--offset", offset]
        code, out, err = runner(args + (["--traced"] if traced else []))
        if "bind(" not in err:
            break
    else:
        raise BenchError("no usable loopback port after 3 attempts")
    ok = code == 0 and out is not None
    if count_datagrams and out is not None:
        o.attempted += out["sent"]
        o.failed += out["failed"]
    else:
        o.attempted += 1
        o.failed += not ok
    if not ok:
        o.problem(f"wire rep failed (exit {code}, {out})")
        return None
    return out


def e2e(workload, seed, seconds, quick):
    o = Outcome()
    w = WORKLOADS[workload]
    min_reps = 2 if quick else 3
    if w["kind"] == "sim":
        reps = timed_reps(lambda: sim_rep(o, workload, seed, quick),
                          seconds, min_reps)
        ops = "events"
    else:
        generated = generate_trace(o, workload, seed, quick, traced=False)
        if generated is None:
            return o
        datagrams = QUICK_DATAGRAMS if quick else w["datagrams"]
        reps = timed_reps(lambda: wire_rep(o, generated[0], datagrams, seed,
                                           traced=False, count_datagrams=True),
                          seconds, min_reps)
        ops = "matched"
    check_digests(o, workload, capture_seed(workload, seed), quick)
    reps = [r for r in reps if r]
    if not reps:
        o.problem(f"{workload}: no successful rep")
        return o
    # Reps of one run repeat the same deterministic work, so they differ
    # only by host interference, which only ever adds time: timings report
    # the fastest rep (README.md, "Noise"). Memory is not noise-driven.
    o.metrics = {
        "us_per_op": min(r["wall_s"] / r[ops] * 1e6 for r in reps),
        "cpu_us_per_op": min(r["cpu_s"] / r[ops] * 1e6 for r in reps),
        "rss_peak_mb": statistics.median(r["rss_peak_mb"] for r in reps),
        "setup_s": min(r["setup_s"] for r in reps),
    }
    return o


def wire_layers(out):
    return {
        "wire.send_us": out["send_us"],
        "wire.poll_us_per_dgram": out["poll_us_per_dgram"],
        "wire.dgrams_per_poll": out["dgrams_per_poll"],
        "wire.dispatch_us_per_dgram": out["dispatch_us_per_dgram"],
        "wire.rx_queue_peak": out["rx_queue_peak"],
        "wire.lat_p50_us": out["lat_p50_us"],
        "wire.lat_p99_us": out["lat_p99_us"],
        "wire.lat_samples": out["matched"],
        "wire.rx_errors": out["rx_errors"],
        "wire.uplink_drops": out["uplink_drops"],
        "wire.downlink_drops": out["downlink_drops"],
    }


def layers(workload, seed, seconds, quick):
    """The traced pass: one traced sim run (layers + probes), untraced reps
    of the workload's end-to-end rep for the overhead ratio (at least two,
    for the rest of `seconds`), and one traced loopback replay of the sim
    run's probe capture."""
    t0 = time.monotonic()
    o = Outcome()
    w = WORKLOADS[workload]
    datagrams = (QUICK_DATAGRAMS if quick
                 else w.get("datagrams", TRACED_REPLAY_DATAGRAMS))
    generated = generate_trace(o, workload, seed, quick, traced=True)
    if generated is None:
        return o
    trace, traced = generated
    o.attempted += 1
    sim = traced["layers"]
    cat_events = sum(v for k, v in sim.items()
                     if k.endswith(".events") and k != "sim.events")
    if cat_events != sim["sim.events"]:
        o.problem(f"{workload}: categories sum to {cat_events}, "
                  f"sim.events is {sim['sim.events']}")

    def replay(traced):
        return wire_rep(o, trace, datagrams, seed, traced,
                        count_datagrams=False)
    budget = seconds - (time.monotonic() - t0)
    if w["kind"] == "sim":
        untraced = [r for r in timed_reps(
            lambda: sim_rep(o, workload, seed, quick), budget, 2) if r]
        for r in untraced:
            if r["events"] != sim["sim.events"]:
                o.problem(f"{workload}: untraced run executed {r['events']} "
                          f"events, traced {sim['sim.events']}")
        base = [r["wall_s"] for r in untraced]
        wire = replay(traced=True)
        traced_wall = traced["wall_s"]
    else:
        base = [r["wall_s"] for r in timed_reps(lambda: replay(False),
                                                budget, 2) if r]
        wire = replay(traced=True)
        traced_wall = wire and wire["wall_s"]
    check_digests(o, workload, capture_seed(workload, seed), quick)
    if wire is None or not base:
        return o
    o.metrics = dict(sim)
    o.metrics["obs.trace_overhead_frac"] = traced_wall / min(base) - 1
    o.metrics.update(wire_layers(wire))
    return o


def measure(workload, seed, seconds, trace, quick=False):
    if trace:
        return layers(workload, seed, seconds, quick)
    return e2e(workload, seed, seconds, quick)


def expected_metrics(trace):
    spec = load_spec()
    return spec["per_layer" if trace else "end_to_end"]


def result_object(o, trace):
    """The JSON line of the benchmark contract; unknown/missing metrics are
    problems, so the printed set always matches BENCHMARK.json."""
    metrics = {}
    for m in expected_metrics(trace):
        value = o.metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            if o.metrics:
                o.problem(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": o.correct, "attempted": max(o.attempted, 1),
            "failed": o.failed, "metrics": metrics}


# --- modes ----------------------------------------------------------------

def single(args):
    build()
    o = measure(args.workload, args.seed, args.seconds, args.trace)
    result = result_object(o, args.trace)
    for p in o.problems:
        print("PROBLEM", p, file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:15s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": "Release",
            "network": "loopback", "host": "shared"}


def suite(args):
    """Every workload, `runs` times, interleaved (A B C D A B C D ...)."""
    build()
    names = list(WORKLOADS)
    out = {"schema": "ppsim-benchsuite-v1",
           "pass": "layers" if args.trace else "e2e",
           "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
           "host": host_info(), "workloads": {}}
    units = {m["name"]: m["unit"] for m in expected_metrics(args.trace)}
    ok = True
    for run in range(args.runs):
        for name in names:
            o = measure(name, args.seed, args.seconds, args.trace)
            result = result_object(o, args.trace)
            ok &= result["correct"]
            entry = out["workloads"].setdefault(
                name, {"digests": [], "correct": [], "metrics": {}})
            entry["digests"] = sorted(set(entry["digests"]) | o.digests)
            entry["correct"].append(result["correct"])
            for metric, m in result["metrics"].items():
                entry["metrics"].setdefault(
                    metric, {"unit": units[metric], "values": []}
                )["values"].append(m["value"])
            for p in o.problems:
                print("PROBLEM", p, file=sys.stderr)
            print(f"run {run + 1}/{args.runs} {name}: "
                  f"{'ok' if result['correct'] else 'FAILED'}", file=sys.stderr)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def quick(args):
    """Self-test: both passes of every workload at ~1/20 size. Asserts that
    every BENCHMARK.json metric is present and finite, that same-seed reps
    agree on their digest, and that per-category events sum to sim.events
    (all enforced inside measure()/result_object())."""
    build()
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            o = measure(name, args.seed, 0, trace, quick=True)
            result = result_object(o, trace)
            status = "ok" if o.correct else "FAIL"
            failures += not o.correct
            print(f"quick {name:15s} trace={trace} {status} "
                  f"({len(result['metrics'])} metrics)")
            for p in o.problems:
                print("  ", p)
    print("bench_suite_quick:", "PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    try:
        if args.quick:
            return quick(args)
        if args.suite:
            return suite(args)
        if args.workload is None:
            ap.error("--workload, --suite or --quick is required")
        return single(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
