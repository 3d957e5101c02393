#!/usr/bin/env python3
"""Run one workload of the membw repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench_driver and membw_served from the checkout's sources
into .bench_build/perfbench (the first run takes a few minutes), runs
the workload for --seconds, checks the simulated outputs, prints a
summary and then, as the last line of standard output, one JSON
result object.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
# The seed whose simulated statistics digests.json records.
DEFAULT_SEED = 42
# The driver stops timing after at most 3 x --seconds; set-up rounds,
# the warm-up pass, the pass in flight and the output check get the
# margin.
TIMEOUT_MARGIN_S = 140


def driver_timeout(seconds):
    return 3 * seconds + TIMEOUT_MARGIN_S


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(jobs):
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "--parallel", str(jobs)])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed, see {log_path}")
    return BUILD / "perfbench_driver"


def stop_group(pgid):
    """Kill what is left of the driver's process group; wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_driver(driver, args, jobs):
    tag = f"{args.workload}-{os.getpid()}"
    out = BUILD / f"raw-{tag}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--out", str(out),
           # Relative, so the path fits a socket address wherever the
           # checkout lives.
           "--socket", os.path.relpath(BUILD / f"served-{tag}.sock", ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    timeout = driver_timeout(args.seconds)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"driver did not finish within {timeout:g} s")
    stop_group(proc.pid)
    if code:
        fail(f"driver exited with code {code}")
    raw = json.loads(out.read_text())
    out.unlink()
    return raw


def report(args, raw, metrics, attempted, failed, problems):
    mode = "traced run, per-layer metrics" if args.trace else "plain run, end-to-end metrics"
    passes = raw["passes"]
    print(f"perfbench {args.workload}: seed {args.seed}, {mode}, {raw['jobs']} workers")
    print(f"  input: {raw['input']}")
    print(f"  timed passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced)")
    loop = statistics.median(p["ref_s"] for p in passes)
    print(f"  host: reference loop {loop:.6g} s (median); times below are reference "
          f"seconds, measured x {harness.REFERENCE_LOOP_S:g} s / the loop time beside them")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    kinds, at = harness.breakdown(raw)
    print("  answers of the plain passes by kind (p50_ms falls on "
          f"{at.get('p50_ms', '-')}, p99_ms on {at.get('p99_ms', '-')}):")
    for kind, k in kinds.items():
        p99 = f"{k['p99_ms']:.6g}" if k["p99_ms"] is not None else "-"
        print(f"    {kind:<24} {k['count']:>6} answers  p50 {k['p50_ms']:.6g} ms  "
              f"p99 {p99} ms  {100 * k['time_share']:.1f}% of answer time")
    frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':<26} {frac:>14.6g} ratio ({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(f"  output check: {'FAILED' if failed or problems else 'passed'}")


def main():
    parser = argparse.ArgumentParser(description="Run one workload of the membw benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="record this run's statistics digest in digests.json "
                             "(plain batch run at the default seed)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    served = args.workload == "served_mix"
    if args.update_digests and (served or args.trace or args.seed != DEFAULT_SEED):
        fail("--update-digests needs a plain batch run at the default seed")

    jobs = min(4, len(os.sched_getaffinity(0)))
    raw = run_driver(build(jobs), args, jobs)

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.update_digests:
        digests[args.workload] = raw["passes"][0]["digest"]
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    if served:
        attempted, failed, problems = harness.served_outcome(raw)
    else:
        expected = digests.get(args.workload) if args.seed == DEFAULT_SEED else None
        attempted, failed, problems = harness.batch_outcome(raw, expected)

    section = "per_layer" if args.trace else "end_to_end"
    try:
        if args.trace:
            values = harness.layer_metrics(raw, [m["name"] for m in spec[section]])
        else:
            values = harness.end_to_end(raw)
    except ValueError as e:
        fail(str(e))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    report(args, raw, metrics, attempted, failed, problems)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
