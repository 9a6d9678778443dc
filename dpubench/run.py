#!/usr/bin/env python3
"""Build dpubench from source and run one workload.

    python3 dpubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark and the simulator
libraries build into .bench_build/ (CMake, RelWithDebInfo); later
runs only rebuild what changed. dpubench's own JSON line is printed
first; the last line of stdout is the summary object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end metrics of BENCHMARK.json with
--trace 0 and its per_layer metrics with --trace 1 (the traced run
adds one repeat with spans and event-queue wall profiling on).
Build and progress output go to stderr.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dpubench")
# A run measures for --seconds plus one warm-up and, when traced, one
# traced repeat; anything near this bound is a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "dpubench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    # Its own session, so a hang takes down the repeat it forked too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("dpubench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        fail("dpubench printed no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    print(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("dpubench did not report " + m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
