#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload city_tick --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is built with CMake into
.bench_build/ (perfbench/CMakeLists.txt compiles ../src with the repository's
own flags), then perfbench's binary runs the workload. Its last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, with --trace 1 the per-layer ones (see perfbench/README.md).

--selftest runs every workload at a tiny scale, checks that each prints every
metric BENCHMARK.json names, and checks that a deliberately corrupted answer
is counted as a failure by each workload's oracle.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "deepsd_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program's sources (src/) are not in this checkout")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "deepsd_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def pinned_env():
    """The environment the program reads, pinned: blocked kernels, telemetry
    export and the trace ring off. The pool size is pinned by the binary."""
    env = dict(os.environ)
    env["DEEPSD_KERNEL"] = "blocked"
    env["DEEPSD_OBS_ENABLED"] = "0"
    for name in ("DEEPSD_TRACE_RING", "DEEPSD_BENCH_SCALE"):
        env.pop(name, None)
    return env


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    try:
        proc = subprocess.run([BINARY, "--work-dir", WORK] + args,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=pinned_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    finally:
        for name in os.listdir(WORK):
            if name.endswith(".dsar") or ".tmp" in name:
                os.remove(os.path.join(WORK, name))
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []
    code, lines = run_binary(["--selftest-oracles"])
    print("\n".join(lines))
    if code != 0:
        problems.append("oracle self-test failed")
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, lines = run_binary(["--workload", name, "--seed", "3",
                                      "--seconds", "2", "--trace", str(trace),
                                      "--scale", "tiny"])
            result = parse_result(lines) if code == 0 else None
            if result is None:
                problems.append("%s trace=%d: no result line" % (name, trace))
                continue
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if sorted(got) != sorted(want[trace]):
                problems.append("%s trace=%d: metrics %s, BENCHMARK.json "
                                "names %s" % (name, trace, got, want[trace]))
            for k, v in result["metrics"].items():
                if not math.isfinite(v["value"]) or (
                        trace == 0 and v["value"] <= 0):
                    problems.append("%s: %s = %r" % (name, k, v["value"]))
            if not result["correct"] or result["failed"]:
                problems.append("%s trace=%d: clean run reported failures"
                                % (name, trace))
            print("selftest %s trace=%d: %d metrics, %d operations checked"
                  % (name, trace, len(got), result["attempted"]))
        code, lines = run_binary(["--workload", name, "--seed", "3",
                                  "--seconds", "1", "--trace", "0",
                                  "--scale", "tiny", "--corrupt-one-answer"])
        result = parse_result(lines) if code == 0 else None
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append("%s: a corrupted answer was not counted as a "
                            "failure" % name)
        else:
            print("selftest %s: corrupted answer caught (%d of %d failed)"
                  % (name, result["failed"], result["attempted"]))
    for p in problems:
        print("SELFTEST FAILURE " + p)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if os.environ.get("DEEPSD_FAULTS"):
        log("perfbench: refusing to run with DEEPSD_FAULTS set")
        return 2
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", repr(args.seconds),
                              "--trace", str(args.trace)])
    result = parse_result(lines)
    if code != 0 or result is None:
        log("\n".join(lines))
        log("perfbench: the run failed (exit %d)" % code)
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
