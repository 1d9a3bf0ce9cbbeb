#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The benchmark (perfbench/CMakeLists.txt)
compiles the library from src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the helper self-test, then one workload. The
report goes to stdout; its last line is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 1 the traced run also writes its spans as CSV under
<build dir>/traces/. Exits non-zero, printing no result, when the sources
are missing, the build or self-test fails, or the run produces no result.

`--workload all` runs the four workloads in turn, each in its own process,
and ends with one combined JSON line: correct only when every workload is,
metrics named <workload>.<metric>.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["prodline", "bridge-stream", "reload-churn", "tenant-admit"]
# Per workload process: --seconds is at most 60, set-up and checks take
# a few seconds more.
RUN_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("step failed: " + " ".join(cmd))


def build(build_dir):
    marker = os.path.join(ROOT, "src", "soleil", "application.hpp")
    if not os.path.isfile(marker):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    build(build_dir)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(build_dir, w, args) for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))
        return
    # `all`: every workload's verdict counts; metrics are named
    # <workload>.<metric>.
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                    for k, v in r["metrics"].items()},
    }))


def run_workload(build_dir, workload, args):
    """Runs one workload in its own process; echoes its report and
    returns its checked result (the caller prints it)."""
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.csv" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s exceeded %d s" % (workload, RUN_TIMEOUT_S))
    output = proc.stdout.decode(errors="replace")
    lines = output.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(output)
        fail("%s exited %d without a result" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    expected = expected_metrics(bool(args.trace))
    if expected is not None and set(result["metrics"]) != expected:
        fail("%s: metrics %s differ from BENCHMARK.json %s"
             % (workload, sorted(result["metrics"]), sorted(expected)))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return result


if __name__ == "__main__":
    main()
