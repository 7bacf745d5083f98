#!/usr/bin/env python3
"""Build and run the AA-Dedupe session benchmark.

    python3 sessionbench/run.py --workload first_full|weekly|restore \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. Builds bench_session (and the
libraries under src/) in .bench_build/sessionbench with CMake, runs it, and
prints its report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics, holding exactly the metrics
BENCHMARK.json declares for the trace mode (end_to_end for --trace 0,
per_layer for --trace 1). Exits non-zero, without that line, when the
sources are missing, the build fails or the run produces no result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sessionbench")
BINARY = os.path.join(BUILD, "bench_session")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"sessionbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AA-Dedupe sources: expected src/ beside sessionbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_session",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args()

    build()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_session did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"bench_session printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"bench_session gave no result line (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    names = declared_metrics(args.trace == "1")
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
