#!/usr/bin/env python3
"""Smoke-scale self-test of the session benchmark harness.

    python3 sessionbench/selftest.py

Run from the root of a source checkout. For every workload in
BENCHMARK.json, runs sessionbench/run.py --smoke (4 MiB snapshots) with
--trace 0 and --trace 1 and asserts that the result line is correct, that
attempted >= 1 and failed == 0, and that every declared metric is present,
finite and carries its declared unit. Then checks that the benchmark fails
cleanly (non-zero exit, no result line) in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits non-zero on any failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("sessionbench", "run.py")


def run(args, cwd):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_result(workload, trace, spec, errors):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke"], ROOT)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1):
        errors.append(f"{label}: not correct: {result['attempted']} "
                      f"attempted, {result['failed']} failed")
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{label}: {metric['name']} missing")
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append(f"{label}: {metric['name']} = {got['value']}")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{label}: {metric['name']} unit {got['unit']}, "
                          f"declared {metric['unit']}")
    print(f"ok   {label}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} operations")


def check_bare_directory(errors):
    # Only BENCHMARK.json and the benchmark's own files: no sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "sessionbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", "first_full", "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        errors.append("bare directory: expected a failure without a result")
    else:
        print(f"ok   bare directory: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            check_result(workload, trace, spec, errors)
    check_bare_directory(errors)
    for error in errors:
        print(f"FAIL {error}")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
