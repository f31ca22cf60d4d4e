#!/usr/bin/env python3
"""Builds the perfbench program from source and runs it.

    python3 perfbench/run.py --workload lu-lrc-32 --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --test              # the benchmark's own tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), span files and run summaries to its perfbench-out/. Build
output goes to stderr; the last line of stdout is perfbench's JSON result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["lu-lrc-32", "sor-hlrc-32", "wnsq-lrc-64-obs"]


def build(target):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    out_dir = os.path.join(root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target), out_dir


def run_all(binary, out_dir, args):
    """Runs every workload with the same arguments and prints one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([binary, "--workload", name, "--out", out_dir] + args,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        for line in lines[:-1]:
            print(line)
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][name + "." + metric] = m
            print("%-16s %-28s %16.6f %s" % (name, metric, m["value"], m["unit"]))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    args = sys.argv[1:]
    if args == ["--test"]:
        binary, _ = build("perfbench_tests")
        return subprocess.run([binary]).returncode
    binary, out_dir = build("perfbench")
    for i, arg in enumerate(args[:-1]):
        if arg == "--workload" and args[i + 1] == "all":
            return run_all(binary, out_dir, args[:i] + args[i + 2:])
    return subprocess.run([binary, "--out", out_dir] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
