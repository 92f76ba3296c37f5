#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload kv-a --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (CMake, from
bench/e2e/CMakeLists.txt); the daemon roots, report and traces go under
.bench_build/ too. The binary's `workload metric value unit` lines are passed
through, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 it holds the end_to_end metrics of BENCHMARK.json, measured in
the untraced window; with --trace 1 the per_layer metrics, from a run that
adds a traced window. Exits non-zero, printing no result, when the checkout
cannot build the benchmark or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}: not a checkout of the repository")
        return None
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return BUILD / "bench_e2e"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    if binary is None:
        log("build failed")
        return 2

    work = BUILD / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report_path = work / "report.json"
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--duration-s={args.seconds}", f"--out={report_path}", "--workdir=state"]
    if args.trace:
        command.append(f"--trace={BUILD / 'trace'}")
    try:
        proc = subprocess.run(command, cwd=work, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    sys.stdout.write(proc.stdout)
    if not report_path.exists():
        log(f"bench_e2e exited with {proc.returncode} and wrote no report")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    report = json.loads(report_path.read_text())["workloads"][0]
    shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        measured = report["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            log(f"bench_e2e did not report {metric['name']} in {metric['unit']}")
            return 1
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    correct = proc.returncode == 0 and report["correct"] and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
