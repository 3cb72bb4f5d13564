#!/usr/bin/env python3
"""Builds and runs the paper-scale Elmo benchmark.

One workload (the form the benchmark contract in BENCHMARK.json uses):

    python3 perfbench/run.py --workload walk_wve --seed 1 --seconds 10 --trace 0

Every workload, with a table of all end-to-end metrics (and, with
``--trace 1``, the per-layer ones):

    python3 perfbench/run.py --all --seed 1 --seconds 10 [--trace 1]

Run from the root of a checkout. The benchmark compiles the repository's
``src/`` with its own CMake project (perfbench/CMakeLists.txt) into
``.bench_build/``; build output goes to stderr. In single-workload mode the
binary's stdout is passed through: the run record, then the result line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is non-zero
when a gate failed, when the metrics do not match BENCHMARK.json, or when
the build fails (as it does without the repository's sources).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "elmo_perfbench")
WORKLOADS = ("walk_wve", "churn_wve", "churn_under_traffic")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no repository sources under {ROOT}/src; cannot build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "elmo_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def contract_units(trace):
    """{metric: unit} BENCHMARK.json expects for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines).

    `extra` holds the binary's reduced-scale flags (--pods, --groups, ...),
    which only the self-test passes; the benchmark command runs at paper
    scale.
    """
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        cmd.append(f"--trace_out={trace_dir}/{workload}-seed{seed}.jsonl")
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, trace):
    """Validates the result line against the contract; returns it or None."""
    if not lines:
        log("the benchmark printed nothing")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last line is not JSON")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"unexpected result keys {sorted(result)}")
        return None
    units = contract_units(trace)
    got = {k: m.get("unit") for k, m in result["metrics"].items()}
    if units is not None and units != got:
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}, units "
            f"{sorted(k for k in units if k in got and units[k] != got[k])}")
        return None
    return result


def print_table(records):
    """Prints every metric of each workload's run record."""
    for rec in records:
        print(f"\n== {rec['workload']} (seed {rec['seed']}, "
              f"{rec['ops']} timed ops, {rec['host']['nproc']} cpus, "
              f"{rec['host']['cpu']}, {rec['host']['compiler']}, "
              f"{rec['host']['build_type']})")
        for section in ("metrics", "per_layer"):
            for name, m in rec.get(section, {}).items():
                v = m["value"]
                shown = "—" if v is None else f"{v:.6g}"
                print(f"  {name:<44} {shown:>14} {m['unit']}")
        if rec["failures"]:
            print("  FAILURES:", "; ".join(rec["failures"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    if not build():
        return 1

    if not args.all:
        code, lines = run_binary(args.workload, args.seed, args.seconds,
                                 args.trace)
        result = check_result(lines, args.trace)
        if result is None:
            return code or 3
        print("\n".join(lines), flush=True)
        return code

    records, worst = [], 0
    for w in WORKLOADS:
        code, lines = run_binary(w, args.seed, args.seconds, args.trace)
        if check_result(lines, args.trace) is None or len(lines) < 2:
            return code or 3
        records.append(json.loads(lines[-2])["record"])
        worst = worst or code
    print_table(records)
    return worst


if __name__ == "__main__":
    sys.exit(main())
