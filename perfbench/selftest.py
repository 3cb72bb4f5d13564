#!/usr/bin/env python3
"""Self-test of the benchmark at reduced scale.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, twice with the same seed on a
2-pod fabric carrying a few hundred groups, and asserts that:

  * the output parses and its metrics are exactly the ones BENCHMARK.json
    names for the mode;
  * every gate passes (exit code 0, ``correct``, no failed ops);
  * the counts repeat exactly across the two runs (end-to-end and per-layer
    metrics in count, byte and ratio units);
  * every per-layer metric named in BENCHMARK.json has an entry in
    perfbench/metric_map.json;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.

Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own runner module)

SMALL = ["--pods=2", "--groups=300", "--tenants=60", "--rounds=2",
         "--min_ops=120"]
SEED = 7
EXACT_UNITS = {"count", "B", "ratio"}


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, trace):
    code, lines = run.run_binary(workload, SEED, 1, trace, SMALL)
    if code != 0:
        fail(f"{workload} trace={trace}: exit code {code}: {lines[-2:]}")
    result = run.check_result(lines, trace)
    if result is None:
        fail(f"{workload} trace={trace}: result line rejected")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace={trace}: gates failed: {lines[-2]}")
    if result["attempted"] < 1:
        fail(f"{workload} trace={trace}: nothing attempted")
    record = json.loads(lines[-2])["record"]
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: metric {name} is not a number")
    return result, record


def check_repeat(workload, trace, units):
    a, rec_a = run_once(workload, trace)
    b, _ = run_once(workload, trace)
    for name, m in a["metrics"].items():
        if units[name] in EXACT_UNITS and m["value"] != b["metrics"][name]["value"]:
            fail(f"{workload} trace={trace}: count {name} differs across "
                 f"runs: {m['value']} vs {b['metrics'][name]['value']}")
    print(f"selftest: {workload} trace={trace}: ok "
          f"({a['attempted']} attempted, {rec_a['ops']} timed ops)")


def check_bare_directory():
    """Without the repository's sources the benchmark must refuse to run."""
    bare = os.path.join(run.BUILD_DIR, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_wve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("bare directory: exit code 0")
    if proc.stdout.strip():
        fail(f"bare directory: printed {proc.stdout.strip()[:200]!r}")
    print("selftest: bare directory: exits non-zero, prints nothing: ok")


def main():
    spec = load_spec()
    with open(os.path.join(run.BENCH_DIR, "metric_map.json")) as f:
        metric_map = json.load(f)
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in metric_map["per_layer"]]
    if missing:
        fail(f"metric_map.json lacks {missing}")
    if not run.build():
        fail("build failed")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for w in run.WORKLOADS:
        for trace in (0, 1):
            check_repeat(w, trace, units)
    check_bare_directory()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
