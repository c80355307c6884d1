#!/usr/bin/env python3
"""Build and run the parcycle benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload temporal-batch --seed 104 \
        --seconds 15 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the library
from the checkout's src/ plus the perfbench driver) into .bench_build/; later
runs only rebuild what changed. Build output goes to stderr. The driver's
report goes to stderr and its result, one JSON object, is the last line of
stdout. The exit code is the driver's: 0 when every operation matched its
reference, 1 otherwise, 2 on a usage or build error.

    python3 perfbench/run.py --self-test

runs every workload at a tiny input size, including those BENCHMARK.json
does not gate, and checks that each metric BENCHMARK.json names is printed
with its unit, that a deliberately wrong reference count is reported as a
failure, and that a new seed changes the input but not the set of
metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Default seed per workload; stream-dense replays the temporal-batch input.
# BENCHMARK.json gates temporal-batch and stream-sparse; simple-batch and
# stream-dense stay runnable (perfbench/README.md says why they are not
# gated).
DEFAULT_SEEDS = {
    "temporal-batch": 104,
    "simple-batch": 201,
    "stream-dense": 104,
    "stream-sparse": 107,
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def child_env():
    """Environment for children: temporary files stay inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP_DIR)


def build():
    """Configures (once) and builds the driver; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithAssert"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return True


def run_driver(args, timeout=RUN_TIMEOUT_S):
    """Runs the driver; returns (exit code, stdout, stderr)."""
    try:
        done = subprocess.run([BINARY, "--work-dir", WORK_DIR] + args,
                              capture_output=True, text=True,
                              env=child_env(), timeout=timeout, check=False)
    except subprocess.TimeoutExpired as err:
        # subprocess.run kills the child and waits for it before raising.
        return 1, err.stdout or "", f"timed out after {timeout} s\n"
    return done.returncode, done.stdout, done.stderr


def parse_result(stdout):
    """The driver's result: the last stdout line, as a dict (or None)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def run_workload(opts):
    if not build():
        return 2
    code, stdout, stderr = run_driver(
        ["--workload", opts.workload, "--seed", str(opts.seed),
         "--seconds", str(opts.seconds), "--trace", str(opts.trace),
         "--size", opts.size])
    sys.stderr.write(stderr)
    result = parse_result(stdout)
    if result is None:
        log(f"driver exited {code} without a result")
        return code or 1
    print(json.dumps(result), flush=True)
    return code


def self_test():
    if not build():
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def tiny(workload, seed, trace, extra=()):
        code, stdout, stderr = run_driver(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
             "--trace", trace, "--size", "tiny"] + list(extra), timeout=120)
        match = re.search(r"input_fingerprint=(\d+)", stderr)
        return code, parse_result(stdout), match.group(1) if match else None

    for name, seed in DEFAULT_SEEDS.items():
        runs = {}
        for trace in ("0", "1"):
            code, result, fp = tiny(name, seed, trace)
            runs[trace] = (result, fp)
            if code != 0 or result is None or not result["correct"] \
                    or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: exit {code}, "
                                f"result {result}")
                continue
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                failures.append(f"{name} trace={trace}: metrics {units} "
                                f"differ from BENCHMARK.json")
            for key, value in result["metrics"].items():
                if set(value) != {"value", "unit"} or \
                        not isinstance(value["value"], (int, float)):
                    failures.append(f"{name}: malformed metric {key}: {value}")

        code, result, fp = tiny(name, seed + 1, "0")
        base, base_fp = runs["0"]
        if result is None or base is None or \
                set(result["metrics"]) != set(base["metrics"]):
            failures.append(f"{name}: another seed changed the metric set")
        if fp is None or fp == base_fp:
            failures.append(f"{name}: another seed left the input unchanged "
                            f"(fingerprint {fp})")

        code, result, _ = tiny(name, seed, "0", ["--reference-offset", "1"])
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            failures.append(f"{name}: a wrong reference was not reported as "
                            f"a failure (exit {code}, result {result})")
        log(f"self-test {name}: checked")

    for failure in failures:
        log(f"SELF-TEST FAILURE: {failure}")
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.workload is None:
        parser.error("--workload is required")
    if opts.seed is None:
        opts.seed = DEFAULT_SEEDS[opts.workload]
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
