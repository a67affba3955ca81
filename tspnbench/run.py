#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 tspnbench/run.py --workload wire|screen --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
tspnbench/ (the tspn library from src/ plus the benchmark binary) in Release
mode into .bench_build/; later runs only rebuild what changed. Build output
goes to stderr. The binary's report goes to stdout and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1.

TSPN_* environment variables change serving defaults, so they are removed
from the environment the benchmark builds and runs in.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = ".bench_build"  # relative to ROOT; unix socket paths stay short
RUN_TIMEOUT_S = 175


def log(message):
    print("tspnbench: " + message, file=sys.stderr, flush=True)


def scrubbed_environment():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSPN_")}
    removed = sorted(set(os.environ) - set(env))
    if removed:
        log("ignoring " + " ".join(removed))
    return env


def build(env):
    """Configures (once) and builds the benchmark binary; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tspn_ra.h")):
        log("library sources (src/) not found next to " + BENCH_DIR)
        return False
    build_dir = os.path.join(ROOT, BUILD_DIR)
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "tspnbench"]
    for attempt in range(2):
        ok = (subprocess.run(configure, cwd=ROOT, env=env, stdout=sys.stderr)
              .returncode == 0 and
              subprocess.run(compile_cmd, cwd=ROOT, env=env, stdout=sys.stderr)
              .returncode == 0)
        if ok:
            return True
        if attempt == 0 and os.path.isdir(build_dir):
            # A cache from another checkout location cannot be reused.
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(build_dir, ignore_errors=True)
    return False


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire", "screen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = scrubbed_environment()
    if not build(env):
        log("build failed")
        return 1
    command = [os.path.join(ROOT, BUILD_DIR, "tspnbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD_DIR, "work"),
               "--trace-dir", os.path.join(BUILD_DIR, "traces")]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.decode(errors="replace").splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        log("benchmark exited with code %d" % run.returncode)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark printed no result")
        return 1

    expected = expected_metrics(args.trace)
    reported = set(result["metrics"])
    if reported != expected:
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
            % (sorted(expected - reported), sorted(reported - expected)))
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
