#!/usr/bin/env python3
"""Builds and runs the KBForge benchmark for one workload.

    python3 perfbench/run.py --workload read|ingest|harvest --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (a CMake project over the repository's src/) into
.bench_build/perfbench; later runs rebuild only what changed. The
binary's output is passed through, and the last line printed is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end ones BENCHMARK.json names (--trace 0) or
its per-layer ones (--trace 1). A per-layer metric of a layer the
workload does not run reads 0. The exit code is nonzero, and no result
is printed, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds kbbench; returns its path or None."""
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "--target", "kbbench", "-j", "4"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "kbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["read", "ingest", "harvest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir, "--spans",
               os.path.join(BUILD_ROOT, "spans-%s.tsv" % args.workload)]
    # On SIGTERM, unwind through the finally below so the benchmark
    # process is stopped and waited for, not left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(stdout)
        print("perfbench: the run printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    measured = result["metrics"]
    metrics = {}
    for name, unit in wanted.items():
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            print("perfbench: the run did not measure %s" % name,
                  file=sys.stderr)
            return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
