#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold-open|serve-mixed|cycle-sim \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from this checkout's
sources) into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The benchmark's own stdout passes through unchanged; its
last line is the JSON result. Build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-open", "serve-mixed", "cycle-sim")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds the benchmark target; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "azul_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: library sources not found next to perfbench/",
              file=sys.stderr)
        return 1
    out = build_dir()
    if not build(out):
        return 1
    # The library reads AZUL_* variables as fallbacks; the benchmark's
    # inputs must come from its arguments alone.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AZUL_")}
    cmd = [os.path.join(out, "azul_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
