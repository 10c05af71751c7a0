#!/usr/bin/env python3
"""Build famsim's benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig12_steady --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/; the benchmark's own outputs (Chrome trace of the traced run,
temporary trace files) go to <build dir>/perfbench-out. The last line of
stdout is the result JSON printed by famsim_perfbench. The workloads and
metrics are described in perfbench/DESIGN.md.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("fig12_steady", "scale_n16_t2", "paper_suite_j2")
BUILD_JOBS = "3"
# A run must end within 180 s; the build of a fresh checkout is
# allowed more and is not counted against this.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    """Configure (first time) and build famsim_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "famsim_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "arch", "system.hh")):
        fail(f"no famsim sources under {root}/src; run from a checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        binary = build(here, os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    # The library reads FAMSIM_* only through the CLI helpers, but keep
    # the benchmark's inputs to its arguments alone.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FAMSIM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target, "perfbench-out")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_LIMIT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    print(f"perfbench: {args.workload} seed {args.seed} took "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
