#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tables_wire --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (which compiles ../src) into .bench_build/perfbench;
later runs only re-check the build. Build output and progress go to stderr;
the last line of stdout is the run's JSON result. Exits non-zero without a
result when the sources, the build or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ("tables_wire", "point_http", "train_web")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configures once, then builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no library sources under {ROOT}/src; run from a checkout")
    if shutil.which("cmake") is None:
        return fail("cmake is not installed")
    binary = build()
    if binary is None:
        return fail("build failed")

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # a training child dies with it (PR_SET_PDEATHSIG)
        proc.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Model files are large; keep only the span dump of a traced run.
        for name in os.listdir(WORK_DIR) if os.path.isdir(WORK_DIR) else []:
            if not name.endswith(".spans.tsv"):
                os.remove(os.path.join(WORK_DIR, name))
    if proc.returncode != 0:
        return fail(f"run exited with {proc.returncode}")
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
