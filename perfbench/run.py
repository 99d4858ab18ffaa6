#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). The first call configures and builds the library and the benchmark
in .bench_build/ (Release); later calls rebuild incrementally. The benchmark
binary then runs one workload and its last stdout line is the result JSON:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the binary runs
with ACTCOMP_PROF=1 and reports the per-layer metrics instead of the
end-to-end ones. Full records and Chrome traces land in .bench_out/.

Exits non-zero, without printing a result, when the library sources are
missing or the build or the run fails.
"""
import argparse
import gzip
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "actcomp_perfbench")
WORKLOADS = ("finetune", "serve-sweep", "serve-fleet", "wire")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "actcomp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def compress_chrome_trace(workload, seed):
    """Gzips the traced run's Chrome trace (Perfetto opens .json.gz)."""
    path = os.path.join(OUT, f"{workload}-{seed}-trace1.chrome_trace.json")
    if os.path.isfile(path):
        with open(path, "rb") as src, gzip.open(path + ".gz", "wb",
                                                 compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        os.remove(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (seconds, not a measurement)")
    ap.add_argument("--inject", default="",
                    help="self-test fault: nan-param, perturb-cost, corrupt-msg")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT, "--git-rev", git_rev()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    env = dict(os.environ)
    env["ACTCOMP_PROF"] = args.trace
    env.pop("ACTCOMP_THREADS", None)  # each workload sets its pool width
    env["ACTCOMP_REPORT_DIR"] = OUT
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    if args.trace == "1":
        compress_chrome_trace(args.workload, args.seed)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
