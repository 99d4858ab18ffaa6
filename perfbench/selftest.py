#!/usr/bin/env python3
"""Self-test of the repository benchmark: proves its output checks fire.

    python3 perfbench/selftest.py

Runs every workload at tiny size (a few seconds in all), untraced and
traced, and expects a clean result. Then runs each workload once more with a
fault injected into its outputs and expects the benchmark to count it as a
failed op:

    finetune     nan-param     a NaN weight makes the loss non-finite
    serve-sweep  perturb-cost  one priced step drifts, so a report digest
                               no longer matches its set-up run
    serve-fleet  perturb-cost  (same, on the fleet)
    wire         corrupt-msg   one byte of a Q2 message is flipped on the
                               wire, so decode(encode(x)) != round_trip(x)

Finally it copies only BENCHMARK.json and this directory into a scratch
directory under .bench_out/ and checks that the benchmark exits non-zero
there without printing a result. Exits 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
FAULTS = {"finetune": "nan-param", "serve-sweep": "perturb-cost",
          "serve-fleet": "perturb-cost", "wire": "corrupt-msg"}


def run(args, cwd=ROOT, run_py=RUN):
    proc = subprocess.run([sys.executable, run_py] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload, fault in FAULTS.items():
        for trace in ("0", "1"):
            _, r = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--tiny"])
            check(r is not None and r["correct"] and r["failed"] == 0 and
                  r["attempted"] >= 1,
                  f"{workload} trace={trace}: clean tiny run is correct")
        _, r = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--tiny", "--inject", fault])
        check(r is not None and not r["correct"] and r["failed"] >= 1,
              f"{workload}: injected {fault} is counted as a failed op")

    bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run(["--workload", "wire", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=bare,
                  run_py=os.path.join(bare, os.path.basename(HERE), "run.py"))
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "without the library sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
