#!/usr/bin/env python3
"""Engine throughput gate (./ci.sh bench).

Compares a fresh `engine_bench --quick` RunReport against the committed
baseline (bench/baselines/BENCH_engine.json) and fails when events/sec on
any graph family, or the serving_sweep record's simulated requests/sec,
regresses by more than the threshold (default 30% — wide enough to absorb
shared-runner noise, tight enough to catch an accidental return to linear
scans in the dispatch loop or to re-pricing every layer of every serving
step).

Each engine_run record also carries speedup_vs_reference (run() vs the
preserved pre-refactor loop); the gate prints it for context but only the
events/sec ratio gates, since the reference loop's own speed drifts with
the allocator and the box.

Usage: check_engine_perf.py BASELINE.json CURRENT.json [threshold_pct]
"""

import json
import sys


def bench_records(path):
    """(engine_run records by graph, the serving_sweep record or None)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "actcomp.run_report.v1":
        raise SystemExit(f"{path}: not an actcomp.run_report.v1 document")
    out = {}
    serving = None
    for rec in doc.get("records", []):
        if rec.get("op") == "engine_run":
            out[rec["graph"]] = rec
        elif rec.get("op") == "serving_sweep":
            serving = rec
    if not out:
        raise SystemExit(f"{path}: no engine_run records")
    return out, serving


def main(argv):
    if len(argv) < 3:
        raise SystemExit(__doc__)
    base, base_serving = bench_records(argv[1])
    cur, cur_serving = bench_records(argv[2])
    threshold_pct = float(argv[3]) if len(argv) > 3 else 30.0

    failed = False
    for graph in sorted(base):
        if graph not in cur:
            raise SystemExit(f"missing engine_run record '{graph}' in {argv[2]}")
        ratio = cur[graph]["events_per_sec"] / base[graph]["events_per_sec"]
        delta_pct = (ratio - 1.0) * 100.0
        status = "ok" if delta_pct > -threshold_pct else "FAIL"
        print(f"engine_run {graph}: baseline "
              f"{base[graph]['events_per_sec'] / 1e6:.1f} Mev/s, current "
              f"{cur[graph]['events_per_sec'] / 1e6:.1f} Mev/s "
              f"({delta_pct:+.1f}%), speedup vs reference loop "
              f"{cur[graph]['speedup_vs_reference']:.1f}x [{status}]")
        if delta_pct <= -threshold_pct:
            failed = True
    if base_serving is not None:
        if cur_serving is None:
            raise SystemExit(f"missing serving_sweep record in {argv[2]}")
        ratio = (cur_serving["requests_per_sec"] /
                 base_serving["requests_per_sec"])
        delta_pct = (ratio - 1.0) * 100.0
        status = "ok" if delta_pct > -threshold_pct else "FAIL"
        print(f"serving_sweep: baseline "
              f"{base_serving['requests_per_sec'] / 1e3:.0f} kreq/s, current "
              f"{cur_serving['requests_per_sec'] / 1e3:.0f} kreq/s "
              f"({delta_pct:+.1f}%), pricing share "
              f"{cur_serving['pricing_share'] * 100.0:.0f}% [{status}]")
        if delta_pct <= -threshold_pct:
            failed = True
    if failed:
        print(f"engine events/sec or serving requests/sec regressed more than "
              f"{threshold_pct}% vs committed baseline", file=sys.stderr)
        return 1
    print(f"engine throughput within {threshold_pct}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
