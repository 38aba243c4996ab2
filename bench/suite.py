#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds and summarise.

    python3 bench/suite.py                       # all workloads, seeds 1..10
    python3 bench/suite.py --seeds 1             # one pass over all workloads
    python3 bench/suite.py --workloads estimate_csv --seeds 5 --first-seed 100
    python3 bench/suite.py --trace 1 --seeds 1   # per-layer metrics

Run from the root of a checkout. Each run is a fresh ``bench/run.py``
process of BENCHMARK.json's ``run_seconds``; runs execute one after another.
For each workload and metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median of ``statistics.quantiles(values, n=4)``, next to
the metric's bound and a third of it. With ``--trace 0`` it also prints, per
workload, the correlation across runs between the speed kernel's median time
and the raw (unscaled) median op time, which is what justifies scaling op
times by the kernel. It exits 1 if any run exits non-zero or reports
``correct: false``. ``--out`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {names}")

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs, ok = [], True
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            record = next((json.loads(line[len("record "):]) for line in lines
                           if line.startswith("record ")), None)
            good = done.returncode == 0 and result is not None and result["correct"]
            ok &= good
            if not good:
                sys.stderr.write(done.stdout + done.stderr)
            shown = "" if args.trace or not result else " ".join(
                f"{name}={value['value']:.6g}{value['unit']}"
                for name, value in result["metrics"].items())
            if record:
                shown += f" failed_share={record['failed_share']:.3g}"
            print(f"{workload:14s} seed {seed:4d} exit {done.returncode} "
                  f"correct {result['correct'] if result else None} {shown}", flush=True)
            runs.append({"workload": workload, "seed": seed, "exit": done.returncode,
                         "result": result, "record": record})

    summary = {}
    print(f"\n{'workload':14s} {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s} unit")
    for workload in workloads:
        results = [r["result"] for r in runs if r["workload"] == workload and r["result"]]
        for metric in metric_specs:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            if not values:
                continue
            stats = summarise(values)
            summary.setdefault(workload, {})[metric["name"]] = dict(stats, unit=metric["unit"])
            third = f"{metric['bound'] / 3:8.4f}" if "bound" in metric else f"{'-':>8s}"
            spread = f"{'-':>8s}" if stats["spread"] is None else f"{stats['spread']:8.4f}"
            print(f"{workload:14s} {metric['name']:40s} {stats['median']:12.6g} "
                  f"{stats['q1']:12.6g} {stats['q3']:12.6g} {spread} {third} {metric['unit']}")
    correlations = {}
    for workload in workloads:
        records = [r["record"] for r in runs if r["workload"] == workload and r["record"]]
        if args.trace or len(records) < 3:
            continue
        correlations[workload] = statistics.correlation(
            [rec["speed_kernel_ms_p50"] for rec in records],
            [rec["raw_wall"]["op_ms_p50"] for rec in records])
        print(f"{workload:14s} correlation of kernel time with raw op time over "
              f"{len(records)} runs: {correlations[workload]:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": spec["run_seconds"], "trace": args.trace,
                                        "kernel_op_correlation": correlations,
                                        "runs": runs, "summary": summary},
                                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
