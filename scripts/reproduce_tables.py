#!/usr/bin/env python3
"""Run the simulation study presets and print their summary tables.

Desk scale by default (1000 iterations per scenario, 2-3 s each on the
default 2 workers of a 2-core Intel Xeon, about 6 s for the two main tables
with the truth oracle); pass --full for the 5000-iteration study the
reference results use.

Examples:
    python scripts/reproduce_tables.py                       # main two tables
    python scripts/reproduce_tables.py --scenarios all
    python scripts/reproduce_tables.py --scenarios nv500_nonprob,nv1500_nonprob
"""

import argparse
import sys
import time
from dataclasses import replace

from mismeasure_ate.reporting import report_from_scenario
from mismeasure_ate.simulation import run_scenario, scenario_catalog, true_ate_oracle

MAIN = ("main_srs", "main_nonprob")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenarios", default="main",
                        help="'main', 'all', or a comma-separated list of preset names")
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--full", action="store_true",
                        help="5000 iterations and a 5000-population truth oracle")
    parser.add_argument("--seed", type=int, default=20250801)
    parser.add_argument("--workers", type=int, default=2)
    return parser.parse_args(argv)


def refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    # refused before any work, the truth oracle included
    for option, count in (("--iterations", args.iterations), ("--workers", args.workers)):
        if count < 1:
            return refuse(f"{option} must be at least 1, got {count}")
    catalog = scenario_catalog()
    if args.scenarios == "main":
        names = list(MAIN)
    elif args.scenarios == "all":
        # skip aliases so each scenario runs once
        names = sorted({cfg.name for cfg in catalog.values()})
    else:
        names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
        if not names:
            return refuse(f"--scenarios names no scenario: {args.scenarios!r}")
        unknown = [n for n in names if n not in catalog]
        if unknown:
            return refuse(f"unknown scenarios: {unknown}")

    iterations = 5000 if args.full else args.iterations
    truth_populations = 5000 if args.full else 100

    # every preset shares the same treatment/outcome process, so one oracle
    # run serves all of them
    print("estimating the true effect ...", flush=True)
    truth = true_ate_oracle(catalog[names[0]].dgp, populations=truth_populations,
                            base_seed=args.seed, workers=args.workers)
    print(f"true ATE ~= {truth.value:.5f} (MC SE {truth.mc_se:.5f})\n")

    for name in names:
        config = replace(catalog[name], iterations=iterations, base_seed=args.seed,
                         truth=truth.value)
        started = time.perf_counter()
        result = run_scenario(config, workers=args.workers)
        report = report_from_scenario(result, elapsed=time.perf_counter() - started)
        print(f"=== {name} ===")
        print(report.to_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
