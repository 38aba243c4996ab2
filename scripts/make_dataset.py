#!/usr/bin/env python3
"""Export one simulated dataset (CSV) plus the model-spec JSON of the
preset's analyst models (``ScenarioConfig.model_spec``), ready to feed to
``mismeasure-ate estimate``.

Example:
    python scripts/make_dataset.py --scenario main_nonprob --seed 7 --out demo
    mismeasure-ate estimate demo.csv demo_model.json
"""

import argparse
import json
import sys
from dataclasses import asdict, replace

from mismeasure_ate.reporting import write_dataset_csv
from mismeasure_ate.simulation import (
    _rng,
    child_seed,
    generate_population,
    resolve_selection,
    scenario_catalog,
    select_validation,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", default="main_nonprob")
    parser.add_argument("--n", type=int, help="override the scenario's sample size")
    parser.add_argument("--seed", type=int, default=20250801)
    parser.add_argument("--out", default="dataset", help="output stem (default 'dataset')")
    args = parser.parse_args(argv)

    catalog = scenario_catalog()
    if args.scenario not in catalog:
        print(f"error: unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    config = replace(catalog[args.scenario], base_seed=args.seed)
    if args.n is not None:
        try:
            config = replace(config, dgp=replace(config.dgp, n=args.n))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    selection_used, intercept = resolve_selection(config)
    rng = _rng(child_seed(config.base_seed, 0))
    population = generate_population(config.dgp, rng)
    frame = select_validation(population, selection_used, rng)

    csv_path = f"{args.out}.csv"
    spec_path = f"{args.out}_model.json"
    write_dataset_csv(frame, csv_path)
    with open(spec_path, "w", encoding="utf-8") as handle:
        # the preset's analyst models, misspecified ones included
        json.dump(asdict(config.model_spec), handle, indent=2)
        handle.write("\n")
    print(f"wrote {csv_path} ({frame.n} rows, {frame.n_v} validated) and {spec_path}")
    if intercept is not None:
        print(f"selection intercept calibrated to {intercept:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
