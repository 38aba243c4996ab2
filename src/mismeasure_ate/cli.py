"""Command-line front end.

Subcommands:

* ``simulate <scenario|config.json>``: run a Monte Carlo scenario and emit
  per-estimator bias, empirical SE, mean sandwich SE, and coverage.
* ``estimate <data.csv> <model_spec.json>``: analyze one dataset, emitting
  every applicable estimator with its sandwich SE and 95% CI (the naive
  estimator is always included for contrast).
* ``true-ate <scenario|config.json>``: Monte Carlo estimate of the true
  average treatment effect implied by a data-generating process.

Exit codes: 0 on success, 2 on configuration/schema errors and on files
that cannot be opened, read or written (OSError), 3 on computation errors.
Formats: aligned table (default), csv, json via ``--format``; ``--out``
writes the rendered report to a file as well.

Seed precedence: ``--seed`` beats a config file's ``seed`` key, which beats
the MISMEASURE_ATE_SEED environment variable, which beats the built-in
default.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .errors import ConfigParseError, MismeasureError, SchemaError, UnknownScenario
from .frames import ESTIMATOR_IDS
from .inference import analyze_frame
from .reporting import (
    RunReport,
    load_model_spec,
    load_scenario_config,
    read_dataset_csv,
    report_from_analysis,
    report_from_scenario,
    report_from_truth,
)
from .simulation import (
    DEFAULT_SEED,
    ScenarioConfig,
    run_scenario,
    scenario_catalog,
    true_ate_oracle,
)
from . import __version__

ENV_SEED = "MISMEASURE_ATE_SEED"
CONFIG_EXIT, COMPUTE_EXIT = 2, 3

# every estimator but the oracle, which needs the gold outcome on every row
ESTIMATE_ORDER = tuple(i for i in ESTIMATOR_IDS if i != "oracle")


def _env_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigParseError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _resolve_scenario(ref: str, cli_seed: int | None) -> ScenarioConfig:
    """Look up a preset by name or parse a config file, applying seed
    precedence (--seed > config seed > environment > default)."""
    default_seed = _env_seed()
    catalog = scenario_catalog()
    if ref in catalog:
        config = catalog[ref]
        if default_seed is not None:
            config = replace(config, base_seed=default_seed)
    elif os.path.exists(ref):
        config = load_scenario_config(
            ref, name=os.path.splitext(os.path.basename(ref))[0],
            default_seed=default_seed if default_seed is not None else DEFAULT_SEED,
        )
    else:
        raise UnknownScenario(
            f"{ref!r} is neither a scenario preset nor a config file; "
            f"presets: {', '.join(sorted(set(catalog)))}"
        )
    if cli_seed is not None:
        config = replace(config, base_seed=cli_seed)
    return config


def _require_at_least_one(*counts) -> None:
    """Refuse the first (option, count) pair whose count is below 1."""
    for option, count in counts:
        if count < 1:
            raise ConfigParseError(f"{option} must be at least 1, got {count}")


def _emit(report: RunReport, args) -> None:
    rendered = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    sys.stdout.write(rendered)


def cmd_simulate(args) -> int:
    _require_at_least_one(("--workers", args.workers))
    config = _resolve_scenario(args.scenario, args.seed)
    overrides = {}
    if args.full:
        overrides["iterations"] = 5000
        overrides["truth_populations"] = 5000
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.estimators is not None:
        overrides["estimators"] = tuple(e.strip() for e in args.estimators.split(",") if e.strip())
    if args.truth is not None:
        overrides["truth"] = args.truth
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as exc:
            raise ConfigParseError(str(exc)) from None

    started = time.perf_counter()
    result = run_scenario(config, workers=args.workers)
    report = report_from_scenario(result, elapsed=time.perf_counter() - started)
    _emit(report, args)
    return 0


def cmd_estimate(args) -> int:
    for option, weight in (("--w", args.w), ("--b", args.b)):
        if weight is not None and not 0.0 <= weight <= 1.0:
            raise ConfigParseError(f"{option} must lie in [0, 1], got {weight}")
    frame = read_dataset_csv(args.data)
    spec = load_model_spec(args.model_spec)
    x_treat, x_sel = spec.designs(frame)

    metadata = {
        "data": os.path.basename(args.data),
        "n": frame.n,
        "n_v": frame.n_v,
        "treatment_covariates": list(spec.treatment_covariates),
        "selection_covariates": (None if spec.selection_covariates is None
                                 else list(spec.selection_covariates)),
        "version": __version__,
    }

    started = time.perf_counter()
    if frame.n_v == 0:
        ids, leading = ("naive",), ["no validated rows: only the naive estimator is available"]
    else:
        ids, leading = ESTIMATE_ORDER, []
    analysis = analyze_frame(frame, ids, x_treat=x_treat, x_sel=x_sel, w=args.w, b=args.b)
    report = report_from_analysis(analysis, metadata=metadata,
                                  elapsed=time.perf_counter() - started)
    report.warnings[:0] = leading
    if not analysis.estimates:
        sys.stderr.write("error: no estimator could be computed\n")
        for line in report.warnings:
            sys.stderr.write(f"  {line}\n")
        return COMPUTE_EXIT
    _emit(report, args)
    return 0


def cmd_true_ate(args) -> int:
    config = _resolve_scenario(args.config, args.seed)
    populations = args.populations
    if populations is None:
        populations = 5000 if args.full else 100
    _require_at_least_one(("--populations", populations), ("--pop-n", args.pop_n),
                          ("--workers", args.workers))
    started = time.perf_counter()
    truth = true_ate_oracle(
        config.dgp, populations=populations, population_n=args.pop_n,
        base_seed=config.base_seed, workers=args.workers,
    )
    metadata = {
        "scenario": config.name,
        "seed": config.base_seed,
        "n": args.pop_n,
        "populations": populations,
        "version": __version__,
    }
    report = report_from_truth(truth, metadata=metadata,
                               elapsed=time.perf_counter() - started)
    _emit(report, args)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table",
                        help="output format (default: table)")
    parser.add_argument("--out", metavar="PATH", help="also write the report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mismeasure-ate",
        description="ATE estimation with misclassified outcomes and biased validation samples",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("scenario", help="preset name or path to a scenario config JSON")
    sim.add_argument("--iterations", type=int, help="override the iteration count")
    sim.add_argument("--seed", type=int, help="override the base seed")
    sim.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    sim.add_argument("--full", action="store_true",
                     help="reference-scale run: 5000 iterations and a 5000-population truth oracle")
    sim.add_argument("--estimators", help="comma-separated estimator ids to run")
    sim.add_argument("--truth", type=float, help="skip the truth oracle and use this value")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    estp = sub.add_parser("estimate", help="analyze a dataset CSV")
    estp.add_argument("data", help="dataset CSV (columns x1..xp, t, ystar, v, y)")
    estp.add_argument("model_spec", help="JSON naming treatment/selection covariate columns")
    estp.add_argument("--w", type=float, default=0.5,
                      help="size-blended estimator weight, in [0, 1] (default 0.5)")
    estp.add_argument("--b", type=float, default=None,
                      help="fixed blend weight for s_weighted, in [0, 1] (default: n_V/n)")
    _add_common(estp)
    estp.set_defaults(func=cmd_estimate)

    tru = sub.add_parser("true-ate", help="Monte Carlo oracle for the true effect")
    tru.add_argument("config", help="preset name or scenario config JSON (its dgp is used)")
    tru.add_argument("--populations", type=int,
                     help="number of populations to average (default 100, 5000 with --full)")
    tru.add_argument("--pop-n", type=int, default=50_000,
                     help="rows per population (default 50000)")
    tru.add_argument("--full", action="store_true",
                     help="reference-scale run: 5000 populations unless --populations is given")
    tru.add_argument("--seed", type=int, help="override the base seed")
    tru.add_argument("--workers", type=int, default=1)
    _add_common(tru)
    tru.set_defaults(func=cmd_true_ate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigParseError, SchemaError, UnknownScenario, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CONFIG_EXIT
    except MismeasureError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return COMPUTE_EXIT


if __name__ == "__main__":
    sys.exit(main())
