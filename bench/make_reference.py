#!/usr/bin/env python3
"""Regenerate bench/reference.json, the stored outputs the gate compares with.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are trusted. The values are
pure functions of REF_SEED and the package's code, so a change that keeps
the package's numbers reproduces this file; rerunning it is only right when
a change is meant to alter those numbers, and that change must say so.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import run

REF_SEED = 20251017
TRUTH_POPULATIONS = 100   # the fixed truth every workload checks against
SIM_ITERATIONS = 4
ORACLE_POPULATIONS = 2


def main() -> int:
    run.load_package()
    from mismeasure_ate import simulation as sim

    dgp = sim.scenario_catalog()["main_srs"].dgp
    truth = sim.true_ate_oracle(dgp, populations=TRUTH_POPULATIONS,
                                population_n=run.TruthOracle.POPULATION_N,
                                base_seed=REF_SEED, workers=1)
    reference = {
        "ref_seed": REF_SEED,
        "truth": {"value": truth.value, "populations": TRUTH_POPULATIONS,
                  "population_sd": truth.mc_se * math.sqrt(TRUTH_POPULATIONS)},
    }

    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        workdir = Path(tmp)
        simulate = run.SimNonprob(REF_SEED, workdir, reference)
        _, report, failed = simulate.run(SIM_ITERATIONS, REF_SEED)
        if failed:
            raise SystemExit(f"reference simulation had failures: {failed}")
        payload = json.loads(report)
        reference["sim_nonprob"] = {"report": {"metadata": payload["metadata"],
                                               "rows": payload["rows"]}}

        csv_path, spec_path = workdir / "ref.csv", workdir / "ref_model.json"
        run.EstimateCsv.write_inputs(REF_SEED, csv_path, spec_path)
        _, code, stdout, _ = run.EstimateCsv.call(csv_path, spec_path)
        if code != 0:
            raise SystemExit(f"reference estimate exited with code {code}")
        reference["estimate_csv"] = {"rows": json.loads(stdout)["rows"]}

    oracle = run.TruthOracle(REF_SEED, None, reference)
    _, value = oracle.run(ORACLE_POPULATIONS, REF_SEED)
    reference["truth_oracle"] = {"populations": ORACLE_POPULATIONS, "value": value}

    out = run.HERE / "reference.json"
    out.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
