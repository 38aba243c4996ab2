#!/usr/bin/env python3
"""Self-test of the benchmark's own logic: trace arithmetic and the gate.

    python3 bench/selftest.py

Run from the root of a checkout. Exits 0 when every check holds. It shows
that the stored reference passes the gate, that a rounding-level SE change
passes, and that a perturbed SE, a perturbed point estimate, a failed
estimator-iteration and a non-zero ``estimate`` exit each fail it.
"""

from __future__ import annotations

import copy
import json
import sys

import gate
import run
import spans

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"[{'ok' if condition else 'FAIL'}] {what}")
    if not condition:
        FAILURES.append(what)


def test_self_time_arithmetic() -> None:
    """Hand-built tree: root [0, 10] with children a [1, 4] and b [3, 6]
    (overlapping), a's child c [2, 3], and a second root d [20, 22]."""
    tree = [
        spans.Span("simulation.run_scenario", 0.0, 10.0, -1),
        spans.Span("inference.analyze_frame", 1.0, 4.0, 0),
        spans.Span("numerics.solve_linear", 2.0, 3.0, 1),
        spans.Span("estimators", 3.0, 6.0, 0),
        spans.Span("simulation.run_scenario", 20.0, 22.0, -1),
    ]
    expect(spans.self_times(tree) == [5.0, 2.0, 1.0, 3.0, 2.0],
           "self time = duration minus the union of child intervals")
    expect(spans.covered([(0, 2), (1, 3), (5, 6)]) == 4, "interval union length")
    totals = spans.layer_totals(tree)
    expect(totals["simulation.run_scenario"].calls == 2
           and totals["simulation.run_scenario"].self_ms == 7000.0,
           "per-layer call and self totals")

    nested = [spans.Span("estimators", 0.0, 4.0, -1), spans.Span("estimators", 1.0, 2.0, 0)]
    expect(spans.layer_totals(nested)["estimators"].ms == 4000.0,
           "a layer calling itself is counted once in inclusive time")

    metrics = spans.per_layer_metrics(tree, ops=2, untraced_ops_per_s=10.0, traced_ops_per_s=8.0)
    expect(metrics["estimators.self_ms"] == 1500.0, "per-op normalisation")
    expect(metrics["simulation.run_scenario.self_ms"] == 3500.0, "root self time per op")
    expect(abs(metrics["trace.coverage"] - 6.0 / 12.0) < 1e-12,
           "coverage = non-root self time / op wall")
    expect(metrics["trace.overhead"] == 1.25, "overhead = untraced / traced ops per second")
    stray = tree + [spans.Span("reporting.render", 30.0, 31.0, -1)]
    expect(spans.per_layer_metrics(stray, 2, 1.0, 1.0)["reporting.render.ms"] == 0.0,
           "spans outside an op root are dropped")


def test_estimate_gate(reference: dict) -> None:
    rows = reference["estimate_csv"]["rows"]
    ids = [row["estimator"] for row in rows]
    truth = reference["truth"]["value"]

    def check(payload_rows, code=0):
        payload = json.dumps({"command": "estimate", "metadata": {}, "warnings": [],
                              "rows": payload_rows})
        return gate.check_estimate(payload, code, ids, truth=truth, reference_rows=rows)

    def scale_se(factor):
        """Rows with one SE scaled and its CI recomputed, as a new bread would give."""
        out = copy.deepcopy(rows)
        row = out[3]
        row["se"] *= factor
        row["ci_low"] = row["estimate"] - gate.Z_975 * row["se"]
        row["ci_high"] = row["estimate"] + gate.Z_975 * row["se"]
        return out

    expect(not check(rows), "the stored estimate reference passes")
    expect(not check(scale_se(1 + 1e-9)), "an SE moved at rounding level (1e-9) passes")
    expect(bool(check(scale_se(1 + 1e-4))), "an SE perturbed by 1e-4 fails")
    shifted = copy.deepcopy(rows)
    shifted[1]["estimate"] += 1e-7
    expect(bool(check(shifted)), "a point estimate shifted by 1e-7 fails")
    expect(bool(check(rows, code=3)), "a non-zero exit code fails")


def test_simulate_gate(reference: dict) -> None:
    report = reference["sim_nonprob"]["report"]
    iterations = report["metadata"]["iterations"]
    ids = [row["estimator"] for row in report["rows"]]

    def check(payload):
        text = json.dumps(dict(payload, command="simulate"))
        return gate.check_simulate(text, ids, iterations=iterations,
                                   truth=report["metadata"]["truth"], failed={},
                                   reference=report)

    expect(not check(report), "the stored simulate reference passes")
    perturbed = copy.deepcopy(report)
    perturbed["rows"][4]["mean_sandwich_se"] *= 1 + 1e-4
    expect(bool(check(perturbed)), "a mean sandwich SE perturbed by 1e-4 fails")
    # one failed estimator-iteration, consistent with n_effective: the
    # failure check is the only one that sees it
    dropped = copy.deepcopy(report)
    dropped["rows"][2]["n_effective"] -= 1
    problems = gate.check_simulate(json.dumps(dict(dropped, command="simulate")), ids,
                                   iterations=iterations, truth=report["metadata"]["truth"],
                                   failed={ids[2]: 1})
    expect(len(problems) == 1 and "failed" in problems[0],
           "a failed estimator-iteration fails")


def test_real_nonzero_exit(reference: dict, workdir) -> None:
    """A real ``estimate`` call that exits non-zero trips the gate."""
    csv_path, spec_path = workdir / "data.csv", workdir / "model.json"
    run.EstimateCsv.write_inputs(reference["ref_seed"], csv_path, spec_path)
    spec_path.write_text(json.dumps({"treatment_covariates": ["x99"],
                                     "selection_covariates": None}))
    _, code, stdout, _ = run.EstimateCsv.call(csv_path, spec_path)
    ids = [row["estimator"] for row in reference["estimate_csv"]["rows"]]
    problems = gate.check_estimate(stdout, code, ids, truth=reference["truth"]["value"])
    expect(code != 0 and bool(problems),
           f"estimate with a bad spec exits {code} and fails the gate")


def main() -> int:
    import tempfile
    from pathlib import Path

    run.load_package()
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    test_self_time_arithmetic()
    test_estimate_gate(reference)
    test_simulate_gate(reference)
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        test_real_nonzero_exit(reference, Path(tmp))
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
