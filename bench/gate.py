"""Output-correctness gate for the benchmark's workloads.

Every check returns a list of failure messages; an empty list passes.

Tolerances, each set from how a correct change can move the number:

* POINT_ABS: point estimates (tau, bias, empirical SE, truth). They depend on
  the IRLS fits and on summation order only, so a rewrite that keeps the
  arithmetic moves them at rounding level.
* SE_REL: sandwich SEs and CI half-widths, relative. The central-difference
  bread agrees with an exact (analytic) bread to about 1e-9 relative on these
  frames, so an analytic bread passes by a wide margin, while a bread that
  drops or mis-signs a block moves SEs by far more than this.
* WEIGHTED_ABS: quantities that depend on an SE through a data-driven weight
  (s_opt's b_opt, and s_opt's tau, bias and empirical SE).
* Coverage may move by one iteration (1 / n_effective): a rounding-level SE
  change can flip a CI endpoint that lies on the truth.
"""

from __future__ import annotations

import json
import math

POINT_ABS = 1e-9
SE_REL = 1e-6
WEIGHTED_ABS = 1e-8
Z_975 = 1.9599639845400536
CI_ABS = 1e-12
# |estimate - truth| beyond this many SEs fails the plausibility check
PLAUSIBLE_SES = 7.0

# estimators whose output depends on the SE-derived optimal weight
SE_WEIGHTED = frozenset({"s_opt"})
# estimators consistent for the ATE: naive ignores misclassification, and
# val_only / sy_combined ignore a non-probability selection
UNBIASED_SIMULATE = ("oracle", "s_val_only", "s_combined", "all_silver", "s_weighted", "s_opt")
BIASED_ESTIMATE = frozenset({"naive"})
# simulate metadata that a correct change keeps; other keys may be added
REFERENCE_METADATA = ("scenario", "seed", "iterations", "truth", "calibrated_intercept",
                      "estimators")


def _close(got, want, tol: float) -> bool:
    return got is not None and want is not None and abs(got - want) <= tol


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _parse(text: str, command: str, failures: list) -> dict | None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        failures.append(f"output is not JSON: {exc}")
        return None
    if payload.get("command") != command:
        failures.append(f"expected a {command!r} report, got {payload.get('command')!r}")
        return None
    return payload


def check_estimate(stdout: str, exit_code: int, expected_ids, *, truth: float,
                   reference_rows=None) -> list[str]:
    """Check one ``estimate --format json`` call.

    Always: exit code 0, every expected estimator present with a finite tau,
    a positive SE, the 95% CI tau +/- z*se, no warnings, and every estimator
    but the naive one within PLAUSIBLE_SES SEs of the truth. With
    ``reference_rows``: taus, SEs, CIs and weights match the reference.
    """
    if exit_code != 0:
        return [f"estimate exited with code {exit_code}"]
    failures: list[str] = []
    payload = _parse(stdout, "estimate", failures)
    if payload is None:
        return failures
    if payload["warnings"]:
        failures.append(f"estimate warned: {payload['warnings']}")
    rows = {row["estimator"]: row for row in payload["rows"]}
    if sorted(rows) != sorted(expected_ids):
        failures.append(f"estimators {sorted(rows)} != expected {sorted(expected_ids)}")
    for est_id, row in rows.items():
        tau, se, low, high = row["estimate"], row["se"], row["ci_low"], row["ci_high"]
        if not (_finite(tau, se, low, high) and se > 0):
            failures.append(f"{est_id}: non-finite or non-positive output {row}")
            continue
        if not (_close(low, tau - Z_975 * se, CI_ABS) and _close(high, tau + Z_975 * se, CI_ABS)):
            failures.append(f"{est_id}: CI [{low}, {high}] is not tau +/- z*se")
        if est_id not in BIASED_ESTIMATE and abs(tau - truth) > PLAUSIBLE_SES * se:
            failures.append(f"{est_id}: tau {tau:.5f} is {abs(tau - truth) / se:.1f} SEs "
                            "from the truth")
    for ref in reference_rows or ():
        est_id = ref["estimator"]
        row = rows.get(est_id)
        if row is None:
            failures.append(f"{est_id}: missing, but present in the reference")
            continue
        if not _finite(row["estimate"], row["se"]):
            continue
        point_tol = WEIGHTED_ABS if est_id in SE_WEIGHTED else POINT_ABS
        half_tol = Z_975 * ref["se"] * SE_REL + point_tol
        checks = (
            ("estimate", _close(row["estimate"], ref["estimate"], point_tol)),
            ("se", _close(row["se"], ref["se"], ref["se"] * SE_REL)),
            ("ci_low", _close(row["ci_low"], ref["ci_low"], half_tol)),
            ("ci_high", _close(row["ci_high"], ref["ci_high"], half_tol)),
            ("weight", row["weight"] == ref["weight"] if ref["weight"] is None
             else _close(row["weight"], ref["weight"], point_tol)),
        )
        for key, ok in checks:
            if not ok:
                failures.append(f"{est_id}.{key}: {row[key]!r} != reference {ref[key]!r}")
    return failures


def check_simulate(report: str, expected_ids, *, iterations: int, truth: float,
                   failed: dict, reference=None) -> list[str]:
    """Check one ``simulate`` JSON report of ``iterations`` iterations.

    ``failed`` maps estimator id to its failed estimator-iterations, which
    are excluded from n_effective. Always: no estimator-iteration failed
    (the workload has none at the commit that added the benchmark, and a
    failure skips work, so it could pass for a speed-up), every estimator
    present with finite statistics, a positive mean SE, coverage in [0, 1],
    and the consistent estimators' bias within PLAUSIBLE_SES standard errors
    of the batch mean. With ``reference`` (a report payload): the statistics
    match.
    """
    failures: list[str] = []
    if any(failed.values()):
        failures.append(f"estimator-iterations failed: {failed}")
    payload = _parse(report, "simulate", failures)
    if payload is None:
        return failures
    if payload["metadata"]["truth"] != truth:
        failures.append(f"report truth {payload['metadata']['truth']} != {truth}")
    rows = {row["estimator"]: row for row in payload["rows"]}
    if list(rows) != list(expected_ids):
        failures.append(f"estimators {list(rows)} != expected {list(expected_ids)}")
    for est_id, row in rows.items():
        n_eff = row["n_effective"]
        if n_eff + failed.get(est_id, 0) != iterations:
            failures.append(f"{est_id}: n_effective {n_eff} + failed {failed.get(est_id, 0)} "
                            f"!= {iterations} iterations")
        if n_eff < 2:
            continue
        stats = (row["bias"], row["empirical_se"], row["mean_sandwich_se"], row["coverage"])
        if not (_finite(*stats) and row["mean_sandwich_se"] > 0 and 0.0 <= row["coverage"] <= 1.0):
            failures.append(f"{est_id}: invalid statistics {row}")
            continue
        bound = PLAUSIBLE_SES * row["mean_sandwich_se"] / math.sqrt(n_eff)
        if est_id in UNBIASED_SIMULATE and abs(row["bias"]) > bound:
            failures.append(f"{est_id}: bias {row['bias']:+.5f} exceeds {bound:.5f}")
    if reference is not None:
        for key in REFERENCE_METADATA:
            if payload["metadata"].get(key) != reference["metadata"][key]:
                failures.append(f"metadata {key}: {payload['metadata'].get(key)!r} "
                                f"!= reference {reference['metadata'][key]!r}")
        for ref in reference["rows"]:
            est_id = ref["estimator"]
            row = rows.get(est_id)
            if row is None:
                failures.append(f"{est_id}: missing, but present in the reference")
                continue
            point_tol = WEIGHTED_ABS if est_id in SE_WEIGHTED else POINT_ABS
            checks = (
                ("n_effective", row["n_effective"] == ref["n_effective"]),
                ("bias", _close(row["bias"], ref["bias"], point_tol)),
                ("empirical_se", _close(row["empirical_se"], ref["empirical_se"], point_tol)),
                ("mean_sandwich_se", _close(row["mean_sandwich_se"], ref["mean_sandwich_se"],
                                            ref["mean_sandwich_se"] * SE_REL)),
                ("coverage", _close(row["coverage"], ref["coverage"],
                                    1.0 / max(ref["n_effective"], 1) + 1e-12)),
            )
            for key, ok in checks:
                if not ok:
                    failures.append(f"{est_id}.{key}: {row[key]!r} != reference {ref[key]!r}")
    return failures


def check_truth(value: float, *, truth: float, population_sd: float, populations: int,
                reference: float | None = None) -> list[str]:
    """Check a truth-oracle value: finite, within PLAUSIBLE_SES Monte Carlo
    SEs of the reference truth, and equal to ``reference`` when given."""
    failures = []
    bound = PLAUSIBLE_SES * population_sd / math.sqrt(populations)
    if not _finite(value) or abs(value - truth) > bound:
        failures.append(f"truth {value!r} is not within {bound:.5f} of {truth:.5f}")
    if reference is not None and not _close(value, reference, POINT_ABS):
        failures.append(f"truth {value!r} != reference {reference!r}")
    return failures
