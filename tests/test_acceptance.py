"""Acceptance suite: reproduces the reference simulation results at desk
scale (1000 iterations, fixed seed) and re-verifies the exact algebraic
identities. Each numbered check prints one [PASS]/[FAIL] line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the whole
module takes a few minutes because four scenarios run 1000 Monte Carlo
iterations each.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import fitted_props, oracle_points, stack_rates
from mismeasure_ate import cli
from mismeasure_ate import estimators as est
from mismeasure_ate import inference as inf
from mismeasure_ate import simulation as sim
from mismeasure_ate.frames import ESTIMATOR_IDS, MisclassRates, ObservationFrame
from mismeasure_ate.numerics import expit

ACCEPT_SEED = 20250801
WORKERS = max(1, min(4, os.cpu_count() or 1))
ITERATIONS = 1000

# reference rows for the size-850 validation study: estimator ->
# (mean sandwich SE, coverage); biases are all 0 to within 0.005
MAIN_SRS_REFERENCE = {
    "oracle": (0.011, 0.948),
    "val_only": (0.030, 0.934),
    "sy_combined": (0.035, 0.957),
    "s_combined": (0.033, 0.947),
    "s_val_only": (0.030, 0.941),
    "all_silver": (0.035, 0.949),
    "s_weighted": (0.030, 0.947),
    "s_opt": (0.024, 0.934),
}

SE_TOL = 0.004
COVERAGE_TOL = 0.025


def check(label: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def truth_value():
    result = sim.true_ate_oracle(sim.DgpConfig(), populations=100,
                                 population_n=50_000, base_seed=ACCEPT_SEED,
                                 workers=WORKERS)
    return result


@pytest.fixture(scope="module")
def main_srs(truth_value):
    config = replace(sim.scenario_catalog()["main_srs"], iterations=ITERATIONS,
                     base_seed=ACCEPT_SEED, truth=truth_value.value)
    started = time.perf_counter()
    result = sim.run_scenario(config, workers=WORKERS)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def main_nonprob(truth_value):
    config = replace(sim.scenario_catalog()["main_nonprob"], iterations=ITERATIONS,
                     base_seed=ACCEPT_SEED, truth=truth_value.value)
    return sim.run_scenario(config, workers=WORKERS)


def run_spot(name: str, estimators: tuple, truth: float):
    config = replace(sim.scenario_catalog()[name], iterations=ITERATIONS,
                     base_seed=ACCEPT_SEED, truth=truth, estimators=estimators)
    return sim.run_scenario(config, workers=WORKERS)


def test_1_main_srs_reproduction(main_srs):
    result, elapsed = main_srs
    rows = result.by_estimator
    failures = []
    for est_id, (se_ref, cov_ref) in MAIN_SRS_REFERENCE.items():
        row = rows[est_id]
        if not abs(row.bias) <= 0.005:
            failures.append(f"{est_id} bias {row.bias:+.4f} exceeds 0.005")
        if not abs(row.mean_sandwich_se - se_ref) <= SE_TOL:
            failures.append(f"{est_id} sandwich SE {row.mean_sandwich_se:.4f} "
                            f"not within {SE_TOL} of {se_ref}")
        if not abs(row.coverage - cov_ref) <= COVERAGE_TOL:
            failures.append(f"{est_id} coverage {row.coverage:.3f} "
                            f"not within {COVERAGE_TOL} of {cov_ref}")
        if not abs(row.mean_sandwich_se / row.empirical_se - 1.0) <= 0.10:
            failures.append(f"{est_id} sandwich/empirical SE ratio "
                            f"{row.mean_sandwich_se / row.empirical_se:.3f} off by >10%")
    if not elapsed <= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    ok = check("1 SRS study reproduction",
               not failures,
               f"8 estimators x (bias, SE, coverage), runtime {elapsed:.0f}s"
               + ("" if not failures else "; " + "; ".join(failures)))
    assert ok, failures


def test_2_main_nonprob_reproduction(main_nonprob):
    rows = main_nonprob.by_estimator
    failures = []
    row = rows["val_only"]
    if not abs(row.bias - 0.119) <= 0.015:
        failures.append(f"val_only bias {row.bias:+.4f} not 0.119 +/- 0.015")
    if not abs(row.coverage - 0.318) <= 0.04:
        failures.append(f"val_only coverage {row.coverage:.3f} not 0.318 +/- 0.04")
    row = rows["sy_combined"]
    if not abs(row.bias - (-0.026)) <= 0.008:
        failures.append(f"sy_combined bias {row.bias:+.4f} not -0.026 +/- 0.008")
    for est_id in ("s_combined", "s_val_only", "s_weighted", "s_opt"):
        row = rows[est_id]
        if not abs(row.bias) <= 0.006:
            failures.append(f"{est_id} bias {row.bias:+.4f} exceeds 0.006")
        if not 0.92 <= row.coverage <= 0.965:
            failures.append(f"{est_id} coverage {row.coverage:.3f} outside [0.92, 0.965]")
    row = rows["s_opt"]
    if not abs(row.mean_sandwich_se - 0.020) <= 0.003:
        failures.append(f"s_opt sandwich SE {row.mean_sandwich_se:.4f} not 0.020 +/- 0.003")
    for est_id in ("oracle", "s_combined", "s_val_only", "all_silver", "s_weighted", "s_opt"):
        row = rows[est_id]
        if not abs(row.mean_sandwich_se / row.empirical_se - 1.0) <= 0.10:
            failures.append(f"{est_id} sandwich/empirical SE ratio "
                            f"{row.mean_sandwich_se / row.empirical_se:.3f} off by >10%")
    ok = check("2 biased-validation study reproduction", not failures,
               "val_only/sy_combined bias bands + four selection-weighted estimators"
               + ("" if not failures else "; " + "; ".join(failures)))
    assert ok, failures


def test_3a_high_misclassification_spot_check(truth_value):
    result = run_spot("p10_032_nonprob", ("sy_combined",), truth_value.value)
    row = result.by_estimator["sy_combined"]
    ok = check("3a p10=0.32 spot check", abs(row.bias - (-0.043)) <= 0.01,
               f"sy_combined bias {row.bias:+.4f} vs -0.043 +/- 0.010")
    assert ok


def test_3b_large_validation_spot_check(truth_value):
    result = run_spot("nv1500_nonprob", ("val_only",), truth_value.value)
    row = result.by_estimator["val_only"]
    ok = check("3b n_V=1500 spot check", abs(row.bias - 0.080) <= 0.012,
               f"val_only bias {row.bias:+.4f} vs 0.080 +/- 0.012")
    assert ok


def test_3c_misspecified_selection_spot_check(truth_value):
    result = run_spot("misspecified_selection", ("s_val_only",), truth_value.value)
    row = result.by_estimator["s_val_only"]
    failures = []
    if not abs(row.bias - 0.038) <= 0.012:
        failures.append(f"bias {row.bias:+.4f} not 0.038 +/- 0.012")
    if not abs(row.coverage - 0.74) <= 0.05:
        failures.append(f"coverage {row.coverage:.3f} not 0.74 +/- 0.05")
    ok = check("3c misspecified-selection spot check", not failures,
               f"s_val_only bias {row.bias:+.4f}, coverage {row.coverage:.3f}"
               + ("" if not failures else "; " + "; ".join(failures)))
    assert ok, failures


def test_3d_heterogeneous_misclassification_spot_check(truth_value):
    # The false-positive rate depends on treatment (p10(T) = expit(-2 + 0.5T)),
    # so E[Y*|T] carries an additive (p10(1) - p10(0)) * (1 - P(Y=1)) ~= 0.054
    # that a pooled 1/(p11 - p10) correction inflates to ~+0.1 bias in every
    # estimator that touches Y* (+0.0963 for s_weighted at this seed). The
    # heterogeneous presets count (p11, p10) within each treatment arm and
    # correct each arm's mean as (m_t - p10_t) / (p11_t - p10_t), which
    # removes that bias (~+0.001 here). A config file with
    # "misclassification": "pooled" reproduces the pooled bias (see README).
    result = run_spot("heterogeneous_nonprob", ("s_weighted",), truth_value.value)
    row = result.by_estimator["s_weighted"]
    ok = check("3d heterogeneous-misclassification spot check",
               abs(row.bias) <= 0.006,
               f"s_weighted bias {row.bias:+.4f} vs |bias| <= 0.006 "
               f"(per-arm misclassification correction; see test comment)")
    assert ok


def test_4_true_effect_benchmark(truth_value):
    ok = check("4 true-effect oracle", abs(truth_value.value - 0.07) <= 0.004,
               f"100 populations of 50000 give {truth_value.value:.5f} "
               f"(MC SE {truth_value.mc_se:.5f}) vs 0.07 +/- 0.004")
    assert ok


def test_5_exact_identities():
    failures = []

    # a simulated frame with a biased validation sample
    rng = sim._rng(sim.child_seed(ACCEPT_SEED, 123))
    population = sim.generate_population(replace(sim.DgpConfig(), n=3000), rng)
    pi_lin = 0.5 * population.t + population.x[:, :4].sum(axis=1) - 2.9
    v_draw = (rng.random(3000) < expit(pi_lin)).astype(float)
    sim_frame = ObservationFrame(x=population.x, t=population.t,
                                 y_star=population.y_star, v=v_draw, y=population.y)
    n, n_v = sim_frame.n, sim_frame.n_v
    x_sel = np.column_stack([np.ones(n), sim_frame.t, sim_frame.x])
    system = inf.build_system(sim_frame, x_sel=x_sel)
    xt = system.x_treat
    e_hat, pi_hat = fitted_props(sim_frame, xt, x_sel)
    frame_rates = stack_rates(sim_frame)

    # every point read from the stack against the independent row-loop oracle
    analysis = inf.analyze_frame(sim_frame, ESTIMATOR_IDS, x_sel=x_sel)
    if analysis.failures or analysis.se_failures:
        failures.append(f"analysis failed: {analysis.failures} {analysis.se_failures}")
    else:
        want = oracle_points(sim_frame, e_hat, pi_hat, frame_rates, b=n_v / n,
                             b_opt=analysis.estimates["s_opt"].weight_used)
        for est_id in ESTIMATOR_IDS:
            got = analysis.estimates[est_id].tau
            if not abs(got - want[est_id]) <= 1e-12:
                failures.append(f"oracle {est_id}: {got!r} != {want[est_id]!r}")

    # constant selection probability collapses the weighted estimator
    constant = inf.analyze_frame(sim_frame, ["s_val_only"], x_sel=np.ones((n, 1)))
    srs = inf.analyze_frame(sim_frame, ["val_only"])
    if not abs(constant.estimates["s_val_only"].tau - srs.estimates["val_only"].tau) <= 1e-12:
        failures.append("constant-selection reduction")

    # endpoint identities for the blend weights
    def points(**kwargs):
        return {est_id: estimate.tau for est_id, estimate in inf.analyze_frame(
            sim_frame, ESTIMATOR_IDS, x_sel=x_sel, **kwargs).estimates.items()}

    at = {"w=1": points(w=1.0), "w=0": points(w=0.0), "b=1": points(b=1.0), "b=0": points(b=0.0)}
    for label, blend, piece in (("w=1", "sy_combined", "val_only"),
                                ("w=0", "sy_combined", "nonval_corrected"),
                                ("b=1", "s_weighted", "s_val_only"),
                                ("b=0", "s_weighted", "all_silver")):
        if at[label][blend] != at[label][piece]:
            failures.append(f"{label} endpoint")

    # perfect-classification reductions: with Y* = Y the counted rates are (1, 0)
    clean = replace(sim_frame, y_star=sim_frame.y)
    perfect = inf.analyze_frame(clean, ["nonval_corrected", "all_silver"], x_sel=x_sel)
    if perfect.rates != MisclassRates(((1.0, 0.0),)) or perfect.failures:
        failures.append(f"perfect classification counted {perfect.rates}")
    else:
        w_t = clean.t / e_hat
        w_c = (1.0 - clean.t) / (1.0 - e_hat)
        if not abs(perfect.estimates["all_silver"].tau
                   - oracles.hajek_contrast(w_t, w_c, clean.y)) <= 1e-12:
            failures.append("perfect-rates full-sample reduction")
        w_t, w_c = est.arm_weights(clean.t, e_hat, 1.0 - clean.v)
        plain = np.sum(w_t * clean.y) / (n - n_v) - np.sum(w_c * clean.y) / (n - n_v)
        if not abs(perfect.estimates["nonval_corrected"].tau - plain) <= 1e-12:
            failures.append("perfect-rates complement reduction")

    # stacked-system identities
    params = inf.solve_plugin(system)
    if params.failed:
        failures.append(f"plug-in blocks failed: {sorted(params.failed)}")
    phi, _ = params.system.evaluate(params.theta)
    worst = float(np.max(np.abs(phi.sum(axis=0) / n)))
    if not worst <= 1e-6:
        failures.append(f"plug-in residual mean {worst:.2e}")
    t, ys, v = sim_frame.t, sim_frame.y_star, sim_frame.v
    ((p11, p10),) = frame_rates.pairs
    for block, target in (
            ("r_fit", oracles.s_nonval_corrected_tau(t, ys, v, e_hat, pi_hat, p11, p10)),
            ("d", oracles.all_silver_tau(t, ys, e_hat, p11, p10))):
        m_c, m_t = params.block(block)
        corrected = est.corrected_contrast(frame_rates, m_t, m_c)
        if not abs(corrected - target) <= 1e-10:
            failures.append(f"Hajek-contrast identity ({block}): {corrected!r} vs {target!r}")
    cov = inf.sandwich(params)
    if not np.max(np.abs(cov - cov.T)) <= 1e-10:
        failures.append("sandwich asymmetry")
    independent = oracles.logistic_sandwich_se(xt, sim_frame.t, params.block("gamma"))
    if not np.allclose(np.sqrt(np.diag(cov))[params.system.layout["gamma"]], independent,
                       rtol=1e-6):
        failures.append("treatment-model sandwich block mismatch")

    ok = check("5 exact identities", not failures,
               "oracle equivalence, reductions, Hajek-contrast and sandwich checks"
               + ("" if not failures else "; " + "; ".join(failures)))
    assert ok, failures


def test_6_byte_identical_reports_across_workers(tmp_path, capsys):
    base = ["simulate", "main_nonprob", "--iterations", "20",
            "--seed", str(ACCEPT_SEED), "--format", "json"]
    assert cli.main(base + ["--workers", "1", "--out", str(tmp_path / "w1.json")]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(tmp_path / "w2.json")]) == 0
    capsys.readouterr()
    first = (tmp_path / "w1.json").read_bytes()
    second = (tmp_path / "w2.json").read_bytes()
    ok = check("6 determinism across workers",
               first == second and len(first) > 0,
               f"{len(first)}-byte JSON reports identical for --workers 1 vs 2")
    assert ok
    payload = json.loads(first)
    assert all(np.isfinite(value) for row in payload["rows"]
               for value in row.values() if isinstance(value, float))
