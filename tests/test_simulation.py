import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import record_fits
from mismeasure_ate import simulation as sim
from mismeasure_ate.errors import CalibrationFailed, DimensionMismatch, TooManyFailures
from mismeasure_ate import inference as inf
from mismeasure_ate.inference import analyze_frame
from mismeasure_ate.numerics import expit, fit_logistic


BASE = sim.DgpConfig()


def test_child_seed_is_deterministic_and_spreads():
    a = sim.child_seed(123, 0)
    assert a == sim.child_seed(123, 0)
    seeds = {sim.child_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert sim.child_seed(124, 0) != a
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_generate_population_shapes_and_prevalences():
    rng = sim._rng(1)
    population = sim.generate_population(replace(BASE, n=50_000), rng)
    assert population.x.shape == (50_000, 5)
    # targets from the generating model
    assert population.t.mean() == pytest.approx(0.67, abs=0.01)
    assert population.y.mean() == pytest.approx(0.14, abs=0.01)
    assert population.y_star.mean() == pytest.approx(0.30, abs=0.01)


def test_perfect_classification_copies_gold_outcome():
    rng = sim._rng(2)
    population = sim.generate_population(
        replace(BASE, n=2000, p11=1.0 - 1e-12, p10=1e-12), rng
    )
    assert np.array_equal(population.y, population.y_star)


def test_heterogeneous_misclassification_rates():
    rng = sim._rng(3)
    population = sim.generate_population(
        replace(BASE, n=200_000, heterogeneous_misclass=(-2.0, 0.5)), rng
    )
    control_neg = (population.y == 0) & (population.t == 0)
    treated_neg = (population.y == 0) & (population.t == 1)
    assert population.y_star[control_neg].mean() == pytest.approx(expit(-2.0), abs=0.01)
    assert population.y_star[treated_neg].mean() == pytest.approx(expit(-1.5), abs=0.01)


def test_srs_selection_probabilities_are_exact_constant():
    selection = sim.SelectionConfig(kind="srs", target_nv=850)
    pi = sim.selection_probabilities(selection, 5000, np.zeros(5000), np.zeros((5000, 5)))
    assert np.all(pi == 850 / 5000)


def test_calibration_hits_target_and_survives_slope_doubling():
    selection = sim.SelectionConfig(kind="non_probability", target_nv=850,
                                    alpha0=(-2.4, 0.5, 1, 1, 1, 1, 0))

    def expected_nv(sel, intercept, seed):
        rng = sim._rng(seed)
        calibration = sim.generate_population(replace(BASE, n=200_000), rng)
        slopes = np.asarray(sel.alpha0)[1:]
        linear = calibration.t * slopes[0] + calibration.x @ slopes[1:]
        return float(np.mean(expit(intercept + linear))) * BASE.n

    intercept = sim.calibrate_intercept(BASE, selection, sim._rng(99))
    assert expected_nv(selection, intercept, 99) == pytest.approx(850, abs=1.0)
    # mean selection probability lands on 0.17 as targeted
    assert expected_nv(selection, intercept, 99) / BASE.n == pytest.approx(0.17, abs=0.001)

    doubled = replace(selection, alpha0=(-2.4, 1.0, 2, 2, 2, 2, 0))
    intercept2 = sim.calibrate_intercept(BASE, doubled, sim._rng(99))
    assert expected_nv(doubled, intercept2, 99) == pytest.approx(850, abs=1.0)


@pytest.mark.parametrize("seed", [0, 7])
def test_calibration_draws_are_the_population_draws(seed):
    # the calibration keeps no covariates, only the predictors of each drawn
    # chunk: they are bitwise the products of the population's covariates,
    # and the stream goes on where one whole-matrix draw leaves it; two full
    # chunks and a one-row rest are drawn
    dgp = replace(sim.scenario_catalog()["heterogeneous_nonprob"].dgp,
                  n=2 * sim.DRAW_CHUNK_ROWS + 1)
    population = sim.generate_population(dgp, sim._rng(seed))
    coefs = (np.asarray(dgp.treatment_coefs)[1:], np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
    rng, whole = sim._rng(seed), sim._rng(seed)
    predictors = sim.draw_covariates(dgp.n, dgp.p, rng, coefs)
    for row, c in zip(predictors, coefs):
        assert row.tobytes() == (population.x @ c).tobytes()
    whole.standard_normal((dgp.n, dgp.p))
    assert rng.random(4).tobytes() == whole.random(4).tobytes()
    for drawn, full in zip(sim.draw_gold_data(dgp, sim._rng(seed)),
                           (population.x, population.t, population.y)):
        np.testing.assert_array_equal(drawn, full)


# Intercepts calibrated on full generate_population draws, with one logistic
# per row and probe: drawing only the covariates and treatments it reads, and
# probing on odds formed once, must leave them bitwise equal.
@pytest.mark.parametrize("preset, intercept", [
    ("main_nonprob", "-0x1.75c0000000000p+1"),
    ("strong_alpha", "-0x1.0810000000000p+2"),
    ("flipped_alpha", "-0x1.2020000000000p+1"),
    ("heterogeneous_nonprob", "-0x1.75c0000000000p+1"),
    ("nv500_nonprob", "-0x1.e960000000000p+1"),
    ("nv1500_nonprob", "-0x1.c160000000000p+0"),
])
def test_calibrated_intercepts_are_unchanged(preset, intercept):
    _, calibrated = sim.resolve_selection(sim.scenario_catalog()[preset])
    assert calibrated == float.fromhex(intercept)


def test_calibration_survives_overflowing_odds():
    # a slope of 200 puts the linear predictor below -709 on some rows, where
    # the odds exp(-linear) overflow to inf and the probe reads their limit 0;
    # the expectation is checked against expit on the same draws
    steep = sim.SelectionConfig(kind="non_probability", target_nv=2500,
                                alpha0=(0.0, 0.0, 200.0, 0.0, 0.0, 0.0, 0.0))
    x, _, _ = sim.draw_gold_data(replace(BASE, n=200_000), sim._rng(3))
    assert np.min(200.0 * x[:, 0]) < -709.0
    intercept = sim.calibrate_intercept(BASE, steep, sim._rng(3))
    assert np.mean(expit(intercept + 200.0 * x[:, 0])) * BASE.n == pytest.approx(2500, abs=1.0)


def test_calibration_working_memory():
    # the calibration keeps no covariates: each drawn chunk is reduced to two
    # predictors, the treatment is drawn over its predictor chunk by chunk,
    # and the odds and the probes reuse their rows; the traced peak is 2.21
    # vectors of CALIBRATION_N floats, 4.17 with the treatment's expit and
    # uniforms formed over all rows at once, 9.47 when the whole covariate
    # matrix was drawn at once
    selection = sim.scenario_catalog()["main_nonprob"].selection
    tracemalloc.start()
    try:
        sim.calibrate_intercept(BASE, selection, sim._rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sim.CALIBRATION_N * 8


def test_population_working_memory():
    # a population keeps x, t, y and y_star; the treatment and gold outcome
    # are drawn over their predictors chunk by chunk, so the traced peak of
    # 200,000 rows is 1.80 covariate-matrix sizes, reached at the
    # misclassification draw, 2.23 with the expit and uniforms formed over
    # all rows at once
    n = 200_000
    tracemalloc.start()
    try:
        sim.generate_population(replace(BASE, n=n), sim._rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * n * BASE.p * 8


def test_calibration_failure_outside_bracket():
    impossible = sim.SelectionConfig(kind="non_probability", target_nv=6000,
                                     alpha0=(0.0, 0.5, 1, 1, 1, 1, 0))
    with pytest.raises(CalibrationFailed):
        sim.calibrate_intercept(BASE, impossible, sim._rng(1))


def test_select_validation_masks_gold_outcomes():
    rng = sim._rng(4)
    population = sim.generate_population(replace(BASE, n=5000), rng)
    selection = sim.SelectionConfig(kind="srs", target_nv=850)
    frame = sim.select_validation(population, selection, rng)
    n_v = frame.n_v
    assert abs(n_v - 850) < 5 * np.sqrt(5000 * 0.17 * 0.83)  # binomial SD ~ 26.6
    assert np.all(np.isnan(frame.y[frame.v == 0]))
    assert np.array_equal(frame.y[frame.v == 1], population.y[frame.v == 1])


def test_with_full_y_checks_only_the_new_outcome():
    # the frame's checked arrays are shared; the new gold outcome is checked
    # as the constructor checks y, with the same error classes and messages
    rng = sim._rng(4)
    population = sim.generate_population(replace(BASE, n=400), rng)
    frame = sim.select_validation(population, sim.SelectionConfig(kind="srs", target_nv=80), rng)
    full = frame.with_full_y(population.y)
    np.testing.assert_array_equal(full.y, population.y)
    assert all(getattr(full, name) is getattr(frame, name) for name in ("x", "t", "y_star", "v"))
    assert full.n_v == frame.n_v
    np.testing.assert_array_equal(full.y_validated, frame.y_validated)
    validated = frame.v == 1.0
    for bad in (population.y[:-1], np.where(validated, 2.0, population.y),
                np.where(validated, np.nan, population.y)):
        errors = []
        for build in (lambda: replace(frame, y=bad), lambda: frame.with_full_y(bad)):
            with pytest.raises((DimensionMismatch, ValueError)) as raised:
                build()
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("alpha0", [
    (-2.2, -0.5, -1.0, -1.0, -1.0, -1.0, 0.0),   # flipped selection signs
    (-4.0, 1.0, 1.5, 1.5, 1.5, 1.5, 0.0),        # strong selection
])
def test_alternate_selection_vectors_supported(alpha0):
    selection = sim.SelectionConfig(kind="non_probability", target_nv=850, alpha0=alpha0)
    intercept = sim.calibrate_intercept(BASE, selection, sim._rng(7))
    calibrated = replace(selection, alpha0=(intercept,) + alpha0[1:])
    rng = sim._rng(8)
    population = sim.generate_population(BASE, rng)
    frame = sim.select_validation(population, calibrated, rng)
    assert abs(frame.n_v - 850) < 150
    # calibration lands near the vector's published intercept
    assert intercept == pytest.approx(alpha0[0], abs=0.3)


def test_true_ate_oracle_null_effect_and_determinism():
    null_dgp = replace(BASE, outcome_coefs=(-3.9, 0.0, 1, 1, 1, 1, 1))
    first = sim.true_ate_oracle(null_dgp, populations=30, population_n=20_000, base_seed=5)
    again = sim.true_ate_oracle(null_dgp, populations=30, population_n=20_000, base_seed=5)
    assert first == again
    assert abs(first.value) <= 0.003
    more = sim.true_ate_oracle(null_dgp, populations=60, population_n=20_000, base_seed=5)
    assert abs(more.value - first.value) <= 2 * (first.mc_se + more.mc_se)


def test_zero_population_truth_is_refused():
    with pytest.raises(ValueError, match="populations must be >= 1"):
        sim.true_ate_oracle(BASE, populations=0)
    with pytest.raises(ValueError, match="truth_populations must be >= 1, got 0"):
        replace(sim.scenario_catalog()["main_srs"], truth_populations=0)


def test_true_ate_oracle_deterministic_across_worker_counts():
    serial = sim.true_ate_oracle(BASE, populations=4, population_n=5000, workers=1)
    parallel = sim.true_ate_oracle(BASE, populations=4, population_n=5000, workers=2)
    assert serial == parallel


def test_truth_population_working_memory():
    # one 50,000-row population holds its draws, the design and the fit's
    # n-vectors, not the covariates beside the design: the traced peak is
    # 2.17 design sizes, 3.34 with out-of-place draws and the former kernel
    n = 50_000
    tracemalloc.start()
    try:
        sim.true_ate_oracle(BASE, populations=1, population_n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * n * (BASE.p + 1) * 8


@pytest.mark.parametrize("n", [1, 5000, sim.DRAW_CHUNK_ROWS - 1, sim.DRAW_CHUNK_ROWS,
                               sim.DRAW_CHUNK_ROWS + 1, 2 * sim.DRAW_CHUNK_ROWS + 1, 50_000])
def test_draws_are_the_out_of_place_draws(n):
    # second route: the in-place draws, streamed in row chunks, equal the
    # former out-of-place ones bitwise, on every distinct preset process
    # (heterogeneous and both p10 variants included); the truth oracle's
    # covariates are its design's columns
    dgps = []
    for config in sim.scenario_catalog().values():
        if config.dgp not in dgps:
            dgps.append(config.dgp)
    assert len(dgps) == 4
    for dgp in dgps:
        dgp = replace(dgp, n=n)
        expected = oracles.draw_population(n, dgp.treatment_coefs, dgp.outcome_coefs, dgp.p11,
                                           dgp.p10, dgp.heterogeneous_misclass, sim._rng(n))
        population = sim.generate_population(dgp, sim._rng(n))
        rng = sim._rng(n)
        design, t = sim.draw_treatment_design(dgp, rng)
        assert design.flags.f_contiguous and np.all(design[:, 0] == 1.0)
        drawn = ((design[:, 1:], t, sim.draw_outcome(dgp, design[:, 1:], t, rng)),
                 sim.draw_gold_data(dgp, sim._rng(n)),
                 (population.x, population.t, population.y, population.y_star))
        for arrays in drawn:
            for ours, theirs in zip(arrays, expected):
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()


def test_misspecified_selection_design_drops_column():
    rng = sim._rng(11)
    population = sim.generate_population(replace(BASE, n=400), rng)
    selection = sim.SelectionConfig(kind="non_probability", target_nv=80,
                                    alpha0=(-2.4, 0.5, 1, 1, 1, 1, 0),
                                    misspecify_drop=2)
    frame = sim.select_validation(population, replace(selection, alpha0=(-2.4, 0.5, 1, 1, 1, 1, 0)), rng)
    config = sim.ScenarioConfig(name="drop", dgp=replace(BASE, n=400), selection=selection)
    design = config.model_spec.designs(frame)[1]
    assert design.shape == (400, 2 + 4)  # intercept, t, and 4 of 5 covariates
    np.testing.assert_array_equal(design[:, 2], frame.x[:, 0])
    np.testing.assert_array_equal(design[:, 3], frame.x[:, 2])  # x2 dropped


def test_model_spec_designs_match_hand_stacked_columns():
    # second route to ModelSpec.designs: each distinct preset's designs are
    # the analyst's columns stacked by hand, bitwise, and column-contiguous
    presets = {config.name: config for config in sim.scenario_catalog().values()}
    for name, config in presets.items():
        rng = sim._rng(sim.child_seed(7, 0))
        population = sim.generate_population(replace(config.dgp, n=300), rng)
        frame = sim.select_validation(population, replace(config.selection, target_nv=60), rng)
        drop = config.selection.misspecify_drop
        x = frame.x if drop is None else np.delete(frame.x, drop - 1, axis=1)
        ones = np.ones(frame.n)
        x_treat, x_sel = config.model_spec.designs(frame)
        if name == "misspecified_selection":
            assert x.shape == (300, 4)  # x2 leaves both models
        expected = [(x_treat, np.column_stack([ones, x]))]
        if config.selection.kind == "srs":
            assert x_sel is None, name
        else:
            expected.append((x_sel, np.column_stack([ones, frame.t, x])))
        for got, stacked in expected:
            assert got.flags.f_contiguous, name
            assert got.shape == stacked.shape and got.tobytes() == stacked.tobytes(), name


def test_scenario_catalog_contents():
    catalog = sim.scenario_catalog()
    for name in ["main_srs", "main_nonprob", "nv500_srs", "nv500_nonprob",
                 "nv1500_srs", "nv1500_nonprob", "p10_016_srs", "p10_016_nonprob",
                 "p10_032_srs", "p10_032_nonprob", "flipped_alpha", "strong_alpha",
                 "heterogeneous_srs", "heterogeneous_nonprob", "misspecified_selection"]:
        assert name in catalog
    assert catalog["nv1500"] is catalog["nv1500_nonprob"]
    assert catalog["p10_032"] is catalog["p10_032_nonprob"]
    assert catalog["heterogeneous"] is catalog["heterogeneous_nonprob"]
    assert catalog["p10_032_nonprob"].dgp.p10 == 0.32
    assert catalog["nv500_nonprob"].selection.target_nv == 500
    assert catalog["misspecified_selection"].selection.misspecify_drop == 2
    assert catalog["heterogeneous_nonprob"].dgp.heterogeneous_misclass == (-2.0, 0.5)
    # only the treatment-dependent misclassification presets count rates by arm
    for name, config in catalog.items():
        expected = "by_arm" if name.startswith("heterogeneous") else "pooled"
        assert config.misclassification == expected, name
    with pytest.raises(ValueError):
        replace(catalog["main_srs"], misclassification="per_arm")


def small_scenario(**kwargs):
    dgp = replace(BASE, n=600)
    selection = sim.SelectionConfig(kind="non_probability", target_nv=120,
                                    alpha0=(-2.4, 0.5, 1, 1, 1, 1, 0))
    defaults = dict(name="small", dgp=dgp, selection=selection,
                    estimators=("oracle", "val_only", "s_opt"),
                    iterations=12, base_seed=99, truth=0.0675)
    defaults.update(kwargs)
    return sim.ScenarioConfig(**defaults)


def test_run_scenario_deterministic_across_worker_counts():
    config = small_scenario()
    serial = sim.run_scenario(config, workers=1)
    parallel = sim.run_scenario(config, workers=2)
    assert serial.rows == parallel.rows
    assert serial.truth == parallel.truth
    assert serial.calibrated_intercept == parallel.calibrated_intercept


def test_run_scenario_aggregates_match_manual_replay():
    config = small_scenario(estimators=("val_only",), iterations=8)
    result = sim.run_scenario(config, workers=1)
    selection_used, _ = sim.resolve_selection(config)
    taus = []
    ses = []
    for i in range(8):
        rng = sim._rng(sim.child_seed(config.base_seed, i))
        population = sim.generate_population(config.dgp, rng)
        frame = sim.select_validation(population, selection_used, rng)
        x_treat, x_sel = config.model_spec.designs(frame)
        starts = sim.generating_starts(replace(config, selection=selection_used))
        analysis = analyze_frame(frame, ["val_only"], x_treat=x_treat, x_sel=x_sel,
                                 starts=starts)
        taus.append(analysis.estimates["val_only"].tau)
        ses.append(analysis.estimates["val_only"].se)
    row = result.rows[0]
    assert row.n_effective == 8
    assert row.bias == pytest.approx(np.mean(taus) - config.truth, abs=1e-12)
    assert row.empirical_se == pytest.approx(np.std(taus, ddof=1), abs=1e-12)
    assert row.mean_sandwich_se == pytest.approx(np.mean(ses), abs=1e-12)


def _zero_start_replay(config, index):
    """Iteration ``index`` of ``config`` (its selection calibrated) analysed
    with every fit started at zero, the oracle of a misspecified preset on
    the full treatment model: estimator id -> AteEstimate."""
    rng = sim._rng(sim.child_seed(config.base_seed, index))
    population = sim.generate_population(config.dgp, rng)
    frame = sim.select_validation(population, config.selection, rng).with_full_y(population.y)
    x_treat, x_sel = config.model_spec.designs(frame)
    options = dict(w=config.w, b=config.b, misclassification=config.misclassification)
    ids = list(config.estimators)
    estimates = {}
    if config.selection.misspecify_drop is not None:
        ids.remove("oracle")
        estimates.update(analyze_frame(frame, ["oracle"], **options).estimates)
    estimates.update(analyze_frame(frame, ids, x_treat=x_treat, x_sel=x_sel, **options).estimates)
    return estimates


@pytest.mark.parametrize("preset", ["main_srs", "main_nonprob", "misspecified_selection",
                                    "heterogeneous_nonprob"])
def test_generating_starts_match_a_zero_start_replay(preset, monkeypatch):
    # the scenario's fits start at the generating coefficients; each
    # iteration's points and SEs are those of fits started at zero, to the
    # fits' convergence tolerance
    config = replace(sim.scenario_catalog()[preset], iterations=4)
    config = replace(config, selection=sim.resolve_selection(config)[0])
    assert "oracle" in config.estimators
    starts = []

    def recorded(x, y, start=None):
        starts.append(start)
        return fit_logistic(x, y, start)

    for index in range(config.iterations):
        with monkeypatch.context() as patch:
            patch.setattr(inf, "fit_logistic", recorded)
            records, failures = sim._run_iteration(config, index)
        assert not failures
        replay = _zero_start_replay(config, index)
        assert sorted(records) == sorted(replay)
        for est_id, (tau, se, _, _) in records.items():
            assert tau == pytest.approx(replay[est_id].tau, rel=0.0, abs=1e-10), est_id
            assert se == pytest.approx(replay[est_id].se, rel=1e-8, abs=0.0), est_id
    assert starts and all(start is not None for start in starts)


def test_generating_starts_read_the_analyst_columns():
    catalog = sim.scenario_catalog()
    srs = sim.generating_starts(catalog["main_srs"])
    assert list(srs) == ["gamma"]
    np.testing.assert_array_equal(srs["gamma"], catalog["main_srs"].dgp.treatment_coefs)
    misspecified = catalog["misspecified_selection"]
    starts = sim.generating_starts(misspecified)
    treat, alpha = misspecified.dgp.treatment_coefs, misspecified.selection.alpha0
    # x2 is left out: the treatment start drops slot 2, the selection start slot 3
    np.testing.assert_array_equal(starts["gamma"], [treat[j] for j in (0, 1, 3, 4, 5)])
    np.testing.assert_array_equal(starts["eta"], [alpha[j] for j in (0, 1, 2, 4, 5, 6)])


def test_srs_scenario_val_only_equals_s_val_only_per_iteration():
    dgp = replace(BASE, n=800)
    selection = sim.SelectionConfig(kind="srs", target_nv=160)
    rng = sim._rng(sim.child_seed(4242, 0))
    population = sim.generate_population(dgp, rng)
    frame = sim.select_validation(population, selection, rng)
    config = sim.ScenarioConfig(name="srs", dgp=dgp, selection=selection)
    x_treat, x_sel = config.model_spec.designs(frame)
    assert x_sel is None
    analysis = analyze_frame(frame, ["val_only", "s_val_only"], x_treat=x_treat, x_sel=x_sel)
    assert analysis.estimates["s_val_only"].tau == pytest.approx(
        analysis.estimates["val_only"].tau, abs=1e-12
    )


def test_study_fits_need_no_log_likelihood(monkeypatch):
    # on the study's 5000-row frames every full Newton step, treatment and
    # selection fit alike, is accepted by its slope or its move
    # (SAFE_STEP_MOVE): no step is halved, so each fit evaluates its start
    # and one candidate per step
    fits = record_fits(monkeypatch)
    config = replace(sim.scenario_catalog()["main_nonprob"], iterations=5, base_seed=3)
    config = replace(config, selection=sim.resolve_selection(config)[0])
    for index in range(5):
        records, failures = sim._run_iteration(config, index)
        assert records and not failures
    assert len(fits) == 10
    assert all(evaluations == iterations + 1 for iterations, evaluations in fits)


def test_too_many_failures_raises():
    # tiny validation samples frequently lack gold positives, so the
    # rate-consuming estimator fails in far more than 1% of iterations
    dgp = replace(BASE, n=120)
    selection = sim.SelectionConfig(kind="srs", target_nv=6)
    config = sim.ScenarioConfig(name="fragile", dgp=dgp, selection=selection,
                                estimators=("all_silver",), iterations=40,
                                base_seed=7, truth=0.07)
    with pytest.raises(TooManyFailures):
        sim.run_scenario(config, workers=1)


def test_realized_validation_size_tracks_target():
    config = small_scenario(estimators=("val_only",), iterations=30)
    selection_used, _ = sim.resolve_selection(config)
    sizes = []
    for i in range(30):
        rng = sim._rng(sim.child_seed(config.base_seed, i))
        population = sim.generate_population(config.dgp, rng)
        frame = sim.select_validation(population, selection_used, rng)
        sizes.append(frame.n_v)
    assert np.mean(sizes) == pytest.approx(config.selection.target_nv, rel=0.02)
