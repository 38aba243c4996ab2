from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

import oracles
from conftest import (
    VARIANTS,
    fitted_probability,
    fitted_props,
    frame_variant,
    make_random_frame,
    oracle_points,
    selection_design,
    simulated_frame,
)
from mismeasure_ate import estimators as est
from mismeasure_ate import inference as inf
from mismeasure_ate import simulation as sim
from mismeasure_ate.errors import (
    DegenerateValidation,
    EmptyValidationArm,
    NegativeVariance,
    NonFiniteEvaluation,
    ResidualCheckFailed,
    SingularSystem,
)
from mismeasure_ate.frames import ESTIMATOR_IDS, MisclassRates, ModelSpec, ObservationFrame
from mismeasure_ate.numerics import GRAM_BLOCK_ROWS, clamp_probability, expit, fit_logistic


def mean_residuals(params):
    """Residual means of a solved stack, from a fresh evaluation."""
    phi, _ = params.system.evaluate(params.theta)
    return phi.sum(axis=0) / phi.shape[0]


def test_plugin_zeroes_residual_blocks_exactly():
    frame = simulated_frame(n=5000)
    system = inf.build_system(frame, x_sel=selection_design(frame))
    params = inf.solve_plugin(frame, system)
    assert not params.failed and params.system.blocks == system.blocks
    lay = params.system.layout
    means = np.abs(mean_residuals(params))
    for name in ("tau_oracle", "tau_naive", "tau_val", "tau_s_val"):
        assert float(means[lay[name]].max()) <= 1e-12     # definition of the estimator
    assert float(means[lay["rates"]].max()) <= 1e-12      # plug-in identity
    for name in ("r_const", "r_fit", "d"):
        assert float(means[lay[name]].max()) <= 1e-10     # closed-form WLS
    assert float(means.max()) <= 1e-6                     # whole stack


def test_plugin_residuals_small_for_both_kinds_and_variants():
    frame = simulated_frame(seed=9)
    for x_sel in (None, selection_design(frame)):
        params = inf.solve_plugin(frame, inf.build_system(frame, x_sel=x_sel))
        assert not params.failed
        assert float(np.abs(mean_residuals(params)).max()) <= 1e-6


def mismatch_rates(monkeypatch):
    """Make the plug-in count rates that its validated rows do not give."""
    monkeypatch.setattr(est, "estimate_misclassification",
                        lambda frame, mode="pooled": MisclassRates(((0.9, 0.05),)))


def test_mismatched_rates_fail_residual_check(monkeypatch):
    frame = simulated_frame(seed=13, n=1500)
    system = inf.build_system(frame, x_sel=selection_design(frame))
    mismatch_rates(monkeypatch)
    params = inf.solve_plugin(frame, system)
    assert type(params.failed["rates"]) is ResidualCheckFailed
    # the blocks built on the rates go with them; the others stay
    assert {name: params.failed[name] for name in ("r_const", "r_fit", "d")} == {
        name: params.failed["rates"] for name in ("r_const", "r_fit", "d")}
    assert params.rates is None
    assert set(params.system.blocks) == set(system.blocks) - {"rates", "r_const", "r_fit", "d"}


def test_wls_slope_equals_hajek_contrast_identity():
    # beta of the fitted R block is the corrected complement contrast; beta
    # of the D block is the corrected full-sample contrast
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        frame, _, _, _ = make_random_frame(rng, 400)
        system = inf.build_system(frame, x_sel=selection_design(frame))
        params = inf.solve_plugin(frame, system)
        ((p11, p10),) = est.estimate_misclassification(frame).pairs
        e, pi = fitted_props(frame, system.x_treat, system.x_sel)
        t, ys, v = frame.t, frame.y_star, frame.v
        assert params.block("r_fit")[1] == pytest.approx(
            oracles.s_nonval_corrected_tau(t, ys, v, e, pi, p11, p10), abs=1e-10
        )
        assert params.block("d")[1] == pytest.approx(
            oracles.all_silver_tau(t, ys, e, p11, p10), abs=1e-10
        )


def test_perfect_classification_reduction():
    frame = simulated_frame(seed=3, n=2000, p11=1.0 - 1e-9, p10=1e-9)
    clean = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y, v=frame.v, y=frame.y)
    system = inf.build_system(clean, ["all_silver"])
    params = inf.solve_plugin(clean, system)
    e = fitted_probability(system.x_treat, clean.t)
    w_t = clean.t / e
    w_c = (1.0 - clean.t) / (1.0 - e)
    hajek = oracles.hajek_contrast(w_t, w_c, clean.y)
    ((p11, p10),) = est.estimate_misclassification(clean).pairs
    assert params.block("d")[1] * (p11 - p10) == pytest.approx(hajek, abs=1e-10)


def test_sandwich_symmetry_and_nonnegative_diagonal():
    frame = simulated_frame(seed=17, n=2500)
    for x_sel in (None, selection_design(frame)):
        params = inf.solve_plugin(frame, inf.build_system(frame, x_sel=x_sel))
        result = inf.sandwich(params)
        assert result.covariance.shape == (params.system.dim, params.system.dim)
        assert np.max(np.abs(result.covariance - result.covariance.T)) <= 1e-10
        assert np.all(np.diag(result.covariance) >= 0.0)


def test_model_blocks_of_a_multi_block_frame_are_minus_their_information():
    # 2 * GRAM_BLOCK_ROWS + 1 rows: both model blocks' Jacobian rows are
    # summed over two full Gram blocks and a one-row tail
    frame = simulated_frame(seed=37, n=2 * GRAM_BLOCK_ROWS + 1)
    system = inf.build_system(frame, ["s_val_only"], x_sel=selection_design(frame))
    params = inf.solve_plugin(frame, system)
    assert not params.failed
    _, jacobian = params.system.evaluate(params.theta)
    lay = params.system.layout
    for name, design in (("gamma", system.x_treat), ("eta", system.x_sel)):
        p = expit(design @ params.block(name))
        reference = -oracles.weighted_gram(design, p * (1.0 - p))
        scale = oracles.weighted_gram(np.abs(design), p * (1.0 - p))
        assert np.all(np.abs(jacobian[lay[name], lay[name]] - reference) <= 1e-12 * scale), name


def test_gamma_block_matches_independent_logistic_sandwich():
    frame = simulated_frame(seed=29, n=2500)
    system = inf.build_system(frame, x_sel=selection_design(frame))
    params = inf.solve_plugin(frame, system)
    result = inf.sandwich(params)
    se_gamma = result.se[params.system.layout["gamma"]]
    independent = oracles.logistic_sandwich_se(system.x_treat, frame.t, params.block("gamma"))
    np.testing.assert_allclose(se_gamma, independent, rtol=1e-6)


def test_combine_delta_examples():
    frame = simulated_frame(seed=31, n=1200)
    system = inf.build_system(frame, ["s_opt"], x_sel=selection_design(frame))
    params = inf.solve_plugin(frame, system)
    result = inf.sandwich(params)
    tau, beta = params.system.index("tau_s_val"), params.system.index("d", 1)
    se = inf.combine_delta(result, (1.0, 0.0), (tau, beta))
    assert se == pytest.approx(float(result.se[tau]), rel=1e-12)

    dim = result.covariance.shape[0]
    fake = inf.SandwichResult(np.diag(np.full(dim, 4.0)), np.full(dim, 2.0))
    assert inf.combine_delta(fake, (0.5, 0.5), (tau, beta)) == pytest.approx(np.sqrt(2.0))

    negative = inf.SandwichResult(-np.eye(dim), np.zeros(dim))
    with pytest.raises(NegativeVariance):
        inf.combine_delta(negative, (1.0, 0.0), (tau, beta))


def test_z_95_is_the_stdlib_normal_quantile():
    # exact equality: every interval and every coverage reads this constant
    assert inf.Z_95 == NormalDist().inv_cdf(0.975) == 1.9599639845400536


def test_confidence_interval_examples():
    assert inf.confidence_interval(0.3, 0.0) == (0.3, 0.3)
    low, high = inf.confidence_interval(0.0, 1.0)
    assert low == pytest.approx(-1.9599639845, abs=1e-8)
    assert high == pytest.approx(1.9599639845, abs=1e-8)
    low, high = inf.confidence_interval(0.07, 0.03)
    assert low == pytest.approx(0.07 - 1.9599639845 * 0.03, abs=1e-8)
    assert high == pytest.approx(0.07 + 1.9599639845 * 0.03, abs=1e-8)
    assert low == pytest.approx(0.01121, abs=1e-5)
    assert high == pytest.approx(0.12879, abs=1e-5)


def test_analyze_frame_srs_identity():
    frame = simulated_frame(seed=37, n=2000, srs=True)
    analysis = inf.analyze_frame(frame, ["val_only", "s_val_only"], x_sel=None)
    assert analysis.estimates["s_val_only"].tau == pytest.approx(
        analysis.estimates["val_only"].tau, abs=1e-12
    )


def test_analyze_frame_full_set_no_failures():
    frame = simulated_frame(seed=41, n=2500)
    x_sel = np.column_stack([np.ones(frame.n), frame.t, frame.x])
    from mismeasure_ate.frames import ESTIMATOR_IDS

    analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, x_sel=x_sel)
    assert not analysis.failures and not analysis.se_failures
    assert set(analysis.estimates) == set(ESTIMATOR_IDS)
    for estimate in analysis.estimates.values():
        assert estimate.se is not None and estimate.se > 0
        assert estimate.ci_low <= estimate.tau <= estimate.ci_high
    assert 0.0 <= analysis.estimates["s_opt"].weight_used <= 1.0
    # blend identities against the reported components
    by = analysis.estimates
    n, n_v = frame.n, frame.n_v
    expected = (n_v / n) * by["s_val_only"].tau + (1 - n_v / n) * by["all_silver"].tau
    assert by["s_weighted"].tau == pytest.approx(expected, abs=1e-12)
    b_opt = by["s_opt"].weight_used
    expected_opt = b_opt * by["s_val_only"].tau + (1 - b_opt) * by["all_silver"].tau
    assert by["s_opt"].tau == pytest.approx(expected_opt, abs=1e-12)


def test_analyze_frame_nonidentifiable_rates_degrade_gracefully():
    # validation outcomes carry no signal: p11_hat == p10_hat
    x = np.zeros((8, 1))
    t = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    y = np.array([1, 1, 0, 0, np.nan, np.nan, np.nan, np.nan])
    y_star = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    v = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    frame = ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)
    analysis = inf.analyze_frame(frame, ["val_only", "all_silver", "s_opt"], x_sel=None)
    assert "val_only" in analysis.estimates
    assert analysis.failures["all_silver"] == "NonIdentifiable"
    assert analysis.failures["s_opt"] == "NonIdentifiable"


def test_analyze_frame_oracle_needs_full_gold():
    frame = simulated_frame(seed=43, n=600)
    masked = ObservationFrame(
        x=frame.x, t=frame.t, y_star=frame.y_star, v=frame.v,
        y=np.where(frame.v == 1, frame.y, np.nan),
    )
    analysis = inf.analyze_frame(masked, ["oracle", "naive"])
    assert analysis.failures["oracle"] == "MissingGoldOutcomes"
    assert "naive" in analysis.estimates


# --- per-arm misclassification rates -------------------------------------------

def test_by_arm_stacked_identities():
    # the stacked-system identities of acceptance check 5, on the per-arm layout
    frame = simulated_frame(seed=53, n=3000, p10=0.12, p10_treated=0.18)
    rates = est.estimate_misclassification(frame, "by_arm")
    x_sel = selection_design(frame)
    pooled_dim = inf.build_system(frame, x_sel=x_sel).dim
    system = inf.build_system(frame, x_sel=x_sel, misclassification="by_arm")
    assert system.dim == pooled_dim + 2
    params = inf.solve_plugin(frame, system)
    assert not params.failed
    np.testing.assert_array_equal(params.block("rates"), np.ravel(rates.pairs))
    assert params.rates == rates
    means = np.abs(mean_residuals(params))
    assert float(means[params.system.layout["rates"]].max()) <= 1e-12
    assert float(means.max()) <= 1e-6

    e, pi = fitted_props(frame, system.x_treat, system.x_sel)
    pairs = rates.pairs
    assert params.block("r_fit")[1] == pytest.approx(
        oracles.s_nonval_by_arm_tau(frame.t, frame.y_star, frame.v, e, pi, pairs), abs=1e-10)
    assert params.block("d")[1] == pytest.approx(
        oracles.all_silver_by_arm_tau(frame.t, frame.y_star, e, pairs), abs=1e-10)

    result = inf.sandwich(params)
    assert np.max(np.abs(result.covariance - result.covariance.T)) <= 1e-10
    assert np.all(np.diag(result.covariance) >= 0.0)


def test_analyze_frame_by_arm_full_set_no_failures():
    frame = simulated_frame(seed=61, n=2500, p10=0.12, p10_treated=0.18)
    x_sel = np.column_stack([np.ones(frame.n), frame.t, frame.x])
    from mismeasure_ate.frames import ESTIMATOR_IDS

    analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, x_sel=x_sel, misclassification="by_arm")
    assert not analysis.failures and not analysis.se_failures
    assert len(analysis.rates.pairs) == 2
    for estimate in analysis.estimates.values():
        assert estimate.se is not None and estimate.se > 0
    pooled = inf.analyze_frame(frame, ESTIMATOR_IDS, x_sel=x_sel)
    for est_id in ("oracle", "naive", "val_only", "s_val_only"):  # no rates involved
        assert analysis.estimates[est_id].tau == pooled.estimates[est_id].tau
        assert analysis.estimates[est_id].se == pytest.approx(pooled.estimates[est_id].se,
                                                              rel=1e-9)
    by = analysis.estimates
    n, n_v = frame.n, frame.n_v
    expected = (n_v / n) * by["s_val_only"].tau + (1 - n_v / n) * by["all_silver"].tau
    assert by["s_weighted"].tau == pytest.approx(expected, abs=1e-12)


def test_analyze_frame_by_arm_degenerate_arm_degrades_gracefully():
    # every validated control row is a gold negative: the control arm's p11
    # cannot be counted, so the rate consumers fail with a typed reason. The
    # validation estimators read no rates, so they keep their points and
    # their SEs, which equal those of the pooled analysis.
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    t = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
    y = np.array([1, 0, 0, 0, np.nan, np.nan, np.nan, np.nan])
    y_star = np.array([1, 0, 0, 1, 1, 0, 1, 0], dtype=float)
    v = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    frame = ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)
    ids = ["val_only", "s_val_only", "all_silver", "s_opt"]
    analysis = inf.analyze_frame(frame, ids, x_sel=None, misclassification="by_arm")
    pooled = inf.analyze_frame(frame, ids, x_sel=None)
    for est_id in ("val_only", "s_val_only"):
        assert np.isfinite(analysis.estimates[est_id].tau)
        assert analysis.estimates[est_id].se == pytest.approx(
            pooled.estimates[est_id].se, rel=1e-12)
        assert analysis.estimates[est_id].se == pytest.approx(0.26535, abs=1e-5)
    assert not analysis.se_failures
    assert analysis.failures == {"all_silver": "DegenerateValidation",
                                 "s_opt": "DegenerateValidation"}
    with pytest.raises(DegenerateValidation):
        est.estimate_misclassification(frame, "by_arm")


# --- one stack per frame -------------------------------------------------------

@pytest.mark.parametrize("label", VARIANTS)
def test_each_estimator_alone_matches_the_full_stack(label):
    # each estimator's blocks and their parents form a closed sub-block of the
    # block lower-triangular stack, so its SE does not depend on what else
    # the stack holds
    from mismeasure_ate.frames import ESTIMATOR_IDS

    frame, kwargs = frame_variant(label)
    full = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
    assert not full.failures and not full.se_failures
    for est_id in ESTIMATOR_IDS:
        alone = inf.analyze_frame(frame, [est_id], **kwargs)
        assert not alone.failures and not alone.se_failures
        got, want = alone.estimates[est_id], full.estimates[est_id]
        if est_id == "s_opt":
            # its weight comes from the covariance, so it moves with its last bits
            assert got.weight_used == pytest.approx(want.weight_used, rel=1e-12)
            assert got.tau == pytest.approx(want.tau, abs=1e-15)
        else:
            assert got.tau == want.tau
        assert got.se == pytest.approx(want.se, rel=1e-12)


@pytest.mark.parametrize("label", VARIANTS + ("srs_every_row_validated",))
def test_points_read_from_the_stack_match_the_estimator_functions(label):
    # the second route for the points: the row-loop oracles evaluate each
    # estimator's formula at the fitted propensities, the counted rates,
    # b = n_V / n and the reported b_opt
    if label.endswith("_every_row_validated"):
        frame, kwargs = frame_variant(label.removesuffix("_every_row_validated"))
        # the validation share is exactly 1 and is not clamped: val_only
        # divides its contrast by 1, so it is the IPW contrast of the
        # validated rows normalized by n_V, bit for bit, and the share's
        # derivative stays 1 (the central difference steps past 1); the
        # complement blocks fail before a weight divides by 1 - s
        frame = replace(frame, v=np.ones(frame.n))
        analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
        params = inf.solve_plugin(frame, inf.build_system(frame, ESTIMATOR_IDS, **kwargs))
        assert params.block("eta0")[0] == 1.0
        v, t, yv = frame.v, frame.t, frame.y_validated
        w_t, w_c = est.arm_weights(t, params.e)
        assert analysis.estimates["val_only"].tau == (
            float(np.sum(w_t * yv)) / frame.n_v - float(np.sum(w_c * yv)) / frame.n_v)
        assert analysis.estimates["val_only"].tau == pytest.approx(
            oracles.val_only_tau(t, frame.y, v, params.e), abs=1e-12)
        assert bread_gap(params.system, params.theta) <= 1e-6
        return
    for seed in (0, 1, 2):
        frame, kwargs = frame_variant(label, seed)
        analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
        assert not analysis.failures and not analysis.se_failures
        system = inf.build_system(frame, ESTIMATOR_IDS, **kwargs)
        e, pi = fitted_props(frame, system.x_treat, system.x_sel)
        rates = est.estimate_misclassification(frame, kwargs.get("misclassification", "pooled"))
        params = inf.solve_plugin(frame, system)
        cov = inf.sandwich(params).covariance
        ia, ib = params.system.index("tau_s_val"), params.system.index("d", 1)
        b = frame.n_v / frame.n
        want = oracle_points(frame, e, pi, rates, b=b,
                             b_opt=analysis.estimates["s_opt"].weight_used)
        weights = {"sy_combined": 0.5, "s_weighted": b,
                   "s_opt": est.compute_b_opt(cov[ia, ia], cov[ib, ib], cov[ia, ib])}
        for est_id in ESTIMATOR_IDS:
            got = analysis.estimates[est_id]
            assert got.tau == pytest.approx(want[est_id], abs=1e-12), (seed, est_id)
            if est_id in weights:
                assert got.weight_used == pytest.approx(weights[est_id], abs=1e-12)
            else:
                assert got.weight_used is None


@pytest.mark.parametrize("label", ("srs", "fitted"))
def test_every_row_validated_keeps_the_validation_estimators(label):
    # the validation share is 1 there; its block still solves, so val_only
    # has an SE, and the complement blocks have no rows
    frame, kwargs = frame_variant(label)
    frame = replace(frame, v=np.ones(frame.n))
    if kwargs["x_sel"] is not None:
        kwargs = dict(kwargs, x_sel=selection_design(frame))
    analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
    kept = ["oracle", "naive", "val_only", "all_silver"]
    empty = ["nonval_corrected", "sy_combined"]
    if label == "srs":  # the selection-weighted ids read the same blocks
        kept += ["s_val_only", "s_weighted", "s_opt"]
        empty += ["s_nonval", "s_combined"]
        assert analysis.estimates["s_val_only"] == replace(
            analysis.estimates["val_only"], estimator_id="s_val_only")
    for est_id in kept:
        assert np.isfinite(analysis.estimates[est_id].tau)
        assert analysis.estimates[est_id].se > 0
    assert {i: analysis.failures[i] for i in empty} == dict.fromkeys(empty, "EmptyComplement")
    assert not analysis.se_failures


def test_one_armed_validation_sample_fails_every_validation_estimator():
    config = sim.scenario_catalog()["main_nonprob"]
    selection, _ = sim.resolve_selection(config)
    rng = sim._rng(sim.child_seed(config.base_seed, 0))
    population = sim.generate_population(replace(config.dgp, n=600), rng)
    drawn = sim.select_validation(population, selection, rng).with_full_y(population.y)
    frame = replace(drawn, v=drawn.v * drawn.t)  # only treated rows stay validated
    assert 0 < frame.n_v < np.sum(drawn.v)
    six = ("val_only", "sy_combined", "s_val_only", "s_combined", "s_weighted", "s_opt")
    # the treatment column would separate this selection indicator, so the
    # fitted selection model reads the covariates only
    for x_sel in (None, np.column_stack([np.ones(frame.n), frame.x])):
        analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, x_sel=x_sel)
        assert analysis.failures == dict.fromkeys(six, "EmptyValidationArm")
        assert not analysis.se_failures


def bread_gap(system, theta):
    """Largest row-relative gap between the closed-form Jacobian of the summed
    residuals and the central-difference oracle (a row that is zero on both,
    such as a rate row counting no rows, has gap 0)."""
    numeric = oracles.numeric_jacobian(lambda th: system.evaluate(th)[0].sum(axis=0), theta)
    return row_relative_gap(system.evaluate(theta)[1], numeric)


def row_relative_gap(analytic, numeric):
    scale = np.max(np.abs(numeric), axis=1)
    gap = np.max(np.abs(analytic - numeric), axis=1)
    return float(np.max(gap / np.where(scale > 0.0, scale, 1.0)))


@pytest.mark.parametrize("label", VARIANTS)
def test_analytic_bread_matches_numeric_oracle(label, d6_frame):
    from mismeasure_ate.frames import ESTIMATOR_IDS

    rng = np.random.default_rng(83)
    for seed in (0, 1, 2):
        frame, kwargs = frame_variant(label, seed)
        params = inf.solve_plugin(frame, inf.build_system(frame, ESTIMATOR_IDS, **kwargs))
        assert not params.failed
        assert bread_gap(params.system, params.theta) <= 1e-6
        # the derivative holds at every theta, not only at the plug-in solution
        moved = params.theta + rng.normal(scale=0.05, size=params.system.dim)
        assert bread_gap(params.system, moved) <= 1e-6
    # the D6 fixture is too small to fit every block, so its stack is checked
    # at a drawn theta whose rates are plausible (p11 > p10)
    kwargs = dict(frame_variant(label)[1])
    if kwargs.get("x_sel") is not None:
        kwargs["x_sel"] = selection_design(d6_frame)
    system = inf.build_system(d6_frame, ESTIMATOR_IDS, **kwargs)
    theta = rng.normal(scale=0.3, size=system.dim)
    rates = theta[system.layout["rates"]]  # a view into theta
    rates[0::2] = rng.uniform(0.6, 0.9, size=rates.size // 2)
    rates[1::2] = rng.uniform(0.1, 0.3, size=rates.size // 2)
    assert bread_gap(system, theta) <= 1e-6


@pytest.mark.parametrize("label", VARIANTS)
def test_analyze_frame_never_calls_the_numeric_oracle(label, monkeypatch):
    from mismeasure_ate.frames import ESTIMATOR_IDS

    def refuse(*args, **kwargs):
        raise AssertionError("the production path took a numeric Jacobian")

    monkeypatch.setattr(oracles, "numeric_jacobian", refuse)
    frame, kwargs = frame_variant(label)
    analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
    assert not analysis.failures and not analysis.se_failures


def count_walks(monkeypatch):
    """Record the dimension of every stack walked, by ``solve_plugin`` or by
    ``EstimatingSystem.evaluate``."""
    calls, walk = [], inf.EstimatingSystem._walk

    def counted(self, *args, **kwargs):
        calls.append(self.dim)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(inf.EstimatingSystem, "_walk", counted)
    return calls


@pytest.mark.parametrize("label", VARIANTS)
def test_analyze_frame_evaluates_the_stack_once(label, monkeypatch):
    # one walk solves the stack and gives the residual check and the
    # sandwich their evaluation; its fitted probabilities are those of the
    # fits, so no fitted model is evaluated again
    def refuse(*args, **kwargs):
        raise AssertionError("a fitted model was evaluated again")

    frame, kwargs = frame_variant(label)
    calls = count_walks(monkeypatch)
    monkeypatch.setattr(inf, "expit", refuse)
    analysis = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs)
    assert not analysis.failures and not analysis.se_failures
    assert len(calls) == 1


def dropping_frames():
    """(label, frame, build_system keywords): every variant's frame, an
    every-row-validated frame (the complement blocks fail with
    EmptyComplement) and a frame whose residual check drops the rates."""
    for label in VARIANTS:
        yield (label, *frame_variant(label))
    frame, kwargs = frame_variant("fitted")
    frame = replace(frame, v=np.ones(frame.n))
    yield "every_row_validated", frame, dict(kwargs, x_sel=selection_design(frame))
    frame = simulated_frame(seed=13, n=1500)
    yield "mismatched_rates", frame, dict(x_sel=selection_design(frame))


def test_solved_stack_equals_the_evaluation_of_its_kept_blocks(monkeypatch):
    # the walk that solves the stack writes what evaluate gives at the
    # solution, bit for bit, whichever blocks it leaves out
    for label, frame, kwargs in dropping_frames():
        if label == "mismatched_rates":
            mismatch_rates(monkeypatch)
        params = inf.solve_plugin(frame, inf.build_system(frame, ESTIMATOR_IDS, **kwargs))
        assert bool(params.failed) == (label in ("every_row_validated", "mismatched_rates"))
        kept = inf.build_system(frame, ESTIMATOR_IDS, **kwargs).restrict(params.system.blocks)
        assert kept.layout == params.system.layout
        theta = np.concatenate([params.block(name) for name in kept.blocks])
        phi, jacobian = kept.evaluate(theta)
        assert np.array_equal(params.theta, theta), label
        assert np.array_equal(params.phi, phi), label
        assert np.array_equal(params.jacobian, jacobian), label
        assert params.phi.flags.f_contiguous


@pytest.mark.parametrize("label", VARIANTS)
def test_analyze_frame_agrees_on_either_memory_order(label):
    frame, kwargs = frame_variant(label)
    rows = dict(kwargs, x_treat=np.column_stack([np.ones(frame.n), frame.x]))
    columns = {key: np.asfortranarray(value) if key.startswith("x_") and value is not None
               else value for key, value in rows.items()}
    assert rows["x_treat"].flags.c_contiguous and columns["x_treat"].flags.f_contiguous
    by_row = inf.analyze_frame(frame, ESTIMATOR_IDS, **rows)
    by_column = inf.analyze_frame(frame, ESTIMATOR_IDS, **columns)
    assert by_row.failures == by_column.failures and not by_row.se_failures
    assert by_row.estimates.keys() == by_column.estimates.keys()
    for est_id, got in by_row.estimates.items():
        assert got.tau == pytest.approx(by_column.estimates[est_id].tau, rel=0, abs=1e-12)
        assert got.se == pytest.approx(by_column.estimates[est_id].se, rel=1e-12)


def test_designs_and_residuals_are_column_contiguous():
    frame, kwargs = frame_variant("fitted")
    catalog = sim.scenario_catalog()
    designs = [
        inf.build_system(frame).x_treat,
        *catalog["main_nonprob"].model_spec.designs(frame),
        catalog["misspecified_selection"].model_spec.designs(frame)[1],
        *ModelSpec(("x1", "x3"), ("x2",)).designs(frame),
        ModelSpec((), None).designs(frame)[0],
    ]
    for design in designs:
        assert design.flags.f_contiguous and design.shape[0] == frame.n
    params = inf.solve_plugin(frame, inf.build_system(frame, ESTIMATOR_IDS, **kwargs))
    assert params.phi.flags.f_contiguous and params.phi.shape == (frame.n, params.system.dim)


def test_stored_evaluation_is_that_of_the_restricted_stack(monkeypatch):
    # the check drops the rates and the blocks built on them in the one walk
    # of the stack; the columns it keeps are the evaluation of the stack
    # that is left
    frame = simulated_frame(seed=13, n=1500)
    system = inf.build_system(frame, x_sel=selection_design(frame))
    calls = count_walks(monkeypatch)
    mismatch_rates(monkeypatch)
    params = inf.solve_plugin(frame, system)
    assert type(params.failed["rates"]) is ResidualCheckFailed
    assert calls == [system.dim] and params.system.dim < system.dim
    phi, jacobian = params.system.evaluate(params.theta)
    assert phi.shape == (frame.n, params.system.dim)
    assert params.phi.tobytes() == phi.tobytes()
    assert params.jacobian.tobytes() == jacobian.tobytes()


def test_clamped_propensities_have_zero_derivative():
    # selection is nearly deterministic in the first covariate, so the fitted
    # selection probability is held at a bound on rows at both ends
    rng = np.random.default_rng(89)
    frame = simulated_frame(seed=89, n=2000)
    v = (rng.random(frame.n) < expit(-1.0 + 14.0 * frame.x[:, 0])).astype(float)
    frame = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y_star, v=v, y=frame.y)
    system = inf.build_system(frame, x_sel=selection_design(frame))
    params = inf.solve_plugin(frame, system)
    assert not params.failed
    pi = expit(selection_design(frame) @ params.block("eta"))
    assert np.sum(clamp_probability(pi) != pi) >= 20
    assert bread_gap(params.system, params.theta) <= 1e-6

    # at the plug-in only rows whose weights stay moderate are held at a
    # bound. With the selection model reversed, validated gold positives get
    # a pi below the bound, so 1/pi reaches 1e12 and an unclamped slope
    # p(1-p) would count there. The oracle differences each subject's rows
    # before summing, which keeps those constant terms exact. (The s_val_only
    # stack is used: near pi = 1 the complement weight 1/(1-pi) reads 1 - pi
    # to a few digits only, which a central difference cannot resolve.)
    system = params.system.restrict(("gamma", "eta", "tau_s_val"))
    theta = np.concatenate([params.block(name) for name in system.blocks])
    theta[system.layout["eta"]] *= -1.0
    pi = expit(selection_design(frame) @ theta[system.layout["eta"]])
    assert np.sum((pi < 1e-12) & (pi > 1e-16) & (frame.y_validated == 1)) >= 10
    n, dim = frame.n, system.dim
    per_subject = oracles.numeric_jacobian(lambda th: system.evaluate(th)[0].ravel(),
                                           theta).reshape(n, dim, dim).sum(axis=0)
    assert row_relative_gap(system.evaluate(theta)[1], per_subject) <= 1e-6


def test_sandwich_raises_typed_error_on_non_finite_residuals():
    frame = simulated_frame(seed=97, n=800)
    params = inf.solve_plugin(frame, inf.build_system(frame, ["naive", "all_silver"]))
    theta = params.theta.copy()
    theta[params.system.index("d")] = np.nan
    phi, jacobian = params.system.evaluate(theta)
    with pytest.raises(NonFiniteEvaluation):
        inf.sandwich(replace(params, theta=theta, phi=phi, jacobian=jacobian))


def test_singular_bread_raises_singular_system(monkeypatch):
    frame = simulated_frame(seed=97, n=800)
    ids = ["naive", "all_silver"]
    params = inf.solve_plugin(frame, inf.build_system(frame, ids))
    jacobian = params.jacobian.copy()
    jacobian[-1] = jacobian[-2]  # d's two rows alike: the bread has rank dim - 1
    singular = replace(params, jacobian=jacobian)
    with pytest.raises(SingularSystem):
        inf.sandwich(singular)
    monkeypatch.setattr(inf, "solve_plugin", lambda frame, system: singular)
    analysis = inf.analyze_frame(frame, ids)
    assert analysis.se_failures == {"naive": "SingularSystem", "all_silver": "SingularSystem"}
    assert not analysis.failures
    assert all(analysis.estimates[est_id].se is None for est_id in ids)


def test_analyze_frame_without_validated_rows_keeps_naive_se():
    frame = simulated_frame(seed=79, n=600)
    bare = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y_star,
                            v=np.zeros(frame.n), y=np.full(frame.n, np.nan))
    analysis = inf.analyze_frame(bare, ["naive", "val_only", "s_val_only"])
    assert analysis.estimates["naive"].se > 0
    # under a simple random sample both read the block of the validation
    # share, which has no value without validated rows
    assert analysis.failures == {"val_only": "DegenerateValidation",
                                 "s_val_only": "DegenerateValidation"}


def test_sy_combined_weight_on_an_empty_piece_is_a_recorded_failure():
    # w = 1 puts sy_combined wholly on the validated rows and w = 0 wholly on
    # the complement; with that piece empty the blend weight is 0/0
    frame = simulated_frame(seed=79, n=600)
    bare = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y_star,
                            v=np.zeros(frame.n), y=np.full(frame.n, np.nan))
    alone = inf.analyze_frame(bare, ["naive"], w=1.0)
    assert alone.estimates["naive"].se > 0 and not alone.failures
    blended = inf.analyze_frame(bare, ["naive", "sy_combined"], w=1.0)
    assert blended.estimates["naive"] == alone.estimates["naive"]
    assert blended.failures == {"sy_combined": "DegenerateValidation"}
    # the rates fail first there; the blend weight itself is typed too
    with pytest.raises(EmptyValidationArm):
        est.sy_combined_weight(bare.n, bare.n_v, 1.0)

    full = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y_star,
                            v=np.ones(frame.n), y=frame.y)
    analysis = inf.analyze_frame(full, ["val_only", "sy_combined"], w=0.0)
    assert np.isfinite(analysis.estimates["val_only"].tau)
    assert analysis.failures == {"sy_combined": "EmptyComplement"}


def test_completely_separated_selection_fails_only_its_estimators():
    # every treated row is validated and a line through (t, x) splits the
    # validated rows from the rest: the selection model has no finite MLE,
    # so s_weighted, which reads it, fails; the other estimators keep their SEs
    x = np.array([[-0.81, 0.62], [1.13, -0.11], [-0.84, -0.82], [0.65, 0.74],
                  [0.54, -0.67], [0.23, 0.12], [0.22, 0.87], [0.22, 0.68]])
    t = np.array([1, 1, 0, 1, 1, 0, 1, 0], dtype=float)
    y = np.array([1, 1, 0, 0, 0, 0, 0, 1], dtype=float)
    y_star = np.array([0, 1, 1, 1, 1, 0, 1, 0], dtype=float)
    v = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=float)
    frame = ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)
    ids = ["oracle", "naive", "all_silver", "s_weighted"]
    analysis = inf.analyze_frame(frame, ids, x_sel=selection_design(frame))
    assert analysis.failures == {"s_weighted": "SeparationSuspected"}
    assert not analysis.se_failures
    assert all(analysis.estimates[est_id].se > 0 for est_id in ids[:3])


def test_blocks_of_different_scale_do_not_read_as_singular():
    # one row is not validated and it sits among validated rows, so the
    # selection fit is finite but nearly separated (|coefficients| near 20):
    # its bread rows are one to two orders of magnitude smaller than the tau
    # rows, and unscaled, rounding drives the sandwich's variances negative;
    # the stack is still well posed once each equation is scaled
    x = np.array([[-1.62, -0.87], [-0.16, -1.97], [-1.0, -1.48], [0.66, -0.88],
                  [-0.17, 0.4], [0.8, -0.97], [0.43, 0.37], [-0.46, 0.9],
                  [-0.25, -1.09], [1.36, -0.51], [0.75, 0.08], [2.02, 0.65],
                  [-0.06, 2.0], [2.24, -0.46], [-0.63, -1.17], [0.21, 0.84],
                  [0.09, -1.71], [0.13, 1.47], [1.24, -1.16], [0.13, -0.08]])
    t = np.array([1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0], dtype=float)
    y = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1], dtype=float)
    y_star = np.array([1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0],
                      dtype=float)
    v = np.ones(20)
    v[17] = 0.0
    frame = ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)
    selection = fit_logistic(selection_design(frame), v)
    assert selection.converged and np.max(np.abs(selection.coefficients)) > 15.0
    ids = ["oracle", "naive", "all_silver", "s_weighted"]
    analysis = inf.analyze_frame(frame, ids, x_sel=selection_design(frame))
    assert not analysis.failures and not analysis.se_failures
    assert all(analysis.estimates[est_id].se > 0 for est_id in ids)
