import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mismeasure_ate
import oracles
from conftest import D6, VARIANTS, fitted_props, frame_variant, make_random_frame, stack_rates
from mismeasure_ate import estimators as est
from mismeasure_ate import frames
from mismeasure_ate import inference as inf
from mismeasure_ate.errors import (
    DegenerateValidation,
    NonIdentifiable,
)
from mismeasure_ate.frames import ESTIMATOR_IDS, MisclassRates, ObservationFrame

# Frozen outputs of tests/oracles.py on the D6 fixture (p11=0.67, p10=0.24
# where rates enter, w=b=0.5 where a blend weight enters).
D6_EXPECTED = {
    "oracle": 0.14550264550264552,
    "naive": 0.24074074074074076,
    "val_only": 0.5555555555555556,
    "nonval_corrected": -1.7226528854435832,
    "sy_combined": -0.5835486649440138,
    "s_val_only": 0.9259259259259259,
    "s_nonval_raw": -0.6568914956011731,
    "s_nonval": -1.5276546409329606,
    "s_combined": -0.3008643575035173,
    "all_silver": 0.7016644661932676,
    "s_weighted": 0.8137951960595968,
    "s_opt": 0.7670740586152929,  # with (var_a, var_b, cov) = (2, 1, 0.3)
}

# (p11, p10) of the control, then the treated arm, and the frozen outputs of
# the per-arm oracles on the D6 fixture (b = 0.5)
D6_ARM_RATES = ((0.7, 0.2), (0.6, 0.3))
D6_BY_ARM_EXPECTED = {
    "nonval_corrected": -2.0814814814814815,
    "s_nonval": -1.9137829912023463,
    "all_silver": 0.962932998558609,
    "s_weighted": 0.9444294622422675,
}


def intercept(frame):
    """Design of a model with an intercept only: it fits a constant
    probability, the share of treated (or validated) rows, on a frame of a
    few rows that a covariate would separate."""
    return np.ones((frame.n, 1))


def plug_in_contrasts(frame, e, pi, rates):
    """The single-parameter points as the stacked plug-in computes them
    (``inference.solve_plugin``, and ``analyze_frame`` for the IPW complement
    contrast), from ``estimators.arm_weights`` at caller-given propensities
    e and pi; val_only reads the validation share as its pi."""
    t, v, ys, yv = frame.t, frame.v, frame.y_star, frame.y_validated
    n, n_v = float(frame.n), float(frame.n_v)
    nv = 1.0 - v

    def means(weights, outcome, denom=None):
        # each arm's weighted outcome sum over denom, or over the arm's own
        # weight sum (the Hajek means) when denom is None
        return [np.sum(w * outcome) / (np.sum(w) if denom is None else denom) for w in weights]

    def contrast(weights, outcome):
        treated, control = means(weights, outcome, n)
        return treated - control

    return {
        "oracle": contrast(est.arm_weights(t, e), frame.y),
        "naive": contrast(est.arm_weights(t, e), ys),
        "val_only": contrast(est.arm_weights(t, e, v, n_v / n), yv),
        "s_val_only": contrast(est.arm_weights(t, e, v, pi), yv),
        "nonval_corrected": est.corrected_contrast(
            rates, *means(est.arm_weights(t, e, nv), ys, n - n_v)),
        "s_nonval": est.corrected_contrast(rates, *means(est.arm_weights(t, e, nv, 1.0 - pi), ys)),
        "all_silver": est.corrected_contrast(rates, *means(est.arm_weights(t, e), ys)),
    }


def test_d6_matches_frozen_oracle_values(d6_frame, d6_props, d6_rates):
    t, y, ys, v = D6["t"], D6["y"], D6["y_star"], D6["v"]
    e, pi = d6_props
    ((p11, p10),) = d6_rates.pairs
    got = {
        "oracle": oracles.oracle_tau(t, y, e),
        "naive": oracles.naive_tau(t, ys, e),
        "val_only": oracles.val_only_tau(t, y, v, e),
        "nonval_corrected": oracles.nonval_corrected_tau(t, ys, v, e, p11, p10),
        "sy_combined": oracles.sy_combined_tau(t, y, ys, v, e, p11, p10, w=0.5),
        "s_val_only": oracles.s_val_only_tau(t, y, v, e, pi),
        "s_nonval_raw": oracles.s_nonval_raw_tau(t, ys, v, e, pi),
        "s_nonval": oracles.s_nonval_corrected_tau(t, ys, v, e, pi, p11, p10),
        "s_combined": oracles.s_combined_tau(t, y, ys, v, e, pi, p11, p10),
        "all_silver": oracles.all_silver_tau(t, ys, e, p11, p10),
        "s_weighted": oracles.s_weighted_tau(t, y, ys, v, e, pi, p11, p10, b=0.5),
        "s_opt": oracles.s_opt_tau(t, y, ys, v, e, pi, p11, p10, 2.0, 1.0, 0.3),
    }
    for key, expected in D6_EXPECTED.items():
        assert got[key] == pytest.approx(expected, abs=1e-12), key
    by_arm = {
        "nonval_corrected": oracles.nonval_corrected_by_arm_tau(t, ys, v, e, D6_ARM_RATES),
        "s_nonval": oracles.s_nonval_by_arm_tau(t, ys, v, e, pi, D6_ARM_RATES),
        "all_silver": oracles.all_silver_by_arm_tau(t, ys, e, D6_ARM_RATES),
        "s_weighted": oracles.s_weighted_by_arm_tau(t, y, ys, v, e, pi, D6_ARM_RATES, b=0.5),
    }
    for key, expected in D6_BY_ARM_EXPECTED.items():
        assert by_arm[key] == pytest.approx(expected, abs=1e-12), key
    # the stack's arithmetic gives the same single-parameter points
    contrasts = plug_in_contrasts(d6_frame, e, pi, d6_rates)
    for key, got in contrasts.items():
        assert got == pytest.approx(D6_EXPECTED[key], abs=1e-12), key


def test_d6_misclassification_rates(d6_frame):
    ((p11, p10),) = stack_rates(d6_frame).pairs
    assert p11 == pytest.approx(1.0, abs=1e-15)
    assert p10 == pytest.approx(0.5, abs=1e-15)


def test_misclassification_counting_examples():
    frame = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.array([1, 1, 1, 0]),
        v=np.ones(4), y=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    rates = stack_rates(frame)
    assert rates.pairs == ((1.0, 0.5),)

    perfect = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    rates = stack_rates(perfect)
    assert rates.pairs == ((1.0, 0.0),)

    tied = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.array([1, 0, 1, 0]),
        v=np.ones(4), y=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    with pytest.raises(NonIdentifiable):
        stack_rates(tied)


def test_misclassification_degenerate_validation():
    all_pos = ObservationFrame(
        x=np.zeros(3), t=np.array([1, 0, 1]), y_star=np.array([1, 1, 0]),
        v=np.ones(3), y=np.ones(3),
    )
    with pytest.raises(DegenerateValidation):
        stack_rates(all_pos)
    no_val = ObservationFrame(
        x=np.zeros(3), t=np.array([1, 0, 1]), y_star=np.array([1, 1, 0]),
        v=np.zeros(3), y=np.full(3, np.nan),
    )
    with pytest.raises(DegenerateValidation):
        stack_rates(no_val)


def test_oracle_hand_arithmetic():
    # the intercept-only treatment model fits e = 1/2 on these two rows
    frame = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    point = inf.analyze_frame(frame, ["oracle"], x_treat=intercept(frame)).estimates["oracle"]
    assert point.tau == pytest.approx(1.0)
    zero = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.zeros(2),
    )
    assert inf.analyze_frame(zero, ["oracle"], x_treat=intercept(zero)).estimates["oracle"].tau == 0.0


def test_oracle_requires_full_gold(d6_frame):
    masked = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star, v=d6_frame.v,
        y=np.where(d6_frame.v == 1, d6_frame.y, np.nan),
    )
    analysis = inf.analyze_frame(masked, ["oracle", "naive"], x_treat=intercept(masked))
    assert analysis.failures == {"oracle": "MissingGoldOutcomes"}


def test_naive_equals_oracle_when_outcomes_agree(d6_frame):
    same = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y, v=d6_frame.v, y=d6_frame.y
    )
    by = inf.analyze_frame(same, ["oracle", "naive"], x_treat=intercept(same)).estimates
    assert by["naive"].tau == by["oracle"].tau
    flip = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([0, 1]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    naive = inf.analyze_frame(flip, ["naive"], x_treat=intercept(flip)).estimates["naive"]
    assert naive.tau == pytest.approx(-1.0)


def test_val_only_reductions():
    frame, _ = frame_variant("srs")
    all_val = replace(frame, v=np.ones(frame.n))
    by = inf.analyze_frame(all_val, ["oracle", "val_only"]).estimates
    assert by["val_only"].tau == pytest.approx(by["oracle"].tau, abs=1e-15)
    pair = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    point = inf.analyze_frame(pair, ["val_only"], x_treat=intercept(pair)).estimates["val_only"]
    assert point.tau == pytest.approx(1.0)


def test_val_only_requires_both_arms():
    # so does s_val_only, under a simple random sample (where it is the same
    # contrast) and under a fitted selection model; without validated rows
    # the validation share fails first
    # (test_analyze_frame_without_validated_rows_keeps_naive_se)
    one_armed = ObservationFrame(
        x=np.zeros(3), t=np.array([1, 1, 0]), y_star=np.array([1, 0, 0]),
        v=np.array([1, 1, 0]), y=np.array([1.0, 0.0, np.nan]),
    )
    for x_sel in (None, intercept(one_armed)):
        analysis = inf.analyze_frame(one_armed, ["val_only", "s_val_only"],
                                     x_treat=intercept(one_armed), x_sel=x_sel)
        assert analysis.failures == dict.fromkeys(["val_only", "s_val_only"], "EmptyValidationArm")


def test_frame_counts_are_computed_once(d6_frame):
    assert d6_frame.n_v == 3 and d6_frame.y_validated is d6_frame.y_validated
    np.testing.assert_array_equal(d6_frame.y_validated, [1, 0, 0, 0, 0, 0])


def test_nonval_correction_factor(d6_frame, d6_props):
    e, pi = d6_props
    uncorrected = plug_in_contrasts(d6_frame, e, pi, MisclassRates(((1.0, 0.0),)))["nonval_corrected"]
    doubled = plug_in_contrasts(d6_frame, e, pi, MisclassRates(((0.75, 0.25),)))["nonval_corrected"]
    assert doubled == pytest.approx(2.0 * uncorrected, rel=1e-14)


def test_sy_combined_endpoints():
    frame, kwargs = frame_variant("srs")
    ids = ["val_only", "nonval_corrected", "sy_combined"]
    at = {w: inf.analyze_frame(frame, ids, w=w, **kwargs) for w in (1.0, 0.0, 1.5)}
    assert at[1.0].estimates["sy_combined"].tau == pytest.approx(
        at[1.0].estimates["val_only"].tau, abs=1e-15)
    assert at[0.0].estimates["sy_combined"].tau == pytest.approx(
        at[0.0].estimates["nonval_corrected"].tau, abs=1e-15)
    assert at[1.5].failures == {"sy_combined": "WeightOutOfRange"}


def test_sy_combined_lambda_is_sampling_fraction():
    # w = 0.5 collapses the blend weight to n_V / n
    n, n_v = 5000, 850
    lam = 0.5 * n_v / (0.5 * n_v + 0.5 * (n - n_v))
    assert lam == pytest.approx(0.17)


def test_srs_reduction_identity():
    # an intercept-only selection model fits the validation share on every row
    frame, _ = frame_variant("fitted")
    fitted = inf.analyze_frame(frame, ["s_val_only"], x_sel=intercept(frame))
    srs = inf.analyze_frame(frame, ["val_only"], x_sel=None)
    assert fitted.estimates["s_val_only"].tau == pytest.approx(
        srs.estimates["val_only"].tau, abs=1e-12
    )


def test_s_val_only_oracle_reduction():
    frame, _ = frame_variant("srs")
    all_val = replace(frame, v=np.ones(frame.n))
    by = inf.analyze_frame(all_val, ["oracle", "s_val_only"]).estimates
    assert by["s_val_only"].tau == pytest.approx(by["oracle"].tau, rel=1e-9)


def test_s_nonval_trivial_cases():
    # the raw complement Hajek contrast, before the rates correct it
    t, v = np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])
    half = np.full(4, 0.5)
    weights = est.arm_weights(t, half, 1.0 - v, 1.0 - half)
    assert oracles.hajek_contrast(*weights, np.array([1.0, 1.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert oracles.hajek_contrast(*weights, np.ones(4)) == pytest.approx(0.0, abs=1e-15)


def test_complement_without_an_arm_fails_its_hajek_blocks():
    # the Hajek blocks over the complement check their own arm sums; the
    # full-sample one still solves
    frame = ObservationFrame(
        x=np.zeros(6), t=np.array([1, 0, 1, 0, 1, 1]), y_star=np.array([1, 0, 0, 1, 1, 0]),
        v=np.array([1, 1, 1, 1, 0, 0]), y=np.array([1.0, 0.0, 0.0, 1.0, np.nan, np.nan]),
    )
    ids = ["nonval_corrected", "s_nonval", "all_silver"]
    for x_sel in (None, intercept(frame)):
        analysis = inf.analyze_frame(frame, ids, x_treat=intercept(frame), x_sel=x_sel)
        assert analysis.failures == dict.fromkeys(ids[:2], "EmptyComplementArm")
        assert np.isfinite(analysis.estimates["all_silver"].tau)


def test_s_combined_endpoints():
    # s_combined weights s_val_only by n_V / n and s_nonval by (n - n_V) / n;
    # at n_V = n and at n_V = 0 one piece has no rows, and the blend fails
    # with that piece's typed reason
    frame, kwargs = frame_variant("fitted")
    by = inf.analyze_frame(frame, ["s_val_only", "s_nonval", "s_combined"], **kwargs).estimates
    n, n_v = frame.n, frame.n_v
    assert by["s_combined"].tau == pytest.approx(
        (n_v / n) * by["s_val_only"].tau + ((n - n_v) / n) * by["s_nonval"].tau, abs=1e-15)
    all_val = replace(frame, v=np.ones(n))
    analysis = inf.analyze_frame(all_val, ["s_val_only", "s_combined"])
    assert analysis.failures == {"s_combined": "EmptyComplement"}
    assert np.isfinite(analysis.estimates["s_val_only"].tau)
    no_val = replace(frame, v=np.zeros(n), y=np.full(n, np.nan))
    analysis = inf.analyze_frame(no_val, ["naive", "s_combined"])
    assert analysis.failures == {"s_combined": "DegenerateValidation"}


def test_all_silver_reductions(d6_props):
    frame, kwargs = frame_variant("fitted")
    clean = replace(frame, y_star=frame.y)
    analysis = inf.analyze_frame(clean, ["all_silver"], **kwargs)
    assert analysis.rates == MisclassRates(((1.0, 0.0),))
    e, _ = fitted_props(clean, inf.build_system(clean).x_treat)
    w_t = clean.t / e
    w_c = (1.0 - clean.t) / (1.0 - e)
    assert analysis.estimates["all_silver"].tau == pytest.approx(
        oracles.hajek_contrast(w_t, w_c, clean.y), abs=1e-15
    )
    # a constant silver outcome has no contrast whatever the rates (counted
    # rates cannot identify it, so the rates are given)
    e, pi = d6_props
    const = ObservationFrame(
        x=D6["x"], t=D6["t"], y_star=np.ones(6), v=D6["v"], y=D6["y"].astype(float)
    )
    assert plug_in_contrasts(const, e, pi, MisclassRates(((0.67, 0.24),)))["all_silver"] == (
        pytest.approx(0.0, abs=1e-13))


def test_s_weighted_endpoints():
    frame, kwargs = frame_variant("fitted")
    ids = ["s_val_only", "all_silver", "s_weighted"]
    at_one = inf.analyze_frame(frame, ids, b=1.0, **kwargs).estimates
    assert at_one["s_weighted"].tau == pytest.approx(at_one["s_val_only"].tau, abs=1e-15)
    at_zero = inf.analyze_frame(frame, ids, b=0.0, **kwargs).estimates
    assert at_zero["s_weighted"].tau == pytest.approx(at_zero["all_silver"].tau, abs=1e-15)


def test_compute_b_opt_plugins():
    assert est.compute_b_opt(1.0, 1.0, 0.0) == pytest.approx(0.5)
    assert est.compute_b_opt(3.0, 1.0, 0.0) == pytest.approx(0.25)
    assert est.compute_b_opt(1.0, 4.0, 1.0) == pytest.approx(1.0)


def test_compute_b_opt_degenerate_falls_back():
    # silently: a warning would reach the report from the parent process only
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert est.compute_b_opt(1.0, 1.0, 1.0) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=12))
def test_brute_force_equivalence_small_frames(seed, n):
    # the stack's arithmetic at arbitrary propensities; analyze_frame's
    # points, blends included, meet the oracles at the fitted propensities in
    # test_points_read_from_the_stack_match_the_estimator_functions
    rng = np.random.default_rng(seed)
    frame, e, pi, rates = make_random_frame(rng, n)
    t, y, ys, v = frame.t, frame.y, frame.y_star, frame.v
    ((p11, p10),) = rates.pairs
    got = plug_in_contrasts(frame, e, pi, rates)
    want = {
        "oracle": oracles.oracle_tau(t, y, e),
        "naive": oracles.naive_tau(t, ys, e),
        "val_only": oracles.val_only_tau(t, y, v, e),
        "s_val_only": oracles.s_val_only_tau(t, y, v, e, pi),
        "nonval_corrected": oracles.nonval_corrected_tau(t, ys, v, e, p11, p10),
        "s_nonval": oracles.s_nonval_corrected_tau(t, ys, v, e, pi, p11, p10),
        "all_silver": oracles.all_silver_tau(t, ys, e, p11, p10),
    }
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VARIANTS), st.integers(min_value=0, max_value=10_000))
def test_permutation_invariance(label, seed):
    frame, kwargs = frame_variant(label)
    perm = np.random.default_rng(seed).permutation(frame.n)
    shuffled = ObservationFrame(
        x=frame.x[perm], t=frame.t[perm], y_star=frame.y_star[perm],
        v=frame.v[perm], y=frame.y[perm],
    )
    shuffled_kwargs = dict(kwargs, x_sel=None if kwargs["x_sel"] is None else kwargs["x_sel"][perm])
    base = inf.analyze_frame(frame, ESTIMATOR_IDS, **kwargs).estimates
    moved = inf.analyze_frame(shuffled, ESTIMATOR_IDS, **shuffled_kwargs).estimates
    for est_id in ESTIMATOR_IDS:
        assert moved[est_id].tau == pytest.approx(base[est_id].tau, abs=1e-12), est_id


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(VARIANTS), st.floats(min_value=0.0, max_value=1.0))
def test_s_weighted_convexity(label, b):
    frame, kwargs = frame_variant(label)
    by = inf.analyze_frame(frame, ["s_val_only", "all_silver", "s_weighted"], b=b,
                           **kwargs).estimates
    lo_hi = sorted([by["s_val_only"].tau, by["all_silver"].tau])
    assert lo_hi[0] - 1e-12 <= by["s_weighted"].tau <= lo_hi[1] + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_hajek_rescaling_invariance(seed, scale):
    # a constant share scales every weight of the rule alike, so it cancels
    # from the arm means of the Hajek blocks (r_const under a simple random
    # sample)
    rng = np.random.default_rng(seed)
    t = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    e = rng.uniform(0.05, 0.95, size=8)
    rows = rng.integers(0, 2, size=8).astype(float)
    rows[[0, 4]] = 1.0  # both arms keep a row
    y = rng.integers(0, 2, size=8).astype(float)
    base = oracles.hajek_contrast(*est.arm_weights(t, e, rows), y)
    scaled = oracles.hajek_contrast(*est.arm_weights(t, e, rows, scale), y)
    assert scaled == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rates_identity_reductions(seed):
    # with Y* = Y the counted rates are exactly (1, 0)
    frame, kwargs = frame_variant("fitted", seed)
    clean = replace(frame, y_star=frame.y)
    analysis = inf.analyze_frame(clean, ["nonval_corrected", "all_silver"], **kwargs)
    assert analysis.rates == MisclassRates(((1.0, 0.0),))
    e, _ = fitted_props(clean, inf.build_system(clean).x_treat)
    w_t = clean.t / e
    w_c = (1.0 - clean.t) / (1.0 - e)
    assert analysis.estimates["all_silver"].tau == pytest.approx(
        oracles.hajek_contrast(w_t, w_c, clean.y), abs=1e-12
    )
    w_t, w_c = est.arm_weights(clean.t, e, 1.0 - clean.v)
    m = clean.n - clean.n_v
    plain = np.sum(w_t * clean.y) / m - np.sum(w_c * clean.y) / m
    assert analysis.estimates["nonval_corrected"].tau == pytest.approx(plain, abs=1e-12)


# --- per-arm misclassification rates -------------------------------------------

RATE_CONSUMERS = ("nonval_corrected", "s_nonval", "all_silver")


def test_d6_by_arm_matches_direct_summation(d6_frame, d6_props):
    e, pi = d6_props
    got = plug_in_contrasts(d6_frame, e, pi, MisclassRates(D6_ARM_RATES))
    for key in RATE_CONSUMERS:
        assert got[key] == pytest.approx(D6_BY_ARM_EXPECTED[key], abs=1e-12), key
        # differential rates really change the correction
        assert abs(got[key] - D6_EXPECTED[key]) > 1e-3, key


def test_by_arm_with_pooled_rates_reduces_to_pooled(d6_frame, d6_props, d6_rates):
    e, pi = d6_props
    same = MisclassRates(d6_rates.pairs * 2)
    by_arm = plug_in_contrasts(d6_frame, e, pi, same)
    pooled = plug_in_contrasts(d6_frame, e, pi, d6_rates)
    for key in RATE_CONSUMERS:
        assert by_arm[key] == pytest.approx(pooled[key], abs=1e-12), key
        assert by_arm[key] == pytest.approx(D6_EXPECTED[key], abs=1e-12), key
    assert est.corrected_contrast(same, 0.5, 0.3) == pytest.approx(0.2 / (0.67 - 0.24), abs=1e-15)


@pytest.mark.parametrize("pairs", (((0.67, 0.24),), ((0.7, 0.2), (0.8, 0.3))))
def test_corrected_contrast_gradient_matches_a_central_difference(pairs):
    # the second route: central differences over (m_c, m_t, rates) of the
    # contrast as the row-loop oracles write it
    def contrast(point):
        m_c, m_t, *rates = point
        arm = np.reshape(rates, (-1, 2))
        if len(arm) == 1:
            return np.array([(m_t - m_c) / (arm[0, 0] - arm[0, 1])])
        return np.array([oracles.arm_corrected_contrast(m_t, m_c, arm)])

    for m_c, m_t in ((0.31, 0.47), (0.05, 0.9)):
        numeric = oracles.numeric_jacobian(contrast, np.array([m_c, m_t, *np.ravel(pairs)]))[0]
        analytic = est.corrected_contrast_gradient(MisclassRates(pairs), m_t, m_c)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)
        # a pooled pair's partials are those of the same pair in both arms, summed
        pair = pairs[0]
        by_arm = est.corrected_contrast_gradient(MisclassRates((pair, pair)), m_t, m_c)
        pooled = est.corrected_contrast_gradient(MisclassRates((pair,)), m_t, m_c)
        np.testing.assert_allclose(pooled, [*by_arm[:2], *(by_arm[2:4] + by_arm[4:])],
                                   rtol=1e-12)


def test_misclassification_by_arm_counting_examples():
    # control validated rows: Y = 1, 1, 0, 0 with Y* = 1, 1, 1, 0, so
    # p11_0 = 1, p10_0 = 0.5; treated: Y = 1, 0, 0 with Y* = 1, 0, 0, so
    # p11_1 = 1, p10_1 = 0; the unvalidated treated row does not count
    frame = ObservationFrame(
        x=np.zeros(8), t=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        y_star=np.array([1, 1, 1, 0, 1, 0, 0, 1]),
        v=np.array([1, 1, 1, 1, 1, 1, 1, 0]),
        y=np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, np.nan]),
    )
    rates = stack_rates(frame, "by_arm")
    assert rates.pairs == ((1.0, 0.5), (1.0, 0.0))
    assert stack_rates(frame).pairs == ((1.0, 0.25),)
    with pytest.raises(ValueError):
        stack_rates(frame, "per_arm")


def test_misclassification_by_arm_degenerate_validation(d6_frame):
    # D6's only validated control row is a gold negative
    with pytest.raises(DegenerateValidation, match="control"):
        stack_rates(d6_frame, "by_arm")
    no_treated = ObservationFrame(
        x=np.zeros(4), t=np.array([0, 0, 1, 1]), y_star=np.array([1, 0, 1, 0]),
        v=np.array([1, 1, 0, 0]), y=np.array([1.0, 0.0, np.nan, np.nan]),
    )
    with pytest.raises(DegenerateValidation, match="treated"):
        stack_rates(no_treated, "by_arm")
    # pooled counting is still fine on both frames
    stack_rates(no_treated)


@pytest.mark.parametrize("pairs, error, match", [
    ((), ValueError, "got 0"),
    (((0.9, 0.1),) * 3, ValueError, "got 3"),
    (((1.2, 0.1),), ValueError, "pooled p11"),
    (((0.9, 0.1), (0.8, -0.1)), ValueError, "treated p10"),
    (((0.9, 0.1), (0.8, float("nan"))), ValueError, "treated p10"),
    (((0.5, 0.5),), NonIdentifiable, "pooled"),
    (((0.4, 0.4), (0.9, 0.1)), NonIdentifiable, "control"),
    (((0.9, 0.1), (0.3, 0.3 + 1e-7)), NonIdentifiable, "treated"),
])
def test_misclass_rates_checks_its_pairs(pairs, error, match):
    with pytest.raises(error, match=match):
        MisclassRates(pairs)


def test_misclass_rates_hold_python_floats():
    rates = MisclassRates([np.array([1, 0]), (np.float64(0.75), 0.25)])
    assert rates.pairs == ((1.0, 0.0), (0.75, 0.25))
    assert all(type(rate) is float for pair in rates.pairs for rate in pair)


def test_misclassification_by_arm_nonidentifiable():
    # treated validated rows: Y* = 1 whatever Y is, so p11_1 = p10_1 = 1
    frame = ObservationFrame(
        x=np.zeros(4), t=np.array([0, 0, 1, 1]), y_star=np.array([1, 0, 1, 1]),
        v=np.ones(4), y=np.array([1.0, 0.0, 1.0, 0.0]),
    )
    with pytest.raises(NonIdentifiable, match="treated"):
        stack_rates(frame, "by_arm")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=6, max_value=14))
def test_by_arm_brute_force_equivalence_small_frames(seed, n):
    rng = np.random.default_rng(seed)
    frame, e, pi, _ = make_random_frame(rng, n)
    t, y, ys, v = frame.t, frame.y, frame.y_star, frame.v
    pairs = ((rng.uniform(0.6, 0.95), rng.uniform(0.05, 0.4)),
             (rng.uniform(0.6, 0.95), rng.uniform(0.05, 0.4)))
    got = plug_in_contrasts(frame, e, pi, MisclassRates(pairs))
    want = {
        "nonval_corrected": oracles.nonval_corrected_by_arm_tau(t, ys, v, e, pairs),
        "s_nonval": oracles.s_nonval_by_arm_tau(t, ys, v, e, pi, pairs),
        "all_silver": oracles.all_silver_by_arm_tau(t, ys, e, pairs),
    }
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key

    # counting within each arm (control first) agrees with the oracle; an arm
    # without both gold classes raises first, then a pair too close to identify
    try:
        want = [oracles.misclass_rates(y[t == arm], ys[t == arm], v[t == arm])
                for arm in (0.0, 1.0)]
    except ZeroDivisionError:
        error = DegenerateValidation
    else:
        error = NonIdentifiable if any(abs(p11 - p10) < 1e-6 for p11, p10 in want) else None
    if error is not None:
        with pytest.raises(error):
            stack_rates(frame, "by_arm")
    else:
        got = stack_rates(frame, "by_arm")
        np.testing.assert_allclose(np.ravel(got.pairs), np.ravel(want), rtol=0, atol=1e-15)


def test_namespace_has_no_point_functions():
    names = mismeasure_ate.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mismeasure_ate, name) is not None, name
    for module in (mismeasure_ate, est, frames):
        assert not [name for name in vars(module) if name.startswith("tau_")], module.__name__
        assert not hasattr(module, "PropensityPair"), module.__name__
