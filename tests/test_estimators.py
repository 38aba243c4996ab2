import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import D6, make_random_frame
from mismeasure_ate import estimators as est
from mismeasure_ate.errors import (
    DegenerateValidation,
    DegenerateVarianceWarning,
    EmptyValidationArm,
    MissingGoldOutcomes,
    NonIdentifiable,
    WeightOutOfRange,
)
from mismeasure_ate.frames import ArmRates, MisclassRates, ObservationFrame, PropensityPair

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


def test_d6_matches_frozen_oracle_values(d6_frame, d6_props, d6_rates):
    got = {
        "oracle": est.tau_oracle(d6_frame, d6_props).tau,
        "naive": est.tau_naive(d6_frame, d6_props).tau,
        "val_only": est.tau_val_only(d6_frame, d6_props).tau,
        "nonval_corrected": est.tau_nonval_corrected(d6_frame, d6_props, d6_rates).tau,
        "sy_combined": est.tau_sy_combined(d6_frame, d6_props, d6_rates, w=0.5).tau,
        "s_val_only": est.tau_s_val_only(d6_frame, d6_props).tau,
        "s_nonval_raw": est.tau_s_nonval(d6_frame, d6_props, corrected=False).tau,
        "s_nonval": est.tau_s_nonval(d6_frame, d6_props, d6_rates).tau,
        "s_combined": est.tau_s_combined(d6_frame, d6_props, d6_rates).tau,
        "all_silver": est.tau_all_silver(d6_frame, d6_props, d6_rates).tau,
        "s_weighted": est.tau_s_weighted(d6_frame, d6_props, d6_rates, b=0.5).tau,
        "s_opt": est.tau_s_opt(d6_frame, d6_props, d6_rates, 2.0, 1.0, 0.3).tau,
    }
    for key, expected in D6_EXPECTED.items():
        assert got[key] == pytest.approx(expected, abs=1e-12), key


def test_d6_misclassification_rates(d6_frame):
    rates = est.estimate_misclassification(d6_frame)
    assert rates.p11 == pytest.approx(1.0, abs=1e-15)
    assert rates.p10 == pytest.approx(0.5, abs=1e-15)


def test_misclassification_counting_examples():
    frame = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.array([1, 1, 1, 0]),
        v=np.ones(4), y=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    rates = est.estimate_misclassification(frame)
    assert rates.p11 == 1.0 and rates.p10 == 0.5

    perfect = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    rates = est.estimate_misclassification(perfect)
    assert (rates.p11, rates.p10) == (1.0, 0.0)

    tied = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.array([1, 0, 1, 0]),
        v=np.ones(4), y=np.array([1.0, 1.0, 0.0, 0.0]),
    )
    with pytest.raises(NonIdentifiable):
        est.estimate_misclassification(tied)


def test_misclassification_degenerate_validation():
    all_pos = ObservationFrame(
        x=np.zeros(3), t=np.array([1, 0, 1]), y_star=np.array([1, 1, 0]),
        v=np.ones(3), y=np.ones(3),
    )
    with pytest.raises(DegenerateValidation):
        est.estimate_misclassification(all_pos)
    no_val = ObservationFrame(
        x=np.zeros(3), t=np.array([1, 0, 1]), y_star=np.array([1, 1, 0]),
        v=np.zeros(3), y=np.full(3, np.nan),
    )
    with pytest.raises(DegenerateValidation):
        est.estimate_misclassification(no_val)


def test_oracle_hand_arithmetic():
    frame = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    props = PropensityPair(e=np.array([0.5, 0.5]))
    assert est.tau_oracle(frame, props).tau == pytest.approx(1.0)
    zero = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.zeros(2),
    )
    assert est.tau_oracle(zero, props).tau == 0.0


def test_oracle_requires_full_gold(d6_frame, d6_props):
    masked = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star, v=d6_frame.v,
        y=np.where(d6_frame.v == 1, d6_frame.y, np.nan),
    )
    with pytest.raises(MissingGoldOutcomes):
        est.tau_oracle(masked, d6_props)


def test_naive_equals_oracle_when_outcomes_agree(d6_frame, d6_props):
    same = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y, v=d6_frame.v, y=d6_frame.y
    )
    assert est.tau_naive(same, d6_props).tau == est.tau_oracle(same, d6_props).tau
    flip = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([0, 1]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    props = PropensityPair(e=np.array([0.5, 0.5]))
    assert est.tau_naive(flip, props).tau == pytest.approx(-1.0)


def test_val_only_reductions(d6_frame, d6_props):
    all_val = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star,
        v=np.ones(6), y=d6_frame.y,
    )
    assert est.tau_val_only(all_val, d6_props).tau == pytest.approx(
        est.tau_oracle(all_val, d6_props).tau, abs=1e-15
    )
    pair = ObservationFrame(
        x=np.zeros(2), t=np.array([1, 0]), y_star=np.array([1, 0]),
        v=np.ones(2), y=np.array([1.0, 0.0]),
    )
    assert est.tau_val_only(pair, PropensityPair(e=np.array([0.5, 0.5]))).tau == pytest.approx(1.0)


def test_val_only_requires_both_arms():
    # so does s_val_only: under a simple random sample it is the same contrast
    props = PropensityPair(e=np.full(3, 0.5), pi_v=np.full(3, 0.5))
    for v in (np.array([1, 1, 0]), np.zeros(3)):
        frame = ObservationFrame(
            x=np.zeros(3), t=np.array([1, 1, 0]), y_star=np.array([1, 0, 0]),
            v=v, y=np.where(v == 1, [1.0, 0.0, 0.0], np.nan),
        )
        for point in (est.tau_val_only, est.tau_s_val_only):
            with pytest.raises(EmptyValidationArm):
                point(frame, props)


def test_frame_counts_are_computed_once(d6_frame):
    assert d6_frame.n_v == 3 and d6_frame.y_validated is d6_frame.y_validated
    np.testing.assert_array_equal(d6_frame.y_validated, [1, 0, 0, 0, 0, 0])


def test_nonval_correction_factor(d6_frame, d6_props):
    uncorrected = est.tau_nonval_corrected(
        d6_frame, d6_props, MisclassRates(1.0, 0.0)
    ).tau
    doubled = est.tau_nonval_corrected(
        d6_frame, d6_props, MisclassRates(0.75, 0.25)
    ).tau
    assert doubled == pytest.approx(2.0 * uncorrected, rel=1e-14)


def test_sy_combined_endpoints(d6_frame, d6_props, d6_rates):
    at_one = est.tau_sy_combined(d6_frame, d6_props, d6_rates, w=1.0).tau
    assert at_one == pytest.approx(est.tau_val_only(d6_frame, d6_props).tau, abs=1e-15)
    at_zero = est.tau_sy_combined(d6_frame, d6_props, d6_rates, w=0.0).tau
    assert at_zero == pytest.approx(
        est.tau_nonval_corrected(d6_frame, d6_props, d6_rates).tau, abs=1e-15
    )
    with pytest.raises(WeightOutOfRange):
        est.tau_sy_combined(d6_frame, d6_props, d6_rates, w=1.5)


def test_sy_combined_lambda_is_sampling_fraction():
    # w = 0.5 collapses the blend weight to n_V / n
    n, n_v = 5000, 850
    lam = 0.5 * n_v / (0.5 * n_v + 0.5 * (n - n_v))
    assert lam == pytest.approx(0.17)


def test_srs_reduction_identity(d6_frame, d6_props):
    n_v = d6_frame.n_v
    const = PropensityPair(e=d6_props.e, pi_v=np.full(6, n_v / 6.0))
    assert est.tau_s_val_only(d6_frame, const).tau == pytest.approx(
        est.tau_val_only(d6_frame, d6_props).tau, abs=1e-12
    )


def test_s_val_only_oracle_reduction(d6_frame, d6_props):
    all_val = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star,
        v=np.ones(6), y=d6_frame.y,
    )
    props = PropensityPair(e=d6_props.e, pi_v=np.full(6, 1.0 - 1e-12))
    assert est.tau_s_val_only(all_val, props).tau == pytest.approx(
        est.tau_oracle(all_val, d6_props).tau, rel=1e-9
    )


def test_s_nonval_trivial_cases():
    frame = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.array([1, 1, 1, 0]),
        v=np.array([1, 1, 0, 0]), y=np.array([1.0, 0.0, np.nan, np.nan]),
    )
    props = PropensityPair(e=np.full(4, 0.5), pi_v=np.full(4, 0.5))
    assert est.tau_s_nonval(frame, props, corrected=False).tau == pytest.approx(1.0)

    const = ObservationFrame(
        x=np.zeros(4), t=np.array([1, 0, 1, 0]), y_star=np.ones(4),
        v=np.array([1, 1, 0, 0]), y=np.array([1.0, 0.0, np.nan, np.nan]),
    )
    assert est.tau_s_nonval(const, props, corrected=False).tau == pytest.approx(0.0, abs=1e-15)


def test_s_combined_endpoints(d6_frame, d6_props, d6_rates):
    all_val = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star, v=np.ones(6), y=d6_frame.y
    )
    assert est.tau_s_combined(all_val, d6_props, d6_rates).tau == pytest.approx(
        est.tau_s_val_only(all_val, d6_props).tau, abs=1e-15
    )
    no_val = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y_star,
        v=np.zeros(6), y=np.full(6, np.nan),
    )
    assert est.tau_s_combined(no_val, d6_props, d6_rates).tau == pytest.approx(
        est.tau_s_nonval(no_val, d6_props, d6_rates).tau, abs=1e-15
    )


def test_all_silver_reductions(d6_frame, d6_props):
    clean = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=d6_frame.y, v=d6_frame.v, y=d6_frame.y
    )
    perfect = MisclassRates(1.0, 0.0)
    w_t = clean.t / d6_props.e
    w_c = (1.0 - clean.t) / (1.0 - d6_props.e)
    assert est.tau_all_silver(clean, d6_props, perfect).tau == pytest.approx(
        oracles.hajek_contrast(w_t, w_c, clean.y), abs=1e-15
    )
    const = ObservationFrame(
        x=d6_frame.x, t=d6_frame.t, y_star=np.ones(6), v=d6_frame.v, y=d6_frame.y
    )
    assert est.tau_all_silver(const, d6_props, MisclassRates(0.67, 0.24)).tau == pytest.approx(
        0.0, abs=1e-13
    )


def test_s_weighted_endpoints(d6_frame, d6_props, d6_rates):
    assert est.tau_s_weighted(d6_frame, d6_props, d6_rates, b=1.0).tau == pytest.approx(
        est.tau_s_val_only(d6_frame, d6_props).tau, abs=1e-15
    )
    assert est.tau_s_weighted(d6_frame, d6_props, d6_rates, b=0.0).tau == pytest.approx(
        est.tau_all_silver(d6_frame, d6_props, d6_rates).tau, abs=1e-15
    )


def test_compute_b_opt_plugins():
    assert est.compute_b_opt(1.0, 1.0, 0.0) == pytest.approx(0.5)
    assert est.compute_b_opt(3.0, 1.0, 0.0) == pytest.approx(0.25)
    assert est.compute_b_opt(1.0, 4.0, 1.0) == pytest.approx(1.0)


def test_compute_b_opt_degenerate_falls_back():
    with pytest.warns(DegenerateVarianceWarning):
        assert est.compute_b_opt(1.0, 1.0, 1.0) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=12))
def test_brute_force_equivalence_small_frames(seed, n):
    rng = np.random.default_rng(seed)
    frame, props, rates = make_random_frame(rng, n)
    t, y, ys, v = frame.t, frame.y, frame.y_star, frame.v
    e, pi = props.e, props.pi_v
    p11, p10 = rates.p11, rates.p10
    checks = [
        (est.tau_oracle(frame, props).tau, oracles.oracle_tau(t, y, e)),
        (est.tau_naive(frame, props).tau, oracles.naive_tau(t, ys, e)),
        (est.tau_val_only(frame, props).tau, oracles.val_only_tau(t, y, v, e)),
        (est.tau_nonval_corrected(frame, props, rates).tau,
         oracles.nonval_corrected_tau(t, ys, v, e, p11, p10)),
        (est.tau_sy_combined(frame, props, rates, w=0.5).tau,
         oracles.sy_combined_tau(t, y, ys, v, e, p11, p10, w=0.5)),
        (est.tau_s_val_only(frame, props).tau, oracles.s_val_only_tau(t, y, v, e, pi)),
        (est.tau_s_nonval(frame, props, rates).tau,
         oracles.s_nonval_corrected_tau(t, ys, v, e, pi, p11, p10)),
        (est.tau_s_combined(frame, props, rates).tau,
         oracles.s_combined_tau(t, y, ys, v, e, pi, p11, p10)),
        (est.tau_all_silver(frame, props, rates).tau,
         oracles.all_silver_tau(t, ys, e, p11, p10)),
        (est.tau_s_weighted(frame, props, rates, b=0.5).tau,
         oracles.s_weighted_tau(t, y, ys, v, e, pi, p11, p10, b=0.5)),
        (est.tau_s_opt(frame, props, rates, 2.0, 1.0, 0.3).tau,
         oracles.s_opt_tau(t, y, ys, v, e, pi, p11, p10, 2.0, 1.0, 0.3)),
    ]
    for got, want in checks:
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    frame, props, rates = make_random_frame(rng, 10)
    perm = rng.permutation(10)
    shuffled = ObservationFrame(
        x=frame.x[perm], t=frame.t[perm], y_star=frame.y_star[perm],
        v=frame.v[perm], y=frame.y[perm],
    )
    shuffled_props = PropensityPair(e=props.e[perm], pi_v=props.pi_v[perm])
    pairs = [
        (est.tau_oracle, (props,), (shuffled_props,)),
        (est.tau_val_only, (props,), (shuffled_props,)),
        (est.tau_s_val_only, (props,), (shuffled_props,)),
        (est.tau_s_combined, (props, rates), (shuffled_props, rates)),
        (est.tau_all_silver, (props, rates), (shuffled_props, rates)),
        (est.tau_s_weighted, (props, rates), (shuffled_props, rates)),
    ]
    for fn, args, shuffled_args in pairs:
        assert fn(frame, *args).tau == pytest.approx(fn(shuffled, *shuffled_args).tau, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
def test_s_weighted_convexity(seed, b):
    rng = np.random.default_rng(seed)
    frame, props, rates = make_random_frame(rng, 10)
    lo_hi = sorted([
        est.tau_s_val_only(frame, props).tau,
        est.tau_all_silver(frame, props, rates).tau,
    ])
    blended = est.tau_s_weighted(frame, props, rates, b=b).tau
    assert lo_hi[0] - 1e-12 <= blended <= lo_hi[1] + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_hajek_rescaling_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(0.1, 5.0, size=8) * np.array([1, 1, 1, 1, 0, 0, 0, 0])
    w0 = rng.uniform(0.1, 5.0, size=8) * np.array([0, 0, 0, 0, 1, 1, 1, 1])
    y = rng.integers(0, 2, size=8).astype(float)
    base = est.hajek_means(w1, w0, y)
    scaled = est.hajek_means(scale * w1, scale * w0, y)
    assert scaled == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rates_identity_reductions(seed):
    rng = np.random.default_rng(seed)
    frame, props, _ = make_random_frame(rng, 10)
    clean = ObservationFrame(
        x=frame.x, t=frame.t, y_star=frame.y, v=frame.v, y=frame.y
    )
    perfect = MisclassRates(1.0, 0.0)
    w_t = clean.t / props.e
    w_c = (1.0 - clean.t) / (1.0 - props.e)
    assert est.tau_all_silver(clean, props, perfect).tau == pytest.approx(
        oracles.hajek_contrast(w_t, w_c, clean.y), abs=1e-12
    )
    nv = 1.0 - clean.v
    m = clean.n - clean.n_v
    plain = est.ipw_difference(nv * clean.t, nv * (1.0 - clean.t), clean.y, props.e, float(m))
    assert est.tau_nonval_corrected(clean, props, perfect).tau == pytest.approx(plain, abs=1e-12)


# --- per-arm misclassification rates -------------------------------------------

D6_ARM_RATES = ((0.7, 0.2), (0.6, 0.3))  # (p11, p10) of the control, then the treated arm


def arm_rates(pairs) -> ArmRates:
    (c11, c10), (t11, t10) = pairs
    return ArmRates(control=MisclassRates(c11, c10), treated=MisclassRates(t11, t10))


def test_d6_by_arm_matches_direct_summation(d6_frame, d6_props):
    rates = arm_rates(D6_ARM_RATES)
    t, y, ys, v, e, pi = (D6[k] for k in ("t", "y", "y_star", "v", "e", "pi"))
    pairs = {
        "nonval_corrected": (est.tau_nonval_corrected(d6_frame, d6_props, rates).tau,
                             oracles.nonval_corrected_by_arm_tau(t, ys, v, e, D6_ARM_RATES)),
        "s_nonval": (est.tau_s_nonval(d6_frame, d6_props, rates).tau,
                     oracles.s_nonval_by_arm_tau(t, ys, v, e, pi, D6_ARM_RATES)),
        "all_silver": (est.tau_all_silver(d6_frame, d6_props, rates).tau,
                       oracles.all_silver_by_arm_tau(t, ys, e, D6_ARM_RATES)),
        "s_weighted": (est.tau_s_weighted(d6_frame, d6_props, rates, b=0.5).tau,
                       oracles.s_weighted_by_arm_tau(t, y, ys, v, e, pi, D6_ARM_RATES, b=0.5)),
    }
    for key, (got, want) in pairs.items():
        assert got == pytest.approx(want, abs=1e-12), key
        # differential rates really change the correction
        assert abs(got - D6_EXPECTED[key]) > 1e-3, key


def test_by_arm_with_pooled_rates_reduces_to_pooled(d6_frame, d6_props, d6_rates):
    same = ArmRates(control=d6_rates, treated=d6_rates)
    for fn in (est.tau_nonval_corrected, est.tau_sy_combined, est.tau_s_nonval,
               est.tau_s_combined, est.tau_all_silver, est.tau_s_weighted):
        assert fn(d6_frame, d6_props, same).tau == pytest.approx(
            fn(d6_frame, d6_props, d6_rates).tau, abs=1e-12), fn.__name__
    assert est.tau_s_opt(d6_frame, d6_props, same, 2.0, 1.0, 0.3).tau == pytest.approx(
        D6_EXPECTED["s_opt"], abs=1e-12)
    assert est.corrected_contrast(same, 0.5, 0.3) == pytest.approx(0.2 / d6_rates.gap, abs=1e-15)


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
    rates = est.estimate_misclassification(frame, "by_arm")
    assert isinstance(rates, ArmRates)
    assert (rates.control.p11, rates.control.p10) == (1.0, 0.5)
    assert (rates.treated.p11, rates.treated.p10) == (1.0, 0.0)
    pooled = est.estimate_misclassification(frame)
    assert (pooled.p11, pooled.p10) == (1.0, 0.25)
    np.testing.assert_array_equal(rates.to_vector(), [1.0, 0.5, 1.0, 0.0])
    with pytest.raises(ValueError):
        est.estimate_misclassification(frame, "per_arm")


def test_misclassification_by_arm_degenerate_validation(d6_frame):
    # D6's only validated control row is a gold negative
    with pytest.raises(DegenerateValidation, match="control"):
        est.estimate_misclassification(d6_frame, "by_arm")
    no_treated = ObservationFrame(
        x=np.zeros(4), t=np.array([0, 0, 1, 1]), y_star=np.array([1, 0, 1, 0]),
        v=np.array([1, 1, 0, 0]), y=np.array([1.0, 0.0, np.nan, np.nan]),
    )
    with pytest.raises(DegenerateValidation, match="treated"):
        est.estimate_misclassification(no_treated, "by_arm")
    # pooled counting is still fine on both frames
    est.estimate_misclassification(no_treated)


def test_misclassification_by_arm_nonidentifiable():
    # treated validated rows: Y* = 1 whatever Y is, so p11_1 = p10_1 = 1
    frame = ObservationFrame(
        x=np.zeros(4), t=np.array([0, 0, 1, 1]), y_star=np.array([1, 0, 1, 1]),
        v=np.ones(4), y=np.array([1.0, 0.0, 1.0, 0.0]),
    )
    with pytest.raises(NonIdentifiable, match="treated"):
        est.estimate_misclassification(frame, "by_arm")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=6, max_value=14))
def test_by_arm_brute_force_equivalence_small_frames(seed, n):
    rng = np.random.default_rng(seed)
    frame, props, _ = make_random_frame(rng, n)
    t, y, ys, v = frame.t, frame.y, frame.y_star, frame.v
    e, pi = props.e, props.pi_v
    pairs = ((rng.uniform(0.6, 0.95), rng.uniform(0.05, 0.4)),
             (rng.uniform(0.6, 0.95), rng.uniform(0.05, 0.4)))
    rates = arm_rates(pairs)
    checks = [
        (est.tau_nonval_corrected(frame, props, rates).tau,
         oracles.nonval_corrected_by_arm_tau(t, ys, v, e, pairs)),
        (est.tau_s_nonval(frame, props, rates).tau,
         oracles.s_nonval_by_arm_tau(t, ys, v, e, pi, pairs)),
        (est.tau_all_silver(frame, props, rates).tau,
         oracles.all_silver_by_arm_tau(t, ys, e, pairs)),
        (est.tau_s_weighted(frame, props, rates, b=0.5).tau,
         oracles.s_weighted_by_arm_tau(t, y, ys, v, e, pi, pairs, b=0.5)),
    ]
    for got, want in checks:
        assert got == pytest.approx(want, abs=1e-12)

    # counting within each arm (control first) agrees with the oracle, and the
    # first arm that cannot identify its rates names the typed error
    want, error = [], None
    for arm in (0.0, 1.0):
        rows = t == arm
        try:
            p11, p10 = oracles.misclass_rates(y[rows], ys[rows], v[rows])
        except ZeroDivisionError:
            error = DegenerateValidation
            break
        if abs(p11 - p10) < 1e-6:
            error = NonIdentifiable
            break
        want += [p11, p10]
    if error is not None:
        with pytest.raises(error):
            est.estimate_misclassification(frame, "by_arm")
    else:
        got = est.estimate_misclassification(frame, "by_arm")
        np.testing.assert_allclose(got.to_vector(), want, rtol=0, atol=1e-15)
