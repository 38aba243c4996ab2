import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_log_likelihoods
from mismeasure_ate.errors import (
    DimensionMismatch,
    NonFiniteEvaluation,
    SeparationSuspected,
    SingularSystem,
)
from mismeasure_ate import simulation as sim
from mismeasure_ate.numerics import (
    GRAM_BLOCK_ROWS,
    SAFE_STEP_MOVE,
    _log_likelihood,
    clamp_probability,
    expit,
    fit_logistic,
    spd_condition,
    weighted_gram,
    with_intercept,
)


def test_expit_examples():
    assert expit(0.0) == 0.5
    assert expit(-2.0) == pytest.approx(0.11920292202211755, abs=1e-15)
    assert expit(40.0) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=200)
@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_expit_symmetry(u):
    assert expit(u) + expit(-u) == pytest.approx(1.0, abs=1e-15)


EXPIT_EDGES = [np.inf, -np.inf, 0.0, -0.0, np.nan, 745.2, -745.2, 800.0, -800.0,
               1e-300, -1e-300]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def test_expit_is_bitwise_the_two_branch_form_at_the_edges():
    for u in EXPIT_EDGES:
        value = expit(u)
        assert type(value) is float
        assert _bits(value) == _bits(oracles.expit_two_branch(u)), u
    edges = np.array(EXPIT_EDGES)
    assert _bits(expit(edges)) == _bits(oracles.expit_two_branch(edges))


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=-750, max_value=750), min_size=1, max_size=40))
def test_expit_is_bitwise_the_two_branch_form(values):
    u = np.array(values)
    assert _bits(expit(u)) == _bits(oracles.expit_two_branch(u))
    assert _bits(expit(values[0])) == _bits(oracles.expit_two_branch(values[0]))


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40))
def test_softplus_matches_logaddexp_row_by_row(values):
    # with y = 0 the log-likelihood of one row is -softplus(u)
    with np.errstate(over="raise", invalid="raise"):
        for value in values:
            u = np.array([value])
            ours = _log_likelihood(u, np.zeros(1))
            reference = oracles.logaddexp_loglik(u, np.zeros(1))
            assert ours == pytest.approx(reference, rel=1e-13, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([40.0, 1e3]))
def test_log_likelihood_matches_logaddexp_form(seed, bound):
    # relative to the sum: a single term y u - softplus(u) with y = 1 cancels
    # (about 2e-13 relative near u = 5 in either form), a sum of many does not
    rng = np.random.default_rng(seed)
    u = rng.uniform(-bound, bound, size=200)
    y = rng.integers(0, 2, size=200).astype(float)
    with np.errstate(over="raise", invalid="raise"):
        ours = _log_likelihood(u, y)
        reference = oracles.logaddexp_loglik(u, y)
    assert ours == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_design_matrix_invariants():
    design = with_intercept(np.arange(6.0))
    assert design.shape == (6, 2) and design.flags.f_contiguous
    np.testing.assert_array_equal(design[:, 0], 1.0)
    t, x = np.arange(6.0) % 2, np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(with_intercept(t, x), np.column_stack([np.ones(6), t, x]))
    # the fit checks every design it is given
    for bad, error in ((np.ones(6), DimensionMismatch), (np.ones((2, 3)), DimensionMismatch),
                       (np.array([[1.0, 0.0], [1.0, np.inf], [1.0, 1.0]]), NonFiniteEvaluation)):
        with pytest.raises(error):
            fit_logistic(bad, np.zeros(len(bad)))


def test_intercept_only_closed_form():
    x = np.ones((8, 1))
    y = np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float)
    fit = fit_logistic(x, y)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(math.log(0.25 / 0.75), abs=1e-9)

    balanced = fit_logistic(np.ones((2, 1)), np.array([0.0, 1.0]))
    assert balanced.coefficients[0] == pytest.approx(0.0, abs=1e-9)


def test_fit_matches_independent_newton_solver():
    rng = np.random.default_rng(7)
    x = with_intercept(rng.normal(size=(200, 5)))
    beta = np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3])
    y = (rng.random(200) < expit(x @ beta)).astype(float)
    fit = fit_logistic(x, y)
    reference = oracles.newton_logistic(x, y)
    np.testing.assert_allclose(fit.coefficients, reference, atol=1e-8)


def test_multi_block_fit_matches_independent_newton_solver():
    # two full Gram blocks and a one-row tail in every Newton information
    n = 2 * GRAM_BLOCK_ROWS + 1
    rng = np.random.default_rng(17)
    x = with_intercept(rng.normal(size=(n, 5)))
    y = (rng.random(n) < expit(x @ np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3]))).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    reference = oracles.newton_logistic(x, y)
    np.testing.assert_allclose(fit.coefficients, reference, rtol=0.0, atol=1e-8)


def test_uphill_steps_need_no_log_likelihood(monkeypatch):
    # every candidate of this fit is accepted by its slope or its score
    calls = count_log_likelihoods(monkeypatch)
    rng = np.random.default_rng(7)
    x = with_intercept(rng.normal(size=(200, 5)))
    y = (rng.random(200) < expit(x @ np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3]))).astype(float)
    assert fit_logistic(x, y).converged
    assert not calls


def test_downhill_slope_falls_back_to_the_log_likelihood(monkeypatch):
    # a steep, nearly separated 40-row design: some full Newton step ends
    # where the log-likelihood falls again along the step, so the
    # log-likelihoods decide, and the fit still reaches the MLE
    calls = count_log_likelihoods(monkeypatch)
    rng = np.random.default_rng(852)
    x = with_intercept(rng.normal(size=(40, 3)))
    y = (rng.random(40) < expit(x @ rng.normal(scale=8.0, size=4))).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged and calls
    reference = oracles.newton_logistic(x, y)
    np.testing.assert_allclose(fit.coefficients, reference, rtol=0.0, atol=1e-8)


@functools.cache
def _generating_start_fits() -> dict:
    """(design, response, generating coefficients) of the study's fits: the
    treatment and selection models of one 5,000-row main_nonprob frame, the
    same two models without x2 (misspecified_selection's analyst designs),
    and one 50,000-row truth-oracle population."""
    config = sim.scenario_catalog()["main_nonprob"]
    config = replace(config, selection=sim.resolve_selection(config)[0])
    rng = sim._rng(sim.child_seed(config.base_seed, 0))
    frame = sim.select_validation(sim.generate_population(config.dgp, rng), config.selection, rng)
    cases = {}
    for label, study in (("", config),
                         ("misspecified_", replace(config, selection=replace(
                             config.selection, misspecify_drop=2)))):
        x_treat, x_sel = study.model_spec.designs(frame)
        starts = sim.generating_starts(study)
        cases[label + "treatment"] = x_treat, frame.t, starts["gamma"]
        cases[label + "selection"] = x_sel, frame.v, starts["eta"]
    dgp = replace(config.dgp, n=50_000)
    x, t, _ = sim.draw_gold_data(dgp, sim._rng(sim.child_seed(config.base_seed, 1)))
    cases["population"] = with_intercept(x), t, np.asarray(dgp.treatment_coefs)
    return cases


@pytest.mark.parametrize("case", ["treatment", "selection", "misspecified_treatment",
                                  "misspecified_selection", "population"])
def test_generating_start_reaches_the_zero_start_maximum(case):
    # a start moves the iterate path, not the maximum: within 1e-10 of the
    # zero-start fit and of the independent solver, in fewer Newton steps
    x, y, start = _generating_start_fits()[case]
    assert start.shape == (x.shape[1],)
    started, zero = fit_logistic(x, y, start=start), fit_logistic(x, y)
    assert started.converged and zero.converged
    assert started.iterations < zero.iterations
    reference = oracles.newton_logistic(x, y)
    for other in (zero.coefficients, reference):
        np.testing.assert_allclose(started.coefficients, other, rtol=0.0, atol=1e-10)
    assert np.array_equal(started.probabilities, expit(x @ started.coefficients))


def test_zero_start_is_the_default_bit_for_bit():
    x, y, _ = _generating_start_fits()["treatment"]
    default, zero = fit_logistic(x, y), fit_logistic(x, y, start=np.zeros(x.shape[1]))
    assert _bits(default.coefficients) == _bits(zero.coefficients)
    assert default.iterations == zero.iterations


def test_start_is_checked():
    x, y, start = _generating_start_fits()["treatment"]
    for bad in (start[:-1], np.append(start, 0.0), start[:, None], 0.0):
        with pytest.raises(DimensionMismatch):
            fit_logistic(x, y, start=bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = start.copy()
        bad[2] = value
        with pytest.raises(NonFiniteEvaluation):
            fit_logistic(x, y, start=bad)


def test_safe_step_move_is_below_the_root():
    # the move test's constant lies below the root of e^M = 1 + M + M^2,
    # where the guaranteed share 1 - (e^M - 1 - M) / M^2 of the gain is 0
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.exp(mid) < 1.0 + mid + mid * mid else (lo, mid)
    assert 1.7932 < lo < 1.7934
    assert 0.0 < SAFE_STEP_MOVE < lo
    share = 1.0 - (math.exp(SAFE_STEP_MOVE) - 1.0 - SAFE_STEP_MOVE) / SAFE_STEP_MOVE ** 2
    assert share > 0.1


def test_full_steps_the_move_test_accepts_raise_the_log_likelihood():
    # random logistic problems and starts, seeded: every full Newton step
    # that moves no linear predictor by more than SAFE_STEP_MOVE raises the
    # log-likelihood, by at least the self-concordance bound; the problems
    # include steps the slope test rejects (the slope has turned negative at
    # the candidate), which only the move test accepts without a log-likelihood
    accepted = overshoots = 0
    for seed in range(600):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(20, 400)), int(rng.integers(2, 7))
        x = with_intercept(rng.normal(size=(n, k - 1)))
        beta = rng.normal(scale=1.0, size=k)
        y = (rng.random(n) < expit(x @ beta)).astype(float)
        if y.min() == y.max():
            continue
        start = beta + rng.normal(scale=rng.uniform(0.0, 1.0), size=k)
        u = x @ start
        for _ in range(3):  # the first steps of a fit from this start
            p = expit(u)
            score = x.T @ (y - p)
            step = np.linalg.solve(weighted_gram(x, p * (1.0 - p)), score)
            u_new = x @ (start + step)
            move = float(np.max(np.abs(u_new - u)))
            if move > SAFE_STEP_MOVE:
                break
            gain = _log_likelihood(u_new, y) - _log_likelihood(u, y)
            bound = (step @ score) * (1.0 - (math.exp(move) - 1.0 - move) / move ** 2)
            rounding = 1e-13 * n * (1.0 + float(np.max(np.abs(u_new))))
            assert gain >= bound - rounding, (seed, gain, bound)
            assert gain > 0.0 or bound <= rounding, (seed, gain, bound)
            accepted += 1
            overshoots += step @ (x.T @ (y - expit(u_new))) < 0.0
            start, u = start + step, u_new
    assert accepted > 400 and overshoots > 50


def test_complete_separation_raises():
    # y = 1 exactly where x > 0: the likelihood rises without bound along the
    # slope, and the score test is met at a finite iterate that separates
    x = with_intercept(np.linspace(-3.0, 3.0, 40))
    y = (x[:, 1] > 0).astype(float)
    with pytest.raises(SeparationSuspected) as raised:
        fit_logistic(x, y)
    assert not raised.value.fit.converged
    assert np.all((2.0 * y - 1.0) * (x @ raised.value.fit.coefficients) > 0.0)


def _quasi_separated():
    # a steep design (slope x8) whose labels are the sign of z, with one
    # label flipped on each side of zero so the MLE stays finite
    z = np.linspace(-3.0, 3.0, 60)
    y = (z > 0).astype(float)
    y[[27, 32]] = 1.0 - y[[27, 32]]
    return with_intercept(8.0 * z), y


def _rare_event():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3000, 2))
    y = (rng.random(3000) < expit(-6.5 + x @ np.array([0.8, -0.5]))).astype(float)
    assert y.sum() == 6.0  # 0.2% positives
    return with_intercept(x), y


def _steep():
    rng = np.random.default_rng(4)
    x = with_intercept(rng.normal(size=(400, 2)))
    y = (rng.random(400) < expit(x @ np.array([0.5, 4.0, -3.0]))).astype(float)
    return x, y


@pytest.mark.parametrize("design", [_quasi_separated, _rare_event, _steep],
                         ids=["quasi_separated", "rare_event", "steep"])
def test_hard_fits_converge_to_the_independent_solver(design):
    # step-halving counts are not pinned: where a full step is rejected, the
    # two log-likelihoods compared differ only in their last bits
    x, y = design()
    fit = fit_logistic(x, y)
    assert fit.converged
    reference = oracles.newton_logistic(x, y)
    np.testing.assert_allclose(fit.coefficients, reference, rtol=0.0, atol=1e-8)


def test_fit_working_memory_holds_no_full_size_weighted_copy():
    # the kernel keeps n-vectors (u, p and the score's residual, and the
    # candidate's) and one Gram block's weighted copy, never a full-size
    # weighted copy or a copy of the design in another layout: the peak is
    # 0.88 design sizes, 1.50 with a full-size weighted copy
    rng = np.random.default_rng(5)
    x = with_intercept(rng.normal(size=(50_000, 5)))
    y = (rng.random(50_000) < expit(x @ np.linspace(-1.0, 1.0, 6))).astype(float)
    tracemalloc.start()
    try:
        fit_logistic(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * x.nbytes


def test_zero_score_at_the_start_takes_no_step():
    # balanced y on a +-1 design: the score X'(y - 1/2) is exactly zero at
    # beta = 0, whose probabilities are exactly 1/2
    x = with_intercept(np.array([1.0, -1.0, 1.0, -1.0]))
    y = np.array([1.0, 0.0, 0.0, 1.0])
    fit = fit_logistic(x, y)
    assert fit.converged and fit.iterations == 0 and fit.max_abs_score == 0.0
    assert _bits(fit.coefficients) == _bits(np.zeros(2))
    assert _bits(fit.probabilities) == _bits(np.full(4, 0.5))


def test_converged_fit_has_tiny_analytic_score():
    rng = np.random.default_rng(3)
    x = with_intercept(rng.normal(size=(500, 3)))
    beta = np.array([0.2, -0.6, 0.9, 0.1])
    y = (rng.random(500) < expit(x @ beta)).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    score = oracles.logistic_score(x, y, fit.coefficients)
    assert np.max(np.abs(score)) <= 1e-8
    assert fit.max_abs_score <= 1e-8


def test_large_sample_recovery_within_monte_carlo_error():
    # property from the module contract: n = 100k, fixed seed, truth within
    # 3 asymptotic standard errors of the fit
    rng = np.random.default_rng(20240817)
    n = 100_000
    x = with_intercept(rng.normal(size=(n, 5)))
    beta = np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3])
    y = (rng.random(n) < expit(x @ beta)).astype(float)
    fit = fit_logistic(x, y)
    info = -oracles.logistic_score_jacobian(x, beta)
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    assert np.all(np.abs(fit.coefficients - beta) <= 3.0 * se)


def test_singular_information_raises():
    x = np.ones((10, 2))  # duplicated column, rank-1 information
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
    with pytest.raises(SingularSystem):
        fit_logistic(x, y)


def test_near_collinear_information_raises():
    # not exactly singular, but the information's condition number is about
    # 1e14, beyond the 1e12 the Newton step accepts
    rng = np.random.default_rng(29)
    z = rng.normal(size=200)
    x = np.column_stack([np.ones(200), z, z + 1e-7 * rng.normal(size=200)])
    y = (rng.random(200) < expit(0.3 * z)).astype(float)
    info = 0.25 * x.T @ x  # the information at the first step, p = 1/2
    assert 1e13 < np.linalg.cond(info) < 1e16
    with pytest.raises(SingularSystem):
        fit_logistic(x, y)


def test_fit_and_predict_agree_on_either_memory_order():
    rng = np.random.default_rng(19)
    x = with_intercept(rng.normal(size=(500, 4)))
    y = (rng.random(500) < expit(x @ np.array([-0.4, 0.5, -0.3, 0.2, 0.1]))).astype(float)
    rows = np.ascontiguousarray(x)
    assert x.flags.f_contiguous and rows.flags.c_contiguous and not rows.flags.f_contiguous
    by_column, by_row = fit_logistic(x, y), fit_logistic(rows, y)
    np.testing.assert_allclose(by_row.coefficients, by_column.coefficients, rtol=0, atol=1e-12)
    assert by_row.iterations == by_column.iterations
    np.testing.assert_allclose(by_row.probabilities, by_column.probabilities,
                               rtol=0, atol=1e-12)


GRAM_ROWS = (1, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS, GRAM_BLOCK_ROWS + 1,
             3 * GRAM_BLOCK_ROWS + 17)


@pytest.mark.parametrize("k", [1, 6, 7])
@pytest.mark.parametrize("n", GRAM_ROWS)
def test_weighted_gram_matches_the_entrywise_sum(n, k):
    # each entry within 1e-12 of the sum of its products' magnitudes, the
    # scale of a sum's rounding error, on either memory order; symmetric to
    # the same scale
    rng = np.random.default_rng(n + k)
    x, w = rng.normal(size=(n, k)), rng.random(n)
    reference = oracles.weighted_gram(x, w)
    scale = oracles.weighted_gram(np.abs(x), w)
    for design in (np.asfortranarray(x), x):
        gram = weighted_gram(design, w)
        assert gram.shape == (k, k)
        assert np.all(np.abs(gram - reference) <= 1e-12 * scale)
        assert np.all(np.abs(gram - gram.T) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=GRAM_BLOCK_ROWS), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10_000))
@example(GRAM_BLOCK_ROWS, 6, 0)
@example(GRAM_BLOCK_ROWS - 1, 7, 1)
@example(1, 1, 2)
def test_weighted_gram_is_the_single_product_within_one_block(n, k, seed):
    rng = np.random.default_rng(seed)
    x, w = with_intercept(rng.normal(size=(n, k - 1))), rng.random(n)
    for design in (x, np.ascontiguousarray(x)):
        assert _bits(weighted_gram(design, w)) == _bits(design.T @ (design * w[:, None]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=25),
       st.floats(min_value=0.0, max_value=8.0))
def test_spd_condition_matches_the_svd_condition_number(seed, k, log_cond):
    # the second route is np.linalg.cond, from the singular values: on a
    # symmetric positive definite matrix they are its eigenvalues
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    a = (q * np.logspace(0.0, log_cond, k)) @ q.T
    a = 0.5 * (a + a.T)
    assert spd_condition(a) == pytest.approx(np.linalg.cond(a), rel=1e-6)


def test_spd_condition_is_infinite_off_the_positive_definite_cone():
    assert spd_condition(np.array([[1.0, 2.0], [2.0, 1.0]])) == np.inf  # eigenvalues -1, 3
    assert spd_condition(np.diag([1.0, 0.0])) == np.inf  # singular
    assert spd_condition(np.full((2, 2), np.nan)) == np.inf


def test_fit_probabilities_contract():
    # the probabilities of the final evaluation are bitwise expit(x @ beta)
    # on the column-contiguous design, whichever order the design came in
    rng = np.random.default_rng(0)
    x = with_intercept(rng.normal(size=(300, 3)))
    y = (rng.random(300) < expit(x @ np.array([0.2, -0.5, 0.4, 0.1]))).astype(float)
    for design in (x, np.ascontiguousarray(x)):
        fit = fit_logistic(design, y)
        assert fit.probabilities.shape == (300,)
        assert np.array_equal(fit.probabilities, expit(x @ fit.coefficients))

    zero = fit_logistic(np.ones((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(zero.probabilities, 0.5)
    quarter = fit_logistic(np.ones((8, 1)),
                           np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float))
    np.testing.assert_allclose(quarter.probabilities, 0.25, atol=1e-9)

    # saturating linear predictors stay strictly inside (0, 1) once clamped
    probs = clamp_probability(expit(x @ np.full(4, 100.0)))
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_numeric_jacobian_examples():
    # the central-difference Jacobian is a test oracle, the second route of
    # the stacked sandwich's closed-form bread
    numeric_jacobian = oracles.numeric_jacobian
    identity = numeric_jacobian(lambda th: th, np.array([1.0, -2.0, 3.0]))
    np.testing.assert_allclose(identity, np.eye(3), atol=1e-9)

    jac = numeric_jacobian(lambda th: np.array([th[0] ** 2, th[0] * th[1]]),
                           np.array([2.0, 3.0]))
    np.testing.assert_allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-6)

    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        numeric_jacobian(lambda th: np.array([np.log(th[0])]), np.array([0.0]))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_numeric_jacobian_matches_analytic_logistic_score(seed):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    y = rng.integers(0, 2, size=40).astype(float)
    beta = rng.normal(scale=0.5, size=3)
    numeric = oracles.numeric_jacobian(lambda th: oracles.logistic_score(x, y, th), beta)
    analytic = oracles.logistic_score_jacobian(x, beta)
    np.testing.assert_allclose(numeric, analytic, rtol=1e-5, atol=1e-8)
