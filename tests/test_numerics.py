import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_log_likelihoods
from mismeasure_ate.errors import (
    DimensionMismatch,
    NonFiniteEvaluation,
    SeparationSuspected,
    SingularSystem,
)
from mismeasure_ate.numerics import (
    DesignMatrix,
    _log_likelihood,
    expit,
    fit_logistic,
    logit,
    normal_quantile,
    predict_proba,
    solve_linear,
    spd_condition,
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
            ours = _log_likelihood(u, np.exp(-np.abs(u)), np.zeros(1), None)
            reference = oracles.logaddexp_loglik(u, np.zeros(1))
            assert ours == pytest.approx(reference, rel=1e-13, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([40.0, 1e3]),
       st.booleans())
def test_log_likelihood_matches_logaddexp_form(seed, bound, weighted):
    # relative to the sum: a single term y u - softplus(u) with y = 1 cancels
    # (about 2e-13 relative near u = 5 in either form), a sum of many does not
    rng = np.random.default_rng(seed)
    u = rng.uniform(-bound, bound, size=200)
    y = rng.integers(0, 2, size=200).astype(float)
    w = rng.uniform(0.1, 5.0, size=200) if weighted else None
    with np.errstate(over="raise", invalid="raise"):
        ours = _log_likelihood(u, np.exp(-np.abs(u)), y, w)
        reference = oracles.logaddexp_loglik(u, y, w)
    assert ours == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_normal_quantile_reference_value():
    assert normal_quantile(0.975) == pytest.approx(1.9599639845, abs=1e-10)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.025) == pytest.approx(-1.9599639845, abs=1e-10)


def test_design_matrix_invariants():
    dm = DesignMatrix.with_intercept(np.arange(6.0))
    assert dm.rows == 6 and dm.cols == 2 and dm.has_intercept
    t, x = np.arange(6.0) % 2, np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(DesignMatrix.with_intercept(t, x).values,
                                  np.column_stack([np.ones(6), t, x]))
    with pytest.raises(DimensionMismatch):
        DesignMatrix(np.ones((2, 3)))
    with pytest.raises(NonFiniteEvaluation):
        DesignMatrix(np.array([[1.0], [np.inf]]))
    with pytest.raises(DimensionMismatch):
        DesignMatrix(np.array([[1.0, 0.0], [2.0, 1.0]]), has_intercept=True)


def test_intercept_only_closed_form():
    x = DesignMatrix.intercept_only(8)
    y = np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float)
    fit = fit_logistic(x, y)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(logit(0.25), abs=1e-9)

    balanced = fit_logistic(DesignMatrix.intercept_only(2), np.array([0.0, 1.0]))
    assert balanced.coefficients[0] == pytest.approx(0.0, abs=1e-9)


def test_fit_matches_independent_newton_solver():
    rng = np.random.default_rng(7)
    x = DesignMatrix.with_intercept(rng.normal(size=(200, 5)))
    beta = np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3])
    y = (rng.random(200) < expit(x.values @ beta)).astype(float)
    fit = fit_logistic(x, y)
    reference = oracles.newton_logistic(x.values, y)
    np.testing.assert_allclose(fit.coefficients, reference, atol=1e-8)


def test_weighted_fit_matches_independent_solver():
    rng = np.random.default_rng(11)
    x = DesignMatrix.with_intercept(rng.normal(size=(300, 2)))
    beta = np.array([-0.5, 1.0, 0.7])
    y = (rng.random(300) < expit(x.values @ beta)).astype(float)
    w = rng.uniform(0.2, 3.0, size=300)
    fit = fit_logistic(x, y, weights=w)
    reference = oracles.newton_logistic(x.values, y, weights=w)
    np.testing.assert_allclose(fit.coefficients, reference, atol=1e-8)


def test_uphill_steps_need_no_log_likelihood(monkeypatch):
    # every candidate of this fit is accepted by its slope or its score
    calls = count_log_likelihoods(monkeypatch)
    rng = np.random.default_rng(7)
    x = DesignMatrix.with_intercept(rng.normal(size=(200, 5)))
    y = (rng.random(200) < expit(x.values @ np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3]))).astype(float)
    assert fit_logistic(x, y).converged
    assert not calls


def test_downhill_slope_falls_back_to_the_log_likelihood(monkeypatch):
    # a steep, nearly separated 40-row design: some full Newton step ends
    # where the log-likelihood falls again along the step, so the
    # log-likelihoods decide, and the fit still reaches the MLE
    calls = count_log_likelihoods(monkeypatch)
    rng = np.random.default_rng(852)
    x = DesignMatrix.with_intercept(rng.normal(size=(40, 3)))
    y = (rng.random(40) < expit(x.values @ rng.normal(scale=8.0, size=4))).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged and calls
    reference = oracles.newton_logistic(x.values, y)
    np.testing.assert_allclose(fit.coefficients, reference, rtol=0.0, atol=1e-8)


def test_complete_separation_raises():
    # y = 1 exactly where x > 0: the likelihood rises without bound along the
    # slope, and the score test is met at a finite iterate that separates
    x = DesignMatrix.with_intercept(np.linspace(-3.0, 3.0, 40))
    y = (x.values[:, 1] > 0).astype(float)
    with pytest.raises(SeparationSuspected) as raised:
        fit_logistic(x, y)
    assert not raised.value.fit.converged
    assert np.all((2.0 * y - 1.0) * (x.values @ raised.value.fit.coefficients) > 0.0)
    # a row of weight zero does not break the separation; any positive weight does
    flipped = y.copy()
    flipped[[10, 30]] = 1.0 - flipped[[10, 30]]
    weights = np.ones(40)
    weights[[10, 30]] = 0.0
    with pytest.raises(SeparationSuspected):
        fit_logistic(x, flipped, weights=weights)
    weights[[10, 30]] = 0.5
    assert fit_logistic(x, flipped, weights=weights).converged
    # no weight at all: the start already meets the score test
    assert fit_logistic(x, y, weights=np.zeros(40)).iterations == 0


def _quasi_separated():
    # a steep design (slope x8) whose labels are the sign of z, with one
    # label flipped on each side of zero so the MLE stays finite
    z = np.linspace(-3.0, 3.0, 60)
    y = (z > 0).astype(float)
    y[[27, 32]] = 1.0 - y[[27, 32]]
    return DesignMatrix.with_intercept(8.0 * z), y, None


def _rare_event():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3000, 2))
    y = (rng.random(3000) < expit(-6.5 + x @ np.array([0.8, -0.5]))).astype(float)
    assert y.sum() == 6.0  # 0.2% positives
    return DesignMatrix.with_intercept(x), y, None


def _steep_weighted():
    rng = np.random.default_rng(4)
    x = DesignMatrix.with_intercept(rng.normal(size=(400, 2)))
    y = (rng.random(400) < expit(x.values @ np.array([0.5, 4.0, -3.0]))).astype(float)
    return x, y, rng.uniform(0.1, 5.0, size=400)


@pytest.mark.parametrize("design", [_quasi_separated, _rare_event, _steep_weighted],
                         ids=["quasi_separated", "rare_event", "steep_weighted"])
def test_hard_fits_converge_to_the_independent_solver(design):
    # step-halving counts are not pinned: where a full step is rejected, the
    # two log-likelihoods compared differ only in their last bits
    x, y, w = design()
    fit = fit_logistic(x, y, weights=w)
    assert fit.converged
    reference = oracles.newton_logistic(x.values, y, weights=w)
    np.testing.assert_allclose(fit.coefficients, reference, rtol=0.0, atol=1e-8)


def test_fit_working_memory_stays_within_twice_the_design():
    # the kernel keeps n-vectors and one (n, k) product, never a copy of the
    # design in another layout
    rng = np.random.default_rng(5)
    x = DesignMatrix.with_intercept(rng.normal(size=(50_000, 5)))
    y = (rng.random(50_000) < expit(x.values @ np.linspace(-1.0, 1.0, 6))).astype(float)
    tracemalloc.start()
    try:
        fit_logistic(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * x.values.nbytes


def test_converged_fit_has_tiny_analytic_score():
    rng = np.random.default_rng(3)
    x = DesignMatrix.with_intercept(rng.normal(size=(500, 3)))
    beta = np.array([0.2, -0.6, 0.9, 0.1])
    y = (rng.random(500) < expit(x.values @ beta)).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    score = oracles.logistic_score(x.values, y, fit.coefficients)
    assert np.max(np.abs(score)) <= 1e-8
    assert fit.max_abs_score <= 1e-8


def test_large_sample_recovery_within_monte_carlo_error():
    # property from the module contract: n = 100k, fixed seed, truth within
    # 3 asymptotic standard errors of the fit
    rng = np.random.default_rng(20240817)
    n = 100_000
    x = DesignMatrix.with_intercept(rng.normal(size=(n, 5)))
    beta = np.array([0.8, 0.3, 0.3, 0.3, 0.3, 0.3])
    y = (rng.random(n) < expit(x.values @ beta)).astype(float)
    fit = fit_logistic(x, y)
    info = -oracles.logistic_score_jacobian(x.values, beta)
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
    x = DesignMatrix.with_intercept(rng.normal(size=(500, 4))).values
    y = (rng.random(500) < expit(x @ np.array([-0.4, 0.5, -0.3, 0.2, 0.1]))).astype(float)
    rows = np.ascontiguousarray(x)
    assert x.flags.f_contiguous and rows.flags.c_contiguous and not rows.flags.f_contiguous
    for weights in (None, rng.uniform(0.5, 2.0, size=500)):
        by_column, by_row = fit_logistic(x, y, weights), fit_logistic(rows, y, weights)
        np.testing.assert_allclose(by_row.coefficients, by_column.coefficients, rtol=0, atol=1e-12)
        assert by_row.iterations == by_column.iterations
        np.testing.assert_allclose(predict_proba(by_column, rows), predict_proba(by_column, x),
                                   rtol=0, atol=1e-12)


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


def test_predict_proba_contract():
    rng = np.random.default_rng(0)
    x = DesignMatrix.with_intercept(rng.normal(size=(50, 2)))
    zero = fit_logistic(DesignMatrix.intercept_only(4), np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.allclose(predict_proba(zero, DesignMatrix.intercept_only(6)), 0.5)

    quarter = fit_logistic(DesignMatrix.intercept_only(8),
                           np.array([1, 0, 0, 0, 1, 0, 0, 0], dtype=float))
    np.testing.assert_allclose(
        predict_proba(quarter, DesignMatrix.intercept_only(3)), 0.25, atol=1e-9
    )

    # saturating linear predictors stay strictly inside (0, 1)
    from mismeasure_ate.numerics import LogisticFit
    huge = LogisticFit(np.array([100.0, 100.0, 100.0]), True, 0, 0.0)
    probs = predict_proba(huge, x)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)

    with pytest.raises(DimensionMismatch):
        predict_proba(huge, DesignMatrix.intercept_only(5))


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


def test_solve_linear_examples():
    np.testing.assert_allclose(solve_linear(np.eye(3), np.arange(3.0)), np.arange(3.0))
    np.testing.assert_allclose(
        solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0])),
        [1.0, 2.0],
    )
    with pytest.raises(SingularSystem):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        solve_linear(np.ones((2, 3)), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_linear_residuals(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(7, 7)) + 7.0 * np.eye(7)
    b = rng.normal(size=(7, 2))
    x = solve_linear(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-10
