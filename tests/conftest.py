import numpy as np
import pytest

import oracles
from mismeasure_ate import inference, numerics, simulation
from mismeasure_ate.frames import MisclassRates, ObservationFrame
from mismeasure_ate.numerics import clamp_probability, expit, fit_logistic

# Canonical six-row fixture with externally supplied propensities. Every
# expected value asserted against it was computed with tests/oracles.py
# before the package was written.
D6 = dict(
    x=np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
    t=np.array([1, 0, 1, 0, 1, 0]),
    y=np.array([1, 0, 0, 1, 1, 0]),
    y_star=np.array([1, 0, 1, 1, 0, 0]),
    v=np.array([1, 1, 1, 0, 0, 0]),
    e=np.array([0.6, 0.4, 0.5, 0.55, 0.7, 0.3]),
    pi=np.array([0.3, 0.25, 0.4, 0.35, 0.5, 0.2]),
)


@pytest.fixture
def d6_frame() -> ObservationFrame:
    return ObservationFrame(
        x=D6["x"], t=D6["t"], y_star=D6["y_star"], v=D6["v"], y=D6["y"].astype(float)
    )


@pytest.fixture
def d6_props() -> tuple[np.ndarray, np.ndarray]:
    """(e, pi): the fixture's treatment and selection propensities."""
    return D6["e"], D6["pi"]


@pytest.fixture
def d6_rates() -> MisclassRates:
    return MisclassRates(((0.67, 0.24),))


def make_random_frame(rng: np.random.Generator, n: int, *, full_y: bool = True):
    """Small random frame, propensities e and pi, and rates for brute-force
    comparisons: returns (frame, e, pi, rates).

    Guarantees both treatment arms overall, both arms inside the validation
    rows, both gold classes inside the validation rows, and a nonempty
    complement with both arms, so every estimator is well defined.
    """
    while True:
        t = rng.integers(0, 2, size=n).astype(float)
        v = rng.integers(0, 2, size=n).astype(float)
        y = rng.integers(0, 2, size=n).astype(float)
        y_star = rng.integers(0, 2, size=n).astype(float)
        val_t = t[v == 1]
        comp_t = t[v == 0]
        val_y = y[v == 1]
        if len(val_t) == 0 or len(comp_t) == 0:
            continue
        if val_t.min() == val_t.max() or comp_t.min() == comp_t.max():
            continue
        if val_y.min() == val_y.max():
            continue
        break
    x = rng.normal(size=(n, 2))
    e = rng.uniform(0.08, 0.92, size=n)
    pi = rng.uniform(0.08, 0.92, size=n)
    p11 = rng.uniform(0.6, 0.95)
    p10 = rng.uniform(0.05, 0.4)
    frame = ObservationFrame(
        x=x, t=t, y_star=y_star, v=v,
        y=y if full_y else np.where(v == 1, y, np.nan),
    )
    return frame, e, pi, MisclassRates(((p11, p10),))


def simulated_frame(seed=5, n=3000, *, srs=False, p11=0.67, p10=0.24, p10_treated=None):
    """Frame drawn from the study's generating process, with full gold y.

    ``p10_treated`` gives the treated arm its own false-positive rate.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 5))
    t = (rng.random(n) < expit(0.8 + 0.3 * x.sum(axis=1))).astype(float)
    y = (rng.random(n) < expit(-3.9 + t + x.sum(axis=1))).astype(float)
    if p10_treated is not None:
        p10 = np.where(t == 1, p10_treated, p10)
    y_star = (rng.random(n) < np.where(y == 1, p11, p10)).astype(float)
    if srs:
        pi = np.full(n, 0.17)
    else:
        pi = expit(-2.9 + 0.5 * t + x[:, :4].sum(axis=1))
    v = (rng.random(n) < pi).astype(float)
    return ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)


def selection_design(frame):
    """Fitted selection design: intercept, treatment and every covariate."""
    return np.column_stack([np.ones(frame.n), frame.t, frame.x])


VARIANTS = ("fitted", "srs", "by_arm")


def frame_variant(label, seed=0):
    """(frame, analyze_frame keywords): a fitted selection model with pooled
    rates, a simple random sample, or per-arm rates. ``seed`` shifts the
    frame's seed."""
    if label == "srs":
        return simulated_frame(seed=71 + 100 * seed, n=2000, srs=True), dict(x_sel=None)
    if label == "by_arm":
        frame = simulated_frame(seed=73 + 100 * seed, n=2000, p10=0.12, p10_treated=0.18)
        return frame, dict(x_sel=selection_design(frame), misclassification="by_arm")
    frame = simulated_frame(seed=67 + 100 * seed, n=2000)
    return frame, dict(x_sel=selection_design(frame))


def fitted_props(frame, x_treat, x_sel=None):
    """(e, pi): the propensities the plug-in fits, recomputed from scratch;
    pi is the validation share n_V / n on every row when ``x_sel`` is None."""
    e = fitted_probability(x_treat, frame.t)
    if x_sel is None:
        return e, np.full(frame.n, frame.n_v / frame.n)
    return e, fitted_probability(x_sel, frame.v)


def fitted_probability(x, y):
    """The clamped probability of the logistic fit of y on x, formed from
    its coefficients."""
    return clamp_probability(expit(x @ fit_logistic(x, y).coefficients))


def stack_rates(frame, misclassification="pooled") -> MisclassRates:
    """The misclassification rates the stack solves on ``frame``: a stack of
    the ``rates`` block alone, whose rows read no model, so none is fitted.
    Raises the error that stopped the block."""
    system = inference.EstimatingSystem(frame, ["rates"], misclassification=misclassification)
    params = inference.solve_plugin(system)
    if "rates" in params.failed:
        raise params.failed["rates"]
    return params.rates


def oracle_points(frame, e, pi, rates, *, b, b_opt, w=0.5):
    """Every estimator's point from the row loops of tests/oracles.py at the
    given propensities, rates and blend weights, keyed by estimator id.
    Per-arm rates (two pairs) go through the ``*_by_arm_tau`` oracles."""
    t, y, ys, v, e, pi = (np.asarray(a).tolist() for a in
                          (frame.t, frame.y, frame.y_star, frame.v, e, pi))
    pairs = rates.pairs
    if len(pairs) == 2:
        corrected = {
            "nonval_corrected": oracles.nonval_corrected_by_arm_tau(t, ys, v, e, pairs),
            "sy_combined": oracles.sy_combined_by_arm_tau(t, y, ys, v, e, pairs, w=w),
            "s_nonval": oracles.s_nonval_by_arm_tau(t, ys, v, e, pi, pairs),
            "s_combined": oracles.s_combined_by_arm_tau(t, y, ys, v, e, pi, pairs),
            "all_silver": oracles.all_silver_by_arm_tau(t, ys, e, pairs),
            "s_weighted": oracles.s_weighted_by_arm_tau(t, y, ys, v, e, pi, pairs, b=b),
            "s_opt": oracles.s_weighted_by_arm_tau(t, y, ys, v, e, pi, pairs, b=b_opt),
        }
    else:
        ((p11, p10),) = pairs
        corrected = {
            "nonval_corrected": oracles.nonval_corrected_tau(t, ys, v, e, p11, p10),
            "sy_combined": oracles.sy_combined_tau(t, y, ys, v, e, p11, p10, w=w),
            "s_nonval": oracles.s_nonval_corrected_tau(t, ys, v, e, pi, p11, p10),
            "s_combined": oracles.s_combined_tau(t, y, ys, v, e, pi, p11, p10),
            "all_silver": oracles.all_silver_tau(t, ys, e, p11, p10),
            "s_weighted": oracles.s_weighted_tau(t, y, ys, v, e, pi, p11, p10, b=b),
            "s_opt": oracles.s_weighted_tau(t, y, ys, v, e, pi, p11, p10, b=b_opt),
        }
    return {"oracle": oracles.oracle_tau(t, y, e), "naive": oracles.naive_tau(t, ys, e),
            "val_only": oracles.val_only_tau(t, y, v, e),
            "s_val_only": oracles.s_val_only_tau(t, y, v, e, pi), **corrected}


def record_fits(monkeypatch) -> list:
    """Patch the logistic fit, wherever the package holds it, to append the
    (iterations, evaluations) of each fit that returns from here on to the
    returned list; an evaluation is one call of ``numerics.expit`` within the
    fit. A fit that halves no Newton step makes iterations + 1 evaluations."""
    fits, evaluations = [], []
    fit_logistic, expit = numerics.fit_logistic, numerics.expit

    def counting_expit(u):
        evaluations.append(None)
        return expit(u)

    def recording_fit(*args, **kwargs):
        evaluations.clear()
        fit = fit_logistic(*args, **kwargs)
        fits.append((fit.iterations, len(evaluations)))
        return fit

    monkeypatch.setattr(numerics, "expit", counting_expit)
    for module in (numerics, inference, simulation):
        monkeypatch.setattr(module, "fit_logistic", recording_fit)
    return fits
