import numpy as np
import pytest

from mismeasure_ate import numerics
from mismeasure_ate.frames import MisclassRates, ObservationFrame, PropensityPair

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
def d6_props() -> PropensityPair:
    return PropensityPair(e=D6["e"], pi_v=D6["pi"])


@pytest.fixture
def d6_rates() -> MisclassRates:
    return MisclassRates(p11=0.67, p10=0.24)


def make_random_frame(rng: np.random.Generator, n: int, *, full_y: bool = True):
    """Small random frame + propensities + rates for brute-force comparisons.

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
    return frame, PropensityPair(e=e, pi_v=pi), MisclassRates(p11=p11, p10=p10)


def count_log_likelihoods(monkeypatch) -> list:
    """Patch the IRLS log-likelihood to record each evaluation in the
    returned list from here on."""
    calls, log_likelihood = [], numerics._log_likelihood

    def counting(*args):
        calls.append(None)
        return log_likelihood(*args)

    monkeypatch.setattr(numerics, "_log_likelihood", counting)
    return calls
