"""Random small frames, often degenerate, for the property test of
``tests/test_inference.py`` and the failure-map golden that
``scripts/make_golden.py`` writes; both draw them from here."""

import numpy as np

from mismeasure_ate.frames import ObservationFrame


def random_degenerate_frame(rng):
    """A 3-40-row frame with its analysis options, often degenerate: one
    treatment arm, every row or no row validated, or a constant gold or
    silver outcome; the gold outcome kept on every row or on the validated
    rows only, under SRS or a fitted selection model, pooled or per-arm
    rates, and any blend weights w and b."""
    n = int(rng.integers(3, 41))
    kind = rng.choice(["plain", "plain", "one_arm", "all_validated", "none_validated",
                       "constant_y_star", "constant_y"])
    t = rng.integers(0, 2, n).astype(float)
    v = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    y = rng.integers(0, 2, n).astype(float)
    y_star = np.where(rng.random(n) < rng.uniform(0.0, 0.4), 1.0 - y, y)
    if kind == "one_arm":
        t[:] = rng.integers(0, 2)
    elif kind == "all_validated":
        v[:] = 1.0
    elif kind == "none_validated":
        v[:] = 0.0
    elif kind == "constant_y_star":
        y_star[:] = rng.integers(0, 2)
    elif kind == "constant_y":
        y[:] = y_star[:] = rng.integers(0, 2)
    x = rng.normal(size=(n, 2))
    frame = ObservationFrame(x=x, t=t, y_star=y_star, v=v,
                             y=y if rng.integers(0, 2) else np.where(v == 1, y, np.nan))
    options = dict(x_sel=None if rng.integers(0, 2) else np.column_stack([np.ones(n), t, x[:, 0]]),
                   misclassification=("pooled", "by_arm")[rng.integers(0, 2)],
                   w=(0.0, 0.5, 1.0)[rng.integers(0, 3)],
                   b=(None, 0.0, 0.3, 1.0)[rng.integers(0, 4)])
    return frame, options
