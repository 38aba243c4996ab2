"""Arithmetic shared by the stacked plug-in and ``analyze_frame``.

Every point estimate is read from the solved stack of estimating equations
(``inference``); this module holds the pieces that stack is built from:
the counted misclassification rates, the misclassification-corrected
contrast, the one arm-weighting rule of every IPW and WLS block
(``arm_weights``), the checks on the blend weights, and the
variance-minimizing weight b_opt.

Notation used in the docstrings: e is the treatment propensity, pi the
validation-selection propensity, p11/p10 the misclassification rates, V the
validation indicator, Y the gold outcome, Y* the error-prone outcome.

Every rate-consuming estimator corrects each treatment arm's silver mean
m_t as (m_t - p10_t) / (p11_t - p10_t) before differencing (see
``corrected_contrast``). ``MisclassRates`` holds one pooled pair, used for
both arms, which gives the familiar (m_1 - m_0) / (p11 - p10), or one pair
per arm, which removes the bias of treatment-dependent misclassification.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateValidation,
    EmptyComplement,
    EmptyValidationArm,
    WeightOutOfRange,
)
from .frames import MisclassRates, ObservationFrame, rate_groups

B_OPT_DENOM_TOL = 1e-14


def estimate_misclassification(frame: ObservationFrame,
                               misclassification: str = "pooled") -> MisclassRates:
    """Estimate (p11, p10) by direct counting on the validation rows.

    p11 = sum(Y * Y*) / sum(Y) and p10 = sum((1-Y) * Y*) / sum(1-Y), over
    each group of ``frames.rate_groups``: every row with V=1 ("pooled"), or
    the rows with V=1, T=t for each arm ("by_arm", control first). When
    misclassification depends on (Y, T) only, Y* is independent of V given
    (Y, T), so per-arm counting is consistent even under a biased validation
    selection. The counts are integers, so the sums over masked full-length
    rows are exact. Raises DegenerateValidation when a group lacks gold
    positives or negatives, then NonIdentifiable (from ``MisclassRates``)
    when a pair of rates is closer than 1e-6.
    """
    yv, y_star = frame.y_validated, frame.y_star
    pairs = []
    for name, rows in rate_groups(frame, misclassification):
        positives = float(np.sum(yv * rows))
        negatives = float(np.sum((1.0 - yv) * rows))
        if positives == 0.0 or negatives == 0.0:
            raise DegenerateValidation(f"{name} validation rows contain {int(positives)} gold "
                                       f"positives and {int(negatives)} gold negatives")
        pairs.append((float(np.sum(yv * y_star * rows)) / positives,
                      float(np.sum((1.0 - yv) * y_star * rows)) / negatives))
    return MisclassRates(tuple(pairs))


def corrected_contrast(rates: MisclassRates, mean_treated: float,
                       mean_control: float) -> float:
    """Misclassification-corrected contrast of two silver-outcome arm means.

    Each arm's mean m_t becomes (m_t - p10_t) / (p11_t - p10_t) before the
    difference is taken. With one pooled pair this equals
    (m_1 - m_0) / (p11 - p10), which is computed directly.
    """
    if len(rates.pairs) == 1:
        ((p11, p10),) = rates.pairs
        return (mean_treated - mean_control) / (p11 - p10)
    (p11_0, p10_0), (p11_1, p10_1) = rates.pairs
    return (mean_treated - p10_1) / (p11_1 - p10_1) - (mean_control - p10_0) / (p11_0 - p10_0)


def arm_weights(t: np.ndarray, e: np.ndarray, rows: np.ndarray | None = None,
                share: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one arm-weighting rule of every IPW and WLS block, split into
    (treated, control): rows*T / (e*share) and rows*(1-T) / ((1-e)*share).

    The row factor rows/share is 1 over every row (both None), V/pi on the
    validated rows and (1-V)/(1-pi) on the complement; ``share`` None with
    ``rows`` given is a share of 1. Each weight moves by -w_t/e or
    +w_c/(1-e) per unit of e, and by -w/pi (validated rows) or +w/(1-pi)
    (complement) per unit of pi.
    """
    treated, control = t, 1.0 - t
    if rows is not None:
        treated, control = rows * treated, rows * control
    e_control = 1.0 - e
    if share is not None:
        e, e_control = e * share, e_control * share
    return treated / e, control / e_control


def unit_weight(name: str, value: float) -> float:
    """``value`` if it lies in [0, 1]; WeightOutOfRange otherwise."""
    if not 0.0 <= value <= 1.0:
        raise WeightOutOfRange(f"{name} must lie in [0, 1], got {value}")
    return value


def sy_combined_weight(n: int, n_v: int, w: float) -> float:
    """Weight lam = w*n_V / (w*n_V + (1-w)*(n - n_V)) of val_only in sy_combined.

    w must lie in [0, 1]. A zero denominator means w puts the whole blend on
    a piece with no rows: EmptyValidationArm when there are no validated rows
    (w = 1), EmptyComplement when every row is validated (w = 0).
    """
    unit_weight("w", w)
    denom = w * n_v + (1.0 - w) * (n - n_v)
    if denom == 0.0:
        error = EmptyValidationArm if n_v == 0 else EmptyComplement
        raise error(f"sy_combined with w = {w} weights only an empty piece "
                    f"({n_v} of {n} rows validated)")
    return w * n_v / denom


def compute_b_opt(var_a: float, var_b: float, cov_ab: float) -> float:
    """Variance-minimizing blend weight for a*(component A) + (1-a)*(B).

    b_opt = (var_b - cov_ab) / (var_a + var_b - 2*cov_ab), clipped to [0, 1].
    A denominator Var(A - B) below B_OPT_DENOM_TOL falls back to 0.5,
    silently: A and B then agree so closely that every b gives the same
    estimate to about 1e-7.
    """
    denom = var_a + var_b - 2.0 * cov_ab
    if denom < B_OPT_DENOM_TOL:
        return 0.5
    b = (var_b - cov_ab) / denom
    return float(min(1.0, max(0.0, b)))
