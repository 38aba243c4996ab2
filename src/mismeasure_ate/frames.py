"""Domain types: analysis frames, the analyst's model spec and the designs
it builds, misclassification rates and the rows each pair of rates is
counted on, and the point-estimate record every estimator returns."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigParseError, DimensionMismatch, NonIdentifiable
from .numerics import with_intercept

IDENTIFIABILITY_TOL = 1e-6

# How misclassification rates are counted: once over every validated row, or
# separately within each treatment arm of the validated rows.
MISCLASSIFICATION_MODES = ("pooled", "by_arm")

# Canonical estimator identifiers, in report order. "oracle" needs the gold
# outcome on every row and is therefore simulation-only.
ESTIMATOR_IDS = (
    "oracle",            # IPW on the true outcome everywhere
    "naive",             # IPW on the error-prone outcome, no correction
    "val_only",          # gold outcomes from the validation rows only
    "nonval_corrected",  # corrected error-prone outcomes outside validation
    "sy_combined",       # size-weighted blend of the two above
    "s_val_only",        # validation gold outcomes, selection-weighted
    "s_nonval",          # complement Hajek contrast, selection-weighted
    "s_combined",        # selection-weighted blend of validation + complement
    "all_silver",        # corrected Hajek on every error-prone outcome
    "s_weighted",        # fixed-b blend of s_val_only and all_silver
    "s_opt",             # variance-minimizing blend of the same pair
)


def _binary(name: str, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


def _gold(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The gold outcome ``y``, checked against the validation indicator:
    one entry per row, 0/1 where observed, present on every validation row."""
    if y.shape != v.shape:
        raise DimensionMismatch(f"y has shape {y.shape}, expected {v.shape}")
    observed = ~np.isnan(y)
    if not np.all((y[observed] == 0.0) | (y[observed] == 1.0)):
        raise ValueError("observed y entries must be 0 or 1")
    if np.any((v == 1.0) & ~observed):
        raise ValueError("y must be present on every validation row")
    return y


@dataclass(frozen=True)
class ObservationFrame:
    """One analysis dataset.

    ``y`` is the gold outcome, stored as floats with NaN wherever it was not
    observed. Frames built from external data carry ``y`` exactly on the
    validation rows; simulated frames may keep the full vector so the oracle
    estimator can be evaluated against it.
    """

    x: np.ndarray        # (n, p) covariates
    t: np.ndarray        # (n,) treatment, 0/1
    y_star: np.ndarray   # (n,) error-prone outcome, 0/1
    v: np.ndarray        # (n,) validation indicator, 0/1
    y: np.ndarray        # (n,) gold outcome, 0/1 where observed else NaN

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        t = _binary("t", self.t)
        y_star = _binary("y_star", self.y_star)
        v = _binary("v", self.v)
        for name, arr in [("t", t), ("y_star", y_star), ("v", v)]:
            if arr.shape != (n,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({n},)")
        y = _gold(np.asarray(self.y, dtype=float), v)
        for name, arr in [("x", x), ("t", t), ("y_star", y_star), ("v", v), ("y", y)]:
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    # computed on first access and kept: a frame's arrays are not modified
    @cached_property
    def n_v(self) -> int:
        return int(np.sum(self.v))

    @cached_property
    def y_validated(self) -> np.ndarray:
        """Gold outcome with zeros off the validation rows (NaN-safe for
        expressions that multiply by the validation indicator)."""
        return np.where(self.v == 1.0, self.y, 0.0)

    def with_full_y(self, y_full: np.ndarray) -> "ObservationFrame":
        """Attach a complete gold-outcome vector (simulation oracle path),
        checked as the constructor checks y; the other arrays are shared."""
        frame = object.__new__(ObservationFrame)
        frame.__dict__.update(x=self.x, t=self.t, y_star=self.y_star, v=self.v,
                              y=_gold(np.asarray(y_full, dtype=float), self.v))
        return frame


@dataclass(frozen=True)
class ModelSpec:
    """Covariate columns entering the treatment and selection models.

    ``selection_covariates`` may be None, which declares the validation
    sample a simple random sample: the selection propensity becomes the
    constant n_V / n and no selection model is fitted. The treatment
    indicator is always part of the selection design and never listed.
    """

    treatment_covariates: tuple
    selection_covariates: tuple | None

    def columns(self, p: int) -> tuple[list[int], list[int] | None]:
        """0-based x-column indices of the treatment covariates and of the
        selection covariates (None without a selection model), in the spec's
        order. Each name must be one of x1..xp exactly, and named once."""
        index = {f"x{j + 1}": j for j in range(p)}

        def indices(names: tuple) -> list:
            for k, name in enumerate(names):
                if name not in index:
                    raise ConfigParseError(
                        f"unknown covariate column {name!r}; the dataset has x1..x{p}")
                if name in names[:k]:
                    raise ConfigParseError(f"covariate column {name!r} is named twice")
            return [index[name] for name in names]

        selection = self.selection_covariates
        return (indices(self.treatment_covariates),
                None if selection is None else indices(selection))

    def designs(self, frame: ObservationFrame) -> tuple[np.ndarray, np.ndarray | None]:
        """(x_treat, x_sel) of ``frame``: an intercept, then t (selection
        design only), then the x-columns ``columns`` names in the spec's
        order, built column-contiguous (``with_intercept``). An empty
        treatment list is the intercept alone, and x_sel is None without a
        selection model."""
        treatment, selection = self.columns(frame.p)
        x_treat = (with_intercept(*(frame.x[:, j] for j in treatment)) if treatment
                   else np.ones((frame.n, 1)))
        if selection is None:
            return x_treat, None
        return x_treat, with_intercept(frame.t, *(frame.x[:, j] for j in selection))


# Names of the (p11, p10) pairs, by their number, in the ``rates`` block's
# order: one pooled pair serves both arms; per-arm pairs come control first.
PAIR_NAMES = {1: ("pooled",), 2: ("control", "treated")}


def rate_groups(frame: ObservationFrame,
                misclassification: str) -> tuple[tuple[str, np.ndarray], ...]:
    """The rows each (p11, p10) pair is counted on, as (name, 0/1 row
    indicator) in the ``rates`` block's order: every validated row
    ("pooled"), or the validated control rows, then the validated treated
    rows ("by_arm"). ValueError for any other mode."""
    if misclassification not in MISCLASSIFICATION_MODES:
        raise ValueError(f"misclassification must be one of {MISCLASSIFICATION_MODES}, "
                         f"got {misclassification!r}")
    v = frame.v
    rows = (v,) if misclassification == "pooled" else (v * (1.0 - frame.t), v * frame.t)
    return tuple(zip(PAIR_NAMES[len(rows)], rows))


@dataclass(frozen=True)
class MisclassRates:
    """Sensitivity p11 = P(Y*=1 | Y=1) and false-positive rate
    p10 = P(Y*=1 | Y=0), as ``pairs`` of (p11, p10) in the ``rates``
    block's order (see ``PAIR_NAMES``): one pooled pair, or the control
    arm's then the treated arm's, for misclassification that depends on
    treatment. Each rate lies in [0, 1], and identifiability requires the
    two rates of each pair to differ."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(p11), float(p10)) for p11, p10 in self.pairs)
        if len(pairs) not in PAIR_NAMES:
            raise ValueError(f"rates hold one pooled pair or one pair per arm, got {len(pairs)}")
        for name, (p11, p10) in zip(PAIR_NAMES[len(pairs)], pairs):
            for rate, value in (("p11", p11), ("p10", p10)):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} {rate} must lie in [0, 1], got {value}")
            if abs(p11 - p10) < IDENTIFIABILITY_TOL:
                raise NonIdentifiable(f"{name} rates p11 = {p11:.6f} and p10 = {p10:.6f} "
                                      "are too close to identify the correction")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class AteEstimate:
    """A point estimate, optionally with its sandwich SE and confidence
    interval, plus the combination weight actually used (w, b, or b_opt)."""

    estimator_id: str
    tau: float
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    weight_used: float | None = None

    def __post_init__(self):
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator id {self.estimator_id!r}")
        if (self.se is None) != (self.ci_low is None) or (self.se is None) != (self.ci_high is None):
            raise ValueError("se and confidence bounds must be present together")
        if self.se is not None:
            if self.se < 0:
                raise ValueError("se must be nonnegative")
            if not self.ci_low <= self.tau <= self.ci_high:
                raise ValueError("confidence interval must bracket the point estimate")
