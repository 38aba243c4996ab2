"""Exception and warning taxonomy shared across the package.

Every recoverable failure raised inside the library derives from
:class:`MismeasureError`, so callers (the scenario runner, the CLI) can
distinguish expected statistical degeneracies from genuine bugs.
"""

from __future__ import annotations


class MismeasureError(Exception):
    """Base class for all library errors."""


# --- numerics ---------------------------------------------------------------

class SingularSystem(MismeasureError):
    """Linear system (or weighted information matrix) is rank deficient."""


class NoConvergence(MismeasureError):
    """Iterative solver exhausted its iteration budget.

    Carries the last iterate's diagnostics in ``fit`` when available.
    """

    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


class SeparationSuspected(NoConvergence):
    """Logistic fit failed with runaway coefficients (|coef| > 30)."""


class DimensionMismatch(MismeasureError):
    """Matrix/vector shapes are incompatible."""


class NonFiniteEvaluation(MismeasureError):
    """A design matrix, or the stacked residuals or their Jacobian, holds
    NaN or infinity."""


# --- estimators -------------------------------------------------------------

class DegenerateValidation(MismeasureError):
    """Validation subsample cannot identify the misclassification rates
    (no gold positives, no gold negatives, or no validated rows at all)."""


class NonIdentifiable(MismeasureError):
    """Estimated sensitivity and false-positive rate are equal to within
    the identifiability tolerance, so the correction factor blows up."""


class MissingGoldOutcomes(MismeasureError):
    """The oracle estimator needs a gold outcome on every row."""


class EmptyArm(MismeasureError):
    """An estimator's effective treatment or control arm has zero weight."""


class EmptyValidationArm(EmptyArm):
    """Validation subsample lacks treated or control rows."""


class EmptyComplement(EmptyArm):
    """No rows outside the validation sample."""


class EmptyComplementArm(EmptyArm):
    """Non-validation rows lack treated or control members."""


class WeightOutOfRange(MismeasureError):
    """Combination weight must lie in [0, 1]."""


# --- inference --------------------------------------------------------------

class NegativeVariance(MismeasureError):
    """Delta-method variance came out negative; refusing to clamp silently."""


class ResidualCheckFailed(MismeasureError):
    """Plug-in parameters do not zero the stacked estimating equations."""


# --- simulation -------------------------------------------------------------

class CalibrationFailed(MismeasureError):
    """Bisection could not hit the target validation-sample size."""


class TooManyFailures(MismeasureError):
    """More than 1% of Monte Carlo iterations failed for some estimator."""


# --- cli --------------------------------------------------------------------

class UnknownScenario(MismeasureError):
    """Requested scenario preset does not exist."""


class ConfigParseError(MismeasureError):
    """Scenario/model configuration file is malformed; message names the field."""


class SchemaError(MismeasureError):
    """Input CSV violates the dataset schema."""


# --- warnings ---------------------------------------------------------------

class DegenerateVarianceWarning(UserWarning):
    """Optimal-weight denominator was numerically zero; fell back to b=0.5."""
