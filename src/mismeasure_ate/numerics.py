"""Foundational numerical routines.

Logistic-model fitting by iteratively reweighted least squares, a
conditioning-checked linear solver, and the stable logistic /
normal-quantile functions everything else consumes. All functions are pure;
nothing here holds state.

Designs are stored column by column (Fortran order): every per-row product
of an (n, k) design with a length-n vector then runs down contiguous
columns. Functions accept either order and convert a row-major design once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteEvaluation,
    SeparationSuspected,
    SingularSystem,
)

# Probabilities used as inverse-probability denominators are clamped into
# [PROB_CLAMP, 1 - PROB_CLAMP] so a saturated logistic prediction can never
# produce a zero or infinite weight.
PROB_CLAMP = 1e-12

SCORE_TOL = 1e-8       # max |score| at convergence
STEP_TOL = 1e-10       # max |coefficient step| at convergence
MAX_ITER = 100
MAX_HALVINGS = 10      # step halvings per Newton step before giving up
SEPARATION_COEF = 30.0 # |coef| beyond this at failure suggests separation

PIVOT_RTOL = 1e-12     # a condition number above 1 / PIVOT_RTOL is singular


def expit(u):
    """Logistic function 1 / (1 + exp(-u)), stable for large |u|.

    Scalar in, float out; array in, array out. One exponential per entry:
    with eu = exp(-|u|), which never overflows, the value is eu / (1 + eu)
    for u < 0 and 1 / (1 + eu) otherwise.
    """
    arr = np.asarray(u, dtype=float)
    out = _expit_from(arr, np.exp(-np.abs(arr)))
    if arr.ndim == 0:
        return float(out)
    return out


def _expit_from(u: np.ndarray, eu: np.ndarray) -> np.ndarray:
    # expit(u) given eu = exp(-|u|)
    return np.where(u < 0, eu, 1.0) / (1.0 + eu)


def logit(p):
    """Inverse of expit: log(p / (1 - p))."""
    arr = np.asarray(p, dtype=float)
    out = np.log(arr) - np.log1p(-arr)
    if arr.ndim == 0:
        return float(out)
    return out


def clamp_probability(p):
    """Clip probabilities into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass(frozen=True)
class DesignMatrix:
    """Dense design matrix, optionally carrying an all-ones intercept column.

    Invariants checked at construction: at least as many rows as columns,
    every entry finite, and (when declared) column 0 identically one.
    """

    values: np.ndarray
    has_intercept: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionMismatch(f"design matrix must be 2-d, got ndim={values.ndim}")
        if values.shape[0] < values.shape[1]:
            raise DimensionMismatch(
                f"design matrix has more columns ({values.shape[1]}) than rows ({values.shape[0]})"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteEvaluation("design matrix contains non-finite entries")
        if self.has_intercept and not np.all(values[:, 0] == 1.0):
            raise DimensionMismatch("intercept column must be all ones")
        object.__setattr__(self, "values", values)

    @classmethod
    def with_intercept(cls, x: np.ndarray, *more: np.ndarray) -> "DesignMatrix":
        """Prepend an intercept column to raw covariates.

        Each argument is an (n,) column or an (n, k) block; they follow the
        intercept in order. The values are written in place into one
        column-contiguous (Fortran-order) array.
        """
        blocks = [np.asarray(block, dtype=float).reshape(len(block), -1) for block in (x, *more)]
        values = np.empty((len(blocks[0]), 1 + sum(b.shape[1] for b in blocks)), order="F")
        values[:, 0] = 1.0
        np.concatenate(blocks, axis=1, out=values[:, 1:])
        return cls(values, has_intercept=True)

    @classmethod
    def intercept_only(cls, n: int) -> "DesignMatrix":
        return cls(np.ones((n, 1)), has_intercept=True)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LogisticFit:
    """Fitted logistic coefficients plus convergence diagnostics."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    max_abs_score: float


def _as_design(x) -> np.ndarray:
    """The checked design values, column-contiguous (a no-op for a design
    built column by column)."""
    if not isinstance(x, DesignMatrix):
        x = DesignMatrix(np.asarray(x, dtype=float))
    return np.asfortranarray(x.values)


def _log_likelihood(u: np.ndarray, eu: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> float:
    # sum w (y u - softplus(u)) with eu = exp(-|u|); no w weighs every row 1
    terms = y * u - (np.maximum(u, 0.0) + np.log1p(eu))
    return float(np.sum(terms if w is None else w * terms))


def fit_logistic(x, y, weights=None) -> LogisticFit:
    """Maximize the (weighted) Bernoulli log-likelihood by Newton/IRLS steps.

    Parameters
    ----------
    x : DesignMatrix or array_like, shape (n, k)
    y : array_like of 0/1, length n
    weights : optional nonnegative array_like, length n

    Convergence is declared when the max absolute score drops to 1e-8 or the
    coefficient step max-norm drops to 1e-10.

    Each evaluation takes one exponential per row: u = X beta and
    exp(-|u|) give the probabilities p and the score X'w(y - p), which the
    next iteration reads. A Newton candidate is accepted when the slope of
    the log-likelihood along the step, step . score, is still nonnegative
    there (the log-likelihood is concave, so it rose all the way), when the
    candidate already passes the score test, or else when its
    log-likelihood is no lower than the current one (formed only then).
    Otherwise the step is halved, which survives near-separation without
    oscillating; when the full step and 10 halvings all fail, the next
    halving is accepted.

    The Newton step checks the symmetric information's 2-norm condition
    number, the criterion of ``solve_linear``, by ``spd_condition``.

    Raises
    ------
    SingularSystem
        Weighted information matrix is rank deficient: its smallest
        eigenvalue is not positive or its condition number exceeds 1e12.
    SeparationSuspected
        The converged iterate separates the data completely: every row of
        positive weight has (2y - 1) x beta > 0, so no finite maximum
        exists (Albert & Anderson 1984); or no convergence and some
        |coefficient| exceeds 30.
    NoConvergence
        Iteration budget (100) exhausted; diagnostics attached to the error.
    """
    xv = _as_design(x)
    y = np.asarray(y, dtype=float)
    n, k = xv.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected ({n},)")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y entries must be 0 or 1")
    w = weights
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")

    def evaluate(beta):
        u = xv @ beta
        eu = np.exp(-np.abs(u))
        p = _expit_from(u, eu)
        return u, eu, p, xv.T @ (y - p if w is None else w * (y - p))

    def converged(beta, u, iterations, max_abs_score):
        # beta = 0 classifies no row strictly, so a fit that took no step
        # (every weight zero included) is never read as separated
        right = (2.0 * y - 1.0) * u > 0.0
        if iterations and np.all(right if w is None else right | (w == 0.0)):
            raise SeparationSuspected(
                f"the data are completely separated (max |coef| = "
                f"{np.max(np.abs(beta)):.2f} after {iterations} iterations); "
                "no finite maximum likelihood estimate exists",
                fit=LogisticFit(beta, False, iterations, max_abs_score),
            )
        return LogisticFit(beta, True, iterations, max_abs_score)

    beta = np.zeros(k)
    u, eu, p, score = evaluate(beta)
    max_abs_score = np.inf

    for iteration in range(1, MAX_ITER + 1):
        max_abs_score = float(np.max(np.abs(score))) if k else 0.0
        if max_abs_score <= SCORE_TOL:
            return converged(beta, u, iteration - 1, max_abs_score)

        curvature = (p if w is None else w * p) * (1.0 - p)
        info = xv.T @ (xv * curvature[:, None])
        cond = spd_condition(info)
        if not cond <= 1.0 / PIVOT_RTOL:
            raise SingularSystem(
                f"information condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}")
        step = np.linalg.solve(info, score)

        # step halving keeps the likelihood monotone near separation; if the
        # full step and MAX_HALVINGS halvings all lower it, one more is taken.
        # The current log-likelihood is formed only for a candidate that
        # fails both the slope and the score test
        loglik = None
        scale = 1.0
        for halving in range(MAX_HALVINGS + 2):
            candidate = beta + scale * step
            u_new, eu_new, p_new, score_new = evaluate(candidate)
            if (step @ score_new >= 0.0 or np.max(np.abs(score_new)) <= SCORE_TOL
                    or halving > MAX_HALVINGS):
                break
            if loglik is None:
                loglik = _log_likelihood(u, eu, y, w)
            if _log_likelihood(u_new, eu_new, y, w) >= loglik:
                break
            scale *= 0.5
        beta, u, eu, p, score = candidate, u_new, eu_new, p_new, score_new

        if float(np.max(np.abs(scale * step))) <= STEP_TOL:
            return converged(beta, u, iteration, float(np.max(np.abs(score))))

    failed = LogisticFit(beta, False, MAX_ITER, max_abs_score)
    if np.any(np.abs(beta) > SEPARATION_COEF):
        raise SeparationSuspected(
            f"no convergence after {MAX_ITER} iterations with max |coef| = "
            f"{np.max(np.abs(beta)):.2f}; data may be separated",
            fit=failed,
        )
    raise NoConvergence(
        f"no convergence after {MAX_ITER} iterations (max |score| = {max_abs_score:.3e})",
        fit=failed,
    )


def predict_proba(fit: LogisticFit, x) -> np.ndarray:
    """Elementwise expit(x @ coefficients), clamped to [1e-12, 1 - 1e-12].

    The clamp keeps downstream inverse-probability weights finite even for
    saturated linear predictors.
    """
    xv = _as_design(x)
    beta = np.asarray(fit.coefficients, dtype=float)
    if xv.shape[1] != beta.shape[0]:
        raise DimensionMismatch(
            f"design has {xv.shape[1]} columns but fit has {beta.shape[0]} coefficients"
        )
    return clamp_probability(expit(xv @ beta))


def spd_condition(a) -> float:
    """2-norm condition number of a symmetric matrix expected to be positive
    definite: the ratio of its extreme eigenvalues (``np.linalg.eigvalsh``),
    which equals ``np.linalg.cond`` there without an SVD. Infinite when the
    smallest eigenvalue is not positive or the eigenvalues cannot be found.
    """
    try:
        eig = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return np.inf
    return float(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf


def solve_linear(a, b) -> np.ndarray:
    """Solve a X = b with LAPACK (``np.linalg.solve``).

    Accepts a vector or matrix right-hand side and preserves its shape.
    Raises SingularSystem when ``a`` is singular or its condition number
    exceeds 1 / PIVOT_RTOL.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"coefficient matrix must be square, got {a.shape}")
    rhs = np.asarray(b, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs has shape {rhs.shape}, expected {a.shape[0]} rows")
    try:
        cond = np.linalg.cond(a)
        if not cond <= 1.0 / PIVOT_RTOL:
            raise SingularSystem(f"condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}")
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"singular coefficient matrix: {exc}") from None


def normal_quantile(p: float) -> float:
    """Standard normal quantile (Wichura's AS241, double precision)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    r = p if q < 0 else 1.0 - p
    r = np.sqrt(-np.log(r))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    value = num / den
    return float(-value if q < 0 else value)
