"""Foundational numerical routines.

Logistic-model fitting by iteratively reweighted least squares, its
eigenvalue condition check, the weighted Gram product X' diag(w) X that its
Newton step and the stack's model blocks share, and the stable logistic
function everything else consumes. All functions are pure; nothing here
holds state.

Designs are stored column by column (Fortran order): every per-row product
of an (n, k) design with a length-n vector then runs down contiguous
columns. Functions accept either order and convert a row-major design once.
X' diag(w) X is summed over blocks of GRAM_BLOCK_ROWS rows, so the weighted
copy it multiplies stays in cache; a design of at most that many rows takes
the single product x.T @ (x * w[:, None]). ``expit`` is the one logistic
kernel; its buffers, like every IRLS evaluation's, end with the call.
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
# a Newton candidate that moves no linear predictor by more than this raises
# the log-likelihood: below the root 1.7933 of e^M = 1 + M + M^2 (see
# fit_logistic), with at least 11% of the step's quadratic-model gain kept
SAFE_STEP_MOVE = 1.5

PIVOT_RTOL = 1e-12     # a condition number above 1 / PIVOT_RTOL is singular

# rows per block of X' diag(w) X: an (8192, 8) design block and its weighted
# copy take 1 MiB together, inside a 2 MiB L2 cache
GRAM_BLOCK_ROWS = 8192


def expit(u):
    """Logistic function 1 / (1 + exp(-u)), stable for large |u|.

    Scalar in, float out; array in, array out. One exponential per entry,
    eu = exp(-|u|), formed in place in one fresh buffer; it never overflows.
    The value max(eu, u >= 0) / (1 + eu), divided in place, is eu / (1 + eu)
    for u < 0 and 1 / (1 + eu) otherwise, bit for bit as 0 <= eu <= 1.
    """
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        return float(expit(arr.reshape(1))[0])
    eu = np.abs(arr)
    np.exp(np.negative(eu, out=eu), out=eu)
    p = np.maximum(eu, arr >= 0.0)
    eu += 1.0
    p /= eu
    return p


def clamp_probability(p):
    """Clip probabilities into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def with_intercept(*blocks: np.ndarray) -> np.ndarray:
    """An intercept column followed by ``blocks``, in order.

    Each block is an (n,) column or an (n, k) block. The values are written
    in place into one column-contiguous (Fortran-order) array.
    """
    blocks = [np.asarray(block, dtype=float).reshape(len(block), -1) for block in blocks]
    values = np.empty((len(blocks[0]), 1 + sum(b.shape[1] for b in blocks)), order="F")
    values[:, 0] = 1.0
    np.concatenate(blocks, axis=1, out=values[:, 1:])
    return values


def weighted_gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X' diag(w) X of an (n, k) design ``x`` and row weights ``w``, (k, k).

    Summed over blocks of GRAM_BLOCK_ROWS rows, block.T @ (block * w_block),
    the first assigned and the rest added in row order: the weighted copy is
    one block, not the whole design. At n <= GRAM_BLOCK_ROWS this is bitwise
    the single product x.T @ (x * w[:, None]).
    """
    rows = GRAM_BLOCK_ROWS
    gram = x[:rows].T @ (x[:rows] * w[:rows, None])
    for start in range(rows, len(x), rows):
        block = x[start:start + rows]
        gram += block.T @ (block * w[start:start + rows, None])
    return gram


@dataclass(frozen=True)
class LogisticFit:
    """Fitted logistic coefficients plus convergence diagnostics, and the
    unclamped ``probabilities`` p of the final evaluation: bitwise
    ``expit(x @ coefficients)`` on the fit's column-contiguous design."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    max_abs_score: float
    probabilities: np.ndarray


def _as_design(x) -> np.ndarray:
    """The design values, column-contiguous (a no-op for a design built by
    ``with_intercept``), checked: 2-d, at least as many rows as columns,
    every entry finite."""
    values = np.asarray(x, dtype=float)
    if values.ndim != 2:
        raise DimensionMismatch(f"design matrix must be 2-d, got ndim={values.ndim}")
    if values.shape[0] < values.shape[1]:
        raise DimensionMismatch(
            f"design matrix has more columns ({values.shape[1]}) than rows ({values.shape[0]})"
        )
    if not np.all(np.isfinite(values)):
        raise NonFiniteEvaluation("design matrix contains non-finite entries")
    return np.asfortranarray(values)


def _log_likelihood(u: np.ndarray, y: np.ndarray) -> float:
    # sum (y u - softplus(u)), softplus(u) = max(u, 0) + log1p(exp(-|u|))
    return float(np.sum(y * u - (np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))))))


def fit_logistic(x, y, start=None) -> LogisticFit:
    """Maximize the Bernoulli log-likelihood by Newton/IRLS steps.

    Parameters
    ----------
    x : array_like, shape (n, k)
    y : array_like of 0/1, length n
    start : array_like, shape (k,), optional
        Finite starting coefficients; None starts at beta = 0.

    Convergence is declared when the max absolute score drops to 1e-8 or the
    coefficient step max-norm drops to 1e-10.

    Each evaluation keeps only u = X beta, p = expit(u) and the score
    X'(y - p), which the next iteration reads; the final evaluation's p is
    returned as ``probabilities``. The start is one such evaluation. A
    Newton candidate is accepted when the slope of the log-likelihood along
    the step, step . score, is still nonnegative there (the log-likelihood
    is concave, so it rose all the way), when the
    candidate already passes the score test, when it moves no linear
    predictor by more than SAFE_STEP_MOVE, or else when its log-likelihood
    is no lower than the current one (formed only then).
    The third test is the generalized self-concordance of the logistic loss
    (Bach 2010, Electron. J. Statist. 4): for a step t d, 0 < t <= 1, along
    the Newton direction d and M = max_i |x_i' t d|, the log-likelihood
    rises by at least t d'score (1 - t (e^M - 1 - M) / M^2), which is
    positive while e^M < 1 + M + M^2, i.e. M < 1.7933.
    Otherwise the step is halved, which survives near-separation without
    oscillating; when the full step and 10 halvings all fail, the next
    halving is accepted.

    The Newton step checks the symmetric information's 2-norm condition
    number against 1 / PIVOT_RTOL, by ``spd_condition``.

    Raises
    ------
    DimensionMismatch
        A design that is not 2-d or has more columns than rows, a response
        of another length, or a start of another shape than (k,).
    NonFiniteEvaluation
        A non-finite entry in the design or the start.
    SingularSystem
        Information matrix is rank deficient: its smallest eigenvalue is
        not positive or its condition number exceeds 1e12.
    SeparationSuspected
        The converged iterate separates the data completely: every row has
        (2y - 1) x beta > 0, so no finite maximum exists (Albert & Anderson
        1984); or no convergence and some |coefficient| exceeds 30.
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

    def evaluate(beta):
        u = xv @ beta
        p = expit(u)
        return u, p, xv.T @ (y - p)

    def converged(beta, u, p, iterations, max_abs_score):
        if np.all((2.0 * y - 1.0) * u > 0.0):
            raise SeparationSuspected(
                f"the data are completely separated (max |coef| = "
                f"{np.max(np.abs(beta)):.2f} after {iterations} iterations); "
                "no finite maximum likelihood estimate exists",
                fit=LogisticFit(beta, False, iterations, max_abs_score, p),
            )
        return LogisticFit(beta, True, iterations, max_abs_score, p)

    beta = np.zeros(k) if start is None else np.array(start, dtype=float)
    if beta.shape != (k,):
        raise DimensionMismatch(f"start has shape {beta.shape}, expected ({k},)")
    if not np.all(np.isfinite(beta)):
        raise NonFiniteEvaluation("start contains non-finite entries")
    u, p, score = evaluate(beta)
    max_abs_score = np.inf

    for iteration in range(1, MAX_ITER + 1):
        max_abs_score = float(np.max(np.abs(score))) if k else 0.0
        if max_abs_score <= SCORE_TOL:
            return converged(beta, u, p, iteration - 1, max_abs_score)

        w = 1.0 - p
        w *= p
        info = weighted_gram(xv, w)
        del w  # not held through the candidate evaluations
        cond = spd_condition(info)
        if not cond <= 1.0 / PIVOT_RTOL:
            raise SingularSystem(
                f"information condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}")
        step = np.linalg.solve(info, score)

        # step halving keeps the likelihood monotone near separation; if the
        # full step and MAX_HALVINGS halvings all lower it, one more is taken.
        # The current log-likelihood is formed only for a candidate that
        # fails the slope, the score and the move test
        loglik = None
        scale = 1.0
        for halving in range(MAX_HALVINGS + 2):
            candidate = beta + scale * step
            u_new, p_new, score_new = evaluate(candidate)
            if (step @ score_new >= 0.0 or np.max(np.abs(score_new)) <= SCORE_TOL
                    or halving > MAX_HALVINGS
                    or np.max(np.abs(u_new - u)) <= SAFE_STEP_MOVE):
                break
            if loglik is None:
                loglik = _log_likelihood(u, y)
            if _log_likelihood(u_new, y) >= loglik:
                break
            scale *= 0.5
        beta, u, p, score = candidate, u_new, p_new, score_new

        if float(np.max(np.abs(scale * step))) <= STEP_TOL:
            return converged(beta, u, p, iteration, float(np.max(np.abs(score))))

    failed = LogisticFit(beta, False, MAX_ITER, max_abs_score, p)
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
