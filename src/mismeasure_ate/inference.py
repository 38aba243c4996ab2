"""Stacked estimating equations and empirical sandwich inference.

Every standard error of a frame, every delta-method blend and the s_opt
weight come from the joint sandwich covariance of one stack of estimating
equations. The stack is made of named blocks, each a group of parameters
with its per-subject estimating rows:

* ``gamma``: the treatment model (logistic score rows).
* ``eta0``: the constant selection probability, the validation share
  s = n_V / n (rows V - s); ``eta``: the fitted selection model (logistic
  score rows).
* ``rates``: the pairs of ``MisclassRates`` in order, one per group of
  ``frames.rate_groups``: (p11, p10) on the validated rows when pooled, and
  (p11_0, p10_0, p11_1, p10_1) within each treatment arm of them
  ("by_arm"). Each rate is a Hajek mean of Y* (rows w (Y* - p), weights
  not divided by any probability): p11 over the group's gold positives
  (w = Y), p10 over its gold negatives (w = 1 - Y).
* the weighted blocks, each holding the two arm means (m_c, m_t) of one
  outcome under the weights (w_c, w_t) of ``estimators.arm_weights``. Each
  is one row of ``BLOCKS``, (kind, outcome, rows, selection model):

  - kind: "ht" (Horvitz-Thompson) divides by n (rows w_a Y - m_a),
    "hajek" by the arm's weight (rows w_a (Y - m_a));
  - outcome: the frame attribute Y averaged, ``y`` (the gold outcome on
    every row), ``y_validated`` (the gold outcome, 0 off the validated
    rows) or ``y_star``;
  - rows: ``all``, ``validated`` (row factor V/pi) or ``complement`` (row
    factor (1-V)/(1-pi)), pi the probability of the selection model,
    ``eta0`` or ``eta``.

Every estimator is a smooth function g(theta) of the solved parameters.
``READS`` names the blocks it reads, each as the contrast m_t - m_c of an
HT block's arm means or as the misclassification-corrected contrast of a
Hajek block's (``estimators.corrected_contrast``), so a Hajek block has
the rates as a parent. A point is sum_k c_k g_k(theta)
with the blend coefficients c_k, and its SE the delta-method form
sqrt(grad' C grad) on the sandwich covariance C, grad = sum_k c_k grad g_k.

A block's rows read only its own parameters and its parents' (the models and
rates it is built on), so the stack is block lower-triangular: the joint
covariance of a block and its parents equals the sandwich of that sub-stack
alone (Stefanski & Boos 2002). A frame's stack therefore holds only the
blocks its requested estimators read, plus their parents. Without a
selection design the validation sample is treated as a simple random
sample: the fitted selection model is then the constant one, and each
fitted-selection block is its constant-selection twin. One walk of the
blocks solves and evaluates the stack (``solve_plugin``): each block, the
two logistic models included, solves its parameters by plug-in, then
writes from the same per-row arrays its per-subject residuals for the meat
and its rows of the Jacobian in closed form for the bread: logistic
information for the model blocks, and for the weighted rows (the rates
among them) their derivatives in their own parameters and, through the
weights of the arm means, in the fitted propensities: -w_t/e and
+w_c/(1-e) in e, and -w/pi (validated rows) or +w/(1-pi) (complement) in
pi, as for IPW with estimated propensities (Lunceford & Davidian 2004).
``EstimatingSystem.evaluate`` takes the same walk at a given theta. A
solved stack is theta, from which every point and the rates are read, and
the one covariance matrix of :func:`sandwich`, already on the variance scale
of the estimators (divided by n).

``analyze_frame`` is the one-stop orchestration used by both the Monte Carlo
runner and the CLI: it solves the frame's stack in that one walk, sandwiches
it once and reads each estimator's point and SE as g(theta) and the
quadratic form of its gradient. The one point not read from theta is the
IPW complement contrast of nonval_corrected and sy_combined, computed once
per frame; their SEs read r_const's corrected Hajek contrast (see
``analyze_frame``). ``estimators`` holds the arithmetic these share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import estimators as est
from .errors import (
    DegenerateValidation,
    EmptyArm,
    EmptyComplement,
    EmptyComplementArm,
    EmptyValidationArm,
    MismeasureError,
    MissingGoldOutcomes,
    NegativeVariance,
    NonFiniteEvaluation,
    ResidualCheckFailed,
    SingularSystem,
)
from .frames import ESTIMATOR_IDS, AteEstimate, MisclassRates, ObservationFrame, rate_groups
from .numerics import (
    PIVOT_RTOL,
    clamp_probability,
    expit,
    fit_logistic,
    weighted_gram,
    with_intercept,
)

RESIDUAL_TOL = 1e-6
NEGATIVE_VARIANCE_TOL = 1e-12  # a variance above -1e-12 is rounding, read as 0
Z_95 = NormalDist().inv_cdf(0.975)  # every interval is a 95% one

# block -> (kind, outcome, rows, selection model) (see the module
# docstring). A weighted block's rows read the treatment model gamma, its
# selection model and, for a Hajek block, the rates. Parents come first,
# which is the stacked order.
BLOCKS = {
    "gamma": ("treatment", None, None, None),
    "eta0": ("share", None, None, None),
    "eta": ("selection", None, None, None),
    "rates": ("rates", "y_star", None, None),
    "tau_oracle": ("ht", "y", "all", None),
    "tau_naive": ("ht", "y_star", "all", None),
    "tau_val": ("ht", "y_validated", "validated", "eta0"),
    "tau_s_val": ("ht", "y_validated", "validated", "eta"),
    "r_const": ("hajek", "y_star", "complement", "eta0"),
    "r_fit": ("hajek", "y_star", "complement", "eta"),
    "d": ("hajek", "y_star", "all", None),
}
# a weighted block's rows -> the error of a treatment arm of zero weight there
EMPTY_ARM = {"all": EmptyArm, "validated": EmptyValidationArm, "complement": EmptyComplementArm}

# estimator id -> the blocks whose contrasts its point and SE read
# (``StackedParams.contrast``). A blend weights its two contrasts with the
# coefficients analyze_frame gives it.
READS = {
    "oracle": ("tau_oracle",),
    "naive": ("tau_naive",),
    "val_only": ("tau_val",),
    "nonval_corrected": ("r_const",),
    "sy_combined": ("tau_val", "r_const"),
    "s_val_only": ("tau_s_val",),
    "s_nonval": ("r_fit",),
    "s_combined": ("tau_s_val", "r_fit"),
    "all_silver": ("d",),
    "s_weighted": ("tau_s_val", "d"),
    "s_opt": ("tau_s_val", "d"),
}


class EstimatingSystem:
    """Residuals and their Jacobian for one stack of named blocks.

    ``blocks`` names what the stack must hold; their parents are added, and
    under a simple random sample (``x_sel`` None) each fitted-selection block
    is replaced by its constant-selection twin (see ``resolve``). The
    treatment design defaults to an intercept plus every covariate.
    ``starts`` maps "gamma" and "eta" to the starting coefficients of the
    treatment and selection fits (``fit_logistic``'s ``start``); a model
    without one starts from zero.
    ``layout`` maps each block to its slice of the parameter vector, and
    ``evaluate`` gives the residuals and their Jacobian at a theta.
    Stateless after construction; safe to share across workers.
    """

    def __init__(self, frame: ObservationFrame, blocks, x_treat: np.ndarray | None = None,
                 x_sel: np.ndarray | None = None, misclassification: str = "pooled",
                 starts=None):
        self.frame = frame
        # designs are kept column-contiguous (see ``numerics``)
        self.x_treat = np.asfortranarray(with_intercept(frame.x) if x_treat is None else x_treat,
                                         dtype=float)
        self.x_sel = None if x_sel is None else np.asfortranarray(x_sel, dtype=float)
        self.misclassification = misclassification
        self.starts = dict(starts or {})
        self._alias = {}
        if x_sel is None:
            self._alias.update(eta="eta0", tau_s_val="tau_val", r_fit="r_const")
        self._designs = {"gamma": self.x_treat, "eta0": np.ones((frame.n, 1)),
                         "eta": self.x_sel}
        # (name, validated rows) of each (p11, p10) pair
        self._rate_groups = rate_groups(frame, misclassification)

        needed, pending = set(), [self.resolve(name) for name in blocks]
        while pending:
            name = pending.pop()
            if name not in needed:
                needed.add(name)
                pending.extend(self.parents(name))
        self.blocks = tuple(name for name in BLOCKS if name in needed)
        self.layout = {}
        pos = 0
        for name in self.blocks:
            if name in self._designs:  # a model's coefficients, or the share
                size = self._designs[name].shape[1]
            else:  # a pair of rates per group, or a weighted block's two arm means
                size = 2 * len(self._rate_groups) if name == "rates" else 2
            self.layout[name] = slice(pos, pos + size)
            pos += size
        self.dim = pos

    def resolve(self, name: str) -> str:
        """The block that stands for ``name`` in this stack."""
        return self._alias.get(name, name)

    def parents(self, name: str) -> list[str]:
        kind, _, _, sel = BLOCKS[name]
        if kind not in ("ht", "hajek"):
            return []
        found = ["gamma", sel] if sel else ["gamma"]
        return found + ["rates"] if kind == "hajek" else found

    def restrict(self, names) -> "EstimatingSystem":
        """The same stack holding only ``names`` (which must include their parents)."""
        return EstimatingSystem(self.frame, names, self.x_treat, self.x_sel,
                                self.misclassification, self.starts)

    def evaluate(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Per-subject residuals and their summed Jacobian at theta.

        Returns (phi, jacobian): the (n, dim) matrix whose row i is
        phi_i(theta), stored column by column (Fortran order) so that each
        block writes contiguous residual columns, and the (dim, dim) Jacobian
        of its column sums in closed form, in the walk ``solve_plugin`` takes.
        A model block's own rows give minus its logistic information, and
        the share row -n; a weighted row gives -n (HT) or minus the sum
        of its weights (Hajek, the rates included) in its own mean, and an
        arm mean's row moves with e and pi through its weight, each fitted
        probability moving by p(1-p)x per unit of its model's coefficients
        and the constant one by 1 per unit of the share. Where ``clamp_probability`` binds on a
        fitted probability, the clamped probability is constant, so its
        derivative is zero. The share is not clamped: it lies in (0, 1], and
        at 1 (every row validated) no block that divides by 1 - s has solved.
        """
        phi, jacobian, *_ = self._walk(np.asarray(theta, dtype=float))
        return phi, jacobian

    def _walk(self, theta: np.ndarray, solving: bool = False):
        """Walk the blocks in stacked order (see ``evaluate``). When
        ``solving``, each block first solves its parameters into theta by
        plug-in (the two models by ``fit_logistic``, from their ``starts``)
        and checks its residual mean after its rows; a block that fails, and
        every block built on it, is recorded in ``failed`` and its columns
        are left as they are, for ``solve_plugin`` to drop. Each block writes
        only its own columns, ``layout[name]``. A treatment-model fit that
        fails raises. The weighted blocks and the rates take one branch,
        which reads the block's row of ``BLOCKS``: their means, rows and
        derivatives differ only in the outcome, the normalization (n, or the
        sum of the weights) and the weights; only the arm means' weights move
        with e and pi. Returns (phi, jacobian, failed, e), e the clamped
        treatment propensities (None without a gamma block)."""
        frame = self.frame
        n = frame.n
        t, v, yv = frame.t, frame.v, frame.y_validated
        phi = np.empty((n, self.dim), order="F")
        jac = np.zeros((self.dim, self.dim))
        failed = {}
        raw, prob, slope = {}, {}, {}  # model block -> p, clamped p, d(clamped p)/d(x'par)

        def rows(name, cols):
            """Solve block ``name`` (when solving), then write its rows; its
            per-row arrays go when it returns, so one block's are held at a time."""
            kind, column, where, sel = BLOCKS[name]
            par, row = theta[cols], cols.start  # a view, which the plug-in writes through
            if kind == "share":
                # an intercept-only model with the identity link, unclamped
                if solving:
                    if frame.n_v == 0:
                        raise DegenerateValidation("no validated rows; the validation share is 0")
                    par[0] = frame.n_v / n
                raw[name] = prob[name] = self._designs[name] @ par
                slope[name] = np.ones(n)
                phi[:, row] = v - raw[name]
                jac[row, row] = -n
            elif kind in ("treatment", "selection"):
                design = self._designs[name]
                if solving:
                    fit = fit_logistic(design, t if kind == "treatment" else v,
                                       start=self.starts.get(name))
                    par[:], raw[name] = fit.coefficients, fit.probabilities
                else:
                    raw[name] = expit(design @ par)
                prob[name] = clamp_probability(raw[name])
                info = raw[name] * (1.0 - raw[name])
                slope[name] = np.where(prob[name] == raw[name], info, 0.0)
                # the score rows (y - p) x, written in place
                np.multiply(((t if kind == "treatment" else v) - raw[name])[:, None], design,
                            out=phi[:, cols])
                jac[cols, cols] = -weighted_gram(design, info)
            else:
                # weighted means of one outcome, two per rate group or block.
                # The rates are Hajek means of Y*: each group's (p11, p10)
                # over its gold positives (weight Y) and its gold negatives
                # (1-Y). A block's arm means (m_c, m_t) are divided by n (HT)
                # or by the arm's weight (Hajek), over its rows
                hajek, outcome = kind != "ht", getattr(frame, column)
                if kind == "rates":
                    weights = [w for _, counted in self._rate_groups
                               for w in (yv * counted, (1.0 - yv) * counted)]
                else:
                    e = prob["gamma"]
                    if solving and np.any(np.isnan(outcome)):
                        raise MissingGoldOutcomes(f"{name} needs its outcome on every row")
                    in_rows = share = None
                    if where == "validated":
                        in_rows, share = v, prob[sel]
                    elif where == "complement":
                        if solving and frame.n_v == n:
                            raise EmptyComplement("every row is validated; the complement is empty")
                        in_rows, share = 1.0 - v, 1.0 - prob[sel]
                    w_t, w_c = est.arm_weights(t, e, in_rows, share)
                    weights = (w_c, w_t)
                totals = [float(np.sum(w)) for w in weights]
                if solving and 0.0 in totals:
                    if kind == "rates":  # the first group without both gold classes
                        k = totals.index(0.0) // 2
                        raise DegenerateValidation(
                            f"{self._rate_groups[k][0]} validation rows contain "
                            f"{int(totals[2 * k])} gold positives and "
                            f"{int(totals[2 * k + 1])} gold negatives")
                    raise EMPTY_ARM[where](f"{name}: a treatment arm of its rows has zero weight")
                norms = totals if hajek else (n, n)
                # the rows' weighted terms, w (Y - m) (Hajek) or w Y (HT,
                # whose rows subtract m once the derivatives are taken)
                terms = phi[:, cols]
                for k, w in enumerate(weights):
                    np.multiply(w, outcome, out=terms[:, k])
                    if solving:
                        par[k] = float(np.sum(terms[:, k])) / norms[k]
                    jac[row + k, row + k] = -norms[k]
                if solving and kind == "rates":
                    # NonIdentifiable for a pair too close to identify; theta
                    # takes the checked pairs, which the corrected contrasts
                    # read, so the residual check tests those
                    par[:] = np.ravel(MisclassRates(np.reshape(par, (-1, 2))).pairs)
                if hajek:
                    for k, w in enumerate(weights):
                        np.multiply(w, outcome - par[k], out=terms[:, k])
                if kind == "rates":  # no parent model
                    return
                # the rule's derivatives in p: +w_c/(1-e) and -w_t/e in e, and
                # -w/pi (validated rows) or +w/(1-pi) (complement) in pi, each
                # taken to its model's coefficients by one (n, 2) product; they
                # are column-ordered like terms, which keeps that product fast
                d_prob = {"gamma": terms / np.array((1.0 - e, -e)).T}
                if sel:
                    d_prob[sel] = terms / (share if where == "complement" else -share)[:, None]
                for model, d in d_prob.items():
                    d *= slope[model][:, None]
                    jac[cols, self.layout[model]] += d.T @ self._designs[model]
                if not hajek:
                    terms -= par

        for name in self.blocks:
            parent = next((p for p in self.parents(name) if p in failed), None)
            if parent is not None:
                failed[name] = failed[parent]
                continue
            cols = self.layout[name]
            try:
                rows(name, cols)
            except MismeasureError as exc:  # only the plug-in raises
                if BLOCKS[name][0] == "treatment":  # no estimator stands without it
                    raise
                failed[name] = exc
                continue
            if solving:
                worst = float(np.max(np.abs(phi[:, cols].sum(axis=0) / n)))
                if worst > RESIDUAL_TOL:
                    failed[name] = ResidualCheckFailed(
                        f"{name} residual mean max-norm {worst:.3e} exceeds {RESIDUAL_TOL:.0e}")
        return phi, jac, failed, prob.get("gamma")


def build_system(frame: ObservationFrame, estimator_ids=ESTIMATOR_IDS, *, x_treat=None,
                 x_sel=None, misclassification: str = "pooled",
                 starts=None) -> EstimatingSystem:
    """The stack that the SEs of ``estimator_ids`` read (see ``READS``).

    ``x_treat`` is the treatment-model design (``EstimatingSystem``'s
    default when None) and ``x_sel`` the selection-model design; None treats
    the validation sample as a simple random sample (constant selection
    probability).
    ``misclassification`` picks one pooled pair of rate means or one
    pair per arm, and ``starts`` the two fits' starting coefficients.
    """
    unknown = [i for i in estimator_ids if i not in READS]
    if unknown:
        raise ValueError(f"unknown estimator ids: {unknown}")
    blocks = {name for est_id in estimator_ids for name in READS[est_id]}
    return EstimatingSystem(frame, blocks, x_treat, x_sel, misclassification, starts)


@dataclass(frozen=True)
class StackedParams:
    """Plug-in solution of a stack.

    ``system`` is the stack restricted to the blocks that solved and
    ``theta`` their parameters, from which every point estimate is read;
    ``phi`` and ``jacobian`` are that stack's residuals and Jacobian at
    theta, as ``EstimatingSystem.evaluate`` gives them, which the sandwich
    reads. ``failed`` maps every other block to the error that stopped it or
    one of its parents; reading such a block (``block``, ``contrast``)
    raises that error. ``e`` is the clamped treatment propensity the walk
    fitted (None without a gamma block).
    """

    system: EstimatingSystem
    theta: np.ndarray
    phi: np.ndarray
    jacobian: np.ndarray
    failed: dict[str, MismeasureError]
    e: np.ndarray | None

    @functools.cached_property
    def rates(self) -> MisclassRates | None:
        """The solved misclassification rates, theta's ``rates`` block as
        (p11, p10) pairs (None unless that block solved)."""
        cols = self.system.layout.get("rates")
        return None if cols is None else MisclassRates(np.reshape(self.theta[cols], (-1, 2)))

    def block(self, name: str) -> np.ndarray:
        """Parameters of block ``name`` (resolved as the stack resolves it);
        a failed block raises its error."""
        name = self.system.resolve(name)
        if name in self.failed:
            raise self.failed[name]
        return self.theta[self.system.layout[name]]

    def contrast(self, name: str) -> tuple[float, np.ndarray]:
        """g(theta) of block ``name``'s arm means (m_c, m_t) and its gradient
        over theta: m_t - m_c of an HT block, and of a Hajek block their
        misclassification-corrected contrast at the solved rates. A failed
        block raises its error."""
        m_c, m_t = self.block(name).tolist()
        name = self.system.resolve(name)
        cols = self.system.layout[name]
        gradient = np.zeros(self.system.dim)
        if BLOCKS[name][0] == "ht":
            gradient[cols] = -1.0, 1.0
            return m_t - m_c, gradient
        partials = est.corrected_contrast_gradient(self.rates, m_t, m_c)
        gradient[cols], gradient[self.system.layout["rates"]] = partials[:2], partials[2:]
        return est.corrected_contrast(self.rates, m_t, m_c), gradient


def solve_plugin(system: EstimatingSystem) -> StackedParams:
    """Fill the stacked parameters of ``system`` on its frame by sequential
    plug-in, verify them and evaluate the stack, in one walk of its blocks.

    gamma comes from full-sample ML of the treatment model, eta0
    is the validation share (DegenerateValidation without validated rows),
    eta comes from ML of the selection model (each fit from the system's
    ``starts``; the maximum is the same), each pair of rates from the
    Y* means of its group's gold positives and negatives (pooled or per
    arm, as the system says): DegenerateValidation when a group lacks
    either, then NonIdentifiable (``MisclassRates``) when a pair is closer
    than 1e-6; and each weighted block's (m_c, m_t) from its weighted arm
    sums: MissingGoldOutcomes when its outcome holds a NaN (the gold y off
    the validated rows), EmptyComplement when its rows are the complement
    and every row is validated, then for an arm of zero weight the class of
    its rows (``EMPTY_ARM``). A block whose plug-in raises a MismeasureError,
    or whose residual mean exceeds 1e-6 in max norm (ResidualCheckFailed),
    is left out together with every block built on it. This is the one
    place that drops a failed block's columns: ``system`` is restricted to
    the blocks that solved, and theta, the columns of phi (kept column by
    column) and the rows and columns of the Jacobian are taken at theirs, in
    one step; when every block solved, nothing is copied. A treatment-model
    fit that fails raises; a stack without gamma fits no treatment model.
    """
    theta = np.empty(system.dim)
    phi, jacobian, failed, e = system._walk(theta, solving=True)
    solved = system
    if failed:
        solved = system.restrict([name for name in system.blocks if name not in failed])
        keep = [i for name in solved.blocks for i in range(system.dim)[system.layout[name]]]
        theta, jacobian = theta[keep], jacobian[np.ix_(keep, keep)]
        phi = np.asfortranarray(phi[:, keep])
    return StackedParams(solved, theta, phi, jacobian, failed, e)


def sandwich(params: StackedParams) -> np.ndarray:
    """Empirical sandwich covariance A^-1 B A^-T / n at the plug-in solution,
    on the variance scale of the stacked parameters, in the order of
    ``params.theta``; a parameter's SE is the square root of its diagonal.

    Reads the evaluation ``solve_plugin`` stored and walks nothing: the
    bread A is ``params.jacobian`` divided by -n; the meat B is the mean
    outer product of the rows of ``params.phi``, formed as phi^T phi / n on
    its column-contiguous columns, then scaled as the bread's rows are
    (no scaled copy of phi); A^-1 B A^-T takes two linear solves
    (``np.linalg.solve``) after one check of the scaled bread's 2-norm
    condition number. The result is symmetrized as (C + C^T)/2.
    NonFiniteEvaluation when the residuals or the bread are not finite;
    SingularSystem when the bread is singular or its condition number
    exceeds 1 / PIVOT_RTOL; NegativeVariance when a parameter's variance is
    negative beyond rounding (the rule of every SE, ``_standard_error``).
    """
    n = params.phi.shape[0]
    bread = -params.jacobian / n
    if not (np.all(np.isfinite(bread)) and np.all(np.isfinite(params.phi))):
        raise NonFiniteEvaluation("stacked residuals or their Jacobian are not finite")
    # the sandwich is invariant to rescaling any estimating equation; scaling
    # each to unit max-norm in the bread keeps blocks of different magnitude
    # (a nearly separated selection fit next to the tau rows) from reading
    # as a singular system
    row_max = np.max(np.abs(bread), axis=1)
    scale = 1.0 / np.where(row_max > 0.0, row_max, 1.0)
    bread = bread * scale[:, None]
    meat = params.phi.T @ params.phi
    meat *= scale[:, None] * (scale / n)
    # one condition check serves both solves, which share the bread
    try:
        cond = np.linalg.cond(bread)
        if not cond <= 1.0 / PIVOT_RTOL:
            raise SingularSystem(f"condition number {cond:.3e} exceeds {1.0 / PIVOT_RTOL:.0e}")
        cov = np.linalg.solve(bread, np.linalg.solve(bread, meat).T) / n
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"singular coefficient matrix: {exc}") from None
    cov = 0.5 * (cov + cov.T)
    _standard_error(np.diag(cov))  # NegativeVariance for a parameter's variance
    return cov


def _standard_error(variance):
    """The square root of a variance, or of an array of them: a negative
    one above -NEGATIVE_VARIANCE_TOL is rounding and reads as 0; below it,
    NegativeVariance."""
    if (variance < -NEGATIVE_VARIANCE_TOL).any():
        raise NegativeVariance(f"negative variance {float(np.min(variance)):.3e}")
    return np.sqrt(np.maximum(variance, 0.0))


def combine_delta(covariance: np.ndarray, gradient: np.ndarray) -> float:
    """SE sqrt(grad' C grad) of a smooth function of the stacked parameters
    whose gradient at the solution is ``gradient``, C the ``covariance``
    that ``sandwich`` gives.

    First-order delta method on the sandwich covariance C; a blend's
    gradient is its fixed coefficients times its contrasts' gradients. A
    negative variance follows the rule of every SE (``_standard_error``).
    """
    return float(_standard_error(gradient @ covariance @ gradient))


def confidence_interval(point: float, se: float) -> tuple[float, float]:
    """Normal-theory 95% interval point +/- z_0.975 * se."""
    if se < 0:
        raise ValueError("se must be nonnegative")
    return point - Z_95 * se, point + Z_95 * se


# --- frame-level orchestration ------------------------------------------------

@dataclass
class FrameAnalysis:
    """Everything ``analyze_frame`` produced for one dataset.

    ``failures`` holds estimators whose point estimate could not be computed;
    ``se_failures`` holds estimators whose point estimate exists but whose
    sandwich SE could not be obtained. Reasons are error class names.
    """

    estimates: dict[str, AteEstimate] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    se_failures: dict[str, str] = field(default_factory=dict)
    rates: MisclassRates | None = None


def analyze_frame(frame: ObservationFrame, estimator_ids, *, x_treat=None, x_sel=None,
                  w: float = 0.5, b: float | None = None,
                  misclassification: str = "pooled", starts=None) -> FrameAnalysis:
    """Compute requested estimators with sandwich SEs and 95% CIs on one frame.

    ``x_sel`` is the selection-model design matrix; pass None when the
    validation sample is (treated as) a simple random sample, in which case
    the selection propensity is the validation share n_V / n (the ``eta0``
    block). The estimators that ignore selection weighting read the
    constant-selection blocks regardless of ``x_sel``.

    ``b`` is the fixed weight of the non-optimal blend of s_val_only and
    all_silver; None (the default) weights them proportionally to the
    validation and full sample sizes, b = n_V / n, matching the convention
    the w = 0.5 blend uses for its two pieces.

    ``misclassification`` is "pooled" (one (p11, p10) over every validated
    row) or "by_arm" (rates estimated and applied within each treatment arm,
    for misclassification that depends on treatment); every rate-consuming
    estimator and its blocks follow it.

    ``starts`` maps "gamma" and "eta" to starting coefficients of the
    treatment and selection fits, on the columns of x_treat and x_sel; a
    fit without one starts from zero. It moves no result beyond the fits'
    convergence tolerance.

    The frame's stack is built from the requested ids, solved and evaluated
    in one walk, and sandwiched once. Each point is sum_k c_k g_k(theta)
    over the blocks it reads (``READS``), g_k the contrast of a block's arm
    means, corrected for misclassification when the block is Hajek
    (``StackedParams.contrast``), and its SE the quadratic form of
    sum_k c_k grad g_k on the covariance (``combine_delta``). The
    coefficients c_k are 1 for a single contrast, (lam, 1 - lam) for
    sy_combined, (n_V/n, (n - n_V)/n) for s_combined, (b, 1 - b) for
    s_weighted and (b_opt, 1 - b_opt) for s_opt, with b_opt from the
    variances and covariance of its two contrasts.
    nonval_corrected and sy_combined take the IPW complement contrast
    normalized by n - n_V in place of r_const's corrected Hajek (ratio)
    complement contrast, which their SEs read; the two contrasts differ.
    It is computed once per frame, from the fitted e and the solved rates.

    A point exists exactly when the blocks it reads have solved. Otherwise
    its reason is the error of the first failed block in ``READS`` order;
    after that come its blend weight's own errors (w or b outside [0, 1],
    sy_combined's weight on an empty piece, and for s_opt a failed
    sandwich). An SE fails only when the sandwich or the delta method
    fails. Failures are recorded by reason and never abort the remaining
    estimators; a failed treatment-model fit raises.
    """
    ids = list(estimator_ids)
    system = build_system(frame, ids, x_treat=x_treat, x_sel=x_sel,
                          misclassification=misclassification, starts=starts)
    params = solve_plugin(system)
    cov = se_error = None
    if params.system.dim:
        try:
            cov = sandwich(params)
        except MismeasureError as exc:
            se_error = exc

    n, n_v = frame.n, frame.n_v

    def blend(est_id, gradients):
        """(coefficients of the contrasts with ``gradients``, reported weight)."""
        if est_id == "sy_combined":
            lam = est.sy_combined_weight(n, n_v, w)
            return (lam, 1.0 - lam), w
        if est_id == "s_combined":
            return (n_v / n, (n - n_v) / n), None
        if est_id == "s_weighted":
            b_used = est.unit_weight("b", n_v / n if b is None else b)
            return (b_used, 1.0 - b_used), b_used
        if est_id == "s_opt":
            if cov is None:
                raise se_error
            g_a, g_b = gradients
            b_opt = est.compute_b_opt(float(g_a @ cov @ g_a), float(g_b @ cov @ g_b),
                                      float(g_a @ cov @ g_b))
            return (b_opt, 1.0 - b_opt), b_opt
        return (1.0,), None

    complement = None
    if "r_const" in params.system.layout:
        # the IPW complement contrast of nonval_corrected and sy_combined,
        # which no block holds yet, in place of r_const's corrected Hajek
        # contrast that their SEs read
        w_t, w_c = est.arm_weights(frame.t, params.e, 1.0 - frame.v)
        m = float(n - n_v)
        complement = est.corrected_contrast(params.rates, float(np.sum(w_t * frame.y_star)) / m,
                                            float(np.sum(w_c * frame.y_star)) / m)

    contrast = functools.cache(params.contrast)  # blends share their parts
    analysis = FrameAnalysis(rates=params.rates)
    for est_id in (i for i in ESTIMATOR_IDS if i in ids):
        try:
            parts, gradients = zip(*map(contrast, READS[est_id]))
            coefficients, weight = blend(est_id, gradients)
        except MismeasureError as exc:
            analysis.failures[est_id] = type(exc).__name__
            continue
        if est_id in ("nonval_corrected", "sy_combined"):
            parts = (*parts[:-1], complement)
        tau = sum(c * part for c, part in zip(coefficients, parts))
        try:
            if cov is None:
                raise se_error
            se = combine_delta(cov, sum(c * g for c, g in zip(coefficients, gradients)))
        except MismeasureError as exc:
            analysis.se_failures[est_id] = type(exc).__name__
            analysis.estimates[est_id] = AteEstimate(est_id, tau, weight_used=weight)
            continue
        low, high = confidence_interval(tau, se)
        analysis.estimates[est_id] = AteEstimate(est_id, tau, se, low, high, weight)
    return analysis
