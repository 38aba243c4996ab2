"""Data generation, validation-sample selection, and the Monte Carlo runner.

Reproducibility contract: every random quantity in a scenario is a pure
function of (base_seed, purpose). Iteration i draws from a generator seeded
with ``child_seed(base_seed, i)``; intercept calibration and the true-effect
oracle use reserved purpose indices far above any iteration count. Results
are therefore bit-identical across runs and across worker counts, and
aggregation reduces per-iteration records in iteration order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import CalibrationFailed, MismeasureError, TooManyFailures
from .frames import ESTIMATOR_IDS, MISCLASSIFICATION_MODES, ModelSpec, ObservationFrame
from .inference import analyze_frame
from .numerics import GRAM_BLOCK_ROWS, clamp_probability, expit, fit_logistic
from . import estimators as est

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# reserved purpose indices, far outside any plausible iteration range
CALIBRATION_STREAM = (1 << 62) + 1
TRUTH_STREAM = (1 << 62) + 2

DEFAULT_SEED = 20240501

# intercept calibration: rows of the calibration population, the accepted
# gap |E[n_V] - target_nv|, and the bisection steps before giving up
CALIBRATION_N = 200_000
CALIBRATION_TOLERANCE = 1.0
CALIBRATION_STEPS = 200

# rows per chunk of a streamed covariate draw (``draw_covariates``): a chunk
# of a few covariates stays in cache while it is reduced to its predictors;
# the Bernoulli draws over those predictors (``_bernoulli``) take the same
# chunks, so they make no temporary of a whole predictor's size
DRAW_CHUNK_ROWS = GRAM_BLOCK_ROWS

# run_scenario raises when an estimator fails in more than this share of
# iterations
MAX_FAILURE_SHARE = 0.01

# report order mirrors the main results table
TABLE_ESTIMATORS = (
    "oracle", "val_only", "sy_combined", "s_combined",
    "s_val_only", "all_silver", "s_weighted", "s_opt",
)


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche mix of its input."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def child_seed(base_seed: int, index: int) -> int:
    """Counter-based child seed: mix(base + (index + 1) * golden gamma).

    Depends only on (base_seed, index), so serial and parallel execution
    derive identical streams.
    """
    return splitmix64((base_seed + (index + 1) * _GOLDEN) & MASK64)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class DgpConfig:
    """Complete-data generating process.

    Covariates are iid standard normal; the treatment and outcome models are
    logistic with the given coefficient vectors (intercept first; the outcome
    model's second coefficient multiplies the treatment indicator). The
    error-prone outcome flips the gold outcome according to (p11, p10), or to
    p10(T) = expit(h0 + h1*T) when ``heterogeneous_misclass`` = (h0, h1).
    """

    n: int = 5000
    treatment_coefs: tuple = (0.8, 0.3, 0.3, 0.3, 0.3, 0.3)
    outcome_coefs: tuple = (-3.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    p11: float = 0.67
    p10: float = 0.24
    heterogeneous_misclass: tuple | None = None

    def __post_init__(self):
        if len(self.outcome_coefs) != len(self.treatment_coefs) + 1:
            raise ValueError("outcome_coefs must have one more entry than treatment_coefs")
        for name in ("p11", "p10"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.heterogeneous_misclass is not None and (
                len(self.heterogeneous_misclass) != 2
                or not all(math.isfinite(h) for h in self.heterogeneous_misclass)):
            raise ValueError("heterogeneous_misclass must be two finite numbers (h0, h1), "
                             f"got {list(self.heterogeneous_misclass)}")

    @property
    def p(self) -> int:
        return len(self.treatment_coefs) - 1


@dataclass(frozen=True)
class SelectionConfig:
    """How the validation sample is drawn.

    ``alpha0`` is the selection-model coefficient vector over
    (1, T, X1..Xp); its intercept slot is recalibrated by bisection to hit
    ``target_nv`` in expectation. ``misspecify_drop`` (1-based covariate
    index) removes that covariate from the analyst's covariate set, i.e.
    from the *fitted* selection and treatment propensity models
    (``ScenarioConfig.model_spec``); data generation is unchanged and the
    oracle benchmark keeps the full treatment model.
    """

    kind: str = "srs"
    target_nv: int = 850
    alpha0: tuple | None = None
    misspecify_drop: int | None = None

    def __post_init__(self):
        if self.kind not in ("srs", "non_probability"):
            raise ValueError(f"selection kind must be 'srs' or 'non_probability', got {self.kind!r}")
        if self.kind == "non_probability" and self.alpha0 is None:
            raise ValueError("non_probability selection needs an alpha0 vector")
        if self.kind == "srs" and self.alpha0 is not None:
            raise ValueError(f"srs selection takes no alpha0, got {list(self.alpha0)}")
        if self.target_nv < 1:
            raise ValueError("target_nv must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """One Monte Carlo study: the data-generating process, the validation
    selection, and the analyst's choices. ``misclassification`` says how the
    analysis counts the misclassification rates, "pooled" or "by_arm" (see
    ``analyze_frame``); it is the analyst's side, like the covariates that
    ``SelectionConfig.misspecify_drop`` removes."""

    name: str
    dgp: DgpConfig
    selection: SelectionConfig
    estimators: tuple = TABLE_ESTIMATORS
    iterations: int = 1000
    base_seed: int = DEFAULT_SEED
    truth: float | None = None
    truth_populations: int = 100
    w: float = 0.5
    b: float | None = None  # None: size-proportional blend weight n_V / n
    misclassification: str = "pooled"

    def __post_init__(self):
        for name in ("iterations", "truth_populations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.misclassification not in MISCLASSIFICATION_MODES:
            raise ValueError(f"misclassification must be one of {MISCLASSIFICATION_MODES}, "
                             f"got {self.misclassification!r}")
        if not self.estimators:
            raise ValueError("estimators must name at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_IDS]
        if unknown:
            raise ValueError(f"unknown estimators: {unknown}")
        for k, est_id in enumerate(self.estimators):
            if est_id in self.estimators[:k]:
                raise ValueError(f"estimator {est_id!r} is named twice")
        for name in ("w", "b"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.truth is not None and not math.isfinite(self.truth):
            raise ValueError(f"truth must be a finite number, got {self.truth}")
        p, selection = self.dgp.p, self.selection
        if selection.target_nv >= self.dgp.n:
            # every row would be validated, leaving no complement
            raise ValueError(f"target_nv must be below n = {self.dgp.n}, "
                             f"got {selection.target_nv}")
        if selection.kind == "non_probability" and len(selection.alpha0) != p + 2:
            raise ValueError(f"alpha0 must have {p + 2} entries (intercept, T, x1..x{p}), "
                             f"got {len(selection.alpha0)}")
        if selection.misspecify_drop is not None and not 1 <= selection.misspecify_drop <= p:
            raise ValueError(f"misspecify_drop must name a covariate 1..{p}, "
                             f"got {selection.misspecify_drop}")

    @property
    def model_spec(self) -> ModelSpec:
        """The analyst's models: both read x1..xp less the
        ``selection.misspecify_drop`` column, and srs selection has no
        selection model."""
        names = tuple(f"x{j}" for j in range(1, self.dgp.p + 1)
                      if j != self.selection.misspecify_drop)
        return ModelSpec(names, None if self.selection.kind == "srs" else names)


@dataclass(frozen=True)
class Population:
    """Complete simulated data, before any validation selection."""

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    y_star: np.ndarray


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """(start, stop) ranges of DRAW_CHUNK_ROWS rows covering range(n), a
    last range of one row joined to the one before: numpy forms a one-row
    product x @ c as a dot product, which may round differently from the
    matrix-vector product of the whole x."""
    bounds = list(range(0, n, DRAW_CHUNK_ROWS)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _chunk_predictors(n: int, p: int, coefs, fill) -> np.ndarray:
    """The linear predictors x @ c, c in ``coefs``, of an (n, p) matrix x
    that ``fill(chunk, start, stop)`` writes chunk by chunk into one
    row-major buffer, as the rows of a (len(coefs), n) array. Each is
    bitwise the product of a row-major x (under one BLAS thread)."""
    coefs = [np.asarray(c, dtype=float) for c in coefs]
    chunks = _row_chunks(n)
    buffer = np.empty((max(stop - start for start, stop in chunks), p))
    predictors = np.empty((len(coefs), n))
    for start, stop in chunks:
        chunk = buffer[:stop - start]
        fill(chunk, start, stop)
        for row, c in zip(predictors, coefs):
            np.matmul(chunk, c, out=row[start:stop])
    return predictors


def draw_covariates(n: int, p: int, rng: np.random.Generator, coefs,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The linear predictors x @ c, c in ``coefs``, of n rows of p iid
    standard-normal covariates x, drawn DRAW_CHUNK_ROWS rows at a time (the
    stream of one ``rng.standard_normal((n, p))`` draw, bit for bit) and
    reduced while in cache. Each chunk is also written to ``out``, an (n, p)
    array of either order, when given; otherwise no covariate is kept."""
    def fill(chunk, start, stop):
        rng.standard_normal(out=chunk)
        if out is not None:
            out[start:stop] = chunk
    return _chunk_predictors(n, p, coefs, fill)


def _bernoulli(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """1.0 where a uniform falls below expit(u), else 0.0, written over u
    one ``_row_chunks`` chunk at a time; the chunks' uniforms are the values
    of one ``rng.random(len(u))`` draw, bit for bit, so only chunk-sized
    temporaries are made."""
    for start, stop in _row_chunks(len(u)):
        chunk = u[start:stop]
        np.less(rng.random(stop - start), expit(chunk), out=chunk)
    return u


def _treatment(u: np.ndarray, dgp: DgpConfig, rng: np.random.Generator) -> np.ndarray:
    """The treatment from u = x @ c, c = treatment_coefs[1:], shifted in
    place by the intercept and written over u."""
    u += dgp.treatment_coefs[0]
    return _bernoulli(u, rng)


def _gold_outcome(u: np.ndarray, t: np.ndarray, dgp: DgpConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """The gold outcome from u = x @ c, c = outcome_coefs[2:], shifted in
    place by c0 + c1 t chunk by chunk and written over u."""
    for start, stop in _row_chunks(len(u)):
        shift = dgp.outcome_coefs[1] * t[start:stop]
        shift += dgp.outcome_coefs[0]
        u[start:stop] += shift
    return _bernoulli(u, rng)


def draw_gold_data(dgp: DgpConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of ``generate_population`` before the misclassification:
    covariates x (``draw_covariates``), the treatment t, 1.0 where a uniform
    falls below expit(c0 + x @ c), then the gold outcome y from its
    uniforms, each formed in place."""
    x = np.empty((dgp.n, dgp.p))
    u_t, u_y = draw_covariates(dgp.n, dgp.p, rng,
                               (dgp.treatment_coefs[1:], dgp.outcome_coefs[2:]), out=x)
    t = _treatment(u_t, dgp, rng)
    return x, t, _gold_outcome(u_y, t, dgp, rng)


def draw_treatment_design(dgp: DgpConfig,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The truth oracle's first draws, the covariates and treatment of
    ``generate_population``, with the covariates written straight into the
    column-major treatment design [1, x] (``numerics.with_intercept``'s
    layout)."""
    design = np.empty((dgp.n, dgp.p + 1), order="F")
    design[:, 0] = 1.0
    (u,) = draw_covariates(dgp.n, dgp.p, rng, (dgp.treatment_coefs[1:],), out=design[:, 1:])
    return design, _treatment(u, dgp, rng)


def draw_outcome(dgp: DgpConfig, x: np.ndarray, t: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """The gold outcome of ``generate_population`` from its covariates x,
    in either order (read back in row-major chunks), and treatment t."""
    (u,) = _chunk_predictors(*x.shape, (dgp.outcome_coefs[2:],),
                             lambda chunk, start, stop: np.copyto(chunk, x[start:stop]))
    return _gold_outcome(u, t, dgp, rng)


def generate_population(dgp: DgpConfig, rng: np.random.Generator) -> Population:
    """Draw one complete dataset. Draw order (fixed for reproducibility):
    covariates, treatment uniforms, outcome uniforms (``draw_gold_data``),
    misclassification uniforms."""
    x, t, y = draw_gold_data(dgp, rng)
    p10 = dgp.p10
    if dgp.heterogeneous_misclass is not None:
        h0, h1 = dgp.heterogeneous_misclass
        p10 = expit(h0 + h1 * t)
    y_star = np.where(y == 1.0, dgp.p11, p10)
    np.less(rng.random(dgp.n), y_star, out=y_star)
    return Population(x=x, t=t, y=y, y_star=y_star)


def selection_probabilities(selection: SelectionConfig, n: int, t: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    if selection.kind == "srs":
        return np.full(n, selection.target_nv / n)
    alpha = np.asarray(selection.alpha0, dtype=float)
    design = np.column_stack([np.ones(n), t, x])
    if design.shape[1] != alpha.shape[0]:
        raise ValueError(
            f"alpha0 has {alpha.shape[0]} entries but the selection design has {design.shape[1]} columns"
        )
    return expit(design @ alpha)


def calibrate_intercept(dgp: DgpConfig, selection: SelectionConfig,
                        rng: np.random.Generator) -> float:
    """Bisection on the selection intercept so E[n_V] hits target_nv.

    The expectation is evaluated on the covariates and treatments of one
    large calibration population (CALIBRATION_N rows), drawn as
    ``generate_population`` draws them, and scaled to the scenario's n; the
    bracket is [-20, 20]. No covariate is kept: each drawn chunk is reduced
    to the treatment predictor and the selection slopes' predictor x a_x
    (``draw_covariates``), and the treatment is drawn over its predictor
    chunk by chunk (``_bernoulli``), so the calibration holds these two
    rows of CALIBRATION_N floats and only chunk-sized temporaries. Each
    row's odds factor exp(-(t a_T + x a_x)) is then formed in place, once,
    so a probe a takes no exponential per row: mean(1 / (1 + exp(-a) *
    odds)) * n, formed in one buffer reused by every probe, where an odds
    product that overflows to inf gives the exact limit 0.
    """
    if selection.kind == "srs":
        raise ValueError("srs selection has no intercept to calibrate")
    slopes = np.asarray(selection.alpha0, dtype=float)[1:]
    u, odds = draw_covariates(CALIBRATION_N, dgp.p, rng, (dgp.treatment_coefs[1:], slopes[1:]))
    t = _treatment(u, dgp, rng)  # written over u
    t *= slopes[0]
    odds += t
    with np.errstate(over="ignore"):
        np.exp(np.negative(odds, out=odds), out=odds)
    probe = t  # free once added to the odds

    def expected_nv(intercept: float) -> float:
        with np.errstate(over="ignore"):
            np.multiply(odds, np.exp(-intercept), out=probe)
        np.add(probe, 1.0, out=probe)
        np.divide(1.0, probe, out=probe)
        return float(np.mean(probe)) * dgp.n

    lo, hi = -20.0, 20.0
    if not expected_nv(lo) <= selection.target_nv <= expected_nv(hi):
        raise CalibrationFailed(
            f"target n_V = {selection.target_nv} is outside the reachable range"
        )
    for _ in range(CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        gap = expected_nv(mid) - selection.target_nv
        if abs(gap) <= CALIBRATION_TOLERANCE:
            return mid
        if gap > 0:
            hi = mid
        else:
            lo = mid
    raise CalibrationFailed(f"bisection did not converge within {CALIBRATION_STEPS} steps")


def select_validation(population: Population, selection: SelectionConfig,
                      rng: np.random.Generator) -> ObservationFrame:
    """Draw V ~ Bernoulli(pi_V) and mask the gold outcome off-validation.

    The caller keeps ``population.y`` for the oracle benchmark; the returned
    frame carries NaN where the gold outcome is hidden.
    """
    n = population.t.shape[0]
    v = selection_probabilities(selection, n, population.t, population.x)
    np.less(rng.random(n), v, out=v)
    return ObservationFrame(
        x=population.x, t=population.t, y_star=population.y_star, v=v,
        y=np.where(v == 1.0, population.y, np.nan),
    )


def _ordered_map(task, count: int, workers: int) -> list:
    """``[task(i) for i in range(count)]``, on ``workers`` processes when
    there is more than one; ``Executor.map`` yields in input order."""
    if workers <= 1:
        return [task(i) for i in range(count)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(count), chunksize=max(1, count // (workers * 8))))


@dataclass(frozen=True)
class TruthEstimate:
    value: float
    mc_se: float | None  # None from one population, which has no spread
    populations: int
    population_n: int


def _truth_one(dgp_large: DgpConfig, base_seed: int, index: int) -> float:
    rng = _rng(child_seed(base_seed, index))
    design, t = draw_treatment_design(dgp_large, rng)
    # the fit starts at the coefficients that drew t, and draws nothing: the
    # outcome's uniforms, drawn after it, follow the treatment's as in
    # generate_population, and only the design and t are held through it
    fit = fit_logistic(design, t, start=dgp_large.treatment_coefs)
    y = draw_outcome(dgp_large, design[:, 1:], t, rng)
    del design  # not held through the contrast
    e = clamp_probability(fit.probabilities)
    w_t, w_c = est.arm_weights(t, e)
    return float(np.sum(w_t * y)) / dgp_large.n - float(np.sum(w_c * y)) / dgp_large.n


def true_ate_oracle(dgp: DgpConfig, *, populations: int = 100, population_n: int = 50_000,
                    base_seed: int = DEFAULT_SEED, workers: int = 1) -> TruthEstimate:
    """Average the fitted-propensity IPW estimate on ``populations`` large
    datasets drawn from the true model (gold outcomes, no misclassification,
    no selection). Its Monte Carlo SE is None from one population."""
    if populations < 1:
        raise ValueError(f"populations must be >= 1, got {populations}")
    dgp_large = replace(dgp, n=population_n)
    truth_seed = child_seed(base_seed, TRUTH_STREAM)
    arr = np.asarray(_ordered_map(partial(_truth_one, dgp_large, truth_seed),
                                  populations, workers))
    mc_se = (float(np.std(arr, ddof=1)) / math.sqrt(populations)
             if populations > 1 else None)
    return TruthEstimate(
        value=float(np.mean(arr)), mc_se=mc_se,
        populations=populations, population_n=population_n,
    )


@dataclass(frozen=True)
class EstimatorSummary:
    estimator_id: str
    n_effective: int
    bias: float
    empirical_se: float | None  # None from one iteration, which has no spread
    mean_sandwich_se: float
    coverage: float


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    truth: float
    calibrated_intercept: float | None
    rows: list[EstimatorSummary]
    failure_reasons: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def by_estimator(self) -> dict[str, EstimatorSummary]:
        return {row.estimator_id: row for row in self.rows}


def generating_starts(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """The coefficients that generate a scenario's data, on the columns of
    the analyst's two models (``ModelSpec.columns``), as ``analyze_frame``'s
    ``starts``: "gamma" from ``dgp.treatment_coefs`` (intercept, x-columns)
    and, with a selection model, "eta" from ``selection.alpha0`` (intercept,
    t, x-columns), calibrated by ``resolve_selection``. A fit started there
    reaches the same maximum in fewer Newton steps."""
    treatment, selection = config.model_spec.columns(config.dgp.p)
    coefs, alpha = config.dgp.treatment_coefs, config.selection.alpha0
    starts = {"gamma": np.array([coefs[0]] + [coefs[1 + j] for j in treatment])}
    if selection is not None:
        starts["eta"] = np.array([alpha[0], alpha[1]] + [alpha[2 + j] for j in selection])
    return starts


def _run_iteration(config: ScenarioConfig, index: int):
    """One Monte Carlo iteration; returns (records, failures).

    records maps estimator id to (tau, se, ci_low, ci_high); failures maps
    estimator id to an error class name. An estimator with a point estimate
    but no SE counts as failed (it cannot contribute coverage). The fits
    start at the generating coefficients (``generating_starts``), which
    ``config``'s calibrated selection carries.
    """
    rng = _rng(child_seed(config.base_seed, index))
    population = generate_population(config.dgp, rng)
    frame = select_validation(population, config.selection, rng)
    if "oracle" in config.estimators:
        frame = frame.with_full_y(population.y)
    x_treat, x_sel = config.model_spec.designs(frame)

    records = {}
    failures = {}

    def analyze(ids, **kwargs):
        try:
            analysis = analyze_frame(frame, ids, w=config.w, b=config.b,
                                     misclassification=config.misclassification, **kwargs)
        except MismeasureError as exc:
            failures.update({e: type(exc).__name__ for e in ids})
            return
        failures.update(analysis.failures)
        for est_id, estimate in analysis.estimates.items():
            if estimate.se is None:
                failures[est_id] = analysis.se_failures[est_id]
            else:
                records[est_id] = (estimate.tau, estimate.se, estimate.ci_low, estimate.ci_high)

    main_ids = list(config.estimators)
    if config.selection.misspecify_drop is not None and "oracle" in main_ids:
        # the oracle benchmark keeps the full treatment model; the analyst's
        # (misspecified) covariate set applies to everything else
        main_ids.remove("oracle")
        analyze(["oracle"], starts={"gamma": config.dgp.treatment_coefs})
    if main_ids:
        analyze(main_ids, x_treat=x_treat, x_sel=x_sel, starts=generating_starts(config))
    return records, failures


def resolve_selection(config: ScenarioConfig) -> tuple[SelectionConfig, float | None]:
    """Calibrate the selection intercept when needed; deterministic in the
    scenario's base seed."""
    if config.selection.kind == "srs":
        return config.selection, None
    rng = _rng(child_seed(config.base_seed, CALIBRATION_STREAM))
    intercept = calibrate_intercept(config.dgp, config.selection, rng)
    slopes = tuple(config.selection.alpha0)[1:]
    calibrated = replace(config.selection, alpha0=(intercept,) + slopes)
    return calibrated, intercept


def run_scenario(config: ScenarioConfig, *, workers: int = 1) -> ScenarioResult:
    """Run all Monte Carlo iterations and aggregate.

    bias = mean(tau) - truth, empirical_se = SD of the point estimates
    (ddof=1; None from one iteration), mean_sandwich_se = mean of per-iteration sandwich SEs, and
    coverage = share of 95% intervals containing the truth. Failed
    estimator-iterations are excluded from all four and tallied under their
    reason; failures in more than MAX_FAILURE_SHARE of the iterations for
    any estimator raise TooManyFailures, so every row has at least one
    iteration.
    """
    selection_used, intercept = resolve_selection(config)
    if config.truth is not None:
        truth = config.truth
    else:
        truth = true_ate_oracle(config.dgp, populations=config.truth_populations,
                                base_seed=config.base_seed, workers=workers).value

    run_config = replace(config, selection=selection_used)
    outcomes = _ordered_map(partial(_run_iteration, run_config), config.iterations, workers)

    kept = {e: [] for e in config.estimators}  # (tau, se, ci_low, ci_high) per iteration
    failure_reasons: dict[str, dict[str, int]] = {e: {} for e in config.estimators}
    for records, failures in outcomes:
        for est_id in config.estimators:
            if est_id in records:
                kept[est_id].append(records[est_id])
            elif est_id in failures:
                tally = failure_reasons[est_id]
                tally[failures[est_id]] = tally.get(failures[est_id], 0) + 1

    rows = []
    for est_id in config.estimators:
        points, se_arr, lows, highs = np.reshape(kept[est_id], (-1, 4)).T
        n_eff = points.size
        n_failed = sum(failure_reasons[est_id].values())
        if n_failed > MAX_FAILURE_SHARE * config.iterations:
            raise TooManyFailures(
                f"{est_id} failed in {n_failed} of {config.iterations} iterations: "
                f"{failure_reasons[est_id]}"
            )
        rows.append(EstimatorSummary(
            estimator_id=est_id,
            n_effective=n_eff,
            bias=float(np.mean(points)) - truth,
            empirical_se=float(np.std(points, ddof=1)) if n_eff > 1 else None,
            mean_sandwich_se=float(np.mean(se_arr)),
            coverage=float(np.mean((lows <= truth) & (truth <= highs))),
        ))
    failure_reasons = {e: r for e, r in failure_reasons.items() if r}
    return ScenarioResult(config=config, truth=truth, calibrated_intercept=intercept,
                          rows=rows, failure_reasons=failure_reasons)


# --- scenario presets ---------------------------------------------------------

# starting intercepts only; run_scenario recalibrates them to the target n_V
_ALPHA_MAIN = (-2.4, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0)
_ALPHA_FLIPPED = (-2.2, -0.5, -1.0, -1.0, -1.0, -1.0, 0.0)
_ALPHA_STRONG = (-4.0, 1.0, 1.5, 1.5, 1.5, 1.5, 0.0)


def scenario_catalog() -> dict[str, ScenarioConfig]:
    """Named presets covering the main and supplementary study designs.

    The bare names nv500, nv1500, p10_016, p10_032, and heterogeneous alias
    their non-probability variants. The heterogeneous presets draw a
    treatment-dependent false-positive rate, so their analysis counts the
    misclassification rates by arm; every other preset pools them.
    """
    base = DgpConfig()
    srs = SelectionConfig(kind="srs", target_nv=850)
    nonprob = SelectionConfig(kind="non_probability", target_nv=850, alpha0=_ALPHA_MAIN)

    def scenario(name, dgp, selection, **kwargs):
        return ScenarioConfig(name=name, dgp=dgp, selection=selection, **kwargs)

    heterogeneous = replace(base, heterogeneous_misclass=(-2.0, 0.5))
    catalog = {
        "main_srs": scenario("main_srs", base, srs),
        "main_nonprob": scenario("main_nonprob", base, nonprob),
        "nv500_srs": scenario("nv500_srs", base, replace(srs, target_nv=500)),
        "nv500_nonprob": scenario("nv500_nonprob", base, replace(nonprob, target_nv=500)),
        "nv1500_srs": scenario("nv1500_srs", base, replace(srs, target_nv=1500)),
        "nv1500_nonprob": scenario("nv1500_nonprob", base, replace(nonprob, target_nv=1500)),
        "p10_016_srs": scenario("p10_016_srs", replace(base, p10=0.16), srs),
        "p10_016_nonprob": scenario("p10_016_nonprob", replace(base, p10=0.16), nonprob),
        "p10_032_srs": scenario("p10_032_srs", replace(base, p10=0.32), srs),
        "p10_032_nonprob": scenario("p10_032_nonprob", replace(base, p10=0.32), nonprob),
        "flipped_alpha": scenario("flipped_alpha", base, replace(nonprob, alpha0=_ALPHA_FLIPPED)),
        "strong_alpha": scenario("strong_alpha", base, replace(nonprob, alpha0=_ALPHA_STRONG)),
        "heterogeneous_srs": scenario(
            "heterogeneous_srs", heterogeneous, srs, misclassification="by_arm"),
        "heterogeneous_nonprob": scenario(
            "heterogeneous_nonprob", heterogeneous, nonprob, misclassification="by_arm"),
        "misspecified_selection": scenario(
            "misspecified_selection", base, replace(nonprob, misspecify_drop=2)),
    }
    for alias, target in [
        ("nv500", "nv500_nonprob"), ("nv1500", "nv1500_nonprob"),
        ("p10_016", "p10_016_nonprob"), ("p10_032", "p10_032_nonprob"),
        ("heterogeneous", "heterogeneous_nonprob"),
    ]:
        catalog[alias] = catalog[target]
    return catalog
