"""Independent reference implementations used only by the test suite.

Everything here is deliberately written as plain Python loops over rows with
math.fsum accumulation, sharing no code with the package: these are the
second route of every dual-route check (estimator formulas, logistic fitting
and the arithmetic of its kernel, the population draws, the weighted Gram
product, the logistic sandwich, the bread of the stacked sandwich, the dataset CSV reader and
writer). Do not import from mismeasure_ate in this module.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def _expit(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    eu = math.exp(u)
    return eu / (1.0 + eu)


# --- direct-summation estimators --------------------------------------------
# Arguments are plain sequences; nothing is vectorized on purpose.

def oracle_tau(t, y, e):
    n = len(t)
    treated = math.fsum(t[i] * y[i] / e[i] for i in range(n))
    control = math.fsum((1 - t[i]) * y[i] / (1 - e[i]) for i in range(n))
    return treated / n - control / n


def naive_tau(t, y_star, e):
    return oracle_tau(t, y_star, e)


def val_only_tau(t, y, v, e):
    n = len(t)
    n_v = sum(v)
    treated = math.fsum(v[i] * t[i] * y[i] / e[i] for i in range(n))
    control = math.fsum(v[i] * (1 - t[i]) * y[i] / (1 - e[i]) for i in range(n))
    return treated / n_v - control / n_v


def nonval_corrected_tau(t, y_star, v, e, p11, p10):
    n = len(t)
    m = n - sum(v)
    treated = math.fsum((1 - v[i]) * t[i] * y_star[i] / e[i] for i in range(n))
    control = math.fsum((1 - v[i]) * (1 - t[i]) * y_star[i] / (1 - e[i]) for i in range(n))
    return (treated / m - control / m) / (p11 - p10)


def sy_combined_tau(t, y, y_star, v, e, p11, p10, w=0.5):
    n = len(t)
    n_v = sum(v)
    lam = w * n_v / (w * n_v + (1 - w) * (n - n_v))
    return lam * val_only_tau(t, y, v, e) + (1 - lam) * nonval_corrected_tau(
        t, y_star, v, e, p11, p10
    )


def s_val_only_tau(t, y, v, e, pi):
    n = len(t)
    treated = math.fsum(v[i] * t[i] * y[i] / (e[i] * pi[i]) for i in range(n))
    control = math.fsum(v[i] * (1 - t[i]) * y[i] / ((1 - e[i]) * pi[i]) for i in range(n))
    return treated / n - control / n


def s_nonval_raw_tau(t, y_star, v, e, pi):
    n = len(t)
    num_t = math.fsum((1 - v[i]) * t[i] * y_star[i] / (e[i] * (1 - pi[i])) for i in range(n))
    den_t = math.fsum((1 - v[i]) * t[i] / (e[i] * (1 - pi[i])) for i in range(n))
    num_c = math.fsum(
        (1 - v[i]) * (1 - t[i]) * y_star[i] / ((1 - e[i]) * (1 - pi[i])) for i in range(n)
    )
    den_c = math.fsum((1 - v[i]) * (1 - t[i]) / ((1 - e[i]) * (1 - pi[i])) for i in range(n))
    return num_t / den_t - num_c / den_c


def s_nonval_corrected_tau(t, y_star, v, e, pi, p11, p10):
    return s_nonval_raw_tau(t, y_star, v, e, pi) / (p11 - p10)


def s_combined_tau(t, y, y_star, v, e, pi, p11, p10):
    n = len(t)
    n_v = sum(v)
    part_val = s_val_only_tau(t, y, v, e, pi)
    part_nonval = s_nonval_corrected_tau(t, y_star, v, e, pi, p11, p10)
    return (n_v / n) * part_val + ((n - n_v) / n) * part_nonval


def all_silver_tau(t, y_star, e, p11, p10):
    n = len(t)
    num_t = math.fsum(t[i] * y_star[i] / e[i] for i in range(n))
    den_t = math.fsum(t[i] / e[i] for i in range(n))
    num_c = math.fsum((1 - t[i]) * y_star[i] / (1 - e[i]) for i in range(n))
    den_c = math.fsum((1 - t[i]) / (1 - e[i]) for i in range(n))
    return (num_t / den_t - num_c / den_c) / (p11 - p10)


def hajek_contrast(weights_treated, weights_control, outcome):
    """Weight-normalized treated mean minus weight-normalized control mean."""
    n = len(outcome)
    treated = math.fsum(weights_treated[i] * outcome[i] for i in range(n))
    control = math.fsum(weights_control[i] * outcome[i] for i in range(n))
    return treated / math.fsum(weights_treated) - control / math.fsum(weights_control)


def s_weighted_tau(t, y, y_star, v, e, pi, p11, p10, b=0.5):
    return b * s_val_only_tau(t, y, v, e, pi) + (1 - b) * all_silver_tau(
        t, y_star, e, p11, p10
    )


def b_opt_weight(var_a, var_b, cov_ab):
    return (var_b - cov_ab) / (var_a + var_b - 2 * cov_ab)


def s_opt_tau(t, y, y_star, v, e, pi, p11, p10, var_a, var_b, cov_ab):
    b = min(1.0, max(0.0, b_opt_weight(var_a, var_b, cov_ab)))
    return s_weighted_tau(t, y, y_star, v, e, pi, p11, p10, b=b)


def misclass_rates(y, y_star, v):
    pos = [i for i in range(len(y)) if v[i] == 1 and y[i] == 1]
    neg = [i for i in range(len(y)) if v[i] == 1 and y[i] == 0]
    p11 = math.fsum(y_star[i] for i in pos) / len(pos)
    p10 = math.fsum(y_star[i] for i in neg) / len(neg)
    return p11, p10


# --- per-arm (differential) misclassification ----------------------------------
# ``arm_rates`` is ((p11_0, p10_0), (p11_1, p10_1)): control arm first.

def arm_corrected_contrast(mean_treated, mean_control, arm_rates):
    """Each arm's silver mean corrected with its own rates, then differenced."""
    (p11_0, p10_0), (p11_1, p10_1) = arm_rates
    return (mean_treated - p10_1) / (p11_1 - p10_1) - (mean_control - p10_0) / (p11_0 - p10_0)


def nonval_corrected_by_arm_tau(t, y_star, v, e, arm_rates):
    n = len(t)
    m = n - sum(v)
    treated = math.fsum((1 - v[i]) * t[i] * y_star[i] / e[i] for i in range(n)) / m
    control = math.fsum((1 - v[i]) * (1 - t[i]) * y_star[i] / (1 - e[i]) for i in range(n)) / m
    return arm_corrected_contrast(treated, control, arm_rates)


def sy_combined_by_arm_tau(t, y, y_star, v, e, arm_rates, w=0.5):
    n = len(t)
    n_v = sum(v)
    lam = w * n_v / (w * n_v + (1 - w) * (n - n_v))
    return lam * val_only_tau(t, y, v, e) + (1 - lam) * nonval_corrected_by_arm_tau(
        t, y_star, v, e, arm_rates
    )


def s_nonval_by_arm_tau(t, y_star, v, e, pi, arm_rates):
    n = len(t)
    w_t = [(1 - v[i]) * t[i] / (e[i] * (1 - pi[i])) for i in range(n)]
    w_c = [(1 - v[i]) * (1 - t[i]) / ((1 - e[i]) * (1 - pi[i])) for i in range(n)]
    treated = math.fsum(w_t[i] * y_star[i] for i in range(n)) / math.fsum(w_t)
    control = math.fsum(w_c[i] * y_star[i] for i in range(n)) / math.fsum(w_c)
    return arm_corrected_contrast(treated, control, arm_rates)


def s_combined_by_arm_tau(t, y, y_star, v, e, pi, arm_rates):
    n = len(t)
    n_v = sum(v)
    part_val = s_val_only_tau(t, y, v, e, pi)
    part_nonval = s_nonval_by_arm_tau(t, y_star, v, e, pi, arm_rates)
    return (n_v / n) * part_val + ((n - n_v) / n) * part_nonval


def all_silver_by_arm_tau(t, y_star, e, arm_rates):
    n = len(t)
    w_t = [t[i] / e[i] for i in range(n)]
    w_c = [(1 - t[i]) / (1 - e[i]) for i in range(n)]
    treated = math.fsum(w_t[i] * y_star[i] for i in range(n)) / math.fsum(w_t)
    control = math.fsum(w_c[i] * y_star[i] for i in range(n)) / math.fsum(w_c)
    return arm_corrected_contrast(treated, control, arm_rates)


def s_weighted_by_arm_tau(t, y, y_star, v, e, pi, arm_rates, b=0.5):
    return b * s_val_only_tau(t, y, v, e, pi) + (1 - b) * all_silver_by_arm_tau(
        t, y_star, e, arm_rates
    )


# --- weighted Gram product ------------------------------------------------------
# X' diag(w) X entry by entry, each entry the exactly rounded sum (math.fsum)
# of its per-row products: no matrix product and no blocking, the second
# route of the package's blocked kernel.

def weighted_gram(x, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    k = x.shape[1]
    gram = np.empty((k, k))
    for i in range(k):
        weighted = x[:, i] * w
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = math.fsum(weighted * x[:, j])
    return gram


# --- second logistic solver ---------------------------------------------------
# Straight Newton-Raphson on the Bernoulli likelihood, its information from
# the entrywise Gram product above,
# solved with numpy.linalg (a different linear-algebra route than the package).

def newton_logistic(x, y, tol=1e-12, max_iter=200):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        mu = np.array([_expit(u) for u in x @ beta])
        grad = x.T @ (y - mu)
        hess = weighted_gram(x, mu * (1.0 - mu))
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def expit_two_branch(u):
    """The package's former vectorized expit: 1 / (1 + exp(-u)) on u >= 0 and
    exp(u) / (1 + exp(u)) on u < 0, each branch gathered and scattered by a
    boolean mask. Scalar in, float out."""
    arr = np.asarray(u, dtype=float)
    out = np.empty_like(arr)
    neg = arr < 0
    out[~neg] = 1.0 / (1.0 + np.exp(-arr[~neg]))
    eu = np.exp(arr[neg])
    out[neg] = eu / (1.0 + eu)
    if arr.ndim == 0:
        return float(out)
    return out


def draw_population(n, treatment_coefs, outcome_coefs, p11, p10, heterogeneous_misclass, rng):
    """The package's former out-of-place population draw: covariates, then
    treatment, gold outcome and silver outcome, each a Bernoulli draw
    (rng.random(n) < p).astype(float) with p = expit_two_branch(c0 + x @ c)
    (c0 + c1 t + x @ c for the outcome; p11 where y = 1, else p10 or
    expit_two_branch(h0 + h1 t)). Returns (x, t, y, y_star)."""
    x = rng.standard_normal((n, len(treatment_coefs) - 1))
    c = np.asarray(treatment_coefs, dtype=float)
    t = (rng.random(n) < expit_two_branch(c[0] + x @ c[1:])).astype(float)
    c = np.asarray(outcome_coefs, dtype=float)
    y = (rng.random(n) < expit_two_branch(c[0] + c[1] * t + x @ c[2:])).astype(float)
    if heterogeneous_misclass is not None:
        h0, h1 = heterogeneous_misclass
        p10 = expit_two_branch(h0 + h1 * t)
    else:
        p10 = np.full(n, p10)
    y_star = (rng.random(n) < np.where(y == 1.0, p11, p10)).astype(float)
    return x, t, y, y_star


def logaddexp_loglik(u, y):
    """Bernoulli log-likelihood sum (y u - log(1 + exp(u))), with the
    softplus written as numpy's logaddexp(0, u)."""
    u = np.asarray(u, dtype=float)
    return float(np.sum(np.asarray(y, dtype=float) * u - np.logaddexp(0.0, u)))


def logistic_score(x, y, beta):
    """Analytic score sum_i (y_i - expit(x_i beta)) x_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.array([_expit(u) for u in x @ beta])
    return x.T @ (y - mu)


def logistic_score_jacobian(x, beta):
    """Analytic Jacobian of the score: minus the information matrix."""
    x = np.asarray(x, dtype=float)
    mu = np.array([_expit(u) for u in x @ beta])
    return -weighted_gram(x, mu * (1.0 - mu))


def logistic_sandwich_se(x, y, beta):
    """Standalone sandwich SEs for logistic maximum likelihood.

    bread A = mean information, meat B = mean outer product of per-row
    scores, covariance A^-1 B A^-T / n.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    mu = np.array([_expit(u) for u in x @ beta])
    bread = weighted_gram(x, mu * (1.0 - mu)) / n
    scores = x * (y - mu)[:, None]
    meat = scores.T @ scores / n
    bread_inv = np.linalg.inv(bread)
    cov = bread_inv @ meat @ bread_inv.T / n
    return np.sqrt(np.diag(cov))


# --- central-difference Jacobian -------------------------------------------------
# The second route of the stacked sandwich's closed-form bread.

def numeric_jacobian(f, theta, step=None):
    """Central-difference Jacobian of a vector-valued function.

    J[i, j] = (f(theta + h_j e_j)[i] - f(theta - h_j e_j)[i]) / (2 h_j) with
    h_j = 1e-6 * max(1, |theta_j|) unless an explicit scalar step is given.
    Raises FloatingPointError if f returns NaN or infinity anywhere.
    """
    theta = np.asarray(theta, dtype=float)
    if step is None:
        h = 1e-6 * np.maximum(1.0, np.abs(theta))
    else:
        h = np.full(theta.shape, float(step))
    columns = []
    for j in range(theta.size):
        up = theta.copy()
        up[j] += h[j]
        down = theta.copy()
        down[j] -= h[j]
        f_up = np.atleast_1d(np.asarray(f(up), dtype=float))
        f_down = np.atleast_1d(np.asarray(f(down), dtype=float))
        if not (np.all(np.isfinite(f_up)) and np.all(np.isfinite(f_down))):
            raise FloatingPointError(f"function returned non-finite values near coordinate {j}")
        columns.append((f_up - f_down) / (2.0 * h[j]))
    return np.column_stack(columns)


# --- dataset CSV, row by row ----------------------------------------------------
# The second route of the column-wise dataset reader and writer: one csv row
# and one Python value per cell. Schema faults raise ValueError with the
# package's SchemaError message text.

_DATASET_BASE_COLUMNS = ("t", "ystar", "v", "y")


def write_dataset_csv_rows(x, t, y_star, v, y, path):
    """Write the dataset CSV through csv.writer, one row at a time."""
    x = np.asarray(x, dtype=float)
    header = [f"x{j + 1}" for j in range(x.shape[1])] + list(_DATASET_BASE_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(x.shape[0]):
            row = [repr(float(value)) for value in x[i]]
            row += [str(int(t[i])), str(int(y_star[i])), str(int(v[i]))]
            row.append(str(int(y[i])) if v[i] == 1.0 else "")
            writer.writerow(row)


def _binary_cell(value, column, line):
    if value == "0":
        return 0.0
    if value == "1":
        return 1.0
    raise ValueError(f"line {line}: column {column!r} must be 0 or 1, got {value!r}")


def read_dataset_csv_rows(path):
    """Parse a dataset CSV cell by cell; returns (x, t, y_star, v, y) with NaN
    for the gold outcome off the validation rows. A csv tokeniser fault (NUL
    before Python 3.11) names the physical line it was read on."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise ValueError("dataset is empty") from None
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    covariates = [name for name in header if name not in _DATASET_BASE_COLUMNS]
    expected = [f"x{j + 1}" for j in range(len(covariates))]
    if covariates != expected:
        raise ValueError(f"expected covariate columns {expected} before "
                         f"{_DATASET_BASE_COLUMNS}, got {covariates}")
    if header != expected + list(_DATASET_BASE_COLUMNS):
        raise ValueError(f"expected header {expected + list(_DATASET_BASE_COLUMNS)}, got {header}")
    while rows and not rows[-1]:  # empty lines at the end of the file are ignored
        rows.pop()
    if not rows:
        raise ValueError("dataset has a header but no rows")
    p = len(covariates)
    n = len(rows)
    x = np.empty((n, p))
    t, y_star, v, y = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for i, row in enumerate(rows):
        line = i + 2
        if len(row) != len(header):
            raise ValueError(f"line {line}: expected {len(header)} fields, got {len(row)}")
        try:
            for j in range(p):
                x[i, j] = float(row[j])
        except ValueError:
            raise ValueError(f"line {line}: covariates must be real numbers") from None
        t[i] = _binary_cell(row[p], "t", line)
        y_star[i] = _binary_cell(row[p + 1], "ystar", line)
        v[i] = _binary_cell(row[p + 2], "v", line)
        if v[i] == 1.0:
            if row[p + 3] == "":
                raise ValueError(f"line {line}: y must be present where v=1")
            y[i] = _binary_cell(row[p + 3], "y", line)
        else:
            if row[p + 3] != "":
                raise ValueError(f"line {line}: y must be empty where v=0")
            y[i] = np.nan
    return x, t, y_star, v, y
