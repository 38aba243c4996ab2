"""Report assembly and file formats.

The dataset CSV schema: header row with columns x1..xp (real), t (0/1),
ystar (0/1), v (0/1), y (0/1 or empty, empty exactly where v=0); UTF-8,
comma-delimited, "." decimal separator. The reader gives the frame that
Python's csv.reader and float() would: numpy's loader reads blocks of rows,
and csv.reader reads the rest of a file from the first block the loader
declines (a quote, an empty line, a cell the two could read otherwise, a
schema fault).

RunReport serializations are deterministic: the JSON and CSV forms contain
no wall-clock or worker-count information, so equal-seed runs are
byte-identical regardless of parallelism. The human-readable table may show
elapsed time in its footer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice, repeat

import numpy as np

from . import __version__
from .errors import ConfigParseError, SchemaError
from .frames import ModelSpec, ObservationFrame
from .simulation import (
    DEFAULT_SEED,
    DgpConfig,
    ScenarioConfig,
    ScenarioResult,
    SelectionConfig,
    TruthEstimate,
)

DATASET_BASE_COLUMNS = ("t", "ystar", "v", "y")
# Rows parsed or written per block: numpy's loader reads a block in one call,
# and only one block of lines is held at a time.
DATASET_BLOCK_ROWS = 4096


# --- dataset CSV ----------------------------------------------------------------

def write_dataset_csv(frame: ObservationFrame, path) -> None:
    """Export a frame; the gold outcome is written only on validation rows.

    No cell needs csv quoting (float reprs, 0, 1 and empty cells), so rows
    are joined directly into the bytes csv.writer would write, CRLF included.
    """
    header = [f"x{j + 1}" for j in range(frame.p)] + list(DATASET_BASE_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, frame.n, DATASET_BLOCK_ROWS):
            block = slice(start, start + DATASET_BLOCK_ROWS)
            validated = frame.v[block] == 1.0
            columns = [map(repr, frame.x[block, j].tolist()) for j in range(frame.p)]
            columns += [np.where(frame.t[block] == 1.0, "1", "0").tolist(),
                        np.where(frame.y_star[block] == 1.0, "1", "0").tolist(),
                        np.where(validated, "1", "0").tolist(),
                        np.where(validated, np.where(frame.y[block] == 1.0, "1", "0"), "").tolist()]
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _covariate_column(cells: tuple) -> tuple[np.ndarray, int]:
    """Parse one block's covariate column; also return the index of its first
    cell that is not a real number (the block length when there is none)."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), len(cells)
    except ValueError:
        pass
    values = np.full(len(cells), np.nan)
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except ValueError:
            return values, i


# 0 and 1 parse to themselves, an empty cell to NaN; any other text maps to
# _NOT_BINARY.
_BINARY_CODES = {"0": 0.0, "1": 1.0, "": np.nan}
_NOT_BINARY = 2.0
# The same map for numpy's loader: indexed by the code point of a cell of one
# character ("" reads as 0), and by 50 for any other cell.
_CODE_POINT_VALUES = np.array([_BINARY_CODES.get(chr(c) if c else "", _NOT_BINARY)
                               for c in range(51)])
# Where numpy's loader and csv.reader with float() may read a cell otherwise:
# a quote, NUL, and the separators \x1c-\x1f, which numpy strips from a
# number as white space and float() refuses.
_NOT_LOADED = '"\0\x1c\x1d\x1e\x1f'


def _schema_checks(x, t, y_star, v, y) -> list:
    """(mask, message, column) of each check on parsed cells (binary ones as
    _BINARY_CODES values), in the order a line's faults are named; the
    message formats the failing row's cell in ``column``."""
    p = x.shape[1]
    validated, empty = v == 1.0, np.isnan(y)
    checks = [(~np.isfinite(x[:, j]), f"column 'x{j + 1}' must be finite, got {{!r}}", j)
              for j in range(p)]
    checks += [((values != 0.0) & (values != 1.0), f"column {name!r} must be 0 or 1, got {{!r}}",
                p + j) for j, (name, values) in enumerate(zip(("t", "ystar", "v"), (t, y_star, v)))]
    return checks + [(validated & empty, "y must be present where v=1", p + 3),
                     (validated & (y == _NOT_BINARY), "column 'y' must be 0 or 1, got {!r}", p + 3),
                     ((v == 0.0) & ~empty, "y must be empty where v=0", p + 3)]


def _parse_block(rows: list, line: int, p: int) -> tuple:
    """Columns x, t, y_star, v, y of a block of csv.reader rows that starts
    on ``line``.

    A schema fault raises SchemaError for the lowest offending line, naming
    the first failing check on it in the order: field count, covariates
    (real, then finite), t, ystar, v, y.
    """
    width = p + len(DATASET_BASE_COLUMNS)
    faults = []  # (row, message): the first failure of each check, in check order
    counts = np.fromiter(map(len, rows), np.intp, len(rows))
    short = np.flatnonzero(counts != width)
    k = int(short[0]) if short.size else len(rows)  # the rows checked cell by cell
    if short.size:
        faults.append((k, f"expected {width} fields, got {counts[k]}"))
    cells = list(zip(*rows[:k])) if k else [()] * width
    x = np.empty((k, p))
    for j in range(p):
        x[:, j], bad = _covariate_column(cells[j])
        if bad < k:
            faults.append((bad, "covariates must be real numbers"))
    t, y_star, v, y = (np.fromiter(map(_BINARY_CODES.get, column, repeat(_NOT_BINARY)), float, k)
                       for column in cells[p:])
    for mask, message, j in _schema_checks(x, t, y_star, v, y):
        bad = np.flatnonzero(mask)
        if bad.size:
            i = int(bad[0])
            faults.append((i, message.format(cells[j][i])))
    if faults:
        i, message = min(faults, key=lambda fault: fault[0])
        raise SchemaError(f"line {line + i}: {message}")
    return x, t, y_star, v, y


def _loaded_block(lines: list, p: int) -> tuple | None:
    """Columns x, t, y_star, v, y of a block of lines, read by numpy's
    loader in one pass; None when csv.reader and float() could read the
    block otherwise or it fails a schema check.

    The loader parses a number with float()'s routine and refuses what that
    routine refuses (float() also takes "1_0" and non-ASCII digits); it
    keeps two characters of a binary cell, so one it reads as 0 is "0".
    """
    width = p + len(DATASET_BASE_COLUMNS)
    # a short line may be empty, a long one hold a field csv.reader refuses
    if not p or min(map(len, lines)) < width or max(map(len, lines)) > csv.field_size_limit():
        return None
    text = "".join(lines)
    if any(char in text for char in _NOT_LOADED):
        return None
    try:
        block = np.loadtxt(lines, dtype=[("x", float, (p,)), ("b", "U2", (4,))],
                           delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if len(block) != len(lines):  # the loader skips an empty line; csv.reader reads it as a row
        return None
    # each U2 cell is two UCS-4 code points, the second 0 in a cell of one
    points = block["b"].view(np.uint32).reshape(len(block), 4, 2)
    codes = _CODE_POINT_VALUES[np.where(points[..., 1] == 0, np.minimum(points[..., 0], 50), 50)]
    columns = (block["x"], *codes.T)
    if any(mask.any() for mask, _, _ in _schema_checks(*columns)):
        return None
    return columns


def _not_utf8(line: int, exc: UnicodeDecodeError) -> SchemaError:
    """Text is decoded in chunks, so a byte that is not UTF-8 is placed at or
    after ``line``, the one that follows the last line read."""
    return SchemaError(f"line {line} or later: not UTF-8 text ({exc.reason})")


def _take(reader, count: int, lines_before: int = 0) -> list:
    """The next ``count`` rows of a csv reader, fewer at the end of the file.

    A tokeniser fault, such as a field over ``csv.field_size_limit``, is a
    SchemaError naming the physical line it was read on, counting the
    ``lines_before`` read ahead of the reader's input; that runs ahead of the
    record lines the schema errors name once a quoted field has held a line
    break. A byte that is not UTF-8 is a SchemaError too (``_not_utf8``).
    """
    try:
        return list(islice(reader, count))
    except csv.Error as exc:
        raise SchemaError(f"line {lines_before + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(lines_before + reader.line_num + 1, exc) from None


def read_dataset_csv(path) -> ObservationFrame:
    """Parse a dataset CSV, enforcing the schema strictly.

    Accepts LF or CRLF line ends, an optional UTF-8 byte-order mark, and
    empty lines at the end of the file; quoting is that of Python's csv
    module. Raises SchemaError for missing or unknown columns, a wrong field
    count, non-binary indicator values, unparsable or non-finite
    covariates, a gold outcome present off-validation, or one missing on a
    validation row; a fault names the lowest offending line. Faults of the
    tokeniser and of the text decoding are SchemaErrors too (see ``_take``).

    csv.reader reads the header. numpy's loader reads the rows, one block
    of DATASET_BLOCK_ROWS lines per call (``_loaded_block``), until it
    declines a block; from that block on csv.reader reads them and
    ``_parse_block`` checks them. Either way the frame and every message
    are those of csv.reader's cells.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        first = _take(reader, 1)
        if not first:
            raise SchemaError("dataset is empty")
        header = first[0]

        covariate_columns = [name for name in header if name not in DATASET_BASE_COLUMNS]
        expected_covariates = [f"x{j + 1}" for j in range(len(covariate_columns))]
        if covariate_columns != expected_covariates:
            raise SchemaError(
                f"expected covariate columns {expected_covariates} before "
                f"{DATASET_BASE_COLUMNS}, got {covariate_columns}"
            )
        expected_header = expected_covariates + list(DATASET_BASE_COLUMNS)
        if header != expected_header:
            raise SchemaError(f"expected header {expected_header}, got {header}")

        p = len(covariate_columns)
        blocks = []
        line = 2  # line of the next block's first row; the header is line 1
        lines_read = reader.line_num
        while True:
            lines = []  # extended in place: it keeps the lines read before a decode error
            try:
                lines.extend(islice(handle, DATASET_BLOCK_ROWS))
            except UnicodeDecodeError as exc:
                raise _not_utf8(lines_read + len(lines) + 1, exc) from None
            block = _loaded_block(lines, p) if lines else None
            if block is None:  # csv.reader reads the rest of the file, these lines first
                break
            blocks.append(block)
            line += len(lines)
            lines_read += len(lines)

        reader = csv.reader(chain(lines, handle))
        blank = 0  # empty lines since the last non-empty row
        for rows in iter(lambda: _take(reader, DATASET_BLOCK_ROWS, lines_read), []):
            kept = len(rows)
            while kept and not rows[kept - 1]:
                kept -= 1
            if kept:
                if blank:  # a row follows them, so those empty lines are mid-file
                    raise SchemaError(f"line {line - blank}: expected {len(header)} fields, got 0")
                blocks.append(_parse_block(rows[:kept], line, p))
                blank = 0
            blank += len(rows) - kept
            line += len(rows)

    if not blocks:
        raise SchemaError("dataset has a header but no rows")
    x, t, y_star, v, y = (np.concatenate(parts) for parts in zip(*blocks))
    return ObservationFrame(x=x, t=t, y_star=y_star, v=v, y=y)


# --- scenario config and model spec files -------------------------------------------

def _load_json(path, what: str):
    """The JSON value of the file at ``path``; ConfigParseError naming
    ``what`` when the file is not UTF-8 text or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{what} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{what} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None


def _present(section, fields: dict, where: str) -> dict:
    """The keys present in a config section or the model spec, each through
    its converter in ``fields``; errors name the object as ``where``. An
    absent key keeps its default; a key ``fields`` lacks is an error, so a
    typo never falls back to a default silently."""
    if not isinstance(section, dict):
        raise ConfigParseError(f"{where} must be a JSON object")
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigParseError(f"unknown {where} keys: {sorted(unknown)}")
    values = {}
    for key, value in section.items():
        try:
            values[key] = fields[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigParseError(f"invalid {where} value for {key!r}: {exc}") from None
    return values


def _coefficients(value) -> tuple:
    """A non-empty list of finite numbers, kept as written (reports echo it)."""
    if not (isinstance(value, list) and value and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
            for c in value)):
        raise ValueError(f"expected a non-empty list of finite numbers, got {value!r}")
    return tuple(value)


def _strict(convert, types, what: str):
    """``convert`` of a JSON value of ``types``; any other value, a boolean
    included, is refused rather than converted (2.9 is not the integer 2)."""
    def checked(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"expected {what}, got {value!r}")
        return convert(value)
    return checked


_integer = _strict(int, int, "an integer")
_number = _strict(float, (int, float), "a number")


def _or_none(convert):
    """``convert``, with null standing for None, the setting's default."""
    return lambda value: None if value is None else convert(value)


def _as_written(value):
    return value


def _strings(what: str):
    """A JSON list of strings, as a tuple; anything else, a bare string
    included, is refused as not a list of ``what``."""
    def checked(value) -> tuple:
        if not (isinstance(value, list) and all(isinstance(c, str) for c in value)):
            raise ValueError(f"expected a list of {what}, got {value!r}")
        return tuple(value)
    return checked


_names = _strings("column names")


# config key -> converter of its JSON value; each table's keys are the keys
# its section allows
_DGP_FIELDS = {"n": _integer, "p11": _number, "p10": _number, "treatment_coefs": _coefficients,
               "outcome_coefs": _coefficients, "heterogeneous_misclass": _or_none(_coefficients)}
_SELECTION_FIELDS = {"kind": _as_written, "target_nv": _integer, "alpha0": _coefficients,
                     "misspecify_drop": _or_none(_integer)}
_TOP_FIELDS = {
    "dgp": partial(_present, fields=_DGP_FIELDS, where="dgp"),
    "selection": partial(_present, fields=_SELECTION_FIELDS, where="selection"),
    "iterations": _integer, "seed": _integer, "estimators": _strings("estimator ids"),
    "truth": _or_none(_number), "w": _number, "b": _or_none(_number),
    "misclassification": _as_written,
}
_SPEC_FIELDS = {"treatment_covariates": _names, "selection_covariates": _or_none(_names)}


def load_model_spec(path) -> ModelSpec:
    """Parse a model spec JSON file: ``treatment_covariates``, a list of
    column names, and ``selection_covariates``, a list or null (absent is
    null). Unknown keys and other values are a ConfigParseError."""
    values = _present(_load_json(path, "model spec"), _SPEC_FIELDS, "model spec")
    if "treatment_covariates" not in values:
        raise ConfigParseError("model spec is missing 'treatment_covariates'")
    return ModelSpec(values["treatment_covariates"], values.get("selection_covariates"))


def load_scenario_config(path, *, name: str | None = None,
                         default_seed: int = DEFAULT_SEED) -> ScenarioConfig:
    """Parse a scenario JSON file into a ScenarioConfig.

    Required top-level keys: dgp, selection (with its kind), iterations.
    Optional: seed, estimators, truth, w, b, misclassification ("pooled",
    the default, or "by_arm"). A key that is absent keeps the dataclass
    default. Unknown keys anywhere, and values the dataclasses refuse, are a
    hard error so typos never silently fall back to defaults. ``default_seed``
    fills in when the file has no seed key (the CLI resolves the
    MISMEASURE_ATE_SEED environment override into it).
    """
    values = _present(_load_json(path, "config"), _TOP_FIELDS, "config")
    for required in ("dgp", "selection", "iterations"):
        if required not in values:
            raise ConfigParseError(f"config is missing required key '{required}'")
    if "kind" not in values["selection"]:
        raise ConfigParseError("selection is missing required key 'kind'")
    dgp, selection = values.pop("dgp"), values.pop("selection")
    values["base_seed"] = values.pop("seed", default_seed)
    try:
        return ScenarioConfig(name=name or "custom", dgp=DgpConfig(**dgp),
                              selection=SelectionConfig(**selection), **values)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid config value: {exc}") from None


# --- run reports -----------------------------------------------------------------

SIMULATE_COLUMNS = ("estimator", "bias", "empirical_se", "mean_sandwich_se",
                    "coverage", "n_effective")
ESTIMATE_COLUMNS = ("estimator", "estimate", "se", "ci_low", "ci_high", "weight")
TRUTH_COLUMNS = ("truth", "mc_se", "populations", "population_n")

_TABLE_HEADINGS = {
    "estimator": "Estimator", "bias": "Bias", "empirical_se": "Empirical SE",
    "mean_sandwich_se": "Mean Sandwich SE", "coverage": "Coverage",
    "n_effective": "Iterations Used", "estimate": "Estimate", "se": "SE",
    "ci_low": "95% CI Low", "ci_high": "95% CI High", "weight": "Weight",
    "truth": "True ATE", "mc_se": "MC SE", "populations": "Populations",
    "population_n": "Population Size",
}


@dataclass
class RunReport:
    """A finished command's output: metadata, table rows, warnings.

    Metadata carries everything needed to re-run bit-identically (seed,
    scenario configuration, calibrated intercept) and nothing volatile.
    ``elapsed_seconds`` is shown only in the human-readable rendering.
    """

    command: str
    columns: tuple
    rows: list
    metadata: dict
    warnings: list = field(default_factory=list)
    elapsed_seconds: float | None = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if value is None else repr(value) if isinstance(value, float) else value
                             for value in row])
        return buffer.getvalue()

    def to_table(self) -> str:
        def render(value):
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        headings = [_TABLE_HEADINGS.get(c, c) for c in self.columns]
        cells = [[render(v) for v in row] for row in self.rows]
        widths = [max(len(headings[j]), *(len(r[j]) for r in cells)) if cells else len(headings[j])
                  for j in range(len(headings))]
        lines = []
        meta_bits = [f"{k}={v}" for k, v in self.metadata.items()
                     if k in ("scenario", "seed", "iterations", "truth") and v is not None]
        if meta_bits:
            lines.append("# " + "  ".join(str(b) for b in meta_bits))
        lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headings)).rstrip())
        lines.append("  ".join("-" * widths[j] for j in range(len(widths))))
        for row in cells:
            lines.append("  ".join(row[j].ljust(widths[j]) for j in range(len(row))).rstrip())
        for warning in self.warnings:
            lines.append(f"! {warning}")
        if self.elapsed_seconds is not None:
            lines.append(f"# elapsed: {self.elapsed_seconds:.1f}s")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}")


def _config_metadata(config: ScenarioConfig) -> dict:
    """Every field of the run's DgpConfig and SelectionConfig (``kind`` as
    ``selection_kind``), then the top-level settings."""
    selection = asdict(config.selection)
    selection["selection_kind"] = selection.pop("kind")
    return {"scenario": config.name, "seed": config.base_seed, "iterations": config.iterations,
            **asdict(config.dgp), **selection, "estimators": list(config.estimators),
            "w": config.w, "b": config.b, "misclassification": config.misclassification,
            "version": __version__}


def report_from_scenario(result: ScenarioResult, *, elapsed: float | None = None) -> RunReport:
    rows = [
        (row.estimator_id, row.bias, row.empirical_se, row.mean_sandwich_se,
         row.coverage, row.n_effective)
        for row in result.rows
    ]
    metadata = _config_metadata(result.config)
    metadata["truth"] = result.truth
    metadata["calibrated_intercept"] = result.calibrated_intercept
    warnings_list = []
    for est_id, reasons in result.failure_reasons.items():
        detail = ", ".join(f"{reason} x{count}" for reason, count in sorted(reasons.items()))
        warnings_list.append(f"{est_id}: {detail}")
    return RunReport("simulate", SIMULATE_COLUMNS, rows, metadata, warnings_list, elapsed)


def report_from_analysis(analysis, *, metadata: dict,
                         elapsed: float | None = None) -> RunReport:
    # analyze_frame fills analysis.estimates in ESTIMATOR_IDS order
    rows = [(est_id, estimate.tau, estimate.se, estimate.ci_low, estimate.ci_high,
             estimate.weight_used) for est_id, estimate in analysis.estimates.items()]
    warnings_list = []
    for est_id, reason in sorted(analysis.failures.items()):
        warnings_list.append(f"{est_id}: not computed ({reason})")
    for est_id, reason in sorted(analysis.se_failures.items()):
        warnings_list.append(f"{est_id}: point estimate only, no sandwich SE ({reason})")
    if analysis.rates is not None:
        pairs = analysis.rates.pairs
        suffixes = ("",) if len(pairs) == 1 else ("_control", "_treated")
        metadata = dict(metadata)
        for suffix, (p11, p10) in zip(suffixes, pairs):
            metadata.update({f"p11_hat{suffix}": p11, f"p10_hat{suffix}": p10})
    return RunReport("estimate", ESTIMATE_COLUMNS, rows, metadata, warnings_list, elapsed)


def report_from_truth(truth: TruthEstimate, *, metadata: dict,
                      elapsed: float | None = None) -> RunReport:
    rows = [(truth.value, truth.mc_se, truth.populations, truth.population_n)]
    return RunReport("true-ate", TRUTH_COLUMNS, rows, metadata, [], elapsed)
