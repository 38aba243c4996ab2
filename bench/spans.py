"""Span tracing around the package's layer boundaries, from outside the package.

The tracer wraps the package's functions at the names its modules look them
up by, so no file under ``src/`` changes. A span records its name, start, end
and parent; counters recorded at the same boundary (Jacobian columns, IRLS
iterations, rows parsed, failures) are attached to the span that produced
them. Spans stay in memory and are reduced once, when the traced segment ends.

A name that a later version of the package no longer has is skipped, so its
metrics read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "mismeasure_ate"

# (module, function, span name). Every module-level reference to the function
# object anywhere in the package is replaced, so a function imported by name
# into another module is traced there too.
FUNCTION_SPANS = (
    ("numerics", "numeric_jacobian", "numerics.numeric_jacobian"),
    ("numerics", "fit_logistic", "numerics.fit_logistic"),
    ("numerics", "solve_linear", "numerics.solve_linear"),
    ("inference", "analyze_frame", "inference.analyze_frame"),
    ("inference", "solve_plugin", "inference.solve_plugin"),
    ("inference", "fit_selection", "inference.fit_selection"),
    ("inference", "ipw_point_and_se", "inference.ipw_point_and_se"),
    ("inference", "sandwich", "inference.sandwich"),
    # the private core is shared by the stacked and the plain IPW sandwiches
    ("inference", "_sandwich_core", "inference.sandwich"),
    ("estimators", "estimate_misclassification", "estimators"),
    ("estimators", "ipw_difference", "estimators"),
    ("simulation", "generate_population", "simulation.generate_population"),
    ("simulation", "select_validation", "simulation.select_validation"),
    ("simulation", "calibrate_intercept", "simulation.calibrate_intercept"),
    ("simulation", "run_scenario", "simulation.run_scenario"),
    ("simulation", "true_ate_oracle", "simulation.true_ate_oracle"),
    ("reporting", "read_dataset_csv", "reporting.read_dataset_csv"),
    ("cli", "main", "cli.main"),
)
# every estimators.tau_* joins the "estimators" layer
ESTIMATOR_PREFIX = "tau_"
# (module, method, span name): methods wrapped on every class that defines them
METHOD_SPANS = (
    ("inference", "per_subject_residuals", "inference.residuals"),
    ("reporting", "render", "reporting.render"),
)

# A residual evaluation made by the numeric Jacobian is the Jacobian's work
# (an exact bread removes both), so it opens no span of its own there: it is
# counted on the Jacobian's span under "residual_evals" and its time stays in
# the Jacobian's self time. Elsewhere (the meat, the residual check) it is a
# span of its own.
JACOBIAN, RESIDUALS = "numerics.numeric_jacobian", "inference.residuals"

# span names that start an operation; their self time is the orchestration
# left over once every named layer below them is subtracted
ROOT_SPANS = ("simulation.run_scenario", "simulation.true_ate_oracle", "cli.main")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    counts: dict = field(default_factory=dict)


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counters measured at the boundary of ``name``."""
    if name == "numerics.numeric_jacobian":
        theta = args[1] if len(args) > 1 else kwargs["theta"]
        return {"columns": len(theta)}
    if name == "numerics.fit_logistic":
        return {"irls_iters": int(result.iterations)}
    if name == "reporting.read_dataset_csv":
        return {"rows": int(result.n)}
    if name == "inference.analyze_frame":
        return {"failures": len(result.failures), "se_failures": len(result.se_failures)}
    return {}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == RESIDUALS and tracer._stack \
                    and tracer.spans[tracer._stack[-1]].name == JACOBIAN:
                counts = tracer.spans[tracer._stack[-1]].counts
                counts["residual_evals"] = counts.get("residual_evals", 0) + 1
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.counts.update(_counts(name, args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        targets = []
        for module_name, fn_name, span_name in FUNCTION_SPANS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if hasattr(module, fn_name):
                targets.append((getattr(module, fn_name), span_name))
        estimators = importlib.import_module(f"{PACKAGE}.estimators")
        for fn_name in sorted(vars(estimators)):
            if fn_name.startswith(ESTIMATOR_PREFIX) and callable(getattr(estimators, fn_name)):
                targets.append((getattr(estimators, fn_name), "estimators"))

        for original, span_name in targets:
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        for module_name, method, span_name in METHOD_SPANS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for cls in list(vars(module).values()):
                if isinstance(cls, type) and cls.__module__ == module.__name__ \
                        and method in vars(cls):
                    self._patch(cls, method, self._wrap(vars(cls)[method], span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children.get(index, ())]
        out.append((span.end - span.start) - covered([k for k in kids if k[1] > k[0]]))
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    ms: float = 0.0        # inclusive, outermost spans of this name only
    self_ms: float = 0.0
    counts: dict = field(default_factory=dict)


def layer_totals(spans) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive and self milliseconds, counters.

    Inclusive time counts only spans with no ancestor of the same name, so a
    layer that calls itself is not counted twice.
    """
    totals: dict[str, LayerTotals] = {}
    selfs = self_times(spans)
    for index, span in enumerate(spans):
        layer = totals.setdefault(span.name, LayerTotals())
        layer.calls += 1
        layer.self_ms += selfs[index] * 1e3
        for key, value in span.counts.items():
            layer.counts[key] = layer.counts.get(key, 0) + value
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            layer.ms += (span.end - span.start) * 1e3
    return totals


# (metric, unit, better): the per-layer metrics, each normalised per op
PER_LAYER = (
    ("numerics.numeric_jacobian.calls", "calls/op", "lower"),
    ("numerics.numeric_jacobian.columns", "cols/op", "lower"),
    ("numerics.numeric_jacobian.self_ms", "ms/op", "lower"),
    ("inference.residuals.calls", "calls/op", "lower"),
    ("inference.residuals.self_ms", "ms/op", "lower"),
    ("inference.sandwich.self_ms", "ms/op", "lower"),
    ("inference.solve_plugin.calls", "calls/op", "lower"),
    ("inference.solve_plugin.self_ms", "ms/op", "lower"),
    ("inference.fit_selection.calls", "calls/op", "lower"),
    ("inference.fit_selection.self_ms", "ms/op", "lower"),
    ("inference.ipw_point_and_se.ms", "ms/op", "lower"),
    ("inference.analyze_frame.ms", "ms/op", "lower"),
    ("inference.residual_evals_per_frame", "calls/frame", "lower"),
    ("numerics.fit_logistic.calls", "calls/op", "lower"),
    ("numerics.fit_logistic.irls_iters", "iters/op", "lower"),
    ("numerics.fit_logistic.self_ms", "ms/op", "lower"),
    ("numerics.solve_linear.calls", "calls/op", "lower"),
    ("numerics.solve_linear.self_ms", "ms/op", "lower"),
    ("estimators.self_ms", "ms/op", "lower"),
    ("simulation.generate_population.self_ms", "ms/op", "lower"),
    ("simulation.select_validation.self_ms", "ms/op", "lower"),
    ("simulation.calibrate_intercept.ms", "ms/op", "lower"),
    ("simulation.run_scenario.self_ms", "ms/op", "lower"),
    ("reporting.read_dataset_csv.ms", "ms/op", "lower"),
    ("reporting.rows_per_s", "rows/s", "higher"),
    ("reporting.render.ms", "ms/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("inference.failures", "count/op", "lower"),
    ("inference.se_failures", "count/op", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def op_trees(spans) -> list[Span]:
    """The spans under a ROOT_SPANS root, parents re-indexed; work the
    benchmark itself does between ops (checking outputs) is dropped."""
    kept: dict[int, int] = {}
    out = []
    for index, span in enumerate(spans):
        if span.parent < 0 and span.name not in ROOT_SPANS:
            continue
        if span.parent >= 0 and span.parent not in kept:
            continue
        kept[index] = len(out)
        out.append(Span(span.name, span.start, span.end,
                        kept[span.parent] if span.parent >= 0 else -1, span.counts))
    return out


def per_layer_metrics(spans, ops: int, untraced_ops_per_s: float,
                      traced_ops_per_s: float) -> dict[str, float]:
    """Reduce a traced segment of ``ops`` operations to the PER_LAYER metrics."""
    spans = op_trees(spans)
    totals = layer_totals(spans)
    empty = LayerTotals()
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        entry = totals.get(layer, empty)
        if stat == "calls":
            out[metric] = entry.calls / ops
        elif stat in ("self_ms", "ms"):
            out[metric] = getattr(entry, stat) / ops
        elif stat in ("columns", "irls_iters"):
            out[metric] = entry.counts.get(stat, 0) / ops

    residual_evals = (totals.get(RESIDUALS, empty).calls
                      + totals.get(JACOBIAN, empty).counts.get("residual_evals", 0))
    out["inference.residuals.calls"] = residual_evals / ops
    frames = totals.get("inference.analyze_frame", empty)
    out["inference.residual_evals_per_frame"] = (
        residual_evals / frames.calls if frames.calls else 0.0)
    out["inference.failures"] = frames.counts.get("failures", 0) / ops
    out["inference.se_failures"] = frames.counts.get("se_failures", 0) / ops
    reader = totals.get("reporting.read_dataset_csv", empty)
    out["reporting.rows_per_s"] = (
        reader.counts.get("rows", 0) / (reader.ms / 1e3) if reader.ms else 0.0)

    selfs = self_times(spans)
    root_wall = sum(s.end - s.start for s in spans if s.parent < 0)
    attributed = sum(t for s, t in zip(spans, selfs) if s.name not in ROOT_SPANS)
    out["trace.coverage"] = attributed / root_wall if root_wall else 0.0
    out["trace.overhead"] = untraced_ops_per_s / traced_ops_per_s
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
