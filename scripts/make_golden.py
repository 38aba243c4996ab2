#!/usr/bin/env python3
"""Write the golden reports of ``tests/golden/``; nothing else writes there.

The goldens are:

* the ``simulate`` JSON report of every distinct preset of
  ``simulation.scenario_catalog`` (20 iterations, every estimator, a fixed
  truth); the heterogeneous ones count their rates by arm, and
  ``heterogeneous_srs`` is the one that reads those rates through the
  simple-random-sample twins of the fitted-selection blocks;
* the ``estimate`` JSON reports of the datasets that
  ``scripts/make_dataset.py`` writes with seed 7 for four presets, each with
  the preset's model spec (fitted selection, simple random sample, a
  selection and treatment model that leave out x2, misclassification that
  differs by arm);
* the ``true-ate`` JSON report of ``main_srs`` over two 20,000-row
  populations;
* ``degenerate_frames.json``: for each of 300 small random frames of
  ``tests/degenerate.py`` (seed 2023, the property test's generator and
  seed), the error class ``analyze_frame`` raised, or its failure maps
  (point and SE failures by class name) and each estimate's point, SE and
  blend weight.

``tests/test_golden.py`` makes the same reports afresh (the datasets too)
and compares them with the goldens within the benchmark gate's tolerances.
Rewrite the goldens only when a change means to move a report, and say by
how much.

Example:
    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from mismeasure_ate import cli
from mismeasure_ate.errors import MismeasureError
from mismeasure_ate.frames import ESTIMATOR_IDS
from mismeasure_ate.inference import analyze_frame
from mismeasure_ate.simulation import scenario_catalog

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# every distinct preset once; an alias's config carries its target's name
SIMULATE_PRESETS = tuple(name for name, config in scenario_catalog().items()
                         if config.name == name)
ITERATIONS, TRUTH = 20, 0.0677
DATASET_PRESETS, DATASET_SEED, DATASET_STEM = (
    "main_nonprob", "main_srs", "misspecified_selection", "heterogeneous_nonprob"), 7, "golden"
TRUE_ATE_ARGS = ("main_srs", "--populations", "2", "--pop-n", "20000")
DEGENERATE_FRAMES, DEGENERATE_SEED, DEGENERATE_NAME = 300, 2023, "degenerate_frames.json"


def _load(name: str, path: Path):
    """The module of the Python file at ``path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(args) -> str:
    """What ``mismeasure-ate <args> --format json`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*args, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"mismeasure-ate {' '.join(args)} exited with code {code}")
    return out.getvalue()


def _make_dataset(folder: Path, scenario: str) -> tuple[Path, Path]:
    """(CSV, model spec) of ``scenario`` that ``scripts/make_dataset.py``
    writes into ``folder``."""
    module = _load("make_dataset", ROOT / "scripts" / "make_dataset.py")
    folder.mkdir()
    stem = folder / DATASET_STEM
    with contextlib.redirect_stdout(io.StringIO()):
        code = module.main(["--scenario", scenario, "--seed", str(DATASET_SEED),
                            "--out", str(stem)])
    if code != 0:
        raise RuntimeError(f"make_dataset.py exited with code {code}")
    return stem.with_suffix(".csv"), Path(f"{stem}_model.json")


def _degenerate_frames() -> str:
    """The failure-map report: one record per frame of
    ``tests/degenerate.py``, one line each. A record is the class
    ``analyze_frame`` raised with no rows, or its failure maps and one row
    per estimate, as a report's rows are."""
    draw = _load("degenerate", ROOT / "tests" / "degenerate.py").random_degenerate_frame
    rng = np.random.default_rng(DEGENERATE_SEED)
    records = []
    for _ in range(DEGENERATE_FRAMES):
        frame, options = draw(rng)
        try:
            analysis = analyze_frame(frame, ESTIMATOR_IDS, **options)
        except MismeasureError as exc:
            records.append({"raised": type(exc).__name__, "rows": []})
            continue
        records.append({
            "raised": None, "failures": analysis.failures, "se_failures": analysis.se_failures,
            "rows": [{"estimator": e.estimator_id, "tau": e.tau, "se": e.se,
                      "weight_used": e.weight_used} for e in analysis.estimates.values()]})
    return "[\n" + ",\n".join(json.dumps(r, allow_nan=False) for r in records) + "\n]\n"


def reports(folder: Path) -> dict[str, str]:
    """Golden file name -> report text, made now; the datasets go into
    ``folder``, one subfolder each, so every report names ``golden.csv``."""
    made = {f"simulate_{preset}.json": _report(
        ["simulate", preset, "--iterations", str(ITERATIONS), "--truth", str(TRUTH),
         "--estimators", ",".join(ESTIMATOR_IDS)]) for preset in SIMULATE_PRESETS}
    for preset in DATASET_PRESETS:
        data, model = _make_dataset(folder / preset, preset)
        made[f"estimate_{preset}.json"] = _report(["estimate", str(data), str(model)])
    made[f"true_ate_{TRUE_ATE_ARGS[0]}.json"] = _report(["true-ate", *TRUE_ATE_ARGS])
    made[DEGENERATE_NAME] = _degenerate_frames()
    return made


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as folder:
        for name, text in reports(Path(folder)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN.relative_to(ROOT) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
