#!/usr/bin/env python3
"""Write the golden reports of ``tests/golden/``; nothing else writes there.

The goldens are ``simulate`` JSON reports of three presets (20 iterations,
every estimator, a fixed truth), one of them counting its rates by arm; the
``estimate`` JSON reports of the datasets that ``scripts/make_dataset.py``
writes with seed 7 for four presets, each with the preset's model spec
(fitted selection, simple random sample, a selection and treatment model
that leave out x2, misclassification that differs by arm); and the ``true-ate`` JSON report of ``main_srs`` over
two 20,000-row populations. ``tests/test_golden.py`` makes the same reports
afresh (the datasets too) and compares them with the goldens within the
benchmark gate's tolerances. Rewrite the goldens only
when a change means to move a report, and say by how much.

Example:
    PYTHONPATH=src python scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from mismeasure_ate import cli
from mismeasure_ate.frames import ESTIMATOR_IDS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SIMULATE_PRESETS = ("main_nonprob", "main_srs", "heterogeneous_nonprob")
ITERATIONS, TRUTH = 20, 0.0677
DATASET_PRESETS, DATASET_SEED, DATASET_STEM = (
    "main_nonprob", "main_srs", "misspecified_selection", "heterogeneous_nonprob"), 7, "golden"
TRUE_ATE_ARGS = ("main_srs", "--populations", "2", "--pop-n", "20000")


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
    spec = importlib.util.spec_from_file_location("make_dataset", ROOT / "scripts" / "make_dataset.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    folder.mkdir()
    stem = folder / DATASET_STEM
    with contextlib.redirect_stdout(io.StringIO()):
        code = module.main(["--scenario", scenario, "--seed", str(DATASET_SEED),
                            "--out", str(stem)])
    if code != 0:
        raise RuntimeError(f"make_dataset.py exited with code {code}")
    return stem.with_suffix(".csv"), Path(f"{stem}_model.json")


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
