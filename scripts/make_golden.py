#!/usr/bin/env python3
"""Write the golden reports of ``tests/golden/``; nothing else writes there.

The goldens are ``simulate`` JSON reports of three presets (20 iterations,
every estimator, a fixed truth), one of them counting its rates by arm, and
the ``estimate`` JSON report of the ``main_nonprob`` dataset that
``scripts/make_dataset.py`` writes with seed 7. ``tests/test_golden.py``
makes the same reports afresh (the dataset too) and compares them with the
goldens within the benchmark gate's tolerances. Rewrite the goldens only
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
DATASET_SCENARIO, DATASET_SEED, DATASET_STEM = "main_nonprob", 7, "golden"


def _report(args) -> str:
    """What ``mismeasure-ate <args> --format json`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*args, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"mismeasure-ate {' '.join(args)} exited with code {code}")
    return out.getvalue()


def _make_dataset(folder: Path) -> tuple[Path, Path]:
    """(CSV, model spec) that ``scripts/make_dataset.py`` writes into ``folder``."""
    spec = importlib.util.spec_from_file_location("make_dataset", ROOT / "scripts" / "make_dataset.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stem = folder / DATASET_STEM
    with contextlib.redirect_stdout(io.StringIO()):
        code = module.main(["--scenario", DATASET_SCENARIO, "--seed", str(DATASET_SEED),
                            "--out", str(stem)])
    if code != 0:
        raise RuntimeError(f"make_dataset.py exited with code {code}")
    return stem.with_suffix(".csv"), Path(f"{stem}_model.json")


def reports(folder: Path) -> dict[str, str]:
    """Golden file name -> report text, made now; the dataset goes into ``folder``."""
    made = {f"simulate_{preset}.json": _report(
        ["simulate", preset, "--iterations", str(ITERATIONS), "--truth", str(TRUTH),
         "--estimators", ",".join(ESTIMATOR_IDS)]) for preset in SIMULATE_PRESETS}
    data, model = _make_dataset(folder)
    made[f"estimate_{DATASET_SCENARIO}.json"] = _report(["estimate", str(data), str(model)])
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
