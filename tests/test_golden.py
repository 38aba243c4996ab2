"""Golden reports: today's ``simulate``, ``estimate`` and ``true-ate`` JSON
and the failure maps of the degenerate frames against the reports in
``tests/golden/`` (written by ``scripts/make_golden.py``).

The tolerances are the benchmark gate's (``bench/gate.py``): every value
that is not a float exactly; points (estimates, biases, empirical SEs, blend
weights, counted rates, the truth and its Monte Carlo SE) within POINT_ABS,
or WEIGHTED_ABS for the estimators whose point moves with an SE-derived
weight; sandwich SEs within SE_REL relative; CI bounds within
z * se * SE_REL plus the point tolerance; and a coverage within one
iteration of n_effective. Every golden and every fresh report must be
strict JSON: a NaN or Infinity token fails the parse.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate", ROOT / "bench" / "gate.py")
make_golden = _load("make_golden", ROOT / "scripts" / "make_golden.py")

SE_FIELDS = ("se", "mean_sandwich_se")
CI_FIELDS = ("ci_low", "ci_high")


def strict(text: str):
    """The JSON value of ``text``; a NaN or Infinity token raises."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def compare(want: dict, got: dict, label: str, largest: dict) -> list[str]:
    """Failures of report ``got`` against golden ``want``; records in
    ``largest`` the largest change per (report, estimator, field), absolute
    for points and coverage and relative for SEs and CI bounds (to the
    interval's half-width)."""
    failures = []

    def same(path, a, b):
        if isinstance(a, float) and isinstance(b, float):
            if not abs(a - b) <= gate.POINT_ABS:
                failures.append(f"{path}: {b!r} != golden {a!r}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for k, (x, y) in enumerate(zip(a, b)):
                same(f"{path}[{k}]", x, y)
        elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in a:
                same(f"{path}.{key}", a[key], b[key])
        elif type(a) is not type(b) or a != b:
            failures.append(f"{path}: {b!r} != golden {a!r}")

    same(label, {k: v for k, v in want.items() if k != "rows"},
         {k: v for k, v in got.items() if k != "rows"})
    def name(row):  # the one row of a true-ate report names no estimator
        return row.get("estimator", "truth")

    rows = {name(row): row for row in got["rows"]}
    if [name(row) for row in want["rows"]] != [name(row) for row in got["rows"]]:
        return failures + [f"{label}: estimators {list(rows)} differ from the golden's"]
    for ref in want["rows"]:
        est_id, row = name(ref), rows[name(ref)]
        point_tol = gate.WEIGHTED_ABS if est_id in gate.SE_WEIGHTED else gate.POINT_ABS
        for key, golden in ref.items():
            value, where = row[key], f"{label}.{est_id}.{key}"
            if not (isinstance(golden, float) and isinstance(value, float)):
                same(where, golden, value)
                continue
            change = abs(value - golden)
            if key in SE_FIELDS:  # a golden SE of 0 (a degenerate frame's) compares absolutely
                change, tol = change / (golden or 1.0), gate.SE_REL
            elif key in CI_FIELDS:
                half = gate.Z_975 * ref["se"]
                change, tol = change / half, gate.SE_REL + point_tol / half
            elif key == "coverage":
                tol = 1.0 / ref["n_effective"] + 1e-12
            else:
                tol = point_tol
            largest[label, est_id, key] = change
            if not change <= tol:
                failures.append(f"{where}: {value!r} != golden {golden!r}")
    return failures


def test_reports_match_the_goldens(tmp_path):
    fresh = make_golden.reports(tmp_path)
    assert sorted(fresh) == sorted(p.name for p in make_golden.GOLDEN.glob("*.json"))
    failures, largest = [], {}
    for name, text in fresh.items():
        want, got = strict((make_golden.GOLDEN / name).read_text(encoding="utf-8")), strict(text)
        label = name.removesuffix(".json")
        if name == make_golden.DEGENERATE_NAME:  # one record per frame
            assert len(want) == len(got) == make_golden.DEGENERATE_FRAMES
            for k, (record, fresh_record) in enumerate(zip(want, got)):
                failures += compare(record, fresh_record, f"{label}[{k}]", largest)
        else:
            failures += compare(want, got, label, largest)
    # the largest change per field and estimator, shown with ``pytest -s``
    fields = sorted({key for _, _, key in largest})
    estimators = list(dict.fromkeys(est_id for _, est_id, _ in largest))
    print("\nlargest change vs tests/golden (SEs and CI bounds relative)")
    print("estimator".ljust(18) + "".join(key.rjust(18) for key in fields))
    for est_id in estimators:
        cells = [max((c for (_, e, k), c in largest.items() if e == est_id and k == key),
                     default=None) for key in fields]
        print(est_id.ljust(18) + "".join(("-" if c is None else f"{c:.2e}").rjust(18)
                                         for c in cells))
    assert not failures, failures


def test_degenerate_frames_reach_every_block_failure():
    # the failure classes a weighted block or the rates raise while solving,
    # each reached by some frame of the corpus. EmptyArm (an arm of zero
    # weight over every row) is not: a frame with one treatment arm stops
    # at the treatment fit first, which raises SeparationSuspected
    records = strict((make_golden.GOLDEN / make_golden.DEGENERATE_NAME).read_text(encoding="utf-8"))
    reasons = {reason for record in records if record["raised"] is None
               for reason in (*record["failures"].values(), *record["se_failures"].values())}
    assert {"EmptyComplement", "EmptyValidationArm", "EmptyComplementArm",
            "MissingGoldOutcomes", "DegenerateValidation", "NonIdentifiable"} <= reasons
    assert "EmptyArm" not in reasons


def test_comparator_applies_the_gate_tolerances():
    want = strict((make_golden.GOLDEN / "simulate_main_srs.json").read_text(encoding="utf-8"))

    def moved(key, by, est_id="val_only"):
        got = json.loads(json.dumps(want))
        row = next(r for r in got["rows"] if r["estimator"] == est_id)
        row[key] = row[key] * (1.0 + by) if key == "mean_sandwich_se" else row[key] + by
        return compare(want, got, "srs", {})

    n = want["rows"][0]["n_effective"]
    assert not moved("bias", 0.5e-9) and moved("bias", 2e-9)
    assert not moved("bias", 5e-9, "s_opt") and moved("bias", 2e-8, "s_opt")
    assert not moved("mean_sandwich_se", 0.5e-6) and moved("mean_sandwich_se", 2e-6)
    assert not moved("coverage", -1.0 / n) and moved("coverage", -2.0 / n)
    assert moved("n_effective", 1)
