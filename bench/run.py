#!/usr/bin/env python3
"""Benchmark of mismeasure-ate: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload sim_nonprob --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
there. The workloads (see bench/README.md for why each was chosen):

* ``sim_nonprob``: ``run_scenario`` on the ``main_nonprob`` preset, all 8
  table estimators, fixed truth, ``workers=1``, with the program's default
  failure guard. One op is one Monte Carlo iteration; ops are issued in
  batches of BATCH iterations, one ``run_scenario`` call each.
* ``estimate_csv``: ``cli.main(["estimate", csv, spec, "--format", "json"])``
  on one seeded 20,000-row CSV drawn from ``main_srs`` with an SRS model
  spec. One op is one call.
* ``truth_oracle``: ``true_ate_oracle`` on the ``main_srs`` process with
  50,000-row populations. One op is one population.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures half the
time untraced and half traced and reports the per-layer metrics. Every run
checks its outputs (bench/gate.py) against bench/reference.json and for
determinism, prints one line per metric and an input/environment record, and
ends with one JSON line. It exits 1 when a check fails and 2 when the
package cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads; children inherit it
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "mismeasure_ate"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
SETUP_SPEED_S = 0.05   # speed-kernel burst before and after each set-up probe
SPEED_SHARE = 0.1      # speed-kernel time after an op, as a share of the op's time

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# times are scaled to the nominal host speed (speed.py); setup_s keeps the
# unit "s" that the benchmark format requires of it
END_TO_END = (
    ("ops_per_s", "1/nominal_s"),
    ("op_ms_p50", "nominal_ms"),
    ("op_ms_p75", "nominal_ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def load_package():
    """Import the package from this checkout's src/, or exit 2."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {PACKAGE_DIR}; run from a checkout root\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mismeasure_ate

    if Path(mismeasure_ate.__file__).resolve().parent != PACKAGE_DIR.resolve():
        sys.stderr.write(f"error: imported {mismeasure_ate.__file__}, not {PACKAGE_DIR}\n")
        sys.exit(2)


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0]) >> 1


@dataclass
class Outcome:
    """One timed call: its wall time, the ops it completed, and its checks."""

    seconds: float
    ops: int
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


class SimNonprob:
    """Monte Carlo iterations of main_nonprob, BATCH per run_scenario call."""

    # reproduce_tables runs 1000 iterations per scenario (5000 with --full),
    # and each run_scenario call calibrates the selection intercept once, in
    # under one iteration's time. 100 iterations per call keep that
    # once-per-scenario cost under 1% of an op, near the 0.1% users pay.
    BATCH = 100

    def __init__(self, seed: int, workdir: Path, reference: dict):
        from mismeasure_ate import simulation as sim

        self.seed = seed
        self.reference = reference
        self.truth = reference["truth"]["value"]
        self.config = replace(sim.scenario_catalog()["main_nonprob"], truth=self.truth)
        self.first_report = None

    @property
    def expected_ids(self) -> list[str]:
        return [row["estimator"] for row in self.reference["sim_nonprob"]["report"]["rows"]]

    def run(self, iterations: int, base_seed: int):
        from mismeasure_ate import reporting, simulation as sim

        config = replace(self.config, iterations=iterations, base_seed=base_seed)
        started = time.perf_counter()
        result = sim.run_scenario(config, workers=1)
        elapsed = time.perf_counter() - started
        report = reporting.report_from_scenario(result).render("json")
        failed = {e: sum(r.values()) for e, r in result.failure_reasons.items()}
        return elapsed, report, failed

    def warm_up(self) -> None:
        self.first_report = self.run(1, op_seed(self.seed, 0))[1]

    def op(self, index: int) -> Outcome:
        elapsed, report, failed = self.run(self.BATCH, op_seed(self.seed, index))
        problems = gate.check_simulate(report, self.expected_ids, iterations=self.BATCH,
                                       truth=self.truth, failed=failed)
        return Outcome(elapsed, self.BATCH, self.BATCH * len(self.config.estimators),
                       sum(failed.values()), problems)

    def reference_check(self) -> list[str]:
        ref = self.reference["sim_nonprob"]
        _, report, failed = self.run(ref["report"]["metadata"]["iterations"],
                                      self.reference["ref_seed"])
        return gate.check_simulate(report, self.expected_ids,
                                   iterations=ref["report"]["metadata"]["iterations"],
                                   truth=self.truth, failed=failed, reference=ref["report"])

    def determinism_check(self) -> list[str]:
        again = self.run(1, op_seed(self.seed, 0))[1]
        if again != self.first_report:
            return ["simulate report differs on a same-seed rerun"]
        return []

    def inputs(self) -> dict:
        return {"rows": self.config.dgp.n, "target_nv": self.config.selection.target_nv,
                "iterations_per_call": self.BATCH, "estimators": len(self.config.estimators)}


class EstimateCsv:
    """Repeated ``estimate --format json`` calls on one seeded 20,000-row CSV."""

    ROWS = 20_000
    CSV_STREAM = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.truth = reference["truth"]["value"]
        self.expected_ids = [row["estimator"] for row in reference["estimate_csv"]["rows"]]
        self.n_v = self.write_inputs(seed, workdir / "data.csv", workdir / "model.json")
        self.first_stdout = None

    @classmethod
    def write_inputs(cls, seed: int, csv_path: Path, spec_path: Path) -> int:
        """Draw the CSV from main_srs at ROWS rows, validation share unchanged."""
        from mismeasure_ate import reporting, simulation as sim

        preset = sim.scenario_catalog()["main_srs"]
        scale = cls.ROWS / preset.dgp.n
        selection = replace(preset.selection, target_nv=round(preset.selection.target_nv * scale))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, cls.CSV_STREAM])))
        population = sim.generate_population(replace(preset.dgp, n=cls.ROWS), rng)
        frame = sim.select_validation(population, selection, rng)
        reporting.write_dataset_csv(frame, csv_path)
        columns = [f"x{j + 1}" for j in range(frame.p)]
        spec_path.write_text(json.dumps({"treatment_covariates": columns,
                                         "selection_covariates": None}))
        return frame.n_v

    @staticmethod
    def call(csv_path: Path, spec_path: Path):
        from mismeasure_ate import cli

        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", str(csv_path), str(spec_path), "--format", "json"])
        return time.perf_counter() - started, code, out.getvalue(), err.getvalue()

    def warm_up(self) -> None:
        _, _, self.first_stdout, _ = self.call(self.workdir / "data.csv",
                                                self.workdir / "model.json")

    def op(self, index: int) -> Outcome:
        elapsed, code, stdout, stderr = self.call(self.workdir / "data.csv",
                                                   self.workdir / "model.json")
        problems = gate.check_estimate(stdout, code, self.expected_ids, truth=self.truth)
        if stdout != self.first_stdout:
            problems.append("estimate output differs between calls on the same CSV")
        if stderr:
            problems.append(f"estimate wrote to stderr: {stderr.strip()}")
        return Outcome(elapsed, 1, 1, int(code != 0), problems)

    def reference_check(self) -> list[str]:
        csv_path, spec_path = self.workdir / "ref.csv", self.workdir / "ref_model.json"
        self.write_inputs(self.reference["ref_seed"], csv_path, spec_path)
        _, code, stdout, _ = self.call(csv_path, spec_path)
        return gate.check_estimate(stdout, code, self.expected_ids, truth=self.truth,
                                   reference_rows=self.reference["estimate_csv"]["rows"])

    def determinism_check(self) -> list[str]:
        return []  # every op already compares its output with the warm-up's

    def inputs(self) -> dict:
        return {"rows": self.ROWS, "n_v": self.n_v}


class TruthOracle:
    """One 50,000-row truth-oracle population per op."""

    POPULATION_N = 50_000

    def __init__(self, seed: int, workdir: Path, reference: dict):
        from mismeasure_ate import simulation as sim

        self.seed = seed
        self.reference = reference
        self.dgp = sim.scenario_catalog()["main_srs"].dgp
        self.first_value = None

    def run(self, populations: int, base_seed: int):
        from mismeasure_ate import simulation as sim

        started = time.perf_counter()
        truth = sim.true_ate_oracle(self.dgp, populations=populations,
                                    population_n=self.POPULATION_N,
                                    base_seed=base_seed, workers=1)
        return time.perf_counter() - started, truth.value

    def _check(self, value: float, populations: int, reference=None) -> list[str]:
        truth = self.reference["truth"]
        return gate.check_truth(value, truth=truth["value"], population_sd=truth["population_sd"],
                                populations=populations, reference=reference)

    def warm_up(self) -> None:
        self.first_value = self.run(1, op_seed(self.seed, 0))[1]

    def op(self, index: int) -> Outcome:
        elapsed, value = self.run(1, op_seed(self.seed, index))
        problems = self._check(value, 1)
        return Outcome(elapsed, 1, 1, int(bool(problems)), problems)

    def reference_check(self) -> list[str]:
        ref = self.reference["truth_oracle"]
        _, value = self.run(ref["populations"], self.reference["ref_seed"])
        return self._check(value, ref["populations"], reference=ref["value"])

    def determinism_check(self) -> list[str]:
        again = self.run(1, op_seed(self.seed, 0))[1]
        return [] if again == self.first_value else ["truth value differs on a same-seed rerun"]

    def inputs(self) -> dict:
        return {"rows": self.POPULATION_N}


WORKLOADS = {"sim_nonprob": SimNonprob, "estimate_csv": EstimateCsv,
             "truth_oracle": TruthOracle}


@dataclass
class Segment:
    """Closed-loop measurement of one stretch of wall time.

    Times are scaled to the nominal host speed (see speed.py); the raw wall
    times are kept alongside.
    """

    samples_ms: list = field(default_factory=list)  # per-op latency of each call
    raw_samples_ms: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # mean speed-kernel time of each burst
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.raw_busy_s


def measure(workload, probe: speed.SpeedProbe, seconds: float, first_index: int) -> Segment:
    """Issue ops back to back until ``seconds`` of wall time have passed.

    A speed-kernel burst of SPEED_SHARE of the op's time follows every op;
    an op is scaled by the mean of the bursts just before and after it.
    """
    segment = Segment()
    index = first_index
    deadline = time.perf_counter() + seconds
    before = probe.burst(0.0)
    segment.kernel_s.append(before)
    while time.perf_counter() < deadline:
        outcome = workload.op(index)
        after = probe.burst(SPEED_SHARE * outcome.seconds)
        scaled = speed.scale(outcome.seconds, 0.5 * (before + after))
        segment.samples_ms.append(scaled * 1e3 / outcome.ops)
        segment.raw_samples_ms.append(outcome.seconds * 1e3 / outcome.ops)
        segment.kernel_s.append(after)
        segment.busy_s += scaled
        segment.raw_busy_s += outcome.seconds
        segment.ops += outcome.ops
        segment.attempted += outcome.attempted
        segment.failed += outcome.failed
        segment.problems += [f"op {index}: {p}" for p in outcome.problems]
        index += 1
        before = after
    return segment


def percentile(values, q: int) -> float:
    """The q-th percentile of the samples, interpolated within their range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe(args, probe: speed.SpeedProbe) -> tuple[float, float]:
    """Wall time of a fresh interpreter that sets the workload up and exits,
    scaled to the nominal host speed and raw."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--setup-only"]
    before = probe.burst(SETUP_SPEED_S)
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    after = probe.burst(SETUP_SPEED_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up probe exited with code {done.returncode}")
    return speed.scale(elapsed, 0.5 * (before + after)), elapsed


def environment() -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_loc": sum(len(p.read_text(encoding="utf-8").splitlines())
                       for p in sorted(PACKAGE_DIR.rglob("*.py"))),
    }


def traced(fn):
    """Run ``fn`` under a tracer; return its result and the spans."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        return fn(), tracer.spans
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, then exit (the set-up probe)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_package()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, reference).warm_up()
            return 0

        probe = speed.SpeedProbe()
        setup_samples = [] if args.trace else [setup_probe(args, probe)
                                               for _ in range(SETUP_PROBES)]
        workload = WORKLOADS[args.workload](args.seed, workdir, reference)
        workload.warm_up()

        if args.trace:
            untraced = measure(workload, probe, args.seconds / 2, 0)
            main_segment, span_list = traced(
                lambda: measure(workload, probe, args.seconds / 2, len(untraced.samples_ms)))
            segments = (untraced, main_segment)
        else:
            main_segment = measure(workload, probe, args.seconds, 0)
            segments = (main_segment,)

        # the reference check runs traced: outputs must not depend on tracing,
        # and the Jacobian widths it records are the stack dimensions
        ref_problems, ref_spans = traced(workload.reference_check)
        problems = [p for s in segments for p in s.problems]
        problems += [f"reference: {p}" for p in ref_problems]
        problems += workload.determinism_check()

    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    samples, raw = main_segment.samples_ms, main_segment.raw_samples_ms
    p75, p90 = percentile(samples, 75), percentile(samples, 90)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "inputs": dict(workload.inputs(), stack_dims=sorted(
            {s.counts["columns"] for s in ref_spans if s.name == "numerics.numeric_jacobian"})),
        "ops": main_segment.ops, "samples": len(samples),
        "samples_beyond_p75": sum(v > p75 for v in samples),
        "samples_beyond_p90": sum(v > p90 for v in samples),
        "failed_share": failed / attempted,
        "op_ms_p90": p90,
        "setup_samples_s": [scaled for scaled, _ in setup_samples],
        "speed_kernel_ms_p50": statistics.median(main_segment.kernel_s) * 1e3,
        "raw_wall": {
            "ops_per_s": main_segment.raw_ops_per_s,
            "op_ms_p50": statistics.median(raw),
            "op_ms_p75": percentile(raw, 75),
            "op_ms_p90": percentile(raw, 90),
            "setup_samples_s": [wall for _, wall in setup_samples],
        },
    }
    if args.trace:
        metrics = spans.per_layer_metrics(span_list, main_segment.ops,
                                          segments[0].ops_per_s, main_segment.ops_per_s)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {
            "ops_per_s": main_segment.ops_per_s,
            "op_ms_p50": statistics.median(samples),
            "op_ms_p75": p75,
            "setup_s": statistics.median(scaled for scaled, _ in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    print(f"{'failed_share':42s} {record['failed_share']:14.6g} failed/attempted")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
