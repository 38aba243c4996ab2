import csv
import importlib.util
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from mismeasure_ate import cli
from mismeasure_ate import estimators as est
from mismeasure_ate import reporting as rep
from mismeasure_ate import simulation as sim
from mismeasure_ate.errors import ConfigParseError, SchemaError
from mismeasure_ate.frames import ObservationFrame
from mismeasure_ate.inference import analyze_frame


def make_frame(seed=0, n=900):
    """One frame drawn from the main biased-validation scenario."""
    config = sim.scenario_catalog()["main_nonprob"]
    selection_used, _ = sim.resolve_selection(config)
    rng = sim._rng(sim.child_seed(seed, 0))
    from dataclasses import replace

    population = sim.generate_population(replace(config.dgp, n=n), rng)
    return sim.select_validation(population, selection_used, rng)


def write_model_spec(path, selection=("x1", "x2", "x3", "x4", "x5")):
    spec = {
        "treatment_covariates": ["x1", "x2", "x3", "x4", "x5"],
        "selection_covariates": None if selection is None else list(selection),
    }
    path.write_text(json.dumps(spec))


def test_dataset_roundtrip_is_exact(tmp_path):
    frame = make_frame()
    path = tmp_path / "data.csv"
    rep.write_dataset_csv(frame, path)
    loaded = rep.read_dataset_csv(path)
    np.testing.assert_array_equal(frame.x, loaded.x)
    np.testing.assert_array_equal(frame.t, loaded.t)
    np.testing.assert_array_equal(frame.y_star, loaded.y_star)
    np.testing.assert_array_equal(frame.v, loaded.v)
    np.testing.assert_array_equal(frame.y[frame.v == 1], loaded.y[loaded.v == 1])
    assert np.all(np.isnan(loaded.y[loaded.v == 0]))


def test_estimate_matches_in_process_analysis(tmp_path, capsys):
    frame = make_frame(seed=3)
    data = tmp_path / "data.csv"
    spec = tmp_path / "spec.json"
    out = tmp_path / "report.json"
    rep.write_dataset_csv(frame, data)
    write_model_spec(spec)

    code = cli.main(["estimate", str(data), str(spec), "--format", "json",
                     "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    by_id = {row["estimator"]: row for row in payload["rows"]}

    x_sel = np.column_stack([np.ones(frame.n), frame.t, frame.x])
    reference = analyze_frame(frame, cli.ESTIMATE_ORDER, x_sel=x_sel)
    assert set(by_id) == set(reference.estimates)
    for est_id, estimate in reference.estimates.items():
        assert by_id[est_id]["estimate"] == pytest.approx(estimate.tau, abs=1e-12)
        assert by_id[est_id]["se"] == pytest.approx(estimate.se, abs=1e-12)
        assert by_id[est_id]["ci_low"] == pytest.approx(estimate.ci_low, abs=1e-12)
    assert payload["metadata"]["p11_hat"] == pytest.approx(reference.rates.pairs[0][0])


def test_estimate_includes_naive_for_contrast(tmp_path, capsys):
    frame = make_frame(seed=5)
    data = tmp_path / "data.csv"
    spec = tmp_path / "spec.json"
    rep.write_dataset_csv(frame, data)
    write_model_spec(spec)
    code = cli.main(["estimate", str(data), str(spec), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert rows[0]["estimator"] == "naive"


def test_estimate_without_validated_rows_degrades_to_naive(tmp_path, capsys):
    frame = make_frame(seed=7, n=400)
    bare = ObservationFrame(x=frame.x, t=frame.t, y_star=frame.y_star,
                            v=np.zeros(frame.n), y=np.full(frame.n, np.nan))
    data = tmp_path / "data.csv"
    spec = tmp_path / "spec.json"
    rep.write_dataset_csv(bare, data)
    write_model_spec(spec)
    code = cli.main(["estimate", str(data), str(spec), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = json.loads(captured.out)
    assert [row["estimator"] for row in payload["rows"]] == ["naive"]
    assert payload["rows"][0]["se"] > 0
    assert payload["warnings"][0] == "no validated rows: only the naive estimator is available"


def test_estimate_rejects_gold_outcome_off_validation(tmp_path, capsys):
    frame = make_frame(seed=9, n=300)
    data = tmp_path / "data.csv"
    rep.write_dataset_csv(frame, data)
    # plant a forbidden y value on a non-validation row
    rows = [line.split(",") for line in data.read_text().splitlines()]
    header = rows[0]
    v_col = header.index("v")
    y_col = header.index("y")
    for row in rows[1:]:
        if row[v_col] == "0":
            row[y_col] = "1"
            break
    data.write_text("\n".join(",".join(row) for row in rows) + "\n")
    spec = tmp_path / "spec.json"
    write_model_spec(spec)
    code = cli.main(["estimate", str(data), str(spec)])
    captured = capsys.readouterr()
    assert code == cli.CONFIG_EXIT
    assert "y must be empty where v=0" in captured.err


BLOCK = rep.DATASET_BLOCK_ROWS


def grid_frame(n):
    """A deterministic frame: row i is validated iff i % 3 == 0."""
    i = np.arange(n)
    v = (i % 3 == 0).astype(float)
    return ObservationFrame(x=np.column_stack([i / 7.0, -i / 3.0]), t=i % 2,
                            y_star=(i // 2) % 2, v=v, y=np.where(v == 1, (i // 5) % 2, np.nan))


def write_with_edits(path, frame, edits=(), *, tail=""):
    """Write ``frame``, then set cells by (line, column, text); column None
    replaces the whole line. Lines end in LF."""
    rep.write_dataset_csv(frame, path)
    lines = path.read_bytes().decode().splitlines()
    header = lines[0].split(",")
    for line, column, text in edits:
        if column is None:
            lines[line - 1] = text
        else:
            cells = lines[line - 1].split(",")
            cells[header.index(column)] = text
            lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n" + tail)
    return path


def schema_error(path):
    with pytest.raises(SchemaError) as info:
        rep.read_dataset_csv(path)
    return str(info.value)


# Line 4 is row 2 (v=0), line 5 is row 3 (v=1).
@pytest.mark.parametrize("edits, message", [
    ([(4, None, "0.5,0.5,1,0,0,,")], "line 4: expected 6 fields, got 7"),
    ([(4, None, "0.5,1,0,0")], "line 4: expected 6 fields, got 4"),
    ([(4, "x2", "abc")], "line 4: covariates must be real numbers"),
    ([(4, "x1", "")], "line 4: covariates must be real numbers"),
    ([(4, "t", "2")], "line 4: column 't' must be 0 or 1, got '2'"),
    ([(4, "ystar", "yes")], "line 4: column 'ystar' must be 0 or 1, got 'yes'"),
    ([(4, "v", " 1")], "line 4: column 'v' must be 0 or 1, got ' 1'"),
    ([(5, "y", "1.0")], "line 5: column 'y' must be 0 or 1, got '1.0'"),
    ([(5, "y", "")], "line 5: y must be present where v=1"),
    ([(4, "y", "0")], "line 4: y must be empty where v=0"),
    # two faults on one line: the first check in the order
    # fields, covariates, t, ystar, v, y is reported
    ([(5, "y", ""), (5, "x1", "?")], "line 5: covariates must be real numbers"),
    ([(4, "v", "1"), (4, "t", "-1")], "line 4: column 't' must be 0 or 1, got '-1'"),
    ([(4, "ystar", "2"), (4, "v", "2")], "line 4: column 'ystar' must be 0 or 1, got '2'"),
])
def test_schema_errors_name_message_and_line(tmp_path, capsys, edits, message):
    data = write_with_edits(tmp_path / "bad.csv", grid_frame(20), edits)
    assert schema_error(data) == message
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=("x1",))
    assert cli.main(["estimate", str(data), str(spec)]) == cli.CONFIG_EXIT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_schema_errors_on_empty_files(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("")
    assert schema_error(data) == "dataset is empty"
    data.write_text("x1,x2,t,ystar,v,y\n")
    assert schema_error(data) == "dataset has a header but no rows"


def test_schema_error_reports_the_lowest_line_across_blocks(tmp_path):
    frame = grid_frame(3 * BLOCK + 7)
    low = -(-(BLOCK + 5) // 3) * 3 + 2  # a validated row in the second block
    # a late check on the lower line beats an early check on the line after
    # it, and a field-count fault in the third block comes later still
    edits = [(low, "y", ""), (low + 1, "x1", "abc"), (2 * BLOCK + 30, None, "1,2")]
    data = write_with_edits(tmp_path / "d.csv", frame, edits)
    assert schema_error(data) == f"line {low}: y must be present where v=1"
    data = write_with_edits(tmp_path / "d.csv", frame, edits[1:])
    assert schema_error(data) == f"line {low + 1}: covariates must be real numbers"
    data = write_with_edits(tmp_path / "d.csv", frame, edits[2:] + [(3 * BLOCK + 8, "t", "")])
    assert schema_error(data) == f"line {2 * BLOCK + 30}: expected 6 fields, got 2"


def random_frame(rng, n, p=3):
    """Covariates over many magnitudes, with signed zeros and subnormals."""
    x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-300, 300, size=(n, p))
    x[rng.random((n, p)) < 0.05] = rng.choice([0.0, -0.0, 5e-324, 1e-310, 1.0])
    v = rng.integers(0, 2, n)
    return ObservationFrame(x=x, t=rng.integers(0, 2, n), y_star=rng.integers(0, 2, n), v=v,
                            y=np.where(v == 1, rng.integers(0, 2, n), np.nan))


def oracle_write(frame, path):
    oracles.write_dataset_csv_rows(frame.x, frame.t, frame.y_star, frame.v, frame.y, path)


def assert_frame_is(frame, arrays):
    for name, expected in zip(("x", "t", "y_star", "v", "y"), arrays):
        np.testing.assert_array_equal(getattr(frame, name), expected, err_msg=name)
        assert getattr(frame, name).dtype == np.float64


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_dataset_io_matches_the_row_loop_oracle(tmp_path, n):
    frame = random_frame(np.random.default_rng(n), n)
    rep.write_dataset_csv(frame, tmp_path / "new.csv")
    oracle_write(frame, tmp_path / "oracle.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    loaded = rep.read_dataset_csv(tmp_path / "oracle.csv")
    assert_frame_is(loaded, oracles.read_dataset_csv_rows(tmp_path / "oracle.csv"))
    np.testing.assert_array_equal(loaded.x, frame.x)


# The quotes, the bare CR and NUL are where numpy's loader and csv.reader
# could split a line otherwise; the white space, the underscore, the
# non-ASCII digit, the comment mark, the exponent and the separator \x1c are
# where it and float() could read a number otherwise.
FAULT_TEXTS = st.sampled_from(["", "0", "1", "2", "-1", "1.0", " 1", "abc", "1e5", "0x1",
                               '"1"', '"1,5"', '"1\r\n2"', "\r", "\x00", "1 ", "1_0", "\t1.5",
                               "\uff11", "\xa01", "#1", "1e0", "\x1c1"])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), block=st.integers(1, 8),
       faults=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 8), FAULT_TEXTS), max_size=3))
# a dropped field followed by an edit of the cell it held
@example(n=1, seed=0, block=1, faults=[(0, 7, ""), (0, 5, "")])
# more dropped fields than the row has
@example(n=1, seed=0, block=1, faults=[(0, 8, ""), (0, 7, ""), (0, 7, "")])
@example(n=3, seed=0, block=2, faults=[(1, 8, "")])
@example(n=3, seed=0, block=2, faults=[(2, 0, "\x1c1")])
def test_reader_matches_the_row_loop_oracle_on_random_files(tmp_path, n, seed, block, faults):
    # Each fault (row, column, text) sets a cell; column 6 appends text as an
    # extra field, column 7 drops the row's last field (if one is left) and
    # column 8 makes the row a line of spaces as wide as it. The cell edits
    # are made first, so each names a cell of the written row. Both readers
    # must return the same frame or fail with the same message.
    frame = random_frame(np.random.default_rng(seed), n, p=2)
    path = tmp_path / "d.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rep, "DATASET_BLOCK_ROWS", block)
        rep.write_dataset_csv(frame, path)
        oracle_write(frame, tmp_path / "oracle.csv")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        lines = [line.split(",") for line in path.read_bytes().decode().split("\r\n")[:-1]]
        for row, column, text in sorted(faults, key=lambda fault: fault[1] >= 6):
            cells = lines[1 + row % n]
            if column == 6:
                cells.append(text)
            elif column == 7:
                del cells[-1:]
            elif column == 8:
                cells[:] = [" " * len(",".join(cells))]
            else:
                cells[column] = text
        path.write_bytes("".join(",".join(cells) + "\r\n" for cells in lines).encode())
        try:
            expected = oracles.read_dataset_csv_rows(path)
        except ValueError as exc:
            message = schema_error(path)
            if message != str(exc):
                # csv rejects NUL before Python 3.11. The reader meets that
                # fault when it reads the block holding it, so a schema
                # fault in an earlier block is reported first.
                assert str(exc).endswith(": line contains NUL")
                assert line_of(message) < line_of(str(exc))
        else:
            assert_frame_is(rep.read_dataset_csv(path), expected)


def line_of(message):
    return int(message.split(":")[0].removeprefix("line "))


def test_reader_switches_to_csv_reader_mid_file(tmp_path, monkeypatch):
    # float() reads "1_0" as 10.0 and numpy's loader refuses it, so the
    # second block and the rest of the file go to csv.reader
    data = write_with_edits(tmp_path / "d.csv", grid_frame(3 * BLOCK + 7),
                            [(BLOCK + 40, "x2", "1_0")])
    parsed_from = []
    parse_block = rep._parse_block
    monkeypatch.setattr(rep, "_parse_block",
                        lambda rows, line, p: parsed_from.append(line) or parse_block(rows, line, p))
    assert_frame_is(rep.read_dataset_csv(data), oracles.read_dataset_csv_rows(data))
    assert parsed_from == [BLOCK + 2, 2 * BLOCK + 2, 3 * BLOCK + 2]


@pytest.mark.parametrize("n", [1, BLOCK, 3 * BLOCK + 7])
def test_written_datasets_never_reach_csv_reader(tmp_path, monkeypatch, n):
    # a numpy whose loader declines what write_dataset_csv writes fails here
    # rather than only reading the rows more slowly
    frame = random_frame(np.random.default_rng(n), n)
    rep.write_dataset_csv(frame, tmp_path / "d.csv")

    def refuse(rows, line, p):
        raise AssertionError(f"csv.reader read the rows from line {line}")

    monkeypatch.setattr(rep, "_parse_block", refuse)
    assert_frame_is(rep.read_dataset_csv(tmp_path / "d.csv"),
                    (frame.x, frame.t, frame.y_star, frame.v, frame.y))


@pytest.mark.parametrize("edits, message", [
    ([(4, "x2", "nan")], "line 4: column 'x2' must be finite, got 'nan'"),
    ([(4, "x1", "-Infinity")], "line 4: column 'x1' must be finite, got '-Infinity'"),
    ([(5, "x2", "1e999"), (5, "x1", "inf")], "line 5: column 'x1' must be finite, got 'inf'"),
    ([(5, "x2", "nan"), (6, "x1", "nan")], "line 5: column 'x2' must be finite, got 'nan'"),
    # an unparsable cell on the same line is reported first
    ([(4, "x1", "inf"), (4, "x2", "abc")], "line 4: covariates must be real numbers"),
])
def test_non_finite_covariates_are_schema_errors(tmp_path, capsys, edits, message):
    # x2 is in neither model: such a cell used to pass unnoticed, and one in
    # x1 used to fail inside the logistic fit with exit code 3 and no line
    data = write_with_edits(tmp_path / "d.csv", grid_frame(20), edits)
    assert schema_error(data) == message
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"treatment_covariates": ["x1"], "selection_covariates": ["x1"]}))
    assert cli.main(["estimate", str(data), str(spec)]) == cli.CONFIG_EXIT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_reader_accepts_a_byte_order_mark(tmp_path):
    frame = grid_frame(30)
    path = tmp_path / "d.csv"
    rep.write_dataset_csv(frame, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert_frame_is(rep.read_dataset_csv(path), (frame.x, frame.t, frame.y_star, frame.v, frame.y))


@pytest.mark.parametrize("n, tail", [(30, "\n"), (30, "\r\n\r\n"), (BLOCK - 2, "\n" * 5)])
def test_reader_ignores_empty_lines_at_the_end(tmp_path, n, tail):
    frame = grid_frame(n)
    data = write_with_edits(tmp_path / "d.csv", frame, tail=tail)
    assert_frame_is(rep.read_dataset_csv(data), (frame.x, frame.t, frame.y_star, frame.v, frame.y))
    header_only = tmp_path / "h.csv"
    header_only.write_text("x1,x2,t,ystar,v,y\n" + tail)
    assert schema_error(header_only) == "dataset has a header but no rows"


@pytest.mark.parametrize("line", [3, BLOCK + 1])
def test_reader_rejects_an_empty_line_mid_file(tmp_path, line):
    # line BLOCK + 1 ends the first block, so the row after it is in the next
    data = write_with_edits(tmp_path / "d.csv", grid_frame(BLOCK + 10), [(line, None, "")],
                            tail="\n")
    assert schema_error(data) == f"line {line}: expected 6 fields, got 0"


def test_estimate_schema_errors(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x1,t,ystar,v\n0.0,1,0,0\n")
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=("x1",))
    assert cli.main(["estimate", str(data), str(spec)]) == cli.CONFIG_EXIT
    capsys.readouterr()

    with pytest.raises(SchemaError):
        rep.read_dataset_csv(data)


def estimate_error(data, spec, capsys, *options):
    """The one stderr line of an ``estimate`` run that must exit with code 2."""
    assert cli.main(["estimate", str(data), str(spec), *options]) == cli.CONFIG_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


@pytest.mark.parametrize("edits, line", [
    ([(4, "x2", '"' + "1" * 200_000 + '"')], 4),
    # a quoted line break on line 3 puts the record of line 5 on physical line 6
    ([(3, "x1", '"1\n2"'), (5, "x2", '"' + "1" * 200_000 + '"')], 6),
    ([(4, "x2", "1" * 200_000)], 4),
])
def test_over_long_field_is_a_schema_error(tmp_path, capsys, edits, line):
    data = write_with_edits(tmp_path / "d.csv", grid_frame(20), edits)
    message = f"line {line}: field larger than field limit (131072)"
    assert schema_error(data) == message
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=("x1",))
    assert estimate_error(data, spec, capsys) == message


def test_non_utf8_byte_is_a_schema_error(tmp_path, capsys):
    frame = grid_frame(3 * BLOCK)
    data = write_with_edits(tmp_path / "d.csv", frame, [(2 * BLOCK, "x2", "1")])
    raw = data.read_bytes().split(b"\n")
    raw[2 * BLOCK - 1] = raw[2 * BLOCK - 1][:-1] + b"\xff"  # line 2 * BLOCK
    data.write_bytes(b"\n".join(raw))
    message = schema_error(data)
    where, _, what = message.partition(" or later: ")
    assert what == "not UTF-8 text (invalid start byte)"
    assert 1 < int(where.removeprefix("line ")) <= 2 * BLOCK
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=("x1",))
    assert estimate_error(data, spec, capsys) == message


def test_model_spec_not_utf8_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rep.write_dataset_csv(grid_frame(20), data)
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"treatment_covariates": ["x1\xff"]}')
    assert estimate_error(data, spec, capsys).startswith("model spec is not UTF-8 text")


@pytest.mark.parametrize("treatment, selection, message", [
    (["x01"], None, "unknown covariate column 'x01'; the dataset has x1..x2"),
    (["x+1"], None, "unknown covariate column 'x+1'; the dataset has x1..x2"),
    (["x1 "], None, "unknown covariate column 'x1 '; the dataset has x1..x2"),
    (["x1"], ["x3"], "unknown covariate column 'x3'; the dataset has x1..x2"),
    (["x1", "x2", "x1"], None, "covariate column 'x1' is named twice"),
    (["x1"], ["x2", "x2"], "covariate column 'x2' is named twice"),
    (["x1"], "x2", "invalid model spec value for 'selection_covariates': "
                   "expected a list of column names, got 'x2'"),
])
def test_model_spec_names_are_exact_and_unique(tmp_path, capsys, treatment, selection, message):
    data = tmp_path / "d.csv"
    rep.write_dataset_csv(grid_frame(60), data)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"treatment_covariates": treatment,
                                "selection_covariates": selection}))
    assert estimate_error(data, spec, capsys) == message


@pytest.mark.parametrize("option, value", [
    ("--w", "1.5"), ("--w", "-0.1"), ("--w", "nan"), ("--b", "-0.2"), ("--b", "nan"),
])
def test_estimate_blend_weights_outside_the_unit_interval_exit_2(tmp_path, capsys, option,
                                                                 value):
    data = tmp_path / "d.csv"
    rep.write_dataset_csv(grid_frame(60), data)
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=None)
    message = estimate_error(data, spec, capsys, option, value)
    assert message == f"{option} must lie in [0, 1], got {float(value)}"


def test_scenario_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_bytes(b'{"dgp": {"n": 400}, "selection": {"kind": "srs\xff"}, "iterations": 2}')
    assert cli.main(["simulate", str(config)]) == cli.CONFIG_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: config is not UTF-8 text") and err.count("\n") == 1


def test_missing_input_files_exit_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    rep.write_dataset_csv(grid_frame(20), data)
    spec = tmp_path / "spec.json"
    write_model_spec(spec, selection=("x1",))
    for args in ((tmp_path / "absent.csv", spec), (data, tmp_path / "absent.json")):
        message = estimate_error(*args, capsys)
        assert message.startswith("[Errno 2] No such file or directory") and "absent" in message


def test_simulate_unknown_scenario_exits_2(capsys):
    # true-ate resolves its scenario the same way (UnknownScenario)
    presets = ", ".join(sorted(sim.scenario_catalog()))
    for command in ("simulate", "true-ate"):
        assert cli.main([command, "nope"]) == cli.CONFIG_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'nope' is neither a scenario preset nor a config "
                                f"file; presets: {presets}\n")


def test_simulate_config_missing_iterations_names_field(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "dgp": {"n": 400}, "selection": {"kind": "srs", "target_nv": 80},
    }))
    assert cli.main(["simulate", str(config)]) == cli.CONFIG_EXIT
    assert "iterations" in capsys.readouterr().err


def test_simulate_config_unknown_key_is_fatal(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "dgp": {"n": 400}, "selection": {"kind": "srs", "target_nv": 80},
        "iterations": 2, "iteration": 5,
    }))
    assert cli.main(["simulate", str(config)]) == cli.CONFIG_EXIT
    assert "iteration" in capsys.readouterr().err


@pytest.mark.parametrize("changes, args, message", [
    ({"dgp": {"heterogeneous_misclass": [-2, 0.5, 1]}}, (),
     "heterogeneous_misclass must be two finite numbers (h0, h1), got [-2, 0.5, 1]"),
    ({"selection": {"kind": "non_probability", "alpha0": [-2.4, 0.5, 1, 1]}}, (),
     "alpha0 must have 7 entries (intercept, T, x1..x5), got 4"),
    ({"selection": {"kind": "non_probability", "alpha0": [-2.4, 0.5, 1, 1, 1, 1, 0],
                    "misspecify_drop": 9}}, (),
     "misspecify_drop must name a covariate 1..5, got 9"),
    ({"truth": float("nan")}, (), "truth must be a finite number, got nan"),
    ({}, ("--truth", "nan"), "truth must be a finite number, got nan"),
    ({"score_variant": "standard"}, (), "unknown config keys: ['score_variant']"),
    ({"w": 2.0}, (), "w must lie in [0, 1], got 2.0"),
    ({"b": -0.25}, (), "b must lie in [0, 1], got -0.25"),
    ({"estimators": []}, (), "estimators must name at least one estimator"),
    ({}, ("--estimators", ""), "estimators must name at least one estimator"),
    # a repeated id would count its sample twice in the empirical SE
    ({"estimators": ["val_only", "val_only", "naive"]}, (),
     "estimator 'val_only' is named twice"),
    ({}, ("--estimators", "val_only,val_only,naive"), "estimator 'val_only' is named twice"),
    # a target of n or more validates every row, leaving no complement
    ({"selection": {"target_nv": 400}}, (), "target_nv must be below n = 400, got 400"),
    ({"selection": {"target_nv": 500}}, (), "target_nv must be below n = 400, got 500"),
    ({"selection": {"kind": "non_probability", "alpha0": [-2.4, 0.5, 1, 1, 1, 1, 0],
                    "target_nv": 400}}, (), "target_nv must be below n = 400, got 400"),
    ({"dgp": {"treatment_coefs": []}}, (),
     "'treatment_coefs': expected a non-empty list of finite numbers, got []"),
    ({"dgp": {"outcome_coefs": None}}, (),
     "'outcome_coefs': expected a non-empty list of finite numbers, got None"),
    # integer settings take JSON integers only and number settings JSON
    # numbers only: never truncated, and never a boolean or a string
    ({"iterations": 2.9}, (), "'iterations': expected an integer, got 2.9"),
    ({"seed": "5"}, (), "'seed': expected an integer, got '5'"),
    ({"dgp": {"n": True}}, (), "'n': expected an integer, got True"),
    ({"selection": {"target_nv": 80.0}}, (), "'target_nv': expected an integer, got 80.0"),
    ({"selection": {"misspecify_drop": False}}, (),
     "'misspecify_drop': expected an integer, got False"),
    ({"dgp": {"p11": "0.8"}}, (), "'p11': expected a number, got '0.8'"),
    ({"dgp": {"p10": True}}, (), "'p10': expected a number, got True"),
    ({"truth": "0.07"}, (), "'truth': expected a number, got '0.07'"),
    ({"w": "0.5"}, (), "'w': expected a number, got '0.5'"),
    ({"b": False}, (), "'b': expected a number, got False"),
    # lists take JSON lists of their own kind only: no boolean coefficients,
    # and a bare string is not a list of estimator ids
    ({"dgp": {"heterogeneous_misclass": [True, False]}}, (),
     "'heterogeneous_misclass': expected a non-empty list of finite numbers, got [True, False]"),
    ({"estimators": "naive"}, (), "'estimators': expected a list of estimator ids, got 'naive'"),
], ids=["heterogeneous_misclass", "alpha0", "misspecify_drop", "truth", "truth_option",
        "score_variant", "w", "b", "estimators", "estimators_option", "repeated_estimators",
        "repeated_estimators_option", "target_nv_n", "target_nv_above_n",
        "non_probability_target_nv_n", "empty_coefs",
        "null_coefs", "float_iterations", "string_seed", "boolean_n", "float_target_nv",
        "boolean_misspecify_drop", "string_p11", "boolean_p10", "string_truth", "string_w",
        "boolean_b", "boolean_heterogeneous_misclass", "string_estimators"])
def test_simulate_config_values_outside_the_model_exit_2(tmp_path, capsys, changes, args,
                                                         message):
    # each would otherwise end in a traceback, a silently ignored setting or
    # a NaN bias; the config dataclasses refuse them and the CLI says why
    raw = {"dgp": {"n": 400}, "selection": {"kind": "srs", "target_nv": 80}, "iterations": 2}
    for key, value in changes.items():
        raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(raw))  # a NaN truth is written as the JSON token NaN
    assert cli.main(["simulate", str(config), *args]) == cli.CONFIG_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("config, args, line", [
    (None, ("main_srs", "--iterations", "3", "--truth", "0.0677",
            "--estimators", "val_only,val_only,naive"),
     "error: estimator 'val_only' is named twice"),
    ({"dgp": {"n": 400}, "selection": {"kind": "srs", "target_nv": 400}, "iterations": 2}, (),
     "error: invalid config value: target_nv must be below n = 400, got 400"),
], ids=["repeated_estimators_preset", "target_nv_n"])
def test_simulate_refusal_is_one_exact_error_line(tmp_path, capsys, config, args, line):
    if config is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        args = (str(path), *args)
    assert cli.main(["simulate", *args]) == cli.CONFIG_EXIT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_simulate_config_file_runs(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "dgp": {"n": 500},
        "selection": {"kind": "srs", "target_nv": 100},
        "iterations": 3,
        "seed": 5,
        "estimators": ["oracle", "val_only"],
        "truth": 0.0673,
    }))
    code = cli.main(["simulate", str(config), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [row["estimator"] for row in rows] == ["oracle", "val_only"]
    assert all(row["n_effective"] == "3" for row in rows)


def test_simulate_metadata_rebuilds_the_config(tmp_path, capsys):
    # a config file written back from a custom run's metadata reproduces its rows
    first = tmp_path / "custom.json"
    first.write_text(json.dumps({
        "dgp": {"n": 600, "p11": 0.7, "p10": 0.2, "treatment_coefs": [0.5, 0.4, -0.3, 0.2],
                "outcome_coefs": [-2.5, 0.9, 0.6, -0.4, 0.3],
                "heterogeneous_misclass": [-1.5, 0.4]},
        "selection": {"kind": "non_probability", "target_nv": 150,
                      "alpha0": [-2.0, 0.6, 0.8, -0.5, 0.3], "misspecify_drop": 3},
        "iterations": 4, "seed": 11, "estimators": ["val_only", "s_weighted", "s_opt"],
        "truth": 0.05, "w": 0.4, "b": 0.3, "misclassification": "by_arm",
    }))
    assert cli.main(["simulate", str(first), "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    rebuilt = tmp_path / "rebuilt.json"
    rebuilt.write_text(json.dumps({
        "dgp": {key: meta[key] for key in ("n", "p11", "p10", "treatment_coefs",
                                           "outcome_coefs", "heterogeneous_misclass")},
        "selection": {"kind": meta["selection_kind"],
                      **{key: meta[key] for key in ("target_nv", "alpha0", "misspecify_drop")}},
        "seed": meta["seed"],
        **{key: meta[key] for key in ("iterations", "estimators", "truth", "w", "b",
                                      "misclassification")},
    }))
    rows = []
    for path in (first, rebuilt):
        assert cli.main(["simulate", str(path), "--format", "csv"]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]


def heterogeneous_config(path, misclassification, iterations):
    """Scenario file for the treatment-dependent misclassification study."""
    path.write_text(json.dumps({
        "dgp": {"heterogeneous_misclass": [-2.0, 0.5]},
        "selection": {"kind": "non_probability", "target_nv": 850,
                      "alpha0": [-2.4, 0.5, 1, 1, 1, 1, 0]},
        "iterations": iterations,
        "seed": 20250801,
        "estimators": ["s_weighted"],
        "truth": 0.07,
        "misclassification": misclassification,
    }))
    return path


def test_simulate_config_misclassification_key(tmp_path, capsys):
    config = rep.load_scenario_config(heterogeneous_config(tmp_path / "h.json", "by_arm", 2))
    assert config.misclassification == "by_arm"
    assert config.dgp.heterogeneous_misclass == (-2.0, 0.5)

    bad = heterogeneous_config(tmp_path / "bad.json", "per_arm", 2)
    with pytest.raises(ConfigParseError, match="misclassification"):
        rep.load_scenario_config(bad)
    assert cli.main(["simulate", str(bad)]) == cli.CONFIG_EXIT
    assert "misclassification" in capsys.readouterr().err


def test_simulate_pooled_rates_keep_heterogeneous_bias(tmp_path, capsys):
    # pooled rates on a treatment-dependent false-positive rate reproduce the
    # documented ~+0.1 bias; per-arm rates remove it (60 iterations: the
    # Monte Carlo SE of the mean is ~0.007)
    bias = {}
    for mode in ("pooled", "by_arm"):
        path = heterogeneous_config(tmp_path / f"{mode}.json", mode, 60)
        assert cli.main(["simulate", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["misclassification"] == mode
        assert payload["rows"][0]["n_effective"] == 60
        bias[mode] = payload["rows"][0]["bias"]
    assert bias["pooled"] > 0.06
    assert abs(bias["by_arm"]) < 0.03


def test_analysis_report_lists_rates_of_each_arm():
    frame = make_frame(seed=5, n=3000)
    x_sel = np.column_stack([np.ones(frame.n), frame.t, frame.x])
    analysis = analyze_frame(frame, ["all_silver"], x_sel=x_sel, misclassification="by_arm")
    metadata = rep.report_from_analysis(analysis, metadata={}).metadata
    (c11, c10), (t11, t10) = analysis.rates.pairs
    assert metadata == {"p11_hat_control": c11, "p10_hat_control": c10,
                        "p11_hat_treated": t11, "p10_hat_treated": t10}


def test_simulate_json_and_csv_encode_identical_values(tmp_path, capsys):
    args = ["simulate", "main_srs", "--iterations", "4", "--seed", "21",
            "--estimators", "oracle,val_only", "--truth", "0.0673"]
    assert cli.main(args + ["--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main(args + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "r.json").read_text())
    csv_rows = list(csv.DictReader((tmp_path / "r.csv").read_text().splitlines()))
    assert len(csv_rows) == len(payload["rows"])
    for json_row, csv_row in zip(payload["rows"], csv_rows):
        for column in payload["columns"]:
            json_value = json_row[column]
            csv_value = csv_row[column]
            if isinstance(json_value, float):
                assert float(csv_value) == json_value
            else:
                assert str(json_value) == csv_value


def test_simulate_deterministic_across_workers(tmp_path, capsys, monkeypatch):
    base = ["simulate", "main_nonprob", "--iterations", "6", "--seed", "77",
            "--estimators", "val_only,s_opt", "--truth", "0.0673", "--format", "json"]
    assert cli.main(base + ["--workers", "1", "--out", str(tmp_path / "w1.json")]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(tmp_path / "w2.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()
    # the b_opt fallback on every iteration: forked workers inherit the
    # patched tolerance, and the reports must still agree byte for byte
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched tolerance only when forked")
    monkeypatch.setattr(est, "B_OPT_DENOM_TOL", 1e9)
    fallback = ["simulate", "main_srs", "--iterations", "4", "--truth", "0.0677",
                "--estimators", "s_opt", "--format", "json"]
    assert cli.main(fallback + ["--workers", "1", "--out", str(tmp_path / "f1.json")]) == 0
    assert cli.main(fallback + ["--workers", "2", "--out", str(tmp_path / "f2.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "f1.json").read_bytes() == (tmp_path / "f2.json").read_bytes()


def test_env_seed_used_as_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "31415")
    assert cli.main(["simulate", "main_srs", "--iterations", "2",
                     "--estimators", "oracle", "--truth", "0.0673",
                     "--format", "json", "--out", str(tmp_path / "env.json")]) == 0
    payload = json.loads((tmp_path / "env.json").read_text())
    assert payload["metadata"]["seed"] == 31415
    assert payload["metadata"]["misclassification"] == "pooled"

    # --seed outranks the environment
    assert cli.main(["simulate", "main_srs", "--iterations", "2", "--seed", "99",
                     "--estimators", "oracle", "--truth", "0.0673",
                     "--format", "json", "--out", str(tmp_path / "cli.json")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "cli.json").read_text())
    assert payload["metadata"]["seed"] == 99


def test_env_seed_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
    assert cli.main(["simulate", "main_srs", "--iterations", "1"]) == cli.CONFIG_EXIT
    capsys.readouterr()


def test_true_ate_command(capsys):
    code = cli.main(["true-ate", "main_srs", "--populations", "3",
                     "--pop-n", "8000", "--seed", "13", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    row = payload["rows"][0]
    assert row["populations"] == 3 and row["population_n"] == 8000
    assert 0.0 < row["truth"] < 0.2

    code = cli.main(["true-ate", "main_srs", "--populations", "3",
                     "--pop-n", "8000", "--seed", "13", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == payload  # deterministic


def test_true_ate_populations_beat_full(capsys):
    # as simulate's --iterations beats its --full
    args = ["true-ate", "main_srs", "--populations", "2", "--pop-n", "2000", "--format", "json"]
    assert cli.main(args) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.main([*args, "--full"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["rows"][0]["populations"] == 2 and full == plain


def test_true_ate_from_one_population_has_no_mc_se(capsys):
    # one population has no spread, so its Monte Carlo SE is undefined
    args = ["true-ate", "main_srs", "--populations", "1", "--pop-n", "2000"]
    cells = {}
    for fmt in ("json", "csv", "table"):
        assert cli.main([*args, "--format", fmt]) == 0
        cells[fmt] = capsys.readouterr().out
    row = json.loads(cells["json"])["rows"][0]
    assert row["mc_se"] is None and row["populations"] == 1
    [csv_row] = list(csv.DictReader(cells["csv"].splitlines()))
    assert csv_row["mc_se"] == ""
    lines = cells["table"].splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    assert lines[rule + 1].split()[1] == "-"


def test_simulate_one_iteration_has_no_empirical_se(capsys):
    # one iteration has no spread, so its empirical SE is undefined
    args = ["simulate", "main_srs", "--iterations", "1", "--truth", "0.0677",
            "--estimators", "val_only,naive"]
    cells = {}
    for fmt in ("json", "csv", "table"):
        assert cli.main([*args, "--format", fmt]) == 0
        cells[fmt] = capsys.readouterr().out
    rows = json.loads(cells["json"])["rows"]
    assert [row["empirical_se"] for row in rows] == [None, None]
    assert all(row["n_effective"] == 1 and row["mean_sandwich_se"] > 0 for row in rows)
    assert [row["empirical_se"] for row in csv.DictReader(cells["csv"].splitlines())] == ["", ""]
    lines = cells["table"].splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    assert [line.split()[2] for line in lines[rule + 1:rule + 3]] == ["-", "-"]


def test_true_ate_counts_below_one_exit_2(capsys):
    # zero populations would report a NaN truth, zero rows a traceback
    for option, value in (("--populations", "0"), ("--populations", "-3"), ("--pop-n", "0")):
        code = cli.main(["true-ate", "main_srs", option, value, "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.CONFIG_EXIT and captured.out == ""
        assert captured.err == f"error: {option} must be at least 1, got {value}\n"


def test_workers_below_one_exit_2(capsys):
    # a worker count below 1 is a typo, not a request to run serially
    for command in ("simulate", "true-ate"):
        for value in ("0", "-3"):
            code = cli.main([command, "main_srs", "--workers", value, "--format", "json"])
            captured = capsys.readouterr()
            assert code == cli.CONFIG_EXIT and captured.out == ""
            assert captured.err == f"error: --workers must be at least 1, got {value}\n"


def test_retired_score_variant_option_is_refused(capsys):
    for args in (["simulate", "main_srs"], ["estimate", "d.csv", "m.json"]):
        with pytest.raises(SystemExit) as stopped:  # argparse's usage error
            cli.main([*args, "--selection-score-variant", "standard"])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --selection-score-variant standard" in err


def test_true_ate_csv_cells_are_the_json_values(capsys):
    args = ["true-ate", "main_srs", "--populations", "2", "--pop-n", "2000"]
    assert cli.main([*args, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert cli.main([*args, "--format", "csv"]) == 0
    [cells] = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert cells.keys() == row.keys()
    for column, cell in cells.items():
        assert float(cell) == row[column], column


def test_reports_have_no_nan_values(tmp_path, capsys):
    frame = make_frame(seed=11, n=700)
    data = tmp_path / "d.csv"
    spec = tmp_path / "m.json"
    rep.write_dataset_csv(frame, data)
    write_model_spec(spec)
    assert cli.main(["estimate", str(data), str(spec), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        for value in row.values():
            if isinstance(value, float):
                assert np.isfinite(value)


def test_model_spec_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"treatment_covariates": ["x1"], "selektion": []}))
    with pytest.raises(ConfigParseError):
        rep.load_model_spec(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"selection_covariates": ["x1"]}))
    with pytest.raises(ConfigParseError):
        rep.load_model_spec(missing)


# --- scripts -------------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", ["0", "-5"])
def test_make_dataset_refuses_a_count_below_one(tmp_path, capsys, n):
    out = tmp_path / "demo"
    assert load_script("make_dataset").main(["--n", n, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be positive\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario, columns", [
    ("main_nonprob", ["x1", "x2", "x3", "x4", "x5"]),
    ("misspecified_selection", ["x1", "x3", "x4", "x5"]),
])
def test_make_dataset_writes_the_presets_model_spec(tmp_path, capsys, scenario, columns):
    # the spec is the preset's analysis, so estimate on the dataset runs it
    out = tmp_path / "demo"
    assert load_script("make_dataset").main(["--scenario", scenario, "--n", "2000",
                                             "--out", str(out)]) == 0
    spec = rep.load_model_spec(tmp_path / "demo_model.json")
    assert spec == sim.scenario_catalog()[scenario].model_spec
    assert list(spec.treatment_covariates) == list(spec.selection_covariates) == columns


def test_make_dataset_refuses_an_unknown_scenario(tmp_path, capsys):
    out = tmp_path / "demo"
    assert load_script("make_dataset").main(["--scenario", "nope", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown scenario 'nope'\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (["--scenarios", ","], "--scenarios names no scenario: ','"),
    (["--iterations", "0"], "--iterations must be at least 1, got 0"),
    (["--workers", "0"], "--workers must be at least 1, got 0"),
])
def test_reproduce_tables_refuses_before_any_work(capsys, args, message):
    assert load_script("reproduce_tables").main(args) == 2
    captured = capsys.readouterr()
    # nothing printed to stdout: the truth oracle never started
    assert captured.out == "" and captured.err == f"error: {message}\n"
