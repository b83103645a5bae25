import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayeseval.bootstrap import ConvergenceDistribution, TauCurve, TauPoint
from bayeseval.errors import (
    DuplicateCellError,
    EmptyMatrixError,
    InputError,
    MissingFieldError,
    ParseError,
    RangeViolationError,
)
from bayeseval.io import (
    emit_report,
    load_prior_csv,
    load_results_csv,
    load_signals_jsonl,
    save_results_csv,
)
from bayeseval.model import PosteriorSummary, validate_matrix


def write(path, text):
    path.write_text(text)
    return path


SIGNAL_RECORD = {
    "question_id": "q1",
    "trial": 1,
    "has_box": 1,
    "is_correct": 1,
    "token_ratio": 0.2,
    "repeated_pattern": 0,
    "prompt_bpt": 1.5,
    "completion_bpt": 2.5,
    "compass_context_A": 0.8,
    "compass_context_B": 0.1,
    "compass_context_C": 0.1,
}


class TestResultsCsv:
    def test_binary_round_trip(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0,1\nq2,1,1\n")
        m = load_results_csv(p)
        assert (m.questions, m.trials, m.num_categories) == (2, 2, 2)
        assert m.question_ids == ("q1", "q2")
        out = tmp_path / "w.csv"
        save_results_csv(m, out)
        again = load_results_csv(out)
        assert np.array_equal(again.cells, m.cells)
        assert again.question_ids == m.question_ids

    def test_explicit_categories(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1\nq1,0\n")
        assert load_results_csv(p, num_categories=3).num_categories == 3

    def test_non_integer_cell_location(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0,1\nq2,x,1\n")
        with pytest.raises(ParseError) as err:
            load_results_csv(p)
        assert err.value.line == 3 and err.value.column == 2

    def test_header_only_is_empty(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1\n")
        with pytest.raises(EmptyMatrixError):
            load_results_csv(p)

    def test_ragged_row_reported_with_line(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0\n")
        with pytest.raises(ParseError) as err:
            load_results_csv(p)
        assert err.value.line == 2

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "r.csv", "model,t1\nq1,0\n")
        with pytest.raises(ParseError):
            load_results_csv(p)


class TestSignalsJsonl:
    def test_minimal_record_round_trips(self, tmp_path):
        p = write(tmp_path / "s.jsonl", json.dumps(SIGNAL_RECORD) + "\n")
        signals = load_signals_jsonl(p)
        assert len(signals) == 1
        rec = signals.table
        assert (rec.question_ids, rec.trial.tolist()) == (("q1",), [1])
        assert rec.verifier_correct.tolist() == [0.8]
        assert signals.warnings == ()

    def test_missing_verifier_defaults_with_warning(self, tmp_path):
        slim = {k: v for k, v in SIGNAL_RECORD.items() if not k.startswith("compass")}
        p = write(tmp_path / "s.jsonl", json.dumps(slim) + "\n")
        signals = load_signals_jsonl(p)
        rec = signals.table
        assert (rec.verifier_correct, rec.verifier_wrong, rec.verifier_offtask) == ([0], [0], [0])
        assert len(signals.warnings) == 1

    def test_missing_required_field(self, tmp_path):
        bad = {k: v for k, v in SIGNAL_RECORD.items() if k != "prompt_bpt"}
        p = write(tmp_path / "s.jsonl", json.dumps(bad) + "\n")
        with pytest.raises(MissingFieldError) as err:
            load_signals_jsonl(p)
        assert err.value.line == 1

    def test_probability_out_of_range(self, tmp_path):
        bad = dict(SIGNAL_RECORD, compass_context_A=1.2)
        p = write(tmp_path / "s.jsonl", json.dumps(bad) + "\n")
        with pytest.raises(RangeViolationError):
            load_signals_jsonl(p)

    def test_duplicate_cell(self, tmp_path):
        p = write(
            tmp_path / "s.jsonl",
            json.dumps(SIGNAL_RECORD) + "\n" + json.dumps(SIGNAL_RECORD) + "\n",
        )
        with pytest.raises(DuplicateCellError) as err:
            load_signals_jsonl(p)
        assert err.value.line == 2

    def test_invalid_json_line(self, tmp_path):
        p = write(tmp_path / "s.jsonl", "{not json\n")
        with pytest.raises(ParseError) as err:
            load_signals_jsonl(p)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "field, value",
        [("has_box", "yes"), ("repeated_pattern", None), ("compass_context_B", [0.1]),
         ("token_ratio", "0.2")],
    )
    def test_non_number_value_located(self, tmp_path, field, value):
        bad = dict(SIGNAL_RECORD, trial=2, **{field: value})
        p = write(tmp_path / "s.jsonl", json.dumps(SIGNAL_RECORD) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match=f"{field} must be a number") as err:
            load_signals_jsonl(p)
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"question_id trial"', "null"])
    def test_non_object_line_located(self, tmp_path, line):
        p = write(tmp_path / "s.jsonl", json.dumps(SIGNAL_RECORD) + "\n\n" + line + "\n")
        with pytest.raises(ParseError, match="expected a JSON object") as err:
            load_signals_jsonl(p)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "field, value",
        [("repeated_pattern", 0.7), ("trial", 1.5), ("trial", True), ("trial", "1"),
         ("trial", 2**63)],
    )
    def test_fractional_or_non_integer_trial_and_pattern_rejected(self, tmp_path, field, value):
        p = write(tmp_path / "s.jsonl", json.dumps(dict(SIGNAL_RECORD, **{field: value})) + "\n")
        with pytest.raises(ParseError, match=f"{field} must be an (int64 )?integer") as err:
            load_signals_jsonl(p)
        assert err.value.line == 1

    def test_integral_floats_read_as_integers(self, tmp_path):
        rec = dict(SIGNAL_RECORD, trial=3.0, repeated_pattern=1.0)
        table = load_signals_jsonl(write(tmp_path / "s.jsonl", json.dumps(rec) + "\n")).table
        assert table.trial.dtype == np.int64 and table.trial.tolist() == [3]
        assert table.repeated_pattern.tolist() == [1.0]


class TestEmitReport:
    def test_posterior_summary_schema(self):
        s = PosteriorSummary(0.5, 0.223606797749979, 1, 2, 1, 0)
        data = json.loads(emit_report(s))
        assert list(data.keys()) == ["mu", "sigma", "M", "N", "C", "D"]
        assert data["mu"] == 0.5

    def test_twelve_significant_digits(self):
        s = PosteriorSummary(1 / 3, 0.0, 1, 1, 1, 0)
        raw = emit_report(s).decode()
        assert '"mu":0.333333333333,' in raw

    def test_byte_identical_reports(self):
        s = PosteriorSummary(0.123456789, 0.05, 3, 4, 1, 0)
        assert emit_report(s) == emit_report(s)

    def test_tau_curve_tsv_plottable(self):
        curve = TauCurve(
            "bayes", "row", (TauPoint(1, 0.5, 0.01, 100), TauPoint(2, 0.75, 0.008, 100))
        )
        lines = emit_report(curve, "tsv").decode().splitlines()
        assert lines[0] == "N\tvalue\tstderr"
        assert lines[1] == "1\t0.5\t0.01"

    def test_convergence_tsv_mass_sums_to_one(self):
        counts = np.array([0, 60, 30, 10])
        dist = ConvergenceDistribution("bayes", "row", 3, counts, 0, 100)
        lines = emit_report(dist, "tsv").decode().splitlines()
        assert lines[0] == "n\tpmf\tcdf"
        pmf_total = sum(float(l.split("\t")[1]) for l in lines[1:])
        assert pmf_total == pytest.approx(1.0, abs=1e-12)
        assert lines[-1].startswith("censored\t")

    def test_censored_mass_in_tsv_total(self):
        counts = np.array([0, 50, 25, 0])
        dist = ConvergenceDistribution("pass@2", "row", 3, counts, 25, 100)
        lines = emit_report(dist, "tsv").decode().splitlines()
        pmf_total = sum(float(l.split("\t")[1]) for l in lines[1:])
        assert pmf_total == pytest.approx(1.0, abs=1e-12)

    def test_tsv_unsupported_type(self):
        with pytest.raises(InputError):
            emit_report(PosteriorSummary(0.5, 0.1, 1, 1, 1, 0), "tsv")

    def test_unknown_format(self):
        with pytest.raises(InputError):
            emit_report({"a": 1}, "yaml")

    def test_nested_structures_and_numpy_scalars(self):
        report = {"list": [1, np.float64(0.25), "x"], "flag": True, "none": None}
        data = json.loads(emit_report(report))
        assert data == {"list": [1, 0.25, "x"], "flag": True, "none": None}


class TestMatrixDefaults:
    def test_save_generates_question_ids(self, tmp_path):
        m = validate_matrix([[1, 0]], 2)
        p = tmp_path / "m.csv"
        save_results_csv(m, p)
        assert load_results_csv(p).question_ids == ("q1",)


class TestLabelMap:
    def test_named_cells_translate_at_boundary(self, tmp_path):
        from bayeseval.io import load_label_map

        sidecar = tmp_path / "labels.json"
        sidecar.write_text('{"wrong": 0, "partial": 1, "correct": 2}')
        labels = load_label_map(sidecar)
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,correct,wrong\nq2,partial,1\n")
        m = load_results_csv(p, labels=labels)
        assert m.cells.tolist() == [[2, 0], [1, 1]]
        assert m.num_categories == 3

    def test_unknown_name_still_errors_with_location(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1\nq1,mystery\n")
        with pytest.raises(ParseError) as err:
            load_results_csv(p, labels={"correct": 1})
        assert err.value.line == 2

    def test_bad_sidecar(self, tmp_path):
        from bayeseval.io import load_label_map

        sidecar = tmp_path / "labels.json"
        sidecar.write_text('["correct"]')
        with pytest.raises(ParseError):
            load_label_map(sidecar)

    def test_integral_indices_accepted(self, tmp_path):
        from bayeseval.io import load_label_map

        sidecar = tmp_path / "labels.json"
        sidecar.write_text('{"wrong": 0, "partial": 1.0, "correct": 2e0}')
        labels = load_label_map(sidecar)
        assert labels == {"wrong": 0, "partial": 1, "correct": 2}
        assert all(type(v) is int for v in labels.values())

    @pytest.mark.parametrize("index", ["1.5", '"0"', "true", "false", "null", "1e400"])
    def test_non_integer_index_rejected_by_key(self, tmp_path, index):
        from bayeseval.io import load_label_map

        sidecar = tmp_path / "labels.json"
        sidecar.write_text(f'{{"ok": 1, "bad key": {index}}}')
        with pytest.raises(ParseError, match="'bad key'"):
            load_label_map(sidecar)


# -- reader equivalence ---------------------------------------------------------

def reference_read_grid(path, labels=None):
    """The per-cell reader the memoized one replaced, kept as the oracle."""
    ids = []
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyMatrixError(f"{path}: empty file") from None
        if not header or header[0] != "question_id":
            raise ParseError(f"{path}: header must start with 'question_id'", line=1)
        width = len(header) - 1
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 1:
                raise ParseError(
                    f"{path}: expected {width + 1} fields, got {len(row)}", line=line_no
                )
            ids.append(row[0])
            cells = []
            for col, text in enumerate(row[1:], start=2):
                if labels and text in labels:
                    cells.append(labels[text])
                    continue
                try:
                    cells.append(int(text))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-integer cell {text!r}", line=line_no, column=col
                    ) from None
            rows.append(cells)
    if not rows:
        raise EmptyMatrixError(f"{path}: no data rows")
    return ids, rows


def reference_load(path, labels=None):
    ids, rows = reference_read_grid(path, labels)
    observed = max((c for row in rows for c in row), default=1)
    num_categories = max(2, observed + 1)
    if labels:
        num_categories = max(num_categories, max(labels.values()) + 1)
    return validate_matrix(rows, num_categories, question_ids=ids)


def outcome(load, path, labels):
    try:
        m = load(path, labels=labels)
    except InputError as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    assert m.cells.dtype == np.int64
    return m.cells.tolist(), m.question_ids, m.num_categories


# cells int() reads, cells it rejects or reads out of range, and names
VALID = ["0", "1", "2", " 1", "+1", "01", "1_0", '"1"', '" 1"', '"0"']
INVALID = ["-1", "x", "", "1.0", '""', '"1,0"', "ok", "bad"]
LABEL_NAMES = ["ok", "bad", "1_0", "2"]


@st.composite
def grid_csv(draw):
    """CSV text and a label map; half the cases hold no malformed cell."""
    labels = draw(
        st.none() | st.dictionaries(st.sampled_from(LABEL_NAMES), st.integers(0, 3), max_size=3)
    )
    malformed = draw(st.booleans())
    pool = VALID + sorted(labels or ()) + (INVALID if malformed else [])
    width = draw(st.integers(0, 4))
    lines = ["question_id" + "".join(f",t{j + 1}" for j in range(width))]
    for i in range(draw(st.integers(0 if malformed else 1, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        qid = draw(st.sampled_from([f"q{i}", f'"q,{i}"', " q"]))
        n = width + (draw(st.sampled_from([0, 0, 0, -1, 1])) if malformed else 0)
        cells = draw(st.lists(st.sampled_from(pool), min_size=max(n, 0), max_size=max(n, 0)))
        lines.append(",".join([qid] + cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"])), labels


class TestReaderEquivalence:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(grid_csv())
    def test_same_cells_ids_and_errors_as_per_cell_reader(self, tmp_path, case):
        text, labels = case
        p = write(tmp_path / "g.csv", text)
        assert outcome(load_results_csv, p, labels) == outcome(reference_load, p, labels)

    def test_repeated_bad_token_reported_at_each_first_use(self, tmp_path):
        # a token that failed once must fail the same way, not be memoized
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0,1\nq2,1,y\n")
        with pytest.raises(ParseError) as err:
            load_results_csv(p)
        assert (err.value.line, err.value.column) == (3, 3)

    def test_label_takes_precedence_over_integer_reading(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,1,2\nq2,2,1\n")
        assert load_results_csv(p, labels={"2": 0}).cells.tolist() == [[1, 0], [0, 1]]

    def test_cell_beyond_int64_is_a_located_parse_error(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0,1\nq2,1,99999999999999999999\n")
        with pytest.raises(ParseError) as err:
            load_results_csv(p)
        assert (err.value.line, err.value.column) == (3, 3)

    def test_inferred_categories_from_int64_grid(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id,t1,t2\nq1,0,4\n\nq2,1,1\n")
        m = load_results_csv(p)
        assert m.num_categories == 5 and m.cells.tolist() == [[0, 4], [1, 1]]

    def test_zero_width_grid_infers_binary(self, tmp_path):
        p = write(tmp_path / "r.csv", "question_id\nq1\nq2\n")
        m = load_results_csv(p)
        assert (m.questions, m.trials, m.num_categories) == (2, 0, 2)


class TestPriorCsv:
    def test_prior_cells_are_int64(self, tmp_path):
        p = write(tmp_path / "p.csv", "question_id,t1\nq1,1\nq2,0\n")
        prior = load_prior_csv(p, 2)
        assert prior.matrix.dtype == np.int64 and prior.matrix.tolist() == [[1], [0]]

    def test_non_integer_prior_cell_location(self, tmp_path):
        p = write(tmp_path / "p.csv", "question_id,t1\nq1,1\nq2,0.5\n")
        with pytest.raises(ParseError) as err:
            load_prior_csv(p, 2)
        assert (err.value.line, err.value.column) == (3, 2)
