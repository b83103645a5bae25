"""The column signal pipeline against the per-record one it replaced.

``reference_load`` and ``reference_build`` are the per-record loader,
thresholds, variables and categorizer as they were before the signals
became a column table, kept as the oracle. The only changes are the
value rules the column loader introduced: a line must be a JSON object,
values must be numbers, and ``trial``/``repeated_pattern`` integral.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayeseval.errors import (
    BayesEvalError,
    DuplicateCellError,
    EmptyInputError,
    IncompleteGridError,
    InputError,
    MissingFieldError,
    NoCorrectItemsError,
    NoWrongItemsError,
    ParseError,
    RangeViolationError,
    UncoveredCaseError,
)
from bayeseval.io import load_signals_jsonl
from bayeseval.rubric import (
    Schema,
    SignalTable,
    ThresholdSet,
    build_matrix,
    compute_thresholds,
    schema_by_name,
)
from test_rubric import THRESH

REQUIRED = (
    "question_id", "trial", "has_box", "is_correct", "token_ratio",
    "repeated_pattern", "prompt_bpt", "completion_bpt",
)
VERIFIER = {
    "compass_context_A": "verifier_correct",
    "compass_context_B": "verifier_wrong",
    "compass_context_C": "verifier_offtask",
}


# -- the per-record oracle --------------------------------------------------------

def reference_signals(path, line_no, kwargs):
    """The per-record ``AttemptSignals`` range checks, in their order."""
    for name in ("has_box", "is_correct", "verifier_correct", "verifier_wrong", "verifier_offtask"):
        v = kwargs[name]
        if not 0.0 <= v <= 1.0:
            raise RangeViolationError(f"{path}: {name}={v} outside [0, 1]", line=line_no)
    for name in ("token_ratio", "prompt_bpt", "completion_bpt"):
        v = float(kwargs[name])
        if not np.isfinite(v) or v < 0.0:
            raise RangeViolationError(f"{path}: {name}={v} must be finite and >= 0", line=line_no)
    if kwargs["repeated_pattern"] not in (0, 1):
        raise RangeViolationError(
            f"{path}: repeated_pattern must be 0 or 1, got {kwargs['repeated_pattern']}",
            line=line_no,
        )
    return SimpleNamespace(**kwargs)


def reference_value(path, line_no, key, value, integral=False):
    if not isinstance(value, (int, float)):
        raise ParseError(f"{path}: {key} must be a number, got {value!r}", line=line_no)
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{path}: {key}={value} is beyond the float64 range", line=line_no) from None
    if integral:
        if not number.is_integer():
            raise ParseError(f"{path}: {key} must be an integer, got {value!r}", line=line_no)
        return int(value)
    return number


def reference_load(path):
    records = {}
    defaulted = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=line_no) from None
            if not isinstance(obj, dict):
                raise ParseError(
                    f"{path}: expected a JSON object, got {type(obj).__name__}", line=line_no
                )
            for name in REQUIRED:
                if name not in obj:
                    raise MissingFieldError(f"{path}: missing field {name!r}", line=line_no)
            trial = obj["trial"]
            if (
                isinstance(trial, bool)
                or not isinstance(trial, (int, float))
                or isinstance(trial, float) and not trial.is_integer()
                or not -(2**63) <= int(trial) < 2**63
            ):
                raise ParseError(
                    f"{path}: trial must be an int64 integer, got {trial!r}", line=line_no
                )
            key = (str(obj["question_id"]), int(trial))
            if key in records:
                raise DuplicateCellError(
                    f"{path}: duplicate record for question {key[0]!r} trial {key[1]}",
                    line=line_no,
                )
            kwargs = {
                name: reference_value(path, line_no, name, obj[name], name == "repeated_pattern")
                for name in REQUIRED[2:]
            }
            kwargs.update(verifier_correct=0.0, verifier_wrong=0.0, verifier_offtask=0.0)
            missing_verifier = False
            for src, dst in VERIFIER.items():
                if src in obj:
                    kwargs[dst] = reference_value(path, line_no, src, obj[src])
                else:
                    missing_verifier = True
            defaulted += missing_verifier
            records[key] = reference_signals(path, line_no, kwargs)
    warnings = ()
    if defaulted:
        warnings = (f"{defaulted} record(s) missing verifier fields; defaulted to (0, 0, 0)",)
    return records, warnings


def reference_thresholds(sigs):
    if not sigs:
        raise EmptyInputError("cannot compute thresholds without signals")
    completion = np.array([s.completion_bpt for s in sigs])
    correct_mask = np.array([s.is_correct >= 0.5 for s in sigs])
    wrong_bpt = completion[~correct_mask]
    correct_bpt = completion[correct_mask]
    if wrong_bpt.size == 0:
        raise NoWrongItemsError("no wrong attempts: 60th-percentile cutoff undefined")
    if correct_bpt.size == 0:
        raise NoCorrectItemsError("no correct attempts: confidence terciles undefined")
    pct = lambda a, q: float(np.percentile(a, q, method="linear"))
    ratio = np.array([s.token_ratio for s in sigs])
    return ThresholdSet(
        tau_high=pct(completion, 40),
        tau_low_wrong=pct(wrong_bpt, 60),
        tau_prompt=pct(np.array([s.prompt_bpt for s in sigs]), 90),
        len_p33=pct(ratio, 33),
        len_p66=pct(ratio, 66),
        corr_p33=pct(correct_bpt, 33),
        corr_p66=pct(correct_bpt, 66),
    )


def reference_flags(s, t):
    correct = s.is_correct >= 0.5
    a, b, c = s.verifier_correct, s.verifier_wrong, s.verifier_offtask
    best = max(a, b, c)
    top = "offtask" if c == best else "wrong" if b == best else "correct"
    return {
        "invalid": (s.repeated_pattern == 1) or (c >= 0.50),
        "correct": correct,
        "wrong": not correct,
        "high_conf": s.completion_bpt <= t.tau_high,
        "low_conf": s.completion_bpt > t.tau_high,
        "wrong_high_conf": (not correct) and s.completion_bpt <= t.tau_low_wrong,
        "ood": s.prompt_bpt >= t.tau_prompt,
        "ind": s.prompt_bpt < t.tau_prompt,
        "economical": s.token_ratio <= t.len_p33,
        "moderate": t.len_p33 < s.token_ratio <= t.len_p66,
        "verbose": s.token_ratio > t.len_p66,
        "boxed": s.has_box >= 0.5,
        "unboxed": s.has_box < 0.5,
        "a_high": a >= 0.6,
        "conf_top": s.completion_bpt <= t.corr_p33,
        "conf_mid": t.corr_p33 < s.completion_bpt <= t.corr_p66,
        "conf_low": s.completion_bpt > t.corr_p66,
        "top_offtask": top == "offtask",
        "top_wrong": top == "wrong",
        "top_correct": top == "correct",
    }


def reference_categorize(s, schema, t):
    flags = reference_flags(s, t)
    if flags["invalid"]:
        return 0
    hits = {
        cat for cat, lits in schema.rules
        if all(not flags[lit[1:]] if lit.startswith("~") else flags[lit] for lit in lits)
    }
    if len(hits) != 1:
        state = ", ".join(k for k, v in sorted(flags.items()) if v)
        what = "no rule covers" if not hits else f"rules {sorted(hits)} overlap on"
        raise UncoveredCaseError(f"schema {schema.name}: {what} [{state}]")
    return hits.pop()


def reference_build(records, schema, thresholds):
    if not records:
        raise EmptyInputError("no signal records")
    questions = list(dict.fromkeys(q for q, _ in records))
    trials = sorted({t for _, t in records})
    missing = [(q, t) for q in questions for t in trials if (q, t) not in records]
    if missing:
        raise IncompleteGridError(
            f"{len(missing)} missing (question, trial) cells, first: {missing[0]}"
        )
    cells = [[reference_categorize(records[(q, t)], schema, thresholds) for t in trials]
             for q in questions]
    return cells, tuple(questions)


def outcome(exc):
    return type(exc), str(exc), getattr(exc, "line", None)


def reference_outcome(path, schemata):
    """Per schema: (cells, question ids), or the error; after the
    thresholds and warnings, or the error that stopped loading."""
    try:
        records, warnings = reference_load(path)
        thresholds = reference_thresholds(list(records.values()))
    except BayesEvalError as exc:
        return outcome(exc)
    built = []
    for schema in schemata:
        try:
            built.append(reference_build(records, schema, thresholds))
        except BayesEvalError as exc:
            built.append(outcome(exc))
    return thresholds, warnings, built


def column_outcome(path, schemata):
    try:
        signals = load_signals_jsonl(path)
        thresholds = compute_thresholds(signals.table)
    except BayesEvalError as exc:
        return outcome(exc)
    built = []
    for schema in schemata:
        try:
            matrix = build_matrix(signals.table, schema, thresholds)
        except BayesEvalError as exc:
            built.append(outcome(exc))
            continue
        assert matrix.cells.dtype == np.int64
        built.append((matrix.cells.tolist(), matrix.question_ids))
    return thresholds, signals.warnings, built


# -- generated JSONL -------------------------------------------------------------------

SCHEMATA = [
    schema_by_name(name)
    for name in ("exact-match", "format-aware", "conf-calibrated", "verifier-only",
                 "efficiency-adjusted", "strict-compliance")
] + [
    Schema("partial", 3, ((1, ("wrong",)),)),                   # leaves correct attempts uncovered
    Schema("overlap", 3, ((1, ("correct",)), (2, ("boxed",)), (2, ("~boxed", "wrong")))),
]
PROBABILITY = st.sampled_from([0, 1, 0.0, 1.0, 0.5, 0.49, 0.6, 0.3, True, False])
BPT = st.sampled_from([0.5, 1.7, 2.2, 2.7, 3.5, 0, 2])
RATIO = st.sampled_from([0.1, 0.35, 0.8, 0.2, 1])
VERIFIER_TRIPLES = st.sampled_from([
    (0.9, 0.05, 0.05), (0.55, 0.4, 0.05), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6),
    (0.3, 0.3, 0.3), (0.6, 0.3, 0.1), (0.4, 0.1, 0.5), (0, 0, 0), (0.45, 0.45, 0.1),
])
BAD_VALUES = st.sampled_from([
    "yes", None, [1], {}, "0.5", 1.2, -0.1, float("nan"), float("inf"), -float("inf"),
    0.7, 2, -1, 10**400,
])
BAD_TRIALS = st.sampled_from([1.5, "1", True, None, 2**63, -(2**63) - 1, float("nan"), [1]])
FAULTS = ["drop", "line", "missing", "trial", "duplicate", "float trial", "pattern",
          "values", "values", "ranges", "ranges", "ranges"]
BAD_LINES = st.sampled_from([
    "{not json", '{"question_id": }', "{} {}", "5", "[1, 2]", '"question_id"', "null",
    "true", "   ", "",
])


@st.composite
def record(draw, qid, trial):
    rec = {
        "question_id": qid,
        "trial": trial,
        "has_box": draw(PROBABILITY),
        "is_correct": draw(PROBABILITY),
        "token_ratio": draw(RATIO),
        "repeated_pattern": draw(st.sampled_from([0, 0, 0, 1, 0.0, 1.0, False])),
        "prompt_bpt": draw(st.sampled_from([1.0, 6.0, 3, 0])),
        "completion_bpt": draw(BPT),
    }
    omitted = draw(st.sampled_from(["none", "none", "none", "all", "A", "BC"]))
    for key, value in zip(VERIFIER, draw(VERIFIER_TRIPLES)):
        if omitted == "all" or key[-1] in omitted:
            continue
        rec[key] = value
    return rec


@st.composite
def signals_text(draw, faults=True):
    """JSONL text of a (question, trial) grid; with ``faults``, some lines
    are dropped, duplicated, blank, malformed or hold bad values."""
    questions = draw(st.integers(1, 3))
    trials = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    qids = draw(st.sampled_from([["q1", "q2", "q3"], ["b", "a", "c"], [7, "7x", 3.5]]))
    density = draw(st.sampled_from([0, 0, 1, 4])) if faults else 0     # in tenths
    lines = []
    for q in range(questions):
        for t in trials:
            rec = draw(record(qids[q], t))
            fault = None
            if density and draw(st.integers(0, 9)) < density:
                fault = draw(st.sampled_from(FAULTS))
            if fault == "drop":
                continue                                            # incomplete grid
            if fault == "line":
                lines.append(draw(BAD_LINES))
            elif fault == "missing":
                del rec[draw(st.sampled_from(REQUIRED))]
            elif fault == "trial":
                rec["trial"] = draw(BAD_TRIALS)
            elif fault == "duplicate":
                lines.append(json.dumps(rec))
            elif fault == "float trial":
                rec["trial"] = float(t)
            elif fault == "pattern":
                rec["repeated_pattern"] = draw(st.sampled_from([0.7, -0.5, 2.0, 1e300]))
            elif fault == "values":
                keys = st.sampled_from(REQUIRED[2:] + tuple(VERIFIER))
                for key in draw(st.lists(keys, min_size=2, max_size=3, unique=True)):
                    rec[key] = draw(BAD_VALUES)
            elif fault == "ranges":
                keys = st.sampled_from(("has_box", "is_correct", *VERIFIER, *REQUIRED[4:]))
                for key in draw(st.lists(keys, min_size=2, max_size=4, unique=True)):
                    rec[key] = draw(st.sampled_from([1.2, -0.1, float("nan"), 3]))
            lines.append(json.dumps(rec))
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


class TestColumnPipelineMatchesPerRecord:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(signals_text())
    def test_same_cells_ids_thresholds_warnings_and_errors(self, tmp_path, text):
        path = tmp_path / "s.jsonl"
        path.write_text(text)
        assert column_outcome(path, SCHEMATA) == reference_outcome(path, SCHEMATA)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(signals_text(faults=False), st.randoms(use_true_random=False))
    def test_line_order_changes_only_row_order(self, tmp_path, text, rnd):
        lines = text.splitlines()
        shuffled = list(lines)
        rnd.shuffle(shuffled)
        outcomes = []
        for name, body in (("a", lines), ("b", shuffled)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("\n".join(body) + "\n")
            try:
                signals = load_signals_jsonl(path)
                thresholds = compute_thresholds(signals.table)
                matrix = build_matrix(signals.table, schema_by_name("conf-calibrated"), thresholds)
            except InputError as exc:
                outcomes.append(type(exc))
                continue
            rows = dict(zip(matrix.question_ids, matrix.cells.tolist()))
            outcomes.append((thresholds, rows, signals.warnings))
        assert outcomes[0] == outcomes[1]


# -- the table itself ------------------------------------------------------------------------

def table(**overrides):
    columns = dict(
        question_ids=("q1", "q2"),
        question=np.array([1, 0, 1, 0]),
        trial=np.array([2, 2, 1, 1]),
        has_box=np.array([1.0, 0.0, 1.0, 0.0]),
        is_correct=np.array([1.0, 0.0, 0.0, 1.0]),
        token_ratio=np.full(4, 0.2),
        repeated_pattern=np.zeros(4),
        prompt_bpt=np.ones(4),
        completion_bpt=np.array([1.0, 2.0, 3.0, 4.0]),
        verifier_correct=np.zeros(4),
        verifier_wrong=np.zeros(4),
        verifier_offtask=np.zeros(4),
        lines=np.array([3, 5, 8, 9]),
    )
    columns.update(overrides)
    return SignalTable(**columns)


class TestSignalTable:
    def test_grid_rows_by_first_appearance_and_trials_ascending(self):
        mx = build_matrix(table(), schema_by_name("format-aware"))
        assert mx.question_ids == ("q2", "q1")
        assert mx.cells.tolist() == [[2, 4], [3, 1]]

    def test_range_violation_reports_source_and_line(self):
        with pytest.raises(RangeViolationError) as err:
            table(is_correct=np.array([1.0, 0.0, 1.5, np.nan]), source="in.jsonl")
        assert err.value.line == 8
        assert str(err.value) == "in.jsonl: is_correct=1.5 outside [0, 1] (line 8)"

    def test_ragged_columns_rejected(self):
        with pytest.raises(InputError, match="differ in length"):
            table(has_box=np.array([1.0]))

    def test_duplicate_rows_rejected(self):
        with pytest.raises(InputError, match="1 duplicate"):
            build_matrix(table().take(np.array([0, 1, 2, 3, 3])), schema_by_name("exact-match"))

    def test_uncovered_case_named_at_first_grid_cell(self):
        # correct rows 1 (unboxed) and 3 (boxed) are uncovered; the grid
        # puts q2 first, then q1 at trial 1 (row 3), then row 1
        correct = dict(is_correct=np.array([0.0, 1.0, 0.0, 1.0]),
                       has_box=np.array([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(UncoveredCaseError) as err:
            build_matrix(table(**correct), Schema("partial", 3, ((1, ("wrong",)),)))
        state = str(err.value).split("[")[1].rstrip("]").split(", ")
        assert "correct" in state and "boxed" in state

    @pytest.mark.parametrize(
        "rows, message",
        [([0, 2, 3], "1 missing (question, trial) cells, first: ('q1', 2)"),   # the last cell
         ([0, 1, 3], "1 missing (question, trial) cells, first: ('q2', 1)"),   # the first cell
         ([0, 3], "2 missing (question, trial) cells, first: ('q2', 1)")],
    )
    def test_incomplete_grid_counts_and_names_first_missing_cell(self, rows, message):
        with pytest.raises(IncompleteGridError) as err:
            build_matrix(table().take(np.array(rows)), schema_by_name("exact-match"), THRESH)
        assert str(err.value) == message
