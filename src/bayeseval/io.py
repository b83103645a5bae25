"""File formats and report emission.

Matrices travel as CSV (human-diffable), per-attempt signals as JSONL
(sparse optional fields), analysis results as JSON or TSV. Reports are
byte-stable: fixed field order, floats at 12 significant digits, so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import (
    DuplicateCellError,
    EmptyMatrixError,
    InputError,
    MissingFieldError,
    ParseError,
)
from .model import PriorData, ResultsMatrix, validate_matrix

if TYPE_CHECKING:
    from .rubric import SignalTable

__all__ = [
    "load_results_csv",
    "save_results_csv",
    "load_prior_csv",
    "load_label_map",
    "load_json",
    "json_int",
    "SignalSet",
    "load_signals_jsonl",
    "emit_report",
]


@contextmanager
def _open_utf8(path, **kwargs):
    """``path`` opened as UTF-8 text whatever the locale, skipping a
    leading byte-order mark; a byte sequence that does not decode is a
    ``ParseError`` naming the file."""
    with open(path, encoding="utf-8-sig", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_grid_csv(path, labels=None) -> tuple[list[str], np.ndarray]:
    """Question ids and the int64 cell grid of a ``question_id,...`` CSV.

    A cell is a ``labels`` name or anything ``int()`` accepts. Each
    distinct token is converted once, through a memo filled row by row, so
    a malformed cell is still reported at its line and column.
    """
    ids: list[str] = []
    rows: list[list[int]] = []
    memo: dict[str, int] = {}
    with _open_utf8(path, newline="") as fh:
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
            try:
                rows.append(list(map(memo.__getitem__, row[1:])))
            except KeyError:
                _learn_tokens(memo, row, labels, path, line_no)
                rows.append(list(map(memo.__getitem__, row[1:])))
    if not rows:
        raise EmptyMatrixError(f"{path}: no data rows")
    return ids, np.array(rows, dtype=np.int64)


def _learn_tokens(memo: dict[str, int], row: list[str], labels, path, line_no: int) -> None:
    """Add the row's new tokens to ``memo``; raise at the first bad cell."""
    for col, text in enumerate(row[1:], start=2):
        if text in memo:
            continue
        if labels and text in labels:
            value = labels[text]
        else:
            try:
                value = int(text)
            except ValueError:
                raise ParseError(
                    f"{path}: non-integer cell {text!r}", line=line_no, column=col
                ) from None
        if not -(2**63) <= value < 2**63:
            raise ParseError(f"{path}: cell {text!r} out of range", line=line_no, column=col)
        memo[text] = value


def load_results_csv(
    path,
    num_categories: int | None = None,
    labels: Mapping[str, int] | None = None,
) -> ResultsMatrix:
    """Load a results matrix from ``question_id,t1,...,tN`` CSV.

    A cell is a ``labels`` name or an integer as ``int()`` reads it
    (surrounding spaces, a sign, leading zeros and ``_`` digit separators
    are accepted); blank lines are skipped. ``num_categories`` defaults to
    one more than the largest observed cell (at least 2); pass it
    explicitly when trailing categories may be absent from the data.
    ``labels`` optionally maps category names to indices so named cells
    can be ingested; the core stays numeric.

    Raises:
        ParseError: malformed row or non-integer cell, with location; a file
            that is not UTF-8 text, naming it.
        EmptyMatrixError / RaggedRowsError / CategoryOutOfRangeError.
    """
    ids, cells = _read_grid_csv(path, labels=labels)
    if num_categories is None:
        observed = int(cells.max()) if cells.size else 1
        num_categories = max(2, observed + 1)
        if labels:
            num_categories = max(num_categories, max(labels.values()) + 1)
    return validate_matrix(cells, num_categories, question_ids=ids)


def load_label_map(path) -> dict[str, int]:
    """Category-name to index sidecar: a JSON object of name -> integer.

    An index is a JSON integer or an integral number such as ``2.0``;
    a fraction, boolean, string or null is a ``ParseError`` naming its key.
    """
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: label map must be a JSON object")
    labels = {}
    for name, index in raw.items():
        value = json_int(index)
        if value is None:
            raise ParseError(f"{path}: label {name!r} has index {index!r}, not an integer")
        labels[str(name)] = value
    return labels


def load_json(path):
    """The JSON document in a UTF-8 file; malformed JSON is a ``ParseError``
    naming the file and the line, and a file that is not UTF-8 one naming
    the file."""
    with _open_utf8(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=exc.lineno) from None


def json_int(value) -> int | None:
    """A JSON integer or integral float (``2.0``) as an int, else None.

    ``true`` and ``false`` are not integers here.
    """
    if type(value) is float and value.is_integer():
        return int(value)
    return value if type(value) is int else None


def load_prior_csv(path, num_categories: int) -> PriorData:
    """Load a prior matrix in the same CSV layout as results, keeping its
    question ids: it applies only to results with the same ids in order."""
    ids, rows = _read_grid_csv(path)
    return PriorData.from_matrix(rows, num_categories, ids)


def save_results_csv(matrix: ResultsMatrix, path) -> None:
    """Write a matrix in the layout ``load_results_csv`` reads back."""
    ids = matrix.question_ids or tuple(f"q{i + 1}" for i in range(matrix.questions))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_id"] + [f"t{j + 1}" for j in range(matrix.trials)])
        for qid, row in zip(ids, matrix.cells):
            writer.writerow([qid] + [int(v) for v in row])


_REQUIRED_SIGNAL_FIELDS = (
    "question_id",
    "trial",
    "has_box",
    "is_correct",
    "token_ratio",
    "repeated_pattern",
    "prompt_bpt",
    "completion_bpt",
)
_VERIFIER_FIELDS = {
    "compass_context_A": "verifier_correct",
    "compass_context_B": "verifier_wrong",
    "compass_context_C": "verifier_offtask",
}
# (JSON key, AttemptSignals field, integral) in the order a record's values are read
_SIGNAL_COLUMNS = tuple(
    [(key, key, key == "repeated_pattern") for key in _REQUIRED_SIGNAL_FIELDS[2:]]
    + [(key, name, False) for key, name in _VERIFIER_FIELDS.items()]
)
_NUMBER_TYPES = frozenset((int, float, bool))


@dataclass(frozen=True)
class SignalSet:
    """Parsed signal records as one column table, plus warnings."""

    table: SignalTable
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.table)


def _int64(value) -> int | None:
    """A JSON integer or integral float as an int64 value, else None."""
    value = json_int(value)
    return value if value is not None and -(2**63) <= value < 2**63 else None


def _value_problem(name: str, value, integral: bool) -> str | None:
    """Why ``value`` cannot be read as signal ``name``, or None if it can."""
    if type(value) not in _NUMBER_TYPES:
        return f"{name} must be a number, got {value!r}"
    try:
        number = float(value)
    except OverflowError:
        return f"{name}={value} is beyond the float64 range"
    if integral and not number.is_integer():
        return f"{name} must be an integer, got {value!r}"
    return None


def _signal_column(name: str, values, integral: bool):
    """``(float64 column, None)``, or ``(None, (row, problem))`` for the
    first value that cannot be read as signal ``name``."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:   # an integer beyond the float64 range
            pass
        else:
            if not integral or (np.isfinite(column) & (column == np.trunc(column))).all():
                return column, None
    problems = ((row, _value_problem(name, value, integral)) for row, value in enumerate(values))
    return None, next((row, problem) for row, problem in problems if problem)


def _signal_table(path, rows: list[tuple], lines: list[int]) -> SignalTable:
    """The column table of ``(question_id, trial, *values)`` rows read at ``lines``.

    Raises the error of the lowest row whose values fail: a value that is
    not a number (or not integral) as ``ParseError``, else one outside its
    range as ``RangeViolationError`` from the table.
    """
    from .rubric import SignalTable

    qids, trials, *raw = list(zip(*rows)) or [()] * (2 + len(_SIGNAL_COLUMNS))
    columns, first = {}, None
    for (key, name, integral), values in zip(_SIGNAL_COLUMNS, raw):
        columns[name], bad = _signal_column(key, values, integral)
        if bad and (first is None or bad[0] < first[0]):
            first = bad
    if first:
        row, problem = first
        _signal_table(path, rows[:row], lines[:row])   # numbers above, maybe out of range
        raise ParseError(f"{path}: {problem}", line=lines[row])
    index = {q: i for i, q in enumerate(dict.fromkeys(qids))}
    return SignalTable(
        question_ids=tuple(index),
        question=np.fromiter(map(index.__getitem__, qids), np.int64, len(qids)),
        trial=np.array(trials, dtype=np.int64),
        lines=np.array(lines, dtype=np.int64),
        source=str(path),
        **columns,
    )


def load_signals_jsonl(path) -> SignalSet:
    """Load per-attempt signal records, one JSON object per line.

    One pass parses each line, checks its fields and its (question, trial)
    cell, and keeps its values; they become the columns of one
    ``SignalTable``, whose value types and ranges are checked a column at
    a time. ``question_id`` is read with ``str()``; ``trial`` is a JSON
    integer or integral float (``2.0``) within int64. The other values are
    JSON numbers, ``true``/``false`` reading as 1/0, and
    ``repeated_pattern`` must be integral. Blank lines are skipped.
    Records missing the verifier fields default them to zero and add a
    warning.

    Raises ``ParseError`` naming the file if it is not UTF-8 text; else,
    for the lowest-numbered bad line, the first check it fails in this
    order:
        ParseError: malformed JSON, or a line that is not a JSON object.
        MissingFieldError: a required field is absent.
        ParseError: a ``trial`` that is not an int64 integer.
        DuplicateCellError: the (question, trial) cell was already read.
        ParseError: a value that is not a number, or not integral.
        RangeViolationError: a value outside its range, in
            ``AttemptSignals`` checking order.
    """
    take = itemgetter(*_REQUIRED_SIGNAL_FIELDS)
    take_verifier = itemgetter(*_VERIFIER_FIELDS)
    rows: list[tuple] = []
    lines: list[int] = []
    seen: set[tuple[str, int]] = set()
    defaulted = 0
    error = None
    with _open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                error = ParseError(f"{path}: invalid JSON: {exc.msg}", line=line_no)
                break
            if type(obj) is not dict:
                error = ParseError(
                    f"{path}: expected a JSON object, got {type(obj).__name__}", line=line_no
                )
                break
            try:
                row = take(obj)
            except KeyError as exc:
                error = MissingFieldError(f"{path}: missing field {exc.args[0]!r}", line=line_no)
                break
            key = (str(row[0]), _int64(row[1]))
            if key[1] is None:
                error = ParseError(
                    f"{path}: trial must be an int64 integer, got {row[1]!r}", line=line_no
                )
                break
            if key in seen:
                error = DuplicateCellError(
                    f"{path}: duplicate record for question {key[0]!r} trial {key[1]}",
                    line=line_no,
                )
                break
            seen.add(key)
            try:
                verifier = take_verifier(obj)
            except KeyError:
                verifier = tuple(obj.get(name, 0.0) for name in _VERIFIER_FIELDS)
                defaulted += 1
            rows.append(key + row[2:] + verifier)
            lines.append(line_no)
    # built before raising, so a bad value above the bad line is reported first
    table = _signal_table(path, rows, lines)
    if error:
        raise error
    warnings = ()
    if defaulted:
        warnings = (f"{defaulted} record(s) missing verifier fields; defaulted to (0, 0, 0)",)
    return SignalSet(table, warnings)


# -- report emission ----------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".12g")


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_json(v, out)
        out.append("]")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__} into a report")


def emit_report(result, format: str = "json") -> bytes:
    """Serialize an analysis result with stable ordering and float width.

    ``result`` is either a mapping or any object with ``to_report()``.
    ``format`` is ``json`` or ``tsv``; TSV needs an object with
    ``tsv_rows()`` (tau curves, convergence distributions, separation
    results).
    """
    if format == "tsv":
        if not hasattr(result, "tsv_rows"):
            raise InputError(f"no TSV layout for {type(result).__name__}; use json")
        lines = []
        for row in result.tsv_rows():
            lines.append(
                "\t".join(
                    _fmt_float(v) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
            )
        return ("\n".join(lines) + "\n").encode()
    if format != "json":
        raise InputError(f"unknown report format {format!r}")
    payload = result if isinstance(result, Mapping) else result.to_report()
    out: list[str] = []
    _write_json(payload, out)
    out.append("\n")
    return "".join(out).encode()
