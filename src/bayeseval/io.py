"""File formats and report emission.

Matrices travel as CSV (human-diffable), per-attempt signals as JSONL
(sparse optional fields, in the format ``rubric.SIGNAL_FIELDS`` defines),
analysis results as JSON or TSV. Reports are
byte-stable: fixed field order, floats at 12 significant digits, so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import codecs
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
    """Question ids and the int64 cell grid of a ``question_id,...`` CSV:
    read from the file's bytes by ``_byte_grid`` when every cell is one
    byte, else streamed through ``csv.reader``, which reports every error.
    A cell is a ``labels`` name or anything ``int()`` accepts; each distinct
    token is converted once, through a memo, so a malformed cell is still
    reported at its line and column."""
    grid = _byte_grid(Path(path).read_bytes().removeprefix(codecs.BOM_UTF8), labels)
    if grid is not None:
        return grid
    ids: list[str] = []
    rows: list[list[int]] = []
    memo: dict[str, int] = {}
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyMatrixError(f"{path}: empty file")
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
                    _learn_tokens(memo, row[1:], labels, path, line_no)
                    rows.append(list(map(memo.__getitem__, row[1:])))
        except csv.Error as exc:   # e.g. a field past csv.field_size_limit()
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from None
    if not rows:
        raise EmptyMatrixError(f"{path}: no data rows")
    return ids, np.array(rows, dtype=np.int64)


def _byte_grid(data: bytes, labels) -> tuple[list[str], np.ndarray] | None:
    """The ids and int64 cells of CSV ``data`` whose every cell is one ASCII
    byte, with no Python object per cell; None, never an error, for quotes,
    NUL, wider or ragged cells, a token the cell rule rejects, a field past
    ``csv.field_size_limit()`` or a header or id that is not UTF-8. Records
    end where ``csv.reader`` ends them."""
    if b'"' in data or b"\0" in data:
        return None
    probe = data[:data.find(b"\n", data.find(b"\n") + 1) + 1].splitlines()   # to the second LF
    first = probe[1] if len(probe) == 2 else b""   # the first record, if LF-ended
    if first and len(first) - first.find(b",") != 2 * probe[0].count(b","):
        return None   # a cell wider than a byte: defer before splitting the whole file
    header, *records = data.splitlines() or [b""]
    fields = header.split(b",")
    span = 2 * len(fields) - 3   # width one-byte cells and the commas between them
    rows = [record.partition(b",") for record in records if record]
    if fields[0] != b"question_id" or not rows:
        return None
    ids, _, rests = zip(*rows)
    longest = max(max(map(len, fields)), max(map(len, ids)), 1)
    if longest > csv.field_size_limit() or set(map(len, rests)) != {span}:
        return None
    grid = np.frombuffer(b"".join(rests), np.uint8).reshape(len(rests), span)
    tokens = grid[:, ::2]
    seen = np.zeros(256, bool)
    seen[tokens] = True
    present = np.flatnonzero(seen)
    if (grid[:, 1::2] != ord(",")).any() or ord(",") in present or present[-1] >= 0x80:
        return None
    memo, table = {}, np.zeros(256, np.int64)
    try:
        _learn_tokens(memo, [chr(byte) for byte in present], labels, "", 0)
        header.decode()
        ids = b"\n".join(ids).decode().split("\n")
    except (ParseError, TypeError, UnicodeDecodeError):
        return None
    table[present] = list(memo.values())   # in ``present`` order, each token new
    return ids, table[tokens]


def _learn_tokens(memo: dict[str, int], cells: list[str], labels, path, line_no: int) -> None:
    """Add the row's new ``cells`` tokens to ``memo``; raise at the first bad cell."""
    for col, text in enumerate(cells, start=2):
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
    are accepted); blank lines are skipped. One-byte cells are read from the
    bytes, with the csv module's result and errors. ``num_categories``
    defaults to one more than the largest observed cell (at least 2); pass
    it explicitly when trailing categories may be absent from the data.
    ``labels`` optionally maps category names to indices so named cells
    can be ingested; the core stays numeric.

    Raises:
        ParseError: malformed row, non-integer cell or over-long field, with
            location; a file that is not UTF-8 text, naming it.
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


@dataclass(frozen=True)
class SignalSet:
    """Parsed signal records as one column table, plus warnings."""

    table: SignalTable
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.table)


def load_signals_jsonl(path) -> SignalSet:
    """Load per-attempt signal records, one JSON object per line.

    A record holds ``question_id``, ``trial`` and the field of each signal
    in ``rubric.SIGNAL_FIELDS``; one missing optional fields defaults them
    to 0 and adds a warning. One pass checks each line's fields and (question,
    trial) cell and keeps its values as a row; ``SignalTable.from_rows``
    checks the values and builds the table. ``question_id`` is read with
    ``str()``; ``trial`` is a JSON integer or integral float (``2.0``) within
    int64. Blank lines are skipped.

    Raises ``ParseError`` naming the file if it is not UTF-8 text; else,
    for the lowest-numbered bad line, the first check it fails in this
    order:
        ParseError: malformed JSON, or a line that is not a JSON object.
        MissingFieldError: a required field is absent.
        ParseError: a ``trial`` that is not an int64 integer.
        DuplicateCellError: the (question, trial) cell was already read.
        ParseError / RangeViolationError: a value that does not read as
            its signal, or one outside its range, as ``from_rows`` raises.
    """
    from .rubric import SIGNAL_FIELDS, SignalTable

    fields = ("question_id", "trial", *(f.key for f in SIGNAL_FIELDS))
    take = itemgetter(*fields)
    defaults = {f.key: 0.0 for f in SIGNAL_FIELDS if f.optional}
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
            except KeyError:
                try:
                    row = take({**defaults, **obj})
                except KeyError as exc:
                    error = MissingFieldError(
                        f"{path}: missing field {exc.args[0]!r}", line=line_no
                    )
                    break
                defaulted += 1
            key = (str(row[0]), json_int(row[1]))
            if key[1] is None or not -(2**63) <= key[1] < 2**63:
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
            rows.append(key + row[2:])
            lines.append(line_no)
    # built before raising, so a bad value above the bad line is reported first
    table = SignalTable.from_rows(rows, lines, str(path), fields[2:])
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
