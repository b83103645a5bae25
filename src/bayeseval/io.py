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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DuplicateCellError,
    EmptyMatrixError,
    InputError,
    MissingFieldError,
    ParseError,
    RangeViolationError,
)
from .model import PriorData, ResultsMatrix, validate_matrix
from .rubric import AttemptSignals

__all__ = [
    "load_results_csv",
    "save_results_csv",
    "load_prior_csv",
    "load_label_map",
    "SignalSet",
    "load_signals_jsonl",
    "emit_report",
]


def _read_grid_csv(path, labels=None) -> tuple[list[str], np.ndarray]:
    """Question ids and the int64 cell grid of a ``question_id,...`` CSV.

    A cell is a ``labels`` name or anything ``int()`` accepts. Each
    distinct token is converted once, through a memo filled row by row, so
    a malformed cell is still reported at its line and column.
    """
    ids: list[str] = []
    rows: list[list[int]] = []
    memo: dict[str, int] = {}
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
        ParseError: malformed row or non-integer cell, with location.
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
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: label map must be a JSON object")
    labels = {}
    for name, index in raw.items():
        if isinstance(index, bool) or not (
            isinstance(index, int) or isinstance(index, float) and index.is_integer()
        ):
            raise ParseError(f"{path}: label {name!r} has index {index!r}, not an integer")
        labels[str(name)] = int(index)
    return labels


def load_prior_csv(path, num_categories: int) -> PriorData:
    """Load a prior matrix in the same CSV layout as results."""
    _, rows = _read_grid_csv(path)
    return PriorData.from_matrix(rows, num_categories)


def save_results_csv(matrix: ResultsMatrix, path) -> None:
    """Write a matrix in the layout ``load_results_csv`` reads back."""
    ids = matrix.question_ids or tuple(f"q{i + 1}" for i in range(matrix.questions))
    with open(path, "w", newline="") as fh:
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


@dataclass(frozen=True)
class SignalSet:
    """Parsed signal records keyed by (question_id, trial), plus warnings."""

    records: dict[tuple[str, int], AttemptSignals]
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.records)


def load_signals_jsonl(path) -> SignalSet:
    """Load per-attempt signal records, one JSON object per line.

    Records missing the verifier fields default them to zero and add a
    warning. Raises with the offending line number on malformed JSON,
    missing required fields, out-of-range values, or duplicate cells.
    """
    records: dict[tuple[str, int], AttemptSignals] = {}
    warnings: list[str] = []
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
            for name in _REQUIRED_SIGNAL_FIELDS:
                if name not in obj:
                    raise MissingFieldError(f"{path}: missing field {name!r}", line=line_no)
            key = (str(obj["question_id"]), int(obj["trial"]))
            if key in records:
                raise DuplicateCellError(
                    f"{path}: duplicate record for question {key[0]!r} trial {key[1]}",
                    line=line_no,
                )
            kwargs = {
                "has_box": float(obj["has_box"]),
                "is_correct": float(obj["is_correct"]),
                "token_ratio": float(obj["token_ratio"]),
                "repeated_pattern": int(obj["repeated_pattern"]),
                "prompt_bpt": float(obj["prompt_bpt"]),
                "completion_bpt": float(obj["completion_bpt"]),
            }
            missing_verifier = False
            for src, dst in _VERIFIER_FIELDS.items():
                if src in obj:
                    kwargs[dst] = float(obj[src])
                else:
                    missing_verifier = True
            if missing_verifier:
                defaulted += 1
            try:
                records[key] = AttemptSignals(**kwargs)
            except InputError as exc:
                raise RangeViolationError(f"{path}: {exc}", line=line_no) from None
    if defaulted:
        warnings.append(
            f"{defaulted} record(s) missing verifier fields; defaulted to (0, 0, 0)"
        )
    return SignalSet(records, tuple(warnings))


# -- report emission ----------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".12g")


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
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


def _tsv_rows(result) -> list[tuple]:
    from .bootstrap import ConvergenceDistribution, TauCurve
    from .simulate import SeparationResult

    if isinstance(result, TauCurve):
        rows = [("N", "value", "stderr")]
        rows += [(p.n, p.mean_tau, p.stderr) for p in result.points]
        return rows
    if isinstance(result, ConvergenceDistribution):
        rows = [("n", "pmf", "cdf")]
        pmf, cdf = result.pmf, result.cdf
        rows += [(n, pmf[n], cdf[n]) for n in range(1, result.n_max + 1)]
        rows.append(("censored", result.censored_mass, ""))
        return rows
    if isinstance(result, SeparationResult):
        rows = [("N", "p_correct", "mean_abs_z")]
        rows += list(zip(result.n_grid, result.p_correct, result.mean_abs_z))
        return rows
    raise InputError(f"no TSV layout for {type(result).__name__}; use json")


def emit_report(result, format: str = "json") -> bytes:
    """Serialize an analysis result with stable ordering and float width.

    ``result`` is either a mapping or any object with ``to_report()``.
    ``format`` is ``json`` or ``tsv`` (curves and distributions only).
    """
    if format == "tsv":
        lines = []
        for row in _tsv_rows(result):
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
