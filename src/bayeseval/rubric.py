"""Categorical scoring of raw attempt signals through named schemata.

Each attempt carries low-level signals (correctness, formatting, token
budget use, prompt/completion bits-per-token, verifier label
probabilities). Dataset-level thresholds turn those into boolean rubric
variables, and a schema maps every variable combination to exactly one
category. Category 0 is always reserved for invalid attempts (degenerate
repetition or a high off-task verifier probability), which dominates all
other rules.

Signals are processed as columns. A ``SignalTable`` holds one row per
attempt: question codes, int64 trials, one float64 array per
``AttemptSignals`` field and the source line of each row. Thresholds are
percentiles of its columns, each rubric variable is one boolean array,
each rule ANDs its literals' arrays into a mask, and ``build_matrix``
places the categories on the (question, trial) grid with ``np.unique``.
A single ``AttemptSignals``, or a mapping of them, runs through the same
code as a table of one row per record.

Percentile thresholds use linear interpolation between closest ranks
(the numpy default), fixed here so threshold values are stable across
implementations and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyInputError,
    IncompleteGridError,
    InputError,
    NoCorrectItemsError,
    NoWrongItemsError,
    RangeViolationError,
    UncoveredCaseError,
)
from .model import ResultsMatrix, WeightVector

__all__ = [
    "AttemptSignals",
    "SignalTable",
    "ThresholdSet",
    "RubricVariables",
    "Schema",
    "SCHEMATA",
    "schema_by_name",
    "schema_names",
    "compute_thresholds",
    "derive_variables",
    "categorize",
    "build_matrix",
]

_PROBABILITIES = ("has_box", "is_correct", "verifier_correct", "verifier_wrong", "verifier_offtask")
_NON_NEGATIVE = ("token_ratio", "prompt_bpt", "completion_bpt")


def _range_problem(s) -> tuple[int, str] | None:
    """The first row of ``s`` holding a value outside its range, and why.

    ``s`` is an ``AttemptSignals`` (one row) or a ``SignalTable``. A row's
    probabilities are checked first, then its non-negative reals, then
    ``repeated_pattern``; NaN fails every check.
    """
    checks = []     # (field, values, failing rows, message), in checking order
    for name in _PROBABILITIES:
        v = np.atleast_1d(np.asarray(getattr(s, name), dtype=np.float64))
        checks.append((name, v, ~((v >= 0.0) & (v <= 1.0)), "{}={} outside [0, 1]"))
    for name in _NON_NEGATIVE:
        v = np.atleast_1d(np.asarray(getattr(s, name), dtype=np.float64))
        checks.append((name, v, ~(np.isfinite(v) & (v >= 0.0)), "{}={} must be finite and >= 0"))
    v = np.atleast_1d(np.asarray(s.repeated_pattern, dtype=np.float64))
    checks.append(("repeated_pattern", v, (v != 0.0) & (v != 1.0), "{} must be 0 or 1, got {}"))
    bad = np.logical_or.reduce([failing for _, _, failing, _ in checks])
    if not bad.any():
        return None
    row = int(bad.argmax())
    name, v, _, message = next(check for check in checks if check[2][row])
    value = float(v[row])
    if name == "repeated_pattern" and value.is_integer():
        value = int(value)
    return row, message.format(name, value)


@dataclass(frozen=True)
class AttemptSignals:
    """Raw per-attempt signals.

    ``has_box`` and ``is_correct`` are accepted as reals in [0, 1] and
    thresholded at 0.5 where the rubric needs booleans. ``token_ratio``
    is completion tokens over the 32,768 budget. ``verifier_*`` are the
    calibrated label probabilities for correct / wrong / off-task.
    """

    has_box: float
    is_correct: float
    token_ratio: float
    repeated_pattern: int
    prompt_bpt: float
    completion_bpt: float
    verifier_correct: float = 0.0   # A
    verifier_wrong: float = 0.0     # B
    verifier_offtask: float = 0.0   # C

    def __post_init__(self):
        found = _range_problem(self)
        if found:
            raise InputError(found[1])


_SIGNAL_FIELDS = tuple(f.name for f in fields(AttemptSignals))


@dataclass(frozen=True, eq=False, repr=False)
class SignalTable:
    """Attempt signals as columns, one row per attempt.

    ``question`` holds int64 codes into ``question_ids``, ``trial`` the
    int64 trial numbers, and each ``AttemptSignals`` field is a float64
    column under the same name. ``lines`` gives each row's line in
    ``source``, the file the rows were read from (empty for tables built
    in memory, whose lines number the rows from 1). Construction checks
    the ranges ``AttemptSignals`` checks, row by row.

    Raises:
        InputError: columns of different lengths.
        RangeViolationError: the first row holding a value outside its
            range, at that row's line.
    """

    question_ids: tuple[str, ...]
    question: np.ndarray
    trial: np.ndarray
    has_box: np.ndarray
    is_correct: np.ndarray
    token_ratio: np.ndarray
    repeated_pattern: np.ndarray
    prompt_bpt: np.ndarray
    completion_bpt: np.ndarray
    verifier_correct: np.ndarray
    verifier_wrong: np.ndarray
    verifier_offtask: np.ndarray
    lines: np.ndarray
    source: str = ""

    def __post_init__(self):
        n = len(self.trial)
        if any(len(getattr(self, name)) != n for name in ("question", *_SIGNAL_FIELDS, "lines")):
            raise InputError("signal table columns differ in length")
        found = _range_problem(self)
        if found:
            row, problem = found
            where = f"{self.source}: " if self.source else ""
            raise RangeViolationError(where + problem, line=int(self.lines[row]))

    def __len__(self) -> int:
        return len(self.trial)

    @classmethod
    def from_records(cls, records: Mapping[tuple[str, int], AttemptSignals]) -> "SignalTable":
        """One row per (question, trial) -> signals entry, in mapping order."""
        codes: dict[str, int] = {}
        question = [codes.setdefault(q, len(codes)) for q, _ in records]
        values = list(records.values())
        return cls(
            question_ids=tuple(codes),
            question=np.array(question, dtype=np.int64),
            trial=np.array([t for _, t in records], dtype=np.int64),
            lines=np.arange(1, len(values) + 1),
            **{
                name: np.array([getattr(s, name) for s in values], dtype=np.float64)
                for name in _SIGNAL_FIELDS
            },
        )

    def take(self, rows: np.ndarray) -> "SignalTable":
        """The rows at index ``rows``, in that order."""
        return replace(
            self,
            question=self.question[rows],
            trial=self.trial[rows],
            lines=self.lines[rows],
            **{name: getattr(self, name)[rows] for name in _SIGNAL_FIELDS},
        )


def _as_table(signals) -> SignalTable:
    """``signals`` as a table: a table itself, one ``AttemptSignals``, a
    (question, trial) -> signals mapping, or an iterable of signals."""
    if isinstance(signals, SignalTable):
        return signals
    if isinstance(signals, AttemptSignals):
        signals = (signals,)
    if not isinstance(signals, Mapping):
        signals = {("", i): s for i, s in enumerate(signals, start=1)}
    return SignalTable.from_records(signals)


@dataclass(frozen=True)
class ThresholdSet:
    """Dataset-level cutoffs for the confidence / length / OOD variables."""

    tau_high: float        # 40th pct of completion_bpt
    tau_low_wrong: float   # 60th pct of completion_bpt among wrong items
    tau_prompt: float      # 90th pct of prompt_bpt
    len_p33: float         # 33rd pct of token_ratio
    len_p66: float         # 66th pct of token_ratio
    corr_p33: float        # 33rd pct of completion_bpt among correct items
    corr_p66: float        # 66th pct of completion_bpt among correct items

    def __post_init__(self):
        if self.len_p33 > self.len_p66:
            raise InputError("len_p33 must not exceed len_p66")
        if self.corr_p33 > self.corr_p66:
            raise InputError("corr_p33 must not exceed corr_p66")

    def to_report(self) -> dict:
        return {
            "tau_high": self.tau_high,
            "tau_low_wrong": self.tau_low_wrong,
            "tau_prompt": self.tau_prompt,
            "len_p33": self.len_p33,
            "len_p66": self.len_p66,
            "corr_p33": self.corr_p33,
            "corr_p66": self.corr_p66,
        }


def compute_thresholds(signals: SignalTable | Iterable[AttemptSignals]) -> ThresholdSet:
    """Percentile thresholds over a signal table or collection (order-invariant).

    Raises:
        EmptyInputError: no signals.
        NoWrongItemsError / NoCorrectItemsError: a conditional percentile
            has no supporting items.
    """
    table = _as_table(signals)
    if not len(table):
        raise EmptyInputError("cannot compute thresholds without signals")
    completion = table.completion_bpt
    correct_mask = table.is_correct >= 0.5
    wrong_bpt = completion[~correct_mask]
    correct_bpt = completion[correct_mask]
    if wrong_bpt.size == 0:
        raise NoWrongItemsError("no wrong attempts: 60th-percentile cutoff undefined")
    if correct_bpt.size == 0:
        raise NoCorrectItemsError("no correct attempts: confidence terciles undefined")
    pct = lambda a, q: float(np.percentile(a, q, method="linear"))
    return ThresholdSet(
        tau_high=pct(completion, 40),
        tau_low_wrong=pct(wrong_bpt, 60),
        tau_prompt=pct(table.prompt_bpt, 90),
        len_p33=pct(table.token_ratio, 33),
        len_p66=pct(table.token_ratio, 66),
        corr_p33=pct(correct_bpt, 33),
        corr_p66=pct(correct_bpt, 66),
    )


@dataclass(frozen=True)
class RubricVariables:
    """Boolean rubric variables: one bool per variable for an
    ``AttemptSignals``, one boolean array (a row per attempt) for a table."""

    invalid: bool
    correct: bool
    wrong: bool
    high_conf: bool
    low_conf: bool
    wrong_high_conf: bool
    ood: bool
    ind: bool
    economical: bool
    moderate: bool
    verbose: bool
    boxed: bool
    unboxed: bool
    a_high: bool
    conf_top: bool        # completion_bpt <= corr_p33 (most confident tercile)
    conf_mid: bool        # corr_p33 < completion_bpt <= corr_p66
    conf_low: bool        # completion_bpt > corr_p66
    top_offtask: bool     # argmax of verifier probabilities, ties prefer off-task
    top_wrong: bool
    top_correct: bool


def derive_variables(s: AttemptSignals | SignalTable, t: ThresholdSet) -> RubricVariables:
    """Map signals to rubric variables using the dataset thresholds.

    Boundary conventions are fixed: invalid when the off-task probability
    reaches 0.50; confident when ``completion_bpt`` does not exceed the
    cutoff; economical when ``token_ratio`` does not exceed the tercile.
    The verifier argmax resolves ties pessimistically: off-task, then
    wrong, then correct.
    """
    table = _as_table(s)
    correct = table.is_correct >= 0.5
    bpt, ratio, prompt = table.completion_bpt, table.token_ratio, table.prompt_bpt
    a, b, c = table.verifier_correct, table.verifier_wrong, table.verifier_offtask
    top_offtask = (c >= a) & (c >= b)
    top_wrong = ~top_offtask & (b >= a)
    variables = RubricVariables(
        invalid=(table.repeated_pattern == 1) | (c >= 0.50),
        correct=correct,
        wrong=~correct,
        high_conf=bpt <= t.tau_high,
        low_conf=bpt > t.tau_high,
        wrong_high_conf=~correct & (bpt <= t.tau_low_wrong),
        ood=prompt >= t.tau_prompt,
        ind=prompt < t.tau_prompt,
        economical=ratio <= t.len_p33,
        moderate=(t.len_p33 < ratio) & (ratio <= t.len_p66),
        verbose=ratio > t.len_p66,
        boxed=table.has_box >= 0.5,
        unboxed=table.has_box < 0.5,
        a_high=a >= 0.6,
        conf_top=bpt <= t.corr_p33,
        conf_mid=(t.corr_p33 < bpt) & (bpt <= t.corr_p66),
        conf_low=bpt > t.corr_p66,
        top_offtask=top_offtask,
        top_wrong=top_wrong,
        top_correct=~(top_offtask | top_wrong),
    )
    if not isinstance(s, AttemptSignals):
        return variables
    return RubricVariables(**{name: bool(mask[0]) for name, mask in vars(variables).items()})


@dataclass(frozen=True)
class Schema:
    """A total mapping from rubric variables to categories 1..C.

    Each rule is a conjunction of literals (``"var"`` or ``"~var"``);
    rules must be pairwise disjoint across categories and jointly cover
    every non-invalid attempt. Category 0 (invalid) is implicit and
    dominates everything.
    """

    name: str
    num_categories: int
    rules: tuple[tuple[int, tuple[str, ...]], ...]
    default_weights: WeightVector = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.default_weights is None:
            object.__setattr__(
                self, "default_weights", WeightVector.identity(self.num_categories)
            )
        if len(self.default_weights) != self.num_categories:
            raise InputError(
                f"schema {self.name}: {len(self.default_weights)} weights for "
                f"{self.num_categories} categories"
            )
        for cat, lits in self.rules:
            if not 1 <= cat < self.num_categories:
                raise InputError(f"schema {self.name}: rule category {cat} out of range")
            for lit in lits:
                if lit.lstrip("~") not in RubricVariables.__dataclass_fields__:
                    raise InputError(f"schema {self.name}: unknown variable {lit!r}")

    @classmethod
    def from_config(cls, config: Mapping) -> "Schema":
        """Build a schema from a declarative mapping.

        Expected keys: ``name``, ``num_categories``, ``rules`` (mapping of
        category -> list of conjunction strings like ``"wrong & ~boxed"``),
        optional ``weights``.
        """
        rules = []
        for cat, conjs in config["rules"].items():
            if isinstance(conjs, str):
                conjs = [conjs]
            for conj in conjs:
                lits = tuple(p.strip() for p in conj.split("&") if p.strip())
                rules.append((int(cat), lits))
        weights = config.get("weights")
        return cls(
            name=str(config["name"]),
            num_categories=int(config["num_categories"]),
            rules=tuple(rules),
            default_weights=WeightVector(tuple(weights)) if weights else None,
        )


def categorize(s: AttemptSignals | SignalTable, schema: Schema, t: ThresholdSet):
    """Category of each attempt under a schema; invalid always maps to 0.

    Returns an int for an ``AttemptSignals`` and an int64 array (one entry
    per row) for a table. Each rule's literals are ANDed into a row mask;
    the masks of one category are ORed, and every valid row must be hit by
    exactly one category.

    Raises:
        UncoveredCaseError: the schema's rules leave an attempt unmapped or
            map it to more than one category; the first such row is named
            by its true variables.
    """
    table = _as_table(s)
    variables = derive_variables(table, t)
    hit: dict[int, np.ndarray] = {}
    for cat, lits in schema.rules:
        mask = np.ones(len(table), dtype=bool)
        for lit in lits:
            mask &= ~getattr(variables, lit[1:]) if lit.startswith("~") else getattr(variables, lit)
        hit[cat] = hit[cat] | mask if cat in hit else mask
    valid = ~variables.invalid
    uncovered = valid & (sum(hit.values()) != 1)
    if uncovered.any():
        row = int(uncovered.argmax())
        cats = sorted(cat for cat, mask in hit.items() if mask[row])
        state = ", ".join(k for k, mask in sorted(vars(variables).items()) if mask[row])
        what = "no rule covers" if not cats else f"rules {cats} overlap on"
        raise UncoveredCaseError(f"schema {schema.name}: {what} [{state}]")
    category = np.where(valid, sum(cat * mask for cat, mask in hit.items()), 0)
    return int(category[0]) if isinstance(s, AttemptSignals) else category


def build_matrix(
    records: SignalTable | Mapping[tuple[str, int], AttemptSignals],
    schema: Schema,
    thresholds: ThresholdSet | None = None,
) -> ResultsMatrix:
    """Categorical results matrix from a complete (question, trial) grid.

    ``records`` is a signal table or a (question, trial) -> signals
    mapping, which is made a table once. Thresholds default to
    percentiles of the very records being mapped. Question rows are
    ordered by first appearance; trials sort ascending. The table's rows
    are put in that grid order and categorized by one ``categorize`` call,
    so an uncovered case is reported at its first grid cell.

    Raises:
        EmptyInputError: no records.
        IncompleteGridError: some (question, trial) pair is missing.
        InputError: a table holds two rows for one (question, trial) pair.
    """
    table = _as_table(records)
    if not len(table):
        raise EmptyInputError("no signal records")
    if thresholds is None:
        thresholds = compute_thresholds(table)
    codes, first, question = np.unique(table.question, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    ids = tuple(table.question_ids[code] for code in codes[by_appearance])
    trials, trial = np.unique(table.trial, return_inverse=True)
    m, n = len(ids), len(trials)
    cell = np.argsort(by_appearance)[question.reshape(-1)] * n + trial.reshape(-1)
    order = np.argsort(cell)
    if len(table) != m * n or (cell[order] != np.arange(m * n)).any():
        placed = np.unique(cell)     # memory stays O(rows) however sparse the grid
        if placed.size < m * n:
            gaps = np.flatnonzero(placed != np.arange(placed.size))
            q, t = divmod(int(gaps[0]) if gaps.size else placed.size, n)
            raise IncompleteGridError(
                f"{m * n - placed.size} missing (question, trial) cells, "
                f"first: {(ids[q], int(trials[t]))}"
            )
        raise InputError(f"{len(table) - m * n} duplicate (question, trial) rows")
    cells = categorize(table.take(order), schema, thresholds)
    return ResultsMatrix(cells.reshape(m, n), schema.num_categories, ids)


def _schema(name, num_categories, rules, weights=None):
    return Schema(
        name,
        num_categories,
        tuple(rules),
        WeightVector(tuple(weights)) if weights else None,
    )


SCHEMATA: tuple[Schema, ...] = (
    _schema("exact-match", 3, [
        (1, ("wrong",)),
        (2, ("correct",)),
    ]),
    _schema("format-aware", 5, [
        (1, ("wrong", "unboxed")),
        (2, ("wrong", "boxed")),
        (3, ("correct", "unboxed")),
        (4, ("correct", "boxed")),
    ], weights=(0, 0, 1, 2, 3)),
    _schema("conf-calibrated", 6, [
        (1, ("wrong", "~wrong_high_conf")),
        (2, ("wrong_high_conf",)),
        (3, ("correct", "conf_low")),
        (4, ("correct", "conf_mid")),
        (5, ("correct", "conf_top")),
    ]),
    _schema("ood-robustness", 5, [
        (1, ("ood", "wrong")),
        (2, ("ind", "wrong")),
        (3, ("ood", "correct")),
        (4, ("ind", "correct")),
    ]),
    _schema("strict-compliance", 3, [
        (1, ("wrong",)),
        (1, ("correct", "unboxed")),
        (2, ("correct", "boxed")),
    ]),
    _schema("conf-wrong-penalty", 4, [
        (1, ("wrong_high_conf",)),
        (2, ("wrong", "~wrong_high_conf")),
        (3, ("correct",)),
    ]),
    _schema("verifier-only", 4, [
        (1, ("~a_high", "top_offtask")),
        (2, ("~a_high", "top_wrong")),
        (3, ("a_high",)),
        (3, ("~a_high", "top_correct")),
    ]),
    _schema("format-confidence", 8, [
        (1, ("wrong", "unboxed")),
        (2, ("wrong", "boxed", "low_conf")),
        (3, ("wrong", "boxed", "high_conf")),
        (4, ("correct", "unboxed", "low_conf")),
        (5, ("correct", "unboxed", "high_conf")),
        (6, ("correct", "boxed", "low_conf")),
        (7, ("correct", "boxed", "high_conf")),
    ]),
    _schema("length-robust", 3, [
        (1, ("wrong",)),
        (2, ("correct",)),
    ]),
    _schema("verifier-probe", 5, [
        (1, ("wrong", "a_high")),
        (2, ("wrong", "~a_high")),
        (3, ("correct", "~a_high")),
        (4, ("correct", "a_high")),
    ]),
    _schema("efficiency-adjusted", 7, [
        (1, ("wrong", "economical")),
        (2, ("wrong", "moderate")),
        (3, ("wrong", "verbose")),
        (4, ("correct", "economical")),
        (5, ("correct", "moderate")),
        (6, ("correct", "verbose")),
    ]),
    _schema("concise-high-conf", 6, [
        (1, ("wrong",)),
        (2, ("correct", "verbose")),
        (3, ("correct", "moderate")),
        (4, ("correct", "economical", "~high_conf")),
        (5, ("correct", "economical", "high_conf")),
    ]),
)

_BY_NAME = {s.name: s for s in SCHEMATA}


def schema_names() -> list[str]:
    return [s.name for s in SCHEMATA]


def schema_by_name(name: str) -> Schema:
    """Look up a shipped schema.

    Raises:
        InputError: unknown name; the message lists all schemata.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise InputError(
            f"unknown schema {name!r}; available: {', '.join(schema_names())}"
        ) from None
