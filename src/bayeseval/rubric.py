"""Categorical scoring of raw attempt signals through named schemata.

Each attempt carries low-level signals (correctness, formatting, token
budget use, prompt/completion bits-per-token, verifier label
probabilities). Dataset-level thresholds turn those into boolean rubric
variables, and a schema maps every variable combination to exactly one
category. Category 0 is always reserved for invalid attempts (degenerate
repetition or a high off-task verifier probability), which dominates all
other rules.

``SIGNAL_FIELDS`` defines the signal format. A ``SignalTable`` holds one
row per attempt: question codes, int64 trials, a float64 array per signal
and each row's source line; ``SignalTable.from_rows`` checks and builds one
from the rows ``io.load_signals_jsonl`` or ``from_records`` gathers. Thresholds
are percentiles of its columns, each rubric variable is one boolean
array, each rule ANDs its literals' arrays into a mask, and
``build_matrix`` places the categories on the (question, trial) grid
with ``np.unique``.

Percentile thresholds use linear interpolation between closest ranks
(the numpy default), fixed here so threshold values are stable across
implementations and runs. ``_percentile`` writes numpy's linear rule out
over ``np.partition``, bit for bit, since ``np.percentile`` imports
``numpy.ma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    IncompleteGridError,
    InputError,
    NoCorrectItemsError,
    NoWrongItemsError,
    ParseError,
    RangeViolationError,
    UncoveredCaseError,
)
from .model import ResultsMatrix, WeightVector

__all__ = [
    "SignalField",
    "SIGNAL_FIELDS",
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


@dataclass(frozen=True)
class SignalField:
    """One attempt signal: its ``SignalTable`` column, its JSONL field, whether
    a record may omit it (reading 0), and its value rule: ``probability`` (a
    real in [0, 1]), ``non-negative`` (finite, >= 0) or ``binary`` (0 or 1)."""

    column: str
    key: str
    optional: bool
    rule: str


# The one definition of the signal format, in column order. has_box and
# is_correct are reals in [0, 1] read at 0.5, token_ratio is completion tokens
# over the 32,768 budget, verifier_* are label probabilities A, B and C.
SIGNAL_FIELDS = (
    SignalField("has_box", "has_box", False, "probability"),
    SignalField("is_correct", "is_correct", False, "probability"),
    SignalField("token_ratio", "token_ratio", False, "non-negative"),
    SignalField("repeated_pattern", "repeated_pattern", False, "binary"),
    SignalField("prompt_bpt", "prompt_bpt", False, "non-negative"),
    SignalField("completion_bpt", "completion_bpt", False, "non-negative"),
    SignalField("verifier_correct", "compass_context_A", True, "probability"),
    SignalField("verifier_wrong", "compass_context_B", True, "probability"),
    SignalField("verifier_offtask", "compass_context_C", True, "probability"),
)
_COLUMNS = tuple(f.column for f in SIGNAL_FIELDS)
# value rule -> (the values outside its range, why), in range-checking order
_RANGES = {
    "probability": (lambda v: ~((v >= 0.0) & (v <= 1.0)), "{}={} outside [0, 1]"),
    "non-negative": (lambda v: ~(np.isfinite(v) & (v >= 0.0)), "{}={} must be finite and >= 0"),
    "binary": (lambda v: (v != 0.0) & (v != 1.0), "{} must be 0 or 1, got {}"),
}
_RANGE_ORDER = sorted(SIGNAL_FIELDS, key=lambda f: list(_RANGES).index(f.rule))
_JSON_NUMBERS = frozenset((int, float, bool))
_NUMBERS = (int, float, np.integer, np.floating)


def _range_problem(s: SignalTable) -> tuple[int, str] | None:
    """The first row of ``s`` holding a value outside its range, and why: a
    row is checked rule by rule in ``_RANGES`` order, each rule in column
    order; NaN fails every rule."""
    values = [np.asarray(getattr(s, f.column), dtype=np.float64) for f in _RANGE_ORDER]
    failing = [_RANGES[f.rule][0](v) for f, v in zip(_RANGE_ORDER, values)]
    bad = np.logical_or.reduce(failing)
    if not bad.any():
        return None
    row = int(bad.argmax())
    f, v = next((f, v) for f, v, rows in zip(_RANGE_ORDER, values, failing) if rows[row])
    value = float(v[row])
    if f.rule == "binary" and value.is_integer():
        value = int(value)
    return row, _RANGES[f.rule][1].format(f.column, value)


def _value_problem(name: str, value, integral: bool) -> str | None:
    """Why ``value`` cannot be read as the signal ``name``, or None if it can."""
    if not isinstance(value, _NUMBERS):
        return f"{name} must be a number, got {value!r}"
    try:
        number = float(value)
    except OverflowError:
        return f"{name}={value} is beyond the float64 range"
    if integral and not number.is_integer():
        return f"{name} must be an integer, got {value!r}"
    return None


def _read_column(name: str, values: tuple, integral: bool):
    """``(float64 column, None)`` when every value reads as the signal ``name``,
    else ``(the column above the first that does not, (its row, why))``; only
    a column holding other than JSON numbers is read value by value."""
    if set(map(type, values)) <= _JSON_NUMBERS:
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:   # an integer beyond the float64 range
            pass
        else:
            if not integral or (np.isfinite(column) & (column == np.trunc(column))).all():
                return column, None
    for row, value in enumerate(values):
        problem = _value_problem(name, value, integral)
        if problem:
            return np.array(values[:row], dtype=np.float64), (row, problem)
    return np.array(values, dtype=np.float64), None


@dataclass(frozen=True, eq=False, repr=False)
class SignalTable:
    """Attempt signals as columns, one row per attempt.

    ``question`` holds int64 codes into ``question_ids``, ``trial`` the
    int64 trial numbers, and each signal is a float64 column under its
    ``SIGNAL_FIELDS`` column name. ``lines`` gives each row's line in
    ``source``, the file the rows were read from (empty for tables built in
    memory, whose lines number the rows from 1). Construction checks each
    signal's range, row by row.

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
        if any(len(getattr(self, name)) != n for name in ("question", *_COLUMNS, "lines")):
            raise InputError("signal table columns differ in length")
        found = _range_problem(self)
        if found:
            row, problem = found
            where = f"{self.source}: " if self.source else ""
            raise RangeViolationError(where + problem, line=int(self.lines[row]))

    def __len__(self) -> int:
        return len(self.trial)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], lines: Sequence[int], source: str,
                  names: Sequence[str]) -> "SignalTable":
        """The table of ``(question_id, trial, *signals)`` rows read at ``lines``
        of ``source``, trials int64 already and signals in ``SIGNAL_FIELDS``
        order, each an int, float or bool (or numpy integer or float) within
        float64, integral if ``binary``. At the lowest row holding a bad value,
        raises ``ParseError`` for one that is not such a number (named by
        ``names``), else ``RangeViolationError`` as construction does."""
        qids, trials, *raw = list(zip(*rows)) or [()] * (2 + len(SIGNAL_FIELDS))
        columns, first = {}, None
        for f, name, values in zip(SIGNAL_FIELDS, names, raw):
            columns[f.column], bad = _read_column(name, values, f.rule == "binary")
            if bad and (first is None or bad[0] < first[0]):
                first = bad
        # rows above a value that does not read hold numbers: their ranges come first
        n = first[0] if first else len(qids)
        index = {q: i for i, q in enumerate(dict.fromkeys(qids[:n]))}
        table = cls(
            question_ids=tuple(index),
            question=np.fromiter(map(index.__getitem__, qids[:n]), np.int64, n),
            trial=np.array(trials[:n], dtype=np.int64),
            lines=np.array(lines[:n], dtype=np.int64),
            source=source,
            **{column: values[:n] for column, values in columns.items()},
        )
        if first:
            where = f"{source}: " if source else ""
            raise ParseError(where + first[1], line=int(lines[n]))
        return table

    @classmethod
    def from_records(cls, records: Mapping[tuple[str, int], Mapping[str, float]]) -> "SignalTable":
        """One row per (question, trial) -> {signal column: value} entry, in
        mapping order, read by ``from_rows`` at lines 1, 2, ...; an optional
        signal defaults to 0. A record naming an unknown signal, lacking one or
        keyed by a trial that is not an int64 integer is an ``InputError``."""
        defaults = {f.column: 0.0 for f in SIGNAL_FIELDS if f.optional}
        known = frozenset(_COLUMNS)
        rows = []
        for key, signals in records.items():
            row = {**defaults, **signals}
            for name in (*_COLUMNS, *row):   # a missing signal is named before an unknown one
                if (name in row) != (name in known):
                    what = "unknown" if name in row else "missing"
                    raise InputError(f"record {key}: {what} signal {name!r}")
            question, trial = key
            integer = isinstance(trial, (int, np.integer)) and type(trial) is not bool
            if not (integer and -(2**63) <= trial < 2**63):
                raise InputError(f"record {key}: trial must be an int64 integer, got {trial!r}")
            rows.append((question, trial, *map(row.__getitem__, _COLUMNS)))
        return cls.from_rows(rows, range(1, len(rows) + 1), "", _COLUMNS)

    def take(self, rows: np.ndarray) -> "SignalTable":
        """The rows at index ``rows``, in that order."""
        return replace(
            self,
            question=self.question[rows],
            trial=self.trial[rows],
            lines=self.lines[rows],
            **{name: getattr(self, name)[rows] for name in _COLUMNS},
        )


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


def _percentile(values: np.ndarray, q: int) -> float:
    """``np.percentile(values, q, method="linear")``, bit for bit: virtual index
    v = (n - 1)(q / 100) between its sorted neighbours, interpolated as numpy's
    ``_lerp`` does. At v >= n - 1 numpy takes the last value on both sides with
    weight v + 1, so it does here. The partition takes numpy's indices too, so
    equal values of opposite sign (0.0 and -0.0) land where numpy puts them."""
    n = values.size
    v = (n - 1) * (q / 100)
    i = j = -1
    if v < n - 1:
        i = math.floor(v)
        j = i + 1
    a, b = np.partition(values, sorted({0, -1, i, j}))[[i, j]].tolist()
    g = v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def compute_thresholds(table: SignalTable) -> ThresholdSet:
    """Percentile thresholds over a signal table (order-invariant).

    Raises:
        EmptyInputError: no signals.
        NoWrongItemsError / NoCorrectItemsError: a conditional percentile
            has no supporting items.
    """
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
    return ThresholdSet(
        tau_high=_percentile(completion, 40),
        tau_low_wrong=_percentile(wrong_bpt, 60),
        tau_prompt=_percentile(table.prompt_bpt, 90),
        len_p33=_percentile(table.token_ratio, 33),
        len_p66=_percentile(table.token_ratio, 66),
        corr_p33=_percentile(correct_bpt, 33),
        corr_p66=_percentile(correct_bpt, 66),
    )


@dataclass(frozen=True)
class RubricVariables:
    """Boolean rubric variables, one boolean array (a row per attempt) each."""

    invalid: np.ndarray
    correct: np.ndarray
    wrong: np.ndarray
    high_conf: np.ndarray
    low_conf: np.ndarray
    wrong_high_conf: np.ndarray
    ood: np.ndarray
    ind: np.ndarray
    economical: np.ndarray
    moderate: np.ndarray
    verbose: np.ndarray
    boxed: np.ndarray
    unboxed: np.ndarray
    a_high: np.ndarray
    conf_top: np.ndarray        # completion_bpt <= corr_p33 (most confident tercile)
    conf_mid: np.ndarray        # corr_p33 < completion_bpt <= corr_p66
    conf_low: np.ndarray        # completion_bpt > corr_p66
    top_offtask: np.ndarray     # argmax of verifier probabilities, ties prefer off-task
    top_wrong: np.ndarray
    top_correct: np.ndarray


def derive_variables(table: SignalTable, t: ThresholdSet) -> RubricVariables:
    """Map signals to rubric variables using the dataset thresholds.

    Boundary conventions are fixed: invalid when the off-task probability
    reaches 0.50; confident when ``completion_bpt`` does not exceed the
    cutoff; economical when ``token_ratio`` does not exceed the tercile.
    The verifier argmax resolves ties pessimistically: off-task, then
    wrong, then correct.
    """
    correct = table.is_correct >= 0.5
    bpt, ratio, prompt = table.completion_bpt, table.token_ratio, table.prompt_bpt
    a, b, c = table.verifier_correct, table.verifier_wrong, table.verifier_offtask
    top_offtask = (c >= a) & (c >= b)
    top_wrong = ~top_offtask & (b >= a)
    return RubricVariables(
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
                # categorize reads a literal as "~" plus a variable, or a variable
                if lit.removeprefix("~") not in RubricVariables.__dataclass_fields__:
                    raise InputError(f"schema {self.name}: unknown variable {lit!r}")

    @classmethod
    def from_config(cls, config: Mapping) -> "Schema":
        """Build a schema from a declarative mapping.

        Expected keys: ``name``, ``num_categories``, ``rules`` (mapping of
        category -> list of conjunction strings like ``"wrong & ~boxed"``),
        optional ``weights``.

        Raises:
            InputError: a missing key, or a value of the wrong type.
        """
        if not isinstance(config, Mapping):
            raise InputError("schema config must be a JSON object")
        missing = [k for k in ("name", "num_categories", "rules") if k not in config]
        if missing:
            raise InputError(f"schema config lacks {', '.join(map(repr, missing))}")
        if not isinstance(config["rules"], Mapping):
            raise InputError("schema rules must map categories to conjunctions")
        rules = []
        for cat, conjs in config["rules"].items():
            category = _config_int(cat, "rule category")
            if isinstance(conjs, str):
                conjs = [conjs]
            if not isinstance(conjs, (list, tuple)) or not all(isinstance(c, str) for c in conjs):
                raise InputError(f"schema rule {cat!r} must be a conjunction or a list of them")
            for conj in conjs:
                lits = tuple(p.strip() for p in conj.split("&") if p.strip())
                rules.append((category, lits))
        weights = config.get("weights")
        if weights and not (
            isinstance(weights, (list, tuple)) and all(type(w) in (int, float) for w in weights)
        ):
            raise InputError(f"schema weights must be a list of numbers, got {weights!r}")
        return cls(
            name=str(config["name"]),
            num_categories=_config_int(config["num_categories"], "num_categories"),
            rules=tuple(rules),
            default_weights=WeightVector(tuple(weights)) if weights else None,
        )


def _config_int(value, what: str) -> int:
    """A schema config integer: a JSON integer or a decimal string (a rule key)."""
    try:
        if type(value) in (int, str):
            return int(value)
    except ValueError:
        pass
    raise InputError(f"schema {what} must be an integer, got {value!r}")


def categorize(table: SignalTable, schema: Schema, t: ThresholdSet) -> np.ndarray:
    """Category of each attempt under a schema; invalid always maps to 0.

    Returns an int64 array, one entry per row. Each rule's literals are
    ANDed into a row mask; the masks of one category are ORed, and every
    valid row must be hit by exactly one category.

    Raises:
        UncoveredCaseError: the schema's rules leave an attempt unmapped or
            map it to more than one category; the first such row is named
            by its true variables.
    """
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
    return np.where(valid, sum(cat * mask for cat, mask in hit.items()), 0)


def build_matrix(
    table: SignalTable,
    schema: Schema,
    thresholds: ThresholdSet | None = None,
) -> ResultsMatrix:
    """Categorical results matrix from a complete (question, trial) grid.

    Thresholds default to percentiles of the very table being mapped.
    Question rows are ordered by first appearance; trials sort ascending.
    The table's rows are put in that grid order and categorized by one
    ``categorize`` call, so an uncovered case is reported at its first
    grid cell.

    Raises:
        EmptyInputError: no rows.
        IncompleteGridError: some (question, trial) pair is missing.
        InputError: a table holds two rows for one (question, trial) pair.
    """
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
