"""Core domain types: results matrices, priors, weights, and tally tables.

All types are immutable after construction and safe to share across
threads; the operations here are pure functions. Category values are raw
integers ``0..C``; any label-to-index mapping belongs to the I/O layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CategoryOutOfRangeError,
    EmptyMatrixError,
    InputError,
    NonIntegerCellError,
    NotAGridError,
    PriorShapeMismatchError,
    RaggedRowsError,
    WeightLengthMismatchError,
)

__all__ = [
    "ResultsMatrix",
    "PriorData",
    "WeightVector",
    "TallyTable",
    "PosteriorSummary",
    "validate_matrix",
    "check_same_grid",
    "tally",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _validate_grid(raw, num_categories: int, *, what: str) -> np.ndarray:
    """Shared cell validation for results and prior grids.

    Always returns a new int64 array, so freezing it never freezes the
    caller's data.
    """
    if num_categories < 1:
        raise CategoryOutOfRangeError(f"need C >= 1, got C={num_categories}")
    try:
        cells = np.array(raw)
    except ValueError:
        _raise_ragged(raw, what)
        raise NotAGridError(f"{what} is not a grid of integer cells") from None
    if cells.ndim and cells.shape[0] == 0:
        raise EmptyMatrixError(f"{what} has no rows")
    if cells.ndim != 2:
        raise NotAGridError(f"{what} must be rows of cells, got shape {cells.shape}")
    if cells.dtype.kind == "f":
        bad = ~(np.isfinite(cells) & (cells == np.trunc(cells)))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NonIntegerCellError(
                f"{what} row {i} column {j} holds {float(cells[i, j])!r}, not an integer"
            )
    elif cells.dtype.kind not in "biu":
        raise NonIntegerCellError(f"{what} cells must be integers, got {cells.dtype} values")
    if cells.size:
        lo, hi = cells.min(), cells.max()
        if lo < 0 or hi > num_categories:
            bad = int(lo if lo < 0 else hi)
            raise CategoryOutOfRangeError(
                f"{what} contains value {bad} outside [0, {num_categories}]"
            )
    return cells.astype(np.int64, copy=False)


def _raise_ragged(raw, what: str) -> None:
    """Raise RaggedRowsError if the rows of ``raw`` differ in length."""
    try:
        lengths = [len(r) for r in raw]
    except TypeError:
        return
    for i, n in enumerate(lengths):
        if n != lengths[0]:
            raise RaggedRowsError(f"{what} row {i} has {n} entries, expected {lengths[0]}")


@dataclass(frozen=True)
class ResultsMatrix:
    """M x N grid of category outcomes, one row per question.

    Each cell is an integer in ``[0, C]`` where ``C + 1 = num_categories``.
    The binary case is ``C = 1`` with categories {0, 1}. ``C`` is declared
    by the caller rather than inferred, so an all-zeros binary matrix stays
    binary.
    """

    cells: np.ndarray
    num_categories: int
    question_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        _freeze(self.cells)
        if self.question_ids is not None and len(self.question_ids) != self.questions:
            raise RaggedRowsError(
                f"{len(self.question_ids)} question ids for {self.questions} rows"
            )

    @property
    def questions(self) -> int:
        return self.cells.shape[0]

    @property
    def trials(self) -> int:
        return self.cells.shape[1]

    @property
    def max_category(self) -> int:
        """C, the largest admissible category value."""
        return self.num_categories - 1

    def prefix(self, n: int) -> "ResultsMatrix":
        """The same matrix restricted to the first ``n`` trials."""
        if not 0 <= n <= self.trials:
            raise ValueError(f"prefix length {n} outside [0, {self.trials}]")
        return ResultsMatrix(self.cells[:, :n], self.num_categories, self.question_ids)

    def category_counts(self) -> np.ndarray:
        """Per-question tallies ``n[alpha, k]`` of each category, shape (M, C+1)."""
        m, c1 = self.questions, self.num_categories
        counts = np.empty((m, c1), dtype=np.int64)
        for k in range(c1):
            counts[:, k] = (self.cells == k).sum(axis=1)
        return counts


def validate_matrix(
    raw: Sequence[Sequence[int]] | np.ndarray,
    num_categories: int,
    question_ids: Sequence[str] | None = None,
) -> ResultsMatrix:
    """Validate a rectangular integer grid into a ResultsMatrix.

    ``num_categories`` is C+1; cells must be integers in ``[0, C]``.
    Integral floats such as ``1.0`` and booleans are accepted. The cells
    are always copied into a new read-only int64 array.

    Raises:
        EmptyMatrixError: no rows.
        RaggedRowsError: rows of unequal length.
        NotAGridError: not two-dimensional (a flat list, a scalar or a
            3-D array).
        NonIntegerCellError: a fraction, NaN, inf, text or ``None`` cell;
            nothing is truncated.
        CategoryOutOfRangeError: cell outside ``[0, C]``.
    """
    c = num_categories - 1
    cells = _validate_grid(raw, c, what="results matrix")
    ids = tuple(map(str, question_ids)) if question_ids is not None else None
    return ResultsMatrix(cells, num_categories, ids)



def check_same_grid(matrices: Sequence[ResultsMatrix]) -> None:
    """Check that matrices compared row by row share one grid: the same
    questions, trials and category count, and, among those that carry
    question ids, the same ids in the same order.

    Raises:
        InputError: the matrices differ in any of these.
    """
    shapes = {(mx.questions, mx.trials, mx.num_categories) for mx in matrices}
    if len(shapes) > 1:
        raise InputError(f"matrices disagree on shape/categories: {sorted(shapes)}")
    if len({mx.question_ids for mx in matrices if mx.question_ids is not None}) > 1:
        raise InputError("matrices disagree on question ids or their row order")

@dataclass(frozen=True)
class PriorData:
    """Prior evidence: either uniform or an earlier M x D outcome matrix.

    A uniform prior is exactly a prior matrix with depth D = 0. Prior rows
    pair with results rows by position, so when both carry question ids
    they must name the same questions in the same order.
    """

    matrix: np.ndarray | None = None
    question_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.matrix is not None:
            _freeze(self.matrix)

    @classmethod
    def uniform(cls) -> "PriorData":
        return cls(None)

    @classmethod
    def from_matrix(cls, raw, num_categories: int, question_ids=None) -> "PriorData":
        cells = _validate_grid(raw, num_categories - 1, what="prior matrix")
        return cls(cells, tuple(map(str, question_ids)) if question_ids is not None else None)

    @property
    def depth(self) -> int:
        """D, the number of prior trials per question (0 for uniform)."""
        return 0 if self.matrix is None else self.matrix.shape[1]

    def check_compatible(self, matrix: ResultsMatrix) -> None:
        if self.matrix is None:
            return
        if self.matrix.shape[0] != matrix.questions:
            raise PriorShapeMismatchError(
                f"prior has {self.matrix.shape[0]} rows, results have {matrix.questions}"
            )
        ids = (self.question_ids, matrix.question_ids)
        if None not in ids and ids[0] != ids[1]:
            raise PriorShapeMismatchError("prior and results differ in question ids or order")
        if self.matrix.size and int(self.matrix.max()) > matrix.max_category:
            raise PriorShapeMismatchError(
                f"prior contains category {int(self.matrix.max())} > C={matrix.max_category}"
            )


UNIFORM = PriorData.uniform()


@dataclass(frozen=True)
class WeightVector:
    """The C+1 rubric weights defining a performance metric.

    Any finite reals are allowed, including negative entries for
    penalizing rubrics.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        for w in ws:
            if not math.isfinite(w):
                raise WeightLengthMismatchError(f"non-finite weight {w!r}")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    @classmethod
    def identity(cls, num_categories: int) -> "WeightVector":
        """w_k = k, the average-category-label metric."""
        return cls(tuple(float(k) for k in range(num_categories)))

    @classmethod
    def binary(cls) -> "WeightVector":
        return cls((0.0, 1.0))

    def check_compatible(self, matrix: ResultsMatrix) -> None:
        if len(self.weights) != matrix.num_categories:
            raise WeightLengthMismatchError(
                f"{len(self.weights)} weights for {matrix.num_categories} categories"
            )


@dataclass(frozen=True)
class TallyTable:
    """Per-question category counts and posterior pseudo-counts.

    ``nu = counts + prior_counts`` row-sums to the common total
    ``T = 1 + C + D + N`` for every question.
    """

    counts: np.ndarray        # n[alpha, k], data tallies
    prior_counts: np.ndarray  # n0[alpha, k] = 1 + prior-matrix tallies
    nu: np.ndarray            # posterior Dirichlet parameters
    total: int                # T = 1 + C + D + N

    def __post_init__(self):
        for a in (self.counts, self.prior_counts, self.nu):
            _freeze(a)


def tally(matrix: ResultsMatrix, prior: PriorData = UNIFORM) -> TallyTable:
    """Tally outcomes in the results matrix and prior into posterior counts.

    ``n[alpha,k]`` counts trials of category k; ``n0[alpha,k]`` is one plus
    the prior-matrix count (uniform prior contributes the flat one);
    ``nu = n + n0`` and ``T = 1 + C + D + N``.

    Raises:
        PriorShapeMismatchError: prior matrix incompatible with ``matrix``.
    """
    prior.check_compatible(matrix)
    m, n, c = matrix.questions, matrix.trials, matrix.max_category
    d = prior.depth
    counts = matrix.category_counts()
    n0 = np.ones((m, c + 1), dtype=np.int64)
    if prior.matrix is not None and d > 0:
        for k in range(c + 1):
            n0[:, k] += (prior.matrix == k).sum(axis=1)
    nu = counts + n0
    total = 1 + c + d + n
    return TallyTable(counts, n0, nu, total)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean and uncertainty of a weighted metric, with bookkeeping."""

    mu: float
    sigma: float
    questions: int      # M
    trials: int         # N
    max_category: int   # C
    prior_depth: int    # D

    def to_report(self) -> dict:
        return {
            "mu": self.mu,
            "sigma": self.sigma,
            "M": self.questions,
            "N": self.trials,
            "C": self.max_category,
            "D": self.prior_depth,
        }
