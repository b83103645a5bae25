"""Pass@k estimator family over binary per-question tallies.

Every estimator averages a per-question value of ``(n, c)``: ``n`` trials
observed, ``c`` of them correct, the value exactly ``num[c] / den`` for the
integer table of ``numerators``. ``exact_mean`` sums num[c] over the M
questions in integers and divides once by M * den. The whole-matrix
estimators here (``eval``, ``rank``) and the resampling engine
(``Method.scores_from_counts``) both take that sum, so their scores agree
bit for bit in any question order. Tables are built per call, never kept;
their cost grows with the size of den, C(n, k) or n^k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

import numpy as np

from .errors import (CategoryOutOfRangeError, EmptyInputError, KExceedsNError, KTooSmallError,
                     KZeroError, TauOutOfRangeError, ZeroTrialsError)
from .model import ResultsMatrix

__all__ = ["BinaryTally", "pass_at_k", "pass_hat_k", "naive_pass_hat_k", "g_pass_at_k_tau",
           "mg_pass_at_k", "exact_mean", "numerators", "tau_fraction"]


@dataclass(frozen=True, eq=False)
class BinaryTally:
    """Per-question trial and correct counts (read-only int64 arrays)."""

    trials: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        n, c = (np.array(a, dtype=np.int64).reshape(-1) for a in (self.trials, self.correct))
        if n.shape != c.shape or ((c < 0) | (c > n)).any():
            raise CategoryOutOfRangeError("tally needs one 0 <= c <= n per question")
        if not n.size:
            raise EmptyInputError("tally needs at least one question")
        for name, a in (("trials", n), ("correct", c)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_counts(cls, pairs: Iterable[tuple[int, int]]) -> "BinaryTally":
        """Tally from ``(n, c)`` pairs, one per question."""
        a = np.array([(int(n), int(c)) for n, c in pairs], dtype=np.int64).reshape(-1, 2)
        return cls(a[:, 0], a[:, 1])

    @classmethod
    def from_matrix(cls, matrix: ResultsMatrix) -> "BinaryTally":
        """Count category-1 cells per row of a binary (C = 1) matrix."""
        if matrix.num_categories != 2:
            raise CategoryOutOfRangeError(
                f"binary tally needs C = 1, got C = {matrix.max_category}"
            )
        return cls(np.full(matrix.questions, matrix.trials), matrix.cells.sum(axis=1))

    def __len__(self) -> int:
        return self.trials.size


def tau_fraction(tau: float | Fraction) -> Fraction:
    """``tau`` as an exact rational; a float is read as its shortest
    decimal form, so ``0.1`` is ``1/10``, not its binary value."""
    return tau if isinstance(tau, Fraction) else Fraction(str(float(tau)))


def _comb_column(n: int, k: int) -> list[int]:
    """C(m, k) for m = 0..n, by C(m, k) = C(m - 1, k) * m / (m - k)."""
    column = [0] * k + [1]
    for m in range(k + 1, n + 1):
        column.append(column[-1] * m // (m - k))
    return column


def _at_least(n: int, k: int, j0: int) -> list[int]:
    """Per c = 0..n: k-subsets of n trials, c of them correct, with at least
    j0 >= 1 correct. Making one more trial correct adds the subsets holding it
    and exactly j0 - 1 of the c others, C(c, j0 - 1) C(n - 1 - c, k - j0)."""
    steps = map(operator.mul, _comb_column(n - 1, j0 - 1), reversed(_comb_column(n - 1, k - j0)))
    return [0, *accumulate(steps)]


def numerators(kind: str, n: int, k: int,
               tau: float | Fraction | None = None) -> tuple[list[int], int]:
    """Integer table ``num[c]`` for c = 0..n and its one denominator ``den``:
    estimator ``kind`` (its function name, e.g. ``"pass_at_k"``) at ``n``
    trials, ``c`` of them correct, is exactly ``num[c] / den``. Checks k and
    tau first. Built on each call and not kept."""
    if kind == "mg_pass_at_k" and k < 2:
        raise KTooSmallError(f"metric undefined for k={k}; needs k >= 2")
    if k < 1:
        raise KZeroError(f"k must be >= 1, got {k}")
    if kind == "naive_pass_hat_k":
        if n == 0:
            raise ZeroTrialsError("plug-in estimator needs n >= 1 for every question")
        return [n**k - (n - c) ** k for c in range(n + 1)], n**k
    if k > n:
        raise KExceedsNError(f"k={k} exceeds trials n={n} for some question")
    den = math.comb(n, k)
    if kind == "g_pass_at_k_tau":
        frac = tau_fraction(tau)
        if not 0 < frac <= 1:
            raise TauOutOfRangeError(f"tau must satisfy 0 < tau <= 1, got {tau}")
        return _at_least(n, k, math.ceil(frac * k)), den
    if kind != "mg_pass_at_k":
        return _at_least(n, k, 1 if kind == "pass_at_k" else k), den
    # mgpass, (2/k) * sum of g_i over i = lo..k, counts a subset with j >= lo
    # correct j - lo + 1 times. Since j C(c, j) = c C(c - 1, j - 1), the j-weighted
    # count is c times the at-least-(lo - 1) count of (k - 1)-subsets of n - 1 trials
    lo = (k + 1) // 2 + 1  # ceil(k / 2) + 1
    at_lo, shifted = _at_least(n, k, lo), [0, *_at_least(n - 1, k - 1, lo - 1)]
    return [2 * (c * shifted[c] - (lo - 1) * at_lo[c]) for c in range(n + 1)], k * den


def exact_mean(nums: list[int], den: int, index: np.ndarray) -> np.ndarray:
    """``sum_q nums[index[..., q]] / (M * den)`` over the last axis (M
    entries) of ``index``, for integer ``nums`` in [0, den]. The sum is exact,
    so no order of the M entries changes a bit. Below 2^53, M * den and the
    int64 sum are exact floats and the one division rounds the exact mean
    once; below 2^63 the int64 sum is rounded to a float before dividing;
    past that the sums are Python ints and the mean is rounded once."""
    total = index.shape[-1] * den
    if total < 2**63:
        return np.array(nums, dtype=np.int64)[index].sum(axis=-1) / total
    sums = np.array(nums, dtype=object)[index].sum(axis=-1)
    return np.array(sums / total, dtype=np.float64)


def _tally_mean(kind: str, tally: BinaryTally, k: int, tau=None) -> float:
    # each n's table is scaled to the lcm of the denominators and placed at
    # its own offset, so mixed trial counts take the same one sum
    ns, where = np.unique(tally.trials, return_inverse=True)
    tables = [numerators(kind, n, k, tau) for n in ns.tolist()]
    den = math.lcm(*(d for _, d in tables))
    nums, starts = [], []
    for table, d in tables:
        starts.append(len(nums))
        nums += [x * (den // d) for x in table]
    return float(exact_mean(nums, den, np.array(starts)[where.reshape(-1)] + tally.correct))


# -- estimators ------------------------------------------------------------------

def pass_at_k(tally: BinaryTally, k: int) -> float:
    """Probability at least one of k sampled trials is correct.

    Per question: ``1 - C(n-c, k) / C(n, k)``, averaged over questions.
    Unbiased under sampling k of the n observed trials without replacement.

    Raises:
        KZeroError: k < 1.
        KExceedsNError: k > n for some question.
    """
    return _tally_mean("pass_at_k", tally, k)


def pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Probability that all k sampled trials are correct: ``C(c,k)/C(n,k)``."""
    return _tally_mean("pass_hat_k", tally, k)


def naive_pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Plug-in variant ``1 - (1 - c/n)^k`` averaged over questions.

    Raises:
        ZeroTrialsError: some question has n = 0.
        KZeroError: k < 1.
    """
    return _tally_mean("naive_pass_hat_k", tally, k)


def g_pass_at_k_tau(tally: BinaryTally, k: int, tau: float | Fraction) -> float:
    """Probability at least ``ceil(tau * k)`` of k sampled trials are correct.

    Per question: ``sum_{j=ceil(tau k)}^{c} C(c,j) C(n-c,k-j) / C(n,k)``.
    Interpolates between pass@k (tau -> 0) and pass-hat@k (tau = 1). The
    threshold is exact rational arithmetic on ``tau_fraction(tau)``.

    Raises:
        TauOutOfRangeError: tau outside (0, 1].
        KZeroError / KExceedsNError: invalid k.
    """
    return _tally_mean("g_pass_at_k_tau", tally, k, tau)


def mg_pass_at_k(tally: BinaryTally, k: int) -> float:
    """Discrete integral of the tolerance curve over thresholds above one half.

    Per question ``(2/k) * sum_{i=ceil(k/2)+1}^{k} g_i``, with ``g_i`` the
    question's ``g_pass_at_k_tau`` value at ``tau = i/k``; averaged over
    questions.

    Raises:
        KTooSmallError: k < 2 (the sum is empty).
        KExceedsNError: k > n for some question.
    """
    return _tally_mean("mg_pass_at_k", tally, k)
