"""Pass@k estimator family over binary per-question tallies.

Every estimator averages a per-question value of ``(n, c)``: ``n`` trials
observed, ``c`` of them correct. Each has one kernel for a single pair;
the estimators evaluate it once per distinct pair, and ``score_table``
tabulates it over ``c = 0..n`` for the resampling engine, so both share
every per-question value. Binomial ratios use exact integer arithmetic
for ``n <= 64`` and log-gamma differences (or a telescoping product)
above that, so results stay finite and accurate at large trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable

import numpy as np

from .errors import (
    CategoryOutOfRangeError,
    KExceedsNError,
    KTooSmallError,
    KZeroError,
    TauOutOfRangeError,
    ZeroTrialsError,
)
from .model import ResultsMatrix

__all__ = [
    "BinaryTally",
    "pass_at_k",
    "pass_hat_k",
    "naive_pass_hat_k",
    "g_pass_at_k_tau",
    "mg_pass_at_k",
    "score_table",
    "tau_fraction",
]

_EXACT_N_LIMIT = 64


@dataclass(frozen=True, eq=False)
class BinaryTally:
    """Per-question trial and correct counts (read-only int64 arrays)."""

    trials: np.ndarray
    correct: np.ndarray

    def __post_init__(self):
        n, c = (np.array(a, dtype=np.int64).reshape(-1) for a in (self.trials, self.correct))
        if n.shape != c.shape or ((c < 0) | (c > n)).any():
            raise CategoryOutOfRangeError("tally needs one 0 <= c <= n per question")
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

    @property
    def min_trials(self) -> int:
        return int(self.trials.min())


# -- per-(n, c) kernels --------------------------------------------------------

def _log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _hyper_ratio(c: int, j: int, n: int, k: int) -> float:
    """C(c, j) C(n-c, k-j) / C(n, k) with the zero convention."""
    if j < 0 or j > c or k - j < 0 or k - j > n - c:
        return 0.0
    if n <= _EXACT_N_LIMIT:
        return math.comb(c, j) * math.comb(n - c, k - j) / math.comb(n, k)
    return math.exp(_log_comb(c, j) + _log_comb(n - c, k - j) - _log_comb(n, k))


def _pass_at_k_one(n: int, c: int, k: int) -> float:
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    if n <= _EXACT_N_LIMIT:
        return 1.0 - math.comb(n - c, k) / math.comb(n, k)
    # telescoping product over the c largest denominators, stable for large n
    return 1.0 - float(np.prod(1.0 - k / np.arange(n - c + 1, n + 1)))


def _g_pass_at_k_one(n: int, c: int, k: int, j0: int) -> float:
    return math.fsum(_hyper_ratio(c, j, n, k) for j in range(j0, c + 1))


def _mg_pass_at_k_one(n: int, c: int, k: int) -> float:
    lo = (k + 1) // 2 + 1  # ceil(k / 2) + 1
    return 2.0 / k * math.fsum(_g_pass_at_k_one(n, c, k, i) for i in range(lo, k + 1))


_KERNELS = {
    "pass_at_k": _pass_at_k_one,
    "pass_hat_k": lambda n, c, k: _hyper_ratio(c, k, n, k),
    "naive_pass_hat_k": lambda n, c, k: 1.0 - (1.0 - c / n) ** k,
    "mg_pass_at_k": _mg_pass_at_k_one,
}


def tau_fraction(tau: float | Fraction) -> Fraction:
    """``tau`` as an exact rational; a float is read as its shortest
    decimal form, so ``0.1`` is ``1/10``, not its binary value."""
    return tau if isinstance(tau, Fraction) else Fraction(str(float(tau)))


def _kernel(kind: str, k: int, min_trials: int, tau: float | Fraction | None = None):
    """The ``(n, c) -> value`` kernel of ``kind``, after checking k and tau."""
    if kind == "mg_pass_at_k" and k < 2:
        raise KTooSmallError(f"metric undefined for k={k}; needs k >= 2")
    if k < 1:
        raise KZeroError(f"k must be >= 1, got {k}")
    if kind == "naive_pass_hat_k":
        if min_trials == 0:
            raise ZeroTrialsError("plug-in estimator needs n >= 1 for every question")
    elif k > min_trials:
        raise KExceedsNError(f"k={k} exceeds trials n={min_trials} for some question")
    if kind != "g_pass_at_k_tau":
        return partial(_KERNELS[kind], k=k)
    frac = tau_fraction(tau)
    if not 0 < frac <= 1:
        raise TauOutOfRangeError(f"tau must satisfy 0 < tau <= 1, got {tau}")
    return partial(_g_pass_at_k_one, k=k, j0=math.ceil(frac * k))


def _mean_over_questions(kind: str, tally: BinaryTally, k: int, tau=None) -> float:
    kernel = _kernel(kind, k, tally.min_trials, tau)
    pairs, where = np.unique(np.stack([tally.trials, tally.correct]), axis=1, return_inverse=True)
    values = np.array([kernel(n, c) for n, c in pairs.T.tolist()])
    return float(values[where.reshape(-1)].mean())


@lru_cache(maxsize=None)
def score_table(kind: str, n: int, k: int, tau: float | Fraction | None = None) -> np.ndarray:
    """Per-question values of estimator ``kind`` (its function name, e.g.
    ``"pass_at_k"``) at ``n`` trials for c = 0..n, cached and read-only;
    indexing it with correct counts and averaging gives exactly the
    estimator's value."""
    kernel = _kernel(kind, k, n, tau)
    table = np.array([kernel(n, c) for c in range(n + 1)])
    table.setflags(write=False)
    return table


# -- estimators ------------------------------------------------------------------

def pass_at_k(tally: BinaryTally, k: int) -> float:
    """Probability at least one of k sampled trials is correct.

    Per question: ``1 - C(n-c, k) / C(n, k)``, averaged over questions.
    Unbiased under sampling k of the n observed trials without replacement.

    Raises:
        KZeroError: k < 1.
        KExceedsNError: k > n for some question.
    """
    return _mean_over_questions("pass_at_k", tally, k)


def pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Probability that all k sampled trials are correct: ``C(c,k)/C(n,k)``."""
    return _mean_over_questions("pass_hat_k", tally, k)


def naive_pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Plug-in variant ``1 - (1 - c/n)^k`` averaged over questions.

    Raises:
        ZeroTrialsError: some question has n = 0.
        KZeroError: k < 1.
    """
    return _mean_over_questions("naive_pass_hat_k", tally, k)


def g_pass_at_k_tau(tally: BinaryTally, k: int, tau: float | Fraction) -> float:
    """Probability at least ``ceil(tau * k)`` of k sampled trials are correct.

    Per question: ``sum_{j=ceil(tau k)}^{c} C(c,j) C(n-c,k-j) / C(n,k)``.
    Interpolates between pass@k (tau -> 0) and pass-hat@k (tau = 1). The
    threshold is exact rational arithmetic on ``tau_fraction(tau)``.

    Raises:
        TauOutOfRangeError: tau outside (0, 1].
        KZeroError / KExceedsNError: invalid k.
    """
    return _mean_over_questions("g_pass_at_k_tau", tally, k, tau)


def mg_pass_at_k(tally: BinaryTally, k: int) -> float:
    """Discrete integral of the tolerance curve over thresholds above one half.

    Per question ``(2/k) * sum_{i=ceil(k/2)+1}^{k} g_i``, with ``g_i`` the
    question's ``g_pass_at_k_tau`` value at ``tau = i/k``; averaged over
    questions.

    Raises:
        KTooSmallError: k < 2 (the sum is empty).
        KExceedsNError: k > n for some question.
    """
    return _mean_over_questions("mg_pass_at_k", tally, k)
