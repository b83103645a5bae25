"""Pass@k estimator family over binary per-question tallies.

All estimators average a per-question quantity derived from ``(n, c)``
pairs: ``n`` trials observed, ``c`` of them correct. Binomial ratios are
evaluated in exact integer arithmetic for ``n <= 64`` and through
log-gamma differences above that, so results stay finite and accurate at
large trial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
]

_EXACT_N_LIMIT = 64


@dataclass(frozen=True)
class BinaryTally:
    """Per-question (trials, correct) pairs for binary outcomes."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for n, c in self.pairs:
            if not 0 <= c <= n:
                raise CategoryOutOfRangeError(f"tally ({n}, {c}) violates 0 <= c <= n")

    @classmethod
    def from_counts(cls, pairs: Iterable[tuple[int, int]]) -> "BinaryTally":
        return cls(tuple((int(n), int(c)) for n, c in pairs))

    @classmethod
    def from_matrix(cls, matrix: ResultsMatrix) -> "BinaryTally":
        """Count category-1 cells per row of a binary (C = 1) matrix."""
        if matrix.num_categories != 2:
            raise CategoryOutOfRangeError(
                f"binary tally needs C = 1, got C = {matrix.max_category}"
            )
        n = matrix.trials
        correct = matrix.cells.sum(axis=1)
        return cls(tuple((n, int(c)) for c in correct))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def min_trials(self) -> int:
        return min(n for n, _ in self.pairs)


def _check_k(tally: BinaryTally, k: int) -> None:
    if k < 1:
        raise KZeroError(f"k must be >= 1, got {k}")
    if k > tally.min_trials:
        raise KExceedsNError(f"k={k} exceeds trials n={tally.min_trials} for some question")


def _log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _comb_ratio(a: int, b: int, n: int, k: int) -> float:
    """C(a, b) / C(n, k) with the convention C(x, y) = 0 for y < 0 or y > x."""
    if b < 0 or b > a:
        return 0.0
    if n <= _EXACT_N_LIMIT:
        num = math.comb(a, b)
        if num == 0:
            return 0.0
        return num / math.comb(n, k)
    return math.exp(_log_comb(a, b) - _log_comb(n, k))


def _hyper_ratio(c: int, j: int, n: int, k: int) -> float:
    """C(c, j) C(n-c, k-j) / C(n, k) with the zero convention."""
    if j < 0 or j > c or k - j < 0 or k - j > n - c:
        return 0.0
    if n <= _EXACT_N_LIMIT:
        return math.comb(c, j) * math.comb(n - c, k - j) / math.comb(n, k)
    return math.exp(_log_comb(c, j) + _log_comb(n - c, k - j) - _log_comb(n, k))


def _pass_at_k_single(n: int, c: int, k: int) -> float:
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    if n <= _EXACT_N_LIMIT:
        return 1.0 - math.comb(n - c, k) / math.comb(n, k)
    # telescoping product over the c largest denominators, stable for large n
    return 1.0 - float(np.prod(1.0 - k / np.arange(n - c + 1, n + 1)))


def pass_at_k(tally: BinaryTally, k: int) -> float:
    """Probability at least one of k sampled trials is correct.

    Per question: ``1 - C(n-c, k) / C(n, k)``, averaged over questions.
    Unbiased under sampling k of the n observed trials without replacement.

    Raises:
        KZeroError: k < 1.
        KExceedsNError: k > n for some question.
    """
    _check_k(tally, k)
    return float(np.mean([_pass_at_k_single(n, c, k) for n, c in tally.pairs]))


def pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Probability that all k sampled trials are correct: ``C(c,k)/C(n,k)``."""
    _check_k(tally, k)
    return float(np.mean([_comb_ratio(c, k, n, k) for n, c in tally.pairs]))


def naive_pass_hat_k(tally: BinaryTally, k: int) -> float:
    """Plug-in variant ``1 - (1 - c/n)^k`` averaged over questions.

    Raises:
        ZeroTrialsError: some question has n = 0.
        KZeroError: k < 1.
    """
    if k < 1:
        raise KZeroError(f"k must be >= 1, got {k}")
    if tally.min_trials == 0:
        raise ZeroTrialsError("plug-in estimator needs n >= 1 for every question")
    return float(np.mean([1.0 - (1.0 - c / n) ** k for n, c in tally.pairs]))


def _tau_threshold(tau: float | Fraction, k: int) -> int:
    """ceil(tau * k) via exact rational arithmetic (no floating-point ceil)."""
    frac = tau if isinstance(tau, Fraction) else Fraction(tau)
    if not 0 < frac <= 1:
        raise TauOutOfRangeError(f"tau must satisfy 0 < tau <= 1, got {tau}")
    return math.ceil(frac * k)


def g_pass_at_k_tau(tally: BinaryTally, k: int, tau: float | Fraction) -> float:
    """Probability at least ``ceil(tau * k)`` of k sampled trials are correct.

    Per question: ``sum_{j=ceil(tau k)}^{c} C(c,j) C(n-c,k-j) / C(n,k)``.
    Interpolates between pass@k (tau -> 0) and pass-hat@k (tau = 1).
    ``tau`` may be a ``Fraction`` for exact threshold arithmetic.

    Raises:
        TauOutOfRangeError: tau outside (0, 1].
        KZeroError / KExceedsNError: invalid k.
    """
    _check_k(tally, k)
    j0 = _tau_threshold(tau, k)
    vals = []
    for n, c in tally.pairs:
        vals.append(math.fsum(_hyper_ratio(c, j, n, k) for j in range(j0, c + 1)))
    return float(np.mean(vals))


def mg_pass_at_k(tally: BinaryTally, k: int) -> float:
    """Discrete integral of the tolerance curve over thresholds above one half.

    ``(2/k) * sum_{i=ceil(k/2)+1}^{k} g_pass_at_k_tau(k, i/k)``.

    Raises:
        KTooSmallError: k < 2 (the sum is empty).
        KExceedsNError: k > n for some question.
    """
    if k < 2:
        raise KTooSmallError(f"metric undefined for k={k}; needs k >= 2")
    _check_k(tally, k)
    lo = math.ceil(Fraction(1, 2) * k) + 1
    terms = [g_pass_at_k_tau(tally, k, Fraction(i, k)) for i in range(lo, k + 1)]
    return 2.0 / k * math.fsum(terms)


def _score_table(metric: str, n: int, k: int, tau: Fraction | None = None) -> np.ndarray:
    """Per-question score lookup over c = 0..n, used by vectorized resampling."""
    tally_fn = {
        "pass_at_k": pass_at_k,
        "pass_hat_k": pass_hat_k,
        "naive_pass_hat_k": naive_pass_hat_k,
        "g_pass_at_k_tau": g_pass_at_k_tau,
        "mg_pass_at_k": mg_pass_at_k,
    }[metric]
    out = np.empty(n + 1, dtype=float)
    for c in range(n + 1):
        t = BinaryTally(((n, c),))
        out[c] = tally_fn(t, k, tau) if tau is not None else tally_fn(t, k)
    return out

