"""Closed-form posterior mean and uncertainty for weighted rubric metrics.

The estimator treats each question's category probabilities as a latent
vector with a Dirichlet posterior built from the tallied outcomes plus
prior pseudo-counts, and returns the exact first two posterior moments of
the weighted metric. No sampling or asymptotics are involved. One closed
form, ``posterior_moments`` over the exact integer sums of
``moment_sums``, serves whole matrices, bootstrap replicates and the
separation experiment alike.

Under a uniform prior the posterior mean is a positive affine transform
of the naive weighted average, so both produce identical rankings;
``affine_bridge`` and ``avg_sigma_from_bayes`` expose that correspondence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroTrialsError
from .model import UNIFORM, PosteriorSummary, PriorData, ResultsMatrix, WeightVector, tally

__all__ = [
    "evaluate_performance", "naive_weighted_average", "affine_bridge",
    "avg_sigma_from_bayes", "moment_sums", "posterior_moments", "weighted_total",
]


def weighted_total(totals: np.ndarray, weights: np.ndarray, first=0.0) -> np.ndarray:
    """``first + sum_j totals[..., j] * weights[j]``, added in category order.

    One model's category totals and a stack of replicates' give the same
    bits for the same totals, which a BLAS dot product does not promise.
    """
    acc = first
    for j in range(weights.shape[0]):
        acc = acc + totals[..., j] * weights[j]
    return acc


def moment_sums(nu: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 sums ``S[..., i] = sum_q nu[q, i]`` and
    ``Q[..., i, j] = sum_q nu[q, i] (T [i = j] - nu[q, j])``.

    ``nu`` (..., M, C) holds the posterior counts of categories 1..C, the
    question axis at -2; each question's counts over 0..C sum to T =
    ``total``. Category 0 drops out since dw_0 = w_0 - w_0 = 0. Integer
    sums are exact in any question order. No intermediate exceeds M T^2,
    so int64 is exact while M T^2 < 2^63: one question at T = 3 * 10^9
    (24 GB of int64 cells) or 10^5 questions at T = 9 * 10^6.
    """
    s = nu.sum(axis=-2)
    q = -(nu.swapaxes(-1, -2) @ nu)    # integer matmul: exact, no BLAS
    diag = np.arange(nu.shape[-1])
    q[..., diag, diag] += total * s
    return s, q


def posterior_moments(
    s: np.ndarray, q: np.ndarray | None, weights: np.ndarray, questions: int, total: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Posterior ``mu = w_0 + sum_i dw_i S_i / (M T)`` and ``sigma`` with
    ``sigma^2 = sum_ij dw_i dw_j Q_ij / (T^2 M^2 (T + 1))``, dw_i = w_i - w_0.

    Both sums run in fixed category order, skipping categories whose dw
    is zero, so equal S and Q give equal bits for one matrix or a stack
    of replicates. With ``q`` None, sigma is None.
    """
    dw = weights[1:] - weights[0]
    mu = weights[0] + weighted_total(s, dw) / (questions * float(total))
    if q is None:
        return mu, None
    acc = np.zeros(q.shape[:-2])
    for i in np.flatnonzero(dw):
        for j in np.flatnonzero(dw):
            acc = acc + dw[i] * dw[j] * q[..., i, j]
    m, t = int(questions), int(total)   # exact Python ints, one rounding
    var = acc / float(m * m * t * t * (t + 1))
    return mu, np.sqrt(np.maximum(var, 0.0))


def evaluate_performance(
    matrix: ResultsMatrix,
    prior: PriorData = UNIFORM,
    weights: WeightVector | None = None,
) -> PosteriorSummary:
    """Posterior mean ``mu`` and uncertainty ``sigma`` of the weighted metric.

    With per-question posterior counts ``nu[alpha, j]`` summing to
    ``T = 1 + C + D + N`` and ``dw_j = w_j - w_0``:

        mu    = w_0 + (1 / (M T)) sum_j dw_j sum_alpha nu[alpha,j]
        sigma = sqrt( (1 / (T^2 M^2 (T+1))) sum_ij dw_i dw_j
                      sum_alpha nu[alpha,i] (T [i = j] - nu[alpha,j]) )

    The sums over questions are exact integers (``moment_sums``), so
    neither value depends on question order. ``N = 0`` is legal: the
    result is then the pure-prior posterior.

    Raises:
        WeightLengthMismatchError: weights do not match C+1.
        PriorShapeMismatchError: prior incompatible with ``matrix``.
    """
    if weights is None:
        weights = WeightVector.identity(matrix.num_categories)
    weights.check_compatible(matrix)

    t = tally(matrix, prior)
    w = np.asarray(weights.weights, dtype=float)
    mu, sigma = posterior_moments(*moment_sums(t.nu[:, 1:], t.total), w, matrix.questions, t.total)
    return PosteriorSummary(
        float(mu), float(sigma), matrix.questions, matrix.trials, matrix.max_category, prior.depth
    )


def naive_weighted_average(matrix: ResultsMatrix, weights: WeightVector | None = None) -> float:
    """The plain weighted average ``a = (1/(M N)) sum_alpha sum_j w_j n[alpha,j]``.

    For binary outcomes with weights (0, 1) this is average accuracy.

    Raises:
        ZeroTrialsError: N = 0.
    """
    if matrix.trials == 0:
        raise ZeroTrialsError("naive weighted average undefined for N = 0")
    if weights is None:
        weights = WeightVector.identity(matrix.num_categories)
    weights.check_compatible(matrix)
    totals = matrix.category_counts().sum(axis=0)  # int64, order-free
    w = np.asarray(weights.weights, dtype=float)
    total = weighted_total(totals[1:], w[1:], totals[0] * w[0])
    return float(total) / (matrix.questions * matrix.trials)


def affine_bridge(
    trials: int, num_categories: int, weights: WeightVector
) -> tuple[float, float]:
    """Constants ``(A, scale)`` linking the posterior mean to the naive average.

    Under a uniform prior, ``mu = A + scale * a`` with

        A     = (1 / (1 + C + N)) sum_j w_j
        scale = N / (1 + C + N)

    The scale is positive for N >= 1, which is why both scores always
    produce the same ranking.
    """
    c = num_categories - 1
    denom = 1 + c + trials
    a_const = math.fsum(weights.weights) / denom
    return a_const, trials / denom


def avg_sigma_from_bayes(sigma_bayes: float, trials: int, num_categories: int) -> float:
    """Uncertainty of the naive average implied by the posterior sigma.

    ``sigma_avg = ((1 + C + N) / N) * sigma_bayes`` under a uniform prior.

    Raises:
        ZeroTrialsError: N = 0.
    """
    if trials == 0:
        raise ZeroTrialsError("average-scale sigma undefined for N = 0")
    c = num_categories - 1
    return (1 + c + trials) / trials * sigma_bayes
