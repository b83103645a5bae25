"""Closed-form posterior mean and uncertainty for weighted rubric metrics.

The estimator treats each question's category probabilities as a latent
vector with a Dirichlet posterior built from the tallied outcomes plus
prior pseudo-counts, and returns the exact first two posterior moments of
the weighted metric. No sampling or asymptotics are involved: the sums
below are evaluated literally.

Under a uniform prior the posterior mean is a positive affine transform
of the naive weighted average, so both produce identical rankings;
``affine_bridge`` and ``avg_sigma_from_bayes`` expose that correspondence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroTrialsError
from .model import (
    UNIFORM,
    PosteriorSummary,
    PriorData,
    ResultsMatrix,
    WeightVector,
    tally,
)

__all__ = [
    "evaluate_performance",
    "naive_weighted_average",
    "affine_bridge",
    "avg_sigma_from_bayes",
    "weighted_total",
]

# Above this many cells the per-question variance terms are reduced with
# compensated summation to keep the 1e-12 oracle tolerance honest. Means
# need none: they come from exact integer totals.
_FSUM_CELL_THRESHOLD = 10**6


def _reduce(per_question: np.ndarray, n_cells: int) -> float:
    if n_cells > _FSUM_CELL_THRESHOLD:
        return math.fsum(per_question.tolist())
    return float(per_question.sum())


def weighted_total(totals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j totals[..., j] * weights[j]``, added in category order.

    One model's category totals and a stack of replicates' give the same
    bits for the same totals, which a BLAS dot product does not promise.
    """
    acc = totals[..., 0] * weights[0]
    for j in range(1, weights.shape[0]):
        acc = acc + totals[..., j] * weights[j]
    return acc


def evaluate_performance(
    matrix: ResultsMatrix,
    prior: PriorData = UNIFORM,
    weights: WeightVector | None = None,
) -> PosteriorSummary:
    """Posterior mean ``mu`` and uncertainty ``sigma`` of the weighted metric.

    With per-question posterior counts ``nu[alpha, j]`` summing to
    ``T = 1 + C + D + N``:

        mu    = w_0 + (1 / (M T)) sum_alpha sum_j nu[alpha,j] (w_j - w_0)
        sigma = sqrt( (1 / (M^2 (T+1))) sum_alpha {
                    sum_j (nu[alpha,j]/T) (w_j - w_0)^2
                  - (sum_j (nu[alpha,j]/T) (w_j - w_0))^2 } )

    ``N = 0`` is legal: the result is then the pure-prior posterior.

    Raises:
        WeightLengthMismatchError: weights do not match C+1.
        PriorShapeMismatchError: prior incompatible with ``matrix``.
    """
    if weights is None:
        weights = WeightVector.identity(matrix.num_categories)
    weights.check_compatible(matrix)

    t = tally(matrix, prior)
    m = matrix.questions
    big_t = float(t.total)
    w = np.asarray(weights.weights, dtype=float)
    dw = w - w[0]

    nu = t.nu.astype(float)
    n_cells = matrix.questions * max(matrix.trials, 1)

    # integer totals over questions first, so mu is the same bits in any
    # question order
    mu = w[0] + float(weighted_total(t.nu.sum(axis=0), dw)) / (m * big_t)

    first = nu @ dw                     # per question: sum_j nu_j (w_j - w_0)

    second = nu @ (dw * dw)             # per question: sum_j nu_j (w_j - w_0)^2
    per_q_var = second / big_t - (first / big_t) ** 2
    var = _reduce(per_q_var, n_cells) / (m * m * (big_t + 1.0))
    sigma = math.sqrt(max(var, 0.0))

    return PosteriorSummary(
        mu=float(mu),
        sigma=sigma,
        questions=m,
        trials=matrix.trials,
        max_category=matrix.max_category,
        prior_depth=prior.depth,
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
    return float(weighted_total(totals, w)) / (matrix.questions * matrix.trials)


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
