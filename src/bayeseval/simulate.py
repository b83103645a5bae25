"""Biased-coin model mimics with known ground truth.

A coin model answers each of M questions correctly with a fixed
per-question probability, so its true metric value is known exactly and
rankings produced from finite trials can be checked against it. Cohorts
draw those probabilities from Beta(i, 18-i) for i = 4..13, with the i = 7
vector duplicated to plant an exact tie; a reference cohort with pinned
true means ships for regression-style experiments.

Trials follow ``_rng.categories``, as every replicate source does: a cell's
32-bit Philox word w is a success iff w < ceil(p 2^32), p rounded up by
less than 2^-32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import (
    CHUNK_BYTES as _CHUNK_BYTES,
    DOMAIN_COHORT,
    DOMAIN_FRESH,
    DOMAIN_SEPARATION,
    DOMAIN_TRIALS,
    categories,
    check_replicates,
    coin_thresholds,
    draw_block,
    rekey,
    stream_rng,
)
from .bayes import moment_sums, posterior_moments
from .errors import InputError, NegativeZError, NotReachableError, ZeroTrialsError
from .model import ResultsMatrix
from .ranking import RankTable, ScoredModel, rank_without_ci

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

    One model per shape index i = 4..13 with success probabilities from
    Beta(i, 18-i); the i = 7 vector is used twice (an exact tie) and the
    final i = 13 vector is an independent draw of its own.
    """

    questions: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.questions < 1:
            raise InputError("cohort needs at least one question")


def generate_cohort(spec: CohortSpec) -> list[CoinModel]:
    """Draw a fresh cohort; deterministic given ``spec.seed``."""
    vectors: list[np.ndarray] = []
    for shape in _SHAPE_INDICES:
        rng = stream_rng(spec.seed, DOMAIN_COHORT, len(vectors))  # index: model position
        vectors.append(rng.beta(shape, _SHAPE_SUM - shape, size=spec.questions))
        if shape == _DUPLICATE_SHAPE:
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
    """Bernoulli trials (C = 1) by ``categories``: the first n match any ``trials`` >= n."""
    if trials < 1:
        raise ZeroTrialsError("need at least one trial")
    cells = np.empty((model.questions, trials), np.uint8)   # filled trial-major via its transpose
    categories(stream_rng(seed, DOMAIN_TRIALS, 0), coin_thresholds(model.probs), cells.T[:, None],
               draw_block(4 * model.questions))
    return ResultsMatrix(cells.astype(np.int64), num_categories=2)


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
        """Smallest grid N whose mean absolute z reaches the target.

        Raises:
            NegativeZError: ``target_z`` not > 0.
            NotReachableError: no grid N reaches it.
        """
        if not target_z > 0:
            raise NegativeZError(f"target z must be > 0, got {target_z}")
        for n, z in sorted(zip(self.n_grid, self.mean_abs_z)):
            if z >= target_z:
                return n
        raise NotReachableError(f"mean |z| >= {target_z} not reached on the N grid")

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


def _separation_chunk(grid_points: int, questions: int, group_bytes: int) -> int:
    """Replicates per chunk, at least one, in what ``group_bytes`` of draws leave:
    16 bytes per question for each grid point's int64 counts of two models, and
    one point's posterior counts while it is scored. No result depends on it."""
    return max(1, (_CHUNK_BYTES - group_bytes) // (16 * questions * (grid_points + 1)))


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
    trials (``categories``, one re-keyed generator), so no point depends on
    the rest of the grid. As many whole replicates as a draw block of trials
    holds are drawn as one group, each grid segment summed over it at once; a
    longer replicate is drawn and summed a block at a time, never held whole.
    Neither sum depends on chunking: halves add exactly, |z| via ``math.fsum``.
    """
    check_replicates(replicates)
    grid = sorted(set(int(n) for n in n_grid))
    if not grid or grid[0] < 1:
        raise ZeroTrialsError("grid trial counts must be >= 1")
    if model_a.questions != model_b.questions:
        raise InputError("models must share the question count")
    m = model_a.questions
    g = len(grid)
    step = draw_block(16 * m)   # trials of one draw block
    group = min(max(1, step // grid[-1]), replicates)   # whole replicates drawn at once
    draws = np.empty((min(step, grid[-1]), group, 2, m), np.uint8)   # trial, replicate, model, q
    chunk = _separation_chunk(g, m, draws.nbytes)

    p_correct = np.zeros(g)
    abs_z = np.empty((replicates, g))
    binary = np.array([0.0, 1.0])
    limits = coin_thresholds(np.stack([model_a.probs, model_b.probs]))
    rng = stream_rng(seed, DOMAIN_SEPARATION, 0)
    points = list(enumerate(zip([0, *grid], grid)))   # point i adds trials lo..n-1
    blocks = [(t, [(i, max(lo - t, 0), min(n - t, len(draws))) for i, (lo, n) in points
                   if lo < t + len(draws) and n > t]) for t in range(0, grid[-1], len(draws))]

    for start in range(0, replicates, chunk):
        stop = min(start + chunk, replicates)
        # correct counts per (segment, replicate, model, question, category 1),
        # summed over segments into counts per grid point once they are all in
        counts = np.zeros((g, stop - start, 2, m, 1), dtype=np.int64)
        for first in range(start, stop, group):
            reps = range(first - start, min(first + group, stop) - start)   # rows of counts
            for t, segments in blocks:   # more than one only for a group of one
                for j, r in enumerate(reps):
                    if t == 0:
                        rekey(rng, seed, DOMAIN_SEPARATION, start + r)
                    categories(rng, limits, draws[:grid[-1] - t, j], step)
                for i, a, b in segments:   # a narrow sum, at most b - a per cell
                    counts[i, reps.start:reps.stop, ..., 0] += np.add.reduce(
                        draws[a:b, :len(reps)], axis=0, dtype=np.min_scalar_type(b - a))
        np.cumsum(counts, axis=0, out=counts)
        for i, n in enumerate(grid):
            # uniform prior: posterior counts + 1, T = N + 2
            mu, sigma = posterior_moments(*moment_sums(counts[i] + 1, n + 2), binary, m, n + 2)
            gap = mu[:, 0] - mu[:, 1]   # zero exactly when the correct totals tie
            abs_z[start:stop, i] = np.abs(gap) / np.hypot(sigma[:, 0], sigma[:, 1])
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
    same replicate-prefix engine. Trials come from ``categories`` on one
    re-keyed generator, so the curve at n does not depend on ``n_max``.
    """
    from .bootstrap import tau_curves_from_draws

    if len({m.questions for m in cohort}) > 1:
        raise InputError("models must share the question count")
    if n_max < 1:
        raise ZeroTrialsError("need at least one trial")
    limits = coin_thresholds(np.stack([m.probs for m in cohort]))
    rng = stream_rng(seed, DOMAIN_FRESH, 0)
    block = draw_block(4 * limits[0].size)

    def draw(start: int, stop: int) -> np.ndarray:
        out = np.empty((n_max, len(cohort), stop - start, cohort[0].questions), np.uint8)
        for r in range(start, stop):
            rekey(rng, seed, DOMAIN_FRESH, r)
            categories(rng, limits, out[:, :, r - start], block)
        return out

    return tau_curves_from_draws(
        draw, [m.model_id for m in cohort], methods, gold_ranking(cohort),
        n_max, replicates, scheme="fresh",
    )
