"""Competition-style rank tables, significance rules, and rank correlation.

Scores come in as (mu, sigma) pairs. Ranking without confidence intervals
is a strict ordering of the point estimates (exact float ties share a
rank); ranking with confidence intervals additionally ties consecutive
models whose absolute z-score falls below a threshold. Ranks are dense:
1, 2, 2, 3, ...

Tie chaining follows consecutive pairs transitively, so a chain can tie
two models whose direct z-score exceeds the threshold.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AllTiedError,
    EmptyInputError,
    LengthMismatchError,
    NegativeZError,
    NonFiniteScoreError,
    NotReachableError,
)

__all__ = [
    "ScoredModel",
    "RankEntry",
    "RankTable",
    "z_score",
    "ranking_confidence",
    "rank_without_ci",
    "rank_with_ci",
    "kendall_tau_b",
    "min_trials_for_confidence",
]


@dataclass(frozen=True)
class ScoredModel:
    """A model's point estimate with its uncertainty (sigma = 0 when unknown)."""

    model_id: str
    mu: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise NonFiniteScoreError(f"{self.model_id}: mu={self.mu}, sigma={self.sigma}")
        if self.sigma < 0:
            raise NegativeZError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class RankEntry:
    model_id: str
    mu: float
    sigma: float
    rank: int


@dataclass(frozen=True)
class RankTable:
    """Entries sorted by descending mu; tied groups share a dense rank."""

    entries: tuple[RankEntry, ...]

    def ranks(self) -> dict[str, int]:
        return {e.model_id: e.rank for e in self.entries}

    def rank_vector(self, model_ids: Sequence[str]) -> list[int]:
        """Ranks in the order of ``model_ids`` (for correlation against another table)."""
        by_id = self.ranks()
        return [by_id[m] for m in model_ids]

    def __len__(self) -> int:
        return len(self.entries)

    def to_report(self) -> dict:
        return {
            "entries": [
                {"model": e.model_id, "rank": e.rank, "mu": e.mu, "sigma": e.sigma}
                for e in self.entries
            ]
        }


def z_score(a: ScoredModel, b: ScoredModel) -> float:
    """Absolute z-score ``|mu_a - mu_b| / sqrt(sigma_a^2 + sigma_b^2)``.

    When both sigmas are zero the score degenerates: equal means give 0,
    distinct means give +inf (point estimates are always "significant").
    """
    gap = abs(a.mu - b.mu)
    denom = math.hypot(a.sigma, b.sigma)
    if denom == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / denom


def ranking_confidence(z: float) -> float:
    """Probability the observed order of two models is correct.

    ``rho = (1/2) (1 + erf(z / sqrt(2)))``, in [0.5, 1] for z >= 0.

    Raises:
        NegativeZError: z < 0.
    """
    if z < 0:
        raise NegativeZError(f"z must be >= 0, got {z}")
    if math.isinf(z):
        return 1.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _sorted_desc(models: Sequence[ScoredModel]) -> list[ScoredModel]:
    if not models:
        raise EmptyInputError("need at least one model to rank")
    # stable: equal mu preserves input order
    return sorted(models, key=lambda m: -m.mu)


def rank_without_ci(models: Sequence[ScoredModel]) -> RankTable:
    """Strict ordering by point estimate; exact mu equality shares a rank."""
    ordered = _sorted_desc(models)
    entries = []
    rank = 0
    prev_mu = None
    for m in ordered:
        if prev_mu is None or m.mu != prev_mu:
            rank += 1
        entries.append(RankEntry(m.model_id, m.mu, m.sigma, rank))
        prev_mu = m.mu
    return RankTable(tuple(entries))


def rank_with_ci(
    models: Sequence[ScoredModel],
    z_threshold: float = 1.645,
    clique: bool = False,
) -> RankTable:
    """Ordering by mu with consecutive models tied when their z-score is small.

    Walks the descending-mu order; a pair with ``z < z_threshold`` joins
    the earlier model's rank group, otherwise the rank increments by one.
    Ties chain by default, so a chain can tie two models whose direct
    z-score exceeds the threshold; with ``clique=True`` a model joins a
    group only when it is below threshold against every group member.
    """
    if not z_threshold > 0:  # also rejects NaN, which would tie every model
        raise NegativeZError(f"z threshold must be > 0, got {z_threshold}")
    ordered = _sorted_desc(models)
    entries = [RankEntry(ordered[0].model_id, ordered[0].mu, ordered[0].sigma, 1)]
    rank = 1
    group = [ordered[0]]
    for cur in ordered[1:]:
        peers = group if clique else group[-1:]
        if any(z_score(peer, cur) >= z_threshold for peer in peers):
            rank += 1
            group = [cur]
        else:
            group.append(cur)
        entries.append(RankEntry(cur.model_id, cur.mu, cur.sigma, rank))
    return RankTable(tuple(entries))


def _pair_counts(a: Sequence[float], b: Sequence[float]) -> tuple[int, int]:
    """Concordant minus discordant enumeration over all index pairs."""
    nc = nd = 0
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            sa = (a[i] > a[j]) - (a[i] < a[j])
            sb = (b[i] > b[j]) - (b[i] < b[j])
            prod = sa * sb
            if prod > 0:
                nc += 1
            elif prod < 0:
                nd += 1
    return nc, nd


def _tie_pairs(values: Sequence[float]) -> int:
    return sum(t * (t - 1) // 2 for t in Counter(values).values())


def kendall_tau_b(ranking_a: Sequence[float], ranking_b: Sequence[float]) -> float:
    """Kendall rank correlation with tie correction in both rankings.

    ``tau_b = (n_c - n_d) / sqrt((n0 - n1)(n0 - n2))`` where ``n0`` is the
    number of index pairs and ``n1``/``n2`` count tied pairs within each
    ranking.

    Raises:
        LengthMismatchError: inputs of different length or fewer than 2 items.
        AllTiedError: either ranking entirely tied (denominator zero).
    """
    n = len(ranking_a)
    if n != len(ranking_b):
        raise LengthMismatchError(f"lengths {n} and {len(ranking_b)} differ")
    if n < 2:
        raise LengthMismatchError("need at least 2 items")
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(ranking_a)
    n2 = _tie_pairs(ranking_b)
    if n1 == n0 or n2 == n0:
        raise AllTiedError("tau-b undefined when a ranking is entirely tied")
    nc, nd = _pair_counts(ranking_a, ranking_b)
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def min_trials_for_confidence(
    mu_gap: float,
    sigma_at_n: Callable[[int], float] | Mapping[int, float],
    target_z: float,
    *,
    n_grid: Iterable[int] | None = None,
    n_max: int = 10_000,
) -> int:
    """Smallest trial count whose z-score reaches ``target_z``.

    ``sigma_at_n`` maps a trial count to the combined uncertainty of the
    model pair at that count; it may be a callable (an analytic or fitted
    curve) or a mapping of measured points. ``z(N) = mu_gap / sigma_at_n(N)``.

    Raises:
        NotReachableError: no N in the budget reaches the target.
    """
    if target_z <= 0:
        raise NegativeZError(f"target z must be > 0, got {target_z}")
    if isinstance(sigma_at_n, Mapping):
        candidates = sorted(sigma_at_n)
        lookup = sigma_at_n.__getitem__
    else:
        candidates = list(n_grid) if n_grid is not None else range(1, n_max + 1)
        lookup = sigma_at_n
    for n in candidates:
        sigma = lookup(n)
        if sigma < 0:
            raise NegativeZError(f"sigma_at_n({n}) = {sigma} < 0")
        if sigma == 0.0:
            if mu_gap != 0.0:
                return n
            continue
        if mu_gap / sigma >= target_z:
            return n
    raise NotReachableError(
        f"z >= {target_z} not reached for gap {mu_gap} within the trial budget"
    )
