"""Resampling engines and convergence analytics.

Two bootstrap schemes over a results matrix: column-wise redraws trial
indices (the same indices for every question) and row-wise redraws cells
independently per question. Each replicate owns one counter-based random
stream keyed by (seed, scheme, replicate) and draws every model's trials
from its 32-bit words by ``_rng``'s rule (see ``resample``), trial-major,
so ``resample`` reproduces exactly what the engine scored and any split
of the replicates draws the same bits. Reports depend on Philox words alone.

A scan walks replicates a chunk at a time. A source draws each
replicate's trials for every model (bootstrap resamples or fresh
Bernoulli draws) as (n, model, replicate, question) category indices in
the smallest unsigned dtype. Int64 counts per (model, replicate,
question, category), kept only when a method reads them (the pass
family, CI sigmas), or else int64 prefix category totals over questions,
feed ``Method.scores_from_{counts,totals}``.
A replicate converges one past its last prefix whose ranking differs
from gold. Tau curves (``tau_curves``, ``tau_curves_from_draws``) score
every prefix upward and add integer tau-b terms, bucketed by tied-pair
count. Convergence@n (``convergence_distributions``) walks down from
n_max, where a replicate's first mismatch finishes it and each method
scores only the replicates still matching gold. A CI-aware match ranks
as ``rank_with_ci`` would, with sigmas from ``Method.sigmas_from_counts``.
``tau_curves(..., convergence_replicates=R)`` gives both ``converge``
artifacts from one draw of each replicate: its upward scan decides the
convergence points of replicates 0..R_tau-1 from the scores it computes,
and the downward scan adds replicates R_tau..R-1. Every reduction is
exact integer arithmetic per replicate, so no result depends on the
chunk size, which a byte budget sets from the problem shape.

Rankings inside replicates are point-estimate rankings; the gold standard
is the posterior-mean ranking of the unresampled matrices at the full
trial budget.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from ._rng import CHUNK_BYTES as _CHUNK_TARGET_BYTES
from ._rng import (DOMAIN_COLUMN, DOMAIN_ROW, DRAW_SHARE, categories, check_replicates, draw_block,
                   stream_rng, thresholds, words)
from .bayes import evaluate_performance
from .errors import AllTiedError, InputError, NegativeZError
from .methods import Method, parse_method
from .model import ResultsMatrix, WeightVector, check_same_grid
from .ranking import RankTable, ScoredModel, rank_without_ci

__all__ = [
    "ResampleScheme",
    "ResamplePlan",
    "TauPoint",
    "TauCurve",
    "ConvergenceDistribution",
    "resample",
    "tau_curves",
    "tau_curves_from_draws",
    "convergence_distributions",
]


def _draw_block(cells_per_trial: int) -> int:
    """Trials per ``resample`` draw block at 4 bytes a cell: its 32-bit words."""
    return draw_block(4 * cells_per_trial, _CHUNK_TARGET_BYTES)


def _chunk_size(empty_draw: np.ndarray, num_categories: int, counts: bool) -> int:
    """Replicates per engine chunk: as many as the byte budget left after
    the draw block holds, at least one. ``empty_draw`` is a zero-replicate
    draw. With ``counts``, a replicate's (model, question) cell costs its
    draws plus 24 bytes per category: the int64 running counts and the
    float64 scratch of scoring them (CI sigmas take the most). Without, a
    replicate costs its draws, one category mask and n_max x models x C x 8
    bytes of int64 prefix totals. No result depends on the chunk size."""
    n_max, models, _, questions, d = *empty_draw.shape, empty_draw.itemsize
    per_rep = models * (questions * (n_max * d + 24 * num_categories) if counts
                        else n_max * (questions * (d + 1) + 8 * (num_categories - 1)))
    budget = _CHUNK_TARGET_BYTES - _CHUNK_TARGET_BYTES // DRAW_SHARE
    return max(1, budget // max(per_rep, 1))


class ResampleScheme(str, Enum):
    COLUMN = "column"
    ROW = "row"

    @property
    def domain(self) -> int:
        return DOMAIN_COLUMN if self is ResampleScheme.COLUMN else DOMAIN_ROW


@dataclass(frozen=True)
class ResamplePlan:
    """Bootstrap configuration: scheme, replicate count, seed, trial budget."""

    scheme: ResampleScheme
    replicates: int = 10_000
    seed: int = 0
    n_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", ResampleScheme(self.scheme))
        check_replicates(self.replicates)

    def budget(self, matrix_trials: int) -> int:
        n = self.n_max if self.n_max is not None else matrix_trials
        if not 1 <= n <= matrix_trials:
            raise InputError(f"n_max={n} outside [1, {matrix_trials}]")
        return n


def resample(
    cells: np.ndarray, plan: ResamplePlan, replicate_index: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Bootstrap replicate ``replicate_index`` of the (models, questions,
    trials) ``cells``: its (n_max, models, questions) category indices,
    written into ``out`` (of that shape and ``cells``' dtype) when given.

    The replicate's stream gives a 32-bit word w per draw (``_rng.words``).
    A row cell takes category #{j >= 1 : w < ceil(2^32 T_j / N)}, T_j of its
    row's N trials in category >= j (``_rng.categories``): the cell at index
    (w N) >> 32 of the row sorted high categories first, so each category's
    probability is off by less than 2^-32. A column draw takes source trial
    (w N) >> 32 per model. Blocks of ``_draw_block`` trials change no bit.
    The engine draws through this function.
    """
    models, m, n_src = cells.shape
    n_max = plan.budget(n_src)
    out = np.empty((n_max, models, m), cells.dtype) if out is None else out
    rng = stream_rng(plan.seed, plan.scheme.domain, replicate_index)
    block = _draw_block(models * m)
    if plan.scheme is ResampleScheme.ROW:
        tally = np.zeros((max(int(cells.max()), 1), models, m), np.uint64)   # T_j, j = 1..
        for t in range(0, n_src, block):   # source trials a block at a time
            for j, plane in enumerate(tally):
                plane += np.add.reduce(cells[..., t:t + block] > j, axis=-1, dtype=np.uint32)
        categories(rng, thresholds(((tally << 32) + n_src - 1) // n_src), out, block)
        return out
    # each (model, trial) source row of questions, gathered along the trial axis
    rows = np.ascontiguousarray(cells.transpose(0, 2, 1)).reshape(models * n_src, m)
    heads = np.arange(0, models * n_src, n_src)
    for t, w in words(rng, (n_max, models), block):
        picks = (w * np.uint64(n_src) >> 32).astype(np.intp) + heads
        np.take(rows, picks, axis=0, out=out[t:t + len(w)], mode="clip")   # in range: unbuffered
    return out


# -- shared multi-model machinery --------------------------------------------

def _model_items(matrices) -> list[tuple[str, ResultsMatrix]]:
    if not isinstance(matrices, Mapping):
        raise InputError(f"matrices must map model ids to matrices, got {type(matrices).__name__}")
    items = list(matrices.items())
    if len(items) < 2:
        raise InputError("need at least two models to rank")
    check_same_grid([mx for _, mx in items])
    return items


def gold_table(
    matrices, n_max: int | None = None, weights: WeightVector | None = None
) -> RankTable:
    """Posterior-mean ranking of the unresampled matrices at the trial budget."""
    items = _model_items(matrices)
    n = n_max if n_max is not None else items[0][1].trials
    summaries = [(mid, evaluate_performance(mx.prefix(n), weights=weights)) for mid, mx in items]
    return rank_without_ci([ScoredModel(mid, s.mu, s.sigma) for mid, s in summaries])


def _pair_structure(gold: RankTable, model_ids: Sequence[str]):
    """Pair indices, gold pair signs, and gold tie-pair count for tau-b."""
    ranks = gold.ranks()
    g = np.array([-ranks[m] for m in model_ids], dtype=float)  # higher = better
    n = len(model_ids)
    iu, ju = np.triu_indices(n, k=1)
    sg = np.sign(g[iu] - g[ju])
    n0 = n * (n - 1) // 2
    n2 = int((sg == 0).sum())
    if n2 == n0:
        raise AllTiedError("gold ranking entirely tied; tau-b undefined")
    return iu, ju, sg, n0, n2


def _tau_terms(scores: np.ndarray, iu, ju, sg, n0: int) -> np.ndarray:
    """Tau-b terms of the (reps, models) ``scores`` against gold, bucketed
    by each replicate's tied-pair count n1 = 0..n0-1.

    A replicate's tau-b is ncd / sqrt((n0 - n1)(n0 - n2)) with integer ncd
    and n1, and n0, n2 fixed by gold. Row 0 sums ncd, row 1 sums ncd**2 and
    row 2 counts replicates: integers, exact in float64 while reps * n0**2
    < 2**53, so any grouping of replicates gives the same bits. A
    replicate with every pair tied (n1 = n0) has no tau-b and drops out.
    """
    ss = np.sign(scores[:, iu] - scores[:, ju])
    ncd = ss @ sg
    n1 = np.count_nonzero(ss == 0, axis=1)
    return np.stack([np.bincount(n1, w, n0 + 1)[:n0] for w in (ncd, ncd * ncd, None)])


def _match_gold(scores: np.ndarray, perm: np.ndarray, strict: np.ndarray) -> np.ndarray:
    """True where a replicate's dense ranking equals the gold ranking.

    Walking models in gold order, the score sequence must fall strictly
    where gold falls strictly and tie exactly where gold ties; that pins
    both the order and the tie structure.
    """
    s = scores[:, perm]
    d = s[:, :-1] - s[:, 1:]
    ok = np.where(strict[None, :], d > 0, d == 0)
    return ok.all(axis=1)


def _match_gold_ci(mu, sigma, z: float, gold_ranks: np.ndarray) -> np.ndarray:
    """True where a replicate's CI-tied ranking equals the gold ranking:
    ``rank_with_ci`` vectorized over the (reps, models) rows, with a new
    dense rank wherever a consecutive z-score reaches the threshold."""
    order = np.argsort(-mu, axis=1, kind="stable")
    mu_s = np.take_along_axis(mu, order, axis=1)
    sigma_s = np.take_along_axis(sigma, order, axis=1)
    gap = mu_s[:, :-1] - mu_s[:, 1:]
    denom = np.hypot(sigma_s[:, :-1], sigma_s[:, 1:])
    zs = np.where(gap == 0, 0.0, np.inf)  # both sigmas zero: z_score's convention
    np.divide(gap, denom, out=zs, where=denom > 0)
    g = gold_ranks[order]  # dense ranks: start at 1, step by one at each break
    return (g[:, 0] == 1) & (np.diff(g, axis=1) == (zs >= z)).all(axis=1)


def _gold_matcher(gold: RankTable, model_ids, method: Method, ci_z, num_categories):
    """``match(n, scores, counts)``: which rows of ``scores`` rank like ``gold``
    at n, by point ranking or, with ``ci_z``, by CI-tied ranking at that z
    with sigmas from the same replicates' ``counts``."""
    gold_ranks = np.asarray(gold.rank_vector(model_ids))
    if ci_z is None:
        perm = np.argsort(gold_ranks, kind="stable")
        strict = np.diff(gold_ranks[perm]) > 0
        return lambda n, scores, counts: _match_gold(scores, perm, strict)

    def match(n, scores, counts):
        sigma = method.sigmas_from_counts(counts, n, num_categories).T
        return _match_gold_ci(scores, sigma, ci_z, gold_ranks)

    return match


def _as_methods(method_specs, weights: WeightVector | None = None) -> list[Method]:
    if isinstance(method_specs, (str, Method)):
        method_specs = [method_specs]
    methods = [m if isinstance(m, Method) else parse_method(m) for m in method_specs]
    if not methods:
        raise InputError("need at least one method")
    if weights is not None:
        methods = [
            dataclasses.replace(m, weights=m.weights or weights) for m in methods
        ]
    return methods


def _request(matrices, methods, plan: ResamplePlan, weights, gold):
    """The checked models, methods and trial budget of a scan, and its gold
    ranking: ``gold``, or the posterior-mean ranking at the budget."""
    items = _model_items(matrices)
    methods = _as_methods(methods, weights)
    n_max = plan.budget(items[0][1].trials)
    if gold is None:
        gold = gold_table(dict(items), n_max, weights)
    return items, methods, n_max, gold


# -- the replicate-prefix scans ----------------------------------------------

def _resample_draw(items, plan: ResamplePlan, n_max: int):
    """Source: ``resample`` of each replicate, written into the chunk, on
    the cells cast once to the smallest dtype that holds every category and
    stored as (model, trial, question) rows, which ``resample`` reduces and
    gathers along the trial axis without a copy."""
    dtype = np.min_scalar_type(items[0][1].num_categories - 1)
    cells = np.array([mx.cells.T for _, mx in items], dtype).transpose(0, 2, 1)

    def draw(start: int, stop: int) -> np.ndarray:
        out = np.empty((n_max, len(items), stop - start, cells.shape[1]), dtype)
        for r in range(start, stop):
            resample(cells, plan, r, out[:, :, r - start])
        return out

    return draw


def _prepared(methods, n_max: int, num_categories: int, ci_z: float | None = None):
    """The methods, checked at the budget, with weights resolved once per
    scan rather than at every prefix; and whether the scan keeps int64
    running counts per question, which the pass family and CI sigmas read.
    Without them, int64 prefix category totals over questions stand in."""
    for m in methods:
        m.check_defined(n_max, num_categories)
    methods = [dataclasses.replace(m, weights=m.weights or WeightVector.identity(num_categories))
               for m in methods]
    return methods, ci_z is not None or not all(m.moment_based for m in methods)


def _prefix_totals(trials: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(n_max, models, reps, C - 1) int64 totals over questions of each
    category 1..C in every prefix of the (n_max, models, reps, M) draws."""
    totals = np.empty(trials.shape[:-1] + (cats.size,), np.int64)
    for j, c in enumerate(cats):
        np.sum(trials == c, axis=-1, out=totals[..., j])
    return np.cumsum(totals, axis=0, out=totals)


def _convergence_points(items, methods, plan: ResamplePlan, n_max: int, gold: RankTable,
                        ci_z: float | None = None, first: int = 0):
    """Each method's convergence point for the plan's replicates
    first..R-1, scanning each chunk down from n_max.

    A replicate converges one past its last prefix n >= onset whose
    ranking differs from gold, at the onset if none does; n_max + 1 means
    it is censored, n_max itself differing. Going down, the first mismatch
    met is that last one.
    Per chunk, int64 counts at n_max are built one trial at a time (or
    prefix totals). At each n from n_max down, a method scores only the
    replicates it still holds, those that matched gold at every larger n;
    one that differs finishes at n + 1 and leaves. The replicates no method
    holds are dropped, and trial n's cells are taken from the rest before
    n - 1. Returns the points, (methods, R - first).
    """
    num_categories, replicates = items[0][1].num_categories, plan.replicates
    methods, counted = _prepared(methods, n_max, num_categories, ci_z)
    model_ids = [mid for mid, _ in items]
    matchers = [_gold_matcher(gold, model_ids, m, ci_z, num_categories) for m in methods]
    onsets = [max(1, m.min_trials) for m in methods]
    points = np.repeat(np.array(onsets, np.int64)[:, None], replicates - first, axis=1)
    if first == replicates:
        return points  # before the source copies the cells
    cats = np.arange(1, num_categories)
    draw = _resample_draw(items, plan, n_max)
    chunk = _chunk_size(draw(0, 0), num_categories, counted)
    for start in range(first, replicates, chunk):
        trials = draw(start, min(start + chunk, replicates))
        counts, totals = None, None
        if counted:
            counts = np.zeros(trials.shape[1:] + (cats.size,), np.int64)
            for n in range(n_max):  # a trial at a time: no mask of the whole draw
                counts += trials[n, ..., None] == cats
        else:
            totals = _prefix_totals(trials, cats)
        rows = np.arange(trials.shape[2])  # chunk replicates some method holds
        held = np.ones((len(methods), rows.size), bool)
        for n in range(n_max, 0, -1):
            for i, (m, match) in enumerate(zip(methods, matchers)):
                mine = np.flatnonzero(held[i])
                if n < onsets[i] or not mine.size:
                    held[i] = False  # matched gold down to the onset
                    continue
                sub = counts if not counted or mine.size == rows.size else counts[:, mine]
                scores = (m.scores_from_counts(sub, n, num_categories) if counted else
                          m.scores_from_totals(totals[n - 1][:, rows[mine]], trials.shape[-1], n,
                                               num_categories)).T
                out = mine[~match(n, scores, sub)]
                points[i, start - first + rows[out]] = n + 1
                held[i, out] = False
            keep = held.any(axis=0)
            if not keep.any():
                break
            if not keep.all():
                rows, held = rows[keep], held[:, keep]
                counts = counts[:, keep] if counted else None
            if counted:
                counts -= trials[n - 1][:, rows, :, None] == cats
        del trials, counts, totals  # before the next chunk's draw
    return points


# -- tau curves ---------------------------------------------------------------

@dataclass(frozen=True)
class TauPoint:
    n: int
    mean_tau: float
    stderr: float
    valid_replicates: int
    # subset estimators at n == k rank from a single subset; flagged so
    # report consumers can discount the onset point
    high_variance: bool = False


@dataclass(frozen=True)
class TauCurve:
    """Mean rank correlation against the gold standard per trial count."""

    method: str
    scheme: str
    points: tuple[TauPoint, ...]
    # convergence@n, when ``points`` or ``convergence_replicates`` asks for
    # it; reported beside the curve, not in it
    convergence: ConvergenceDistribution | None = field(default=None, compare=False, repr=False)

    def at(self, n: int) -> TauPoint:
        for p in self.points:
            if p.n == n:
                return p
        raise KeyError(n)

    def tsv_rows(self) -> list[tuple]:
        return [("N", "value", "stderr")] + [(p.n, p.mean_tau, p.stderr) for p in self.points]

    def to_report(self) -> dict:
        return {
            "method": self.method,
            "scheme": self.scheme,
            "points": [
                {
                    "N": p.n,
                    "value": p.mean_tau,
                    "stderr": p.stderr,
                    "replicates": p.valid_replicates,
                    "high_variance": p.high_variance,
                }
                for p in self.points
            ],
        }


def _tau_curve(m: Method, terms: np.ndarray, gold_ties: int, scheme: str) -> TauCurve:
    """Mean tau-b and its standard error per n from a method's
    (3, n_max + 1, n0) ``_tau_terms`` sums; ``gold_ties`` is gold's n2."""
    n0 = terms.shape[2]
    denom_sq = (n0 - np.arange(n0)) * float(n0 - gold_ties)
    lo = max(1, m.min_trials)
    ncd, ncd_sq, cnt = terms[:, lo:]
    sums = (ncd / np.sqrt(denom_sq)).sum(axis=1).tolist()
    square_sums = (ncd_sq / denom_sq).sum(axis=1).tolist()
    points = []
    for n, s, ss, c in zip(range(lo, terms.shape[1]), sums, square_sums, cnt.sum(axis=1)):
        if c == 0:
            continue
        mean = s / c
        var = max(ss / c - mean * mean, 0.0)
        stderr = math.sqrt(var / c) if c > 1 else 0.0
        # subset estimators rank from a single subset at n == k
        onset = m.k is not None and m.kind != "naive_pass_hat_k" and n == m.k
        points.append(TauPoint(n, mean, stderr, int(c), onset))
    return TauCurve(m.name, scheme, tuple(points))


def tau_curves_from_draws(
    draw, model_ids, methods, gold: RankTable, n_max: int, replicates: int, *,
    scheme: str, num_categories: int = 2, points: bool = False,
) -> dict[str, TauCurve]:
    """Mean tau-b curves against ``gold`` over the replicates ``draw`` yields.

    ``draw(start, stop)`` returns replicates start..stop-1 as an
    (n_max, models, reps, questions) array of category indices, models in
    ``model_ids`` order; the scan sizes its chunks from ``draw(0, 0)``.

    Every prefix of every replicate is scored upward, one chunk of
    replicates at a time, and adds its ``_tau_terms``: integers, exact in
    float64 while replicates x n0**2 < 2**53, so no chunk size changes a bit.

    With ``points``, the same scores also decide each replicate's
    convergence point: one past its last prefix n >= onset whose ranking
    differs from gold. Each curve then carries their distribution.

    Raises:
        InputError: replicates x n0**2 >= 2**53, with n0 the model pairs;
            before any draw.
    """
    check_replicates(replicates)
    iu, ju, sg, n0, n2 = _pair_structure(gold, model_ids)
    if replicates * n0 ** 2 >= 2 ** 53:
        raise InputError(f"{replicates} replicates of {len(model_ids)} models: tau-b sums "
                         f"need replicates x {n0}^2 < 2^53 to stay exact")
    methods, counted = _prepared(_as_methods(methods), n_max, num_categories)
    matchers = [_gold_matcher(gold, model_ids, m, None, num_categories) for m in methods]
    onsets = np.array([max(1, m.min_trials) for m in methods], np.int64)
    cats = np.arange(1, num_categories)
    tau = np.zeros((len(methods), 3, n_max + 1, n0))
    hist = np.zeros((len(methods), n_max + 2), np.int64)  # points 0..n_max + 1
    chunk = _chunk_size(draw(0, 0), num_categories, counted)
    for start in range(0, replicates, chunk):
        trials = draw(start, min(start + chunk, replicates))
        counts = np.zeros(trials.shape[1:] + (cats.size,), np.int64) if counted else None
        totals = None if counted else _prefix_totals(trials, cats)
        last = np.repeat(onsets[:, None] - 1, trials.shape[2], axis=1)  # last prefix off gold
        for n in range(1, n_max + 1):
            if counted:
                counts += trials[n - 1, ..., None] == cats
            for i, m in enumerate(methods):
                if n >= onsets[i]:
                    scores = (m.scores_from_counts(counts, n, num_categories) if counted else
                              m.scores_from_totals(totals[n - 1], trials.shape[-1], n,
                                                   num_categories)).T
                    tau[i, :, n] += _tau_terms(scores, iu, ju, sg, n0)
                    if points:
                        last[i, ~matchers[i](n, scores, None)] = n
        if points:
            for h, conv in zip(hist, last + 1):
                h += np.bincount(conv, minlength=n_max + 2)
        del trials, counts, totals  # before the next chunk's draw
    curves = {m.name: _tau_curve(m, terms, n2, scheme) for m, terms in zip(methods, tau)}
    if not points:
        return curves
    return {m.name: dataclasses.replace(
                curves[m.name], convergence=_distribution(m.name, scheme, n_max, h, replicates))
            for m, h in zip(methods, hist)}


def tau_curves(
    matrices,
    methods: Sequence[Method | str] | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    gold: RankTable | None = None,
    convergence_replicates: int | None = None,
) -> dict[str, TauCurve]:
    """Mean tau-b curves of one or more methods over shared replicates.

    The reference ranking defaults to the posterior-mean ranking of the
    unresampled matrices at the trial budget; pass ``gold`` to compare
    against a known ground-truth ranking instead. Replicates where a
    method scores every model identically have no defined correlation
    and are excluded from that point's mean (their count shows up in
    ``valid_replicates``).

    With ``convergence_replicates`` R >= ``plan.replicates``, each curve
    also carries ``convergence``: what ``convergence_distributions`` gives
    for the plan at R replicates, drawing each replicate once. The tau
    scan decides the points of its own replicates, and the downward scan
    draws only the R - ``plan.replicates`` past them.

    Raises:
        InputError: too many replicates for exact tau-b sums, as in
            ``tau_curves_from_draws``, or ``convergence_replicates`` below
            ``plan.replicates`` or past the stream indices; before any draw.
    """
    rest = None
    if convergence_replicates is not None:
        if convergence_replicates < plan.replicates:
            raise InputError(f"convergence_replicates={convergence_replicates} is below the "
                             f"{plan.replicates} tau replicates")
        rest = dataclasses.replace(plan, replicates=convergence_replicates)
    items, methods, n_max, gold = _request(matrices, methods, plan, weights, gold)
    curves = tau_curves_from_draws(
        _resample_draw(items, plan, n_max), [mid for mid, _ in items], methods, gold, n_max,
        plan.replicates, scheme=plan.scheme.value, num_categories=items[0][1].num_categories,
        points=rest is not None,
    )
    if rest is None:
        return curves
    tail = _convergence_points(items, methods, rest, n_max, gold, first=plan.replicates)
    out = {}
    for m, conv in zip(methods, tail):
        head = curves[m.name].convergence
        hist = np.append(head.counts, head.censored_count) + np.bincount(conv, minlength=n_max + 2)
        out[m.name] = dataclasses.replace(curves[m.name], convergence=_distribution(
            m.name, plan.scheme.value, n_max, hist, rest.replicates))
    return out


# -- convergence@n ------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceDistribution:
    """Distribution of the smallest trial count after which a method's
    ranking equals the gold ranking for every larger prefix.

    Counts are integers so mass conservation is exact:
    ``counts.sum() + censored_count == replicates``.
    """

    method: str
    scheme: str
    n_max: int
    counts: np.ndarray          # index n = 1..n_max; counts[0] unused
    censored_count: int
    replicates: int

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def pmf(self) -> np.ndarray:
        """P(convergence at n), n = 1..n_max (index 0 is zero)."""
        return self.counts / self.replicates

    @property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    @property
    def censored_mass(self) -> float:
        return self.censored_count / self.replicates

    @property
    def mean_converged(self) -> float | None:
        converged = int(self.counts.sum())
        if converged == 0:
            return None
        return float(np.arange(self.n_max + 1) @ self.counts) / converged

    def tsv_rows(self) -> list[tuple]:
        pmf, cdf = self.pmf, self.cdf
        rows = [("n", "pmf", "cdf")]
        rows += [(n, pmf[n], cdf[n]) for n in range(1, self.n_max + 1)]
        rows.append(("censored", self.censored_mass, ""))
        return rows

    def to_report(self) -> dict:
        pmf, cdf = self.pmf, self.cdf
        return {
            "method": self.method,
            "scheme": self.scheme,
            "n_max": self.n_max,
            "replicates": self.replicates,
            "mean_converged": self.mean_converged,
            "censored_mass": self.censored_mass,
            "pmf": [
                {"n": n, "pmf": float(pmf[n]), "cdf": float(cdf[n])}
                for n in range(1, self.n_max + 1)
            ],
        }


def _distribution(method: str, scheme: str, n_max: int, hist: np.ndarray,
                  replicates: int) -> ConvergenceDistribution:
    """From a histogram of points 0..n_max + 1, its last bin the censored."""
    return ConvergenceDistribution(method, scheme, n_max, hist[: n_max + 1].astype(np.int64),
                                   int(hist[n_max + 1]), replicates)


def convergence_distributions(
    matrices,
    methods: Sequence[Method | str] | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    gold: RankTable | None = None,
    ci_z: float | None = None,
) -> dict[str, ConvergenceDistribution]:
    """Convergence@n PMFs for one or more methods over shared replicates.

    By default replicate rankings are point-estimate rankings compared to
    the gold point ranking. ``ci_z`` switches the replicate side to
    CI-tied rankings at that z threshold, as ``rank_with_ci`` would rank
    them: ``bayes`` and ``avg`` use their closed-form sigma, subset
    estimators sigma 0. Both run on the same downward scan and replicates.

    Raises:
        NegativeZError: ``ci_z`` not > 0, before any draw.
    """
    if ci_z is not None and not ci_z > 0:
        raise NegativeZError(f"z threshold must be > 0, got {ci_z}")
    items, methods, n_max, gold = _request(matrices, methods, plan, weights, gold)
    points = _convergence_points(items, methods, plan, n_max, gold, ci_z)
    return {m.name: _distribution(m.name, plan.scheme.value, n_max,
                                  np.bincount(conv, minlength=n_max + 2), plan.replicates)
            for m, conv in zip(methods, points)}
