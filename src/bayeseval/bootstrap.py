"""Resampling engines and convergence analytics.

Two bootstrap schemes over a results matrix: column-wise redraws trial
indices (the same indices for every question) and row-wise redraws cell
indices independently per question. Each (replicate, model) pair owns a
counter-based random stream, so outputs are bit-identical regardless of
chunking or worker count, and ``resample`` reproduces exactly what the
engine scored.

One replicate-prefix engine serves tau curves, convergence@n, the
worst-case trajectory and ``simulate.fresh_tau_curves``. Per chunk of
replicates: a source draws each (replicate, model)'s trials (bootstrap
resamples or fresh Bernoulli draws) as (n, model, replicate, question)
category indices in the smallest unsigned dtype; int64 running counts of
shape (model, replicate, question, C) advance one trial per n, so no count
width caps the trial budget; ``Method.scores_from_counts`` scores every
prefix; reducers keep either tau-b sums or gold-match bits (convergence
points). A CI-aware gold match ranks each replicate as ``rank_with_ci``
would, with sigmas from ``Method.sigmas_from_counts`` on the same counts.
One pass serves both artifacts: ``scan_replicates`` scans max(R_tau,
R_conv) replicates and feeds the tau reducers the first R_tau of them and
the gold-match reducers the first R_conv, so the tau replicates are the
first R_tau convergence replicates; ``tau_curves`` and
``convergence_distributions`` read that result through ``scan=`` or, left
without it, scan for their own artifact alone. Chunk size depends on the
problem shape only, never on the machine or thread count, because it
fixes how tau sums are grouped and so the float rounding of every
reported mean.

Rankings inside replicates are point-estimate rankings; the gold standard
is the posterior-mean ranking of the unresampled matrices at the full
trial budget.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._rng import DOMAIN_COLUMN, DOMAIN_ROW, stream_rng
from .bayes import evaluate_performance
from .errors import AllTiedError, InputError, NegativeZError
from .methods import Method, parse_method
from .model import ResultsMatrix, WeightVector
from .ranking import RankTable, ScoredModel, rank_without_ci

__all__ = [
    "ResampleScheme",
    "ResamplePlan",
    "TauPoint",
    "TauCurve",
    "ConvergenceDistribution",
    "WorstCaseTrajectory",
    "ReplicateScan",
    "resample",
    "scan_replicates",
    "tau_curve",
    "tau_curves",
    "tau_curves_from_draws",
    "convergence_at_n",
    "convergence_distributions",
    "worst_case_trajectory",
]

_CHUNK_TARGET_BYTES = 64 << 20


def _chunk_size(items, n_max: int) -> int:
    """Replicates per bootstrap work chunk.

    A pure function of the problem shape (never of the machine), so
    aggregation grouping and therefore float rounding are reproducible.
    The formula budgets 2 bytes per (model, question, category, n) cell;
    changing it regroups the tau sums and changes reported digits.
    """
    mx = items[0][1]
    per_rep = len(items) * mx.questions * (mx.num_categories - 1) * n_max * 2
    return int(min(1024, max(16, _CHUNK_TARGET_BYTES // max(per_rep, 1))))


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
        if self.replicates < 1:
            raise InputError("replicates must be >= 1")

    def budget(self, matrix_trials: int) -> int:
        n = self.n_max if self.n_max is not None else matrix_trials
        if not 1 <= n <= matrix_trials:
            raise InputError(f"n_max={n} outside [1, {matrix_trials}]")
        return n


def resample(
    matrix: ResultsMatrix, plan: ResamplePlan, replicate_index: int, stream: int = 0
) -> ResultsMatrix:
    """One bootstrap replicate of ``matrix``; deterministic in all arguments.

    Column-wise applies one drawn index set to every row; row-wise draws
    independently per row. ``stream`` distinguishes models inside
    multi-model runs, so ``resample(matrix_i, plan, r, stream=i)`` is the
    exact input the engine scored: the engine draws through this function.
    """
    n_max = plan.budget(matrix.trials)
    rng = stream_rng(plan.seed, plan.scheme.domain, replicate_index, stream)
    m, n_src = matrix.cells.shape
    if plan.scheme is ResampleScheme.COLUMN:
        cells = matrix.cells[:, rng.integers(0, n_src, size=n_max)]
    else:
        cells = np.take_along_axis(matrix.cells, rng.integers(0, n_src, size=(m, n_max)), axis=1)
    return ResultsMatrix(cells, matrix.num_categories, matrix.question_ids)


# -- shared multi-model machinery --------------------------------------------

def _model_items(matrices) -> list[tuple[str, ResultsMatrix]]:
    if isinstance(matrices, Mapping):
        items = list(matrices.items())
    else:
        items = [(m.model_id, m.matrix) if hasattr(m, "matrix") else m for m in matrices]
    if len(items) < 2:
        raise InputError("need at least two models to rank")
    shapes = {(mx.questions, mx.trials, mx.num_categories) for _, mx in items}
    if len(shapes) > 1:
        raise InputError(f"matrices disagree on shape/categories: {sorted(shapes)}")
    # rows are compared by position, so they must name the same questions
    if len({mx.question_ids for _, mx in items if mx.question_ids is not None}) > 1:
        raise InputError("matrices disagree on question ids or their row order")
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


def _tau_against_gold(scores: np.ndarray, iu, ju, sg, n0, n2):
    """Vectorized tau-b of each replicate's scores against the gold ranking."""
    diff = scores[:, iu] - scores[:, ju]
    ss = np.sign(diff)
    ncd = ss @ sg
    n1 = (ss == 0.0).sum(axis=1)
    denom_sq = (n0 - n1) * (n0 - n2)
    valid = denom_sq > 0
    tau = np.zeros(scores.shape[0])
    np.divide(ncd, np.sqrt(np.where(valid, denom_sq, 1.0)), out=tau, where=valid)
    return tau, valid


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


def _as_methods(method_specs, weights: WeightVector | None = None) -> list[Method]:
    if isinstance(method_specs, (str, Method)):
        method_specs = [method_specs]
    methods = [m if isinstance(m, Method) else parse_method(m) for m in method_specs]
    if weights is not None:
        methods = [
            dataclasses.replace(m, weights=m.weights or weights) for m in methods
        ]
    return methods


# -- the replicate-prefix engine ---------------------------------------------

def _resample_draw(items, plan: ResamplePlan, n_max: int):
    """Source: ``resample`` of every (replicate, model), model index as stream."""
    dtype = np.min_scalar_type(items[0][1].num_categories - 1)
    small = [ResultsMatrix(mx.cells.astype(dtype), mx.num_categories) for _, mx in items]

    def draw(start: int, stop: int) -> np.ndarray:
        out = np.empty((n_max, len(small), stop - start, small[0].questions), dtype)
        for s, mx in enumerate(small):
            for r in range(start, stop):
                out[:, s, r - start] = resample(mx, plan, r, s).cells.T
        return out

    return draw


def _scan(draw, num_categories, replicates, chunk, methods, n_max, reducers, threads=1):
    """Score every method at every prefix of every replicate and reduce.

    ``draw(start, stop)`` returns replicates start..stop-1 as an
    (n_max, models, reps, questions) array of category indices.
    ``reducers(method, start, stop)`` makes a method's reducers for one
    chunk as a dict by name; each one's ``add(n, scores, counts)`` receives
    the (reps, models) scores and the (models, reps, questions, C) running
    counts at each n from the method's onset, and its ``result()`` is the
    chunk's partial. Returns, per method, one ``{name: partial}`` dict per
    chunk, in chunk order whatever ``threads``.
    """
    cats = np.arange(1, num_categories)

    def worker(span) -> list[dict]:
        start, stop = span
        trials = draw(start, stop)
        counts = np.zeros(trials.shape[1:] + (cats.size,), dtype=np.int64)
        chunk_reducers = [reducers(m, start, stop) for m in methods]
        for n in range(1, n_max + 1):
            counts += trials[n - 1, ..., None] == cats
            for m, reds in zip(methods, chunk_reducers):
                if n >= max(1, m.min_trials):
                    scores = m.scores_from_counts(counts, n, num_categories).T
                    for red in reds.values():
                        red.add(n, scores, counts)
        return [{name: red.result() for name, red in reds.items()} for reds in chunk_reducers]

    spans = [(s, min(s + chunk, replicates)) for s in range(0, replicates, chunk)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(zip(*ex.map(worker, spans)))
    return list(zip(*map(worker, spans)))


class _TauSums:
    """Reducer: per-n sum, sum of squares and count of valid tau-b values
    over a chunk's first ``rows`` replicates."""

    def __init__(self, pairs, n_max: int, rows: int):
        self.pairs, self.rows, self.acc = pairs, rows, np.zeros((3, n_max + 1))

    def add(self, n: int, scores: np.ndarray, counts: np.ndarray) -> None:
        tau, valid = _tau_against_gold(scores[: self.rows], *self.pairs)
        self.acc[:, n] = tau[valid].sum(), (tau[valid] ** 2).sum(), valid.sum()

    def result(self) -> np.ndarray:
        return self.acc


def _gold_matcher(gold: RankTable, model_ids, method: Method, ci_z, num_categories):
    """``match(n, scores, counts)``: which replicates rank like ``gold`` at n,
    by point ranking or, with ``ci_z``, by CI-tied ranking at that z."""
    gold_ranks = np.asarray(gold.rank_vector(model_ids))
    if ci_z is None:
        perm = np.argsort(gold_ranks, kind="stable")
        strict = np.diff(gold_ranks[perm]) > 0
        return lambda n, scores, counts: _match_gold(scores, perm, strict)

    def match(n, scores, counts):
        sigma = method.sigmas_from_counts(counts, n, num_categories).T
        return _match_gold_ci(scores, sigma, ci_z, gold_ranks)

    return match


class _GoldMatch:
    """Reducer: convergence point and censored flag of a chunk's first
    ``rows`` replicates.

    A replicate converges one past its last prefix (n >= lo) whose ranking
    differs from gold, at lo if none does, and is censored if n_max does.
    """

    def __init__(self, match, lo: int, n_max: int, rows: int):
        self.matches_gold, self.lo, self.n_max, self.rows = match, lo, n_max, rows
        self.match = np.empty((rows, n_max - lo + 1), dtype=bool)

    def add(self, n: int, scores: np.ndarray, counts: np.ndarray) -> None:
        rows = self.rows
        self.match[:, n - self.lo] = self.matches_gold(n, scores[:rows], counts[:, :rows])

    def result(self):
        rev = ~self.match[:, ::-1]
        any_mm = rev.any(axis=1)
        # first mismatch scanning backwards = last mismatching prefix length
        last_mm = self.n_max - np.argmax(rev, axis=1)
        return np.where(any_mm, last_mm + 1, self.lo), any_mm & (last_mm == self.n_max)


def _reduce_replicates(
    draw, model_ids, methods, gold: RankTable, n_max: int, tau_reps: int, conv_reps: int,
    *, chunk: int, num_categories: int, threads: int = 1, ci_z: float | None = None,
):
    """One scan over replicates 0..max(tau_reps, conv_reps)-1.

    Returns, per method, the tau-b sums of the first ``tau_reps``
    replicates (a (3, n_max + 1) array, summed in chunk order so the float
    grouping is fixed) and the convergence points and censored flags of
    the first ``conv_reps``; either is None when its count is 0.
    """
    pairs = _pair_structure(gold, model_ids) if tau_reps else None
    for m in methods:
        m.check_defined(n_max, num_categories)

    def reducers(m, start: int, stop: int) -> dict:
        out = {}
        if start < tau_reps:
            out["tau"] = _TauSums(pairs, n_max, min(stop, tau_reps) - start)
        if start < conv_reps:
            match = _gold_matcher(gold, model_ids, m, ci_z, num_categories)
            out["conv"] = _GoldMatch(match, max(1, m.min_trials), n_max,
                                     min(stop, conv_reps) - start)
        return out

    partials = _scan(draw, num_categories, max(tau_reps, conv_reps), chunk, methods,
                     n_max, reducers, threads)
    tau, points = [], []
    for parts in partials:
        tau.append(sum(p["tau"] for p in parts if "tau" in p) if tau_reps else None)
        conv = [p["conv"] for p in parts if "conv" in p]
        points.append(tuple(map(np.concatenate, zip(*conv))) if conv_reps else None)
    return tau, points


# -- one scan for tau curves and convergence@n -------------------------------

@dataclass(frozen=True)
class ReplicateScan:
    """What one pass over shared replicates leaves for ``tau_curves`` and
    ``convergence_distributions``; made by ``scan_replicates``.

    ``tau_sums[name]`` is a method's (3, n_max + 1) per-n sum, sum of
    squares and count of valid tau-b values over the first
    ``tau_plan.replicates`` replicates; ``points[name]`` holds the
    convergence point and censored flag of each of the first
    ``convergence_plan.replicates``. The arrays are read-only.
    """

    model_ids: tuple[str, ...]
    methods: tuple[Method, ...]
    weights: WeightVector | None
    gold: RankTable
    n_max: int
    tau_plan: ResamplePlan | None
    convergence_plan: ResamplePlan | None
    ci_z: float | None
    tau_sums: Mapping[str, np.ndarray]
    points: Mapping[str, tuple[np.ndarray, np.ndarray]]


def scan_replicates(
    matrices,
    methods: Sequence[Method | str] | str,
    tau_plan: ResamplePlan | None = None,
    convergence_plan: ResamplePlan | None = None,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
    ci_z: float | None = None,
) -> ReplicateScan:
    """Draw, count and score every replicate of both plans in one pass.

    Replicate r of model s is keyed by (seed, scheme, r, s) alone, so the
    tau replicates are the first R_tau of the convergence replicates (or
    the other way round): one scan over max(R_tau, R_conv) replicates feeds
    each method's tau-b reducer the first R_tau of them and its gold-match
    reducer the first R_conv. A plan left as None gets no reducer. Pass the
    result as ``scan=`` to ``tau_curves`` and ``convergence_distributions``;
    both then read it instead of scanning. ``gold`` and ``ci_z`` are as in
    those functions.

    Raises:
        NegativeZError: ``ci_z`` not > 0, before any draw.
        InputError: no plan, or plans that differ in scheme, seed or
            trial budget.
    """
    if ci_z is not None and not ci_z > 0:
        raise NegativeZError(f"z threshold must be > 0, got {ci_z}")
    items = _model_items(matrices)
    methods = _as_methods(methods, weights)
    plans = [p for p in (tau_plan, convergence_plan) if p is not None]
    if not plans:
        raise InputError("a replicate scan needs a tau plan, a convergence plan or both")
    trials = items[0][1].trials
    if len({(p.scheme, p.seed, p.budget(trials)) for p in plans}) > 1:
        raise InputError("tau and convergence plans must share scheme, seed and n_max")
    n_max = plans[0].budget(trials)
    if gold is None:
        gold = gold_table(dict(items), n_max, weights)
    model_ids = tuple(mid for mid, _ in items)
    tau, points = _reduce_replicates(
        _resample_draw(items, plans[0], n_max), model_ids, methods, gold, n_max,
        tau_plan.replicates if tau_plan else 0,
        convergence_plan.replicates if convergence_plan else 0,
        chunk=_chunk_size(items, n_max), num_categories=items[0][1].num_categories,
        threads=threads, ci_z=ci_z,
    )
    tau_sums = {m.name: t for m, t in zip(methods, tau) if t is not None}
    conv_points = {m.name: p for m, p in zip(methods, points) if p is not None}
    for a in [*tau_sums.values(), *(a for p in conv_points.values() for a in p)]:
        a.setflags(write=False)
    return ReplicateScan(
        model_ids, tuple(methods), weights, gold, n_max, tau_plan, convergence_plan, ci_z,
        MappingProxyType(tau_sums), MappingProxyType(conv_points),
    )


def _served_methods(scan: ReplicateScan, artifact, matrices, methods, plan, weights, gold,
                    ci_z=None) -> list[Method]:
    """The requested methods, once ``scan`` is shown to hold ``artifact``
    ("tau" or "convergence") for exactly these arguments."""
    methods = _as_methods(methods, weights)
    made_with = scan.tau_plan if artifact == "tau" else scan.convergence_plan
    if not (
        plan == made_with
        and tuple(mid for mid, _ in _model_items(matrices)) == scan.model_ids
        and weights == scan.weights
        and (gold is None or gold == scan.gold)
        and (artifact == "tau" or ci_z == scan.ci_z)
        and all(m in scan.methods for m in methods)
    ):
        raise InputError(f"the replicate scan was not made for this {artifact} request")
    return methods


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

    def at(self, n: int) -> TauPoint:
        for p in self.points:
            if p.n == n:
                return p
        raise KeyError(n)

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


def _tau_curve(m: Method, total: np.ndarray, n_max: int, scheme: str) -> TauCurve:
    points = []
    for n in range(max(1, m.min_trials), n_max + 1):
        s, ss, cnt = total[0, n], total[1, n], total[2, n]
        if cnt == 0:
            continue
        mean = s / cnt
        var = max(ss / cnt - mean * mean, 0.0)
        stderr = math.sqrt(var / cnt) if cnt > 1 else 0.0
        # subset estimators rank from a single subset at n == k
        onset = m.k is not None and m.kind != "naive_pass_hat_k" and n == m.k
        points.append(TauPoint(n, mean, stderr, int(cnt), onset))
    return TauCurve(m.name, scheme, tuple(points))


def tau_curves_from_draws(
    draw, model_ids, methods, gold: RankTable, n_max: int, replicates: int, *,
    scheme: str, chunk: int, num_categories: int = 2, threads: int = 1,
) -> dict[str, TauCurve]:
    """Mean tau-b curves against ``gold`` over the replicates ``draw`` yields.

    ``draw(start, stop)`` returns replicates start..stop-1 as an
    (n_max, models, reps, questions) array of category indices, models in
    ``model_ids`` order. ``chunk`` replicates are drawn and reduced at a
    time, which fixes how the tau sums are grouped.
    """
    if replicates < 1:
        raise InputError("need at least one replicate")
    methods = _as_methods(methods)
    tau, _ = _reduce_replicates(
        draw, model_ids, methods, gold, n_max, replicates, 0,
        chunk=chunk, num_categories=num_categories, threads=threads,
    )
    return {m.name: _tau_curve(m, total, n_max, scheme) for m, total in zip(methods, tau)}


def tau_curves(
    matrices,
    methods: Sequence[Method | str] | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
    *,
    scan: ReplicateScan | None = None,
) -> dict[str, TauCurve]:
    """Mean tau-b curves of one or more methods over shared replicates.

    The reference ranking defaults to the posterior-mean ranking of the
    unresampled matrices at the trial budget; pass ``gold`` to compare
    against a known ground-truth ranking instead. Replicates where a
    method scores every model identically have no defined correlation
    and are excluded from that point's mean (their count shows up in
    ``valid_replicates``).

    Without ``scan`` this runs ``scan_replicates`` with ``plan`` as its
    only plan. With ``scan`` (made with this ``plan`` as its tau plan and
    the same matrices, methods and weights) it reads the tau sums of that
    pass, with the scan's gold, and draws nothing; ``threads`` is unused.
    """
    if scan is None:
        scan = scan_replicates(matrices, methods, plan, None, weights, threads, gold)
    methods = _served_methods(scan, "tau", matrices, methods, plan, weights, gold)
    return {
        m.name: _tau_curve(m, scan.tau_sums[m.name], scan.n_max, plan.scheme.value)
        for m in methods
    }


def tau_curve(
    matrices,
    method: Method | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
) -> TauCurve:
    """Single-method convenience wrapper around ``tau_curves``."""
    (m,) = _as_methods(method)
    return tau_curves(matrices, [m], plan, weights, threads, gold)[m.name]


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

    def to_report(self) -> dict:
        return {
            "method": self.method,
            "scheme": self.scheme,
            "n_max": self.n_max,
            "replicates": self.replicates,
            "mean_converged": self.mean_converged,
            "censored_mass": self.censored_mass,
            "pmf": [
                {"n": n, "pmf": float(self.pmf[n]), "cdf": float(self.cdf[n])}
                for n in range(1, self.n_max + 1)
            ],
        }


def convergence_distributions(
    matrices,
    methods: Sequence[Method | str] | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
    ci_z: float | None = None,
    *,
    scan: ReplicateScan | None = None,
) -> dict[str, ConvergenceDistribution]:
    """Convergence@n PMFs for one or more methods over shared replicates.

    By default replicate rankings are point-estimate rankings compared to
    the gold point ranking. ``ci_z`` switches the replicate side to
    CI-tied rankings at that z threshold, as ``rank_with_ci`` would rank
    them: ``bayes`` and ``avg`` use their closed-form sigma, subset
    estimators sigma 0. Both run on the same engine and replicates.

    Without ``scan`` this runs ``scan_replicates`` with ``plan`` as its
    only plan. With ``scan`` (made with this ``plan`` as its convergence
    plan and the same matrices, methods, weights and ``ci_z``) it reads the
    convergence points of that pass, with the scan's gold, and draws
    nothing; ``threads`` is unused.
    """
    if scan is None:
        scan = scan_replicates(matrices, methods, None, plan, weights, threads, gold, ci_z)
    methods = _served_methods(scan, "convergence", matrices, methods, plan, weights, gold, ci_z)
    out = {}
    for m in methods:
        conv, censored = scan.points[m.name]
        hist = np.bincount(conv[~censored], minlength=scan.n_max + 2)[: scan.n_max + 1]
        out[m.name] = ConvergenceDistribution(
            m.name, plan.scheme.value, scan.n_max, hist.astype(np.int64),
            int(censored.sum()), plan.replicates,
        )
    return out


def convergence_at_n(
    matrices,
    method: Method | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
    ci_z: float | None = None,
) -> ConvergenceDistribution:
    """Single-method convenience wrapper around ``convergence_distributions``."""
    (m,) = _as_methods(method)
    return convergence_distributions(
        matrices, [m], plan, weights, threads, gold, ci_z
    )[m.name]


# -- worst-case trajectory ----------------------------------------------------

@dataclass(frozen=True)
class WorstCaseTrajectory:
    """Full rank-table sequence of the slowest-converging replicate."""

    method: str
    scheme: str
    replicate_index: int
    n_start: int
    convergence_n: int | None       # None means censored at n_max
    tables: tuple[RankTable, ...]   # one per n in n_start..n_max

    @property
    def censored(self) -> bool:
        return self.convergence_n is None

    def to_report(self) -> dict:
        return {
            "method": self.method,
            "scheme": self.scheme,
            "replicate_index": self.replicate_index,
            "convergence_n": self.convergence_n,
            "censored": self.censored,
            "trajectory": [
                {"N": self.n_start + i, **t.to_report()} for i, t in enumerate(self.tables)
            ],
        }


def worst_case_trajectory(
    matrices,
    method: Method | str,
    plan: ResamplePlan,
    weights: WeightVector | None = None,
    threads: int = 1,
    gold: RankTable | None = None,
) -> WorstCaseTrajectory:
    """Rank tables per trial count for the replicate slowest to converge.

    Censored replicates rank worse than any converged one; ties break
    toward the lowest replicate index.
    """
    (m,) = _as_methods(method, weights)
    scan = scan_replicates(matrices, [m], None, plan, weights, threads, gold)
    conv, censored = scan.points[m.name]
    items, n_max = _model_items(matrices), scan.n_max
    key = np.where(censored, n_max + 1, conv)
    worst_rep = int(np.argmax(key))  # first occurrence wins
    conv_n = None if censored[worst_rep] else int(conv[worst_rep])

    lo = max(1, m.min_trials)
    resampled = [resample(mx, plan, worst_rep, stream=s) for s, (_, mx) in enumerate(items)]
    tables = tuple(
        rank_without_ci([
            ScoredModel(mid, m.score(rx.prefix(n)), 0.0) for (mid, _), rx in zip(items, resampled)
        ])
        for n in range(lo, n_max + 1)
    )
    return WorstCaseTrajectory(m.name, plan.scheme.value, worst_rep, lo, conv_n, tables)
