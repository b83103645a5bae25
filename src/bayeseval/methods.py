"""Metric specs shared by the CLI and the resampling engines.

A method wraps two evaluation surfaces: whole-matrix scoring (used by the
``eval``/``rank`` commands) and vectorized scoring from per-category
count tensors (used by the bootstrap engine, where thousands of replicate
prefixes are scored at once). Both give the same score for the same
counts: the pass family reads ``passk`` kernels either way, and ``bayes``
and ``avg`` take mu and sigma from ``bayes.posterior_moments`` either way,
on exact integer moment sums that no question order changes.

Method spec grammar: ``bayes``, ``avg``, ``pass@K``, ``pass^K``,
``naive^K``, ``gpass@K:TAU``, ``mgpass@K``. TAU parses as a decimal or a
fraction such as ``1/2``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import passk
from .bayes import (avg_sigma_from_bayes, evaluate_performance, moment_sums,
                    naive_weighted_average, posterior_moments, weighted_total)
from .errors import InputError, MethodUndefinedError
from .model import UNIFORM, ResultsMatrix, WeightVector

__all__ = ["Method", "parse_method", "parse_methods"]


@dataclass(frozen=True)
class Method:
    """A named scoring rule with its minimum defined trial count."""

    name: str
    kind: str                    # bayes | avg | pass_at_k | pass_hat_k | naive_pass_hat_k | g_pass_at_k_tau | mg_pass_at_k
    k: int | None = None
    tau: Fraction | None = None
    weights: WeightVector | None = None

    @property
    def moment_based(self) -> bool:
        """``bayes`` or ``avg``: any C, and scores from category totals alone."""
        return self.kind in ("bayes", "avg")

    @property
    def min_trials(self) -> int:
        if self.kind == "bayes":
            return 0
        if self.kind in ("avg", "naive_pass_hat_k"):
            return 1
        return self.k  # subset estimators need n >= k

    def check_defined(self, trials: int, num_categories: int) -> None:
        if trials < self.min_trials:
            raise MethodUndefinedError(
                f"{self.name} undefined at N={trials} (needs N >= {self.min_trials})"
            )
        if not self.moment_based and num_categories != 2:
            raise MethodUndefinedError(f"{self.name} requires binary outcomes (C = 1)")

    def score(self, matrix: ResultsMatrix) -> float:
        """Point score of one model's full matrix."""
        self.check_defined(matrix.trials, matrix.num_categories)
        if self.kind == "bayes":
            return evaluate_performance(matrix, UNIFORM, self._weights_for(matrix)).mu
        if self.kind == "avg":
            return naive_weighted_average(matrix, self._weights_for(matrix))
        # pass family: the estimator in ``passk`` is named after the kind
        tally = passk.BinaryTally.from_matrix(matrix)
        tau = () if self.tau is None else (self.tau,)
        return getattr(passk, self.kind)(tally, self.k, *tau)

    def _weights_for(self, matrix: ResultsMatrix) -> WeightVector:
        return self.weights or WeightVector.identity(matrix.num_categories)

    def score_with_sigma(self, matrix: ResultsMatrix) -> tuple[float, float]:
        """Point score plus posterior uncertainty where the method has one.

        Posterior-based methods carry their closed-form sigma (the naive
        average inherits it through the exact scale factor); subset
        estimators report zero.
        """
        if not self.moment_based:
            return self.score(matrix), 0.0
        self.check_defined(matrix.trials, matrix.num_categories)
        s = evaluate_performance(matrix, UNIFORM, self._weights_for(matrix))
        if self.kind == "bayes":
            return s.mu, s.sigma
        return self.score(matrix), avg_sigma_from_bayes(s.sigma, matrix.trials, matrix.num_categories)

    # -- vectorized scoring over count tensors -------------------------------

    def scores_from_counts(
        self, counts: np.ndarray, trials: int, num_categories: int
    ) -> np.ndarray:
        """Scores from per-category counts of categories 1..C.

        ``counts`` has shape (..., M, C); the trailing axes are question
        and category (category 0 is implicit as ``trials - sum``).
        Returns (...) scores: ``bayes``/``avg`` via ``scores_from_totals``.
        """
        if self.moment_based:
            totals = np.einsum("...mc->...c", counts)
            return self.scores_from_totals(totals, counts.shape[-2], trials, num_categories)
        self.check_defined(trials, num_categories)
        table = passk.score_table(self.kind, trials, self.k, self.tau)
        return table[counts[..., 0]].mean(axis=-1)

    def scores_from_totals(self, totals: np.ndarray, questions: int, trials: int,
                           num_categories: int) -> np.ndarray:
        """``bayes`` or ``avg`` scores (...) from (..., C) int64 totals of categories
        1..C over ``questions`` questions of ``trials`` trials: the bits of
        ``evaluate_performance`` / ``naive_weighted_average``, in any question order."""
        self.check_defined(trials, num_categories)
        w, m = self._weight_array(num_categories), questions
        if self.kind == "bayes":
            # uniform prior: posterior counts are counts + 1, T = 1 + C + N
            return posterior_moments(totals + m, None, w, m, num_categories + trials)[0]
        n0 = m * trials - totals.sum(axis=-1)
        return weighted_total(totals, w[1:], n0 * w[0]) / (m * trials)

    def sigmas_from_counts(
        self, counts: np.ndarray, trials: int, num_categories: int
    ) -> np.ndarray:
        """Posterior sigmas from the same counts as ``scores_from_counts``.

        ``posterior_moments`` on the ``moment_sums`` of the uniform-prior
        counts ``counts + 1``: the whole matrix's sigma bits, in any question
        order. ``avg`` scales it by ``avg_sigma_from_bayes``; subset
        estimators have zero sigma.
        """
        self.check_defined(trials, num_categories)
        if not self.moment_based:
            return np.zeros(counts.shape[:-2])
        t, m = num_categories + trials, counts.shape[-2]
        w = self._weight_array(num_categories)
        _, sigma = posterior_moments(*moment_sums(counts + 1, t), w, m, t)
        return avg_sigma_from_bayes(sigma, trials, num_categories) if self.kind == "avg" else sigma

    def _weight_array(self, num_categories: int) -> np.ndarray:
        w = np.asarray((self.weights or WeightVector.identity(num_categories)).weights)
        if w.shape[0] != num_categories:
            raise InputError(f"{w.shape[0]} weights for {num_categories} categories")
        return w


_PATTERNS = (
    (re.compile(r"^bayes$"), "bayes"),
    (re.compile(r"^avg$"), "avg"),
    (re.compile(r"^pass@(\d+)$"), "pass_at_k"),
    (re.compile(r"^pass\^(\d+)$"), "pass_hat_k"),
    (re.compile(r"^naive\^(\d+)$"), "naive_pass_hat_k"),
    (re.compile(r"^gpass@(\d+):([0-9./]+)$"), "g_pass_at_k_tau"),
    (re.compile(r"^mgpass@(\d+)$"), "mg_pass_at_k"),
)


def _parse_tau(text: str) -> Fraction:
    try:
        tau = Fraction(text) if "/" in text else passk.tau_fraction(float(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse tolerance {text!r}") from exc
    if not 0 < tau <= 1:
        raise InputError(f"tolerance must be in (0, 1], got {text}")
    return tau


def parse_method(spec: str, weights: WeightVector | None = None) -> Method:
    """Parse a method spec string.

    Raises:
        InputError: unparseable spec or invalid parameters.
    """
    spec = spec.strip()
    for pattern, kind in _PATTERNS:
        m = pattern.match(spec)
        if not m:
            continue
        if kind in ("bayes", "avg"):
            return Method(spec, kind, weights=weights)
        k = int(m.group(1))
        if k < 1:
            raise InputError(f"k must be >= 1 in {spec!r}")
        if kind == "mg_pass_at_k" and k < 2:
            raise InputError(f"mgpass needs k >= 2, got {spec!r}")
        tau = _parse_tau(m.group(2)) if kind == "g_pass_at_k_tau" else None
        canonical = f"gpass@{k}:{tau}" if tau is not None else spec
        return Method(canonical, kind, k=k, tau=tau)
    raise InputError(
        f"cannot parse method {spec!r}; expected bayes, avg, pass@K, pass^K, "
        f"naive^K, gpass@K:TAU, or mgpass@K"
    )


def parse_methods(specs: str | list[str], weights: WeightVector | None = None) -> list[Method]:
    if isinstance(specs, str):
        specs = [s for s in specs.split(",") if s.strip()]
    return [parse_method(s, weights) for s in specs]
