import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kendalltau

from bayeseval.errors import (
    AllTiedError,
    LengthMismatchError,
    InputError,
    NegativeZError,
    NonFiniteScoreError,
    NotReachableError,
)
from bayeseval.methods import parse_method
from bayeseval.model import WeightVector, validate_matrix
from bayeseval.ranking import (
    RankTable,
    ScoredModel,
    kendall_tau_b,
    min_trials_for_confidence,
    rank_with_ci,
    rank_without_ci,
    ranking_confidence,
    z_score,
)


def kendall_tau_a(a, b):
    """Tie-unadjusted variant ``(n_c - n_d) / n0`` by pair enumeration."""
    n = len(a)
    s = sum(
        ((a[i] > a[j]) - (a[i] < a[j])) * ((b[i] > b[j]) - (b[i] < b[j]))
        for i, j in combinations(range(n), 2)
    )
    return s / (n * (n - 1) // 2)


def pair_counting_oracle(a, b):
    """Tau-b by literal pair classification: walk every index pair, count
    concordant, discordant, and within-ranking ties."""
    n = len(a)
    nc = nd = ties_a = ties_b = 0
    for i, j in combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0:
            ties_a += 1
        if db == 0:
            ties_b += 1
        if da == 0 or db == 0:
            continue
        if (da > 0) == (db > 0):
            nc += 1
        else:
            nd += 1
    n0 = n * (n - 1) // 2
    return (nc - nd) / math.sqrt((n0 - ties_a) * (n0 - ties_b))


class TestZScore:
    def test_close_pair(self):
        a = ScoredModel("a", 0.6213, 0.00824)
        b = ScoredModel("b", 0.608, 0.00824)
        assert abs(z_score(a, b) - 1.141) < 0.005

    def test_identical_models(self):
        m = ScoredModel("m", 0.4, 0.1)
        assert z_score(m, m) == 0.0

    def test_unit_sigmas(self):
        a = ScoredModel("a", 1.645 * math.sqrt(2), 1.0)
        b = ScoredModel("b", 0.0, 1.0)
        assert abs(z_score(a, b) - 1.645) < 1e-12

    def test_degenerate_uncertainty(self):
        assert z_score(ScoredModel("a", 0.3), ScoredModel("b", 0.2)) == math.inf
        assert z_score(ScoredModel("a", 0.3), ScoredModel("b", 0.3)) == 0.0


class TestRankingConfidence:
    def test_anchor_values(self):
        assert abs(ranking_confidence(1.645) - 0.95) < 2e-5
        assert abs(ranking_confidence(1.96) - 0.975) < 2e-5

    def test_zero_is_coin_flip(self):
        assert ranking_confidence(0.0) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(NegativeZError):
            ranking_confidence(-0.1)

    def test_infinite_z(self):
        assert ranking_confidence(math.inf) == 1.0


def models(mus, sigmas=None):
    sigmas = sigmas or [0.0] * len(mus)
    return [ScoredModel(f"m{i}", mu, s) for i, (mu, s) in enumerate(zip(mus, sigmas))]


class TestRankWithoutCI:
    def test_exact_tie_shares_dense_rank(self):
        t = rank_without_ci(models([0.7, 0.5, 0.5, 0.2]))
        assert [e.rank for e in t.entries] == [1, 2, 2, 3]

    def test_single_model(self):
        t = rank_without_ci(models([0.4]))
        assert [e.rank for e in t.entries] == [1]

    def test_sorted_descending(self):
        t = rank_without_ci(models([0.1, 0.9, 0.5]))
        assert [e.mu for e in t.entries] == [0.9, 0.5, 0.1]

    def test_stable_for_equal_mu(self):
        t = rank_without_ci(models([0.5, 0.5]))
        assert [e.model_id for e in t.entries] == ["m0", "m1"]

    @pytest.mark.parametrize(
        "mu, sigma", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)]
    )
    def test_non_finite_scores_rejected(self, mu, sigma):
        # a NaN would otherwise sort as an ordinary value: 0.5, nan, 0.7 ranked 1, 2, 3
        with pytest.raises(NonFiniteScoreError) as info:
            ScoredModel("m", mu, sigma)
        assert isinstance(info.value, InputError)


class TestRankWithCI:
    def test_small_z_ties(self):
        ms = models([0.6213, 0.608], [0.00824, 0.00824])
        t = rank_with_ci(ms, 1.645)
        assert [e.rank for e in t.entries] == [1, 1]

    def test_clear_separation(self):
        ms = models([0.9, 0.1], [0.1, 0.1])
        t = rank_with_ci(ms, 1.645)
        assert [e.rank for e in t.entries] == [1, 2]

    def test_zero_sigma_matches_point_ranking(self):
        ms = models([0.9, 0.5, 0.1])
        with_ci = rank_with_ci(ms, 1.645)
        without = rank_without_ci(ms)
        assert with_ci.ranks() == without.ranks()

    def test_chained_ties(self):
        # consecutive pairs within threshold chain into one group even
        # when the ends are far apart
        ms = models([0.50, 0.49, 0.48], [0.01, 0.01, 0.01])
        t = rank_with_ci(ms, 1.645)
        assert [e.rank for e in t.entries] == [1, 1, 1]

    def test_clique_mode_breaks_long_chains(self):
        # ends of the chain are ~1.41 sigma-units apart pairwise but the
        # extremes differ by ~2.8; clique mode refuses to tie them
        ms = models([0.50, 0.48, 0.46], [0.01, 0.01, 0.01])
        chained = rank_with_ci(ms, 1.645)
        cliques = rank_with_ci(ms, 1.645, clique=True)
        assert [e.rank for e in chained.entries] == [1, 1, 1]
        assert [e.rank for e in cliques.entries] == [1, 1, 2]

    @pytest.mark.parametrize("z", [0.0, -1.0, math.nan])
    def test_threshold_must_be_positive(self, z):
        # z >= nan is never true, so a NaN threshold would tie every model
        with pytest.raises(NegativeZError):
            rank_with_ci(models([0.9, 0.1], [0.01, 0.01]), z)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            ms = models(rng.uniform(0, 1, k).tolist(), rng.uniform(0.01, 0.2, k).tolist())
            prev_groups = None
            for z in (0.5, 1.0, 1.645, 2.5, 4.0):
                ranks = rank_with_ci(ms, z)
                n_groups = max(e.rank for e in ranks.entries)
                if prev_groups is not None:
                    assert n_groups <= prev_groups
                prev_groups = n_groups

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            mus = rng.uniform(0, 1, k).tolist()
            sig = rng.uniform(0.01, 0.1, k).tolist()
            scale, shift = float(rng.uniform(0.5, 3)), float(rng.normal())
            base = models(mus, sig)
            moved = models(
                [scale * m + shift for m in mus], [scale * s for s in sig]
            )
            assert rank_without_ci(base).ranks() == rank_without_ci(moved).ranks()
            assert rank_with_ci(base, 1.645).ranks() == rank_with_ci(moved, 1.645).ranks()


class TestKendallTauB:
    def test_identity(self):
        assert kendall_tau_b([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversal(self):
        assert kendall_tau_b([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_tie_example(self):
        got = kendall_tau_b([1, 2, 3, 4], [1, 2, 2, 3])
        assert abs(got - 5 / math.sqrt(30)) < 1e-12

    def test_symmetry(self):
        a, b = [1, 3, 2, 2], [2, 1, 4, 4]
        assert kendall_tau_b(a, b) == kendall_tau_b(b, a)

    def test_self_correlation_with_ties(self):
        assert kendall_tau_b([1, 2, 2, 3], [1, 2, 2, 3]) == 1.0

    def test_all_tied_rejected(self):
        with pytest.raises(AllTiedError):
            kendall_tau_b([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kendall_tau_b([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatchError):
            kendall_tau_b([1], [1])

    def test_against_pair_counting_and_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = rng.integers(1, 5, n).tolist()
            b = rng.integers(1, 5, n).tolist()
            if len(set(a)) == 1 or len(set(b)) == 1:
                continue
            mine = kendall_tau_b(a, b)
            assert abs(mine - pair_counting_oracle(a, b)) < 1e-12
            assert abs(mine - kendalltau(a, b, variant="b").statistic) < 1e-12

    def test_tau_a_helper(self):
        assert kendall_tau_a([1, 2, 3], [1, 2, 3]) == 1.0
        assert kendall_tau_a([1, 2, 3], [3, 2, 1]) == -1.0
        # ties dilute tau-a but not tau-b on the untied ranking
        assert kendall_tau_a([1, 2, 3, 4], [1, 2, 2, 3]) == 5 / 6


class TestMinTrials:
    def test_mapping_input(self):
        sigma = {10: 0.5, 20: 0.3, 40: 0.2, 80: 0.1}
        assert min_trials_for_confidence(0.4, sigma, 1.645) == 40

    def test_callable_input(self):
        assert min_trials_for_confidence(1.0, lambda n: 1 / math.sqrt(n), 2.0) == 4

    def test_zero_gap_never_reaches(self):
        with pytest.raises(NotReachableError):
            min_trials_for_confidence(0.0, lambda n: 1 / n, 1.645, n_max=100)

    def test_budget_exhausted(self):
        with pytest.raises(NotReachableError):
            min_trials_for_confidence(0.01, lambda n: 1.0, 1.645, n_max=50)


class TestRankTable:
    def test_report_shape(self):
        t = rank_without_ci(models([0.7, 0.2]))
        rep = t.to_report()
        assert rep["entries"][0] == {"model": "m0", "rank": 1, "mu": 0.7, "sigma": 0.0}

    def test_rank_vector_order(self):
        t = rank_without_ci(models([0.1, 0.9]))
        assert t.rank_vector(["m0", "m1"]) == [2, 1]


@st.composite
def permuted_cohort(draw, categories=st.integers(2, 5)):
    """Four models' matrices, each also with its rows permuted, and tenths weights."""
    k, m, n = draw(categories), draw(st.integers(1, 9)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [rng.integers(0, k, size=(m, n)) for _ in range(4)]
    perms = [draw(st.permutations(range(m))) for _ in cells]
    w = WeightVector(tuple(draw(st.integers(-50, 50)) / 10 for _ in range(k)))
    return ([validate_matrix(c, k) for c in cells],
            [validate_matrix(c[list(p)], k) for c, p in zip(cells, perms)], w)


class TestQuestionOrderFreeRankings:
    @settings(max_examples=100, deadline=None)
    @given(permuted_cohort())
    def test_row_permutation_keeps_rank_tables(self, case):
        original, permuted, w = case
        for spec in ("bayes", "avg"):
            method = parse_method(spec, w)
            tables = [
                [ScoredModel(f"m{i}", *method.score_with_sigma(mx)) for i, mx in enumerate(mxs)]
                for mxs in (original, permuted)
            ]
            assert rank_without_ci(tables[0]) == rank_without_ci(tables[1])
            assert rank_with_ci(tables[0], 1.645) == rank_with_ci(tables[1], 1.645)

    @settings(max_examples=100, deadline=None)
    @given(permuted_cohort(categories=st.just(2)))
    def test_row_permutation_keeps_pass_family_scores_and_rank_tables(self, case):
        original, permuted, _ = case
        for spec in pass_family(original[0].trials):
            method = parse_method(spec)
            tables = [
                [ScoredModel(f"m{i}", *method.score_with_sigma(mx)) for i, mx in enumerate(mxs)]
                for mxs in (original, permuted)
            ]
            assert [(s.mu, s.sigma) for s in tables[0]] == [(s.mu, s.sigma) for s in tables[1]]
            assert rank_without_ci(tables[0]) == rank_without_ci(tables[1])
            assert rank_with_ci(tables[0], 1.645) == rank_with_ci(tables[1], 1.645)


def pass_family(n: int) -> list[str]:
    """Every pass-family kind at each k <= n (mgpass from k = 2)."""
    return [spec for k in range(1, n + 1)
            for spec in (f"pass@{k}", f"pass^{k}", f"naive^{k}", f"gpass@{k}:1/2",
                         f"gpass@{k}:0.3", f"mgpass@{k}")
            if k > 1 or not spec.startswith("mgpass")]
