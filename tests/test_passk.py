import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayeseval.bootstrap import ResamplePlan, tau_curves
from bayeseval.errors import (
    CategoryOutOfRangeError,
    KExceedsNError,
    KTooSmallError,
    KZeroError,
    TauOutOfRangeError,
    ZeroTrialsError,
)
from bayeseval.model import validate_matrix
from bayeseval.passk import (
    BinaryTally,
    g_pass_at_k_tau,
    mg_pass_at_k,
    naive_pass_hat_k,
    pass_at_k,
    pass_hat_k,
    score_table,
)

TOL = 1e-12


def subset_fraction(n, c, k, min_correct):
    """Exact fraction of k-subsets of n trials (c correct) with at least
    ``min_correct`` correct members, by explicit enumeration."""
    trials = [1] * c + [0] * (n - c)
    hits = total = 0
    for combo in combinations(range(n), k):
        total += 1
        if sum(trials[i] for i in combo) >= min_correct:
            hits += 1
    return hits / total


def one(n, c):
    return BinaryTally.from_counts([(n, c)])


# Pascal's triangle up to row 150, built by addition alone
PASCAL = [[1]]
for _ in range(150):
    PASCAL.append([a + b for a, b in zip([0] + PASCAL[-1], PASCAL[-1] + [0])])


def exact_values(n, c, k, tau):
    """Exact pass@k, pass^k, gpass@k:tau and mgpass@k of one (n, c) pair,
    from hits[j] = C(c, j) C(n - c, k - j), the k-subsets with j correct,
    read off Pascal's triangle; mgpass by its defining sum over thresholds."""
    hits = [PASCAL[c][j] * PASCAL[n - c][k - j] if j <= c and k - j <= n - c else 0
            for j in range(k + 1)]
    total = sum(hits)  # C(n, k) by Vandermonde's identity
    at_least = [sum(hits[i:]) for i in range(k + 2)]  # subsets with >= i correct
    lo = math.ceil(Fraction(k, 2)) + 1
    return {
        "pass_at_k": Fraction(at_least[1], total),
        "pass_hat_k": Fraction(hits[k], total),
        "g_pass_at_k_tau": Fraction(at_least[math.ceil(tau * k)], total),
        "mg_pass_at_k":
            Fraction(2, k) * sum(Fraction(at_least[i], total) for i in range(lo, k + 1)),
    }


ESTIMATORS = {
    "pass_at_k": pass_at_k,
    "pass_hat_k": pass_hat_k,
    "g_pass_at_k_tau": g_pass_at_k_tau,
    "mg_pass_at_k": mg_pass_at_k,
}


class TestBinaryTally:
    def test_counts_are_frozen_int64(self):
        t = BinaryTally.from_counts([(4, 2), (5, 0)])
        assert t.trials.dtype == t.correct.dtype == np.int64
        assert len(t) == 2 and t.min_trials == 4
        with pytest.raises(ValueError):
            t.correct[0] = 3

    @pytest.mark.parametrize("pairs", [[(4, 5)], [(4, 2), (3, -1)]])
    def test_rejects_counts_outside_zero_to_n(self, pairs):
        with pytest.raises(CategoryOutOfRangeError):
            BinaryTally.from_counts(pairs)

    def test_mixed_trial_counts_average_per_question(self):
        pairs = [(4, 2), (6, 2), (4, 2), (6, 5)]
        want = np.mean([pass_at_k(one(n, c), 2) for n, c in pairs])
        assert pass_at_k(BinaryTally.from_counts(pairs), 2) == want

    def test_score_table_matches_estimators(self):
        for n in (3, 80):
            table = score_table("mg_pass_at_k", n, 3)
            assert table.tolist() == [mg_pass_at_k(one(n, c), 3) for c in range(n + 1)]


class TestExactRounding:
    """Every table entry is the exact rational rounded to a float once."""

    @settings(deadline=None)
    @given(st.integers(1, 150), st.data())
    def test_tables_are_exact_and_estimators_gather_them(self, n, data):
        k = data.draw(st.integers(1, n), label="k")
        q = data.draw(st.integers(1, 8), label="tau denominator")
        tau = Fraction(data.draw(st.integers(1, q), label="tau numerator"), q)
        exact = [exact_values(n, c, k, tau) for c in range(n + 1)]
        correct = np.array(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=12),
                                     label="correct counts"))
        tally = BinaryTally(np.full(correct.size, n), correct)
        for kind, estimator in ESTIMATORS.items():
            if kind == "mg_pass_at_k" and k < 2:
                continue
            args = (tau,) if kind == "g_pass_at_k_tau" else ()
            table = score_table(kind, n, k, *args)
            assert table.tolist() == [float(e[kind]) for e in exact], kind
            assert estimator(tally, k, *args) == float(table[correct].mean()), kind

    def test_large_trial_count_tables_build_fast(self):
        # one row replicate of a pass@2 curve on 2,000 trials builds a table
        # for every n = 2..2,000
        rng = np.random.default_rng(3)
        mats = {f"m{i}": validate_matrix(rng.random((2, 2_000)) < 0.3 + 0.2 * i, 2)
                for i in range(3)}
        score_table.cache_clear()
        try:
            start = time.perf_counter()
            curve = tau_curves(mats, ["pass@2"], ResamplePlan("row", 1, seed=0))["pass@2"]
            elapsed = time.perf_counter() - start
        finally:
            score_table.cache_clear()
        assert curve.points[-1].n == 2_000
        assert elapsed < 8.0, elapsed


class TestPassAtK:
    def test_hand_example(self):
        assert abs(pass_at_k(one(4, 2), 2) - 5 / 6) < TOL

    def test_degenerate_tallies(self):
        assert pass_at_k(one(6, 0), 3) == 0.0
        assert pass_at_k(one(6, 6), 3) == 1.0

    def test_k1_is_accuracy(self):
        assert abs(pass_at_k(one(10, 3), 1) - 0.3) < TOL

    def test_k_bounds(self):
        with pytest.raises(KExceedsNError):
            pass_at_k(one(4, 2), 5)
        with pytest.raises(KZeroError):
            pass_at_k(one(4, 2), 0)

    def test_mean_over_questions(self):
        t = BinaryTally.from_counts([(4, 2), (4, 4)])
        assert abs(pass_at_k(t, 2) - (5 / 6 + 1) / 2) < TOL

    def test_from_matrix(self):
        m = validate_matrix([[0, 1, 1, 0], [1, 1, 1, 1]], 2)
        assert abs(pass_at_k(BinaryTally.from_matrix(m), 2) - (5 / 6 + 1) / 2) < TOL

    def test_large_n_against_exact(self):
        # a large n takes the same exact integer ratio as a small one
        n, c, k = 500, 120, 8
        exact = 1 - math.comb(n - c, k) / math.comb(n, k)
        assert abs(pass_at_k(one(n, c), k) - exact) < 1e-10


class TestPassHatK:
    def test_hand_example(self):
        assert abs(pass_hat_k(one(4, 2), 2) - 1 / 6) < TOL

    def test_all_correct(self):
        assert pass_hat_k(one(5, 5), 3) == 1.0

    def test_c_below_k_is_zero(self):
        assert pass_hat_k(one(5, 2), 3) == 0.0


class TestNaivePassHatK:
    def test_half(self):
        assert abs(naive_pass_hat_k(one(4, 2), 2) - 0.75) < TOL

    def test_extremes(self):
        assert naive_pass_hat_k(one(4, 0), 2) == 0.0
        assert naive_pass_hat_k(one(4, 4), 2) == 1.0

    def test_k1_recovers_accuracy(self):
        assert abs(naive_pass_hat_k(one(10, 3), 1) - 0.3) < TOL

    def test_zero_trials(self):
        with pytest.raises(ZeroTrialsError):
            naive_pass_hat_k(one(0, 0), 1)


class TestGPassAtKTau:
    def test_hand_example_half(self):
        assert abs(g_pass_at_k_tau(one(4, 2), 2, 0.5) - 5 / 6) < TOL

    def test_tau_one_equals_pass_hat(self):
        assert abs(g_pass_at_k_tau(one(4, 2), 2, 1.0) - 1 / 6) < TOL

    def test_no_correct_is_zero(self):
        for tau in (0.25, 0.5, 1.0):
            assert g_pass_at_k_tau(one(6, 0), 4, tau) == 0.0

    def test_tau_bounds(self):
        with pytest.raises(TauOutOfRangeError):
            g_pass_at_k_tau(one(4, 2), 2, 0.0)
        with pytest.raises(TauOutOfRangeError):
            g_pass_at_k_tau(one(4, 2), 2, 1.5)

    def test_float_tau_means_its_decimal(self):
        # 0.1 is stored as slightly more than 1/10; the threshold for k = 10
        # must still be ceil(10 * 1/10) = 1, which makes gpass equal pass@k
        assert g_pass_at_k_tau(one(10, 1), 10, 0.1) == pass_at_k(one(10, 1), 10) == 1.0
        texts = [f"0.{i:02d}" for i in range(5, 100, 5)] + ["0.3", "0.7", "1.0"]
        for k in range(1, 65):
            t = BinaryTally.from_counts([(k, c) for c in range(k + 1)])
            for text in texts:
                assert g_pass_at_k_tau(t, k, float(text)) == g_pass_at_k_tau(t, k, Fraction(text))

    def test_fraction_threshold_is_exact(self):
        # ceil(tau k) with tau = i/k must hit i exactly for every i
        for k in range(1, 20):
            for i in range(1, k + 1):
                got = g_pass_at_k_tau(one(k, k), k, Fraction(i, k))
                assert got == 1.0


class TestMgPassAtK:
    def test_single_term(self):
        assert abs(mg_pass_at_k(one(4, 2), 2) - 1 / 6) < TOL

    def test_all_correct_even_k_is_one(self):
        # every tolerance term is 1; the discrete sum has k/2 terms for
        # even k, so the metric hits 1 exactly there (and (k-1)/k for odd k)
        for k in (2, 4, 6):
            assert abs(mg_pass_at_k(one(6, 6), k) - 1.0) < TOL
        for k in (3, 5):
            assert abs(mg_pass_at_k(one(6, 6), k) - (k - 1) / k) < TOL

    def test_hand_example_n6_c3_k4(self):
        assert abs(mg_pass_at_k(one(6, 3), 4) - 0.1) < TOL

    def test_k_too_small(self):
        with pytest.raises(KTooSmallError):
            mg_pass_at_k(one(5, 3), 1)

    def test_defining_sum(self):
        for n, c, k in ((8, 5, 4), (7, 3, 5), (6, 6, 3), (8, 2, 8)):
            lo = math.ceil(k / 2) + 1
            expected = 2 / k * sum(
                g_pass_at_k_tau(one(n, c), k, Fraction(i, k)) for i in range(lo, k + 1)
            )
            assert abs(mg_pass_at_k(one(n, c), k) - expected) < TOL


class TestSubsetEnumerationOracle:
    def test_exhaustive_small_n(self):
        for n in range(1, 9):
            for c in range(n + 1):
                t = one(n, c)
                for k in range(1, n + 1):
                    assert abs(pass_at_k(t, k) - subset_fraction(n, c, k, 1)) < TOL
                    assert abs(pass_hat_k(t, k) - subset_fraction(n, c, k, k)) < TOL
                    for j in range(1, k + 1):
                        tau = Fraction(j, k)
                        want = subset_fraction(n, c, k, math.ceil(tau * k))
                        assert abs(g_pass_at_k_tau(t, k, tau) - want) < TOL


class TestProperties:
    @given(st.integers(1, 12), st.data())
    def test_monotone_in_k_and_c(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        t = one(n, c)
        if k < n:
            assert pass_at_k(t, k + 1) >= pass_at_k(t, k) - TOL
            assert pass_hat_k(t, k + 1) <= pass_hat_k(t, k) + TOL
        if c < n:
            assert pass_at_k(one(n, c + 1), k) >= pass_at_k(t, k) - TOL
            assert pass_hat_k(one(n, c + 1), k) >= pass_hat_k(t, k) - TOL

    @given(st.integers(1, 10), st.data())
    def test_g_pass_monotone_in_tau(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        t = one(n, c)
        vals = [g_pass_at_k_tau(t, k, Fraction(j, k)) for j in range(1, k + 1)]
        assert all(a >= b - TOL for a, b in zip(vals, vals[1:]))

    @given(st.integers(1, 10), st.data())
    def test_outputs_in_unit_interval(self, n, data):
        c = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, n))
        t = one(n, c)
        for v in (
            pass_at_k(t, k),
            pass_hat_k(t, k),
            naive_pass_hat_k(t, k),
            g_pass_at_k_tau(t, k, 0.5),
        ):
            assert -TOL <= v <= 1 + TOL

    def test_boundary_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            c = int(rng.integers(0, n + 1))
            t = one(n, c)
            acc = c / n
            assert abs(pass_at_k(t, 1) - acc) < TOL
            assert abs(pass_hat_k(t, 1) - acc) < TOL
            assert abs(naive_pass_hat_k(t, 1) - acc) < TOL
            assert abs(g_pass_at_k_tau(t, n, 1.0) - pass_hat_k(t, n)) < TOL
