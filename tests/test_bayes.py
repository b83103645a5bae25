import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayeseval.bayes import (
    affine_bridge,
    avg_sigma_from_bayes,
    evaluate_performance,
    naive_weighted_average,
)
from bayeseval.errors import WeightLengthMismatchError, ZeroTrialsError
from bayeseval.model import PriorData, UNIFORM, WeightVector, tally, validate_matrix

W01 = WeightVector.binary()
TOL = 1e-12


def bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def dirichlet_moment_oracle(matrix, prior, weights):
    """Independent first/second posterior moments from the standard
    Dirichlet mean and covariance, summed explicitly per question."""
    t = tally(matrix, prior)
    big_t = t.total
    w = np.asarray(weights.weights)
    m = matrix.questions
    mu = 0.0
    var = 0.0
    for alpha in range(m):
        nu = t.nu[alpha].astype(float)
        mu += float(w @ nu) / big_t
        cov = (np.diag(nu) * big_t - np.outer(nu, nu)) / (big_t**2 * (big_t + 1))
        var += float(w @ cov @ w)
    return mu / m, var / (m * m)


def random_instance(rng, c_max=4):
    m = int(rng.integers(1, 21))
    n = int(rng.integers(0, 51))
    c = int(rng.integers(1, c_max + 1))
    cells = rng.integers(0, c + 1, size=(m, n))
    w = WeightVector(tuple(rng.normal(0, 3, size=c + 1)))
    return validate_matrix(cells, c + 1), w


class TestEvaluatePerformance:
    def test_no_data_uniform_prior_is_one_half(self):
        m = validate_matrix([[]], 2)
        assert evaluate_performance(m, UNIFORM, W01).mu == 0.5

    def test_beta_2_2_case(self):
        s = evaluate_performance(validate_matrix([[1, 0]], 2), UNIFORM, W01)
        assert abs(s.mu - 0.5) < TOL
        assert abs(s.sigma - math.sqrt(0.05)) < TOL

    def test_beta_3_1_case(self):
        s = evaluate_performance(validate_matrix([[1, 1]], 2), UNIFORM, W01)
        assert abs(s.mu - 0.75) < TOL
        assert abs(s.sigma**2 - 0.0375) < TOL

    def test_categorical_mean(self):
        w = WeightVector((0.0, 1.0, 2.0))
        s = evaluate_performance(validate_matrix([[2, 2, 1]], 3), UNIFORM, w)
        assert abs(s.mu - 8.0 / 6.0) < TOL

    def test_weight_length_checked(self):
        with pytest.raises(WeightLengthMismatchError):
            evaluate_performance(validate_matrix([[1, 0]], 2), UNIFORM, WeightVector((0, 1, 2)))

    def test_mu_within_weight_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            matrix, w = random_instance(rng)
            s = evaluate_performance(matrix, UNIFORM, w)
            assert min(w.weights) - TOL <= s.mu <= max(w.weights) + TOL
            assert s.sigma >= 0

    def test_binary_laplace_rule_oracle(self):
        # mean (c+1)/(N+2) and Beta(c+1, n0+1) variance per question
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 15))
            n = int(rng.integers(0, 30))
            cells = rng.integers(0, 2, size=(m, n))
            matrix = validate_matrix(cells, 2)
            s = evaluate_performance(matrix, UNIFORM, W01)
            c = cells.sum(axis=1) if n else np.zeros(m)
            a, b = c + 1.0, (n - c) + 1.0
            mu_oracle = float(np.mean(a / (a + b)))
            var_oracle = float(np.sum(a * b / ((a + b) ** 2 * (a + b + 1)))) / m**2
            assert abs(s.mu - mu_oracle) < TOL
            assert abs(s.sigma**2 - var_oracle) < TOL

    def test_dirichlet_covariance_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            matrix, w = random_instance(rng)
            d = int(rng.integers(0, 8))
            prior = (
                PriorData.from_matrix(
                    rng.integers(0, matrix.num_categories, size=(matrix.questions, d)),
                    matrix.num_categories,
                )
                if d
                else UNIFORM
            )
            s = evaluate_performance(matrix, prior, w)
            mu_oracle, var_oracle = dirichlet_moment_oracle(matrix, prior, w)
            assert abs(s.mu - mu_oracle) < TOL
            assert abs(s.sigma**2 - var_oracle) < TOL

    def test_prior_additivity(self):
        # scoring R with prior matrix R0 equals scoring [R0|R] with uniform prior
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(0, 15))
            d = int(rng.integers(1, 10))
            c = int(rng.integers(1, 4))
            r = rng.integers(0, c + 1, size=(m, n))
            r0 = rng.integers(0, c + 1, size=(m, d))
            w = WeightVector(tuple(rng.normal(0, 2, size=c + 1)))
            with_prior = evaluate_performance(
                validate_matrix(r, c + 1), PriorData.from_matrix(r0, c + 1), w
            )
            concat = evaluate_performance(
                validate_matrix(np.hstack([r0, r]), c + 1), UNIFORM, w
            )
            assert abs(with_prior.mu - concat.mu) < TOL
            assert abs(with_prior.sigma - concat.sigma) < TOL

    def test_translation_covariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            matrix, w = random_instance(rng)
            shift = float(rng.normal(0, 5))
            shifted = WeightVector(tuple(x + shift for x in w.weights))
            s0 = evaluate_performance(matrix, UNIFORM, w)
            s1 = evaluate_performance(matrix, UNIFORM, shifted)
            assert abs((s1.mu - s0.mu) - shift) < 1e-11
            assert abs(s1.sigma - s0.sigma) < 1e-12

    def test_constant_weights_give_constant_metric(self):
        m = validate_matrix([[0, 2, 1], [1, 1, 0]], 3)
        s = evaluate_performance(m, UNIFORM, WeightVector((2.5, 2.5, 2.5)))
        assert abs(s.mu - 2.5) < TOL
        assert s.sigma == 0.0

    def test_large_matrix_summation_path(self):
        # about 10^6 cells; a vectorized Laplace-rule oracle keeps the
        # check fast
        rng = np.random.default_rng(41)
        m, n = 1200, 900
        cells = (rng.random((m, n)) < 0.37).astype(np.int64)
        matrix = validate_matrix(cells, 2)
        s = evaluate_performance(matrix, UNIFORM, W01)
        c = cells.sum(axis=1)
        a, b = c + 1.0, (n - c) + 1.0
        mu_oracle = math.fsum((a / (a + b)).tolist()) / m
        var_oracle = math.fsum((a * b / ((a + b) ** 2 * (a + b + 1))).tolist()) / m**2
        assert abs(s.mu - mu_oracle) < TOL
        assert abs(s.sigma**2 - var_oracle) < TOL


@st.composite
def permuted_instance(draw):
    """A matrix, a prior, the same two with rows permuted, and tenths weights."""
    m, n, d, c = (draw(st.integers(lo, hi)) for lo, hi in ((1, 9), (1, 6), (0, 3), (1, 3)))
    grid = st.integers(0, c)
    cells = np.array(draw(st.lists(st.lists(grid, min_size=n, max_size=n), min_size=m, max_size=m)))
    prior = np.array(draw(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=m, max_size=m)))
    perm = draw(st.permutations(range(m)))
    w = WeightVector(tuple(draw(st.integers(-50, 50)) / 10 for _ in range(c + 1)))

    def build(order):
        rows = list(order)
        p = PriorData.from_matrix(prior[rows], c + 1) if d else UNIFORM
        return validate_matrix(cells[rows], c + 1), p

    return build(range(m)), build(perm), w


class TestQuestionOrder:
    @settings(max_examples=300)
    @given(permuted_instance())
    def test_row_permutation_keeps_mu_and_avg_bits(self, case):
        (x, px), (y, py), w = case
        assert evaluate_performance(x, px, w).mu == evaluate_performance(y, py, w).mu
        assert naive_weighted_average(x, w) == naive_weighted_average(y, w)

    @settings(max_examples=300)
    @given(permuted_instance())
    def test_row_permutation_keeps_sigma_bits(self, case):
        (x, px), (y, py), w = case
        sigmas = (evaluate_performance(x, px, w).sigma, evaluate_performance(y, py, w).sigma)
        assert bits(sigmas[0]) == bits(sigmas[1])


class TestSigmaAccuracy:
    def test_near_deterministic_rubric_matches_fraction_oracle(self):
        # 99% of rows all category 4: the float per-question variance form
        # cancels about four digits here; the integer moment sums do not
        rng = np.random.default_rng(5)
        m, n, w = 200, 10**4, WeightVector((0, 0, 1, 2, 3))
        cells = np.full((m, n), 4, dtype=np.int64)
        cells[:2] = rng.integers(0, 5, size=(2, n))
        matrix = validate_matrix(cells, 5)
        t = tally(matrix, UNIFORM)
        big_t, ws = t.total, [Fraction(x) for x in w.weights]
        var = Fraction(0)
        for row, count in Counter(map(tuple, t.nu.tolist())).items():
            first = sum(nu * x for nu, x in zip(row, ws))
            second = sum(nu * x * x for nu, x in zip(row, ws))
            var += count * (big_t * second - first * first)
        var /= big_t**2 * (big_t + 1) * m * m
        sigma = evaluate_performance(matrix, UNIFORM, w).sigma
        assert abs(Fraction(sigma) ** 2 - var) / var < Fraction(1, 10**15)


class TestNaiveAverage:
    def test_binary_fraction(self):
        assert naive_weighted_average(validate_matrix([[1, 0], [1, 1]], 2), W01) == 0.75

    def test_categorical_hand_value(self):
        w = WeightVector((0.0, 1.0, 2.0))
        assert naive_weighted_average(validate_matrix([[2, 0]], 3), w) == 1.0

    def test_all_wrong(self):
        assert naive_weighted_average(validate_matrix([[0, 0]], 2), W01) == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ZeroTrialsError):
            naive_weighted_average(validate_matrix([[]], 2), W01)


class TestAffineBridge:
    def test_binary_constants(self):
        a, scale = affine_bridge(2, 2, W01)
        assert a == 0.25 and scale == 0.5

    def test_large_n_limits(self):
        a, scale = affine_bridge(10**9, 2, W01)
        assert a < 1e-8 and scale > 1 - 1e-8

    def test_bridge_exact_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            matrix, w = random_instance(rng)
            if matrix.trials == 0:
                continue
            mu = evaluate_performance(matrix, UNIFORM, w).mu
            avg = naive_weighted_average(matrix, w)
            a, scale = affine_bridge(matrix.trials, matrix.num_categories, w)
            assert abs(mu - (a + scale * avg)) < TOL

    def test_order_equivalence(self):
        # same (M, N, C, w): posterior means order exactly as naive averages
        rng = np.random.default_rng(37)
        for _ in range(100):
            m, n, c = int(rng.integers(1, 8)), int(rng.integers(1, 12)), int(rng.integers(1, 4))
            w = WeightVector(tuple(rng.normal(0, 2, size=c + 1)))
            x = validate_matrix(rng.integers(0, c + 1, size=(m, n)), c + 1)
            y = validate_matrix(rng.integers(0, c + 1, size=(m, n)), c + 1)
            mu_gap = evaluate_performance(x, UNIFORM, w).mu - evaluate_performance(y, UNIFORM, w).mu
            avg_gap = naive_weighted_average(x, w) - naive_weighted_average(y, w)
            assert math.copysign(1, mu_gap) == math.copysign(1, avg_gap) or (
                abs(mu_gap) < TOL and abs(avg_gap) < TOL
            )


class TestAvgSigma:
    def test_scaling_factor(self):
        assert abs(avg_sigma_from_bayes(0.2236, 2, 2) - 0.4472) < 1e-12

    def test_zero_maps_to_zero(self):
        assert avg_sigma_from_bayes(0.0, 5, 2) == 0.0

    def test_factor_value(self):
        assert abs(avg_sigma_from_bayes(1.0, 98, 2) - 100.0 / 98.0) < TOL

    def test_zero_trials_rejected(self):
        with pytest.raises(ZeroTrialsError):
            avg_sigma_from_bayes(0.1, 0, 2)
