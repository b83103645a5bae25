import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeseval.bayes import avg_sigma_from_bayes, evaluate_performance, naive_weighted_average
from bayeseval.bootstrap import ResamplePlan, resample
from bayeseval.errors import InputError
from bayeseval.methods import parse_method
from bayeseval.model import WeightVector, validate_matrix

PASS_FAMILY = (
    "pass@1", "pass@4", "pass^3", "naive^4", "gpass@4:0.5", "gpass@8:0.3",
    "gpass@6:2/3", "mgpass@2", "mgpass@4", "mgpass@5", "mgpass@8",
)


def counts_of(matrices):
    """Stacked (models, M, C) category counts, as the engine keeps them."""
    return np.stack([
        np.stack([(mx.cells == j).sum(axis=1) for j in range(1, mx.num_categories)], axis=-1)
        for mx in matrices
    ])


@pytest.mark.parametrize("spec", [
    "pass@0", "naive^0", "mgpass@1", "gpass@4:0", "gpass@4:1.5", "gpass@4:1/0", "gpass@4:1..2",
])
def test_malformed_spec_rejected(spec):
    with pytest.raises(InputError):
        parse_method(spec)


class TestOneScoringPath:
    @pytest.mark.parametrize("spec", PASS_FAMILY)
    def test_score_equals_engine_scores_bit_for_bit(self, spec):
        method = parse_method(spec)
        rng = np.random.default_rng(sum(map(ord, spec)))
        for _ in range(40):
            m = int(rng.integers(1, 40))
            n = int(rng.choice([8, 12, 30, 80]))
            p = rng.random((3, m, 1))
            matrices = [validate_matrix((rng.random((m, n)) < q).astype(int), 2) for q in p]
            engine = method.scores_from_counts(counts_of(matrices), n, 2)
            assert engine.tolist() == [method.score(mx) for mx in matrices]


class TestSigmasFromCounts:
    @pytest.mark.parametrize("weights", [None, (0, 0, 1, 2, 3), (0.0, 0.25, 0.5, 1.3, 2.7)])
    def test_closed_form_matches_evaluate_performance(self, weights):
        rng = np.random.default_rng(11)
        wv = None if weights is None else WeightVector(tuple(map(float, weights)))
        matrices = [validate_matrix(rng.integers(0, 5, size=(17, 9)), 5) for _ in range(4)]
        for n in (1, 4, 9):
            sub = counts_of([mx.prefix(n) for mx in matrices])
            bayes = parse_method("bayes", wv).sigmas_from_counts(sub, n, 5)
            avg = parse_method("avg", wv).sigmas_from_counts(sub, n, 5)
            for i, mx in enumerate(matrices):
                s = evaluate_performance(mx.prefix(n), weights=wv).sigma
                assert bayes[i] == s
                assert avg[i] == avg_sigma_from_bayes(s, n, 5)

    def test_subset_estimators_have_zero_sigma(self):
        counts = np.zeros((3, 2, 6, 1), dtype=np.int64)
        assert parse_method("pass@2").sigmas_from_counts(counts, 4, 2).tolist() == [[0.0] * 2] * 3


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def resampled_cohort(draw, categories=st.integers(2, 5)):
    """Three resampled models (4 replicates each), tenths weights, a row order."""
    k, m, n = draw(categories), draw(st.integers(1, 9)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = ResamplePlan(draw(st.sampled_from(["row", "column"])), 4, seed=draw(st.integers(0, 99)))
    draws = [resample(rng.integers(0, k, size=(3, m, n)), plan, r) for r in range(4)]
    replicates = [[validate_matrix(d[:, s].T, k) for d in draws] for s in range(3)]
    w = WeightVector(tuple(draw(st.integers(-50, 50)) / 10 for _ in range(k)))
    return replicates, w, draw(st.permutations(range(m)))


class TestOrderFreeReplicateMeans:
    @settings(max_examples=150, deadline=None)
    @given(resampled_cohort())
    def test_question_order_free_and_equal_to_whole_matrix_scores(self, case):
        replicates, w, perm = case
        k, trials = replicates[0][0].num_categories, replicates[0][0].trials
        bayes, avg = parse_method("bayes", w), parse_method("avg", w)
        for n in range(1, trials + 1):
            prefixes = [[rx.prefix(n) for rx in reps] for reps in replicates]
            counts = np.stack([counts_of(reps) for reps in prefixes])  # (model, rep, M, C)
            shuffled = counts[:, :, list(perm)]
            for method in (bayes, avg):
                assert bits(method.scores_from_counts(shuffled, n, k)) == bits(
                    method.scores_from_counts(counts, n, k))
            assert bits(bayes.scores_from_counts(counts, n, k)) == bits(
                [[evaluate_performance(p, weights=w).mu for p in reps] for reps in prefixes])
            assert bits(avg.scores_from_counts(counts, n, k)) == bits(
                [[naive_weighted_average(p, w) for p in reps] for reps in prefixes])
            sigma = [[evaluate_performance(p, weights=w).sigma for p in reps] for reps in prefixes]
            avg_sigma = avg_sigma_from_bayes(np.array(sigma), n, k)
            for method, want in ((bayes, sigma), (avg, avg_sigma)):
                assert bits(method.sigmas_from_counts(shuffled, n, k)) == bits(
                    method.sigmas_from_counts(counts, n, k)) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(resampled_cohort(categories=st.just(2)), st.data())
    def test_pass_family_order_free_equal_to_whole_matrix_and_exact(self, case, data):
        replicates, _, perm = case
        trials = replicates[0][0].trials
        k = data.draw(st.integers(1, trials), label="k")
        for n in range(k, trials + 1):
            prefixes = [[rx.prefix(n) for rx in reps] for reps in replicates]
            counts = np.stack([counts_of(reps) for reps in prefixes])  # (model, rep, M, 1)
            shuffled = counts[:, :, list(perm)]
            for method in map(parse_method, pass_family(k)):
                got = method.scores_from_counts(counts, n, 2)
                assert bits(method.scores_from_counts(shuffled, n, 2)) == bits(got)
                assert bits(got) == bits([[method.score(p) for p in reps] for reps in prefixes])
                m = counts.shape[2]
                if m * denominator(method, n) < 2**53:
                    exact = [exact_value(method, n, c) for c in range(n + 1)]
                    want = [[float(sum(exact[c] for c in row) / m) for row in per_model]
                            for per_model in counts[..., 0]]
                    assert bits(got) == bits(want)


def pass_family(k: int) -> list[str]:
    specs = [f"pass@{k}", f"pass^{k}", f"naive^{k}", f"gpass@{k}:1/2", f"gpass@{k}:0.3"]
    return specs + [f"mgpass@{k}"] * (k > 1)


def exact_value(method, n: int, c: int) -> Fraction:
    """One question's exact value; at_least[i] is the share of the C(n, k)
    k-subsets with at least i correct, each j counting C(c, j) C(n - c, k - j)."""
    k = method.k
    if method.kind == "naive_pass_hat_k":
        return 1 - Fraction(n - c, n) ** k
    at_least = [Fraction(sum(math.comb(c, j) * math.comb(n - c, k - j) for j in range(i, k + 1)),
                         math.comb(n, k)) for i in range(k + 1)]
    if method.kind == "mg_pass_at_k":
        return Fraction(2, k) * sum(at_least[i] for i in range(math.ceil(Fraction(k, 2)) + 1, k + 1))
    threshold = {"pass_at_k": 1, "pass_hat_k": k}.get(method.kind) or math.ceil(method.tau * k)
    return at_least[threshold]


def denominator(method, n: int) -> int:
    """The one denominator of the method's per-question values at n trials."""
    if method.kind == "naive_pass_hat_k":
        return n ** method.k
    return math.comb(n, method.k) * (method.k if method.kind == "mg_pass_at_k" else 1)


class TestWideDenominators:
    """Shapes whose M * den passes 2^53 (int64 sums) and 2^63 (Python-int sums)."""

    @pytest.mark.parametrize("spec, questions, trials, lo, hi", [
        ("mgpass@8", 6_100, 100, 2**53, 2**63),
        ("pass@30", 50, 80, 2**63, None),
    ], ids=["int64-sum", "python-int-sum"])
    def test_order_free_and_engine_equals_whole_matrix(self, spec, questions, trials, lo, hi):
        method = parse_method(spec)
        total = questions * denominator(method, trials)
        assert lo <= total and (hi is None or total < hi)
        rng = np.random.default_rng(19)
        matrices = [validate_matrix(rng.random((questions, trials)) < rng.random((questions, 1)), 2)
                    for _ in range(3)]
        perm = rng.permutation(questions)
        counts = counts_of(matrices)
        whole = [method.score(mx) for mx in matrices]
        assert bits(method.scores_from_counts(counts, trials, 2)) == bits(whole)
        assert bits(method.scores_from_counts(counts[:, perm], trials, 2)) == bits(whole)
        assert bits([method.score(validate_matrix(mx.cells[perm], 2)) for mx in matrices]) == bits(whole)
        if hi is None:  # Python-int sums: the exact mean rounded once
            assert bits(whole) == bits([float(sum(exact_value(method, trials, int(c)) for c in row)
                                              / questions) for row in counts[..., 0]])
