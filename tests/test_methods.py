import numpy as np
import pytest

from bayeseval.bayes import avg_sigma_from_bayes, evaluate_performance
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
