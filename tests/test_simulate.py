import tracemalloc

import numpy as np
import pytest

from bayeseval import simulate
from bayeseval._rng import DOMAIN_FRESH, DOMAIN_SEPARATION, stream_rng
from bayeseval.errors import AllTiedError, InputError, ZeroTrialsError
from bayeseval.methods import parse_method
from bayeseval.model import validate_matrix
from bayeseval.ranking import ScoredModel, kendall_tau_b, rank_without_ci
from bayeseval.simulate import (
    REFERENCE_MEANS,
    CohortSpec,
    CoinModel,
    fresh_tau_curves,
    generate_cohort,
    gold_ranking,
    reference_cohort,
    sample_trials,
    separation_experiment,
)

# Expected gold ranks of the reference cohort, in model-index order
# (LLM1..LLM11): the tie sits at the shared mean 0.3642 and the 0.5418 /
# 0.5276 inversion puts LLM7 above LLM8.
REFERENCE_RANKS = {
    "LLM1": 10, "LLM2": 9, "LLM3": 8, "LLM4": 7, "LLM5": 7, "LLM6": 6,
    "LLM7": 4, "LLM8": 5, "LLM9": 3, "LLM10": 2, "LLM11": 1,
}


class TestCohorts:
    def test_reference_means_are_pinned(self):
        cohort = reference_cohort()
        assert len(cohort) == 11
        for model, want in zip(cohort, REFERENCE_MEANS):
            assert abs(model.true_mean - want) < 1e-12

    def test_reference_duplicate_pair_identical(self):
        cohort = reference_cohort()
        assert np.array_equal(cohort[3].probs, cohort[4].probs)
        assert cohort[3].true_mean == cohort[4].true_mean

    def test_reference_probs_in_open_interval(self):
        for model in reference_cohort():
            assert model.probs.min() > 0.0 and model.probs.max() < 1.0

    def test_generated_cohort_shape(self):
        cohort = generate_cohort(CohortSpec(seed=42))
        assert len(cohort) == 11
        assert all(m.questions == 30 for m in cohort)
        dup_pairs = [
            (i, j)
            for i in range(11)
            for j in range(i + 1, 11)
            if np.array_equal(cohort[i].probs, cohort[j].probs)
        ]
        assert dup_pairs == [(3, 4)]

    def test_generated_cohort_deterministic(self):
        a = generate_cohort(CohortSpec(seed=7))
        b = generate_cohort(CohortSpec(seed=7))
        for x, y in zip(a, b):
            assert np.array_equal(x.probs, y.probs)
        c = generate_cohort(CohortSpec(seed=8))
        assert not np.array_equal(a[0].probs, c[0].probs)

    def test_probabilities_within_unit_interval(self):
        for seed in range(5):
            for m in generate_cohort(CohortSpec(seed=seed)):
                assert m.probs.min() >= 0.0 and m.probs.max() <= 1.0

    def test_bad_spec_rejected(self):
        with pytest.raises(InputError):
            CohortSpec(questions=0)
        with pytest.raises(InputError):
            CohortSpec(shape_indices=(4, 18))


class TestSampleTrials:
    def test_degenerate_probabilities(self):
        ones = CoinModel("hi", np.ones(5))
        zeros = CoinModel("lo", np.zeros(5))
        assert sample_trials(ones, 7, seed=1).cells.min() == 1
        assert sample_trials(zeros, 7, seed=1).cells.max() == 0

    def test_determinism(self):
        m = reference_cohort()[0]
        a = sample_trials(m, 20, seed=5)
        b = sample_trials(m, 20, seed=5)
        assert np.array_equal(a.cells, b.cells)
        assert not np.array_equal(a.cells, sample_trials(m, 20, seed=6).cells)

    def test_row_means_converge_to_probabilities(self):
        model = reference_cohort()[8]
        n = 100_000
        mx = sample_trials(model, n, seed=3)
        rates = mx.cells.mean(axis=1)
        bound = 3 * np.sqrt(model.probs * (1 - model.probs) / n)
        assert (np.abs(rates - model.probs) <= bound + 1e-9).all()

    def test_zero_trials_rejected(self):
        with pytest.raises(ZeroTrialsError):
            sample_trials(reference_cohort()[0], 0, seed=1)


class TestGoldRanking:
    def test_reference_ranks(self):
        table = gold_ranking(reference_cohort())
        assert table.ranks() == REFERENCE_RANKS

    def test_single_model(self):
        t = gold_ranking([CoinModel("only", np.full(3, 0.5))])
        assert [e.rank for e in t.entries] == [1]

    def test_reversal_antisymmetry(self):
        cohort = reference_cohort()
        flipped = [CoinModel(m.model_id, 1.0 - m.probs) for m in cohort]
        fwd = gold_ranking(cohort).ranks()
        rev = gold_ranking(flipped).ranks()
        worst = max(fwd.values())
        for mid, r in fwd.items():
            # ties stay ties; strict order inverts
            assert (rev[mid] < rev["LLM11"]) == (r > fwd["LLM11"]) or mid == "LLM11"
        assert rev["LLM11"] == worst

    def test_positive_affine_invariance(self):
        cohort = reference_cohort()
        scaled = [CoinModel(m.model_id, 0.3 + 0.5 * m.probs) for m in cohort]
        assert gold_ranking(cohort).ranks() == gold_ranking(scaled).ranks()


class TestSeparationExperiment:
    def test_identical_models_near_half(self):
        cohort = reference_cohort()
        res = separation_experiment(cohort[3], cohort[4], [20], replicates=3000, seed=1)
        p = res.p_correct[0]
        se = 0.5 / np.sqrt(3000)
        assert abs(p - 0.5) <= 4 * se

    def test_well_separated_pair(self):
        cohort = reference_cohort()
        res = separation_experiment(cohort[10], cohort[0], [30], replicates=500, seed=2)
        assert res.p_correct[0] > 0.99

    def test_determinism_and_chunk_independence(self, monkeypatch):
        cohort = reference_cohort()
        results = []
        for chunk in (1, 7, 512):
            monkeypatch.setattr(simulate, "_separation_chunk", lambda *shape, c=chunk: c)
            results.append(
                separation_experiment(cohort[9], cohort[8], [10, 20], replicates=700, seed=9)
            )
        assert results[0] == results[1] == results[2]
        again = separation_experiment(cohort[9], cohort[8], [10, 20], replicates=700, seed=9)
        assert again == results[2]

    @pytest.mark.parametrize("n", [1, 80])
    def test_exact_ties_count_one_half(self, n):
        # redraw each replicate's trials from its one stream, both models
        # trial-major, and order the pair by integer correct totals; an
        # exact tie counts one half
        a, b = reference_cohort()[9], reference_cohort()[8]
        reps, seed = 3000, 0
        probs = np.stack([a.probs, b.probs])
        totals = np.array([
            (stream_rng(seed, DOMAIN_SEPARATION, r).random((n, 2, a.questions)) < probs)
            .sum(axis=(0, 2))
            for r in range(reps)
        ])
        wins, ties = (totals[:, 0] > totals[:, 1]).sum(), (totals[:, 0] == totals[:, 1]).sum()
        assert ties > 0
        res = separation_experiment(a, b, [n], replicates=reps, seed=seed)
        assert res.p_correct == ((wins + 0.5 * ties) / reps,)

    @pytest.mark.parametrize("wider", [[40, 80, 160], [1, 79, 80, 81, 300]])
    def test_point_does_not_depend_on_grid(self, wider):
        # a grid point scores a prefix of each replicate's trials, so it is
        # the same bits alone or inside a wider grid
        a, b = reference_cohort()[9], reference_cohort()[8]
        alone = separation_experiment(a, b, [80], replicates=300, seed=0)
        inside = separation_experiment(a, b, wider, replicates=300, seed=0)
        assert inside.at(80) == alone.at(80)

    def test_chunk_memory_bounded_by_bytes(self):
        # the counts of a chunk of replicates stay within the byte budget;
        # the fixed terms are one replicate's draw (float64 uniforms and
        # booleans, 9 bytes a cell), its int64 sums between grid points and
        # the (replicates, grid) |z| array
        grid, reps = list(range(1, 51)), 1000
        for questions in (100, 400):
            a = CoinModel("a", np.full(questions, 0.6))
            b = CoinModel("b", np.full(questions, 0.5))
            fixed = (9 * grid[-1] + 8 * len(grid)) * 2 * questions + 8 * reps * len(grid)
            separation_experiment(a, b, [1], replicates=1)  # numpy's first-draw imports
            tracemalloc.start()
            try:
                separation_experiment(a, b, grid, replicates=reps, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= simulate._CHUNK_BYTES + fixed + (256 << 10), (questions, peak)

    def test_grid_validation(self):
        cohort = reference_cohort()
        with pytest.raises(ZeroTrialsError):
            separation_experiment(cohort[0], cohort[1], [0, 5], replicates=10, seed=0)

    def test_min_trials_helper(self):
        cohort = reference_cohort()
        res = separation_experiment(cohort[10], cohort[5], [5, 10, 20], replicates=400, seed=4)
        n = res.min_trials_for_z(1.645)
        assert n in res.n_grid
        _, z = res.at(n)
        assert z >= 1.645


class TestFreshTauCurves:
    def test_replicate_dual_route(self):
        # engine vs the public per-replicate path: redraw each replicate's
        # trials from its one stream, Method.score() on prefixes, kendall_tau_b
        # against the true-mean ranking
        cohort = generate_cohort(CohortSpec(questions=4, seed=3))[:3]
        n_max, replicates, seed = 6, 6, 9
        methods = ["bayes", "avg", "pass@2", "mgpass@3"]
        curves = fresh_tau_curves(cohort, methods, n_max, replicates, seed)
        ids = [c.model_id for c in cohort]
        gold_vec = gold_ranking(cohort).rank_vector(ids)
        probs = np.stack([c.probs for c in cohort])
        # replicate r: every model's trials from one stream, trial-major
        draws = [
            (stream_rng(seed, DOMAIN_FRESH, r).random((n_max, *probs.shape)) < probs)
            .transpose(1, 2, 0)
            for r in range(replicates)
        ]
        for name in methods:
            method = parse_method(name)
            for n in range(max(1, method.min_trials), n_max + 1):
                taus = []
                for rep in draws:
                    table = rank_without_ci([
                        ScoredModel(mid, method.score(validate_matrix(d[:, :n].astype(int), 2)))
                        for mid, d in zip(ids, rep)
                    ])
                    try:
                        taus.append(kendall_tau_b(gold_vec, table.rank_vector(ids)))
                    except AllTiedError:
                        pass
                try:
                    point = curves[name].at(n)
                except KeyError:
                    assert not taus
                    continue
                assert point.valid_replicates == len(taus)
                assert abs(point.mean_tau - np.mean(taus)) < 1e-12

    def test_points_do_not_depend_on_n_max(self):
        cohort = reference_cohort()[:5]
        methods = ["bayes", "avg", "pass@2"]
        short = fresh_tau_curves(cohort, methods, 10, replicates=40, seed=5)
        long = fresh_tau_curves(cohort, methods, 20, replicates=40, seed=5)
        for name in methods:
            assert long[name].points[:len(short[name].points)] == short[name].points

    def test_question_counts_must_match(self):
        cohort = [CoinModel("a", np.full(3, 0.5)), CoinModel("b", np.full(4, 0.5))]
        with pytest.raises(InputError):
            fresh_tau_curves(cohort, ["bayes"], 4, replicates=2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ZeroTrialsError):
            fresh_tau_curves(reference_cohort()[:3], ["bayes"], 0, replicates=2)

    def test_replicates_validated(self):
        with pytest.raises(InputError):
            fresh_tau_curves(reference_cohort()[:3], ["bayes"], 4, replicates=0)

    def test_no_count_wraparound(self):
        # prefix counts past 32,767 trials must not wrap (int16 would)
        cohort = [CoinModel("hi", [1.0]), CoinModel("lo", [0.0])]
        n_max = 32_800
        curve = fresh_tau_curves(cohort, ["bayes"], n_max, replicates=1)["bayes"]
        assert [p.n for p in curve.points] == list(range(1, n_max + 1))
        assert all(p.mean_tau == 1.0 for p in curve.points)

