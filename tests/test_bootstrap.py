import tracemalloc

import numpy as np
import pytest

from bayeseval import bootstrap
from bayeseval.bootstrap import (
    ConvergenceDistribution,
    ResamplePlan,
    ResampleScheme,
    convergence_distributions,
    gold_table,
    resample,
    tau_curves,
    worst_case_trajectory,
)
from bayeseval.errors import AllTiedError, InputError, MethodUndefinedError, NegativeZError
from bayeseval.methods import parse_method
from bayeseval.model import ResultsMatrix, WeightVector, validate_matrix
from bayeseval.ranking import ScoredModel, kendall_tau_b, rank_with_ci, rank_without_ci
from bayeseval.simulate import fresh_tau_curves, reference_cohort, sample_trials


def small_cohort(n_models=4, m=6, n=12, seed=0):
    cohort = reference_cohort()[:: 11 // n_models][:n_models]
    return {
        c.model_id: sample_trials(c, n, seed=seed + i)
        for i, c in enumerate(cohort)
    }


def separated_cohort(m=4, n=10):
    """Three models whose ranking is identical at every prefix of any resample."""
    hi = validate_matrix(np.ones((m, n), dtype=int), 2)
    mid_cells = np.zeros((m, n), dtype=int)
    mid_cells[: m // 2] = 1
    mid = validate_matrix(mid_cells, 2)
    lo = validate_matrix(np.zeros((m, n), dtype=int), 2)
    return {"hi": hi, "mid": mid, "lo": lo}


def stacked(mats) -> np.ndarray:
    """The models' cells as one (models, questions, trials) array."""
    return np.stack([mx.cells for mx in mats.values()])


def replicate_matrices(mats, plan, r) -> list[ResultsMatrix]:
    """Replicate ``r`` of every model, as the engine scored it."""
    trials = resample(stacked(mats), plan, r)
    return [ResultsMatrix(trials[:, s].T, mx.num_categories) for s, mx in enumerate(mats.values())]


class TestResample:
    def test_deterministic(self):
        mx = sample_trials(reference_cohort()[2], 15, seed=3)
        plan = ResamplePlan(ResampleScheme.ROW, replicates=10, seed=5)
        a = resample(mx.cells[None], plan, 4)
        assert a.shape == (15, 1, mx.questions)
        assert np.array_equal(a, resample(mx.cells[None], plan, 4))
        assert not np.array_equal(a, resample(mx.cells[None], plan, 5))
        # two copies of one model in a replicate draw different trials
        pair = resample(np.stack([mx.cells, mx.cells]), plan, 4)
        assert not np.array_equal(pair[:, 0], pair[:, 1])

    def test_column_scheme_copies_whole_columns(self):
        cells = np.arange(12).reshape(3, 4) % 2
        cells[0] = [0, 1, 0, 1]
        cells[1] = [1, 1, 0, 0]
        cells[2] = [0, 0, 1, 1]
        plan = ResamplePlan("column", replicates=1, seed=2)
        out = resample(np.stack([cells, cells[::-1]]), plan, 0)
        for s, src in enumerate((cells, cells[::-1])):
            columns = {tuple(col) for col in src.T}
            assert all(tuple(col) in columns for col in out[:, s])

    def test_column_identical_columns_reproduce_prefix(self):
        cells = np.tile([[1], [0], [1]], (1, 6))
        out = resample(cells[None], ResamplePlan("column", 1, seed=9), 0)
        assert np.array_equal(out[:, 0].T, cells)

    def test_row_constant_matrix_unchanged(self):
        cells = np.ones((3, 5), dtype=int)
        out = resample(cells[None], ResamplePlan("row", 1, seed=1), 0)
        assert np.array_equal(out[:, 0].T, cells)

    def test_row_scheme_resamples_within_rows(self):
        cells = np.array([[0, 0, 1, 1], [1, 1, 1, 0]])
        out = resample(np.stack([cells, 1 - cells]), ResamplePlan("row", 1, seed=4), 0)
        for s, src in enumerate((cells, 1 - cells)):
            for row_out, row_src in zip(out[:, s].T, src):
                assert set(row_out).issubset(set(row_src))

    def test_budget_validation(self):
        with pytest.raises(InputError):
            resample(np.array([[[1, 0]]]), ResamplePlan("row", 1, seed=0, n_max=5), 0)
        with pytest.raises(InputError):
            ResamplePlan("row", replicates=0)


class TestGold:
    def test_gold_is_full_budget_posterior_ranking(self):
        mats = small_cohort(n_models=3, n=10)
        from bayeseval.bayes import evaluate_performance

        scored = [
            ScoredModel(mid, evaluate_performance(mx).mu, 0.0)
            for mid, mx in mats.items()
        ]
        assert gold_table(mats).ranks() == rank_without_ci(scored).ranks()

    def test_tau_of_gold_method_on_source_data_is_one(self):
        mats = small_cohort(n_models=4, n=12)
        gold = gold_table(mats)
        method = parse_method("bayes")
        scores = [method.score(mx) for mx in mats.values()]
        ranking = rank_without_ci(
            [ScoredModel(mid, s) for mid, s in zip(mats, scores)]
        )
        ids = list(mats)
        tau = kendall_tau_b(gold.rank_vector(ids), ranking.rank_vector(ids))
        assert tau == 1.0

    def test_all_tied_gold_rejected(self):
        mx = validate_matrix([[1, 0], [0, 1]], 2)
        mats = {"a": mx, "b": mx}
        with pytest.raises(AllTiedError):
            tau_curves(mats, ["bayes"], ResamplePlan("row", 5, seed=0))["bayes"]


class TestTauCurves:
    def test_replicate_dual_route(self):
        # batched engine vs the public per-replicate path: resample(),
        # Method.score() on prefixes, kendall_tau_b vs gold
        mats = small_cohort(n_models=4, n=9, seed=11)
        plan = ResamplePlan("row", replicates=7, seed=21)
        methods = ["bayes", "pass@2", "naive^3", "gpass@2:1/2", "mgpass@2", "avg", "pass^2"]
        curves = tau_curves(mats, methods, plan)
        gold = gold_table(mats)
        ids = list(mats)
        gold_vec = gold.rank_vector(ids)
        for name in methods:
            method = parse_method(name)
            for n in range(max(1, method.min_trials), 10):
                taus = []
                for r in range(plan.replicates):
                    table = rank_without_ci([
                        ScoredModel(mid, method.score(rx.prefix(n)))
                        for mid, rx in zip(ids, replicate_matrices(mats, plan, r))
                    ])
                    try:
                        taus.append(
                            kendall_tau_b(gold_vec, table.rank_vector(ids))
                        )
                    except AllTiedError:
                        pass
                point = curves[name].at(n)
                assert point.valid_replicates == len(taus)
                if taus:
                    assert abs(point.mean_tau - np.mean(taus)) < 1e-12

    def test_points_absent_below_min_trials(self):
        mats = small_cohort(n_models=3, n=8)
        curve = tau_curves(mats, ["pass@4"], ResamplePlan("column", 5, seed=2))["pass@4"]
        assert curve.points[0].n == 4
        with pytest.raises(KeyError):
            curve.at(3)

    def test_method_undefined_beyond_budget(self):
        mats = small_cohort(n_models=3, n=8)
        with pytest.raises(MethodUndefinedError):
            tau_curves(mats, ["pass@9"], ResamplePlan("row", 5, seed=2))["pass@9"]

    def test_deterministic(self):
        mats = small_cohort(n_models=3, n=10, seed=5)
        plan = ResamplePlan("row", replicates=40, seed=33)
        a = tau_curves(mats, ["bayes", "pass@2"], plan)
        b = tau_curves(mats, ["bayes", "pass@2"], plan)
        assert a == b

    def test_separated_cohort_tau_is_one_everywhere(self):
        mats = separated_cohort()
        curves = tau_curves(mats, ["bayes", "avg"], ResamplePlan("row", 25, seed=0))
        for curve in curves.values():
            for p in curve.points:
                assert p.mean_tau == 1.0

    def test_schemes_statistically_close(self):
        mats = small_cohort(n_models=4, n=16, seed=19)
        pc = ResamplePlan("column", replicates=600, seed=3)
        pr = ResamplePlan("row", replicates=600, seed=3)
        col = tau_curves(mats, ["bayes"], pc)["bayes"]
        row = tau_curves(mats, ["bayes"], pr)["bayes"]
        for a, b in zip(col.points, row.points):
            gap = abs(a.mean_tau - b.mean_tau)
            band = 5 * np.hypot(a.stderr, b.stderr) + 1e-9
            assert gap <= band, (a.n, gap, band)


class TestConvergence:
    def test_total_separation_gives_point_mass_at_one(self):
        mats = separated_cohort()
        plan = ResamplePlan("row", replicates=50, seed=1)
        dist = convergence_distributions(mats, ["bayes"], plan)["bayes"]
        assert dist.counts[1] == 50
        assert dist.censored_count == 0
        assert dist.mean_converged == 1.0

    def test_mass_conservation_exact(self):
        mats = small_cohort(n_models=4, n=14, seed=2)
        for method in ("bayes", "pass@2"):
            plan = ResamplePlan("row", 64, seed=7)
            dist = convergence_distributions(mats, [method], plan)[method]
            assert int(dist.counts.sum()) + dist.censored_count == dist.replicates
            assert np.array_equal(dist.cdf, np.cumsum(dist.pmf))
            assert (np.diff(dist.cdf) >= 0).all()

    def test_replicate_dual_route(self):
        # histogram from the engine vs a scan over public per-replicate pieces
        mats = small_cohort(n_models=3, n=8, seed=4)
        plan = ResamplePlan("column", replicates=12, seed=13)
        method = parse_method("bayes")
        dist = convergence_distributions(mats, [method], plan)[method.name]
        gold = gold_table(mats)
        ids = list(mats)
        gold_ranks = gold.rank_vector(ids)
        expected = np.zeros(9, dtype=int)
        censored = 0
        for r in range(plan.replicates):
            resampled = replicate_matrices(mats, plan, r)
            matches = []
            for n in range(1, 9):
                table = rank_without_ci(
                    [
                        ScoredModel(mid, method.score(rx.prefix(n)))
                        for mid, rx in zip(ids, resampled)
                    ]
                )
                matches.append(table.rank_vector(ids) == gold_ranks)
            if not matches[-1]:
                censored += 1
                continue
            n_star = 8
            while n_star > 1 and matches[n_star - 2]:
                n_star -= 1
            expected[n_star] += 1
        assert dist.counts[1:].tolist() == expected[1:].tolist()
        assert dist.censored_count == censored

    def test_multiple_methods_share_replicates(self):
        mats = small_cohort(n_models=3, n=10, seed=6)
        plan = ResamplePlan("row", replicates=30, seed=17)
        both = convergence_distributions(mats, ["bayes", "pass@2"], plan)
        solo = convergence_distributions(mats, ["bayes"], plan)["bayes"]
        assert both["bayes"].counts.tolist() == solo.counts.tolist()

    def test_report_shape(self):
        mats = separated_cohort()
        dist = convergence_distributions(mats, ["bayes"], ResamplePlan("row", 5, seed=0))["bayes"]
        rep = dist.to_report()
        assert rep["pmf"][0] == {"n": 1, "pmf": 1.0, "cdf": 1.0}
        assert rep["censored_mass"] == 0.0

    def test_ci_aware_flag(self):
        mats = small_cohort(n_models=3, n=8, seed=4)
        plan = ResamplePlan("column", replicates=8, seed=13)
        point = convergence_distributions(mats, ["bayes"], plan)["bayes"]
        # a tiny threshold reproduces point-ranking convergence; a huge one
        # ties everything so the (untied) gold is never matched
        near_point = convergence_distributions(mats, ["bayes"], plan, ci_z=1e-9)["bayes"]
        assert near_point.counts.tolist() == point.counts.tolist()
        assert near_point.censored_count == point.censored_count
        all_tied = convergence_distributions(mats, ["bayes"], plan, ci_z=1e9)["bayes"]
        assert all_tied.censored_count == plan.replicates

    def test_tau_points_flag_subset_onset(self):
        mats = small_cohort(n_models=3, n=8)
        curves = tau_curves(
            mats, ["pass@3", "naive^3", "bayes"], ResamplePlan("row", 6, seed=1)
        )
        pass3 = curves["pass@3"].points
        assert pass3[0].n == 3 and pass3[0].high_variance
        assert not any(p.high_variance for p in pass3[1:])
        assert not any(p.high_variance for p in curves["naive^3"].points)
        assert not any(p.high_variance for p in curves["bayes"].points)


def ci_convergence_oracle(matrices, method, plan, z, weights=None):
    """Per-replicate CI-tied convergence@n: resample, score with sigma, rank."""
    method = parse_method(method, weights)
    ids = list(matrices)
    gold = gold_table(matrices, weights=weights).rank_vector(ids)
    n_max = next(iter(matrices.values())).trials
    lo = max(1, method.min_trials)
    hist, censored = np.zeros(n_max + 1, dtype=np.int64), 0
    for r in range(plan.replicates):
        resampled = replicate_matrices(matrices, plan, r)
        last_mismatch = 0
        for n in range(lo, n_max + 1):
            scored = [
                ScoredModel(mid, *method.score_with_sigma(rx.prefix(n)))
                for mid, rx in zip(ids, resampled)
            ]
            if rank_with_ci(scored, z).rank_vector(ids) != gold:
                last_mismatch = n
        if last_mismatch == n_max:
            censored += 1
        else:
            hist[max(lo, last_mismatch + 1)] += 1
    return hist.tolist(), censored


class TestConvergenceCI:
    @pytest.mark.parametrize("scheme", ["row", "column"])
    def test_engine_matches_per_replicate_oracle(self, scheme):
        mats = small_cohort(n_models=3, n=10, seed=2)
        plan = ResamplePlan(scheme, replicates=20, seed=5)
        for z in (0.3, 1.0):
            dists = convergence_distributions(mats, ["bayes", "avg", "pass@2"], plan, ci_z=z)
            for name, dist in dists.items():
                got = (dist.counts.tolist(), dist.censored_count)
                assert got == ci_convergence_oracle(mats, name, plan, z)

    def test_five_categories_with_weights(self):
        rng = np.random.default_rng(22)
        mats = {
            f"m{j}": validate_matrix(
                [rng.choice(5, size=8, p=rng.dirichlet(1 + 6 * np.eye(5)[j + 1])) for _ in range(12)],
                5,
            )
            for j in range(3)
        }
        weights = WeightVector((0.0, 0.0, 1.0, 2.0, 3.0))
        plan = ResamplePlan("row", replicates=20, seed=3)
        dists = convergence_distributions(mats, ["bayes", "avg"], plan, weights=weights, ci_z=1.0)
        for name, dist in dists.items():
            got = (dist.counts.tolist(), dist.censored_count)
            assert got == ci_convergence_oracle(mats, name, plan, 1.0, weights)

    @pytest.mark.parametrize("z", [0.0, -1.0, float("nan")])
    def test_non_positive_z_rejected_before_drawing(self, z, monkeypatch):
        def no_draws(*args):
            pytest.fail("a replicate was drawn")

        monkeypatch.setattr(bootstrap, "stream_rng", no_draws)
        plan = ResamplePlan("row", replicates=3, seed=0)
        with pytest.raises(NegativeZError):
            convergence_distributions(small_cohort(n_models=3, n=6), ["bayes"], plan, ci_z=z)


class TestWorstCase:
    def test_trivially_separated_constant_trajectory(self):
        mats = separated_cohort()
        traj = worst_case_trajectory(mats, "bayes", ResamplePlan("row", 20, seed=2))
        assert traj.convergence_n == 1
        assert not traj.censored
        first = traj.tables[0].ranks()
        assert all(t.ranks() == first for t in traj.tables)

    def test_final_table_matches_gold_when_converged(self):
        mats = small_cohort(n_models=4, n=12, seed=8)
        plan = ResamplePlan("row", replicates=30, seed=5)
        traj = worst_case_trajectory(mats, "bayes", plan)
        if not traj.censored:
            gold = gold_table(mats)
            assert traj.tables[-1].ranks() == gold.ranks()

    def test_selected_replicate_is_argmax(self):
        mats = small_cohort(n_models=4, n=10, seed=3)
        plan = ResamplePlan("column", replicates=25, seed=11)
        method = parse_method("bayes")
        traj = worst_case_trajectory(mats, method, plan)
        gold = gold_table(mats)
        ids = list(mats)
        gold_ranks = gold.rank_vector(ids)

        def conv_key(r):
            resampled = replicate_matrices(mats, plan, r)
            last_mismatch = 0
            for n in range(1, 11):
                table = rank_without_ci(
                    [
                        ScoredModel(mid, method.score(rx.prefix(n)))
                        for mid, rx in zip(ids, resampled)
                    ]
                )
                if table.rank_vector(ids) != gold_ranks:
                    last_mismatch = n
            if last_mismatch == 10:
                return 11
            return max(1, last_mismatch + 1)

        keys = [conv_key(r) for r in range(plan.replicates)]
        worst = max(keys)
        assert keys[traj.replicate_index] == worst
        assert traj.replicate_index == keys.index(worst)


class TestCountWidth:
    """Prefix counts past 32,767 trials must not wrap (int16 would)."""

    TRIALS = 32_800

    def pair(self):
        hi = validate_matrix(np.ones((1, self.TRIALS), dtype=int), 2)
        lo = validate_matrix(np.zeros((1, self.TRIALS), dtype=int), 2)
        return {"hi": hi, "lo": lo}

    def test_convergence_not_censored(self):
        plan = ResamplePlan("row", 1, seed=0)
        dist = convergence_distributions(self.pair(), ["bayes"], plan)["bayes"]
        assert dist.counts[1] == 1
        assert dist.censored_count == 0

    def test_tau_one_at_full_budget(self):
        curve = tau_curves(self.pair(), ["bayes"], ResamplePlan("column", 1, seed=0))["bayes"]
        assert curve.at(self.TRIALS).mean_tau == 1.0



class TestSharedScan:
    """One ``scan_replicates`` pass gives what two separate calls give."""

    @pytest.mark.parametrize("scheme", ["row", "column"])
    @pytest.mark.parametrize("reps", [(10, 23), (16, 16), (23, 10)])
    @pytest.mark.parametrize("ci_z", [None, 1.0])
    def test_equals_separate_calls(self, scheme, reps, ci_z, monkeypatch):
        # chunks of 7 put chunk boundaries inside and around both counts
        monkeypatch.setattr(bootstrap, "_chunk_size", lambda *shape: 7)
        mats = small_cohort(n_models=4, n=12, seed=3)
        methods = ["bayes", "avg", "pass@2"]
        tau_plan = ResamplePlan(scheme, reps[0], seed=5)
        conv_plan = ResamplePlan(scheme, reps[1], seed=5)
        curves = tau_curves(mats, methods, tau_plan)
        convs = convergence_distributions(mats, methods, conv_plan, ci_z=ci_z)
        scan = bootstrap.scan_replicates(mats, methods, tau_plan, conv_plan, ci_z=ci_z)
        assert tau_curves(mats, methods, tau_plan, scan=scan) == curves
        shared_convs = convergence_distributions(mats, methods, conv_plan, ci_z=ci_z, scan=scan)
        for name, dist in convs.items():
            assert np.array_equal(shared_convs[name].counts, dist.counts)
            assert shared_convs[name].censored_count == dist.censored_count
            assert shared_convs[name].replicates == dist.replicates == reps[1]

    def test_five_categories_with_weights(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_chunk_size", lambda *shape: 6)
        rng = np.random.default_rng(4)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 5, size=(8, 6)), 5) for i in range(4)}
        w = WeightVector((0.0, 0.1, 0.7, 1.3, 2.9))
        tau_plan, conv_plan = ResamplePlan("row", 9, seed=2), ResamplePlan("row", 14, seed=2)
        curves = tau_curves(mats, ["bayes", "avg"], tau_plan, weights=w)
        convs = convergence_distributions(mats, ["bayes", "avg"], conv_plan, weights=w)
        scan = bootstrap.scan_replicates(mats, ["bayes", "avg"], tau_plan, conv_plan, weights=w)
        assert tau_curves(mats, ["bayes", "avg"], tau_plan, weights=w, scan=scan) == curves
        shared = convergence_distributions(mats, ["bayes", "avg"], conv_plan, weights=w, scan=scan)
        for name, dist in convs.items():
            assert np.array_equal(shared[name].counts, dist.counts)
            assert shared[name].censored_count == dist.censored_count

    def test_each_replicate_drawn_once(self, monkeypatch):
        calls = []
        real = bootstrap.resample
        monkeypatch.setattr(bootstrap, "resample",
                            lambda cells, plan, r, out=None: calls.append((r, len(cells))) or
                            real(cells, plan, r, out))
        mats = small_cohort(n_models=3, n=6)
        bootstrap.scan_replicates(mats, ["bayes", "pass@2"], ResamplePlan("row", 4),
                                  ResamplePlan("row", 9))
        # one draw per replicate, every model's trials in it
        assert sorted(calls) == [(r, 3) for r in range(9)]

    @pytest.mark.parametrize("other", [
        ResamplePlan("column", 8, seed=1, n_max=10),
        ResamplePlan("row", 8, seed=2, n_max=10),
        ResamplePlan("row", 8, seed=1, n_max=9),
        ResamplePlan("row", 8, seed=1),
    ])
    def test_plans_must_share_scheme_seed_and_budget(self, other, monkeypatch):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        with pytest.raises(InputError):
            bootstrap.scan_replicates(small_cohort(n=12), ["bayes"],
                                      ResamplePlan("row", 5, seed=1, n_max=10), other)

    def test_budget_is_compared_not_the_field(self):
        mats = small_cohort(n=12)
        scan = bootstrap.scan_replicates(mats, ["bayes"], ResamplePlan("row", 3, n_max=12),
                                         ResamplePlan("row", 4))
        assert scan.n_max == 12

    def test_needs_a_plan(self):
        with pytest.raises(InputError):
            bootstrap.scan_replicates(small_cohort(), ["bayes"])

    def test_mismatched_requests_rejected(self):
        mats = small_cohort(n=12)
        tau_plan, conv_plan = ResamplePlan("row", 4, seed=1), ResamplePlan("row", 6, seed=1)
        scan = bootstrap.scan_replicates(mats, ["bayes"], tau_plan, conv_plan)
        tau_only = bootstrap.scan_replicates(mats, ["bayes"], tau_plan)
        with pytest.raises(InputError):
            tau_curves(mats, ["bayes"], conv_plan, scan=scan)            # wrong plan
        with pytest.raises(InputError):
            tau_curves(mats, ["pass@2"], tau_plan, scan=scan)            # method not scanned
        with pytest.raises(InputError):
            convergence_distributions(mats, ["bayes"], conv_plan, ci_z=1.0, scan=scan)
        with pytest.raises(InputError):
            convergence_distributions(mats, ["bayes"], conv_plan, scan=tau_only)
        with pytest.raises(InputError):
            tau_curves(mats, ["bayes"], tau_plan, weights=WeightVector((0.0, 2.0)), scan=scan)
        fewer = dict(list(mats.items())[:3])
        with pytest.raises(InputError):
            tau_curves(fewer, ["bayes"], tau_plan, scan=scan)
        other_gold = gold_table(fewer | {"x": next(iter(mats.values()))})
        with pytest.raises(InputError):
            tau_curves(mats, ["bayes"], tau_plan, gold=other_gold, scan=scan)

    def test_result_is_read_only(self):
        mats = small_cohort(n=12)
        scan = bootstrap.scan_replicates(mats, ["bayes"], ResamplePlan("row", 3),
                                         ResamplePlan("row", 3))
        with pytest.raises(ValueError):
            scan.tau_sums["bayes"][0, 1] = 1.0
        with pytest.raises(ValueError):
            scan.points["bayes"][0][0] = 1
        with pytest.raises(TypeError):
            scan.points["pass@2"] = scan.points["bayes"]


class TestChunkFree:
    """No engine output depends on how many replicates a chunk holds."""

    @staticmethod
    def outputs():
        mats = small_cohort(n_models=5, n=12, seed=3)
        methods = ["bayes", "avg", "pass@2", "mgpass@3"]
        tau_plan, conv_plan = ResamplePlan("row", 70, seed=2), ResamplePlan("row", 45, seed=2)
        scan = bootstrap.scan_replicates(mats, methods, tau_plan, conv_plan)
        convs = [convergence_distributions(mats, methods, conv_plan, ci_z=z) for z in (None, 1.0)]
        return (
            tau_curves(mats, methods, tau_plan),
            [{k: (d.counts.tobytes(), d.censored_count) for k, d in c.items()} for c in convs],
            {k: a.tobytes() for k, a in scan.tau_sums.items()},
            {k: (a.tobytes(), b.tobytes()) for k, (a, b) in scan.points.items()},
            fresh_tau_curves(reference_cohort()[:5], ["bayes", "pass@2"], 10, 70, seed=4),
            worst_case_trajectory(mats, "pass@2", ResamplePlan("column", 45, seed=1)),
        )

    def test_bitwise_equal_for_chunk_sizes_1_7_64(self, monkeypatch):
        # crossed with draw blocks of 1, 7 and n_max = 12 trials
        results = []
        for chunk in (1, 7, 64):
            for block in (1, 7, 12):
                monkeypatch.setattr(bootstrap, "_chunk_size", lambda *shape, c=chunk: c)
                monkeypatch.setattr(bootstrap, "_draw_block", lambda cells, b=block: b)
                results.append(self.outputs())
        assert all(r == results[0] for r in results[1:])

    def test_chunk_peak_stays_within_budget(self, monkeypatch):
        # one replicate draws 6 x 1000 x 120 = 720 kB, so 16 replicates
        # (the old floor) would hold 11.5 MB against a 4 MiB budget
        budget, models, questions, trials = 4 << 20, 6, 1000, 120
        monkeypatch.setattr(bootstrap, "_CHUNK_TARGET_BYTES", budget)
        rng = np.random.default_rng(0)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 2, size=(questions, trials)), 2)
                for i in range(models)}
        methods, gold = ["bayes", "pass@2"], gold_table(mats)
        plan = ResamplePlan("row", 20, seed=1)
        tracemalloc.start()
        try:
            bootstrap.scan_replicates(mats, methods, plan, plan, gold=gold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # outside the per-chunk budget: the source's uint8 copies of the
        # inputs and the tau-b sums, 3 x (n_max + 1) x pairs float64 per method
        outside = (models * questions * trials
                   + len(methods) * 3 * (trials + 1) * (models * (models - 1) // 2) * 8)
        assert peak <= budget + outside

    def test_single_replicate_draw_stays_within_budget(self, monkeypatch):
        # one replicate's int64 indices, 4 x 2000 x 80 x 8 bytes = 5.1 MB,
        # are 4.9x the 1 MiB budget, so the replicate is drawn in blocks
        budget, models, questions, trials = 1 << 20, 4, 2000, 80
        assert models * questions * trials * 8 >= 4 * budget
        monkeypatch.setattr(bootstrap, "_CHUNK_TARGET_BYTES", budget)
        rng = np.random.default_rng(1)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 2, size=(questions, trials)), 2)
                for i in range(models)}
        methods, gold = ["bayes", "pass@2"], gold_table(mats)
        for scheme in ("row", "column"):
            plan = ResamplePlan(scheme, 3, seed=1)
            tracemalloc.start()
            try:
                bootstrap.scan_replicates(mats, methods, plan, plan, gold=gold)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # outside the budget: the source's uint8 copies of the inputs
            # and the tau-b sums, 3 x (n_max + 1) x pairs float64 per method
            outside = (models * questions * trials
                       + len(methods) * 3 * (trials + 1) * (models * (models - 1) // 2) * 8)
            assert peak <= budget + outside, scheme


class TestOneStreamPerReplicate:
    """Replicate r of every model comes from the one stream keyed by r."""

    @pytest.mark.parametrize("scheme", ["row", "column"])
    def test_resample_equals_engine_chunk_slice(self, scheme, monkeypatch):
        # blocks of 3 trials split the 10-trial replicate unevenly
        monkeypatch.setattr(bootstrap, "_draw_block", lambda cells: 3)
        rng = np.random.default_rng(5)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 5, size=(7, 10)), 5) for i in range(4)}
        plan = ResamplePlan(scheme, 9, seed=8)
        items = bootstrap._model_items(mats)
        chunk = bootstrap._resample_draw(items, plan, 10)(2, 9)
        assert chunk.shape == (10, 4, 7, 7) and chunk.dtype == np.uint8
        for r in range(2, 9):
            # int64 cells in: the same category indices the uint8 chunk holds
            assert np.array_equal(chunk[:, :, r - 2], resample(stacked(mats), plan, r))

    @pytest.mark.parametrize("scheme", ["row", "column"])
    def test_more_models_than_stream_slots(self, scheme):
        # 2**16 + 1 one-cell models: past the 2**16 per-model stream slots
        cells = np.arange(2**16 + 1).reshape(-1, 1, 1) % 5
        out = resample(cells, ResamplePlan(scheme, 1, seed=3), 0)
        assert out.shape == (1, 2**16 + 1, 1)
        assert np.array_equal(out[0], cells[:, :, 0])
