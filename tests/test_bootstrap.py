import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bayeseval import bootstrap, simulate
from bayeseval._rng import stream_rng
from bayeseval.bootstrap import (
    ConvergenceDistribution,
    ResamplePlan,
    ResampleScheme,
    convergence_distributions,
    gold_table,
    resample,
    tau_curves,
)
from bayeseval.errors import AllTiedError, InputError, MethodUndefinedError, NegativeZError
from bayeseval.io import emit_report
from bayeseval.methods import Method, parse_method
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

    @pytest.mark.parametrize("scheme, categories", [("row", 2), ("row", 5), ("column", 5)])
    def test_equals_an_independent_redraw_from_raw_words(self, scheme, categories, monkeypatch):
        # a budget of 7 trial blocks of 3 x 9 cells at 4 bytes a cell; 7 trials
        # of 27 cells (or of 3 models) are odd, so blocks take 8: 60 trials span 8
        monkeypatch.setattr(bootstrap, "_CHUNK_TARGET_BYTES", 8 * 4 * 27 * 7)
        assert bootstrap._draw_block(27) == 7
        cells = np.random.default_rng(3).integers(0, categories, size=(3, 9, 60))
        cells[0, 0], cells[1, 1], cells[2, 2] = categories - 1, 0, 1   # constant rows
        cells[2, 3, :59] = categories - 1   # one trial below the top category
        plan, n = ResamplePlan(scheme, 4, seed=6), 60
        for r in range(4):
            # the stream's raw 64-bit words, low half first, one 32-bit word per
            # cell (row) or per model (column), trial by trial, in Python ints
            per_trial = 27 if scheme == "row" else 3
            raw = stream_rng(6, plan.scheme.domain, r).bit_generator.random_raw(per_trial * n // 2)
            words = [half for w in raw.tolist() for half in (w & 0xFFFFFFFF, w >> 32)]
            want = np.empty((n, 3, 9), cells.dtype)
            for t in range(n):
                for k in range(3):
                    for q in range(9):
                        row = cells[k, q].tolist()
                        if scheme == "row":   # index (w N) >> 32 of the row sorted high first
                            want[t, k, q] = sorted(row, reverse=True)[
                                words[(t * 3 + k) * 9 + q] * n >> 32]
                        else:   # source trial (w N) >> 32, shared by the model's questions
                            want[t, k, q] = row[words[t * 3 + k] * n >> 32]
            assert np.array_equal(resample(cells, plan, r), want)

    def test_replicates_bounded_by_stream_indices(self):
        # replicate r is stream index r, and a key has 2^40 indices
        assert ResamplePlan("row", replicates=2**40).replicates == 2**40
        with pytest.raises(InputError, match="2\\^40"):
            ResamplePlan("row", replicates=2**40 + 1)


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

    def test_all_censored_has_no_mean(self):
        # all-zero models tie at every prefix, so no replicate matches a strict gold
        flat = {f"m{i}": validate_matrix(np.zeros((2, 5), dtype=int), 2) for i in range(3)}
        gold = rank_without_ci([ScoredModel(mid, float(i)) for i, mid in enumerate(flat)])
        plan = ResamplePlan("row", 6, seed=2)
        dist = convergence_distributions(flat, ["bayes"], plan, gold=gold)["bayes"]
        assert (dist.censored_count, dist.counts.tolist()) == (6, [0] * 6)
        assert dist.mean_converged is None
        assert b'"mean_converged":null' in emit_report(dist)

    def test_report_builds_pmf_and_cdf_once(self, monkeypatch):
        # once per report, not once per n: cdf reads pmf once itself
        calls = []
        for name in ("pmf", "cdf"):
            fget = getattr(ConvergenceDistribution, name).fget
            monkeypatch.setattr(ConvergenceDistribution, name, property(
                lambda self, fget=fget, name=name: calls.append(name) or fget(self)))
        counts = np.r_[0, np.arange(1, 41)]
        dist = ConvergenceDistribution("bayes", "row", 40, counts, 7, int(counts.sum()) + 7)
        report = dist.to_report()
        assert sorted(calls) == ["cdf", "pmf", "pmf"]
        assert report["pmf"][-1]["cdf"] == pytest.approx(1 - 7 / dist.replicates)

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



def scan_points(matrices, methods, plan, weights=None, gold=None, ci_z=None):
    """Each method's convergence points, (methods, replicates), from the
    downward scan behind convergence_distributions."""
    items, methods, n_max, gold = bootstrap._request(matrices, methods, plan, weights, gold)
    return bootstrap._convergence_points(items, methods, plan, n_max, gold, ci_z)


def upward_points(matrices, method, plan, gold, ci_z=None):
    """Per-replicate convergence points, scanned upward over ``Method.score``
    of each prefix of ``resample``'s replicates. A replicate is censored,
    its ranking at n_max differing from gold, exactly when its point is
    n_max + 1."""
    ids, n_max = list(matrices), next(iter(matrices.values())).trials
    gold_ranks, lo = gold.rank_vector(ids), max(1, method.min_trials)
    points = []
    for r in range(plan.replicates):
        resampled = replicate_matrices(matrices, plan, r)
        last_mismatch = 0
        for n in range(lo, n_max + 1):
            scored = [ScoredModel(mid, *method.score_with_sigma(rx.prefix(n)))
                      for mid, rx in zip(ids, resampled)]
            table = rank_without_ci(scored) if ci_z is None else rank_with_ci(scored, ci_z)
            if table.rank_vector(ids) != gold_ranks:
                last_mismatch = n
        points.append(max(lo, last_mismatch + 1))
    return points


class TestDownwardScan:
    """Convergence points found walking down from n_max equal an upward scan's."""

    METHODS = ["bayes", "avg", "pass@2", "pass@3", "naive^2", "mgpass@2", "gpass@3:1/2"]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16), flat=st.booleans(), models=st.integers(2, 4),
        questions=st.integers(1, 3), trials=st.integers(1, 7),
        methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=3, unique=True),
        replicates=st.integers(1, 12), chunk=st.sampled_from([1, 7, 64]),
        scheme=st.sampled_from(["row", "column"]),
        ci_z=st.sampled_from([None, 0.5, 1.645, 1e9]),
        gold_values=st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=4, max_size=4)),
    )
    # flat data gives all-tied replicates: every one censored against a
    # strict gold, none against the all-tied posterior gold
    @example(seed=0, flat=True, models=3, questions=2, trials=5, methods=["bayes", "pass@2"],
             replicates=9, chunk=7, scheme="row", ci_z=None, gold_values=[0, 1, 2, 0])
    @example(seed=0, flat=True, models=3, questions=2, trials=5, methods=["bayes", "pass@2"],
             replicates=9, chunk=7, scheme="row", ci_z=None, gold_values=None)
    @example(seed=1, flat=False, models=4, questions=3, trials=6, methods=["bayes", "pass@3"],
             replicates=8, chunk=1, scheme="column", ci_z=1e9, gold_values=[0, 1, 2, 2])
    def test_points_equal_upward_reference(self, seed, flat, models, questions, trials, methods,
                                           replicates, chunk, scheme, ci_z, gold_values):
        rng = np.random.default_rng(seed)
        methods = [parse_method(name) for name in methods]
        trials = max([trials] + [m.min_trials for m in methods])
        mats = {
            f"m{i}": validate_matrix(
                (rng.random((questions, trials)) < (0.0 if flat else rng.choice([0.2, 0.5, 0.9])))
                .astype(int), 2)
            for i in range(models)
        }
        gold = (gold_table(mats) if gold_values is None else
                rank_without_ci([ScoredModel(mid, float(v)) for mid, v in zip(mats, gold_values)]))
        plan = ResamplePlan(scheme, replicates, seed=seed)
        with mock.patch.object(bootstrap, "_chunk_size", lambda *shape: chunk):
            points = scan_points(mats, methods, plan, gold=gold, ci_z=ci_z)
        for m, got in zip(methods, points):
            assert got.tolist() == upward_points(mats, m, plan, gold, ci_z), m.name


class TestScans:
    """Each artifact draws and scans its own replicates."""

    def test_each_replicate_drawn_once(self, monkeypatch):
        calls = []
        real = bootstrap.resample
        monkeypatch.setattr(bootstrap, "resample",
                            lambda cells, plan, r, out=None: calls.append((r, len(cells))) or
                            real(cells, plan, r, out))
        mats = small_cohort(n_models=3, n=6)
        tau_curves(mats, ["bayes", "pass@2"], ResamplePlan("row", 4))
        # one draw per replicate, every model's trials in it
        assert sorted(calls) == [(r, 3) for r in range(4)]
        calls.clear()
        convergence_distributions(mats, ["bayes", "pass@2"], ResamplePlan("row", 9))
        assert sorted(calls) == [(r, 3) for r in range(9)]

    def test_convergence_draws_only_past_the_tau_replicates(self, monkeypatch):
        calls = []
        real = bootstrap.resample
        monkeypatch.setattr(bootstrap, "resample",
                            lambda cells, plan, r, out=None: calls.append(r) or
                            real(cells, plan, r, out))
        mats, methods = small_cohort(n_models=3, n=6), ["bayes", "pass@2"]
        tau_curves(mats, methods, ResamplePlan("row", 5), convergence_replicates=9)
        # the tau scan's replicates, then only the convergence replicates past them
        assert calls == [0, 1, 2, 3, 4, 5, 6, 7, 8]

    def test_tau_only_scans_decide_no_points(self, monkeypatch):
        monkeypatch.setattr(bootstrap, "_match_gold", lambda *a: pytest.fail("matched gold"))
        curves = tau_curves(small_cohort(n_models=3, n=6), ["bayes", "pass@2"],
                            ResamplePlan("row", 5))
        fresh = fresh_tau_curves(reference_cohort()[:3], ["bayes", "pass@2"], 6, 5, seed=1)
        for curve in (*curves.values(), *fresh.values()):
            assert curve.convergence is None

    @pytest.mark.parametrize("scan", [tau_curves, convergence_distributions])
    def test_needs_a_method(self, scan, monkeypatch):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        with pytest.raises(InputError, match="at least one method"):
            scan(small_cohort(), [], ResamplePlan("row", 2))

    @pytest.mark.parametrize("scan", [tau_curves, convergence_distributions])
    def test_matrices_must_be_a_mapping(self, scan):
        pairs = list(small_cohort().items())
        with pytest.raises(InputError, match="map model ids"):
            scan(pairs, ["bayes"], ResamplePlan("row", 2))

    @staticmethod
    def one_cell_models(count):
        return {f"m{i:02d}": validate_matrix([[i % 2]], 2) for i in range(count)}

    def test_tau_sums_past_2_53_rejected_before_any_draw(self, monkeypatch):
        # 20 models: 2^40 x 190^2 >= 2^53; 11 models: 2^40 x 55^2 < 2^53
        class Drew(Exception):
            pass

        def drew(*args):
            raise Drew

        monkeypatch.setattr(bootstrap, "stream_rng", drew)
        plan = ResamplePlan("row", 2**40)
        with pytest.raises(InputError, match="2\\^53"):
            tau_curves(self.one_cell_models(20), ["bayes"], plan)
        with pytest.raises(Drew):
            tau_curves(self.one_cell_models(11), ["bayes"], plan)

    def test_no_engine_path_reaches_generator_integers(self, monkeypatch):
        # every source draws from raw Philox words, never numpy's bounded integers
        class NoIntegers(np.random.Generator):
            def integers(self, *args, **kwargs):
                pytest.fail("drew through Generator.integers")

        monkeypatch.setattr(np.random, "Generator", NoIntegers)
        assert isinstance(stream_rng(0, 0), NoIntegers)
        mats, methods = small_cohort(n_models=3, n=6), ["bayes", "pass@2"]
        for scheme in ("row", "column"):
            curves = tau_curves(mats, methods, ResamplePlan(scheme, 4), convergence_replicates=7)
            assert all(c.convergence.replicates == 7 for c in curves.values())
        convergence_distributions(mats, ["bayes"], ResamplePlan("row", 5), ci_z=1.645)
        fresh_tau_curves(reference_cohort()[:3], methods, 6, replicates=4, seed=1)

    def test_fresh_tau_sums_past_2_53_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(simulate, "categories", lambda *a: pytest.fail("drew a replicate"))
        cohort = [simulate.CoinModel(f"m{i:02d}", [i / 20]) for i in range(20)]
        with pytest.raises(InputError, match="2\\^53"):
            fresh_tau_curves(cohort, ["bayes"], 1, replicates=2**40)


def same_distribution(a: ConvergenceDistribution, b: ConvergenceDistribution) -> bool:
    """Every field equal, the counts in dtype and bits."""
    return (a.counts.dtype == b.counts.dtype and a.counts.tobytes() == b.counts.tobytes()
            and all(getattr(a, f) == getattr(b, f)
                    for f in ("method", "scheme", "n_max", "censored_count", "replicates")))


class TestTauHandoff:
    """``tau_curves(..., convergence_replicates=R)``, whose tau scan decides
    the convergence points of its own replicates and whose downward scan
    adds the rest, gives ``convergence_distributions`` at R, to the bit."""

    PASS_FAMILY = ["pass@2", "pass@3", "pass^2", "naive^2", "mgpass@3", "gpass@3:1/2"]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16), route=st.sampled_from(["counts", "totals"]),
        kind=st.sampled_from(["random", "flat", "separated"]), models=st.integers(2, 4),
        questions=st.integers(1, 3), trials=st.integers(1, 7),
        pass_family=st.lists(st.sampled_from(PASS_FAMILY), min_size=1, max_size=3, unique=True),
        r_tau=st.integers(1, 10), extra=st.sampled_from([0, 1, 6]),
        chunk=st.sampled_from([1, 7, 64]), scheme=st.sampled_from(["row", "column"]),
        gold_values=st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=4, max_size=4)),
    )
    # flat data against a strict gold: every replicate censored; constant
    # rows separating the models: none censored, each at its onset
    @example(seed=0, route="counts", kind="flat", models=3, questions=2, trials=5,
             pass_family=["pass@3"], r_tau=4, extra=6, chunk=7, scheme="row", gold_values=None)
    @example(seed=0, route="totals", kind="flat", models=3, questions=2, trials=5,
             pass_family=["pass@2"], r_tau=9, extra=0, chunk=1, scheme="column", gold_values=None)
    @example(seed=1, route="counts", kind="separated", models=4, questions=2, trials=6,
             pass_family=["mgpass@3", "pass^2"], r_tau=7, extra=0, chunk=64, scheme="column",
             gold_values=None)
    @example(seed=1, route="totals", kind="separated", models=3, questions=1, trials=4,
             pass_family=["pass@2"], r_tau=3, extra=6, chunk=7, scheme="row", gold_values=None)
    def test_equals_the_downward_scan(self, seed, route, kind, models, questions, trials,
                                      pass_family, r_tau, extra, chunk, scheme, gold_values):
        rng = np.random.default_rng(seed)
        c, weights = (2, None) if route == "counts" else (5, WeightVector((0.0, 0.0, 1.0, 2.0, 3.0)))
        methods = ["bayes", *pass_family] if route == "counts" else ["bayes", "avg"]
        trials = max([trials] + [parse_method(m).min_trials for m in methods])
        if kind == "separated":
            questions = models - 1  # model i answers its first i questions with the top category
        mats = {}
        for i in range(models):
            if kind == "random":
                cells = rng.integers(0, c, size=(questions, trials)) * (rng.random() < 0.8)
            else:
                cells = np.zeros((questions, trials), int)
                cells[:i if kind == "separated" else 0] = c - 1
            mats[f"m{i}"] = validate_matrix(cells, c)
        if kind != "random":  # a strict gold against flat data, the data's own otherwise
            gold_values = list(range(models)) if kind == "flat" else None
        gold = (gold_table(mats, weights=weights) if gold_values is None else
                rank_without_ci([ScoredModel(mid, float(v)) for mid, v in zip(mats, gold_values)]))
        assume(len({e.rank for e in gold.entries}) > 1)  # tau-b needs an untied gold pair
        tau_plan = ResamplePlan(scheme, r_tau, seed=seed)
        plan = ResamplePlan(scheme, r_tau + extra, seed=seed)
        with mock.patch.object(bootstrap, "_chunk_size", lambda *shape: chunk):
            curves = tau_curves(mats, methods, tau_plan, weights=weights, gold=gold,
                                convergence_replicates=plan.replicates)
            plain = convergence_distributions(mats, methods, plan, weights=weights, gold=gold)
            assert curves == tau_curves(mats, methods, tau_plan, weights=weights, gold=gold)
        assert list(curves) == list(plain)
        for name, dist in plain.items():
            assert same_distribution(curves[name].convergence, dist), name
            if kind == "flat":
                assert dist.censored_count == plan.replicates
            if kind == "separated":
                assert dist.counts[max(1, parse_method(name).min_trials)] == plan.replicates

    @pytest.mark.parametrize("replicates, message", [
        (3, "below the 4 tau replicates"), (2**40 + 1, "stream index space"),
    ])
    def test_convergence_replicates_checked_before_any_draw(self, replicates, message,
                                                            monkeypatch):
        monkeypatch.setattr(bootstrap, "stream_rng", lambda *a: pytest.fail("drew a replicate"))
        with pytest.raises(InputError, match=message):
            tau_curves(small_cohort(n_models=3, n=6), ["bayes", "pass@2"],
                       ResamplePlan("row", 4, seed=1), convergence_replicates=replicates)


class TestMomentTotals:
    """A scan of ``bayes`` and ``avg`` alone scores from prefix category
    totals and never builds per-question counts, with the same bits."""

    @staticmethod
    def counted(monkeypatch):
        """Make every later scan keep per-question counts."""
        real = bootstrap._prepared
        monkeypatch.setattr(bootstrap, "_prepared", lambda *a: (real(*a)[0], True))

    def test_five_categories_equal_counts_scan(self, monkeypatch):
        rng = np.random.default_rng(6)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 5, size=(9, 11)), 5) for i in range(4)}
        w = WeightVector((0.0, 0.0, 1.0, 2.0, 3.0))
        tau_plan, conv_plan = ResamplePlan("row", 12, seed=3), ResamplePlan("row", 17, seed=3)
        methods = ["bayes", "avg"]

        def run():
            return (tau_curves(mats, methods, tau_plan, weights=w),
                    scan_points(mats, methods, conv_plan, weights=w))

        with monkeypatch.context() as m:
            m.setattr(Method, "scores_from_counts", lambda *a: pytest.fail("built counts"))
            curves, points = run()
        self.counted(monkeypatch)
        counted_curves, counted_points = run()
        assert curves == counted_curves
        assert points.tobytes() == counted_points.tobytes()

    def test_identity_weights_built_once_per_method(self, monkeypatch):
        # an unweighted method's identity weights are built once per scan,
        # not once per prefix (12 prefixes here)
        mats = small_cohort(n_models=4, n=12, seed=2)
        plan = ResamplePlan("row", 20, seed=1)
        gold = bootstrap.gold_table(mats)
        calls, identity = [], WeightVector.identity.__func__
        monkeypatch.setattr(WeightVector, "identity",
                            classmethod(lambda cls, c: calls.append(c) or identity(cls, c)))
        for scan in (tau_curves, convergence_distributions):
            calls.clear()
            scan(mats, ["bayes", "avg"], plan, gold=gold)
            assert calls == [2, 2], scan.__name__

    @pytest.mark.parametrize("scheme", ["row", "column"])
    def test_binary_equal_mixed_scan(self, scheme):
        mats = small_cohort(n_models=5, n=12, seed=8)
        tau_plan, conv_plan = ResamplePlan(scheme, 30, seed=4), ResamplePlan(scheme, 25, seed=4)
        mixed, moments = ["bayes", "avg", "pass@2"], ["bayes", "avg"]
        mixed_curves, moment_curves = (tau_curves(mats, m, tau_plan) for m in (mixed, moments))
        mixed_points, moment_points = (scan_points(mats, m, conv_plan) for m in (mixed, moments))
        for i, name in enumerate(moments):
            assert moment_curves[name] == mixed_curves[name]
            assert moment_points[i].tobytes() == mixed_points[i].tobytes()


class TestChunkFree:
    """No scan output depends on how many replicates a chunk holds."""

    @staticmethod
    def outputs():
        mats = small_cohort(n_models=5, n=12, seed=3)
        methods = ["bayes", "avg", "pass@2", "mgpass@3"]
        tau_plan, conv_plan = ResamplePlan("row", 70, seed=2), ResamplePlan("row", 45, seed=2)
        rng = np.random.default_rng(9)
        cat5 = {f"m{i}": validate_matrix(rng.integers(0, 5, size=(7, 12)), 5) for i in range(4)}
        w = WeightVector((0.0, 0.0, 1.0, 2.0, 3.0))

        def points(*args, **kwargs):  # as bytes, so == compares bits
            return scan_points(*args, **kwargs).tobytes()

        return (
            tau_curves(mats, methods, tau_plan),
            [points(mats, methods, conv_plan, ci_z=z) for z in (None, 1.0)],
            fresh_tau_curves(reference_cohort()[:5], ["bayes", "pass@2"], 10, 70, seed=4),
            fresh_tau_curves(reference_cohort()[:5], ["bayes"], 10, 70, seed=4),
            tau_curves(cat5, ["bayes", "avg"], tau_plan, weights=w),
            points(cat5, ["bayes", "avg"], conv_plan, weights=w),
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

    @staticmethod
    def peaks(mats, methods, plan) -> list[int]:
        """tracemalloc peak of each scan of ``plan``, given the gold ranking."""
        gold, peaks = gold_table(mats), []
        for scan in (tau_curves, convergence_distributions):
            tracemalloc.start()
            try:
                scan(mats, methods, plan, gold=gold)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_chunk_peak_stays_within_budget(self, monkeypatch):
        # one replicate draws 6 x 1000 x 120 = 720 kB, so 16 replicates
        # (the old floor) would hold 11.5 MB against a 4 MiB budget
        budget, models, questions, trials = 4 << 20, 6, 1000, 120
        monkeypatch.setattr(bootstrap, "_CHUNK_TARGET_BYTES", budget)
        rng = np.random.default_rng(0)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 2, size=(questions, trials)), 2)
                for i in range(models)}
        methods = ["bayes", "pass@2"]
        # outside the per-chunk budget: the source's uint8 copies of the
        # inputs and the tau-b sums, 3 x (n_max + 1) x pairs float64 per method
        outside = (models * questions * trials
                   + len(methods) * 3 * (trials + 1) * (models * (models - 1) // 2) * 8)
        for peak in self.peaks(mats, methods, ResamplePlan("row", 20, seed=1)):
            assert peak <= budget + outside

    def test_moment_chunk_peak_stays_within_budget(self, monkeypatch):
        # a bayes,avg scan builds prefix totals, not counts: one replicate's
        # C = 5 draws and category mask take 2 x 720 kB against a 4 MiB budget
        budget, models, questions, trials = 4 << 20, 6, 1000, 120
        monkeypatch.setattr(bootstrap, "_CHUNK_TARGET_BYTES", budget)
        rng = np.random.default_rng(2)
        mats = {f"m{i}": validate_matrix(rng.integers(0, 5, size=(questions, trials)), 5)
                for i in range(models)}
        methods = ["bayes", "avg"]
        # outside the per-chunk budget: the source's uint8 copies of the
        # inputs and the tau-b sums, 3 x (n_max + 1) x pairs float64 per method
        outside = (models * questions * trials
                   + len(methods) * 3 * (trials + 1) * (models * (models - 1) // 2) * 8)
        for peak in self.peaks(mats, methods, ResamplePlan("row", 20, seed=1)):
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
        methods = ["bayes", "pass@2"]
        # outside the budget: the source's uint8 copies of the inputs
        # and the tau-b sums, 3 x (n_max + 1) x pairs float64 per method
        outside = (models * questions * trials
                   + len(methods) * 3 * (trials + 1) * (models * (models - 1) // 2) * 8)
        for scheme in ("row", "column"):
            for peak in self.peaks(mats, methods, ResamplePlan(scheme, 3, seed=1)):
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
