import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bayeseval import simulate
from bayeseval._rng import (
    DOMAIN_FRESH,
    DOMAIN_SEPARATION,
    DOMAIN_TRIALS,
    categories,
    coin_thresholds,
    stream_rng,
)
from bayeseval.errors import (
    AllTiedError,
    InputError,
    NegativeZError,
    NotReachableError,
    ZeroTrialsError,
)
from bayeseval.methods import parse_method
from bayeseval.model import validate_matrix
from bayeseval.ranking import ScoredModel, kendall_tau_b, rank_without_ci
from bayeseval.simulate import (
    REFERENCE_MEANS,
    CohortSpec,
    CoinModel,
    SeparationResult,
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


def redraw(seed, domain, replicate, n, probs):
    """Replicate ``replicate``'s first n trials of the (models, questions)
    ``probs`` by a route independent of ``simulate``: numpy's full-range
    uint32 draw, which splits each 64-bit Philox word low half first, against
    ceil(p 2^32)."""
    words = stream_rng(seed, domain, replicate).integers(
        0, 2**32, size=(n, *probs.shape), dtype=np.uint32
    )
    return words < np.ceil(probs * 2.0**32)


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


class TestSampleTrials:
    def test_degenerate_probabilities(self):
        ones = CoinModel("hi", np.ones(5))
        zeros = CoinModel("lo", np.zeros(5))
        assert sample_trials(ones, 7, seed=1).cells.min() == 1
        assert sample_trials(zeros, 7, seed=1).cells.max() == 0
        # ceil(p 2^32) = 2^32 lies past every 32-bit limit: a success by the mask
        almost = CoinModel("almost", np.full(5, 1 - 2**-40))
        assert sample_trials(almost, 7, seed=1).cells.min() == 1

    def test_equals_an_independent_redraw_of_the_rule(self):
        # the stream's raw 64-bit words, low half first, one 32-bit word per
        # cell trial by trial; a success iff the word is below ceil(p 2^32),
        # in Python ints. 29 questions: one word's halves straddle two trials
        probs = np.concatenate([[0.0, 1.0, 1 - 2**-40, 2**-33], reference_cohort()[5].probs[:25]])
        trials, m = 11, probs.size
        raw = stream_rng(13, DOMAIN_TRIALS, 0).bit_generator.random_raw(-(-trials * m // 2))
        words = [half for w in raw.tolist() for half in (w & 0xFFFFFFFF, w >> 32)]
        limits = [math.ceil(Fraction(p) * 2**32) for p in probs.tolist()]
        want = [[int(words[t * m + q] < limits[q]) for t in range(trials)] for q in range(m)]
        cells = sample_trials(CoinModel("m", probs), trials, seed=13).cells
        assert cells.dtype == np.int64 and cells.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=9), st.integers(1, 120),
           st.integers(1, 120), st.integers(0, 2**64 - 1))
    # 20,001 questions: draw blocks of 52 trials, so 70 trials take two and 110 three
    @example([0.25, 0.5, 0.75] * 6667, 70, 110, 5)
    def test_first_n_trials_match_any_longer_draw(self, probs, a, b, seed):
        n, trials = sorted((a, b))
        model = CoinModel("m", np.array(probs))
        assert np.array_equal(sample_trials(model, n, seed).cells,
                              sample_trials(model, trials, seed).cells[:, :n])

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

    @pytest.mark.parametrize("pair", ["reference", "edges"])
    def test_groups_chunks_and_blocks_keep_every_bit(self, monkeypatch, pair):
        # a draw block of 23 trials holds a group of one whole replicate, one
        # of 7 * 23 a group of 7, one of 10^9 a group of the whole chunk, and
        # one of 3 trials makes each replicate a group of one drawn in blocks
        if pair == "reference":
            a, b = reference_cohort()[9], reference_cohort()[8]
        else:   # p = 0, p = 1 and ceil(p 2^32) = 2^32, beside ordinary rates
            a = CoinModel("a", np.array([0.0, 1.0, 1 - 2.0**-40, 0.999999, 0.6]))
            b = CoinModel("b", np.array([1.0, 0.0, 0.5, 1 - 2.0**-40, 0.0]))
        expected = separation_experiment(a, b, [1, 10, 23], replicates=40, seed=5)
        for block in (23, 7 * 23, 10**9, 3):
            monkeypatch.setattr(simulate, "draw_block", lambda unit_bytes, b=block: b)
            for chunk in (1, 7, 512):
                monkeypatch.setattr(simulate, "_separation_chunk", lambda *shape, c=chunk: c)
                got = separation_experiment(a, b, [1, 10, 23], replicates=40, seed=5)
                assert got == expected, (block, chunk)

    @pytest.mark.parametrize("n", [1, 80])
    def test_exact_ties_count_one_half(self, n):
        # redraw each replicate's trials from its one stream, both models
        # trial-major, and order the pair by integer correct totals; an
        # exact tie counts one half
        a, b = reference_cohort()[9], reference_cohort()[8]
        reps, seed = 3000, 0
        probs = np.stack([a.probs, b.probs])
        totals = np.array([
            redraw(seed, DOMAIN_SEPARATION, r, n, probs).sum(axis=(0, 2)) for r in range(reps)
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
        # the counts of a chunk of replicates and its group buffer of draws
        # stay within the byte budget; the fixed terms are 9 bytes a cell of
        # one replicate (its 32-bit words and their booleans take 5), its
        # sums between grid points and the (replicates, grid) |z| array
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

    @pytest.mark.parametrize("n", [320, 3200])
    def test_one_replicate_within_budget(self, n):
        # one replicate of 2 x 20,000 questions x n trials (12.8 or 128 MB of
        # booleans): each draw block's trials are added into the per-point
        # counts as they are drawn, so only one block of words and booleans
        # is held at a time
        a = CoinModel("a", np.full(20_000, 0.6))
        b = CoinModel("b", np.full(20_000, 0.5))
        separation_experiment(a, b, [1], replicates=1)  # numpy's first-draw imports
        tracemalloc.start()
        try:
            separation_experiment(a, b, [40, n], replicates=1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulate._CHUNK_BYTES, peak

    def test_grid_validation(self):
        cohort = reference_cohort()
        with pytest.raises(ZeroTrialsError):
            separation_experiment(cohort[0], cohort[1], [0, 5], replicates=10, seed=0)

    def test_replicates_bounded_by_stream_indices(self, monkeypatch):
        monkeypatch.setattr(simulate, "categories", lambda *a: pytest.fail("drew a replicate"))
        cohort = reference_cohort()
        with pytest.raises(InputError, match="2\\^40"):
            separation_experiment(cohort[0], cohort[1], [5], replicates=2**40 + 1)

    def test_min_trials_helper(self):
        cohort = reference_cohort()
        res = separation_experiment(cohort[10], cohort[5], [5, 10, 20], replicates=400, seed=4)
        n = res.min_trials_for_z(1.645)
        assert n in res.n_grid
        _, z = res.at(n)
        assert z >= 1.645

    def test_min_trials_compares_z_itself(self):
        # 1 / (1 / z) rounds below this z, so a detour through sigma = 1 / z
        # would miss the grid point whose mean |z| equals the target
        z = 3.808447434438728
        assert 1.0 / (1.0 / z) < z
        res = SeparationResult("a", "b", (10, 20, 40), (0.9, 0.95, 0.99), (1.0, z, 5.0), 100)
        assert res.min_trials_for_z(z) == 20
        assert res.min_trials_for_z(math.nextafter(z, 0.0)) == 20
        assert res.min_trials_for_z(math.nextafter(z, 9.0)) == 40

    def test_min_trials_errors(self):
        res = SeparationResult("a", "b", (10, 20), (0.5, 0.6), (0.0, 1.5), 100)
        for target in (0.0, -1.0, math.nan):
            with pytest.raises(NegativeZError):
                res.min_trials_for_z(target)
        with pytest.raises(NotReachableError):
            res.min_trials_for_z(1.6)


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
            redraw(seed, DOMAIN_FRESH, r, n_max, probs).transpose(1, 2, 0)
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

    def test_one_replicate_within_budget(self):
        # one replicate of 2 x 4,000 questions x 1,000 trials: its 8 MB of
        # uint8 draws plus one block of uniforms, not 64 MB of them at once
        cohort = [CoinModel("a", np.full(4_000, 0.6)), CoinModel("b", np.full(4_000, 0.5))]
        fresh_tau_curves(cohort, ["bayes"], 2, replicates=1)  # numpy's first-draw imports
        tracemalloc.start()
        try:
            fresh_tau_curves(cohort, ["bayes"], 1_000, replicates=1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulate._CHUNK_BYTES, peak

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

    def test_replicates_bounded_by_stream_indices(self, monkeypatch):
        monkeypatch.setattr(simulate, "categories", lambda *a: pytest.fail("drew a replicate"))
        with pytest.raises(InputError, match="2\\^40"):
            fresh_tau_curves(reference_cohort()[:3], ["bayes"], 4, replicates=2**40 + 1)

    def test_no_count_wraparound(self):
        # prefix counts past 32,767 trials must not wrap (int16 would)
        cohort = [CoinModel("hi", [1.0]), CoinModel("lo", [0.0])]
        n_max = 32_800
        curve = fresh_tau_curves(cohort, ["bayes"], n_max, replicates=1)["bayes"]
        assert [p.n for p in curve.points] == list(range(1, n_max + 1))
        assert all(p.mean_tau == 1.0 for p in curve.points)


class TestDrawBlocks:
    @pytest.mark.parametrize("block", [1, 3, 7, 10**9])
    def test_blocks_keep_every_bit(self, monkeypatch, block):
        # words are drawn in order, so drawing a replicate a block of trials
        # at a time (and adding separation's counts a block at a time) gives
        # the bits of one whole draw
        cohort = reference_cohort()
        probs = np.stack([cohort[i].probs for i in (0, 5, 9)])
        whole = redraw(4, DOMAIN_FRESH, 2, 23, probs)
        expected = (
            separation_experiment(cohort[9], cohort[8], [1, 10, 23], replicates=40, seed=4),
            fresh_tau_curves(cohort[:4], ["bayes", "pass@2"], 12, replicates=20, seed=4),
        )
        monkeypatch.setattr(simulate, "draw_block", lambda unit_bytes: block)
        out = np.empty((23, *probs.shape), np.uint8)
        categories(stream_rng(4, DOMAIN_FRESH, 2), coin_thresholds(probs), out, block)
        assert np.array_equal(out, whole)
        assert expected == (
            separation_experiment(cohort[9], cohort[8], [1, 10, 23], replicates=40, seed=4),
            fresh_tau_curves(cohort[:4], ["bayes", "pass@2"], 12, replicates=20, seed=4),
        )

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_odd_cell_count_blocks_keep_every_bit(self, monkeypatch, block):
        # 3 models x 5 questions: 15 cells a trial, so one 64-bit word
        # straddles two trials and a block must hold an even cell count
        cohort = generate_cohort(CohortSpec(questions=5, seed=2))[2:5]
        probs = np.stack([m.probs for m in cohort])
        whole = redraw(6, DOMAIN_FRESH, 1, 11, probs)
        expected = fresh_tau_curves(cohort, ["bayes", "avg"], 11, replicates=9, seed=6)
        monkeypatch.setattr(simulate, "draw_block", lambda unit_bytes: block)
        out = np.empty((11, *probs.shape), np.uint8)
        categories(stream_rng(6, DOMAIN_FRESH, 1), coin_thresholds(probs), out, block)
        assert np.array_equal(out, whole)
        assert fresh_tau_curves(cohort, ["bayes", "avg"], 11, replicates=9, seed=6) == expected


class TestThresholds:
    # a cell succeeds iff its 32-bit word is below ceil(p 2^32): stored as a
    # uint32 limit min(ceil(p 2^32), 2^32 - 1) plus a mask of the cells whose
    # ceil(p 2^32) is 2^32, which always succeed

    def test_edge_probabilities(self):
        edges = np.array([0.0, 1.0, 2.0**-40, 0.5, 1 - 2.0**-40, 1 - 2.0**-32])
        limits, always = coin_thresholds(edges)
        assert limits.dtype == np.uint32
        assert limits.tolist() == [[0, 2**32 - 1, 1, 2**31, 2**32 - 1, 2**32 - 1]]
        assert always.tolist() == [[False, True, False, False, True, False]]

    def test_no_mask_without_a_certain_cell(self):
        limits, always = coin_thresholds(np.array([0.0, 0.5, 1 - 2.0**-32]))
        assert limits.tolist() == [[0, 2**31, 2**32 - 1]] and always is None

    def test_zero_never_and_one_always_succeeds(self):
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1 - 2.0**-40]])
        out = np.empty((5_000, *probs.shape), bool)
        categories(stream_rng(3, DOMAIN_FRESH, 0), coin_thresholds(probs), out, 10**9)
        assert np.array_equal(out, np.broadcast_to(probs > 0.5, out.shape))

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_odd_cell_count_edges_match_the_full_range_draw(self, dtype):
        # 3 models x 5 questions with p = 0, p = 1, ceil(p 2^32) = 2^32 and
        # 1 - 2^-32 (limit 2^32 - 1, no mask) beside ordinary rates
        probs = np.array([[0.0, 1.0, 1 - 2.0**-40, 1 - 2.0**-32, 0.3],
                          [0.7, 0.0, 1.0, 0.5, 2.0**-40],
                          [1 - 2.0**-40, 0.999999, 0.0, 1.0, 0.1]])
        out = np.empty((41, *probs.shape), dtype)
        categories(stream_rng(8, DOMAIN_FRESH, 2), coin_thresholds(probs), out, 10**9)
        assert np.array_equal(out, redraw(8, DOMAIN_FRESH, 2, 41, probs))
