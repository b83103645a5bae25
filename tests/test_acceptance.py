"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -s`` to see them inline).

Statistical criteria run at fixed seeds so the suite is reproducible;
tolerance bands are pinned in the constants below.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from bayeseval.bayes import (
    affine_bridge,
    avg_sigma_from_bayes,
    evaluate_performance,
    naive_weighted_average,
)
from bayeseval.bootstrap import (
    ResamplePlan,
    convergence_distributions,
    tau_curves,
)
from bayeseval.model import UNIFORM, WeightVector, validate_matrix
from bayeseval.passk import (
    BinaryTally,
    g_pass_at_k_tau,
    mg_pass_at_k,
    pass_at_k,
    pass_hat_k,
)
from bayeseval.ranking import kendall_tau_b, ranking_confidence
from bayeseval.simulate import (
    fresh_tau_curves,
    reference_cohort,
    sample_trials,
    separation_experiment,
)

TOL = 1e-12

# criterion 5 bands
P80_BAND = (0.80, 0.87)
N_FOR_Z95_BAND = (169, 229)
N_FOR_Z975_BAND = (242, 328)
SEPARATION_REPLICATES = 10_000

# criterion 6 settings
FRESH_REPLICATES = 4_000       # fresh trial matrices for the domination check
TAU_REPLICATES = 10_000        # bootstrap replicates per scheme
DOMINATION_RANGE = range(4, 41)
TAU_RUNTIME_LIMIT_S = 600.0
SCHEME_ABS_BAND = 0.02         # plot-scale agreement between the two schemes
SCHEME_MEAN_BAND = 0.005


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def random_groups(rng, groups, per_group):
    """Instance groups sharing (M, N, C, weights) so scores are comparable."""
    out = []
    for _ in range(groups):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 51))
        c = int(rng.integers(1, 5))
        w = WeightVector(tuple(rng.normal(0, 3, size=c + 1)))
        mats = [
            validate_matrix(rng.integers(0, c + 1, size=(m, n)), c + 1)
            for _ in range(per_group)
        ]
        out.append((w, mats))
    return out


def dirichlet_oracle(matrix, weights):
    from bayeseval.model import tally

    t = tally(matrix, UNIFORM)
    big_t = t.total
    w = np.asarray(weights.weights)
    m = matrix.questions
    mu = var = 0.0
    for alpha in range(m):
        nu = t.nu[alpha].astype(float)
        mu += float(w @ nu) / big_t
        cov = (np.diag(nu) * big_t - np.outer(nu, nu)) / (big_t**2 * (big_t + 1))
        var += float(w @ cov @ w)
    return mu / m, var / (m * m)


def test_criterion_1_dirichlet_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_mu = worst_var = 0.0
    count = 0
    for w, mats in random_groups(rng, groups=200, per_group=5):
        for matrix in mats:
            s = evaluate_performance(matrix, UNIFORM, w)
            mu_o, var_o = dirichlet_oracle(matrix, w)
            worst_mu = max(worst_mu, abs(s.mu - mu_o))
            worst_var = max(worst_var, abs(s.sigma**2 - var_o))
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 1000
    assert worst_mu <= TOL and worst_var <= TOL
    assert elapsed < 5.0
    report(
        "1 (posterior-moment oracle)",
        f"1000 instances, max |mu err|={worst_mu:.2e}, max |var err|={worst_var:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_average_equivalence():
    rng = np.random.default_rng(1002)
    worst_bridge = worst_sigma = 0.0
    order_checks = 0
    for w, mats in random_groups(rng, groups=200, per_group=5):
        stats = []
        for matrix in mats:
            s = evaluate_performance(matrix, UNIFORM, w)
            a = naive_weighted_average(matrix, w)
            const, scale = affine_bridge(matrix.trials, matrix.num_categories, w)
            worst_bridge = max(worst_bridge, abs(s.mu - (const + scale * a)))
            sigma_avg = avg_sigma_from_bayes(s.sigma, matrix.trials, matrix.num_categories)
            factor = (matrix.num_categories + matrix.trials) / matrix.trials
            worst_sigma = max(worst_sigma, abs(sigma_avg - factor * s.sigma))
            stats.append((s.mu, a))
        for (mu1, a1), (mu2, a2) in combinations(stats, 2):
            order_checks += 1
            s_mu, s_a = np.sign(mu1 - mu2), np.sign(a1 - a2)
            assert s_mu == s_a or (abs(mu1 - mu2) < TOL and abs(a1 - a2) < TOL)
    assert worst_bridge <= TOL and worst_sigma <= TOL
    report(
        "2 (average-score equivalence)",
        f"bridge err={worst_bridge:.2e}, sigma-factor err={worst_sigma:.2e}, "
        f"{order_checks} ordered pairs consistent",
    )


def test_criterion_3_pass_family_brute_force():
    checks = 0
    worst = 0.0
    for n in range(1, 9):
        for c in range(n + 1):
            tally = BinaryTally.from_counts([(n, c)])
            trials = [1] * c + [0] * (n - c)
            for k in range(1, n + 1):
                subsets = list(combinations(range(n), k))
                hits1 = sum(1 for s in subsets if any(trials[i] for i in s))
                hits_all = sum(1 for s in subsets if all(trials[i] for i in s))
                worst = max(worst, abs(pass_at_k(tally, k) - hits1 / len(subsets)))
                worst = max(worst, abs(pass_hat_k(tally, k) - hits_all / len(subsets)))
                for j in range(1, k + 1):
                    tau = Fraction(j, k)
                    need = math.ceil(tau * k)
                    hits_j = sum(
                        1 for s in subsets if sum(trials[i] for i in s) >= need
                    )
                    worst = max(
                        worst,
                        abs(g_pass_at_k_tau(tally, k, tau) - hits_j / len(subsets)),
                    )
                    checks += 1
                if k >= 2:
                    lo = math.ceil(k / 2) + 1
                    defining = 2 / k * math.fsum(
                        g_pass_at_k_tau(tally, k, Fraction(i, k))
                        for i in range(lo, k + 1)
                    )
                    worst = max(worst, abs(mg_pass_at_k(tally, k) - defining))
                checks += 2
    assert worst <= TOL
    report(
        "3 (subset-enumeration oracle)",
        f"{checks} estimator evaluations vs exhaustive enumeration, max err={worst:.2e}",
    )


def _all_rank_vectors(length, alphabet=4):
    grid = np.indices((alphabet,) * length).reshape(length, -1).T + 1
    return grid.astype(np.int8)


def _pair_signs(vectors):
    n = vectors.shape[1]
    pairs = list(combinations(range(n), 2))
    signs = np.empty((vectors.shape[0], len(pairs)), dtype=np.int8)
    ties = np.zeros(vectors.shape[0], dtype=np.int32)
    for p, (i, j) in enumerate(pairs):
        d = vectors[:, i].astype(np.int16) - vectors[:, j]
        signs[:, p] = np.sign(d)
        ties += d == 0
    return signs, ties


def _group_tie_pairs(vectors, alphabet=4):
    out = np.zeros(vectors.shape[0], dtype=np.int32)
    for v in range(1, alphabet + 1):
        cnt = (vectors == v).sum(axis=1).astype(np.int32)
        out += cnt * (cnt - 1) // 2
    return out


def test_criterion_4_kendall_exhaustive():
    checks = 0
    for length in range(2, 7):
        vectors = _all_rank_vectors(length)
        n0 = length * (length - 1) // 2
        signs, tie_pairs = _pair_signs(vectors)
        tie_groups = _group_tie_pairs(vectors)
        # the two tie routes must agree before they feed the denominators
        assert np.array_equal(tie_pairs, tie_groups)
        valid = tie_groups < n0
        block = 1024
        for start in range(0, len(vectors), block):
            stop = min(start + block, len(vectors))
            sa = signs[start:stop]
            # implementation route: sign-profile product plus group ties
            ncd_formula = sa.astype(np.int32) @ signs.T.astype(np.int32)
            # oracle route: classify every index pair explicitly
            nc = np.zeros_like(ncd_formula)
            nd = np.zeros_like(ncd_formula)
            for p in range(signs.shape[1]):
                prod = np.outer(sa[:, p], signs[:, p])
                nc += prod == 1
                nd += prod == -1
            assert np.array_equal(ncd_formula, nc - nd)
            denom = np.sqrt(
                np.outer(n0 - tie_groups[start:stop], n0 - tie_groups).astype(float)
            )
            mask = np.outer(valid[start:stop], valid)
            tau_formula = np.where(mask, ncd_formula / np.where(mask, denom, 1.0), 0.0)
            tau_oracle = np.where(mask, (nc - nd) / np.where(mask, denom, 1.0), 0.0)
            assert np.abs(tau_formula - tau_oracle).max() <= TOL
            checks += int(mask.sum())
        # scalar function vs the vectorized routes
        rng = np.random.default_rng(length)
        if length <= 4:
            idx_pairs = [
                (i, j) for i in range(len(vectors)) for j in range(len(vectors))
            ]
        else:
            idx_pairs = [
                (int(rng.integers(len(vectors))), int(rng.integers(len(vectors))))
                for _ in range(2500)
            ]
        for i, j in idx_pairs:
            if not (valid[i] and valid[j]):
                continue
            a, b = vectors[i].tolist(), vectors[j].tolist()
            want = (signs[i].astype(np.int32) @ signs[j]) / math.sqrt(
                (n0 - tie_groups[i]) * (n0 - tie_groups[j])
            )
            assert abs(kendall_tau_b(a, b) - want) <= TOL
    # identity and reversal anchors
    for length in range(2, 7):
        for perm in permutations(range(1, length + 1)):
            inverted = [length + 1 - v for v in perm]
            assert kendall_tau_b(list(perm), list(perm)) == 1.0
            assert kendall_tau_b(list(perm), inverted) == -1.0
    report(
        "4 (rank-correlation oracle)",
        f"exhaustive pair counting over lengths 2..6 / alphabet 4, {checks} pairs",
    )


def test_criterion_5_separation_reproduction():
    cohort = reference_cohort()
    llm10, llm9 = cohort[9], cohort[8]
    grid = [80] + list(range(160, 341))
    start = time.perf_counter()
    res = separation_experiment(
        llm10, llm9, grid, replicates=SEPARATION_REPLICATES, seed=2025
    )
    elapsed = time.perf_counter() - start
    p80, z80 = res.at(80)
    assert P80_BAND[0] <= p80 <= P80_BAND[1], p80
    n95 = res.min_trials_for_z(1.645)
    n975 = res.min_trials_for_z(1.96)
    assert N_FOR_Z95_BAND[0] <= n95 <= N_FOR_Z95_BAND[1], n95
    assert N_FOR_Z975_BAND[0] <= n975 <= N_FOR_Z975_BAND[1], n975
    report(
        "5 (separation experiment)",
        f"P(correct)@80={p80:.3f} in {P80_BAND}, mean|z|@80={z80:.3f}, "
        f"N(z>=1.645)={n95} in {N_FOR_Z95_BAND}, N(z>=1.96)={n975} in "
        f"{N_FOR_Z975_BAND}, {SEPARATION_REPLICATES} replicates, {elapsed:.1f}s",
    )


PASS_FAMILY = [
    f"{fam}{k}" for k in (2, 4, 8)
    for fam in ("pass@", "pass^", "naive^", "mgpass@")
] + [f"gpass@{k}:1/2" for k in (2, 4, 8)]


def test_criterion_6_tau_curve_domination():
    """Rank-stability curves on the reference cohort.

    Domination runs on fresh trial matrices against the known true-mean
    ranking (bootstrap-of-one-sample inherits that sample's noise around
    the two near-tied model pairs and is not a clean test of the
    estimators themselves). Scheme agreement runs both bootstrap schemes
    on one sampled matrix set; the curves must coincide at plot scale.
    """
    cohort = reference_cohort()
    methods = ["bayes"] + PASS_FAMILY
    start = time.perf_counter()

    fresh = fresh_tau_curves(
        cohort, methods, n_max=max(DOMINATION_RANGE) + 1,
        replicates=FRESH_REPLICATES, seed=4242,
    )
    min_margin = math.inf
    comparisons = 0
    bayes_curve = fresh["bayes"]
    for name in PASS_FAMILY:
        comp = fresh[name]
        for n in DOMINATION_RANGE:
            try:
                other = comp.at(n)
            except KeyError:
                continue
            margin = bayes_curve.at(n).mean_tau - other.mean_tau
            assert margin > 0.0, (name, n, margin)
            min_margin = min(min_margin, margin)
            comparisons += 1

    matrices = {
        m.model_id: sample_trials(m, 80, seed=500 + i) for i, m in enumerate(cohort)
    }
    curves = {}
    for scheme in ("column", "row"):
        plan = ResamplePlan(scheme, replicates=TAU_REPLICATES, seed=77)
        curves[scheme] = tau_curves(matrices, methods, plan)
    elapsed = time.perf_counter() - start
    assert elapsed < TAU_RUNTIME_LIMIT_S

    worst_gap = 0.0
    gaps = []
    for name in methods:
        col, row = curves["column"][name], curves["row"][name]
        for pc in col.points:
            gap = abs(pc.mean_tau - row.at(pc.n).mean_tau)
            gaps.append(gap)
            worst_gap = max(worst_gap, gap)
            assert gap <= SCHEME_ABS_BAND, (name, pc.n, gap)
    mean_gap = float(np.mean(gaps))
    assert mean_gap <= SCHEME_MEAN_BAND, mean_gap
    report(
        "6 (rank-stability curves)",
        f"posterior-mean curve above all {len(PASS_FAMILY)} competitor curves on "
        f"N in [4,40] ({comparisons} points, min margin={min_margin:.4f}, "
        f"{FRESH_REPLICATES} fresh matrices); column vs row bootstrap curves "
        f"coincide (max gap {worst_gap:.4f}, mean {mean_gap:.4f} over "
        f"{2 * TAU_REPLICATES} replicates); {elapsed:.0f}s",
    )


def test_criterion_7_confidence_calibration():
    rho95 = ranking_confidence(1.645)
    rho975 = ranking_confidence(1.96)
    assert 0.9499 <= rho95 <= 0.9501
    assert 0.9749 <= rho975 <= 0.9751
    report(
        "7 (confidence anchors)",
        f"rho(1.645)={rho95:.6f}, rho(1.96)={rho975:.6f}",
    )


def test_criterion_8_convergence_machinery():
    m, n = 5, 12
    hi = validate_matrix(np.ones((m, n), dtype=int), 2)
    mid_cells = np.zeros((m, n), dtype=int)
    mid_cells[: m // 2] = 1
    mats = {
        "hi": hi,
        "mid": validate_matrix(mid_cells, 2),
        "lo": validate_matrix(np.zeros((m, n), dtype=int), 2),
    }
    for seed in (0, 1, 2):
        plan = ResamplePlan("row", replicates=500, seed=seed)
        dists = convergence_distributions(mats, ["bayes", "pass@2", "avg"], plan)
        for dist in dists.values():
            assert dist.counts.sum() + dist.censored_count == dist.replicates
            assert np.array_equal(dist.cdf, np.cumsum(dist.pmf))
        bayes = dists["bayes"]
        assert bayes.counts[1] == plan.replicates
        assert bayes.censored_count == 0
        assert bayes.mean_converged == 1.0
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert "convergence" in readme.read_text().lower()
    report(
        "8 (convergence machinery)",
        "point mass at n=1 on the separated cohort across 3 seeds; "
        "integer mass conservation and cdf = cumsum(pmf) exact",
    )


def test_criterion_9_rubric_totality_and_pipeline():
    from bayeseval.rubric import SCHEMATA, SignalTable, build_matrix, categorize, schema_by_name
    from test_rubric import THRESH, THRESH_FLIPPED, clean_grid, signal_lattice, table_of

    lattice = signal_lattice()
    table = table_of(*lattice)
    invalid = np.array([s["repeated_pattern"] == 1 or s["verifier_offtask"] >= 0.5
                        for s in lattice])
    points = 0
    for thresholds in (THRESH, THRESH_FLIPPED):
        for schema in SCHEMATA:
            cats = categorize(table, schema, thresholds)
            assert ((0 <= cats) & (cats < schema.num_categories)).all()
            assert (cats[invalid] == 0).all()
            points += len(cats)

    # correctness-only pipeline vs the plain binary path, compared through
    # the shared naive average both bridges invert to
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        pattern = rng.integers(0, 2, size=(4, 5)).tolist()
        records = SignalTable.from_records(clean_grid(pattern, questions=4))
        cat_matrix = build_matrix(records, schema_by_name("exact-match"))
        mu_cat = evaluate_performance(
            cat_matrix, UNIFORM, WeightVector((0.0, 0.0, 1.0))
        ).mu
        bin_matrix = validate_matrix(pattern, 2)
        mu_bin = evaluate_performance(bin_matrix, UNIFORM, WeightVector.binary()).mu
        a_cat_const, a_cat_scale = affine_bridge(5, 3, WeightVector((0.0, 0.0, 1.0)))
        a_bin_const, a_bin_scale = affine_bridge(5, 2, WeightVector.binary())
        a_from_cat = (mu_cat - a_cat_const) / a_cat_scale
        a_from_bin = (mu_bin - a_bin_const) / a_bin_scale
        worst = max(worst, abs(a_from_cat - a_from_bin))
    assert worst <= TOL
    report(
        "9 (rubric totality and pipeline)",
        f"{points} lattice points x 12 schemata total with invalid dominance; "
        f"correctness-only pipeline matches binary path through the bridge, "
        f"max err={worst:.2e}",
    )
