"""Posterior-based evaluation toolkit.

Closed-form Bayesian performance scores with credible intervals, the
pass@k estimator family, CI-aware competition rankings, bootstrap
convergence analytics, biased-coin model mimics with known ground truth,
and a rubric engine mapping raw attempt signals to categorical outcomes.

Every public name and submodule below is importable from the package
(``from bayeseval import tau_curves``, ``bayeseval.bootstrap``), but each
is loaded on first access (PEP 562), so ``import bayeseval`` loads no
submodule and not numpy, and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule defining it; a submodule maps to itself
_LAZY = {
    **{m: m for m in ("bayes", "bootstrap", "errors", "methods", "model",
                      "passk", "ranking", "rubric", "simulate")},
    **dict.fromkeys(("affine_bridge", "avg_sigma_from_bayes", "evaluate_performance",
                     "naive_weighted_average"), "bayes"),
    **dict.fromkeys(("ConvergenceDistribution", "ResamplePlan", "ResampleScheme", "TauCurve",
                     "convergence_distributions", "resample", "tau_curves"), "bootstrap"),
    **dict.fromkeys(("Method", "parse_method", "parse_methods"), "methods"),
    **dict.fromkeys(("UNIFORM", "PosteriorSummary", "PriorData", "ResultsMatrix",
                     "TallyTable", "WeightVector", "tally", "validate_matrix"), "model"),
    **dict.fromkeys(("BinaryTally", "g_pass_at_k_tau", "mg_pass_at_k", "naive_pass_hat_k",
                     "pass_at_k", "pass_hat_k"), "passk"),
    **dict.fromkeys(("RankTable", "ScoredModel", "kendall_tau_b", "rank_with_ci",
                     "rank_without_ci", "ranking_confidence", "z_score"), "ranking"),
    **dict.fromkeys(("SCHEMATA", "Schema", "SignalTable", "ThresholdSet",
                     "build_matrix", "categorize", "compute_thresholds", "derive_variables",
                     "schema_by_name"), "rubric"),
    **dict.fromkeys(("REFERENCE_MEANS", "CohortSpec", "CoinModel", "fresh_tau_curves",
                     "generate_cohort", "gold_ranking", "reference_cohort", "sample_trials",
                     "separation_experiment"), "simulate"),
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
