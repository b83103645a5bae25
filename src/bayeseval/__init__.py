"""Posterior-based evaluation toolkit.

Closed-form Bayesian performance scores with credible intervals, the
pass@k estimator family, CI-aware competition rankings, bootstrap
convergence analytics, biased-coin model mimics with known ground truth,
and a rubric engine mapping raw attempt signals to categorical outcomes.
"""

from .bayes import (
    affine_bridge,
    avg_sigma_from_bayes,
    evaluate_performance,
    naive_weighted_average,
)
from .bootstrap import (
    ConvergenceDistribution,
    ResamplePlan,
    ResampleScheme,
    TauCurve,
    convergence_at_n,
    convergence_distributions,
    resample,
    tau_curve,
    tau_curves,
    worst_case_trajectory,
)
from .methods import Method, parse_method, parse_methods
from .model import (
    UNIFORM,
    PosteriorSummary,
    PriorData,
    ResultsMatrix,
    TallyTable,
    WeightVector,
    tally,
    validate_matrix,
)
from .passk import (
    BinaryTally,
    g_pass_at_k_tau,
    mg_pass_at_k,
    naive_pass_hat_k,
    pass_at_k,
    pass_hat_k,
)
from .ranking import (
    RankTable,
    ScoredModel,
    kendall_tau_b,
    min_trials_for_confidence,
    rank_with_ci,
    rank_without_ci,
    ranking_confidence,
    z_score,
)
from .rubric import (
    SCHEMATA,
    AttemptSignals,
    Schema,
    SignalTable,
    ThresholdSet,
    build_matrix,
    categorize,
    compute_thresholds,
    derive_variables,
    schema_by_name,
)
from .simulate import (
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

__version__ = "0.1.0"
