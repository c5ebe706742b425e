"""screenlab: a numerical laboratory for a two-stage screening model.

A first-stage reviewer screens applicants using two signals and a
group-specific prejudice penalty; a second stage reuses scores trained on
the resulting selectively labeled data.  The package provides the analytic
score curves, the regret loss they generate, root-finders for every
distinguished prejudice level, Monte Carlo population experiments, and a
command-line interface that emits reproducible CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from ._roots import BracketError, RootResult, bisect_monotone, bisect_monotone_many
from .model import (
    DomainError,
    GaussianSignalModel,
    InvalidModelError,
    MlrpCertificate,
    ModelConfig,
    PayoffParams,
    ScreeningError,
    UnsupportedModelError,
    likelihood_ratio,
    marginal_posterior_phi,
    posterior_kappa,
    require_increasing_phi,
    validate_mlrp,
)
from .scores import (
    acceptance_threshold_T,
    clamped_tau_interval,
    gamma1,
    score_s1,
    score_s2,
)
from .thresholds import (
    CrossingReport,
    EndpointResolutionError,
    InconclusiveResolutionError,
    NonatomicReport,
    TauBarResult,
    ThresholdReport,
    find_critical_prejudices,
    find_regret_crossings,
    find_tau_bar,
    find_tau_star,
    threshold_report,
    verify_nonatomic,
)
from .regret import (
    JumpAnnotation,
    QuadratureError,
    RegretCurves,
    RegretRecord,
    ex_ante_payoff,
    expected_regret,
    expected_regret_gap,
    individual_regret,
    regret_curve,
)
from .population import (
    EnvironmentReport,
    McRegretEstimate,
    Population,
    ScoreBin,
    StageOneData,
    StageOneRecord,
    classify_environment,
    empirical_scores,
    mc_average_regret,
    run_stage_one,
    sample_population,
)
