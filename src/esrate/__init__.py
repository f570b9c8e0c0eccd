"""esrate: a simulation and verification lab for the elitist (1+1) evolution
strategy with success-based step-size adaptation on strongly convex objectives.

The package simulates the exact chain, estimates empirical convergence rates
on quadratic benchmark families, evaluates the theoretical rate-bound
constants numerically, and verifies the supporting probabilistic
inequalities by Monte Carlo.
"""

from .analysis import (
    Assumption2Report,
    CheckResult,
    DriftEstimate,
    EstimateWithError,
    LemmaReport,
    QStats,
    check_assumption2,
    check_lemma_suite,
    estimate_drift,
    estimate_log_progress,
    estimate_q_stats,
    estimate_success_prob,
    q_extremes,
    quadratic_q_exact,
)
from .engine import (
    EsParams,
    EsState,
    Trajectory,
    init_default,
    p_target,
    params_for_rule,
    params_for_target,
    rng_stream,
    run,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_csv,
    emit_plot,
    run_experiment,
)
from .objectives import (
    ObjectiveSpec,
    Transform,
    affine_pos,
    hessian_family,
    make_composite,
    perturbed_family,
    quadratic_diag,
    sphere,
)
from .rates import (
    RateEstimate,
    estimate_cr,
    lower_rate_bound,
    scaled_rate,
)
from .theory import (
    QExtremes,
    TheoryConstants,
    b_high,
    b_low,
    b_upper,
    build_constants,
    feasible_q_high_interval,
    feasible_q_interval,
    feasible_q_pair,
    potential_value,
    q_floor,
    std_normal_cdf,
    std_normal_quantile,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The CLI loads on first use, so ``python -m esrate.cli`` does not find
    # ``esrate.cli`` imported already by the package.
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
