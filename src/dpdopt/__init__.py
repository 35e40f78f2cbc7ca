"""Differentially private distributed optimization: simulator and analysis.

Agents on an undirected graph minimize the sum of local quadratics. Each
agent publishes only Laplace-perturbed states; a gradient-tracking update
with geometrically decaying step sizes and noise scales keeps the privacy
budget finite while still converging in the mean. The package simulates
those dynamics, audits per-iteration sensitivity against the closed-form
envelope, evaluates convergence-rate and accuracy bounds, and measures
information leakage with a k-NN mutual information estimator.
"""

from .analysis import (
    AUDIT_ALGORITHMS,
    ComparisonReport,
    GainSystem,
    SensitivityEnvelope,
    accuracy_bound,
    atilde,
    audit_sensitivity,
    build_gain_system,
    compare_sensitivities,
    q1_bound,
    rho_less_than,
    tune,
)
from .cli import cli, main
from .engine import (
    ALGORITHMS,
    Trace,
    monte_carlo,
    run,
    trial_seed,
)
from .errors import (
    BudgetError,
    ConfigError,
    DivergenceError,
    ProblemError,
    ScheduleError,
    TopologyError,
)
from .harness import (
    ExperimentConfig,
    build_graph,
    build_problem,
    canonical_json_bytes,
    content_hash,
    format_trace_csv,
    load_config,
    parse_config_text,
    run_experiment,
    summarize,
)
from .objective import (
    AdjacentPair,
    Problem,
    QuadraticCost,
    make_adjacent,
    optimum,
    random_problem,
)
from .privacy_eval import (
    AttackerDataset,
    MnmiReport,
    collect_attacker_view,
    knn_mutual_information,
    mnmi_report,
)
from .rng import substream
from .schedule import (
    ScheduleParams,
    laplace_from_uniform,
    noise_scale,
    privacy_spent,
    spend_from_sensitivities,
    stepsize,
)
from .topology import (
    Graph,
    WeightMatrix,
    connected_erdos_renyi,
    metropolis_weights,
    ring,
    spectral_constants,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AUDIT_ALGORITHMS",
    "AdjacentPair",
    "AttackerDataset",
    "BudgetError",
    "ComparisonReport",
    "ConfigError",
    "DivergenceError",
    "ExperimentConfig",
    "GainSystem",
    "Graph",
    "MnmiReport",
    "Problem",
    "ProblemError",
    "QuadraticCost",
    "ScheduleError",
    "ScheduleParams",
    "SensitivityEnvelope",
    "Trace",
    "TopologyError",
    "WeightMatrix",
    "accuracy_bound",
    "atilde",
    "audit_sensitivity",
    "build_gain_system",
    "build_graph",
    "build_problem",
    "canonical_json_bytes",
    "cli",
    "collect_attacker_view",
    "compare_sensitivities",
    "connected_erdos_renyi",
    "content_hash",
    "format_trace_csv",
    "knn_mutual_information",
    "laplace_from_uniform",
    "load_config",
    "main",
    "make_adjacent",
    "metropolis_weights",
    "mnmi_report",
    "monte_carlo",
    "noise_scale",
    "optimum",
    "parse_config_text",
    "privacy_spent",
    "q1_bound",
    "random_problem",
    "rho_less_than",
    "ring",
    "run",
    "run_experiment",
    "spectral_constants",
    "spend_from_sensitivities",
    "stepsize",
    "substream",
    "summarize",
    "trial_seed",
    "tune",
]
