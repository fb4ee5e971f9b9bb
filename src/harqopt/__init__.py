"""Analysis, optimization, and simulation of IR-HARQ with unreliable feedback.

The package splits along the signal chain: mi_model covers the downlink
(fading, accumulated mutual information, decoding-failure probabilities),
feedback_model the uplink (single-bit detection geometry and error rates),
harq_analysis the protocol-level performance formulas, optimizer the
constrained rate/threshold search, mc_simulator the end-to-end Monte
Carlo oracle, and cli the file-driven workflows.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    GridError,
    HarqOptError,
    InfeasibleError,
)
from .feedback_model import (
    FeedbackSpec,
    build_sequences,
    make_feedback_spec,
)
from .harq_analysis import (
    HarqPolicy,
    PerformanceBreakdown,
    expected_cost,
    expected_symbols,
    occurrence_probabilities,
    outage_from_failures,
    reliable_throughput,
    unreliable_throughput,
)
from .mc_simulator import SimulationEstimate, estimate_performance
from .mi_model import (
    DownlinkSpec,
    make_downlink_spec,
    mean_mi_closed_form,
    p_fail,
    p_fail_convolution,
    p_fail_gaussian,
)
from .optimizer import (
    RateGrid,
    Solution,
    alternating_optimize,
    best_feasible_allocation,
    make_rate_grid,
    min_achievable_outage,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DownlinkSpec",
    "FeedbackSpec",
    "GridError",
    "HarqOptError",
    "HarqPolicy",
    "InfeasibleError",
    "PerformanceBreakdown",
    "RateGrid",
    "SimulationEstimate",
    "Solution",
    "alternating_optimize",
    "best_feasible_allocation",
    "build_sequences",
    "estimate_performance",
    "expected_cost",
    "expected_symbols",
    "make_downlink_spec",
    "make_feedback_spec",
    "make_rate_grid",
    "mean_mi_closed_form",
    "min_achievable_outage",
    "occurrence_probabilities",
    "outage_from_failures",
    "p_fail",
    "p_fail_convolution",
    "p_fail_gaussian",
    "reliable_throughput",
    "unreliable_throughput",
    "__version__",
]
