"""Sequential threshold assignment: greedy policy, oracles, and analysis."""

from .analysis import (
    LoadBoundsResult,
    LoadBoundsVerdict,
    LoadReport,
    MixtureSpec,
    Side,
    build_reward_maximizing_mixture,
    feasible_extremes,
    job_load,
    load_report,
    verify_load_bounds,
)
from .core import (
    AssignmentRecord,
    FunctionKind,
    Instance,
    Interval,
    OrderCheck,
    OrderWitness,
    ThresholdFunction,
    Worker,
    check_order_preserving,
    default_probe_grid,
    eval_f,
    eval_f_array,
)
from .dsstap import (
    Case1Estimate,
    DistKind,
    DistributionSpec,
    HungarianResult,
    Provenance,
    ProbabilityMatrix,
    estimate_prob_matrix,
    expected_reward_case1,
    hungarian_max,
    simulate_case1_realized,
)
from .errors import (
    BadEpsilon,
    BadSpec,
    ConfigError,
    DomainError,
    IncomparableLevels,
    Infeasible,
    MissingEntry,
    NotMonotone,
    OrderViolation,
    SstapError,
    TooLarge,
)
from .multilevel import (
    FlatComparison,
    MultilevelResult,
    compare_flat,
    run_multilevel,
)
from .oracle import (
    FeasibilityGraph,
    offline_optimum_exhaustive,
    offline_optimum_matching,
)
from .policy import (
    PolicyState,
    WorkerPool,
    assign_next,
    greedy_threshold_count,
    run_stream,
    verify_order_preserving,
)

__version__ = "0.1.0"
