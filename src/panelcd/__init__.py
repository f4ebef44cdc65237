"""Cross-sectional dependence tests for large balanced panels.

The package covers the full pipeline: panel containers and residual
estimators (per-unit OLS, within estimator, dynamic per-unit OLS), the
residual correlation matrix and its trace functionals, eight dependence
test statistics with p-values and decisions, synthetic panel generators,
and a deterministic Monte Carlo engine for size/power studies.
"""

from .panel import (
    ModelKind,
    NearUnitRootWarning,
    PanelDataset,
    PanelError,
    RankDeficientError,
    ResidualMatrix,
    fit,
    validate_dataset,
)
from .correlation import (
    CorrelationMatrix,
    DegenerateUnitError,
    InvalidBasisError,
    TraceStats,
    correlation_matrix,
    projection_pair_moments,
    trace_stats,
)
from .cd_stats import (
    ALL_TESTS,
    TestConfig,
    TestResult,
    cd_lm_stat,
    cd_p_stat,
    lm_adj_stat,
    lm_bc_stat,
    lm_rmt_stat,
    lm_stat,
    null_constants,
    rlm_pe_stat,
    rlm_stat,
    run_all,
)
from .dgp import (
    Alternative,
    DgpConfig,
    ErrorDist,
    gen_errors,
    gen_loadings,
    generate_panel,
)
from .mc import (
    ExperimentPlan,
    derive_stream,
    run_experiment,
    run_replication,
)

__version__ = "0.1.0"
