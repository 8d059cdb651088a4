"""Scale-invariant slide, assembly, and level statistics of finite point sets.

The package computes genial entropy of corner densities, the slide function
and its derivatives at zero (slide numbers), the same statistics over all
pairwise distances (assembly numbers), their linear-deformation analogue
(level numbers), dimension estimates built on the reference power law, and
a seeded replication harness that reproduces simulation tables end to end.
"""

# version first: submodules import it while the package is initializing
__version__ = "0.1.0"

from .corner_density import (
    CornerDensity,
    SlideFunctionEvaluation,
    analytic_catalog,
    genial_entropy,
    neg_log_derivative,
    neg_log_slide,
    slide_function,
    step_slide_function,
)
from .errors import (
    ConfigError,
    DivergenceError,
    DuplicatePointError,
    ParseError,
    SlideStatsError,
)
from .geometry import (
    PAIRWISE_CAP,
    DescendingDistances,
    PointSet,
    consecutive_gaps,
    nn_distances,
    pairwise_distances,
)
from .harness import (
    SCHEMA_VERSION,
    Aggregate,
    ExperimentConfig,
    ExperimentReport,
    FailedReplicate,
    StatisticRequest,
    emit_report,
    format_table,
    load_points,
    load_report,
    render_report,
    render_reports,
    run_experiment,
)
from .numerics import (
    EULER_GAMMA,
    DerivativeEstimate,
    Interval,
    digamma,
    integrate,
    log_gamma,
    right_derivatives,
    zeta_int,
)
from .processes import (
    GENERATOR_NAME,
    ProcessSpec,
    RandomStream,
    first_primes,
    generate,
    process_kinds,
    substream,
)
from .slide_stats import (
    MAX_NUMERIC_ORDER,
    SlideReport,
    TangibilityVerdict,
    assembly_numbers,
    dimension_estimates,
    level_derivatives,
    level_numbers,
    psi1,
    psi2_conjectured,
    psi_numeric,
    slide_numbers,
    tangibility_check,
)

__all__ = [
    "__version__",
    "EULER_GAMMA",
    "GENERATOR_NAME",
    "MAX_NUMERIC_ORDER",
    "PAIRWISE_CAP",
    "SCHEMA_VERSION",
    "Aggregate",
    "ConfigError",
    "CornerDensity",
    "DerivativeEstimate",
    "DescendingDistances",
    "DivergenceError",
    "DuplicatePointError",
    "ExperimentConfig",
    "ExperimentReport",
    "FailedReplicate",
    "Interval",
    "ParseError",
    "PointSet",
    "ProcessSpec",
    "RandomStream",
    "SlideFunctionEvaluation",
    "SlideReport",
    "SlideStatsError",
    "StatisticRequest",
    "TangibilityVerdict",
    "analytic_catalog",
    "assembly_numbers",
    "consecutive_gaps",
    "digamma",
    "dimension_estimates",
    "emit_report",
    "first_primes",
    "format_table",
    "generate",
    "genial_entropy",
    "integrate",
    "level_derivatives",
    "level_numbers",
    "load_points",
    "load_report",
    "log_gamma",
    "neg_log_derivative",
    "neg_log_slide",
    "nn_distances",
    "pairwise_distances",
    "process_kinds",
    "psi1",
    "psi2_conjectured",
    "psi_numeric",
    "render_report",
    "render_reports",
    "right_derivatives",
    "run_experiment",
    "slide_function",
    "slide_numbers",
    "step_slide_function",
    "substream",
    "tangibility_check",
    "zeta_int",
]
