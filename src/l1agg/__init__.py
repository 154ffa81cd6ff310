"""Weighted l1-penalized least squares aggregation over function dictionaries.

The package is organized around six pieces:

* :mod:`l1agg.dictionary`  -- dictionary construction, evaluation, norms,
  and the population Gram and boundedness constants;
* :mod:`l1agg.gram`        -- population/empirical Gram matrices, kappa_M,
  mutual coherence, entrywise Gram deviation;
* :mod:`l1agg.solver`      -- the weighted-lasso coordinate descent with a
  KKT certificate;
* :mod:`l1agg.oracles`     -- oracle vectors, sparsity-class memberships,
  theorem right-hand sides, and explicit tail bounds;
* :mod:`l1agg.experiments` -- seeded Monte Carlo harness for rate and
  bound verification;
* :mod:`l1agg.cli`         -- the ``l1agg`` command-line entry point.
"""

__version__ = "0.1.0"

from .dictionary import (
    DesignMatrix,
    Dictionary,
    MeasureSpec,
    build_coordinate,
    build_fourier,
    build_tabulated,
    empirical_norms,
    evaluate,
    grid_density_measure,
    load_points_csv,
    load_tabulated_csv,
    population_constants,
    population_gram,
    predict,
    uniform_measure,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDictionaryError,
    DictionaryError,
    DomainError,
    L1AggError,
    NumericError,
    ShapeError,
    UnsupportedOperationError,
)
from .gram import (
    CoherenceReport,
    coherence,
    diagnostics,
    empirical_gram,
    kappa,
)
from .oracles import (
    BoundConstants,
    EventFlags,
    MembershipFlags,
    OracleReport,
    PopulationProblem,
    TruthSpec,
    bernstein_bound,
    evaluate_truth,
    event_flags,
    fourier_truth,
    lemma_bounds,
    linear_truth,
    membership,
    oracle_path,
    oracle_report,
    oracle_scan,
    population_dist2,
    population_problem,
    sparsity,
    sup_norm_error,
    tabulated_truth,
    theorem_rhs,
)
from .experiments import (
    CellSummary,
    ExperimentConfig,
    ExperimentRow,
    NoiseModel,
    Sample,
    bound_check,
    generate,
    l0k_truth,
    load_config,
    noise_bounded_uniform,
    noiseless,
    rate_slope,
    read_rows_csv,
    run,
    run_single,
    sobolev_truth,
    summarize,
    write_rows_csv,
)
from .solver import (
    LassoFit,
    PenaltyConfig,
    fit,
    penalty_config,
    rate,
    soft_threshold,
)
