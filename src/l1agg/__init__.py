"""Weighted l1-penalized least squares aggregation over function dictionaries.

The package is organized around seven pieces:

* :mod:`l1agg.dictionary`  -- dictionary construction, evaluation, norms,
  and the population Gram and boundedness constants;
* :mod:`l1agg.gram`        -- population/empirical Gram matrices, kappa_M,
  mutual coherence, entrywise Gram deviation;
* :mod:`l1agg.solver`      -- the weighted-lasso coordinate descent with a
  KKT certificate;
* :mod:`l1agg.oracles`     -- oracle vectors, sparsity-class memberships,
  theorem right-hand sides, and good-event indicators;
* :mod:`l1agg.tails`       -- explicit tail bounds, without numpy;
* :mod:`l1agg.experiments` -- seeded Monte Carlo harness for rate and
  bound verification;
* :mod:`l1agg.cli`         -- the ``l1agg`` command-line entry point.

``import l1agg`` loads none of them: each name below is imported from its
module on first use, so a caller pays only for the modules it touches.
"""

__version__ = "0.1.0"

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "dictionary": (
        "DesignMatrix",
        "Dictionary",
        "MeasureSpec",
        "build_coordinate",
        "build_fourier",
        "build_tabulated",
        "empirical_norms",
        "evaluate",
        "grid_density_measure",
        "load_points_csv",
        "load_tabulated_csv",
        "population_constants",
        "population_gram",
        "predict",
        "uniform_measure",
    ),
    "errors": (
        "ConfigError",
        "ConvergenceError",
        "DegenerateDictionaryError",
        "DictionaryError",
        "DomainError",
        "L1AggError",
        "NumericError",
        "ShapeError",
        "UnsupportedOperationError",
    ),
    "gram": (
        "CoherenceReport",
        "coherence",
        "diagnostics",
        "empirical_gram",
        "kappa",
    ),
    "oracles": (
        "BoundConstants",
        "EventFlags",
        "MembershipFlags",
        "OracleReport",
        "PopulationProblem",
        "TruthSpec",
        "evaluate_truth",
        "event_flags",
        "fourier_truth",
        "l0k_truth",
        "linear_truth",
        "membership",
        "oracle_path",
        "oracle_report",
        "oracle_scan",
        "population_dist2",
        "population_problem",
        "sobolev_truth",
        "sparsity",
        "sup_norm_error",
        "tabulated_truth",
        "theorem_rhs",
    ),
    "tails": (
        "bernstein_bound",
        "lemma_bounds",
    ),
    "experiments": (
        "CellSummary",
        "ExperimentConfig",
        "ExperimentRow",
        "NoiseModel",
        "Sample",
        "bound_check",
        "generate",
        "load_config",
        "noise_bounded_uniform",
        "rate_slope",
        "read_rows_csv",
        "run",
        "run_single",
        "summarize",
    ),
    "solver": (
        "LassoFit",
        "fit",
        "penalty_weights",
        "rate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import an exported name's module on first access (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
