"""Semantic exception hierarchy shared by all l1agg modules."""


class L1AggError(Exception):
    """Base class for all l1agg errors."""


class DictionaryError(L1AggError):
    """Invalid dictionary construction (bad M, kind constraints, bad tables)."""


class ShapeError(L1AggError):
    """Dimension mismatch between arrays, points and dictionaries."""


class DomainError(L1AggError):
    """Evaluation points fall outside the dictionary domain."""


class ConfigError(L1AggError):
    """Invalid tuning parameter, rate kind, or experiment configuration."""


class NumericError(L1AggError):
    """A computation produced non-finite or otherwise unusable values."""


class DegenerateDictionaryError(L1AggError):
    """A Gram diagonal entry is nonpositive (zero-norm dictionary function)."""


class UnsupportedOperationError(L1AggError):
    """Operation outside what the library computes: a grid for a dictionary
    with d > 1 (grids span one axis), or a draw from a non-uniform measure."""


class ConvergenceError(L1AggError):
    """Solver spent its sweep budget above the KKT bound tol ||f_j||_n ||y||_n.

    Carries the partial fit so callers can inspect or salvage it.
    """

    def __init__(self, message, partial_fit=None):
        super().__init__(message)
        self.partial_fit = partial_fit
