"""Semantic exception hierarchy shared by all l1agg modules.

One class per CLI exit code: ConfigError 1, ConvergenceError 2 (through
``fit``), NumericError 4. DegenerateDictionaryError is the one subclass,
kept so that a caller can tell a zero-norm function from other numeric
failures; it exits 4 as NumericError does.
"""


class L1AggError(Exception):
    """Base class for all l1agg errors."""


class ConfigError(L1AggError):
    """An input the library does not take: a bad tuning parameter, rate
    kind or experiment configuration, a bad dictionary or table, an array
    of the wrong shape, a point outside the dictionary domain, or a grid
    over more than one axis."""


class NumericError(L1AggError):
    """A computation produced non-finite or otherwise unusable values."""


class DegenerateDictionaryError(NumericError):
    """A Gram diagonal entry is nonpositive (zero-norm dictionary function)."""


class ConvergenceError(L1AggError):
    """Solver spent its sweep budget above the KKT bound tol ||f_j||_n ||y||_n.

    Carries the partial fit so callers can inspect or salvage it.
    """

    def __init__(self, message, partial_fit=None):
        super().__init__(message)
        self.partial_fit = partial_fit
