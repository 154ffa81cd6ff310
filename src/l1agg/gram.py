"""Gram matrices and the matrix-level diagnostics the risk bounds depend on.

Takes the population Gram Psi_M and, optionally, the empirical Gram
Psi_{n,M} as plain matrices. Provides the normalized-eigenvalue constant
kappa_M (the largest kappa with Psi_M - kappa*diag(Psi_M) positive
semi-definite), mutual-coherence correlations rho_M(i, j) and their
support-restricted maximum rho(lambda), and one report that adds the
entrywise Gram deviation eta_{n,M} when an empirical Gram is given.

Every matrix is checked against one rule (:func:`_unit_diagonal`). All
functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, csv_text
from .dictionary import DesignMatrix
from .errors import DegenerateDictionaryError, NumericError, ShapeError

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class CoherenceReport:
    """kappa_M and rho(lambda) of the population Gram Psi_M.

    Without an empirical Gram, ``eta_nM`` and ``rho_lambda_empirical`` are
    None. With one, ``eta_nM`` is max |Psi_M - Psi_{n,M}|, and
    ``rho_lambda_empirical`` is rho(lambda) of Psi_{n,M}: a diagnostic
    only (the bound conditions are stated for the population matrix), and
    None when Psi_{n,M} has a zero diagonal entry.
    """

    rho_lambda: float
    kappa_M: float
    eta_nM: float | None = None
    rho_lambda_empirical: float | None = None


def empirical_gram(design: DesignMatrix) -> np.ndarray:
    """Empirical Gram n^-1 sum_k f_i(X_k) f_j(X_k), symmetrized."""
    psi = design.entries.T @ design.entries / design.n
    return 0.5 * (psi + psi.T)


def _unit_diagonal(psi) -> np.ndarray:
    """D^{-1/2} psi D^{-1/2} with D = diag(psi): psi scaled to unit diagonal.

    The one rule for a Gram matrix: nonempty, square, finite, symmetric
    within 1e-12, with a positive diagonal. A zero or negative diagonal
    entry raises DegenerateDictionaryError.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or psi.size == 0:
        raise ShapeError("a Gram matrix must be nonempty and square")
    if not np.all(np.isfinite(psi)):
        raise NumericError("Gram matrix contains non-finite entries")
    if np.max(np.abs(psi - psi.T)) > _SYM_TOL:
        raise NumericError(f"Gram matrix is not symmetric within {_SYM_TOL}")
    d = np.diag(psi)
    if np.any(d <= 0):
        raise DegenerateDictionaryError(
            "Gram diagonal has a nonpositive entry; a dictionary function has zero norm"
        )
    scale = 1.0 / np.sqrt(d)
    return psi * np.outer(scale, scale)


def kappa(psi) -> float:
    """Largest kappa such that psi - kappa * diag(psi) is PSD.

    Equals the smallest eigenvalue of D^{-1/2} psi D^{-1/2} with
    D = diag(psi); clamped below at 0 (eigenvalues within -1e-10 of zero
    are quadrature noise).
    """
    normalized = _unit_diagonal(psi)
    normalized = 0.5 * (normalized + normalized.T)
    smallest = float(np.linalg.eigvalsh(normalized)[0])
    return max(smallest, 0.0)


def coherence(psi, support) -> tuple[np.ndarray, float]:
    """Correlation matrix and rho(lambda) = max_{i in J} max_{j != i} |rho(i, j)|.

    rho(i, j) = psi(i, j) / sqrt(psi(i, i) psi(j, j)). ``support`` holds
    0-based indices; an empty support gives rho(lambda) = 0. Correlations
    between two off-support functions do not enter rho(lambda).
    """
    rho = _unit_diagonal(psi)
    if np.max(np.abs(rho)) > 1.0 + 1e-12:
        raise NumericError("correlation magnitude exceeds 1 beyond numeric tolerance")
    rho = np.clip(rho, -1.0, 1.0)
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if support.size == 0:
        return rho, 0.0
    M = rho.shape[0]
    if support.min() < 0 or support.max() >= M:
        raise ShapeError(f"support indices must lie in [0, {M})")
    off = np.abs(rho[support, :]).copy()
    off[np.arange(support.size), support] = 0.0
    return rho, float(off.max())


def diagnostics(psi_M, support=(), psi_nM=None) -> CoherenceReport:
    """The :class:`CoherenceReport` of the population Gram ``psi_M`` and,
    when given, the empirical Gram ``psi_nM`` (same shape, else ShapeError)."""
    _, rho_lambda = coherence(psi_M, support)
    eta_nM = rho_lambda_emp = None
    if psi_nM is not None:
        if np.shape(psi_nM) != np.shape(psi_M):
            raise ShapeError("psi_M and psi_nM must have matching shapes")
        try:
            _, rho_lambda_emp = coherence(psi_nM, support)
        except DegenerateDictionaryError:
            pass
        eta_nM = float(np.max(np.abs(np.subtract(psi_M, psi_nM))))
    return CoherenceReport(rho_lambda, kappa(psi_M), eta_nM, rho_lambda_emp)


def write_gram_csv(path, psi: np.ndarray) -> None:
    """Write a Gram matrix as CSV, row-major, header ``j1,...,jM``,
    atomically and with ``\\n`` line ends."""
    psi = np.asarray(psi, dtype=float)
    header = [f"j{k + 1}" for k in range(psi.shape[1])]
    atomic_write_text(path, csv_text(header, psi))
