"""Gram matrices and the matrix-level diagnostics the risk bounds depend on.

Provides the population/empirical Gram pair, the normalized-eigenvalue
constant kappa_M (the largest kappa with Psi_M - kappa*diag(Psi_M) positive
semi-definite), mutual-coherence correlations rho_M(i, j) and their
support-restricted maximum rho(lambda), and the entrywise Gram deviation
eta_{n,M}.

All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, DesignMatrix, MeasureSpec, population_gram
from .errors import DegenerateDictionaryError, NumericError, ShapeError

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class GramPair:
    """Population Gram and empirical Gram (design average)."""

    psi_M: np.ndarray
    psi_nM: np.ndarray

    def __post_init__(self):
        for name, mat in (("psi_M", self.psi_M), ("psi_nM", self.psi_nM)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"{name} must be square")
            if not np.all(np.isfinite(mat)):
                raise NumericError(f"{name} contains non-finite entries")
            if np.max(np.abs(mat - mat.T)) > _SYM_TOL:
                raise NumericError(f"{name} is not symmetric within {_SYM_TOL}")
            if np.any(np.diag(mat) < 0):
                raise NumericError(f"{name} has a negative diagonal entry")
        if self.psi_M.shape != self.psi_nM.shape:
            raise ShapeError("psi_M and psi_nM must have matching shapes")


@dataclass(frozen=True)
class CoherenceReport:
    """Correlation structure of a Gram pair.

    ``rho``/``rho_lambda`` are computed from the population Gram;
    ``rho_lambda_empirical`` applies the same formula to the empirical
    Gram and is a diagnostic only (the bound conditions are stated for
    the population matrix).
    """

    rho: np.ndarray
    rho_lambda: float
    kappa_M: float
    eta_nM: float
    rho_lambda_empirical: float | None = None


def empirical_gram(design: DesignMatrix) -> np.ndarray:
    """Empirical Gram n^-1 sum_k f_i(X_k) f_j(X_k), symmetrized."""
    psi = design.entries.T @ design.entries / design.n
    return 0.5 * (psi + psi.T)


def gram_pair(
    dictionary: Dictionary, measure: MeasureSpec, design: DesignMatrix
) -> GramPair:
    """Population and empirical Gram matrices for one dictionary/design."""
    if design.M != dictionary.M:
        raise ShapeError(
            f"design has {design.M} columns but the dictionary has M = {dictionary.M}"
        )
    return GramPair(
        psi_M=population_gram(dictionary, measure),
        psi_nM=empirical_gram(design),
    )


def kappa(psi: np.ndarray) -> float:
    """Largest kappa such that psi - kappa * diag(psi) is PSD.

    Equals the smallest eigenvalue of D^{-1/2} psi D^{-1/2} with
    D = diag(psi); clamped below at 0 (eigenvalues within -1e-10 of zero
    are quadrature noise).
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or psi.size == 0:
        raise ShapeError("kappa needs a nonempty square matrix")
    d = np.diag(psi)
    if np.any(d <= 0):
        raise DegenerateDictionaryError(
            "Gram diagonal has a nonpositive entry; a dictionary function has zero norm"
        )
    scale = 1.0 / np.sqrt(d)
    normalized = psi * np.outer(scale, scale)
    normalized = 0.5 * (normalized + normalized.T)
    smallest = float(np.linalg.eigvalsh(normalized)[0])
    return max(smallest, 0.0)


def correlation_matrix(psi: np.ndarray) -> np.ndarray:
    """rho(i, j) = psi(i, j) / sqrt(psi(i, i) psi(j, j))."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or psi.size == 0:
        raise ShapeError("correlation_matrix needs a nonempty square matrix")
    d = np.diag(psi)
    if np.any(d <= 0):
        raise DegenerateDictionaryError("correlations need strictly positive diagonals")
    scale = 1.0 / np.sqrt(d)
    rho = psi * np.outer(scale, scale)
    if np.max(np.abs(rho)) > 1.0 + 1e-12:
        raise NumericError("correlation magnitude exceeds 1 beyond numeric tolerance")
    return np.clip(rho, -1.0, 1.0)


def coherence(psi: np.ndarray, support) -> tuple[np.ndarray, float]:
    """Correlation matrix and rho(lambda) = max_{i in J} max_{j != i} |rho(i, j)|.

    ``support`` holds 0-based indices; an empty support gives
    rho(lambda) = 0. Correlations between two off-support functions do not
    enter rho(lambda).
    """
    rho = correlation_matrix(psi)
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if support.size == 0:
        return rho, 0.0
    M = rho.shape[0]
    if support.min() < 0 or support.max() >= M:
        raise ShapeError(f"support indices must lie in [0, {M})")
    off = np.abs(rho[support, :]).copy()
    off[np.arange(support.size), support] = 0.0
    return rho, float(off.max())


def eta(pair: GramPair) -> float:
    """Entrywise deviation eta_{n,M} = max_{i,j} |psi_M(i,j) - psi_nM(i,j)|."""
    return float(np.max(np.abs(pair.psi_M - pair.psi_nM)))


def diagnostics(pair: GramPair, support=()) -> CoherenceReport:
    """Assemble the full coherence report for a Gram pair."""
    rho, rho_lambda = coherence(pair.psi_M, support)
    try:
        _, rho_lambda_emp = coherence(pair.psi_nM, support)
    except DegenerateDictionaryError:
        rho_lambda_emp = None
    return CoherenceReport(
        rho=rho,
        rho_lambda=rho_lambda,
        kappa_M=kappa(pair.psi_M),
        eta_nM=eta(pair),
        rho_lambda_empirical=rho_lambda_emp,
    )


def write_gram_csv(path, psi: np.ndarray) -> None:
    """Write a Gram matrix as CSV, row-major, header ``j1,...,jM``."""
    psi = np.asarray(psi, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"j{k + 1}" for k in range(psi.shape[1])])
        for row in psi:
            writer.writerow([repr(float(v)) for v in row])

