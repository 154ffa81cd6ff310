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
from .errors import ConfigError, DegenerateDictionaryError, NumericError

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


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
    """Empirical Gram n^-1 sum_k f_i(X_k) f_j(X_k), as X^T X / n: numpy
    forms a product of a matrix with its own transpose by one symmetric
    rank-k update, so the result is exactly symmetric."""
    return design.entries.T @ design.entries / design.n


def _unit_diagonal(psi) -> np.ndarray:
    """D^{-1/2} psi D^{-1/2} with D = diag(psi): psi scaled to unit diagonal.

    The one rule for a Gram matrix: nonempty, square, finite, symmetric
    within 1e-12, with a positive diagonal. A zero or negative diagonal
    entry raises DegenerateDictionaryError.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1] or psi.size == 0:
        raise ConfigError("a Gram matrix must be nonempty and square")
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


def _exactly_diagonal(psi: np.ndarray) -> bool:
    """Whether the float matrix ``psi`` is nonempty, square and exactly
    diagonal, its only nonzero entries a positive, finite diagonal: the
    case in which kappa_M and the best k-sparse oracle are closed forms.
    Such a matrix meets the rule of :func:`_unit_diagonal`."""
    d = psi.diagonal() if psi.ndim == 2 and psi.shape[0] == psi.shape[1] else np.zeros(0)
    return d.size > 0 and bool(np.all((d > 0) & (d < np.inf))) and np.count_nonzero(psi) == d.size


def kappa(psi) -> float:
    """Largest kappa such that psi - kappa * diag(psi) is PSD.

    Equals the smallest eigenvalue of D^{-1/2} psi D^{-1/2} with
    D = diag(psi), from ``eigvalsh``, which reads the lower triangle of the
    scaled matrix: both Gram producers (:class:`PopulationConstants` and
    :func:`empirical_gram`) are exactly symmetric products X^T X, and an
    exactly symmetric psi scales to an exactly symmetric matrix.
    Eigenvalues within -1e-10 of zero are quadrature noise and clamp to 0;
    a smaller one raises NumericError (psi is not PSD), and so does an
    eigensolver that does not converge. An exactly diagonal psi
    (:func:`_exactly_diagonal`) is neither scaled nor passed to LAPACK: its
    value is the smallest psi_jj * (s_j * s_j) with s_j = 1 / sqrt(psi_jj),
    the entry the scaled matrix would hold.
    """
    psi = np.asarray(psi, dtype=float)
    if _exactly_diagonal(psi):
        s = 1.0 / np.sqrt(psi.diagonal())
        return float((psi.diagonal() * (s * s)).min())
    try:
        smallest = float(np.linalg.eigvalsh(_unit_diagonal(psi))[0])
    except np.linalg.LinAlgError as exc:  # the eigensolver did not converge
        raise NumericError(f"kappa_M cannot be computed ({exc})") from None
    if smallest < -_PSD_TOL:
        raise NumericError(
            f"Gram matrix is not positive semi-definite: scaled eigenvalue {smallest:.6g}"
        )
    return max(smallest, 0.0)


def coherence(psi, support) -> float:
    """rho(lambda) = max_{i in J} max_{j != i} |rho(i, j)|, at most 1.

    rho(i, j) = psi(i, j) / sqrt(psi(i, i) psi(j, j)). ``support`` holds
    0-based indices; an empty support gives rho(lambda) = 0. Correlations
    between two off-support functions do not enter rho(lambda). A
    correlation beyond 1 + 1e-12 in magnitude raises NumericError. An
    exactly diagonal psi (:func:`_exactly_diagonal`, the test :func:`kappa`
    and ``oracle_path`` share) is not scaled: every correlation is 0, so
    only the support is checked.
    """
    psi = np.asarray(psi, dtype=float)
    rho = None if _exactly_diagonal(psi) else _unit_diagonal(psi)
    if rho is not None and max(rho.max(), -rho.min()) > 1.0 + 1e-12:
        raise NumericError("correlation magnitude exceeds 1 beyond numeric tolerance")
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    M = psi.shape[0]
    if support.size and (support.min() < 0 or support.max() >= M):
        raise ConfigError(f"support indices must lie in [0, {M})")
    if rho is None:
        return 0.0
    off = np.abs(rho[support])
    off[np.arange(support.size), support] = 0.0
    return min(float(off.max(initial=0.0)), 1.0)


def diagnostics(psi_M, support=(), psi_nM=None) -> CoherenceReport:
    """The :class:`CoherenceReport` of the population Gram ``psi_M`` and,
    when given, the empirical Gram ``psi_nM`` (same shape, else ConfigError)."""
    rho_lambda = coherence(psi_M, support)
    eta_nM = rho_lambda_emp = None
    if psi_nM is not None:
        if np.shape(psi_nM) != np.shape(psi_M):
            raise ConfigError("psi_M and psi_nM must have matching shapes")
        try:
            rho_lambda_emp = coherence(psi_nM, support)
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
