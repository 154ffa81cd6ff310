"""Weighted l1-penalized least squares by cyclic coordinate descent.

Minimizes

    n^-1 sum_i (Y_i - sum_j lambda_j f_j(X_i))^2  +  2 sum_j omega_j |lambda_j|

with per-coordinate weights omega_j = r_{n,M} ||f_j||_n
(:func:`penalty_weights`); :func:`fit` reads only the weight vector omega.
Cyclic coordinate descent with exact one-dimensional minimization gives
closed soft-threshold updates and an easily certified KKT optimum. One
scale-free KKT test ends the fit, after a sweep or for one linear solve on
the support once the signs hold for a sweep.

Runs are deterministic: initialization at zero, sweep order 0..M-1, no
randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import DesignMatrix, empirical_norms
from .errors import ConfigError, ConvergenceError, NumericError, ShapeError
from .gram import empirical_gram

DEFAULT_TOL = 1e-9
DEFAULT_MAX_SWEEPS = 100_000


def rate(A: float, n: int, M: int, kind: str) -> float:
    """Penalty scale r_{n,M}: A sqrt(log M / n) or A sqrt(log n / n). The
    log_n rate is 0 at n = 1, so it needs n >= 2."""
    if not (math.isfinite(A) and A > 0):
        raise ConfigError(f"tuning constant A must be finite and positive, got {A}")
    if n < 1:
        raise ConfigError("sample size n must be >= 1")
    if M < 2:
        raise ConfigError("dictionary size M must be >= 2")
    if kind == "log_M":
        return A * math.sqrt(math.log(M) / n)
    if kind == "log_n":
        if n < 2:
            raise ConfigError(f"rate kind log_n needs n >= 2, got n = {n}")
        return A * math.sqrt(math.log(n) / n)
    raise ConfigError(f"unknown rate kind {kind!r} (expected log_M or log_n)")


def soft_threshold(z, t):
    """sign(z) * max(|z| - t, 0); ties |z| = t resolve to exactly 0."""
    z = np.asarray(z, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
    return float(out) if out.ndim == 0 else out


def penalty_weights(design: DesignMatrix, r_nM: float) -> np.ndarray:
    """The penalty weights omega_j = r_{n,M} ||f_j||_n of a design, for a
    finite and positive rate r_{n,M} (:func:`rate`, or a value of its own)."""
    if not (math.isfinite(r_nM) and r_nM > 0):
        raise ConfigError(f"rate r_nM must be finite and positive, got {r_nM}")
    return r_nM * empirical_norms(design)


@dataclass(frozen=True)
class LassoFit:
    """A KKT-certified coordinate descent solution.

    ``converged`` is True exactly when :func:`fit` returns rather than
    raises: its stopping test passed after a sweep or for the exact
    finish. ``kkt_residual`` is the largest violation, unscaled, at a fresh
    residual. ``sweeps`` counts coordinate-descent sweeps; the finish is
    not one. ``support``/``m_hat`` count exact nonzeros. ``duality_gap`` is
    P(lambda_hat) - D(theta)
    >= 0 for the dual point theta = s * (Y - f_lambda_hat(X)), scaled by
    the largest s <= 1 with |n^-1 <f_j, theta>| <= omega_j for every j; it
    bounds the objective's distance to the optimum.
    """

    lambda_hat: np.ndarray
    support: np.ndarray
    m_hat: int
    objective: float
    kkt_residual: float
    duality_gap: float
    sweeps: int
    converged: bool


def _violation(grad: np.ndarray, signs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each coordinate's KKT violation at a point with signs ``signs`` given
    grad = n^-1 Phi^T (Y - Phi lam): max(|grad_j| - omega_j, 0) where
    lambda_j = 0 and |grad_j - omega_j sign(lambda_j)| elsewhere."""
    return np.maximum(np.abs(grad - weights * signs) - weights * (signs == 0.0), 0.0)


def _duality_gap(
    resid_sq: float, grad: np.ndarray, lam: np.ndarray, weights: np.ndarray
) -> float:
    """P(lam) - D(s r) for the residual r, grad = n^-1 Phi^T r and
    resid_sq = n^-1 ||r||^2, where D(theta) = n^-1 (||Y||^2 - ||Y - theta||^2)
    on |n^-1 <f_j, theta>| <= omega_j. Only columns with omega_j < |grad_j|
    bound s, so no ratio formed exceeds 1; a column with omega_j = 0 forces
    s = 0 unless its gradient is exactly zero, as a zero column's is."""
    binding = weights < np.abs(grad)
    s = float(np.min(weights[binding] / np.abs(grad[binding]), initial=1.0))
    return float((1.0 - s) ** 2 * resid_sq + 2.0 * (weights @ np.abs(lam) - s * (lam @ grad)))


def _exact_finish(g, gram, signs, weights, bound):
    """The minimizer for support S = {j: signs_j != 0} with signs s, or None.

    Solves Psi_SS x = g_S - omega_S s with g = n^-1 Phi^T Y from the cached
    Gram columns, and accepts x only if sign(x) = s and every coordinate's
    KKT violation, taken from these sufficient statistics with gradient
    g - Psi_.S x, is within ``bound``. A singular or near-singular Psi_SS
    fails one of these tests."""
    S = np.flatnonzero(signs)
    s = signs[S]
    rows = np.array([gram[j] for j in S.tolist()])  # Psi_.S transposed
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.solve(rows[:, S].T, g[S] - weights[S] * s)
        except np.linalg.LinAlgError:
            return None
        grad = g - x @ rows
        # Written so that a NaN violation refuses too.
        if (np.sign(x) != s).any() or not (_violation(grad, signs, weights) <= bound).all():
            return None
    lam = np.zeros_like(g)
    lam[S] = x
    return lam


def fit(
    design: DesignMatrix,
    y,
    weights,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> LassoFit:
    """Cyclic coordinate descent from a zero start, on sufficient statistics.

    ``weights`` is the penalty's omega, one finite nonnegative value per
    column (ConfigError otherwise); :func:`penalty_weights` gives the
    paper's r_{n,M} ||f_j||_n.

    Each update is the exact one-dimensional minimizer
    soft_threshold(c_j, omega_j) / ||f_j||_n^2 with
    c_j = grad_j + lambda_j ||f_j||_n^2, where grad = n^-1 Phi^T (Y - Phi lambda)
    starts at n^-1 Phi^T Y and follows each move Delta of lambda_j through
    grad -= Delta * Psi_j, Psi_j = n^-1 Phi^T f_j (covariance updates). When
    more than half of the non-frozen coordinates fail the KKT test at zero
    (|g_j| > omega_j with g = n^-1 Phi^T Y), every Psi_j is taken from one
    product :func:`empirical_gram`; otherwise Psi_j is formed the first time
    coordinate j moves. Either way it is kept for this fit only.
    Stops when every coordinate's KKT violation on the running gradient is
    at most tol ||f_j||_n ||Y||_n, which scales with column j as the
    violation does. A sweep that fails this test but keeps every sign tries
    the exact solve on that support and those signs, which stops the fit if
    it passes the same test (:func:`_exact_finish`; once per sign pattern).

    Returns a converged fit if the test passed, and raises ConvergenceError
    carrying the partial fit if the sweep budget ran out first. Raises
    NumericError before the first sweep when n^-1 ||Y||^2 or n^-1 Phi^T Y
    overflows, since every bound would then be infinite and the test would
    pass for any lambda. Zero-norm columns are frozen at 0: their bound and
    their gradient are exactly 0.
    The returned certificates come from a fresh residual Y - Phi lambda.
    """
    phi = design.entries
    n, M = design.n, design.M
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ShapeError(f"response must have shape ({n},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericError("response vector contains non-finite values")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (M,):
        raise ShapeError(f"weights must have shape ({M},), got {weights.shape}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ConfigError("penalty weights must be finite and nonnegative")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if max_sweeps < 1:
        raise ConfigError(f"max_sweeps must be >= 1, got {max_sweeps}")

    col_sq = design.norms_sq
    coords = [
        (j, w_j, q_j)
        for j, (w_j, q_j) in enumerate(zip(weights.tolist(), col_sq.tolist()))
        if q_j != 0.0
    ]

    with np.errstate(all="ignore"):
        g = phi.T @ y / n
        yy = float(y @ y) / n
    if not (math.isfinite(yy) and np.isfinite(g).all()):
        raise NumericError("n^-1 ||y||^2 or n^-1 Phi^T y is not finite")
    grad = g.copy()
    item = grad.item  # grad changes in place only, so this stays bound to it
    # sqrt(yy * col_sq) could overflow where each factor does not.
    bound = tol * math.sqrt(yy) * np.sqrt(col_sq)
    # j -> Psi_j; one BLAS-3 product beats M columns when most will move.
    if 2 * np.count_nonzero(np.abs(g) > weights) > len(coords):
        gram = dict(enumerate(empirical_gram(design)))
    else:
        gram = {}
    lam = [0.0] * M
    signs = np.zeros(M)
    tried = False  # the exact finish was refused for the current signs
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        for j, w_j, q_j in coords:
            old = lam[j]
            c_j = item(j) + old * q_j
            if c_j > w_j:
                new = (c_j - w_j) / q_j
            elif c_j < -w_j:
                new = (c_j + w_j) / q_j
            else:
                new = 0.0
            if new != old:
                col = gram.get(j)
                if col is None:
                    col = gram[j] = phi.T @ phi[:, j] / n
                grad -= (new - old) * col
                lam[j] = new
        previous, signs = signs, np.sign(lam)
        if (_violation(grad, signs, weights) <= bound).all():
            converged = True
            break
        # The finish depends on the signs alone, so each pattern gets one try.
        if (signs != previous).any():
            tried = False
        elif not tried:
            tried = True
            finish = _exact_finish(g, gram, signs, weights, bound)
            if finish is not None:
                lam = finish
                converged = True
                break

    # Final certificates from a fresh residual (incremental updates drift).
    lam = np.array(lam, dtype=float)
    residual = y - phi @ lam
    grad = phi.T @ residual / n
    resid_sq = float(residual @ residual / n)
    kkt = float(_violation(grad, np.sign(lam), weights).max())
    support = np.flatnonzero(lam != 0.0)
    result = LassoFit(
        lambda_hat=lam,
        support=support,
        m_hat=int(support.size),
        objective=resid_sq + 2.0 * float(weights @ np.abs(lam)),
        kkt_residual=kkt,
        duality_gap=_duality_gap(resid_sq, grad, lam, weights),
        sweeps=sweeps,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"coordinate descent stopped after {sweeps} sweeps above the KKT "
            f"bound tol * ||f_j||_n * ||y||_n with tol = {tol:.3e}; largest "
            f"violation {kkt:.3e}",
            partial_fit=result,
        )
    return result
