"""Oracle coefficient vectors, sparsity-class memberships, and good events.

Oracle vectors minimize the L2(mu) approximation error at a fixed sparsity
level (in closed form when the population Gram Psi_M is diagonal, by a
search over supports otherwise), membership flags compare that error
against the tuning rate, and :func:`event_flags` tells whether one
replicate lies in the good events, whose probabilities
:mod:`l1agg.tails` bounds:

    E1          -- noise/dictionary correlations 2|V_j| <= omega_j,
    E2          -- empirical norms within a factor 2 of population norms,
    E3(lambda)  -- empirical approximation error controlled by its
                   population value plus r^2 M(lambda).

The membership threshold rho(lambda) M(lambda) <= 1/45 is applied as an
exact floating-point comparison against ``COHERENCE_THRESHOLD``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dictionary import (
    SUP_GRID_POINTS,
    Dictionary,
    DesignMatrix,
    MeasureSpec,
    PopulationConstants,
    build_fourier,
    predict,
    quadrature_grid,
    sup_norm_grid,
    _DOMAIN_SLACK,
    _check_lambda,
    _check_table,
    _constants,
    _finite,
    _fourier_grid,
    _read_only,
)
from .errors import ConfigError, NumericError
from .gram import _exactly_diagonal, coherence

COHERENCE_THRESHOLD = 1.0 / 45.0
EXHAUSTIVE_SUPPORT_CAP = 100_000
SOBOLEV_TRUTH_TERMS = 400


# ---------------------------------------------------------------------------
# Truth specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthSpec:
    """The true regression function in a simulation.

    ``fourier`` truths are coefficient sequences against the trigonometric
    basis; ``linear`` truths are coordinate coefficients (exact
    representation). Both need a nonempty, finite 1-d float ``theta``
    (ConfigError). ``tabulated`` truths cover arbitrary 1-d targets.
    """

    kind: str
    theta: np.ndarray | None = None
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fourier", "linear", "tabulated"):
            raise ConfigError(f"unknown truth kind {self.kind!r}")
        theta = self.theta
        if self.kind != "tabulated" and (
            theta is None or theta.ndim != 1 or theta.size < 1 or not np.all(np.isfinite(theta))
        ):
            raise ConfigError(f"{self.kind} truths need a nonempty, finite 1-d coefficient vector")


def fourier_truth(theta) -> TruthSpec:
    """Truth f = sum_j theta_j f_j against the trigonometric basis."""
    return TruthSpec(kind="fourier", theta=np.asarray(theta, dtype=float))


def linear_truth(coeffs) -> TruthSpec:
    """Exact-representation truth f(x) = sum_j coeffs_j x_j."""
    return TruthSpec(kind="linear", theta=np.asarray(coeffs, dtype=float))


def tabulated_truth(grid, values) -> TruthSpec:
    """Truth tabulated on a 1-d grid, completed by linear interpolation.

    The table follows the rule of :func:`dictionary._check_table`
    (ConfigError).
    """
    grid, values = _check_table(grid, values, "tabulated truth")
    return TruthSpec(kind="tabulated", table=(grid, values))


def l0k_truth(k: int) -> TruthSpec:
    """Exactly k nonzero trigonometric coefficients.

    Values k, k-1, ..., 1 at 1-based indices 2, 4, 7, 11, ... (index
    i sits at 1 + i(i+1)/2), so k = 3 gives |theta| = (3, 2, 1) at
    indices {2, 4, 7}.
    """
    if k < 0:
        raise ConfigError("k must be nonnegative")
    if k == 0:
        return fourier_truth(np.zeros(2))
    idx = [i * (i + 1) // 2 for i in range(1, k + 1)]  # 0-based: 1, 3, 6, 10, ...
    theta = np.zeros(idx[-1] + 1)
    for rank, j in enumerate(idx):
        theta[j] = float(k - rank)
    return fourier_truth(theta)


def sobolev_truth(beta: float) -> TruthSpec:
    """Polynomially decaying coefficients theta_j = (-1)^(j+1) j^-(beta+0.6),
    j = 1..SOBOLEV_TRUTH_TERMS.

    The decay exponent keeps sum j^(2 beta) theta_j^2 finite for every
    beta > 0, so the truth sits in the smoothness-beta ellipsoid.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    j = np.arange(1, SOBOLEV_TRUTH_TERMS + 1, dtype=float)
    theta = np.where(np.arange(SOBOLEV_TRUTH_TERMS) % 2 == 0, 1.0, -1.0) * j ** -(beta + 0.6)
    return fourier_truth(theta)


def evaluate_truth(truth: TruthSpec, points) -> np.ndarray:
    """Evaluate the true regression function at an (n, d) point array."""
    if truth.kind == "fourier":
        lam = np.zeros(max(truth.theta.size, 2))
        lam[: truth.theta.size] = truth.theta
        return predict(build_fourier(lam.size), lam, points)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if truth.kind == "linear":
        if pts.shape[1] < truth.theta.size:
            raise ConfigError("points have fewer coordinates than truth coefficients")
        return pts[:, : truth.theta.size] @ truth.theta
    grid, values = truth.table
    return np.interp(pts[:, 0], grid, values)


# ---------------------------------------------------------------------------
# Sparsity and oracle vectors
# ---------------------------------------------------------------------------


def sparsity(lam):
    """Support J(lambda) and its cardinality M(lambda).

    Only exact zeros count as zero (coordinate descent produces exact
    zeros).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise NumericError("coefficient vector contains non-finite entries")
    support = np.flatnonzero(lam != 0.0)
    return support, int(support.size)


def _residual2(psi_s, g_s, f2: float, lam_s) -> float:
    """||f||^2 - 2 g'lambda + lambda' Psi lambda over lambda's support
    (the Gram block, g entries and coefficients there), clamped at 0."""
    return float(max(f2 - 2.0 * (g_s @ lam_s) + lam_s @ psi_s @ lam_s, 0.0))


def _restricted_residual(psi, g, f2, support):
    idx = np.asarray(support, dtype=int)
    psi_s = psi[np.ix_(idx, idx)]
    g_s = g[idx]
    try:
        lam_s = np.linalg.solve(psi_s, g_s)
    except np.linalg.LinAlgError:
        warnings.warn(
            "restricted Gram is singular; using a pseudo-inverse solution",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            lam_s = np.linalg.pinv(psi_s) @ g_s
        except np.linalg.LinAlgError as exc:  # the SVD did not converge
            raise NumericError(f"restricted Gram has no pseudo-inverse ({exc})") from None
    return lam_s, _residual2(psi_s, g_s, f2, lam_s)


@dataclass(frozen=True)
class PopulationProblem(PopulationConstants):
    """The :class:`PopulationConstants` of a dictionary under a measure,
    with a truth f: ``g`` (g_j = <f_j, f>, read-only) and ``f2``
    (||f||^2), all finite. A coefficient problem holds ``theta`` = theta_M
    and ``tail``, and g = Psi theta_M; a quadrature problem has ``theta``
    None and ``tail`` 0. :func:`population_problem` forms them.
    """

    dictionary: Dictionary
    truth: TruthSpec
    theta: np.ndarray | None
    tail: float
    g: np.ndarray
    f2: float


def population_problem(dictionary: Dictionary, measure: MeasureSpec, truth: TruthSpec):
    """The :class:`PopulationProblem` of the truth over the dictionary under
    the measure.

    Under the uniform measure, a fourier dictionary and truth, or a
    coordinate dictionary and a linear truth of at most M coefficients,
    give a coefficient problem: theta_M is the truth's first M coefficients
    zero-padded, tail = ||theta beyond M||^2, g = Psi theta_M and
    ||f||^2 = theta_M' g + tail. Any other triple is a quadrature problem
    on the one-axis :func:`quadrature_grid` (d > 1 is refused there): with
    the truth f and the design on its nodes, g = design' (w f) and
    ||f||^2 = w' f^2. A fourier truth on a domain outside [0, 1], and a
    tabulated truth whose table ends more than _DOMAIN_SLACK inside the
    domain, raise ConfigError after the grid's own refusals; a truth that
    cannot be evaluated on the nodes fails next, then the constants
    (:func:`dictionary._constants`). A g or ||f||^2 that is not finite
    raises NumericError, and no warning.
    """
    M = dictionary.M
    pair = (dictionary.kind, truth.kind)
    if measure.kind == "uniform" and (
        pair == ("fourier", "fourier")
        or (pair == ("coordinate", "linear") and truth.theta.size <= M)
    ):
        theta, theta_M = truth.theta, np.zeros(M)
        theta_M[: theta.size] = theta[:M]
        constants, _ = _constants(dictionary, measure)
        with np.errstate(over="ignore", invalid="ignore"):
            tail = float(theta[M:] @ theta[M:])
            g = constants.psi @ theta_M
            f2 = float(theta_M @ g) + tail
        theta_M = _read_only(theta_M)
    else:
        pts, w = quadrature_grid(dictionary, measure)
        lo, hi = domain = list(dictionary.domain)
        if truth.kind == "fourier" and (lo < -_DOMAIN_SLACK or hi > 1.0 + _DOMAIN_SLACK):
            raise ConfigError(
                f"a trigonometric truth is defined on [0, 1], not on the domain {domain}"
            )
        if truth.kind == "tabulated":
            ends = truth.table[0][[0, -1]].tolist()
            if ends[0] > lo + _DOMAIN_SLACK or ends[1] < hi - _DOMAIN_SLACK:
                raise ConfigError(f"tabulated truth spans {ends}, not the domain {domain}")
        f = evaluate_truth(truth, pts)
        constants, design = _constants(dictionary, measure, (pts, w))
        theta_M, tail = None, 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            g = design.T @ (w * f)
            f2 = float(w @ (f * f))
    what = "truth inner products g or ||f||^2"
    return PopulationProblem(
        **vars(constants), dictionary=dictionary, truth=truth, theta=theta_M, tail=tail,
        g=_read_only(_finite(g, what)), f2=_finite(f2, what),
    )


def _oracle_search(psi, g, f2, k: int):
    """``(lambda, exact_flag)`` of the best k-sparse approximation for the
    problem ``(Psi, g, ||f||^2)``, 1 <= k <= M: exhaustive over supports
    when C(M, k) <= 1e5 (exact), greedy forward otherwise."""
    M = g.size
    lam = np.zeros(M)
    if math.comb(M, k) <= EXHAUSTIVE_SUPPORT_CAP:
        best = None
        for support in itertools.combinations(range(M), k):
            lam_s, res2 = _restricted_residual(psi, g, f2, support)
            if best is None or res2 < best[0]:
                best = (res2, support, lam_s)
        _, support, lam_s = best
        lam[list(support)] = lam_s
        return lam, True

    chosen: list[int] = []
    for _ in range(k):
        best = None
        for j in range(M):
            if j in chosen:
                continue
            cand = chosen + [j]
            _, res2 = _restricted_residual(psi, g, f2, cand)
            if best is None or res2 < best[0]:
                best = (res2, j)
        chosen.append(best[1])
    chosen.sort()
    lam_s, _ = _restricted_residual(psi, g, f2, chosen)
    lam[chosen] = lam_s
    return lam, False


def population_dist2(problem: PopulationProblem, lam) -> float:
    """Squared L2(mu) distance ||f_lambda - f||^2 of the problem's truth.

    A coefficient problem gives d' Psi d (clamped at 0) + tail with
    d = lambda - theta_M; a quadrature problem the residual the oracle
    search ranks supports by, :func:`_residual2`, which at lambda = 0 is
    ||f||^2. ``lam`` is checked as in :func:`predict`. A distance that is
    not finite raises NumericError, and no warning.
    """
    lam = _check_lambda(lam, problem.dictionary.M)
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.theta is not None:
            diff = lam - problem.theta
            dist2 = float(max(diff @ problem.psi @ diff, 0.0)) + problem.tail
        else:
            support = np.flatnonzero(lam)
            psi_s = problem.psi[np.ix_(support, support)]
            dist2 = _residual2(psi_s, problem.g[support], problem.f2, lam[support])
    if not math.isfinite(dist2):
        raise NumericError("population distance ||f_lambda - f||^2 is not finite")
    return dist2


def sup_norm_error(dictionary: Dictionary, truth: TruthSpec, lam) -> float:
    """Grid estimate of L(lambda) = ||f - f_lambda||_inf (a lower bound).

    The grid is :func:`sup_norm_grid`. For a fourier dictionary and a
    fourier truth, f - f_lambda has coefficients theta - lambda; while its
    highest frequency is below N / 2, N = SUP_GRID_POINTS - 1, its values
    at x_i = i / N come from one real inverse FFT (:func:`_fourier_grid`;
    x = 1 repeats x = 0), which holds the half spectrum and one N-point
    output that it scales and shifts in place. Other pairs, and a fourier
    pair that reaches N / 2, stream :func:`predict` and
    :func:`evaluate_truth` over the grid. ``lam`` is checked as in
    :func:`predict`.
    """
    lam = _check_lambda(lam, dictionary.M)
    if dictionary.kind == "fourier" and truth.kind == "fourier":
        theta = truth.theta
        coef = np.zeros(max(lam.size, theta.size))
        coef[: theta.size] = theta
        coef[: lam.size] -= lam
        N = SUP_GRID_POINTS - 1
        # The highest frequency: coefficient j (0-based) has frequency (j + 1) // 2.
        K = (np.flatnonzero(coef).max(initial=0) + 1) // 2
        if 2 * K < N:
            return float(np.abs(_fourier_grid(coef, N)).max())
    pts = sup_norm_grid(dictionary)
    diff = predict(dictionary, lam, pts) - evaluate_truth(truth, pts)
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# Membership and theorem right-hand sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipFlags:
    """Membership in the weak-sparsity / weak-approximation sets.

    ``in_oracle_set`` is the weak-sparsity set (squared error within
    C_f r^2 M(lambda)); ``in_weak_approx_set`` the weak-approximation set
    (within C'_f r); the ``coherent`` variants add
    rho(lambda) M(lambda) <= 1/45.
    """

    in_oracle_set: bool
    in_weak_approx_set: bool
    in_coherent_oracle_set: bool
    in_coherent_weak_approx_set: bool


def membership(
    dist2: float,
    m_lambda: int,
    rho_lambda: float,
    r_nM: float,
    C_f: float,
    C_f_prime: float,
) -> MembershipFlags:
    """Evaluate the four membership flags with exact threshold comparisons."""
    if not all(np.isfinite(v) for v in (dist2, m_lambda, rho_lambda, r_nM)):
        raise NumericError("membership inputs must be finite")
    if r_nM <= 0:
        raise ConfigError("membership needs r_nM > 0")
    if not (C_f >= 0 and C_f_prime >= 0):
        raise ConfigError(f"membership needs C_f >= 0 and C_f_prime >= 0, got {C_f}, {C_f_prime}")
    in_oracle = dist2 <= C_f * r_nM * r_nM * m_lambda
    in_weak = dist2 <= C_f_prime * r_nM
    coherent = rho_lambda * m_lambda <= COHERENCE_THRESHOLD
    return MembershipFlags(
        in_oracle_set=bool(in_oracle),
        in_weak_approx_set=bool(in_weak),
        in_coherent_oracle_set=bool(in_oracle and coherent),
        in_coherent_weak_approx_set=bool(in_weak and coherent),
    )


THEOREM_KINDS = ("t21_risk", "t21_l1", "t23")


def theorem_rhs(
    kind: str,
    r_nM: float,
    m_lambda: int,
    kappa_M: float | None = None,
    dist2: float | None = None,
) -> float:
    """Evaluate a risk-bound right-hand side literally, with unit constant.

    t21_*: kappa_M^-1 r^2 M(lambda) (risk) / kappa_M^-1 r M(lambda) (l1);
    t23:   dist2 + r^2 M(lambda).
    None of the theorems' constants (B1, B2 for t21, C' for t23) has a
    sharp known value; the bound with constant B is B times this value.
    Any other kind raises ConfigError naming :data:`THEOREM_KINDS`; values
    at which the formula overflows raise NumericError naming the kind.
    """
    if kind not in THEOREM_KINDS:
        raise ConfigError(f"unknown theorem kind {kind!r}; expected one of {THEOREM_KINDS}")
    if not (r_nM > 0 and m_lambda >= 0):
        raise ConfigError("theorem_rhs needs r_nM > 0 and M(lambda) >= 0")
    if kind == "t23":
        if dist2 is None or not (dist2 >= 0):
            raise ConfigError("t23 needs a nonnegative dist2")
    elif kappa_M is None or not (0 < kappa_M <= 1):
        raise ConfigError("t21 bounds need kappa_M in (0, 1]")
    try:
        if kind == "t23":
            return dist2 + r_nM**2 * m_lambda
        power = 2 if kind == "t21_risk" else 1
        # This order of operations is part of the rows CSV: _rows_by_cell
        # compares a row's right-hand sides with these bit for bit.
        return 1.0 / kappa_M * r_nM**power * m_lambda
    except ArithmeticError as exc:  # r_nM**2 overflowing
        raise NumericError(f"theorem {kind} cannot be evaluated ({type(exc).__name__})") from None


# ---------------------------------------------------------------------------
# Good-event indicators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventFlags:
    e1: bool
    e2: bool
    e3: bool


def event_flags(
    design: DesignMatrix,
    noise: np.ndarray,
    weights: np.ndarray,
    pop_norms_sq: np.ndarray,
    approx_error_at_design: np.ndarray,
    dist2: float,
    r_nM: float,
    m_lambda: int,
) -> EventFlags:
    """Indicators of the good events for one simulated replicate.

    ``approx_error_at_design`` holds (f_lambda - f)(X_i); ``dist2`` is the
    population squared error of the same reference lambda.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (design.n,):
        raise ConfigError("noise vector must match the design row count")
    v = design.entries.T @ noise / design.n
    e1 = bool(np.all(2.0 * np.abs(v) <= weights))
    norms_sq = design.norms_sq
    e2 = bool(
        np.all(norms_sq >= 0.5 * pop_norms_sq) and np.all(norms_sq <= 2.0 * pop_norms_sq)
    )
    emp_err = float(np.mean(np.asarray(approx_error_at_design, dtype=float) ** 2))
    e3 = bool(emp_err <= 2.0 * dist2 + r_nM * r_nM * m_lambda)
    return EventFlags(e1=e1, e2=e2, e3=e3)


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Oracle vector, effective dimension, and membership flags.

    ``k_star`` is None when no sparsity level up to M satisfies the
    weak-sparsity inequality (the oracle set is empty); the remaining
    fields are then NaN/None.
    """

    lambda_star: np.ndarray | None
    k_star: int | None
    dist2: float
    L_lambda: float
    memberships: MembershipFlags | None


def oracle_path(problem: PopulationProblem, ks):
    """Yield ``(k, lambda, dist2, exact)`` for each k in ``ks`` (each in
    [0, M], else ConfigError), lazily: the best k-sparse approximation,
    its squared population distance and whether it is exact.

    k = 0 gives zero. When the problem's Psi is exactly diagonal by
    :func:`gram._exactly_diagonal`, the test that also spares
    :func:`gram.kappa` its LAPACK call (the Fourier basis, a coordinate
    dictionary on a centred interval, functions with disjoint supports),
    the best k-sparse lambda keeps the k coordinates of largest
    |g_j| / sqrt(Psi_jj), ties to the smaller index, at
    lambda_j = g_j / Psi_jj, and is exact. Otherwise
    :func:`_oracle_search` runs on Psi, g and ||f||^2.
    """
    M, psi, g = problem.dictionary.M, problem.psi, problem.g
    diag = psi.diagonal()
    diagonal = _exactly_diagonal(psi)
    if diagonal:
        order = np.argsort(-np.abs(g) / np.sqrt(diag), kind="stable")
    for k in ks:
        if not 0 <= k <= M:
            raise ConfigError(f"oracle size k = {k} lies outside [0, M] = [0, {M}]")
        lam, exact = np.zeros(M), True
        if k > 0 and diagonal:
            keep = order[:k]
            lam[keep] = g[keep] / diag[keep]
        elif k > 0:
            lam, exact = _oracle_search(psi, g, problem.f2, k)
        yield k, lam, population_dist2(problem, lam), exact


def oracle_scan(problem: PopulationProblem, r_nM: float, C_f: float = 1.0):
    """Scan k = 0, 1, ..., M for the effective dimension.

    Returns ``(lambda, dist2, found)`` for the smallest k whose best
    k-sparse approximation satisfies ||f_lambda - f||^2 <= C_f r^2 M(lambda).
    When no k up to M does, ``found`` is False and the other entries
    belong to k = M.
    """
    if not (r_nM > 0 and C_f >= 0):
        raise ConfigError(f"oracle scan needs r_nM > 0 and C_f >= 0, got {r_nM}, {C_f}")
    ks = range(problem.dictionary.M + 1)
    for _, lam, dist2, _ in oracle_path(problem, ks):
        _, m_lambda = sparsity(lam)
        if dist2 <= C_f * r_nM * r_nM * m_lambda:
            return lam, dist2, True
    return lam, dist2, False


def oracle_report(
    problem: PopulationProblem,
    r_nM: float,
    C_f: float = 1.0,
    C_f_prime: float = 1.0,
) -> OracleReport:
    """Scan for the effective dimension with :func:`oracle_scan` and build the report.

    k_star is the smallest M(lambda) whose best approximation satisfies
    ||f_lambda - f||^2 <= C_f r^2 M(lambda); ``C_f_prime`` enters only the
    weak-approximation membership flags, and rho(lambda) is read from the
    problem's Psi.
    """
    lam, dist2, found = oracle_scan(problem, r_nM, C_f)
    if not found:
        return OracleReport(
            lambda_star=None,
            k_star=None,
            dist2=math.nan,
            L_lambda=math.nan,
            memberships=None,
        )
    support, m_lambda = sparsity(lam)
    rho_lambda = coherence(problem.psi, support)
    return OracleReport(
        lambda_star=lam,
        k_star=m_lambda,
        dist2=dist2,
        L_lambda=sup_norm_error(problem.dictionary, problem.truth, lam),
        memberships=membership(dist2, m_lambda, rho_lambda, r_nM, C_f, C_f_prime),
    )
