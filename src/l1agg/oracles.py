"""Oracle coefficient vectors, sparsity-class memberships, and tail bounds.

Everything here is population-level: oracle vectors minimize the L2(mu)
approximation error at a fixed sparsity level, membership flags compare
that error against the tuning rate, and the tail-bound evaluators compute
the explicit exponential bounds that control the probability of the
good events

    E1          -- noise/dictionary correlations 2|V_j| <= omega_j,
    E2          -- empirical norms within a factor 2 of population norms,
    E3(lambda)  -- empirical approximation error controlled by its
                   population value plus r^2 M(lambda).

The membership threshold rho(lambda) M(lambda) <= 1/45 is applied as an
exact floating-point comparison against ``COHERENCE_THRESHOLD``.
"""

from __future__ import annotations

import inspect
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
    build_fourier,
    evaluate,
    population_gram,
    predict,
    quadrature_grid,
    sup_norm_grid,
    _check_table,
    _fourier_grid,
)
from .errors import ConfigError, NumericError, ShapeError
from .gram import coherence

COHERENCE_THRESHOLD = 1.0 / 45.0
EXHAUSTIVE_SUPPORT_CAP = 100_000


# ---------------------------------------------------------------------------
# Truth specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthSpec:
    """The true regression function in a simulation.

    ``fourier`` truths are coefficient sequences against the trigonometric
    basis; ``linear`` truths are coordinate coefficients (exact
    representation); ``tabulated`` truths cover arbitrary 1-d targets.
    """

    kind: str
    theta: np.ndarray | None = None
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fourier", "linear", "tabulated"):
            raise ConfigError(f"unknown truth kind {self.kind!r}")
        if self.kind in ("fourier", "linear") and self.theta is None:
            raise ConfigError(f"{self.kind} truths need a coefficient vector")


def fourier_truth(theta) -> TruthSpec:
    """Truth f = sum_j theta_j f_j against the trigonometric basis."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise ConfigError("theta must be a nonempty 1-d coefficient vector")
    return TruthSpec(kind="fourier", theta=theta)


def linear_truth(coeffs) -> TruthSpec:
    """Exact-representation truth f(x) = sum_j coeffs_j x_j."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size < 1:
        raise ConfigError("coeffs must be a nonempty 1-d vector")
    return TruthSpec(kind="linear", theta=coeffs)


def tabulated_truth(grid, values) -> TruthSpec:
    """Truth tabulated on a 1-d grid, completed by linear interpolation.

    The table follows the rule of :func:`dictionary._check_table`
    (ShapeError).
    """
    grid, values = _check_table(grid, values, ShapeError, "tabulated truth")
    return TruthSpec(kind="tabulated", table=(grid, values))


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
            raise ShapeError("points have fewer coordinates than truth coefficients")
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


def oracle_fourier(truth: TruthSpec, M: int, k: int) -> np.ndarray:
    """Oracle for orthonormal dictionaries: keep the k largest |theta_j|.

    Ties are broken toward the smallest index. Coefficients beyond the
    truth's sequence are zero.
    """
    if truth.theta is None:
        raise ConfigError("oracle_fourier needs a coefficient-sequence truth")
    if k > M:
        raise ConfigError(f"oracle size k = {k} exceeds dictionary size M = {M}")
    if k < 0:
        raise ConfigError("oracle size k must be nonnegative")
    theta = truth.theta[:M]
    lam = np.zeros(M)
    keep = np.argsort(-np.abs(theta), kind="stable")[:k]
    lam[keep] = theta[keep]
    return lam


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
        lam_s = np.linalg.pinv(psi_s) @ g_s
    residual2 = f2 - 2.0 * (g_s @ lam_s) + lam_s @ psi_s @ lam_s
    return lam_s, float(max(residual2, 0.0))


def oracle_general(
    dictionary: Dictionary, measure: MeasureSpec, truth: TruthSpec, k: int
):
    """Best k-sparse population approximation of the truth.

    Exhaustive search over supports when C(M, k) <= 1e5 (exact), greedy
    forward selection on the same objective otherwise. Returns
    ``(lambda, exact_flag)``.
    """
    M = dictionary.M
    if k > M:
        raise ConfigError(f"oracle size k = {k} exceeds dictionary size M = {M}")
    if k < 0:
        raise ConfigError("oracle size k must be nonnegative")
    lam = np.zeros(M)
    if k == 0:
        return lam, True
    # Psi, and quadrature approximations of g_j = <f_j, f> and ||f||^2.
    pts, w = quadrature_grid(dictionary, measure)
    phi = evaluate(dictionary, pts).entries
    f = evaluate_truth(truth, pts)
    g = phi.T @ (w * f)
    f2 = float(w @ (f * f))
    psi = population_gram(dictionary, measure)

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


def _orthonormal_case(dictionary: Dictionary, measure: MeasureSpec, truth: TruthSpec) -> bool:
    """Fourier dictionary, fourier truth, uniform measure: exact closed forms."""
    return (
        dictionary.kind == "fourier"
        and truth.kind == "fourier"
        and measure.kind == "uniform"
    )


def population_dist2(
    dictionary: Dictionary, measure: MeasureSpec, truth: TruthSpec, lam
) -> float:
    """Squared L2(mu) distance ||f_lambda - f||^2.

    Orthonormality (fourier dictionary, uniform measure, coefficient truth)
    gives the exact closed form sum (lambda_j - theta_j)^2 plus the tail
    of theta beyond M; coordinate dictionaries with linear truths use the
    exact moment Gram. Everything else is quadrature on the one-axis
    :func:`quadrature_grid`, which refuses a dictionary with d > 1.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (dictionary.M,):
        raise ShapeError(f"lambda must have shape ({dictionary.M},)")
    if _orthonormal_case(dictionary, measure, truth):
        theta = truth.theta
        m = min(theta.size, dictionary.M)
        diff = lam.copy()
        diff[:m] -= theta[:m]
        tail = float(theta[m:] @ theta[m:]) if theta.size > m else 0.0
        return float(diff @ diff) + tail
    if (
        dictionary.kind == "coordinate"
        and truth.kind == "linear"
        and measure.kind == "uniform"
        and truth.theta.size <= dictionary.M
    ):
        diff = lam.copy()
        diff[: truth.theta.size] -= truth.theta
        psi = population_gram(dictionary, measure)
        return float(max(diff @ psi @ diff, 0.0))
    pts, w = quadrature_grid(dictionary, measure)
    diff = predict(dictionary, lam, pts) - evaluate_truth(truth, pts)
    return float(w @ (diff * diff))


def sup_norm_error(dictionary: Dictionary, truth: TruthSpec, lam) -> float:
    """Grid estimate of L(lambda) = ||f - f_lambda||_inf (a lower bound).

    The grid is :func:`sup_norm_grid`. For a fourier dictionary and a
    fourier truth, f - f_lambda has coefficients theta - lambda, and its
    values at x_i = i / (SUP_GRID_POINTS - 1) come from one inverse FFT
    (x = 1 repeats x = 0). Other pairs stream :func:`predict` and
    :func:`evaluate_truth` over the grid.
    """
    if dictionary.kind == "fourier" and truth.kind == "fourier":
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (dictionary.M,):
            raise ShapeError(f"lambda must have shape ({dictionary.M},)")
        theta = truth.theta
        coef = np.zeros(max(lam.size, theta.size))
        coef[: theta.size] = theta
        coef[: lam.size] -= lam
        return float(np.abs(_fourier_grid(coef, SUP_GRID_POINTS - 1)).max())
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
    in_oracle = dist2 <= C_f * r_nM * r_nM * m_lambda
    in_weak = dist2 <= C_f_prime * r_nM
    coherent = rho_lambda * m_lambda <= COHERENCE_THRESHOLD
    return MembershipFlags(
        in_oracle_set=bool(in_oracle),
        in_weak_approx_set=bool(in_weak),
        in_coherent_oracle_set=bool(in_oracle and coherent),
        in_coherent_weak_approx_set=bool(in_weak and coherent),
    )


@dataclass(frozen=True)
class BoundConstants:
    """User-supplied or empirically fitted constants of the risk bounds.

    B1 and B2 scale the kappa-dependent risk and l1 bounds, C the
    kappa-free ones and C_prime the weak-approximation bound. None of
    these have sharp known values; defaults of 1 give bound *shapes*
    whose scaling can be checked even though levels cannot.
    """

    B1: float = 1.0
    B2: float = 1.0
    C: float = 1.0
    C_prime: float = 1.0

    def __post_init__(self):
        for name in ("B1", "B2", "C", "C_prime"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"bound constant {name} must be positive")


THEOREM_KINDS = ("t21_risk", "t21_l1", "t22_risk", "t22_l1", "t23")


def theorem_rhs(
    kind: str,
    constants: BoundConstants,
    r_nM: float,
    m_lambda: int,
    kappa_M: float | None = None,
    dist2: float | None = None,
) -> float:
    """Evaluate a risk-bound right-hand side literally.

    t21_*: B kappa_M^-1 r^2 M(lambda) (risk) / B kappa_M^-1 r M(lambda) (l1);
    t22_*: the same shapes with kappa_M = 1 and constant C;
    t23:   C' (dist2 + r^2 M(lambda)).
    """
    if kind not in THEOREM_KINDS:
        raise ConfigError(f"unknown theorem kind {kind!r}; expected one of {THEOREM_KINDS}")
    if r_nM <= 0 or m_lambda < 0:
        raise ConfigError("theorem_rhs needs r_nM > 0 and M(lambda) >= 0")
    if kind in ("t21_risk", "t21_l1"):
        if kappa_M is None or not (0 < kappa_M <= 1):
            raise ConfigError("t21 bounds need kappa_M in (0, 1]")
        scale = constants.B1 if kind == "t21_risk" else constants.B2
        power = 2 if kind == "t21_risk" else 1
        return scale / kappa_M * r_nM**power * m_lambda
    if kind in ("t22_risk", "t22_l1"):
        power = 2 if kind == "t22_risk" else 1
        return constants.C * r_nM**power * m_lambda
    if dist2 is None or dist2 < 0:
        raise ConfigError("t23 needs a nonnegative dist2")
    return constants.C_prime * (dist2 + r_nM**2 * m_lambda)


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------


def bernstein_bound(n: int, epsilon: float, w2: float, d: float) -> float:
    """Generic Bernstein tail exp(-n eps^2 / (2 (w^2 + d eps))), in [0, 1]."""
    if n < 0 or epsilon < 0 or w2 < 0 or d < 0:
        raise ConfigError("bernstein_bound needs nonnegative arguments")
    if n == 0 or epsilon == 0.0:
        return 1.0
    denom = 2.0 * (w2 + d * epsilon)
    if denom == 0.0:
        return 0.0
    return float(min(1.0, math.exp(-n * epsilon * epsilon / denom)))


def _l4(n, M, c0, L):
    return 2.0 * M * math.exp(-n * c0 * c0 / (12.0 * L * L))


def _l5(n, M, r_nM, b, c0, L):
    return (
        2.0 * M * math.exp(-n * r_nM * r_nM / (16.0 * b))
        + 2.0 * M * math.exp(-n * r_nM * c0 / (8.0 * math.sqrt(2.0) * L))
        + _l4(n, M, c0, L)
    )


def _l6(n, r_nM, m_lambda, L_lambda):
    if L_lambda == 0.0:  # exact representation: E3 holds surely
        return 0.0
    return math.exp(-m_lambda * n * r_nM * r_nM / (4.0 * L_lambda * L_lambda))


def _l7(n, M, m_lambda, c0, L, L0, kappa_M, C_f):
    big_c = 2.0 / (c0 * c0) * (2.0 * C_f + 1.0 + 4.0 * math.sqrt(2.0 / kappa_M)) ** 2
    return 2.0 * M * M * (
        math.exp(-n / (16.0 * L0 * big_c * big_c * m_lambda * m_lambda))
        + math.exp(-n / (8.0 * L * L * big_c * m_lambda))
    )


def _l9(n, M, r_nM, c0, L, L0):
    big_c = 8.0 * 11.0**2 / (c0 * c0)
    return 2.0 * M * M * (
        math.exp(-n * r_nM * r_nM / (16.0 * big_c * big_c * L0))
        + math.exp(-n * r_nM / (8.0 * L * L * big_c))
    )


_LEMMAS = {"L4": _l4, "L5": _l5, "L6": _l6, "L7": _l7, "L9": _l9}
# The parameters each lemma's bound reads, besides n: its formula's arguments.
LEMMA_PARAMS = {
    which: tuple(inspect.signature(bound).parameters)[1:] for which, bound in _LEMMAS.items()
}
LEMMA_KINDS = tuple(LEMMA_PARAMS)
# Parameters that may be 0; every other parameter must be positive.
_MAY_BE_ZERO = ("M", "m_lambda", "C_f", "L_lambda")


def lemma_bounds(which: str, n: int, **params) -> float:
    """Explicit tail-probability bound for one of the good events.

    L4 bounds P(E2^c); L5 bounds P((E1 n E2)^c); L6 bounds P(E3(lambda)^c);
    L7 and L9 bound the empirical-norm distortion events entering the
    weak-sparsity and weak-approximation results. Each lemma reads the
    parameters :data:`LEMMA_PARAMS` lists for it, and ignores those of the
    other lemmas; a keyword that no lemma reads raises ConfigError. Every
    parameter it reads must be finite and positive, except that M,
    m_lambda, C_f and L_lambda may be 0 (L7 needs m_lambda >= 1). Values
    at which a formula divides by an underflowed 0 or overflows raise
    NumericError naming the lemma. All outputs are clamped to [0, 1]. L6 returns 0 in the
    exact-representation case L(lambda) = 0, where the event holds surely.
    """
    if which not in _LEMMAS:
        raise ConfigError(f"unknown lemma {which!r}; expected one of {LEMMA_KINDS}")
    unknown = params.keys() - set().union(*LEMMA_PARAMS.values())
    if unknown:
        raise ConfigError(f"no lemma reads parameter {', '.join(sorted(unknown))}")
    if n < 1:
        raise ConfigError("lemma bounds need n >= 1")
    for name in LEMMA_PARAMS[which]:
        value = params.get(name)
        if value is None:
            raise ConfigError(f"lemma {which} needs parameter {name}")
        least = 1 if (which, name) == ("L7", "m_lambda") else 0
        if name in _MAY_BE_ZERO:
            ok, need = value >= least, f">= {least}"
        else:
            ok, need = value > 0, "> 0"
        if not (ok and math.isfinite(value)):
            raise ConfigError(f"lemma {which} needs finite {name} {need}, got {value}")
    try:
        value = _LEMMAS[which](n, *(params[name] for name in LEMMA_PARAMS[which]))
    except ArithmeticError as exc:  # a square underflowing to 0, or overflowing
        raise NumericError(
            f"lemma {which} cannot be evaluated at these values ({type(exc).__name__})"
        ) from None
    return float(min(1.0, max(0.0, value)))


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
        raise ShapeError("noise vector must match the design row count")
    v = design.entries.T @ noise / design.n
    e1 = bool(np.all(2.0 * np.abs(v) <= weights))
    norms_sq = design.norms_sq
    e2 = bool(
        np.all(norms_sq >= 0.5 * pop_norms_sq) and np.all(norms_sq <= 2.0 * pop_norms_sq)
    )
    emp_err = float(np.mean(np.asarray(approx_error_at_design, dtype=float) ** 2))
    e3 = bool(emp_err <= 2.0 * dist2 + r_nM * r_nM * m_lambda)
    return EventFlags(e1=e1, e2=e2, e3=e3)


def event_frequencies(flags) -> tuple[float, float, float]:
    """Monte Carlo frequencies of E1, E2, E3 over a collection of flags."""
    flags = list(flags)
    if not flags:
        raise ConfigError("cannot aggregate an empty collection of event flags")
    return (
        float(np.mean([f.e1 for f in flags])),
        float(np.mean([f.e2 for f in flags])),
        float(np.mean([f.e3 for f in flags])),
    )


# ---------------------------------------------------------------------------
# Oracle report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Oracle vector, effective dimension, and membership flags.

    ``k_star`` is None when no sparsity level up to M satisfies the
    weak-sparsity inequality (the oracle set is empty); the remaining
    fields are then NaN/None. ``exact`` records whether the oracle search
    was exhaustive.
    """

    lambda_star: np.ndarray | None
    k_star: int | None
    dist2: float
    L_lambda: float
    memberships: MembershipFlags | None
    exact: bool


def oracle_path(dictionary: Dictionary, measure: MeasureSpec, truth: TruthSpec, ks):
    """Yield ``(k, lambda, dist2, exact)`` for each k in ``ks``, lazily: the
    best k-sparse approximation (closed form in the orthonormal case,
    :func:`oracle_general` otherwise), its squared population distance and
    whether the search was exhaustive.
    """
    orthonormal = _orthonormal_case(dictionary, measure, truth)
    for k in ks:
        if orthonormal:
            lam, exact = oracle_fourier(truth, dictionary.M, k), True
        else:
            lam, exact = oracle_general(dictionary, measure, truth, k)
        yield k, lam, population_dist2(dictionary, measure, truth, lam), exact


def oracle_scan(
    dictionary: Dictionary,
    measure: MeasureSpec,
    truth: TruthSpec,
    r_nM: float,
    C_f: float = 1.0,
):
    """Scan k = 0, 1, ..., M for the effective dimension.

    Returns ``(lambda, dist2, exact, found)`` for the smallest k whose best
    k-sparse approximation satisfies ||f_lambda - f||^2 <= C_f r^2 M(lambda).
    When no k up to M does, ``found`` is False and the other entries
    belong to k = M.
    """
    if r_nM <= 0:
        raise ConfigError("oracle scan needs r_nM > 0")
    ks = range(dictionary.M + 1)
    for _, lam, dist2, exact in oracle_path(dictionary, measure, truth, ks):
        _, m_lambda = sparsity(lam)
        if dist2 <= C_f * r_nM * r_nM * m_lambda:
            return lam, dist2, exact, True
    return lam, dist2, exact, False


def oracle_report(
    dictionary: Dictionary,
    measure: MeasureSpec,
    truth: TruthSpec,
    r_nM: float,
    C_f: float = 1.0,
    C_f_prime: float = 1.0,
) -> OracleReport:
    """Scan for the effective dimension with :func:`oracle_scan` and build the report.

    k_star is the smallest M(lambda) whose best approximation satisfies
    ||f_lambda - f||^2 <= C_f r^2 M(lambda); ``C_f_prime`` enters only the
    weak-approximation membership flags.
    """
    lam, dist2, exact, found = oracle_scan(dictionary, measure, truth, r_nM, C_f)
    if not found:
        return OracleReport(
            lambda_star=None,
            k_star=None,
            dist2=math.nan,
            L_lambda=math.nan,
            memberships=None,
            exact=True,
        )
    support, m_lambda = sparsity(lam)
    _, rho_lambda = coherence(population_gram(dictionary, measure), support)
    return OracleReport(
        lambda_star=lam,
        k_star=m_lambda,
        dist2=dist2,
        L_lambda=sup_norm_error(dictionary, truth, lam),
        memberships=membership(dist2, m_lambda, rho_lambda, r_nM, C_f, C_f_prime),
        exact=exact,
    )
