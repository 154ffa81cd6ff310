"""Function dictionaries: construction, evaluation, and norm machinery.

Three dictionary kinds are supported:

* ``fourier``     -- the trigonometric basis 1, sqrt(2)cos(2 pi k x),
  sqrt(2)sin(2 pi k x) on [0, 1];
* ``coordinate``  -- projections x -> x_j for linear regression designs;
* ``tabulated``   -- arbitrary fitted curves given as (abscissa, value)
  tables, completed by piecewise-linear interpolation.

All dictionaries are immutable after construction and evaluation is a pure
function, so instances are safe to share across threads.

Indices are 0-based throughout the Python API; the CLI writes 1-based
indices in its CSV artifacts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._util import read_numeric_csv
from .errors import (
    ConfigError,
    DictionaryError,
    DomainError,
    NumericError,
    ShapeError,
    UnsupportedOperationError,
    ValidationError,
)

# Quadrature / scan resolutions; every grid spans one axis.
QUADRATURE_POINTS = 4096
SUP_GRID_POINTS = 100_001

_DOMAIN_SLACK = 1e-12


def _as_domain(domain, d: int) -> np.ndarray:
    box = np.asarray(domain, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (d, 1))
    if box.shape != (d, 2):
        raise ShapeError(f"domain must have shape ({d}, 2), got {box.shape}")
    if not np.all(np.isfinite(box)):
        raise DictionaryError("domain bounds must be finite")
    if np.any(box[:, 0] > box[:, 1]):
        raise DictionaryError("domain lower bounds must not exceed upper bounds")
    return box


def _check_table(grid, values, error, what: str):
    """``(grid, values)`` as float arrays, checked by the one table rule.

    Both 1-d, of equal length and at least 2 points, finite, with strictly
    increasing abscissae; a breach raises ``error`` naming ``what``.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise error(f"{what} needs matching 1-d x and value columns of >= 2 points")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise error(f"{what} entries must be finite")
    if not np.all(np.diff(grid) > 0):
        raise error(f"{what} abscissae must be strictly increasing")
    return grid, values


@dataclass(frozen=True)
class Dictionary:
    """An ordered family of M real-valued functions on a compact box.

    ``tables`` is only populated for the tabulated kind: one
    ``(grid, values)`` pair of 1-d arrays per function, with strictly
    increasing grid abscissae.
    """

    kind: str
    M: int
    d: int
    domain: np.ndarray
    tables: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fourier", "coordinate", "tabulated"):
            raise DictionaryError(f"unknown dictionary kind {self.kind!r}")
        if self.M < 2:
            raise DictionaryError("dictionaries need M >= 2 functions")
        if self.kind == "fourier":
            if self.d != 1:
                raise DictionaryError("fourier dictionaries require d = 1")
            if not (self.domain[0, 0] == 0.0 and self.domain[0, 1] == 1.0):
                raise DictionaryError(
                    "fourier dictionaries are defined on [0, 1]; "
                    "rescale your data instead of the basis"
                )
        if self.kind == "coordinate" and self.M != self.d:
            raise DictionaryError("coordinate dictionaries require M = d")
        if self.kind == "tabulated":
            if len(self.tables) != self.M:
                raise DictionaryError("tabulated kind needs one table per function")
            for grid, vals in self.tables:
                _check_table(grid, vals, DictionaryError, "dictionary table")


@dataclass(frozen=True)
class DesignMatrix:
    """Evaluations f_j(X_i): n rows (points), M columns (functions)."""

    n: int
    M: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.n, self.M):
            raise ShapeError(
                f"entries shape {self.entries.shape} != ({self.n}, {self.M})"
            )
        if self.n < 1:
            raise ShapeError("design matrices need n >= 1 rows")
        if not np.all(np.isfinite(self.entries)):
            raise NumericError("design matrix contains non-finite entries")

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """Squared empirical norms ||f_j||_n^2 = n^-1 sum_i f_j(X_i)^2, per
        column; computed on first use and shared by the penalty weights, the
        solver and the E2 event (so treat ``entries`` as read-only)."""
        return np.mean(self.entries**2, axis=0)


@dataclass(frozen=True)
class MeasureSpec:
    """Design measure used for population integrals.

    ``uniform`` is the uniform distribution on the dictionary domain.
    ``grid-density`` is a positive density tabulated on a 1-d grid
    (linearly interpolated, trapezoid-normalized). Population integrals
    under either kind use QUADRATURE_POINTS nodes (:func:`quadrature_grid`).
    """

    kind: str = "uniform"
    density_table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "grid-density"):
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if self.kind == "grid-density" and not self.density_table:
            raise ConfigError("grid-density measure needs a density table")


def uniform_measure() -> MeasureSpec:
    return MeasureSpec(kind="uniform")


def grid_density_measure(grid, density) -> MeasureSpec:
    """Tabulated 1-d design density, trapezoid-normalized to integrate to 1.

    The table follows the rule of :func:`_check_table` (ShapeError), and
    every density value must be positive: the design density is bounded
    away from zero.
    """
    grid, density = _check_table(grid, density, ShapeError, "density table")
    if not np.all(density > 0):
        raise ConfigError("density values must be positive")
    total = np.trapezoid(density, grid)
    if not (np.isfinite(total) and total > 0):
        raise NumericError("density does not integrate to a positive value")
    return MeasureSpec(kind="grid-density", density_table=(grid, density / total))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_fourier(M: int) -> Dictionary:
    """Trigonometric dictionary on [0, 1].

    f_1 = 1, f_{2k} = sqrt(2) cos(2 pi k x), f_{2k+1} = sqrt(2) sin(2 pi k x),
    indexed 1..M (so the Python column for f_j is j - 1).
    """
    if M < 2:
        raise DictionaryError("fourier dictionaries need M >= 2")
    return Dictionary(kind="fourier", M=int(M), d=1, domain=np.array([[0.0, 1.0]]))


def build_coordinate(d: int, domain=None) -> Dictionary:
    """Coordinate-projection dictionary f_j(x) = x_j, j = 1..d, for linear
    designs."""
    if d < 1:
        raise DictionaryError("coordinate dictionaries need d >= 1")
    box = _as_domain(domain if domain is not None else [0.0, 1.0], d)
    return Dictionary(kind="coordinate", M=int(d), d=int(d), domain=box)


def build_tabulated(tables: Sequence, domain=None) -> Dictionary:
    """Dictionary of tabulated 1-d functions (framework for aggregating
    arbitrary fitted estimators), completed by linear interpolation."""
    clean = tuple(
        (np.ascontiguousarray(g, dtype=float), np.ascontiguousarray(v, dtype=float))
        for g, v in tables
    )
    box = _as_domain(domain if domain is not None else [0.0, 1.0], 1)
    return Dictionary(kind="tabulated", M=len(clean), d=1, domain=box, tables=clean)


def load_tabulated_csv(path) -> Dictionary:
    """Load a tabulated dictionary from CSV with header ``x,f1,...,fM``.

    The domain is the x range of the table. A header whose first name is
    not ``x`` raises DictionaryError; a non-numeric cell, a ragged row or a
    file without data rows raises ShapeError naming ``path:line``.
    """
    names, data = read_numeric_csv(path)
    if names[0] != "x":
        raise DictionaryError(f"{path}: tabulated CSV must start with header x,f1,...,fM")
    grid = data[:, 0]
    tables = [(grid, data[:, j]) for j in range(1, data.shape[1])]
    return build_tabulated(tables, domain=[float(grid.min()), float(grid.max())])


def load_points_csv(path):
    """Load design points from CSV ``x1,...,xd[,y]``.

    Returns ``(points, y)`` with ``y = None`` when no response column is
    present. ``points`` has shape (n, d). A bad header, a non-numeric cell,
    a ragged row or a file without data rows raises ShapeError; the last
    three name ``path:line``.
    """
    names, data = read_numeric_csv(path)
    has_y = names[-1] == "y"
    d = len(names) - (1 if has_y else 0)
    if d < 1 or any(names[i] != f"x{i + 1}" for i in range(d)):
        raise ShapeError(f"{path}: points CSV header must be x1,...,xd[,y]")
    return data[:, :d], (data[:, d] if has_y else None)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_points(dictionary: Dictionary, points) -> np.ndarray:
    """The points as an (n, d) array within the dictionary domain.

    Points outside the domain raise DomainError, except for a tabulated
    dictionary: its functions are clamped interpolants on the whole line,
    so such points only warn.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if dictionary.d != 1:
            raise ShapeError(f"points are 1-d but the dictionary has d = {dictionary.d}")
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dictionary.d:
        raise ShapeError(
            f"points shape {pts.shape} does not match dictionary dimension d = {dictionary.d}"
        )
    if not np.all(np.isfinite(pts)):
        raise NumericError("evaluation points contain non-finite values")
    lo = dictionary.domain[:, 0] - _DOMAIN_SLACK
    hi = dictionary.domain[:, 1] + _DOMAIN_SLACK
    if np.any(pts < lo) or np.any(pts > hi):
        if dictionary.kind != "tabulated":
            raise DomainError("evaluation points fall outside the dictionary domain")
        warnings.warn(
            "evaluation points outside the dictionary domain were clamped",
            RuntimeWarning,
            stacklevel=3,
        )
    return pts


def _columns(dictionary: Dictionary, pts: np.ndarray):
    """Yield f_1(pts), ..., f_M(pts) for checked points, one column at a time.

    Fourier pairs come from the angle-addition recurrence
    (c, s) <- (c c1 - s s1, s c1 + c s1) with c1 + i s1 = exp(2 pi i x);
    its rounding error grows about linearly in the frequency, to a few
    1e-12 at M ~ 4000.
    """
    M = dictionary.M
    if dictionary.kind == "coordinate":
        yield from pts.T
    elif dictionary.kind == "tabulated":
        for grid, vals in dictionary.tables:
            yield np.interp(pts[:, 0], grid, vals)
    else:
        yield np.ones(pts.shape[0])
        angle = 2.0 * np.pi * pts[:, 0]
        c1, s1 = np.cos(angle), np.sin(angle)
        c, s = c1, s1
        root2 = np.sqrt(2.0)
        for j in range(1, M, 2):
            yield root2 * c
            if j + 1 < M:
                yield root2 * s
            c, s = c * c1 - s * s1, s * c1 + c * s1


def evaluate(dictionary: Dictionary, points) -> DesignMatrix:
    """Evaluate every dictionary function at every point.

    Entry (i, j) is f_j(x_i), stored column-major. Points must lie in the
    dictionary domain. A tabulated function is its clamped interpolant on
    the whole domain; points outside the domain are clamped too, with a
    warning.
    """
    pts = _check_points(dictionary, points)
    out = np.empty((pts.shape[0], dictionary.M), order="F")
    for j, column in enumerate(_columns(dictionary, pts)):
        out[:, j] = column
    return DesignMatrix(n=pts.shape[0], M=dictionary.M, entries=out)


def _spectrum(coef: np.ndarray):
    """Fourier coefficients c_0, ..., c_{m-1} as ``(c0, a)`` with a complex.

    sum_j c_j f_j(x) = c0 + sqrt(2) Re sum_{k>=1} a_k z^k, z = exp(2 pi i x),
    with a_k = c_{2k-1} - i c_{2k} (0-based), because
    sqrt(2) Re((c - i s) z^k) = sqrt(2) (c cos 2 pi k x + s sin 2 pi k x).
    ``a[k - 1]`` holds a_k; a ends at the last nonzero coefficient.
    """
    coef = coef[: np.flatnonzero(coef).max(initial=0) + 1]
    a = np.zeros(coef.size // 2, dtype=complex)
    a.real = coef[1::2]
    a.imag[: (coef.size - 1) // 2] = -coef[2::2]
    return float(coef[0]), a


def _fourier_grid(coef: np.ndarray, N: int) -> np.ndarray:
    """Values of sum_j c_j f_j at x_i = i / N, i = 0..N-1, by one inverse FFT.

    sum_k a_k exp(2 pi i k i / N) = N ifft(b)_i, where b_m sums the a_k
    with k = m (mod N). The folding is exact, so any frequency is allowed.
    """
    c0, a = _spectrum(coef)
    k = np.arange(1, a.size + 1) % N
    b = np.bincount(k, a.real, N) + 1j * np.bincount(k, a.imag, N)
    return c0 + np.sqrt(2.0) * N * np.fft.ifft(b).real


def predict(dictionary: Dictionary, lam, points) -> np.ndarray:
    """Evaluate the aggregate f_lambda = sum_j lambda_j f_j at the points.

    A fourier sum is c0 + sqrt(2) Re sum_k a_k z^k (see :func:`_spectrum`),
    evaluated by complex Horner's rule in z = exp(2 pi i x) from the last
    nonzero coefficient down. Other kinds accumulate one column at a time,
    up to the last nonzero coefficient. Neither holds the n x M design.
    Points are checked as in :func:`evaluate`.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (dictionary.M,):
        raise ShapeError(
            f"coefficient vector must have shape ({dictionary.M},), got {lam.shape}"
        )
    pts = _check_points(dictionary, points)
    if dictionary.kind == "fourier":
        c0, a = _spectrum(lam)
        z = np.exp(2j * np.pi * pts[:, 0])
        acc = np.zeros(pts.shape[0], dtype=complex)
        for a_k in a[::-1]:
            acc += a_k
            acc *= z
        return c0 + np.sqrt(2.0) * acc.real
    out = np.zeros(pts.shape[0])
    last = np.flatnonzero(lam).max(initial=-1) + 1
    for coef, column in zip(lam[:last], _columns(dictionary, pts)):
        if coef != 0.0:
            out += coef * column
    return out


def empirical_norms(design: DesignMatrix) -> np.ndarray:
    """Empirical L2 norms ||f_j||_n = sqrt(n^-1 sum_i f_j(X_i)^2), per column."""
    return np.sqrt(design.norms_sq)


# ---------------------------------------------------------------------------
# Quadrature and population integrals
# ---------------------------------------------------------------------------


def _axis_grid(dictionary: Dictionary, nodes: int) -> np.ndarray:
    """``nodes`` equispaced points spanning the dictionary domain, shape (nodes, 1).

    Grids span one axis. Only coordinate dictionaries have d > 1, and their
    population constants are closed forms under the uniform measure, so a
    request for a d-dimensional grid raises UnsupportedOperationError.
    """
    if dictionary.d > 1:
        raise UnsupportedOperationError(
            f"grids span one axis; the {dictionary.kind} dictionary has d = {dictionary.d}"
        )
    return np.linspace(*dictionary.domain[0], nodes)[:, None]


def quadrature_grid(dictionary: Dictionary, measure: MeasureSpec):
    """Quadrature nodes and probability weights for population integrals.

    Composite trapezoid on G = QUADRATURE_POINTS equispaced nodes of the
    one-axis domain (:func:`_axis_grid`); a grid-density measure reweights
    the nodes by the density. A fourier dictionary needs M < G - 1: beyond
    that, products of basis functions alias on the G nodes.
    """
    G = QUADRATURE_POINTS
    if dictionary.kind == "fourier" and dictionary.M >= G - 1:
        raise ConfigError(
            f"fourier dictionary with M = {dictionary.M} aliases on a "
            f"{G}-node quadrature grid; need G > M + 1"
        )
    pts = _axis_grid(dictionary, G)
    w = np.full(G, 1.0 / (G - 1))
    w[[0, -1]] *= 0.5
    if measure.kind == "grid-density":
        grid, density = measure.density_table
        w = w * np.interp(pts[:, 0], grid, density)
        w = w / w.sum()
    return pts, w


def _uniform_closed_form(dictionary: Dictionary, measure: MeasureSpec):
    """Exact ``(Psi, L0)`` under the uniform measure, or None without one.

    The fourier basis is orthonormal, Psi = I, and its largest mixed
    fourth moment is E[f_2^4] = 3/2. Coordinate dictionaries use the
    first, second and fourth moments of the uniform box law.
    """
    if measure.kind != "uniform":
        return None
    if dictionary.kind == "fourier":
        return np.eye(dictionary.M), 1.5
    if dictionary.kind != "coordinate":
        return None
    a = dictionary.domain[:, 0]
    b = dictionary.domain[:, 1]
    m1 = (a + b) / 2.0
    m2 = (a * a + a * b + b * b) / 3.0
    m4 = (a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4) / 5.0
    psi = np.outer(m1, m1)
    np.fill_diagonal(psi, m2)
    mixed = np.outer(m2, m2)
    np.fill_diagonal(mixed, m4)
    return psi, float(mixed.max())


def population_gram(dictionary: Dictionary, measure: MeasureSpec) -> np.ndarray:
    """Population Gram matrix of inner products <f_i, f_j> under the measure.

    Under the uniform measure it is exact: the identity for fourier
    dictionaries, product box moments for coordinate ones. Tabulated
    dictionaries and grid-density measures go through quadrature.
    """
    exact = _uniform_closed_form(dictionary, measure)
    if exact is not None:
        return exact[0]
    pts, w = quadrature_grid(dictionary, measure)
    phi = evaluate(dictionary, pts).entries
    psi = phi.T @ (phi * w[:, None])
    psi = 0.5 * (psi + psi.T)
    if not np.all(np.isfinite(psi)):
        raise NumericError("population Gram quadrature produced non-finite entries")
    return psi


def _sup_norm(dictionary: Dictionary) -> float:
    """Exact L = max_j sup_x |f_j(x)| over the dictionary domain.

    sqrt(2) for fourier, the largest |bound| of the d axes for
    coordinate, and for tabulated the largest |value| of the clamped
    interpolant, which peaks at a table node or at a domain end.
    """
    if dictionary.kind == "fourier":
        return float(np.sqrt(2.0))
    box = dictionary.domain
    if dictionary.kind == "coordinate":
        return float(np.abs(box).max())
    lo, hi = box[0]
    peaks = []
    for grid, vals in dictionary.tables:
        inside = vals[(grid > lo) & (grid < hi)]
        ends = np.interp([lo, hi], grid, vals)
        peaks.append(max(np.abs(inside).max(initial=0.0), np.abs(ends).max()))
    return float(max(peaks))


def sup_norm_grid(dictionary: Dictionary) -> np.ndarray:
    """Dense evaluation grid used for sup-norm scans (lower-bound estimates):
    SUP_GRID_POINTS equispaced nodes of the one-axis domain
    (:func:`_axis_grid`)."""
    return _axis_grid(dictionary, SUP_GRID_POINTS)


@dataclass(frozen=True)
class DictionaryValidation:
    """Boundedness / non-degeneracy report for a dictionary.

    ``L`` is the exact max sup-norm, ``c0`` the smallest population norm,
    ``L0`` the largest mixed fourth moment max E[f_i^2 f_j^2]. c0 and L0
    are exact for fourier and coordinate dictionaries under the uniform
    measure and quadrature estimates otherwise. L and L0 are always finite
    (:func:`validate_a2` raises otherwise), so the boundedness conditions
    hold exactly when ``norms_ok``: c0 > 0.
    """

    L: float
    c0: float
    L0: float
    norms_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.norms_ok


def validate_a2(dictionary: Dictionary, measure: MeasureSpec) -> DictionaryValidation:
    """Compute L, c0, L0 and check the boundedness conditions.

    L is exact for every kind; c0 and L0 use the same closed forms as
    :func:`population_gram` and quadrature where those do not apply.
    A non-finite L, c0 or L0 raises ValidationError, so L < inf and
    L0 < inf whenever a report is returned; c0 > 0 is ``norms_ok``.
    """
    L = _sup_norm(dictionary)
    exact = _uniform_closed_form(dictionary, measure)
    if exact is not None:
        psi, L0 = exact
        norms_sq = np.diag(psi)
    else:
        qpts, w = quadrature_grid(dictionary, measure)
        phi = evaluate(dictionary, qpts).entries
        sq = phi * phi
        weighted = sq * w[:, None]
        norms_sq = weighted.sum(axis=0)
        L0 = float((sq.T @ weighted).max())
    c0 = float(np.sqrt(max(norms_sq.min(), 0.0)))

    if not (np.isfinite(L) and np.isfinite(c0) and np.isfinite(L0)):
        raise ValidationError("validation produced non-finite L, c0 or L0")

    return DictionaryValidation(L=L, c0=c0, L0=L0, norms_ok=c0 > 0.0)
