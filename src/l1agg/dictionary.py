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

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DictionaryError,
    DomainError,
    NumericError,
    ShapeError,
    UnsupportedOperationError,
    ValidationError,
)

# Quadrature / scan resolutions (d = 1 defaults; d > 1 grids are capped).
DEFAULT_QUADRATURE_POINTS = 4096
SUP_GRID_POINTS = 100_001
MAX_TOTAL_GRID_POINTS = 1_000_000
QUADRATURE_TOL = 1e-6

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
        if self.kind == "coordinate" and self.M > self.d:
            raise DictionaryError("coordinate dictionaries require M <= d")
        if self.kind == "tabulated":
            if len(self.tables) != self.M:
                raise DictionaryError("tabulated kind needs one table per function")
            for grid, vals in self.tables:
                if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 2:
                    raise DictionaryError("each table needs >= 2 (x, value) pairs")
                if not np.all(np.diff(grid) > 0):
                    raise DictionaryError("table abscissae must be strictly increasing")
                if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(vals))):
                    raise DictionaryError("table entries must be finite")


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


@dataclass(frozen=True)
class MeasureSpec:
    """Design measure used for population integrals.

    ``uniform`` is the uniform distribution on the dictionary domain.
    ``grid-density`` is a tabulated density on a 1-d grid (linearly
    interpolated, trapezoid-normalized); ``mu_min``/``mu_max`` record its
    range for the density-bounded-away-from-zero checks.
    ``G`` is the per-axis quadrature resolution.
    """

    kind: str = "uniform"
    mu_min: float = 1.0
    mu_max: float = 1.0
    G: int = DEFAULT_QUADRATURE_POINTS
    density_table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "grid-density"):
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if not (0 < self.mu_min <= self.mu_max < np.inf):
            raise ConfigError("need 0 < mu_min <= mu_max < inf")
        if self.G < 64:
            raise ConfigError("quadrature resolution G must be >= 64")
        if self.kind == "grid-density" and not self.density_table:
            raise ConfigError("grid-density measure needs a density table")


def uniform_measure(G: int = DEFAULT_QUADRATURE_POINTS) -> MeasureSpec:
    return MeasureSpec(kind="uniform", mu_min=1.0, mu_max=1.0, G=G)


def grid_density_measure(grid, density, G: int = DEFAULT_QUADRATURE_POINTS) -> MeasureSpec:
    """Tabulated 1-d design density, trapezoid-normalized to integrate to 1."""
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
        raise ShapeError("density table needs matching 1-d grid and values")
    if np.any(density < 0):
        raise ConfigError("density values must be nonnegative")
    total = np.trapezoid(density, grid)
    if not (np.isfinite(total) and total > 0):
        raise NumericError("density does not integrate to a positive value")
    density = density / total
    return MeasureSpec(
        kind="grid-density",
        mu_min=float(density.min()),
        mu_max=float(density.max()),
        G=G,
        density_table=(grid, density),
    )


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


def build_coordinate(d: int, M: int | None = None, domain=None) -> Dictionary:
    """Coordinate-projection dictionary f_j(x) = x_j for linear designs."""
    if d < 1:
        raise DictionaryError("coordinate dictionaries need d >= 1")
    M = d if M is None else int(M)
    box = _as_domain(domain if domain is not None else [0.0, 1.0], d)
    return Dictionary(kind="coordinate", M=M, d=int(d), domain=box)


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
    """Load a tabulated dictionary from CSV with header ``x,f1,...,fM``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "x":
            raise DictionaryError("tabulated CSV must start with header x,f1,...,fM")
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise DictionaryError("tabulated CSV has no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise DictionaryError("tabulated CSV rows do not match the header width")
    grid = data[:, 0]
    tables = [(grid, data[:, j]) for j in range(1, data.shape[1])]
    lo, hi = float(grid.min()), float(grid.max())
    return build_tabulated(tables, domain=[lo, hi])


def load_points_csv(path):
    """Load design points from CSV ``x1,...,xd[,y]``.

    Returns ``(points, y)`` with ``y = None`` when no response column is
    present. ``points`` has shape (n, d).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ShapeError("points CSV is empty")
        names = [h.strip() for h in header]
        has_y = names[-1] == "y"
        d = len(names) - (1 if has_y else 0)
        if d < 1 or any(names[i] != f"x{i + 1}" for i in range(d)):
            raise ShapeError("points CSV header must be x1,...,xd[,y]")
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise ShapeError("points CSV has no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(names):
        raise ShapeError("points CSV rows do not match the header width")
    pts = data[:, :d]
    y = data[:, d] if has_y else None
    return pts, y


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _fourier_columns(x: np.ndarray, M: int) -> np.ndarray:
    out = np.empty((x.size, M))
    out[:, 0] = 1.0
    if M == 1:
        return out
    root2 = np.sqrt(2.0)
    n_freq = M // 2
    n_sin = (M - 1) // 2
    freqs = 2.0 * np.pi * np.arange(1, n_freq + 1)
    # Chunk rows so the (rows, n_freq) phase block stays bounded in memory.
    chunk = max(1, 5_000_000 // max(n_freq, 1))
    for start in range(0, x.size, chunk):
        stop = min(start + chunk, x.size)
        phase = x[start:stop, None] * freqs
        out[start:stop, 1::2] = root2 * np.cos(phase)
        if n_sin:
            out[start:stop, 2::2] = root2 * np.sin(phase[:, :n_sin])
    return out


def _check_points(dictionary: Dictionary, points) -> np.ndarray:
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
    return pts


def evaluate(dictionary: Dictionary, points) -> DesignMatrix:
    """Evaluate every dictionary function at every point.

    Entry (i, j) is f_j(x_i). Points must lie in the dictionary domain;
    the tabulated kind clamps to its grid range instead and emits a
    warning.
    """
    pts = _check_points(dictionary, points)
    lo = dictionary.domain[:, 0] - _DOMAIN_SLACK
    hi = dictionary.domain[:, 1] + _DOMAIN_SLACK

    if dictionary.kind == "tabulated":
        x = pts[:, 0]
        out = np.empty((x.size, dictionary.M))
        clamped = False
        for j, (grid, vals) in enumerate(dictionary.tables):
            if np.any(x < grid[0]) or np.any(x > grid[-1]):
                clamped = True
            out[:, j] = np.interp(x, grid, vals)
        if clamped:
            warnings.warn(
                "evaluation points outside the tabulated grid range were clamped",
                RuntimeWarning,
                stacklevel=2,
            )
        return DesignMatrix(n=pts.shape[0], M=dictionary.M, entries=out)

    if np.any(pts < lo) or np.any(pts > hi):
        raise DomainError("evaluation points fall outside the dictionary domain")
    if dictionary.kind == "fourier":
        out = _fourier_columns(pts[:, 0], dictionary.M)
    else:
        out = pts[:, : dictionary.M].copy()
    return DesignMatrix(n=pts.shape[0], M=dictionary.M, entries=out)


def empirical_norms(design: DesignMatrix) -> np.ndarray:
    """Empirical L2 norms ||f_j||_n = sqrt(n^-1 sum_i f_j(X_i)^2), per column."""
    return np.sqrt(np.mean(design.entries**2, axis=0))


# ---------------------------------------------------------------------------
# Quadrature and population integrals
# ---------------------------------------------------------------------------


def _product_mesh(box: np.ndarray, per_axis_cap: int):
    """Product grid on a d > 1 box with at most MAX_TOTAL_GRID_POINTS nodes.

    Returns ``(points, per_axis)``. Raises when even two nodes per axis
    (2^d points) exceed the budget.
    """
    d = box.shape[0]
    per_axis = min(per_axis_cap, int(MAX_TOTAL_GRID_POINTS ** (1.0 / d)))
    if per_axis < 2:
        raise UnsupportedOperationError(
            f"a {d}-d product grid needs 2^{d} points, above the budget of "
            f"{MAX_TOTAL_GRID_POINTS}"
        )
    axes = [np.linspace(box[a, 0], box[a, 1], per_axis) for a in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1), per_axis


def quadrature_grid(dictionary: Dictionary, measure: MeasureSpec):
    """Quadrature nodes and probability weights for population integrals.

    d = 1 uses composite trapezoid on G nodes. For d > 1 a product grid is
    formed with the per-axis count reduced so the total stays below
    MAX_TOTAL_GRID_POINTS. A fourier dictionary needs M < G - 1: beyond
    that, products of basis functions alias on the G nodes.
    """
    if dictionary.kind == "fourier" and dictionary.M >= measure.G - 1:
        raise ConfigError(
            f"fourier dictionary with M = {dictionary.M} aliases on a "
            f"{measure.G}-node quadrature grid; need G > M + 1"
        )
    d = dictionary.d
    box = dictionary.domain
    if d == 1:
        G = measure.G
        x = np.linspace(box[0, 0], box[0, 1], G)
        w = np.full(G, (box[0, 1] - box[0, 0]) / (G - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        if measure.kind == "uniform":
            w = w / (box[0, 1] - box[0, 0])
        else:
            grid, density = measure.density_table
            w = w * np.interp(x, grid, density)
            w = w / w.sum()
        return x[:, None], w

    if measure.kind != "uniform":
        raise UnsupportedOperationError(
            "grid-density measures are only supported for d = 1"
        )
    pts, per_axis = _product_mesh(box, measure.G)
    w_axis = np.full(per_axis, 1.0 / (per_axis - 1))
    w_axis[0] *= 0.5
    w_axis[-1] *= 0.5
    w = np.ones(pts.shape[0])
    for wm in np.meshgrid(*([w_axis] * d), indexing="ij"):
        w *= wm.ravel()
    return pts, w


def _uniform_closed_form(dictionary: Dictionary, measure: MeasureSpec):
    """Exact ``(Psi, L0)`` under the uniform measure, or None without one.

    The fourier basis is orthonormal, Psi = I, and its largest mixed
    fourth moment is E[f_2^4] = 3/2. Coordinate dictionaries use the
    first, second and fourth moments of the uniform box law.
    """
    if measure.kind != "uniform":
        return None
    M = dictionary.M
    if dictionary.kind == "fourier":
        return np.eye(M), 1.5
    if dictionary.kind != "coordinate":
        return None
    a = dictionary.domain[:M, 0]
    b = dictionary.domain[:M, 1]
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

    sqrt(2) for fourier, the largest |bound| of the first M axes for
    coordinate, and for tabulated the largest |value| of the clamped
    interpolant, which peaks at a table node or at a domain end.
    """
    if dictionary.kind == "fourier":
        return float(np.sqrt(2.0))
    box = dictionary.domain
    if dictionary.kind == "coordinate":
        return float(np.abs(box[: dictionary.M]).max())
    lo, hi = box[0]
    peaks = []
    for grid, vals in dictionary.tables:
        inside = vals[(grid > lo) & (grid < hi)]
        ends = np.interp([lo, hi], grid, vals)
        peaks.append(max(np.abs(inside).max(initial=0.0), np.abs(ends).max()))
    return float(max(peaks))


def sup_norm_grid(dictionary: Dictionary) -> np.ndarray:
    """Dense evaluation grid used for sup-norm scans (lower-bound estimates)."""
    if dictionary.d == 1:
        lo, hi = dictionary.domain[0]
        return np.linspace(lo, hi, SUP_GRID_POINTS)[:, None]
    pts, _ = _product_mesh(dictionary.domain, 10_000)
    return pts


@dataclass(frozen=True)
class DictionaryValidation:
    """Boundedness / non-degeneracy report for a dictionary.

    ``L`` is the exact max sup-norm, ``c0`` the smallest population norm,
    ``L0`` the largest mixed fourth moment max E[f_i^2 f_j^2]. c0 and L0
    are exact for fourier and coordinate dictionaries under the uniform
    measure and quadrature estimates otherwise.
    """

    L: float
    c0: float
    L0: float
    bounded_ok: bool
    norms_ok: bool
    moments_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.bounded_ok and self.norms_ok and self.moments_ok


def validate_a2(
    dictionary: Dictionary,
    measure: MeasureSpec,
    L_max: float = np.inf,
    c0_min: float = 0.0,
    L0_max: float = np.inf,
) -> DictionaryValidation:
    """Compute L, c0, L0 and check the boundedness conditions.

    L is exact for every kind; c0 and L0 use the same closed forms as
    :func:`population_gram` and quadrature where those do not apply.
    Defaults pass (a) for any finite L and (b) for any c0 > 0; tighter
    user thresholds may be supplied.
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

    return DictionaryValidation(
        L=L,
        c0=c0,
        L0=L0,
        bounded_ok=np.isfinite(L) and L <= L_max,
        norms_ok=c0 > max(c0_min, 0.0),
        moments_ok=np.isfinite(L0) and L0 <= L0_max,
    )
