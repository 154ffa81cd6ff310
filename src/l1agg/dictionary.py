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

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._util import read_csv
from .errors import ConfigError, NumericError

# Quadrature / scan resolutions; every grid spans one axis.
QUADRATURE_POINTS = 4096
SUP_GRID_POINTS = 100_001
# Complex entries (16 bytes each) that the baby-step powers and the block
# product of one chunk of points may hold together in a fourier sum
# (:func:`_fourier_sum`): 1 MiB.
FOURIER_SUM_BUDGET = 1 << 16

_DOMAIN_SLACK = 1e-12


def _check_table(grid, values, what: str):
    """``(grid, values)`` as float arrays, checked by the one table rule.

    Both 1-d, of equal length and at least 2 points, finite, with strictly
    increasing abscissae; a breach raises ConfigError naming ``what``.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise ConfigError(f"{what} needs matching 1-d x and value columns of >= 2 points")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ConfigError(f"{what} entries must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(f"{what} abscissae must be strictly increasing")
    return grid, values


@dataclass(frozen=True)
class Dictionary:
    """An ordered family of M real-valued functions on [lo, hi]^d.

    ``domain`` is the interval ``(lo, hi)`` of every axis, held as two
    floats: finite, with lo <= hi, and (0, 1) for fourier. ``tables`` is
    only populated for the tabulated kind: one ``(grid, values)`` pair of
    1-d arrays per function, with strictly increasing grid abscissae.
    """

    kind: str
    M: int
    domain: tuple
    tables: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fourier", "coordinate", "tabulated"):
            raise ConfigError(f"unknown dictionary kind {self.kind!r}")
        if self.M < 2:
            raise ConfigError("dictionaries need M >= 2 functions")
        bounds = np.asarray(self.domain, dtype=float)
        if bounds.shape != (2,):
            raise ConfigError(f"domain must be one interval [lo, hi], got shape {bounds.shape}")
        if not np.all(np.isfinite(bounds)):
            raise ConfigError("domain bounds must be finite")
        if bounds[0] > bounds[1]:
            raise ConfigError("domain lower bounds must not exceed upper bounds")
        object.__setattr__(self, "domain", tuple(bounds.tolist()))
        if self.kind == "fourier" and self.domain != (0.0, 1.0):
            raise ConfigError(
                "fourier dictionaries are defined on [0, 1]; "
                "rescale your data instead of the basis"
            )
        if self.kind == "tabulated":
            if len(self.tables) != self.M:
                raise ConfigError("tabulated kind needs one table per function")
            for grid, vals in self.tables:
                _check_table(grid, vals, "dictionary table")

    @property
    def d(self) -> int:
        """The number of axes: M for coordinate, 1 for the other kinds."""
        return self.M if self.kind == "coordinate" else 1


@dataclass(frozen=True)
class DesignMatrix:
    """Evaluations f_j(X_i): n rows (points), M columns (functions).

    Construction computes ``norms_sq`` and checks finiteness on that pass:
    an entry that is NaN or infinite makes its column's norm non-finite,
    so only a non-finite norm (which an overflow of finite entries also
    gives) scans the entries, and a non-finite entry raises NumericError.
    """

    n: int
    M: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.n, self.M):
            raise ConfigError(
                f"entries shape {self.entries.shape} != ({self.n}, {self.M})"
            )
        if self.n < 1:
            raise ConfigError("design matrices need n >= 1 rows")
        if not np.all(np.isfinite(self.norms_sq)) and not np.all(np.isfinite(self.entries)):
            raise NumericError("design matrix contains non-finite entries")

    @cached_property
    def norms_sq(self) -> np.ndarray:
        """Squared empirical norms ||f_j||_n^2 = n^-1 sum_i f_j(X_i)^2, per
        column, as ``einsum("ij,ij->j", entries, entries) / n`` (no n x M
        temporary); computed at construction and shared by the penalty
        weights, the solver and the E2 event (so treat ``entries`` as
        read-only)."""
        return np.einsum("ij,ij->j", self.entries, self.entries) / self.n


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

    The table follows the rule of :func:`_check_table` (ConfigError), and
    every density value must be positive: the design density is bounded
    away from zero. A table whose integral is not finite, an overflow
    included, raises NumericError and no warning.
    """
    grid, density = _check_table(grid, density, "density table")
    if not np.all(density > 0):
        raise ConfigError("density values must be positive")
    with np.errstate(over="ignore"):
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
    return Dictionary(kind="fourier", M=int(M), domain=(0.0, 1.0))


def build_coordinate(d: int, domain=None) -> Dictionary:
    """Coordinate-projection dictionary f_j(x) = x_j, j = 1..d, for linear
    designs on [lo, hi]^d, ``domain = (lo, hi)`` ((0, 1) by default)."""
    if d < 2:
        raise ConfigError(f"coordinate dictionaries need d >= 2 axes, got d = {d}")
    return Dictionary(kind="coordinate", M=int(d), domain=(0.0, 1.0) if domain is None else domain)


def build_tabulated(tables: Sequence, domain=None) -> Dictionary:
    """Dictionary of tabulated 1-d functions (framework for aggregating
    arbitrary fitted estimators), completed by linear interpolation."""
    clean = tuple(
        (np.ascontiguousarray(g, dtype=float), np.ascontiguousarray(v, dtype=float))
        for g, v in tables
    )
    return Dictionary(
        kind="tabulated", M=len(clean), domain=(0.0, 1.0) if domain is None else domain,
        tables=clean,
    )


def read_numeric_csv(path):
    """Read a headered CSV of numbers into ``(names, values)``, ``values``
    a float array with one row per data row; errors as in
    :func:`_util.read_csv`."""
    names, records = read_csv(path, lambda cells: list(map(float, cells)))
    return names, np.array(records)


def load_tabulated_csv(path) -> Dictionary:
    """Load a tabulated dictionary from CSV with header ``x,f1,...,fM``.

    The domain is the x range of the table. A header whose first name is
    not ``x``, a non-numeric cell, a ragged row or a file without data
    rows raises ConfigError; the last three name ``path:line``.
    """
    names, data = read_numeric_csv(path)
    if names[0] != "x":
        raise ConfigError(f"{path}: tabulated CSV must start with header x,f1,...,fM")
    grid = data[:, 0]
    tables = [(grid, data[:, j]) for j in range(1, data.shape[1])]
    return build_tabulated(tables, domain=(grid.min(), grid.max()))


def load_points_csv(path):
    """Load design points from CSV ``x1,...,xd[,y]``.

    Returns ``(points, y)`` with ``y = None`` when no response column is
    present. ``points`` has shape (n, d). A bad header, a non-numeric cell,
    a ragged row or a file without data rows raises ConfigError; the last
    three name ``path:line``.
    """
    names, data = read_numeric_csv(path)
    has_y = names[-1] == "y"
    d = len(names) - (1 if has_y else 0)
    if d < 1 or any(names[i] != f"x{i + 1}" for i in range(d)):
        raise ConfigError(f"{path}: points CSV header must be x1,...,xd[,y]")
    return data[:, :d], (data[:, d] if has_y else None)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_out(out, shape, order: str, points=None) -> np.ndarray:
    """``out`` checked as a destination array of ``shape``.

    It must be a writeable float64 ndarray, contiguous in ``order`` ("C"
    or "F"), that shares no memory with ``points`` when they are given
    (``np.may_share_memory``); anything else raises ConfigError.
    """
    if not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and out.flags[f"{order}_CONTIGUOUS"]
        and out.flags.writeable
    ):
        raise ConfigError(f"out must be a writeable {order}-order float64 array of shape {shape}")
    if points is not None and np.may_share_memory(out, points):
        raise ConfigError("out may share memory with the points")
    return out


def _check_points(dictionary: Dictionary, points, out=None) -> np.ndarray:
    """A private column-major (n, d) copy of the points, within the domain.

    The copy is written into ``out`` when one is given (:func:`_check_out`,
    order "F"). One min/max over the copy tests the bounds; NaN
    propagates through both, so only a failed test scans for non-finite
    values (NumericError) and points outside the domain (ConfigError). A
    tabulated dictionary's functions are clamped interpolants on the whole
    line, so for it such points only warn.
    """
    if out is None:
        pts = np.array(points, dtype=float, order="F")
    else:
        pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if dictionary.d != 1:
            raise ConfigError(f"points are 1-d but the dictionary has d = {dictionary.d}")
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dictionary.d:
        raise ConfigError(
            f"points shape {pts.shape} does not match dictionary dimension d = {dictionary.d}"
        )
    if out is not None:
        np.copyto(_check_out(out, pts.shape, "F", points), pts)
        pts = out
    lo, hi = dictionary.domain
    smallest, largest = pts.min(initial=np.inf), pts.max(initial=-np.inf)
    if lo - _DOMAIN_SLACK <= smallest and largest <= hi + _DOMAIN_SLACK:
        return pts
    if not np.all(np.isfinite(pts)):
        raise NumericError("evaluation points contain non-finite values")
    if dictionary.kind != "tabulated":
        raise ConfigError("evaluation points fall outside the dictionary domain")
    warnings.warn(
        "evaluation points outside the dictionary domain were clamped",
        RuntimeWarning,
        stacklevel=3,
    )
    return pts


def _columns(dictionary: Dictionary, pts: np.ndarray):
    """Yield f_1(pts), ..., f_M(pts) of a coordinate or tabulated dictionary
    for checked points, one column at a time."""
    if dictionary.kind == "coordinate":
        yield from pts.T
    else:
        for grid, vals in dictionary.tables:
            yield np.interp(pts[:, 0], grid, vals)


def evaluate(dictionary: Dictionary, points, *, out=None) -> DesignMatrix:
    """Evaluate every dictionary function at every point.

    Entry (i, j) is f_j(x_i), stored column-major in an array that shares
    no memory with ``points``; a coordinate design is the checked copy of
    the points. Fourier columns 2k - 1 and 2k are Re and Im of
    z = sqrt(2) exp(2 pi i k x), written in place by the complex recurrence
    z <- z exp(2 pi i x), whose rounding error grows about linearly in k, to
    1.5e-12 at M = 4095. Points must lie in the dictionary domain. A
    tabulated function is its clamped interpolant on the whole domain;
    points outside the domain are clamped too, with a warning.

    ``out``, when given, is the array the entries are written into and the
    design holds: a writeable column-major (n, M) float64 array that shares
    no memory with ``points``, or ConfigError. The entries are the same
    bits as without it.
    """
    M = dictionary.M
    if dictionary.kind == "coordinate":
        pts = out = _check_points(dictionary, points, out)
    else:
        pts = _check_points(dictionary, points)
        shape = (pts.shape[0], M)
        out = np.empty(shape, order="F") if out is None else _check_out(out, shape, "F", points)
    if dictionary.kind == "tabulated":
        for j, column in enumerate(_columns(dictionary, pts)):
            out[:, j] = column
    elif dictionary.kind == "fourier":
        out[:, 0] = 1.0
        z1 = np.exp(2j * np.pi * pts[:, 0])
        z = np.sqrt(2.0) * z1
        for j in range(1, M, 2):
            out[:, j] = z.real
            if j + 1 < M:
                out[:, j + 1] = z.imag
            z *= z1
    return DesignMatrix(n=pts.shape[0], M=M, entries=out)


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
    """Values of sum_j c_j f_j at x_i = i / N, i = 0..N-1, by one real inverse FFT.

    Every frequency k of ``coef`` must be below N / 2. The real part of
    sum_k a_k exp(2 pi i k i / N) then has the Hermitian spectrum
    h_k = a_k / 2, h_{N-k} = conj(a_k) / 2, whose half m <= N / 2 is
    a_k / 2 on bins 1..K and zero elsewhere; one ``irfft`` of length N sums
    it. Only the half spectrum and the N output values are held; the
    output is scaled and shifted in place.
    """
    c0, a = _spectrum(coef)
    h = np.zeros(N // 2 + 1, dtype=complex)
    h[1 : a.size + 1] = a
    h *= 0.5
    out = np.fft.irfft(h, N)
    out *= np.sqrt(2.0) * N
    out += c0
    return out


def _fourier_sum(c0: float, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c0 + sqrt(2) Re sum_{k=1..K} a_k z^k at the points x, z = exp(2 pi i x).

    ``a[k - 1]`` holds a_k. With B = ceil(sqrt K), m = ceil(K / B) and
    w = z^B, the sum is sum_{j<m} w^j g_j with g_j = sum_{b=1..B} a_{jB+b} z^b
    (a zero-padded past K): the powers z^1..z^B come from the recurrence
    z^b = z^(b-1) z, one complex matrix product forms every g_j, and
    Horner's rule in w adds them up (Paterson and Stockmeyer's baby and
    giant steps). The rounding error grows about linearly in K, relative
    to sum_k |a_k|. The points go in chunks small enough that the B powers
    and the m group sums of a chunk hold at most FOURIER_SUM_BUDGET complex
    entries.
    """
    out = np.full(x.size, c0)
    K = a.size
    if K == 0:
        return out
    B = math.isqrt(K - 1) + 1
    m = -(-K // B)
    blocks = np.zeros((m, B), dtype=complex)
    blocks.flat[:K] = a
    chunk = max(1, min(x.size, FOURIER_SUM_BUDGET // (B + m)))
    # Powers and block sums share one work array. glibc's malloc raises its
    # mmap threshold to the largest block freed, so after the first call
    # the array comes from the heap and stays there; two smaller arrays can
    # fall under that threshold yet trim the heap on every return (about
    # 0.9 MB refaulted a call at n = 2048, K = 200).
    work = np.empty((B + m, chunk), dtype=complex)
    powers, groups = work[:B], work[B:]
    for start in range(0, x.size, chunk):
        z = np.exp(2j * np.pi * x[start : start + chunk])
        p, g = powers[:, : z.size], groups[:, : z.size]
        p[0] = z
        for b in range(1, B):
            np.multiply(p[b - 1], z, out=p[b])
        np.matmul(blocks, p, out=g)
        acc, w = g[-1], p[-1]
        for j in range(m - 2, -1, -1):
            acc *= w
            acc += g[j]
        out[start : start + chunk] += np.sqrt(2.0) * acc.real
    return out


def _check_lambda(lam, M: int) -> np.ndarray:
    """``lam`` as a float array of shape (M,) (else ConfigError) with finite
    entries (else NumericError)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (M,):
        raise ConfigError(f"coefficient vector must have shape ({M},), got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise NumericError("coefficient vector contains non-finite entries")
    return lam


def predict(dictionary: Dictionary, lam, points) -> np.ndarray:
    """Evaluate the aggregate f_lambda = sum_j lambda_j f_j at the points.

    ``lam`` must be finite (:func:`_check_lambda`). A fourier sum is
    c0 + sqrt(2) Re sum_k a_k z^k (see :func:`_spectrum`), up to the last
    nonzero coefficient, in two levels (:func:`_fourier_sum`): about sqrt K
    powers of z = exp(2 pi i x), one complex matrix product, and Horner's
    rule in z^sqrt(K). Its rounding error grows about linearly in K,
    relative to sum_j |lambda_j|, and its work arrays stay within
    FOURIER_SUM_BUDGET complex entries. Other kinds accumulate one column
    at a time, up to the last nonzero coefficient. Neither holds the n x M
    design. Points are checked as in :func:`evaluate`.
    """
    lam = _check_lambda(lam, dictionary.M)
    pts = _check_points(dictionary, points)
    if dictionary.kind == "fourier":
        return _fourier_sum(*_spectrum(lam), pts[:, 0])
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
    request for a d-dimensional grid raises ConfigError.
    """
    if dictionary.d > 1:
        raise ConfigError(
            f"grids span one axis; the {dictionary.kind} dictionary has d = {dictionary.d}"
        )
    return np.linspace(*dictionary.domain, nodes)[:, None]


def quadrature_grid(dictionary: Dictionary, measure: MeasureSpec):
    """Quadrature nodes and probability weights for population integrals.

    Composite trapezoid on G = QUADRATURE_POINTS equispaced nodes of the
    one-axis domain (:func:`_axis_grid`); a grid-density measure reweights
    the nodes by the density, and its table must span the domain: ends
    more than _DOMAIN_SLACK away from the domain's raise ConfigError. A
    fourier dictionary needs M < G - 1: beyond that, products of basis
    functions alias on the G nodes.
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
        ends, domain = grid[[0, -1]].tolist(), list(dictionary.domain)
        if max(abs(end - bound) for end, bound in zip(ends, domain)) > _DOMAIN_SLACK:
            raise ConfigError(f"density table spans {ends}, not the domain {domain}")
        w = w * np.interp(pts[:, 0], grid, density)
        w = w / w.sum()
    return pts, w


def _uniform_closed_form(dictionary: Dictionary, measure: MeasureSpec):
    """Exact ``(Psi, L0)`` under the uniform measure, or None without one.

    L0 is the largest fourth moment max_j E[f_j^4]. The fourier basis is
    orthonormal, Psi = I, and L0 = E[f_2^4] = 3/2. Coordinate dictionaries
    use the first, second and fourth moments of the uniform law on
    [lo, hi], formed on length-1 arrays: a scalar ``**`` can differ from
    numpy's array power in the last bit, and L0 keeps the array's bits.
    """
    if measure.kind != "uniform":
        return None
    if dictionary.kind == "fourier":
        return np.eye(dictionary.M), 1.5
    if dictionary.kind != "coordinate":
        return None
    a, b = np.array(dictionary.domain).reshape(2, 1)
    m1 = (a + b) / 2.0
    m2 = (a * a + a * b + b * b) / 3.0
    m4 = (a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4) / 5.0
    psi = np.full((dictionary.M, dictionary.M), m1 * m1)
    np.fill_diagonal(psi, m2)
    return psi, float(m4[0])


def _sup_norm(dictionary: Dictionary) -> float:
    """Exact L = max_j sup_x |f_j(x)| over the dictionary domain.

    sqrt(2) for fourier, the larger |bound| of the interval for
    coordinate, and for tabulated the largest |value| of the clamped
    interpolant, which peaks at a table node or at a domain end.
    """
    if dictionary.kind == "fourier":
        return float(np.sqrt(2.0))
    lo, hi = dictionary.domain
    if dictionary.kind == "coordinate":
        return max(abs(lo), abs(hi))
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _finite(value, what="population Gram, L, c0 or L0"):
    """``value``, or NumericError naming ``what`` when any of it is not finite."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"{what} is not finite")
    return value


@dataclass(frozen=True)
class PopulationConstants:
    """Psi, L, c0 and L0 of a dictionary under a design measure.

    ``psi`` is the read-only Gram of inner products <f_i, f_j>, ``L`` the
    exact max sup-norm (:func:`_sup_norm`), ``c0`` the smallest population
    norm sqrt(min_j Psi_jj), read off Psi's diagonal like every other use
    of the squared norms, and ``L0`` the largest fourth moment
    max_j E[f_j^4], which by Cauchy-Schwarz equals the largest mixed moment
    max_{i,j} E[f_i^2 f_j^2] of the lemmas; finite L and L0 and c0 > 0 are
    the boundedness conditions. :func:`population_constants` forms them.
    """

    psi: np.ndarray
    L: float
    c0: float
    L0: float


@np.errstate(over="ignore", invalid="ignore")
def _constants(dictionary: Dictionary, measure: MeasureSpec, nodes=None):
    """``(constants, design)``: the :class:`PopulationConstants` of the
    dictionary under the measure, and the dictionary on the quadrature
    ``nodes`` (points, weights) or None.

    Psi and L0 are the closed forms of :func:`_uniform_closed_form` when it
    has them. Otherwise, or when ``nodes`` are given, one design is formed
    on the nodes (:func:`quadrature_grid`'s when not given); without a
    closed form Psi is sum_i w_i f(x_i) f(x_i)^T, the exactly symmetric
    product x^T x with x = design * sqrt(w), and L0 is
    max_j sum_i w_i f_j(x_i)^4. A value that is not finite, such as a
    product that overflows, raises NumericError, and no warning.
    """
    exact = _uniform_closed_form(dictionary, measure)
    design = None
    if exact is None or nodes is not None:
        pts, w = quadrature_grid(dictionary, measure) if nodes is None else nodes
        design = evaluate(dictionary, pts).entries
    if exact is not None:
        psi, L0 = exact
    else:
        x = design * np.sqrt(w)[:, None]
        psi = x.T @ x
        x = np.multiply(design, design, out=x)  # the fourth powers, in x's buffer
        x *= x
        L0 = float((w @ x).max())
    psi = _read_only(_finite(psi))
    c0 = float(np.sqrt(max(psi.diagonal().min(), 0.0)))
    return PopulationConstants(psi, _finite(_sup_norm(dictionary)), c0, _finite(L0)), design


def population_constants(dictionary: Dictionary, measure: MeasureSpec) -> PopulationConstants:
    """The :class:`PopulationConstants` of the dictionary under the measure
    (:func:`_constants`); one that is not finite raises NumericError."""
    return _constants(dictionary, measure)[0]


def population_gram(dictionary: Dictionary, measure: MeasureSpec) -> np.ndarray:
    """Psi_M of :func:`population_constants`."""
    return population_constants(dictionary, measure).psi
