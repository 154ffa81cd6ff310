"""Monte Carlo harness: synthetic data, replicated fits, rate verification.

A single :class:`ExperimentConfig` describes a preset truth, a grid of
sample sizes, a dictionary-size rule, the penalty tuning, and a replicate
count. :func:`run` produces one :class:`ExperimentRow` per replicate;
:func:`summarize`, :func:`rate_slope` and :func:`bound_check` turn rows
into the rate and bound-verification tables.

Reproducibility contract: every replicate owns the seed

    seed + 1_000_000 * cell_index + replicate_index

(cells enumerate the n-grid in order), so any row can be recomputed in
isolation with :func:`run_single`. The CSV artifact is byte-identical
across reruns of the same config; to keep it so, the volatile
``runtime_ms`` column is zeroed on disk (measured values stay on the
in-memory rows).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from ._util import _integral, atomic_write_text, csv_text, parse_value, read_csv, read_key_values
from .dictionary import (
    Dictionary,
    MeasureSpec,
    build_coordinate,
    build_fourier,
    evaluate,
    uniform_measure,
    _check_out,
)
from .errors import ConfigError, ConvergenceError, UnsupportedOperationError
from .gram import kappa
from .oracles import (
    BoundConstants,
    PopulationProblem,
    TruthSpec,
    evaluate_truth,
    event_flags,
    l0k_truth,
    linear_truth,
    oracle_scan,
    population_dist2,
    population_problem,
    sobolev_truth,
    sparsity,
    sup_norm_error,
    theorem_rhs,
)
from .solver import DEFAULT_TOL, fit, penalty_weights, rate
from .tails import lemma_bounds

PRESETS = ("linear", "fourier-L0k", "fourier-sobolev")
SEED_CELL_STRIDE = 1_000_000


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Noise W uniform on [-a, a] (none when a = 0), with its exact moment
    bound b = E exp|W|."""

    a: float
    b: float


def noise_bounded_uniform(a: float = 1.0) -> NoiseModel:
    """W uniform on [-a, a]; E exp|W| = (e^a - 1) / a, or 1 when a = 0."""
    if not (0 <= a < math.inf):
        raise ConfigError(f"uniform noise amplitude must be finite and nonnegative, got {a}")
    with np.errstate(over="ignore"):
        b = 1.0 if a == 0.0 else float(np.expm1(a) / a)
    if b == math.inf:
        raise ConfigError(f"uniform noise amplitude {a} overflows E exp|W| = (e^a - 1) / a")
    return NoiseModel(a=float(a), b=b)


def sample_noise(noise: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n noise draws; zero amplitude returns zeros without drawing."""
    if noise.a == 0.0:
        return np.zeros(n)
    return rng.uniform(-noise.a, noise.a, n)


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """Simulated design points X_i, responses Y_i = f(X_i) + W_i, and the
    truth values f(X_i) and noise W_i behind them."""

    x: np.ndarray
    y: np.ndarray
    f_values: np.ndarray
    w: np.ndarray


def generate(
    dictionary: Dictionary,
    truth: TruthSpec,
    measure: MeasureSpec,
    noise: NoiseModel,
    n: int,
    seed: int,
    *,
    out=None,
) -> Sample:
    """Draw X_i iid uniform on the dictionary domain and Y_i = f(X_i) + W_i.

    Deterministic given the seed: the design is drawn first, then the
    noise, from one ``default_rng(seed)`` stream. The design is
    ``low + (high - low) * rng.random((n, d))``, bit for bit the draw of
    ``rng.uniform(low, high, (n, d))`` without its broadcasting path; a
    domain whose width overflows raises ConfigError. Only the uniform
    measure is drawn from: a grid-density measure raises
    UnsupportedOperationError.

    ``out``, when given, is the array the design is drawn into and the
    sample's ``x``: a writeable C-order (n, d) float64 array, or
    ShapeError. The sample is the same bits as without it.
    """
    if n < 1:
        raise ConfigError("need n >= 1 samples")
    if measure.kind != "uniform":
        raise UnsupportedOperationError(f"designs are drawn uniformly, not from {measure.kind}")
    if out is not None:
        _check_out(out, (n, dictionary.d), "C")
    rng = np.random.default_rng(seed)
    box = dictionary.domain
    with np.errstate(over="ignore"):
        width = box[:, 1] - box[:, 0]
    if not np.all(np.isfinite(width)):
        raise ConfigError(f"domain {box.tolist()} is too wide to draw from")
    x = rng.random((n, dictionary.d)) if out is None else rng.random(out=out)
    x *= width
    x += box[:, 0]
    f_values = evaluate_truth(truth, x)
    w = sample_noise(noise, n, rng)
    return Sample(x=x, y=f_values + w, f_values=f_values, w=w)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: preset truth, n-grid, M rule, tuning, replicates.

    ``m_rule`` is ``fixed:<M>`` or ``power:<s>`` (M = floor(n^s), at least
    2, matching the dictionary-growth regime M <= n^s). ``k_or_beta`` is
    the sparsity level k for the linear / fourier-L0k presets and the
    smoothness index beta for fourier-sobolev.
    """

    preset: str
    n_values: tuple[int, ...]
    m_rule: str
    k_or_beta: float
    A: float
    rate_kind: str
    R: int
    seed: int
    C_f: float = 1.0
    out: str | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        for name, values in (("n_values", self.n_values), ("R", [self.R]), ("seed", [self.seed])):
            if not all(map(_integral, values)):
                raise ConfigError(f"{name} must be integral, got {getattr(self, name)}")
        n_values = tuple(int(n) for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "R", int(self.R))
        object.__setattr__(self, "seed", int(self.seed))
        if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ConfigError("n_values must be a nonempty strictly increasing grid")
        if min(n_values) < 2:
            raise ConfigError("n_values entries must be >= 2")
        # Evaluated at every n, so that a rule that overflows fails here.
        list(map(_parse_m_rule(self.m_rule), n_values))
        for name in ("A", "C_f", "k_or_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.A <= 0:
            raise ConfigError("tuning constant A must be positive")
        if self.rate_kind not in ("log_M", "log_n"):
            raise ConfigError("rate_kind must be log_M or log_n")
        if self.R < 1:
            raise ConfigError("replicate count R must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.preset != "linear" and self.R < 30:
            raise ConfigError("rate presets need R >= 30 replicates")
        if self.C_f < 0:
            raise ConfigError("C_f must be nonnegative")
        if self.preset in ("linear", "fourier-L0k"):
            k = self.k_or_beta
            if k != int(k) or k < 0:
                raise ConfigError("k must be a nonnegative integer for this preset")


def _parse_m_rule(rule: str):
    try:
        kind, value = rule.split(":", 1)
    except ValueError:
        raise ConfigError(f"m_rule {rule!r} must look like fixed:<M> or power:<s>") from None
    if kind == "fixed":
        m = parse_value(value, int, f"m_rule {rule!r}")
        if m < 2:
            raise ConfigError("fixed dictionary size must be >= 2")
        return lambda n: m
    if kind == "power":
        s = parse_value(value, float, f"m_rule {rule!r}")
        if not (math.isfinite(s) and s > 0):
            raise ConfigError(f"power m_rule needs a finite positive exponent, got {s}")

        def m_of(n):
            try:
                return max(2, int(math.floor(n**s)))
            except OverflowError:
                raise ConfigError(f"m_rule {rule!r} overflows at n = {n}") from None

        return m_of
    raise ConfigError(f"unknown m_rule kind {kind!r}")


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, found {text!r}")
    return text == "1"


# How a text field becomes a value, keyed by the field's annotation; the
# config file and the rows CSV both read their dataclass fields this way.
_PARSERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _flag,
    "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split(",")),
}


def load_config(path) -> ExperimentConfig:
    """Parse a line-oriented ``key = value`` config file.

    Keys are exactly the ExperimentConfig fields, each read as its annotated
    type (lists comma-separated); only the optional ``out`` may be left out.
    Errors are ConfigErrors naming ``path:line``, or ``path`` for a config
    that fails validation.
    """
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for key, (line, text) in read_key_values(path).items():
        if key not in types:
            raise ConfigError(f"{path}:{line}: unknown config key {key!r}")
        values[key] = parse_value(text, _PARSERS[types[key]], f"{path}:{line}: {key}")
    missing = [k for k, t in types.items() if k not in values and not t.endswith("| None")]
    if missing:
        raise ConfigError(f"{path}: missing config keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Preset truths
# ---------------------------------------------------------------------------


def _linear_pattern(M: int, k: int) -> np.ndarray:
    """k nonzero coordinate coefficients k, k-1, ..., 1 spread across M."""
    if not 0 <= k <= M:
        raise ConfigError("need 0 <= k <= M")
    coeffs = np.zeros(M)
    if k == 1:
        coeffs[0] = 1.0
        return coeffs
    for rank in range(k):
        coeffs[int(round(rank * (M - 1) / (k - 1)))] = float(k - rank)
    return coeffs


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellContext:
    """Everything replicate-independent about one (n, M) grid cell.

    ``population`` is the cell's :class:`PopulationProblem`: its dictionary,
    measure and truth, Psi, c0, L and L0. :func:`cell_context` caches
    contexts, so ``lambda_star`` and the arrays of ``population`` are
    read-only: a write raises ValueError instead of changing later runs.
    """

    cell_index: int
    n: int
    M: int
    population: PopulationProblem
    noise: NoiseModel
    r_nM: float
    lambda_star: np.ndarray
    k_star: int
    dist2_star: float
    L_lambda_star: float
    kappa_M: float
    rhs_t21_risk: float
    rhs_t21_l1: float
    regime_ok: bool


def _preset_pair(preset: str, k_or_beta: float, M: int) -> tuple[Dictionary, TruthSpec]:
    """A preset's M-term dictionary and its truth."""
    if preset == "linear":
        truth = linear_truth(_linear_pattern(M, int(k_or_beta)))
        return build_coordinate(M, domain=[-1.0, 1.0]), truth
    if preset == "fourier-L0k":
        return build_fourier(M), l0k_truth(int(k_or_beta))
    return build_fourier(M), sobolev_truth(float(k_or_beta))


@functools.lru_cache(maxsize=128)
def _oracle_sup_norm(preset: str, k_or_beta: float, M: int, lambda_bytes: bytes) -> float:
    """L(lambda*) = ||f - f_lambda*||_inf for a preset's truth, its M-term
    dictionary and the oracle ``np.frombuffer(lambda_bytes)``.

    The value does not depend on n, so the cells of a grid that share M
    and the oracle share one :func:`sup_norm_error` scan, called through
    its module-level name.
    """
    dictionary, truth = _preset_pair(preset, k_or_beta, M)
    return sup_norm_error(dictionary, truth, np.frombuffer(lambda_bytes))


@functools.lru_cache(maxsize=128)
def cell_context(config: ExperimentConfig, cell_index: int) -> CellContext:
    """The context of grid cell ``cell_index``, 0-based, or ConfigError for
    an index outside the n-grid."""
    if not 0 <= cell_index < len(config.n_values):
        raise ConfigError("cell_index out of range")
    m_of = _parse_m_rule(config.m_rule)
    n = config.n_values[cell_index]
    M = m_of(n)
    r_nM = rate(config.A, n, M, config.rate_kind)

    dictionary, truth = _preset_pair(config.preset, config.k_or_beta, M)
    noise = noise_bounded_uniform(0.0 if config.preset == "linear" else 1.0)
    problem = population_problem(dictionary, uniform_measure(), truth)
    if config.preset == "linear":
        lambda_star, dist2_star, oracle_found = truth.theta.copy(), 0.0, True
    else:
        # With the oracle set empty at this resolution the scan's last
        # vector (the whole truncated truth) keeps rows computable; the
        # cell stays out of the slope-eligible regime.
        lambda_star, dist2_star, _, oracle_found = oracle_scan(problem, r_nM, config.C_f)
    _, k_star = sparsity(lambda_star)
    # Exact representation has L(lambda*) = 0; only a residual needs a grid scan.
    l_lambda = 0.0 if dist2_star == 0.0 else _oracle_sup_norm(
        config.preset, config.k_or_beta, M, lambda_star.tobytes()
    )

    kappa_m = kappa(problem.psi)
    regime_ok = oracle_found and (k_star == 0 or n / (k_star * k_star * math.log(M)) >= 1.0)
    for shared in (lambda_star, truth.theta, dictionary.domain):
        shared.flags.writeable = False
    return CellContext(
        cell_index=cell_index,
        n=n,
        M=M,
        population=problem,
        noise=noise,
        r_nM=r_nM,
        lambda_star=lambda_star,
        k_star=k_star,
        dist2_star=dist2_star,
        L_lambda_star=l_lambda,
        kappa_M=kappa_m,
        rhs_t21_risk=theorem_rhs("t21_risk", BoundConstants(), r_nM, k_star, kappa_m),
        rhs_t21_l1=theorem_rhs("t21_l1", BoundConstants(), r_nM, k_star, kappa_m),
        regime_ok=regime_ok,
    )


def replicate_seed(config: ExperimentConfig, cell_index: int, rep: int) -> int:
    return config.seed + SEED_CELL_STRIDE * cell_index + rep


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    """One replicate's record. ``converged`` (the solver's flag) is in-memory
    only; rows read back from CSV carry ``converged=None``."""

    preset: str
    n: int
    M: int
    k_or_beta: float
    A: float
    rep: int
    seed: int
    risk: float
    l1_err: float
    m_hat: int
    kkt: float
    e1: bool
    e2: bool
    e3: bool
    rhs_t21_risk: float
    rhs_t21_l1: float
    runtime_ms: float
    converged: bool | None = True

    @property
    def nonconverged(self) -> bool:
        """The KKT residual exceeds 1e3 times the default tolerance, an
        absolute bound of the rows' own (``fit``'s is scaled); read from
        ``kkt`` alone, so CSV rows agree."""
        return self.kkt > 1e3 * DEFAULT_TOL


# The rows CSV columns: every ExperimentRow field but ``converged``.
_ROW_FIELDS = [f for f in dataclasses.fields(ExperimentRow) if f.name != "converged"]
CSV_HEADER = ",".join(f.name for f in _ROW_FIELDS)


def _cell_buffers(ctx: CellContext) -> tuple[np.ndarray, np.ndarray]:
    """A draw array and a design array for the replicates of one cell: the
    C-order (n, d) ``out`` of :func:`generate` and the column-major (n, M)
    ``out`` of :func:`evaluate`.

    Each replicate overwrites both, so nothing may keep a replicate's
    sample or design past the next draw. Reusing them spares every
    replicate but the first the page faults of fresh arrays.
    """
    return np.empty((ctx.n, ctx.population.dictionary.d)), np.empty((ctx.n, ctx.M), order="F")


def _draw(ctx: CellContext, seed: int, buffers=(None, None)):
    """One replicate's sample, its evaluated design, the penalty weights at
    the cell's rate ctx.r_nM, and the good-event indicators of the sample
    against the cell's oracle.

    ``buffers`` are the ``out`` arrays of :func:`generate` and
    :func:`evaluate` (:func:`_cell_buffers`), or None for fresh arrays.
    """
    x_out, design_out = buffers
    pop = ctx.population
    sample = generate(pop.dictionary, pop.truth, pop.measure, ctx.noise, ctx.n, seed, out=x_out)
    design = evaluate(pop.dictionary, sample.x, out=design_out)
    weights = penalty_weights(design, ctx.r_nM)
    flags = event_flags(
        design,
        sample.w,
        weights,
        pop.psi.diagonal(),
        design.entries @ ctx.lambda_star - sample.f_values,
        ctx.dist2_star,
        ctx.r_nM,
        ctx.k_star,
    )
    return sample, design, weights, flags


def _run_replicate(
    config: ExperimentConfig, ctx: CellContext, rep: int, buffers=(None, None)
) -> ExperimentRow:
    seed = replicate_seed(config, ctx.cell_index, rep)
    start = time.perf_counter()
    sample, design, weights, flags = _draw(ctx, seed, buffers)
    try:
        result = fit(design, sample.y, weights)
    except ConvergenceError as exc:
        result = exc.partial_fit
    risk = population_dist2(ctx.population, result.lambda_hat)
    l1_err = float(np.abs(result.lambda_hat - ctx.lambda_star).sum())
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentRow(
        preset=config.preset,
        n=ctx.n,
        M=ctx.M,
        k_or_beta=float(config.k_or_beta),
        A=float(config.A),
        rep=rep,
        seed=seed,
        risk=risk,
        l1_err=l1_err,
        m_hat=result.m_hat,
        kkt=result.kkt_residual,
        e1=flags.e1,
        e2=flags.e2,
        e3=flags.e3,
        rhs_t21_risk=ctx.rhs_t21_risk,
        rhs_t21_l1=ctx.rhs_t21_l1,
        runtime_ms=runtime_ms,
        converged=result.converged,
    )


def run(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the full replicate grid in deterministic (cell, rep) order.

    Writes the CSV artifact when ``config.out`` is set. Non-convergent
    replicates are recorded in-row, never fatal. The replicates of a cell
    share one pair of draw and design arrays (:func:`_cell_buffers`).
    """
    rows = []
    for cell_index in range(len(config.n_values)):
        ctx = cell_context(config, cell_index)
        buffers = _cell_buffers(ctx)
        for rep in range(config.R):
            rows.append(_run_replicate(config, ctx, rep, buffers))
    if config.out:
        write_rows_csv(config.out, rows)
    return rows


def run_single(config: ExperimentConfig, cell_index: int, rep: int) -> ExperimentRow:
    """Recompute one replicate in isolation (same seed-splitting rule)."""
    ctx = cell_context(config, cell_index)
    if not 0 <= rep < config.R:
        raise ConfigError("replicate index out of range")
    return _run_replicate(config, ctx, rep)


def rows_csv_text(rows) -> str:
    """Render rows as CSV. ``runtime_ms`` is zeroed so that identical
    configs produce byte-identical artifacts."""
    return csv_text(
        CSV_HEADER.split(","),
        (
            [0.0 if f.name == "runtime_ms" else getattr(row, f.name) for f in _ROW_FIELDS]
            for row in rows
        ),
    )


def write_rows_csv(path, rows) -> None:
    atomic_write_text(path, rows_csv_text(rows))


def read_rows_csv(path) -> list[ExperimentRow]:
    """Read a rows CSV back; the rows carry ``converged=None``.

    Raises ShapeError for a header other than :data:`CSV_HEADER`, and
    naming ``path:line`` for a ragged row or a cell that does not parse as
    its column's type.
    """
    parsers = [_PARSERS[f.type] for f in _ROW_FIELDS]
    _, rows = read_csv(
        path,
        lambda cells: ExperimentRow(
            *(parse(cell) for parse, cell in zip(parsers, cells)), converged=None
        ),
        header=CSV_HEADER.split(","),
    )
    return rows


# ---------------------------------------------------------------------------
# Summaries, slopes, bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSummary:
    preset: str
    n: int
    M: int
    k_or_beta: float
    A: float
    reps: int
    median_risk: float
    median_l1_err: float
    freq_e1: float
    freq_e2: float
    freq_e3: float
    frac_nonconverged: float
    valid: bool
    regime_ok: bool
    k_star: int
    r_nM: float


def _rows_by_cell(config: ExperimentConfig, rows) -> list[list[ExperimentRow]]:
    """Each cell's rows in replicate order. Row ``rep`` of cell ``c`` has the
    config's preset, k_or_beta, A, n and M for ``c``, the seed
    ``replicate_seed(config, c, rep)``, and the right-hand sides
    ``rhs_t21_risk`` and ``rhs_t21_l1`` of ``cell_context(config, c)``,
    which differ for rows from another rate_kind or C_f unless k* = 0.
    Raises ConfigError for a row that matches no cell, a (cell, rep) given
    twice, or a cell without R rows."""
    cells = [[None] * config.R for _ in config.n_values]
    for row in rows:
        cell, rep = divmod(row.seed - config.seed, SEED_CELL_STRIDE)  # inverts replicate_seed
        ctx = cell_context(config, cell) if 0 <= cell < len(cells) and rep < config.R else None
        if ctx is None or (
            row.preset, row.k_or_beta, row.A, row.n, row.M, row.rep,
            row.rhs_t21_risk, row.rhs_t21_l1,
        ) != (
            config.preset, config.k_or_beta, config.A, ctx.n, ctx.M, rep,
            ctx.rhs_t21_risk, ctx.rhs_t21_l1,
        ):
            raise ConfigError(f"row n = {row.n}, seed = {row.seed} is not from this config")
        if cells[cell][rep] is not None:
            raise ConfigError(f"two rows for cell n = {ctx.n}, rep = {rep}")
        cells[cell][rep] = row
    for n, reps in zip(config.n_values, cells):
        if None in reps:
            present = config.R - reps.count(None)
            raise ConfigError(f"cell n = {n} has {present} rows, not R = {config.R}")
    return cells


def _median(values) -> float:
    """The median as ``np.median`` takes it, bit for bit: the middle value,
    or the mean (a + b) / 2 of the two middle ones, and NaN when any value
    is NaN. ``np.median`` would import ``numpy.ma`` into every process
    that summarizes."""
    v = sorted(values)
    if any(math.isnan(x) for x in v):
        return math.nan
    m = len(v) // 2
    return float(v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2)


def summarize(config: ExperimentConfig, rows) -> list[CellSummary]:
    """Per-cell medians, event frequencies, and validity/regime flags.

    Rows must be exactly the config's replicates (:func:`_rows_by_cell`).
    Cells with more than 20% ``nonconverged`` replicates are flagged
    invalid; cells outside the dictionary-growth regime
    n / (k*^2 log M) >= 1 are flagged for exclusion from slope fits.
    """
    out = []
    for cell_index, cell_rows in enumerate(_rows_by_cell(config, rows)):
        ctx = cell_context(config, cell_index)
        nonconv = np.mean([r.nonconverged for r in cell_rows])
        out.append(
            CellSummary(
                preset=config.preset,
                n=ctx.n,
                M=ctx.M,
                k_or_beta=float(config.k_or_beta),
                A=float(config.A),
                reps=len(cell_rows),
                median_risk=_median(r.risk for r in cell_rows),
                median_l1_err=_median(r.l1_err for r in cell_rows),
                freq_e1=float(np.mean([r.e1 for r in cell_rows])),
                freq_e2=float(np.mean([r.e2 for r in cell_rows])),
                freq_e3=float(np.mean([r.e3 for r in cell_rows])),
                frac_nonconverged=float(nonconv),
                valid=bool(nonconv <= 0.2),
                regime_ok=ctx.regime_ok,
                k_star=ctx.k_star,
                r_nM=ctx.r_nM,
            )
        )
    return out


def summary_csv_text(summaries) -> str:
    """Render summaries as CSV, one column per CellSummary field."""
    return csv_text(
        [f.name for f in dataclasses.fields(CellSummary)],
        map(dataclasses.astuple, summaries),
    )


def _ols_line(x, y) -> tuple[float, float, float]:
    """Least squares line through (x, y): (slope, intercept, slope stderr)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ConfigError("a least squares line needs matching 1-d arrays with >= 2 points")
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx <= 0:
        raise ConfigError("degenerate x spread")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return slope, intercept, stderr


def rate_slope(config: ExperimentConfig, rows, y_field: str = "risk"):
    """Slope of log median error against log(n / log n).

    Uses only valid, in-regime cells; requires >= 4 grid points with
    >= 30 replicates each.
    """
    if y_field not in ("risk", "l1_err"):
        raise ConfigError("y_field must be 'risk' or 'l1_err'")
    cells = [s for s in summarize(config, rows) if s.valid and s.regime_ok]
    if any(s.reps < 30 for s in cells):
        raise ConfigError("rate slopes need >= 30 replicates per cell")
    if len(cells) < 4:
        raise ConfigError("rate slopes need >= 4 usable grid cells")
    x = np.array([math.log(s.n / math.log(s.n)) for s in cells])
    med = np.array(
        [s.median_risk if y_field == "risk" else s.median_l1_err for s in cells]
    )
    if np.any(med <= 0):
        raise ConfigError("median errors must be positive to take logs")
    return _ols_line(x, np.log(med))


@dataclass(frozen=True)
class BoundCheckCell:
    """Per-cell bound verification: fraction of replicates within the
    right-hand side versus the tail-probability floor."""

    n: int
    M: int
    kind: str
    scale: float
    rhs: float
    fraction: float
    prob_floor: float
    satisfied: bool
    fitted: bool


def cell_tail_floor(ctx: CellContext, C_f: float) -> float:
    """1 - (L5 + L6, plus L7 when k* >= 1), clamped to [0, 1]."""
    pop = ctx.population
    params = dict(
        M=ctx.M, r_nM=ctx.r_nM, b=ctx.noise.b, c0=pop.c0, L=pop.L, L0=pop.L0,
        kappa_M=ctx.kappa_M, C_f=C_f, m_lambda=ctx.k_star, L_lambda=ctx.L_lambda_star,
    )
    lemmas = ("L5", "L6", "L7") if ctx.k_star >= 1 else ("L5", "L6")
    total = sum(lemma_bounds(which, ctx.n, **params) for which in lemmas)
    return max(0.0, 1.0 - min(1.0, total))


def bound_check(
    config: ExperimentConfig,
    rows,
    kind: str = "t21_risk",
    constants: BoundConstants | None = None,
    fit_scale: bool = False,
) -> list[BoundCheckCell]:
    """Check risk / l1 bounds per cell.

    With ``constants`` given, the RHS is B1 (risk) or B2 (l1) times the
    unit-constant RHS recorded on the rows. With ``fit_scale`` the scale
    is instead fitted as the smallest value covering the first half of
    the replicates and evaluated on the held-out second half.
    """
    if kind not in ("t21_risk", "t21_l1"):
        raise ConfigError("bound_check supports kinds t21_risk and t21_l1")
    if not fit_scale and constants is None:
        raise ConfigError("bound_check needs constants unless fit_scale is set")
    out = []
    for cell_index, cell_rows in enumerate(_rows_by_cell(config, rows)):
        ctx = cell_context(config, cell_index)
        base = ctx.rhs_t21_risk if kind == "t21_risk" else ctx.rhs_t21_l1
        values = np.array(
            [r.risk if kind == "t21_risk" else r.l1_err for r in cell_rows]
        )
        if fit_scale:
            half = len(cell_rows) // 2
            train, test = values[:half], values[half:]
            if train.size == 0 or test.size == 0:
                raise ConfigError("fit mode needs at least 2 replicates per cell")
            scale = float(np.max(train) / base) if base > 0 else math.inf
            values = test
        else:
            scale = constants.B1 if kind == "t21_risk" else constants.B2
        # A unit RHS of 0 (k* = 0) gives an RHS of 0 at any scale, inf included.
        rhs = scale * base if base > 0 else 0.0
        fraction = float(np.mean(values <= rhs))
        floor = cell_tail_floor(ctx, config.C_f)
        out.append(
            BoundCheckCell(
                n=ctx.n,
                M=ctx.M,
                kind=kind,
                scale=scale,
                rhs=rhs,
                fraction=fraction,
                prob_floor=floor,
                satisfied=bool(fraction >= floor),
                fitted=fit_scale,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Event diagnostics
# ---------------------------------------------------------------------------


def event_diagnostics(config: ExperimentConfig, cell_index: int, seeds):
    """Monte Carlo frequencies of the good events over explicit seeds.

    Each seed's sample is checked against the cell's oracle with the
    penalty weights of the cell's rate. Returns
    ``((freq_e1, freq_e2, freq_e3), flags)``. Cheaper than :func:`run`
    when only event frequencies are needed (no fits).
    """
    ctx = cell_context(config, cell_index)
    buffers = _cell_buffers(ctx)
    flags = [_draw(ctx, s, buffers)[3] for s in seeds]
    if not flags:
        raise ConfigError("event diagnostics need at least one seed")
    return tuple(np.mean([dataclasses.astuple(f) for f in flags], axis=0).tolist()), flags
