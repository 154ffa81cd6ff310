"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The slow fixtures (replicated experiment runs) are module-scoped and
shared across criteria. Criterion 11 is a soft check: an out-of-range
slope is reported for review (xfail), not treated as a defect.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from l1agg import (
    DesignMatrix,
    ExperimentConfig,
    build_fourier,
    evaluate,
    fit,
    generate,
    kappa,
    lemma_bounds,
    membership,
    penalty_weights,
    population_dist2,
    population_gram,
    rate,
    rate_slope,
    run,
    uniform_measure,
)
from l1agg.experiments import cell_context, event_diagnostics, replicate_seed
from l1agg.oracles import COHERENCE_THRESHOLD
from l1agg.solver import soft_threshold


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def independent_kkt(entries, y, lam, weights) -> float:
    """KKT violation recomputed from scratch, coordinate by coordinate."""
    n = len(y)
    resid = y - entries @ lam
    worst = 0.0
    for j in range(entries.shape[1]):
        g = float(entries[:, j] @ resid) / n
        if lam[j] == 0.0:
            viol = max(0.0, abs(g) - weights[j])
        else:
            viol = abs(g - weights[j] * math.copysign(1.0, lam[j]))
        worst = max(worst, viol)
    return worst


def binomially_consistent(failures: int, trials: int, bound: float) -> bool:
    """Observed count is not significantly above the claimed probability.

    Exact one-sided binomial test at the 5% level: consistent unless
    P(Binom(trials, bound) >= failures) < 0.05.
    """
    if failures == 0:
        return True
    return float(sps.binom.sf(failures - 1, trials, bound)) >= 0.05


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

C4_SETTINGS = dict(
    preset="fourier-L0k",
    n_values=(512, 1024, 2048, 4096, 8192),
    m_rule="fixed:25",
    k_or_beta=3,
    A=4.0,
    rate_kind="log_n",
    R=100,
    seed=20240,
    C_f=1.0,
)


@pytest.fixture(scope="module")
def c4_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("c4") / "rows.csv"
    config = ExperimentConfig(**C4_SETTINGS, out=str(out))
    rows = run(config)
    return config, rows, out


@pytest.fixture(scope="module")
def c1_fits():
    """50 fits on empirically orthonormalized designs, with closed forms."""
    rng = np.random.default_rng(101)
    records = []
    fit_seconds = 0.0
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(64, 8)))
        design = DesignMatrix(n=64, M=8, entries=q * math.sqrt(64))
        y = rng.normal(size=64)
        weights = penalty_weights(design, rate(1.0, 64, 8, "log_M"))
        start = time.perf_counter()
        result = fit(design, y, weights)
        fit_seconds += time.perf_counter() - start
        closed = soft_threshold(design.entries.T @ y / 64, weights)
        records.append((design, y, weights, result, closed))
    return records, fit_seconds


def grid_search_2d(design, y, weights, lo=-5.0, hi=5.0, step=1e-3):
    """Exhaustive objective scan over the grid, chunked along one axis."""
    n = design.n
    x1, x2 = design.entries[:, 0], design.entries[:, 1]
    q11, q22, q12 = x1 @ x1 / n, x2 @ x2 / n, x1 @ x2 / n
    b1, b2 = x1 @ y / n, x2 @ y / n
    const = y @ y / n
    grid = np.arange(lo, hi + step / 2, step)
    g1 = q11 * grid**2 - 2 * b1 * grid + 2 * weights[0] * np.abs(grid)
    g2 = q22 * grid**2 - 2 * b2 * grid + 2 * weights[1] * np.abs(grid)
    best_val, best_i, best_j = np.inf, 0, 0
    for start in range(0, grid.size, 500):
        stop = min(start + 500, grid.size)
        block = (
            g1[start:stop, None] + g2[None, :]
            + (2 * q12) * np.outer(grid[start:stop], grid)
        )
        flat = int(np.argmin(block))
        i, j = divmod(flat, grid.size)
        if block[i, j] < best_val:
            best_val, best_i, best_j = float(block[i, j]), start + i, j
    return np.array([grid[best_i], grid[best_j]]), best_val + const


@pytest.fixture(scope="module")
def c2_fits():
    """20 tiny instances with their exhaustive grid-search solutions."""
    rng = np.random.default_rng(777)
    records = []
    for _ in range(20):
        entries = rng.normal(size=(4, 2))
        design = DesignMatrix(n=4, M=2, entries=entries)
        y = entries @ np.array([1.0, -1.0]) + 0.5 * rng.normal(size=4)
        weights = penalty_weights(design, rate(0.5, 4, 2, "log_M"))
        result = fit(design, y, weights)
        lam_grid, obj_grid = grid_search_2d(design, y, weights)
        records.append((design, y, weights, result, lam_grid, obj_grid))
    return records


C6_SETTINGS = dict(
    preset="linear",
    n_values=(200,),
    m_rule="fixed:10",
    k_or_beta=3,
    A=1e-6,
    rate_kind="log_M",
    R=20,
    seed=606,
    C_f=1.0,
)


@pytest.fixture(scope="module")
def c6_fits():
    """20 noiseless exact-representation fits with full solver output."""
    config = ExperimentConfig(**C6_SETTINGS)
    ctx = cell_context(config, 0)
    pop = ctx.population
    records = []
    for rep in range(config.R):
        seed = replicate_seed(config, 0, rep)
        sample = generate(pop.dictionary, pop.truth, pop.measure, ctx.noise, ctx.n, seed)
        design = evaluate(pop.dictionary, sample.x)
        weights = penalty_weights(design, ctx.r_nM)
        result = fit(design, sample.y, weights)
        records.append((ctx, design, sample, weights, result))
    return records


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c1_soft_threshold_equivalence(c1_fits):
    records, fit_seconds = c1_fits
    worst = max(
        float(np.max(np.abs(result.lambda_hat - closed)))
        for _, _, _, result, closed in records
    )
    ok = worst <= 1e-8 and fit_seconds < 1.0
    _report(
        "C1 soft-threshold equivalence",
        ok,
        f"max coord gap {worst:.2e} <= 1e-08, fit time {fit_seconds:.3f}s < 1s",
    )
    assert worst <= 1e-8
    assert fit_seconds < 1.0


def test_c2_brute_force_equivalence(c2_fits):
    worst_coord = 0.0
    worst_obj = 0.0
    for design, y, weights, result, lam_grid, obj_grid in c2_fits:
        assert np.max(np.abs(lam_grid)) < 4.5, "grid argmin too close to the box edge"
        worst_coord = max(worst_coord, float(np.max(np.abs(result.lambda_hat - lam_grid))))
        worst_obj = max(worst_obj, abs(result.objective - obj_grid))
    ok = worst_coord <= 2e-3 and worst_obj <= 1e-5
    _report(
        "C2 brute-force equivalence",
        ok,
        f"max coord gap {worst_coord:.2e} <= 2e-03, objective gap {worst_obj:.2e} <= 1e-05",
    )
    assert worst_coord <= 2e-3
    assert worst_obj <= 1e-5


def test_c3_kkt_certificates(c1_fits, c2_fits, c6_fits, c4_experiment):
    config, rows, _ = c4_experiment
    worst = 0.0
    checked = 0
    for design, y, weights, result, _ in c1_fits[0]:
        worst = max(worst, independent_kkt(design.entries, y, result.lambda_hat, weights))
        checked += 1
    for design, y, weights, result, _, _ in c2_fits:
        worst = max(worst, independent_kkt(design.entries, y, result.lambda_hat, weights))
        checked += 1
    for ctx, design, sample, weights, result in c6_fits:
        worst = max(
            worst,
            independent_kkt(design.entries, sample.y, result.lambda_hat, weights),
        )
        checked += 1
    # A fresh batch of harness replicates, refit here and recertified.
    ctx = cell_context(config, 2)
    pop = ctx.population
    for rep in range(10):
        seed = replicate_seed(config, 2, rep)
        sample = generate(pop.dictionary, pop.truth, pop.measure, ctx.noise, ctx.n, seed)
        design = evaluate(pop.dictionary, sample.x)
        weights = penalty_weights(design, ctx.r_nM)
        result = fit(design, sample.y, weights)
        worst = max(
            worst,
            independent_kkt(design.entries, sample.y, result.lambda_hat, weights),
        )
        checked += 1
    row_worst = max(r.kkt for r in rows)
    ok = worst <= 1e-6 and row_worst <= 1e-6
    _report(
        "C3 KKT certificate",
        ok,
        f"{checked} fits recertified, max independent residual {worst:.2e}; "
        f"max harness residual {row_worst:.2e} <= 1e-06",
    )
    assert worst <= 1e-6
    assert row_worst <= 1e-6


def test_c4_sparse_risk_rate(c4_experiment):
    # Median risk should scale like k log n / n: slope ~ -1 against
    # log(n / log n).
    config, rows, _ = c4_experiment
    slope, _, stderr = rate_slope(config, rows, "risk")
    ok = -1.2 <= slope <= -0.8
    _report("C4 risk rate", ok, f"slope {slope:.4f} in [-1.2, -0.8], se {stderr:.4f}")
    assert ok


def test_c5_l1_scaling(c4_experiment):
    config, rows, _ = c4_experiment
    slope, _, stderr = rate_slope(config, rows, "l1_err")
    ok = -0.7 <= slope <= -0.3
    _report("C5 l1 rate", ok, f"slope {slope:.4f} in [-0.7, -0.3], se {stderr:.4f}")
    assert ok


def test_c6_exact_representation(c6_fits):
    worst_risk = 0.0
    recovered = True
    for ctx, design, sample, weights, result in c6_fits:
        # Penalty must sit below the smallest active gradient, so that
        # support recovery is the expected outcome at this tuning.
        grad0 = np.abs(design.entries.T @ sample.y) / design.n
        active = np.flatnonzero(ctx.lambda_star)
        assert np.max(weights[active]) < np.min(grad0[active])
        risk = population_dist2(ctx.population, result.lambda_hat)
        worst_risk = max(worst_risk, risk)
        recovered = recovered and set(active) <= set(result.support.tolist())
    ok = worst_risk <= 1e-10 and recovered
    _report(
        "C6 exact representation",
        ok,
        f"max risk {worst_risk:.2e} <= 1e-10, support recovered on all 20 seeds",
    )
    assert worst_risk <= 1e-10
    assert recovered


def test_c7_lemma_bound_domination(c4_experiment):
    config, _, _ = c4_experiment
    cell_index = config.n_values.index(4096)
    ctx = cell_context(config, cell_index)
    bound_e2 = lemma_bounds("L4", ctx.n, M=ctx.M, c0=ctx.population.c0, L=ctx.population.L)
    bound_e3 = lemma_bounds(
        "L6", ctx.n, r_nM=ctx.r_nM, m_lambda=ctx.k_star, L_lambda=ctx.L_lambda_star
    )
    assert bound_e2 < 1.0 and bound_e3 < 1.0
    seeds = [replicate_seed(config, cell_index, rep) for rep in range(500)]
    (freq_e1, freq_e2, freq_e3), _ = event_diagnostics(config, cell_index, seeds)
    fail_e2 = int(round((1.0 - freq_e2) * 500))
    fail_e3 = int(round((1.0 - freq_e3) * 500))
    ok = binomially_consistent(fail_e2, 500, bound_e2) and binomially_consistent(
        fail_e3, 500, bound_e3
    )
    _report(
        "C7 lemma bound domination",
        ok,
        f"E2 failures {fail_e2}/500 vs bound {bound_e2:.2e}; "
        f"E3 failures {fail_e3}/500 vs bound {bound_e3:.2e}",
    )
    assert ok


def test_c8_kappa_correctness():
    def bisection_oracle(psi, tol=1e-12):
        d = np.diag(np.diag(psi))
        scale = max(1.0, float(np.abs(psi).max()))

        def is_psd(k):
            return np.linalg.eigvalsh(psi - k * d)[0] >= -1e-12 * scale

        lo, hi = 0.0, 1.0
        if not is_psd(lo):
            return 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if is_psd(mid):
                lo = mid
            else:
                hi = mid
        return lo

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 51))
        b = rng.normal(size=(m + 2, m))
        psi = b.T @ b / (m + 2)
        worst = max(worst, abs(kappa(psi) - bisection_oracle(psi)))
    fourier_gap = max(
        abs(kappa(population_gram(build_fourier(m), uniform_measure())) - 1.0)
        for m in (25, 65)
    )
    ok = worst <= 1e-10 and fourier_gap <= 1e-6
    _report(
        "C8 kappa correctness",
        ok,
        f"max |eig - bisection| {worst:.2e} <= 1e-10; fourier |kappa - 1| "
        f"{fourier_gap:.2e} <= 1e-06",
    )
    assert worst <= 1e-10
    assert fourier_gap <= 1e-6


def test_c9_coherence_gate_boundary():
    ok = True
    for m in (1, 2, 4):
        rho = COHERENCE_THRESHOLD / m  # exact: division by a power of two
        at = membership(0.0, m, rho, 0.1, 1.0, 1.0)
        above = membership(0.0, m, np.nextafter(rho, 1.0), 0.1, 1.0, 1.0)
        ok = ok and at.in_coherent_oracle_set and not above.in_coherent_oracle_set
    _report(
        "C9 coherence gate",
        ok,
        "rho M(lambda) = 1/45 accepted, next representable value rejected "
        "(M(lambda) in {1, 2, 4})",
    )
    assert ok


def test_c10_reproducibility(c4_experiment, tmp_path):
    config, rows, out_path = c4_experiment
    first = out_path.read_bytes()
    rerun_path = tmp_path / "rows-again.csv"
    import dataclasses

    rows_again = run(dataclasses.replace(config, out=str(rerun_path)))
    second = rerun_path.read_bytes()
    ok = first == second
    _report(
        "C10 reproducibility",
        ok,
        f"two runs, {len(rows_again)} rows each, byte-identical CSV = {ok}",
    )
    assert ok


def test_c11_sobolev_adaptation_soft():
    config = ExperimentConfig(
        preset="fourier-sobolev",
        n_values=(512, 1024, 2048, 4096, 8192),
        m_rule="fixed:25",
        k_or_beta=1.0,
        A=4.0,
        rate_kind="log_n",
        R=100,
        seed=20241,
        C_f=1.0,
    )
    rows = run(config)
    slope, _, stderr = rate_slope(config, rows, "risk")
    ok = -0.85 <= slope <= -0.45
    _report(
        "C11 sobolev adaptation (soft)",
        ok,
        f"slope {slope:.4f} vs [-0.85, -0.45] (theory -2/3), se {stderr:.4f}",
    )
    if not ok:
        pytest.xfail(
            f"soft criterion: slope {slope:.4f} outside [-0.85, -0.45]; "
            "flagged for review, not a rejection"
        )
