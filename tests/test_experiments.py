"""Noise models, generation, the replicated harness, slopes, bound checks."""

import math

import numpy as np
import pytest

from l1agg import (
    BoundConstants,
    ConfigError,
    ExperimentConfig,
    UnsupportedOperationError,
    bound_check,
    build_fourier,
    evaluate,
    fit,
    generate,
    l0k_truth,
    linear_pattern,
    load_config,
    noise_bounded_uniform,
    noise_laplace,
    noise_rademacher,
    noise_truncated_gaussian,
    noiseless,
    ols_line,
    penalty_config,
    rate_slope,
    read_rows_csv,
    run,
    run_single,
    sobolev_truth,
    summarize,
    uniform_measure,
    write_rows_csv,
)
from l1agg.experiments import (
    cell_context,
    replicate_seed,
    rows_csv_text,
    sample_event_flags,
    observed_sample,
    sample_noise,
)


def tiny_config(**overrides):
    base = dict(
        preset="fourier-L0k",
        n_values=(64, 128),
        m_rule="fixed:10",
        k_or_beta=3,
        A=2.0,
        rate_kind="log_n",
        R=30,
        seed=11,
        C_f=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNoiseModels:
    def test_uniform_moment_bound(self):
        # Monte Carlo oracle for E exp|W|, W ~ U[-1, 1]: the analytic
        # value is (e - 1) / 1 = e - 1.
        noise = noise_bounded_uniform(1.0)
        assert noise.b == pytest.approx(math.e - 1.0, rel=1e-12)
        rng = np.random.default_rng(0)
        w = sample_noise(noise, 1_000_000, rng)
        assert abs(w.mean()) < 0.005
        assert np.exp(np.abs(w)).mean() == pytest.approx(noise.b, rel=0.01)

    def test_rademacher(self):
        noise = noise_rademacher(0.7)
        assert noise.b == pytest.approx(math.exp(0.7))
        w = sample_noise(noise, 100_000, np.random.default_rng(1))
        assert set(np.unique(w)) == {-0.7, 0.7}
        assert abs(w.mean()) < 0.01

    def test_truncated_gaussian(self):
        noise = noise_truncated_gaussian(sigma=0.5, c=1.5)
        w = sample_noise(noise, 200_000, np.random.default_rng(2))
        assert np.max(np.abs(w)) <= 1.5
        assert np.exp(np.abs(w)).mean() == pytest.approx(noise.b, rel=0.01)

    def test_laplace(self):
        noise = noise_laplace(0.4)
        assert noise.b == pytest.approx(1.0 / 0.6)
        w = sample_noise(noise, 2_000_000, np.random.default_rng(3))
        assert np.exp(np.abs(w)).mean() == pytest.approx(noise.b, rel=0.02)

    def test_laplace_divergent_scale_rejected(self):
        with pytest.raises(ConfigError):
            noise_laplace(1.0)


class TestGenerate:
    def test_noiseless(self):
        d = build_fourier(5)
        truth = l0k_truth(2)
        sample = generate(d, truth, uniform_measure(), noiseless(), 50, seed=4)
        np.testing.assert_array_equal(sample.y, sample.f_values)
        np.testing.assert_array_equal(sample.w, 0.0)

    def test_same_seed_bit_identical(self):
        d = build_fourier(5)
        truth = l0k_truth(2)
        a = generate(d, truth, uniform_measure(), noise_bounded_uniform(1.0), 100, 7)
        b = generate(d, truth, uniform_measure(), noise_bounded_uniform(1.0), 100, 7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_points_in_domain(self):
        d = build_fourier(3)
        sample = generate(d, l0k_truth(1), uniform_measure(), noiseless(), 1000, 0)
        assert sample.x.min() >= 0.0 and sample.x.max() <= 1.0


class TestPresetTruths:
    def test_l0k_pattern(self):
        truth = l0k_truth(3)
        nz = np.flatnonzero(truth.theta)
        np.testing.assert_array_equal(nz, [1, 3, 6])  # 1-based indices 2, 4, 7
        np.testing.assert_array_equal(truth.theta[nz], [3.0, 2.0, 1.0])

    def test_l0k_zero(self):
        truth = l0k_truth(0)
        assert np.count_nonzero(truth.theta) == 0

    def test_sobolev_decay_and_budget(self):
        truth = sobolev_truth(1.0)
        theta = truth.theta
        assert theta[0] == pytest.approx(1.0)
        assert theta[1] == pytest.approx(-(2.0 ** -1.6))
        beta, Q = truth.sobolev
        j = np.arange(1, theta.size + 1)
        assert np.sum(j ** (2 * beta) * theta**2) <= Q

    def test_linear_pattern(self):
        coeffs = linear_pattern(10, 3)
        nz = np.flatnonzero(coeffs)
        assert 0 in nz and 9 in nz and len(nz) == 3
        assert coeffs[0] == 3.0


class TestRun:
    def test_rows_shape_and_determinism(self, tmp_path):
        cfg = tiny_config(out=str(tmp_path / "rows.csv"))
        rows = run(cfg)
        assert len(rows) == 2 * 30
        text_a = (tmp_path / "rows.csv").read_bytes()
        run(cfg)
        text_b = (tmp_path / "rows.csv").read_bytes()
        assert text_a == text_b

    def test_seed_rule(self):
        cfg = tiny_config()
        assert replicate_seed(cfg, 0, 0) == 11
        assert replicate_seed(cfg, 1, 4) == 11 + 1_000_000 + 4

    def test_row_isolation(self):
        cfg = tiny_config()
        rows = run(cfg)
        probe = rows[37]
        cell, rep = divmod(37, cfg.R)
        alone = run_single(cfg, cell, rep)
        assert alone.seed == probe.seed
        assert alone.risk == probe.risk
        assert alone.l1_err == probe.l1_err
        assert alone.m_hat == probe.m_hat

    def test_csv_roundtrip(self, tmp_path):
        cfg = tiny_config()
        rows = run(cfg)
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows)
        back = read_rows_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.seed == b.seed
            assert a.risk == b.risk  # repr round-trips exactly
            assert a.e2 == b.e2
            assert b.converged is None
            assert b.runtime_ms == 0.0

    def test_zero_truth_large_penalty(self):
        cfg = tiny_config(k_or_beta=0, A=8.0)
        rows = run(cfg)
        median_risk = np.median([r.risk for r in rows])
        assert median_risk <= 1e-20
        assert all(r.m_hat == 0 for r in rows)

    def test_linear_noiseless_cells(self):
        cfg = ExperimentConfig(
            preset="linear",
            n_values=(64, 128),
            m_rule="fixed:6",
            k_or_beta=3,
            A=1e-5,
            rate_kind="log_M",
            R=5,
            seed=3,
        )
        rows = run(cfg)
        assert all(r.risk < 1e-8 for r in rows)
        assert all(r.e1 and r.e3 for r in rows)

    def test_exact_cell_skips_sup_norm_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("sup-norm scan run for an exactly represented truth")

        monkeypatch.setattr("l1agg.experiments.sup_norm_error", scan)
        ctx = cell_context(tiny_config(n_values=(96,), seed=41), 0)
        assert ctx.k_star == 3
        assert ctx.dist2_star == 0.0 and ctx.L_lambda_star == 0.0

    def test_linear_full_support_matches_least_squares(self):
        # Noiseless M = k exact representation: the fit approaches the
        # ordinary least squares solution (= the truth) as A shrinks.
        cfg = ExperimentConfig(
            preset="linear",
            n_values=(128,),
            m_rule="fixed:4",
            k_or_beta=4,
            A=1e-7,
            rate_kind="log_M",
            R=3,
            seed=9,
        )
        ctx = cell_context(cfg, 0)
        for rep in range(cfg.R):
            seed = replicate_seed(cfg, 0, rep)
            from l1agg import evaluate, fit, generate, penalty_config

            sample = generate(
                ctx.dictionary, ctx.truth, ctx.measure, ctx.noise, ctx.n, seed
            )
            design = evaluate(ctx.dictionary, sample.x)
            result = fit(design, sample.y, penalty_config(design, cfg.A, "log_M"))
            ols, *_ = np.linalg.lstsq(design.entries, sample.y, rcond=None)
            np.testing.assert_allclose(result.lambda_hat, ols, atol=1e-5)
            np.testing.assert_allclose(ols, ctx.lambda_star, atol=1e-10)
            assert result.m_hat <= ctx.M


class TestMonotoneSparsityInA:
    def test_support_shrinks_along_penalty_ladder(self):
        d = build_fourier(10)
        truth = l0k_truth(3)
        measure = uniform_measure()
        for seed in range(5):
            sample = generate(d, truth, measure, noise_bounded_uniform(1.0), 128, seed)
            design = evaluate(d, sample.x)
            sizes = []
            for a_value in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
                result = fit(design, sample.y, penalty_config(design, a_value, "log_n"))
                sizes.append(result.m_hat)
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))


class TestSummaries:
    def test_regime_flag_excludes_small_n(self):
        cfg = tiny_config(n_values=(8, 64, 128), m_rule="fixed:25", A=4.0)
        rows = run(cfg)
        cells = summarize(cfg, rows)
        assert not cells[0].regime_ok
        assert cells[1].regime_ok and cells[2].regime_ok

    def test_event_frequencies_high(self):
        cfg = tiny_config(n_values=(256, 512), A=4.0)
        cells = summarize(cfg, run(cfg))
        for cell in cells:
            assert cell.freq_e2 == 1.0
            assert cell.freq_e3 == 1.0

    def test_summary_requires_rows(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            summarize(cfg, [])


class TestOlsLine:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept, stderr = ols_line(x, -x)
        assert slope == pytest.approx(-1.0)
        assert intercept == pytest.approx(0.0)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        slope, _, _ = ols_line(x, np.full(4, 2.5))
        assert slope == pytest.approx(0.0)

    def test_degenerate_x_rejected(self):
        with pytest.raises(ConfigError):
            ols_line(np.ones(4), np.arange(4.0))


class TestRateSlope:
    def test_needs_four_cells(self):
        cfg = tiny_config()
        rows = run(cfg)
        with pytest.raises(ConfigError):
            rate_slope(cfg, rows)

    def test_needs_thirty_reps(self):
        cfg = ExperimentConfig(
            preset="linear",
            n_values=(32, 64, 128, 256),
            m_rule="fixed:6",
            k_or_beta=2,
            A=0.001,
            rate_kind="log_M",
            R=5,
            seed=1,
        )
        rows = run(cfg)
        with pytest.raises(ConfigError):
            rate_slope(cfg, rows, "l1_err")


class TestBoundCheck:
    def test_infinite_rhs_sanity(self):
        cfg = tiny_config()
        rows = run(cfg)
        cells = bound_check(cfg, rows, "t21_risk", BoundConstants(B1=math.inf))
        assert all(c.fraction == 1.0 for c in cells)
        assert all(c.satisfied for c in cells)

    def test_noiseless_exact_cell(self):
        cfg = ExperimentConfig(
            preset="linear",
            n_values=(64,),
            m_rule="fixed:6",
            k_or_beta=2,
            A=1e-5,
            rate_kind="log_M",
            R=10,
            seed=5,
        )
        rows = run(cfg)
        # Exact representation: the shrinkage bias is ~2 r^2, so any
        # constant comfortably above 2 makes the bound hold surely.
        cells = bound_check(cfg, rows, "t21_risk", BoundConstants(B1=4.0))
        assert cells[0].fraction == 1.0

    def test_split_sample_fit_holds_out(self):
        cfg = tiny_config(n_values=(256, 512), R=40, A=4.0)
        rows = run(cfg)
        for kind in ("t21_risk", "t21_l1"):
            cells = bound_check(cfg, rows, kind, fit_scale=True)
            for cell in cells:
                assert cell.fitted
                assert cell.fraction >= 0.9

    def test_requires_constants_or_fit(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            bound_check(cfg, run(cfg), "t21_risk")


class TestEventDiagnosticsErrors:
    def test_observed_data_unsupported(self):
        cfg = tiny_config()
        ctx = cell_context(cfg, 0)
        sample = observed_sample(np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(UnsupportedOperationError):
            sample_event_flags(ctx, sample)


class TestEventFrequenciesVsBounds:
    def test_e1_and_e2_complement_dominated_by_l5(self):
        # Intersection event against the three-term exponential bound,
        # 100 seeds at n = 2000, M = 5, A = 4: the bound is ~0.12 and the
        # empirical complement frequency must be binomially consistent
        # with it.
        from scipy import stats as sps

        from l1agg import lemma_bounds
        from l1agg.experiments import event_diagnostics

        cfg = tiny_config(n_values=(2000,), m_rule="fixed:5", A=4.0, R=30)
        ctx = cell_context(cfg, 0)
        bound = lemma_bounds(
            "L5", ctx.n, M=ctx.M, r_nM=ctx.r_nM, b=ctx.noise.b, c0=ctx.c0, L=ctx.L
        )
        assert bound < 1.0
        seeds = list(range(100))
        _, flags = event_diagnostics(cfg, 0, seeds)
        failures = sum(1 for f in flags if not (f.e1 and f.e2))
        assert failures == 0 or float(
            sps.binom.sf(failures - 1, len(seeds), bound)
        ) >= 0.05


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "preset = fourier-L0k\n"
            "n_values = 64,128\n"
            "m_rule = fixed:10\n"
            "k_or_beta = 3\n"
            "A = 2.0\n"
            "rate_kind = log_n\n"
            "R = 30\n"
            "seed = 11\n"
            "C_f = 1.0\n"
            "# comment lines are skipped\n"
        )
        cfg = load_config(path)
        assert cfg == tiny_config()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("preset = fourier-L0k\nbogus = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rate_preset_needs_30_reps(self):
        with pytest.raises(ConfigError):
            tiny_config(R=10)

    def test_n_values_strictly_increasing(self):
        with pytest.raises(ConfigError):
            tiny_config(n_values=(64, 64))
