"""Noise models, generation, the replicated harness, slopes, bound checks."""

import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from l1agg import (
    BoundConstants,
    ConfigError,
    ExperimentConfig,
    ShapeError,
    UnsupportedOperationError,
    bound_check,
    build_coordinate,
    build_fourier,
    evaluate,
    fit,
    generate,
    grid_density_measure,
    l0k_truth,
    linear_truth,
    load_config,
    noise_bounded_uniform,
    penalty_weights,
    rate,
    rate_slope,
    read_rows_csv,
    run,
    run_single,
    sobolev_truth,
    summarize,
    uniform_measure,
)
from l1agg import dictionary as dictionary_module
from l1agg import experiments, oracles, solver
from l1agg.cli import main
from l1agg.experiments import (
    CSV_HEADER,
    _draw,
    _linear_pattern,
    _ols_line,
    cell_context,
    cell_tail_floor,
    event_diagnostics,
    replicate_seed,
    rows_csv_text,
    sample_noise,
    write_rows_csv,
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


# perfbench's mc_sobolev grid: M = 25 in every cell and k* = 1, 1, 2, 2, so
# cells 1 and 3 reuse the L(lambda*) scans of cells 0 and 2.
SOBOLEV_GRID = ExperimentConfig(preset="fourier-sobolev", n_values=(256, 512, 1024, 2048),
                                m_rule="fixed:25", k_or_beta=1.0, A=4.0, rate_kind="log_n",
                                R=30, seed=0)


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

    def test_zero_amplitude_draws_nothing(self):
        # A zero-amplitude sample leaves the stream as it was.
        rng = np.random.default_rng(3)
        np.testing.assert_array_equal(sample_noise(noise_bounded_uniform(0.0), 5, rng), np.zeros(5))
        assert rng.uniform() == np.random.default_rng(3).uniform()

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_amplitude_refused(self, a):
        # Each used to give b = nan after a numpy RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite and nonnegative"):
                noise_bounded_uniform(a)


    def test_overflowing_amplitude_refused(self):
        # e^800 overflows: b used to be inf after numpy's expm1 warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="amplitude 800.0 overflows"):
                noise_bounded_uniform(800.0)
            assert math.isfinite(noise_bounded_uniform(709.0).b)
        # np.expm1 stays: math.expm1(1.0) is one ulp lower.
        assert noise_bounded_uniform(1.0).b == 1.7182818284590453


class TestGenerate:
    def test_noiseless(self):
        d = build_fourier(5)
        truth = l0k_truth(2)
        sample = generate(d, truth, uniform_measure(), noise_bounded_uniform(0.0), 50, seed=4)
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
        sample = generate(d, l0k_truth(1), uniform_measure(), noise_bounded_uniform(0.0), 1000, 0)
        assert sample.x.min() >= 0.0 and sample.x.max() <= 1.0

    @pytest.mark.parametrize("n", [1, 8192])
    def test_uniform_draw_is_generator_uniform(self, n):
        # An asymmetric per-axis box with a zero-width axis: the design is
        # bit for bit Generator.uniform's, drawn fresh or into ``out``, and
        # the noise is the next draw from the same stream.
        box = np.array([[-1.0, 3.0], [0.5, 0.5], [-7.25, -2.0]])
        d = build_coordinate(3, domain=box)
        noise = noise_bounded_uniform(1.0)
        for out in (None, np.empty((n, 3))):
            sample = generate(d, linear_truth(np.ones(3)), uniform_measure(), noise, n, 5, out=out)
            rng = np.random.default_rng(5)
            assert np.array_equal(sample.x, rng.uniform(box[:, 0], box[:, 1], (n, 3)))
            assert np.array_equal(sample.w, rng.uniform(-1.0, 1.0, n))

    def test_overflowing_domain_width_refused(self):
        # high - low overflows to inf: one ConfigError naming the domain,
        # with no overflow warning and no non-finite points.
        d = build_coordinate(2, domain=[-1e308, 1e308])
        with pytest.raises(ConfigError, match=re.escape("domain [[-1e+308, 1e+308]")):
            generate(
                d, linear_truth(np.ones(2)), uniform_measure(), noise_bounded_uniform(0.0), 4, 0
            )

    UNIFORM = (
        build_coordinate(3, domain=[[-1.0, 3.0], [0.5, 0.5], [-7.25, -2.0]]),
        linear_truth(np.array([1.0, -2.0, 0.5])),
        uniform_measure(),
    )

    @pytest.mark.parametrize("case", [UNIFORM], ids=["uniform"])
    @pytest.mark.parametrize("n", [1, 517])
    def test_out_gives_the_same_sample(self, case, n):
        dictionary, truth, measure = case
        noise = noise_bounded_uniform(1.0)
        out = np.full((n, dictionary.d), np.nan)
        sample = generate(dictionary, truth, measure, noise, n, 9, out=out)
        fresh = generate(dictionary, truth, measure, noise, n, 9)
        assert sample.x is out
        for field in ("x", "y", "f_values", "w"):
            assert np.array_equal(getattr(sample, field), getattr(fresh, field))
        # Refilled for another seed, the same array holds that seed's draw.
        again = generate(dictionary, truth, measure, noise, n, 10, out=out)
        assert np.array_equal(again.x, generate(dictionary, truth, measure, noise, n, 10).x)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n, d: np.empty((n + 1, d)),
            lambda n, d: np.empty((n, d + 1)),
            lambda n, d: np.empty((n, d), dtype=np.float32),
            lambda n, d: np.empty((n, d), order="F"),
            lambda n, d: np.empty((n, d)).tolist(),
        ],
        ids=["rows", "columns", "float32", "F-order", "list"],
    )
    def test_wrong_out_refused(self, make):
        dictionary, truth, measure = self.UNIFORM
        with pytest.raises(ShapeError, match="out must be"):
            generate(dictionary, truth, measure, noise_bounded_uniform(0.0), 8, 0, out=make(8, 3))

    @pytest.mark.parametrize("out", [None, np.empty((8, 1))], ids=["fresh", "out"])
    def test_density_measure_is_not_drawn_from(self, out):
        # The draw used to invert the CDF linearly, uniform within each
        # table cell, while every population integral uses the
        # piecewise-linear density: E[X] was 0.484 against 0.4577 here.
        measure = grid_density_measure([0.0, 0.4, 1.0], [1.0, 3.0, 0.5])
        with pytest.raises(UnsupportedOperationError, match="drawn uniformly"):
            generate(
                build_fourier(5), l0k_truth(2), measure, noise_bounded_uniform(0.0), 8, 0, out=out
            )


class TestPresetTruths:
    def test_l0k_pattern(self):
        truth = l0k_truth(3)
        nz = np.flatnonzero(truth.theta)
        np.testing.assert_array_equal(nz, [1, 3, 6])  # 1-based indices 2, 4, 7
        np.testing.assert_array_equal(truth.theta[nz], [3.0, 2.0, 1.0])

    def test_l0k_zero(self):
        truth = l0k_truth(0)
        assert np.count_nonzero(truth.theta) == 0

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
    def test_sobolev_beta_must_be_finite_and_positive(self, beta):
        # beta = inf used to give theta = (1, 0, 0, ...), and nan a NaN truth.
        with pytest.raises(ConfigError, match="beta must be finite and positive"):
            sobolev_truth(beta)

    def test_sobolev_decay_and_budget(self):
        truth = sobolev_truth(1.0)
        theta = truth.theta
        assert theta[0] == pytest.approx(1.0)
        assert theta[1] == pytest.approx(-(2.0 ** -1.6))

    @pytest.mark.parametrize("make, arg", [(l0k_truth, 3), (sobolev_truth, 1.0)])
    def test_preset_truths_are_not_shared(self, make, arg):
        # Both presets were cached, so writing into one returned theta
        # changed every later truth built with the same argument.
        fresh = make(arg).theta.copy()
        make(arg).theta[1] = 99.0
        np.testing.assert_array_equal(make(arg).theta, fresh)

    def test_linear_pattern(self):
        coeffs = _linear_pattern(10, 3)
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

    def test_row_flags_match_event_diagnostics(self):
        cfg = tiny_config()
        reps = (0, 7)
        _, flags = event_diagnostics(cfg, 1, [replicate_seed(cfg, 1, rep) for rep in reps])
        for rep, flag in zip(reps, flags):
            row = run_single(cfg, 1, rep)
            assert (row.e1, row.e2, row.e3) == (flag.e1, flag.e2, flag.e3)

    def test_event_diagnostics_need_a_seed(self):
        with pytest.raises(ConfigError, match="at least one seed"):
            event_diagnostics(tiny_config(), 0, [])

    def test_power_m_rule(self):
        # M = floor(n^s), at least 2: 2^0.75 < 2, 256^0.75 = 64, 2048^0.75 = 304.4.
        cfg = tiny_config(n_values=(2, 256, 2048), m_rule="power:0.75")
        assert [cell_context(cfg, i).M for i in range(3)] == [2, 64, 304]

    def test_power_m_rule_that_overflows_is_refused_with_the_config(self):
        # floor(n^s) used to raise a bare OverflowError from the first cell
        # it overflowed in; the rule is evaluated at every n of the grid.
        with pytest.raises(ConfigError, match=r"m_rule 'power:130' overflows at n = 256$"):
            tiny_config(n_values=(2, 256), m_rule="power:130")

    @pytest.mark.parametrize("cell", [-1, 2], ids=["negative", "past-end"])
    def test_cell_index_out_of_range_refused(self, cell):
        # Every entry to a cell refuses an index outside the n-grid; -1
        # must not run the last cell.
        cfg = tiny_config()
        assert len(cfg.n_values) == 2
        calls = (
            lambda: cell_context(cfg, cell),
            lambda: event_diagnostics(cfg, cell, [replicate_seed(cfg, 1, 0)]),
            lambda: run_single(cfg, cell, 0),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="cell_index out of range"):
                call()

    def test_linear_risk_runs_no_population_pass(self, monkeypatch):
        # One closed form per cell, read by cell_context for kappa_M, the
        # oracle and the constants; the replicates' risks read the cached
        # Psi. Each cell used to form it twice, and a linear cell's first
        # replicate once more.
        configs = [
            ExperimentConfig(preset="linear", n_values=(32, 64), m_rule="fixed:4",
                             k_or_beta=2, A=1.0, rate_kind="log_M", R=3, seed=0),
            tiny_config(),
        ]
        calls = []
        original = dictionary_module._uniform_closed_form

        def spy(*args):
            calls.append(args)
            return original(*args)

        for module in (dictionary_module, experiments, oracles):
            if getattr(module, "_uniform_closed_form", None) is original:
                monkeypatch.setattr(module, "_uniform_closed_form", spy)
        cell_context.cache_clear()
        for cfg in configs:
            for cell in range(len(cfg.n_values)):
                calls.clear()
                ctx = cell_context(cfg, cell)
                cell_tail_floor(ctx, cfg.C_f)
                assert len(calls) == 1
            calls.clear()
            assert len(run(cfg)) == 2 * cfg.R
            assert calls == []

    def test_nonconvergence_recorded_and_reported(self, monkeypatch, tmp_path, capsys):
        # fit binds DEFAULT_MAX_SWEEPS when it is defined, so a one-sweep
        # budget replaces fit itself.
        monkeypatch.setattr("l1agg.experiments.fit", functools.partial(solver.fit, max_sweeps=1))
        cfg = tiny_config(n_values=(256,), m_rule="fixed:25")
        rows = run(cfg)
        assert len(rows) == 30
        assert all(row.converged is False and row.nonconverged for row in rows)
        (cell,) = summarize(cfg, rows)
        assert cell.frac_nonconverged == 1.0 and not cell.valid

        path = tmp_path / "cfg.txt"
        path.write_text(
            "preset = fourier-L0k\nn_values = 256\nm_rule = fixed:25\nk_or_beta = 3\n"
            "A = 2.0\nrate_kind = log_n\nR = 30\nseed = 11\nC_f = 1.0\n"
        )
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "rows.csv")]) == 0
        assert "warning: 30 non-convergent replicates" in capsys.readouterr().err.splitlines()

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

    @pytest.mark.parametrize(
        "line, column, cell",
        [(3, 16, None), (4, 1, "x"), (2, 11, "2")],
        ids=["short-row", "non-numeric-cell", "flag-not-0-or-1"],
    )
    def test_malformed_rows_csv_names_the_line(self, tmp_path, line, column, cell):
        cfg = ExperimentConfig(preset="linear", n_values=(32,), m_rule="fixed:4",
                               k_or_beta=1, A=0.001, rate_kind="log_M", R=4, seed=1)
        lines = rows_csv_text(run(cfg)).splitlines()
        cells = lines[line - 1].split(",")
        if cell is None:
            del cells[column]
        else:
            cells[column] = cell
        lines[line - 1] = ",".join(cells)
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError, match=re.escape(f"{path}:{line}: ")):
            read_rows_csv(path)

    def test_rows_csv_header_from_row_fields(self):
        assert CSV_HEADER == (
            "preset,n,M,k_or_beta,A,rep,seed,risk,l1_err,m_hat,kkt,"
            "e1,e2,e3,rhs_t21_risk,rhs_t21_l1,runtime_ms"
        )

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

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(preset="fourier-L0k", n_values=(256, 512), m_rule="fixed:25",
                             k_or_beta=3, A=4.0, rate_kind="log_n", R=30, seed=1),
            ExperimentConfig(preset="linear", n_values=(32,), m_rule="fixed:4",
                             k_or_beta=2, A=1.0, rate_kind="log_M", R=1, seed=0),
            SOBOLEV_GRID,
        ],
        ids=["fourier-L0k", "linear", "fourier-sobolev"],
    )
    def test_cached_context_arrays_are_read_only(self, cfg):
        # Contexts are cached, so a write used to reach every later run: in
        # the fourier-L0k cell, lambda_star[:] = 0 turned row 0's l1_err
        # from 1.701 into 4.299.
        for cell in range(len(cfg.n_values)):
            ctx = cell_context(cfg, cell)
            pop = ctx.population
            for shared in (ctx.lambda_star, pop.truth.theta, pop.dictionary.domain, pop.theta,
                           pop.psi, pop.g):
                with pytest.raises(ValueError, match="read-only"):
                    shared[...] = 0.0

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
        pop = ctx.population
        for rep in range(cfg.R):
            seed = replicate_seed(cfg, 0, rep)
            sample = generate(pop.dictionary, pop.truth, pop.measure, ctx.noise, ctx.n, seed)
            design = evaluate(pop.dictionary, sample.x)
            result = fit(design, sample.y, penalty_weights(design, ctx.r_nM))
            ols, *_ = np.linalg.lstsq(design.entries, sample.y, rcond=None)
            np.testing.assert_allclose(result.lambda_hat, ols, atol=1e-5)
            np.testing.assert_allclose(ols, ctx.lambda_star, atol=1e-10)
            assert result.m_hat <= ctx.M


class TestMeasuredStages:
    STAGES = ("generate", "evaluate", "fit", "event_flags", "population_dist2")

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each stage's calls, as (args, kwargs), through its module-level name."""
        calls = {name: [] for name in self.STAGES}
        for name in self.STAGES:
            original = getattr(experiments, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                calls[_name].append((args, kwargs))
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, recorded)
        return calls

    def test_replicate_calls_each_stage_once(self, calls):
        # A replicate reaches each measured stage through its public,
        # module-level name exactly once, so a boundary tracer times every
        # stage; a stage behind a private helper would drop out of it.
        run_single(tiny_config(), 1, 3)
        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(self.STAGES, 1)

    def test_population_problem_is_built_once_per_cell(self, calls, monkeypatch):
        # A replicate reads its cell's problem; it used to form the closed
        # form Gram of every distance again.
        built = []
        original = experiments.population_problem

        def recorded(*args):
            built.append(len(calls["generate"]))
            return original(*args)

        monkeypatch.setattr(experiments, "population_problem", recorded)
        experiments.cell_context.cache_clear()
        cfg = tiny_config()
        run(cfg)
        assert built == [0, cfg.R]

    def test_cell_replicates_share_their_out_arrays(self, calls):
        # run hands generate and evaluate one pair of arrays per cell, the
        # same for all R replicates of the cell and new for the next cell;
        # run_single passes none.
        cfg = tiny_config()
        run(cfg)
        for name in ("generate", "evaluate"):
            outs = [kwargs["out"] for _, kwargs in calls[name]]
            first, second = outs[: cfg.R], outs[cfg.R :]
            assert len(second) == cfg.R
            for cell in (first, second):
                assert isinstance(cell[0], np.ndarray)
                assert all(out is cell[0] for out in cell)
            assert second[0] is not first[0]
            calls[name].clear()
        run_single(cfg, 1, 3)
        assert [kwargs["out"] for _, kwargs in calls["generate"]] == [None]
        assert [kwargs["out"] for _, kwargs in calls["evaluate"]] == [None]

    def test_draw_passes_the_seed_sixth(self, calls):
        # perfbench's tracer labels a replicate's spans by generate's sixth
        # positional argument, the seed; out goes by keyword.
        cfg = tiny_config()
        ctx = cell_context(cfg, 1)
        seed = replicate_seed(cfg, 1, 4)
        buffers = experiments._cell_buffers(ctx)
        _draw(ctx, seed)
        _draw(ctx, seed, buffers)
        run_single(cfg, 1, 4)
        assert len(calls["generate"]) == 3
        for args, kwargs in calls["generate"]:
            assert len(args) == 6 and args[5] == seed
            assert set(kwargs) == {"out"}
        assert calls["generate"][1][1]["out"] is buffers[0]
        assert calls["evaluate"][1][1]["out"] is buffers[1]


class TestOracleSupNormCache:
    @staticmethod
    def clear():
        cell_context.cache_clear()
        experiments._oracle_sup_norm.cache_clear()

    def test_one_scan_per_distinct_oracle(self, monkeypatch):
        # L(lambda*) does not depend on n; each cell used to scan it again,
        # 4 scans for the 2 distinct oracles here.
        calls = []
        original = experiments.sup_norm_error

        def spy(dictionary, truth, lam):
            calls.append((dictionary.M, int(np.count_nonzero(lam))))
            return original(dictionary, truth, lam)

        monkeypatch.setattr(experiments, "sup_norm_error", spy)
        self.clear()
        contexts = [cell_context(SOBOLEV_GRID, cell) for cell in range(4)]
        assert [ctx.k_star for ctx in contexts] == [1, 1, 2, 2]
        assert calls == [(25, 1), (25, 2)]
        assert [ctx.L_lambda_star for ctx in contexts] == [
            1.0833404965263804, 1.0833404965263804, 0.6168593763241857, 0.6168593763241857
        ]

    @staticmethod
    def assert_same(a, b):
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray) and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        elif dataclasses.is_dataclass(a):
            assert type(a) is type(b)
            for field in dataclasses.fields(a):
                TestOracleSupNormCache.assert_same(getattr(a, field.name), getattr(b, field.name))
        elif isinstance(a, tuple):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                TestOracleSupNormCache.assert_same(x, y)
        else:
            assert a == b and type(a) is type(b)

    def test_cached_scan_gives_the_fresh_context(self):
        self.clear()
        cached = [cell_context(SOBOLEV_GRID, cell) for cell in range(4)]
        for cell, ctx in enumerate(cached):
            self.clear()
            fresh = cell_context(SOBOLEV_GRID, cell)
            assert fresh is not ctx
            self.assert_same(ctx, fresh)
            for name in ("psi", "g", "f2", "c0", "L", "L0"):
                self.assert_same(getattr(ctx.population, name), getattr(fresh.population, name))
            assert cell_tail_floor(ctx, 1.0) == cell_tail_floor(fresh, 1.0)


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
                weights = penalty_weights(design, rate(a_value, 128, 10, "log_n"))
                result = fit(design, sample.y, weights)
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

    def test_median_matches_numpy(self):
        rng = np.random.default_rng(2)
        for n in range(1, 40):
            values = rng.lognormal(0.0, 3.0, n)
            values[: n // 3] = values[-1]  # ties
            assert experiments._median(values.tolist()) == np.median(values)
        assert math.isnan(experiments._median([1.0, math.nan, 2.0]))

    def test_grid_and_summary_leave_numpy_ma_unimported(self):
        # np.median imported numpy.ma into every summarizing process.
        code = (
            "import sys\n"
            "from l1agg import ExperimentConfig, run, summarize\n"
            "cfg = ExperimentConfig(preset='fourier-sobolev', n_values=(64, 128),"
            " m_rule='fixed:9', k_or_beta=1.0, A=4.0, rate_kind='log_n', R=30, seed=0)\n"
            "summarize(cfg, run(cfg))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_summary_requires_rows(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            summarize(cfg, [])

    def linear_config(self, **overrides):
        base = dict(preset="linear", n_values=(32, 64), m_rule="fixed:6", k_or_beta=2,
                    A=0.001, rate_kind="log_M", R=5, seed=1)
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_rows_from_another_config_rejected(self):
        rows = run(self.linear_config())
        other = self.linear_config(k_or_beta=1, seed=99)
        with pytest.raises(ConfigError, match="not from this config"):
            summarize(other, rows)
        with pytest.raises(ConfigError, match="not from this config"):
            bound_check(other, rows, fit_scale=True)
        with pytest.raises(ConfigError, match="not from this config"):
            summarize(self.linear_config(A=0.002), rows)

    def test_duplicate_and_missing_replicates_rejected(self):
        cfg = self.linear_config()
        rows = run(cfg)
        with pytest.raises(ConfigError, match="two rows"):
            summarize(cfg, rows + rows)
        with pytest.raises(ConfigError, match="has 4 rows, not R = 5"):
            summarize(cfg, rows[1:])
        with pytest.raises(ConfigError, match="has 4 rows"):
            bound_check(cfg, rows[1:], fit_scale=True)
        assert [c.reps for c in summarize(cfg, rows[::-1])] == [5, 5]

    def test_nonconvergence_rule_survives_csv(self, tmp_path):
        # Non-convergence is kkt > 1e3 * DEFAULT_TOL, whatever the in-memory
        # solver flag says, so a CSV round trip cannot change the count.
        cfg = self.linear_config(n_values=(64,), R=1)
        (row,) = run(cfg)
        path = tmp_path / "rows.csv"
        for converged, kkt, expected in ((False, 1e-8, 0.0), (True, 1e-5, 1.0)):
            rows = [dataclasses.replace(row, converged=converged, kkt=kkt)]
            write_rows_csv(path, rows)
            assert summarize(cfg, rows)[0].frac_nonconverged == expected
            assert summarize(cfg, read_rows_csv(path))[0].frac_nonconverged == expected


class TestOlsLine:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept, stderr = _ols_line(x, -x)
        assert slope == pytest.approx(-1.0)
        assert intercept == pytest.approx(0.0)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        slope, _, _ = _ols_line(x, np.full(4, 2.5))
        assert slope == pytest.approx(0.0)

    def test_degenerate_x_rejected(self):
        with pytest.raises(ConfigError):
            _ols_line(np.ones(4), np.arange(4.0))


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

    def test_zero_unit_rhs_fit_matches_constants(self):
        # k* = 0 makes the unit RHS and every risk exactly 0; the fitted
        # scale is inf, and inf * 0 must not turn the RHS into NaN.
        cfg = ExperimentConfig(
            preset="fourier-L0k", n_values=(256, 512), m_rule="fixed:9", k_or_beta=0,
            A=4.0, rate_kind="log_n", R=30, seed=3,
        )
        rows = run(cfg)
        fitted = bound_check(cfg, rows, fit_scale=True)
        fixed = bound_check(cfg, rows, constants=BoundConstants())
        for f, c in zip(fitted, fixed):
            assert (f.rhs, f.fraction, f.satisfied) == (c.rhs, c.fraction, c.satisfied) == (0.0, 1.0, True)

    def test_requires_constants_or_fit(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            bound_check(cfg, run(cfg), "t21_risk")


class TestEventFrequenciesVsBounds:
    def test_e1_and_e2_complement_dominated_by_l5(self):
        # Intersection event against the three-term exponential bound,
        # 100 seeds at n = 2000, M = 5, A = 4: the bound is ~0.12 and the
        # empirical complement frequency must be binomially consistent
        # with it.
        from scipy import stats as sps

        from l1agg import lemma_bounds

        cfg = tiny_config(n_values=(2000,), m_rule="fixed:5", A=4.0, R=30)
        ctx = cell_context(cfg, 0)
        bound = lemma_bounds(
            "L5", ctx.n, M=ctx.M, r_nM=ctx.r_nM, b=ctx.noise.b, c0=ctx.population.c0,
            L=ctx.population.L,
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

    @pytest.mark.parametrize(
        "text, where",
        [
            ("preset = linear\nR = thirty\n", ":2: R: "),
            ("# comment\n\nn_values = 64,x\n", ":3: n_values: "),
            ("preset = linear\nR 30\n", ":2: expected key = value"),
        ],
    )
    def test_bad_line_names_path_line_key(self, tmp_path, text, where):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
            load_config(path)

    def test_missing_keys_named(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("preset = linear\nout = rows.csv\n")
        with pytest.raises(ConfigError, match="missing config keys: n_values, m_rule"):
            load_config(path)

    def test_rate_preset_needs_30_reps(self):
        with pytest.raises(ConfigError):
            tiny_config(R=10)

    def test_n_values_strictly_increasing(self):
        with pytest.raises(ConfigError):
            tiny_config(n_values=(64, 64))

    @pytest.mark.parametrize(
        "field, value", [("n_values", (64, 256.7)), ("R", 30.5), ("seed", 1.5)]
    )
    def test_non_integral_count_refused(self, field, value):
        # n_values = (256.7,) used to become 256; R = 2.5 passed and then
        # ended run in a TypeError.
        with pytest.raises(ConfigError, match=f"{field} must be integral"):
            tiny_config(**{field: value})

    def test_integral_floats_become_ints(self):
        cfg = tiny_config(n_values=(64.0, 128.0), R=30.0, seed=11.0)
        assert cfg == tiny_config()
        assert all(type(v) is int for v in (*cfg.n_values, cfg.R, cfg.seed))
