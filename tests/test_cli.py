"""Command-line interface: dispatch, exit codes, file contracts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from l1agg import (
    build_fourier,
    diagnostics,
    empirical_gram,
    evaluate,
    load_tabulated_csv,
    oracle_general,
    oracle_path,
    oracle_scan,
    population_dist2,
    sparsity,
    tabulated_truth,
    uniform_measure,
)
from l1agg.cli import main
from l1agg.gram import write_gram_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(args, cwd):
    """``python -m l1agg.cli`` in a fresh interpreter, importing from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "l1agg.cli", *args], cwd=cwd, env=env,
        capture_output=True, text=True,
    )


def write_csv(path, header, columns):
    rows = zip(*columns)
    path.write_text(
        ",".join(header) + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    )
    return path


class TestDispatch:
    def test_fit_help(self, capsys):
        code, out, _ = run_cli(["fit", "--help"], capsys)
        assert code == 0
        assert "--rate" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert "l1agg" in out

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "l1agg.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import l1agg.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestFit:
    def write_data(self, tmp_path, n=80, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n)
        y = 1.0 + 2.0 * np.sqrt(2) * np.cos(2 * np.pi * x) + 0.1 * rng.normal(size=n)
        path = tmp_path / "data.csv"
        path.write_text(
            "x1,y\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
            + "\n"
        )
        return path

    def test_fit_roundtrip(self, tmp_path, capsys):
        data = self.write_data(tmp_path)
        out = tmp_path / "coef.csv"
        code, stdout, _ = run_cli(
            ["fit", "--dict", "fourier:5", "--data", str(data), "--A", "1.0",
             "--rate", "logn", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "j,lambda,omega"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1.0, abs=0.3)
        assert "objective=" in stdout and "kkt_residual=" in stdout
        keys = [line.split("=", 1)[0] for line in stdout.splitlines()]
        assert keys[keys.index("kkt_residual") + 1] == "duality_gap"
        assert "sweeps=" in stdout and "support_size=" in stdout

    def test_missing_data_file_exit_3_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "coef.csv"
        code, _, err = run_cli(
            ["fit", "--dict", "fourier:5", "--data", str(tmp_path / "nope.csv"),
             "--A", "1.0", "--out", str(out)],
            capsys,
        )
        assert code == 3
        assert not out.exists()
        assert err

    def test_nonconvergence_exit_2_with_machine_output(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1, 1, 40)
        x2 = x1 + 1e-5 * rng.normal(size=40)
        y = rng.normal(size=40)
        data = tmp_path / "data.csv"
        data.write_text(
            "x1,x2,y\n"
            + "\n".join(
                f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x1, x2, y)
            )
            + "\n"
        )
        out = tmp_path / "coef.csv"
        code, stdout, err = run_cli(
            ["fit", "--dict", "coordinate:2:-2,2", "--data", str(data),
             "--A", "0.01", "--rate", "logM", "--tol", "1e-15",
             "--max-sweeps", "2", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert out.exists()  # machine output still emitted on exit 2
        assert "converged=0" in stdout

    def test_missing_y_column_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1\n0.5\n")
        code, _, _ = run_cli(
            ["fit", "--dict", "fourier:3", "--data", str(data), "--A", "1.0",
             "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1


class TestDiagnose:
    def test_fourier_kappa(self, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--dict", "fourier:5", "--measure", "uniform"], capsys
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(report["kappa_M"]) == pytest.approx(1.0, abs=1e-6)
        assert float(report["L"]) == pytest.approx(np.sqrt(2), abs=1e-6)
        assert report["a2_norms"] == "1"

    def test_gram_export(self, tmp_path, capsys):
        gram_out = tmp_path / "psi.csv"
        code, _, _ = run_cli(
            ["diagnose", "--dict", "fourier:3", "--gram-out", str(gram_out)], capsys
        )
        assert code == 0
        lines = gram_out.read_text().strip().splitlines()
        assert lines[0] == "j1,j2,j3"
        row = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(row, [1.0, 0.0, 0.0], atol=1e-9)

    def test_support_coherence(self, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--dict", "fourier:4", "--support", "1,2"], capsys
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(report["rho_lambda"]) < 1e-6

    def test_empirical_gram_export(self, tmp_path, capsys):
        x = np.random.default_rng(2).uniform(0.0, 1.0, 40)
        data = write_csv(tmp_path / "data.csv", ["x1", "y"], [x, np.cos(x)])
        got, expected = tmp_path / "emp.csv", tmp_path / "expected.csv"
        code, out, _ = run_cli(
            ["diagnose", "--dict", "fourier:5", "--data", str(data),
             "--empirical-gram-out", str(got)],
            capsys,
        )
        assert code == 0
        assert "rho_lambda_empirical=" in out
        write_gram_csv(expected, empirical_gram(evaluate(build_fourier(5), x)))
        assert got.read_bytes() == expected.read_bytes()

    def test_degenerate_empirical_gram_has_no_empirical_rho(self, tmp_path, capsys):
        # x2 = 0 at every data point, so f_2 has empirical norm 0 and no
        # empirical correlations, while the population Gram is regular.
        x1 = np.linspace(0.1, 0.9, 9)
        data = write_csv(tmp_path / "data.csv", ["x1", "x2"], [x1, np.zeros(9)])
        emp = tmp_path / "emp.csv"
        code, out, _ = run_cli(
            ["diagnose", "--dict", "coordinate:2", "--data", str(data),
             "--empirical-gram-out", str(emp)],
            capsys,
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert "eta_nM" in report and "rho_lambda_empirical" not in report
        assert emp.read_text().splitlines()[2] == "0.0,0.0"

    def test_empirical_gram_out_needs_data_before_any_output(self, tmp_path, capsys):
        # Used to print the whole report and write the population Gram first.
        gram_out = tmp_path / "g.csv"
        code, out, err = run_cli(
            ["diagnose", "--dict", "fourier:3", "--gram-out", str(gram_out),
             "--empirical-gram-out", str(tmp_path / "e.csv")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: --empirical-gram-out needs --data"]
        assert not gram_out.exists()

    def test_no_data_computes_no_empirical_report(self, monkeypatch, capsys):
        from l1agg import cli

        reports = []

        def spy(*args):
            reports.append(diagnostics(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "diagnostics", spy)
        code, out, _ = run_cli(["diagnose", "--dict", "fourier:5", "--support", "2"], capsys)
        assert code == 0 and "eta_nM" not in out
        assert reports[0].eta_nM is None and reports[0].rho_lambda_empirical is None

    def test_unsorted_density_table_is_one_error_line(self, tmp_path, capsys):
        # Used to exit 0 with c0 = 0.9563 (0.9923 for the same rows sorted).
        density = write_csv(tmp_path / "d.csv", ["x", "density"],
                            [[0.0, 0.6, 0.3, 1.0], [1.0, 2.0, 1.0, 3.0]])
        code, out, err = run_cli(
            ["diagnose", "--dict", "fourier:4", "--measure", f"density:{density}"], capsys
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: density table abscissae must be strictly increasing"]

    def test_degenerate_dictionary_exit_4(self, capsys):
        # On the box [0, 0] both coordinates are identically zero, so the
        # Gram diagonal vanishes and the correlations are undefined.
        code, out, err = run_cli(["diagnose", "--dict", "coordinate:2:0,0"], capsys)
        assert code == 4
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestOracle:
    def test_l0k_table(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(
            ["oracle", "--dict", "fourier:10", "--truth", "l0k:3",
             "--kmax", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,residual2,support,exact"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        # residual2 at k = 0 is ||f||^2 = 9 + 4 + 1; zero from k = 3 on.
        assert float(rows[0][1]) == pytest.approx(14.0)
        assert float(rows[3][1]) == 0.0
        assert rows[3][2] == "2|4|7"

    def test_theta_shorthand(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(
            ["oracle", "--dict", "fourier:8", "--truth", "theta:2.0@2,-1.0@5",
             "--kmin", "1", "--kmax", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[2] == "2"

    def test_general_path(self, tmp_path, capsys):
        # A correlated tabulated dictionary (M = 6) and a tabulated truth
        # take the quadrature path through oracle_general.
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 33)
        base = np.cumsum(rng.normal(size=grid.size))
        tables = [1.0 + 0.5 * base + rng.normal(size=grid.size) for _ in range(6)]
        dict_csv = write_csv(tmp_path / "dict.csv", ["x"] + [f"f{j}" for j in range(1, 7)],
                             [grid] + tables)
        x = np.linspace(0.0, 1.0, 257)
        truth_csv = write_csv(tmp_path / "truth.csv", ["x", "f"], [x, np.sin(2 * np.pi * x) + x * x])
        out = tmp_path / "oracle.csv"
        code, _, _ = run_cli(
            ["oracle", "--dict", f"tabulated:{dict_csv}", "--truth", f"tabulated:{truth_csv}",
             "--kmax", "6", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,residual2,support,exact"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == [str(k) for k in range(7)]

        dictionary, measure = load_tabulated_csv(dict_csv), uniform_measure()
        truth = tabulated_truth(x, np.sin(2 * np.pi * x) + x * x)
        for k, (_, residual2, support, exact) in enumerate(rows):
            lam, _ = oracle_general(dictionary, measure, truth, k)
            assert residual2 == repr(population_dist2(dictionary, measure, truth, lam))
            assert support == "|".join(str(j + 1) for j in sparsity(lam)[0])
            assert exact == "1"
        residuals = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))

        # The scan stops at the first k on the path with dist2 <= C_f r^2 M(lambda).
        r_nM = (residuals[2] / 2.0) ** 0.5
        path = oracle_path(dictionary, measure, truth, range(7))
        first = next(k for k, lam, dist2, _ in path if dist2 <= r_nM * r_nM * sparsity(lam)[1])
        lam_star, _, _, found = oracle_scan(dictionary, measure, truth, r_nM)
        assert found and 1 <= first <= 2
        assert sparsity(lam_star)[1] == first


    @pytest.mark.parametrize("d", [3, 10])
    def test_coordinate_dictionary_needs_no_d_dimensional_grid(self, d, tmp_path, capsys):
        # ||f||^2 of a tabulated truth against a coordinate dictionary would
        # need a d-dimensional grid; the product mesh that served it kept
        # 3 nodes per axis at d = 10 and answered with the wrong value.
        x = np.linspace(0.0, 1.0, 65)
        truth = write_csv(tmp_path / "f.csv", ["x", "f"], [x, np.sin(2 * np.pi * x) + x])
        out = tmp_path / "oracle.csv"
        code, stdout, err = run_cli(
            ["oracle", "--dict", f"coordinate:{d}", "--truth", f"tabulated:{truth}",
             "--kmax", "1", "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: grids span one axis"), err
        assert not out.exists()

    def test_singular_restricted_gram_is_one_warning(self, tmp_path, capsys):
        # f1 = f2: every support holding both has a singular restricted Gram.
        grid = np.linspace(0.0, 1.0, 5)
        dict_csv = write_csv(tmp_path / "dict.csv", ["x", "f1", "f2", "f3"],
                             [grid, 1.0 + grid, 1.0 + grid, grid**2])
        truth = write_csv(tmp_path / "f.csv", ["x", "f"], [grid, np.sin(3.0 * grid)])
        out = tmp_path / "oracle.csv"
        code, _, err = run_cli(
            ["oracle", "--dict", f"tabulated:{dict_csv}", "--truth", f"tabulated:{truth}",
             "--kmax", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: restricted Gram is singular; using a pseudo-inverse solution"
        ]
        residuals = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert len(residuals) == 4 and all(np.isfinite(residuals))

    def test_unsorted_truth_table_is_one_error_line(self, tmp_path, capsys):
        # Used to exit 0 with residual2 5.651 at k = 0 (1.771 sorted).
        truth = write_csv(tmp_path / "t.csv", ["x", "f"], [[0.0, 1.0, 0.5], [1.0, 2.0, 3.0]])
        out = tmp_path / "oracle.csv"
        code, stdout, err = run_cli(
            ["oracle", "--dict", "fourier:4", "--truth", f"tabulated:{truth}",
             "--kmax", "1", "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: tabulated truth abscissae must be strictly increasing"]
        assert not out.exists()


class TestResourceLimits:
    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        # A huge request such as `diagnose --dict fourier:200000` used to end
        # in a numpy _ArrayMemoryError traceback.
        def too_large(*_):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr("l1agg.cli.population_gram", too_large)
        code, out, err = run_cli(["diagnose", "--dict", "fourier:8"], capsys)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert lines == ["error: Unable to allocate 298. GiB for an array"], err


class TestWarnings:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_library_warning_is_one_line(self, tmp_path, command):
        # Data points outside a tabulated dictionary's domain are clamped
        # with a RuntimeWarning, which used to print cli.py's file, line and
        # source line.
        tab = write_csv(tmp_path / "tab.csv", ["x", "f1", "f2"],
                        [[0.2, 0.5, 0.8], [0.0, 1.0, 2.0], [1.0, 1.0, 0.5]])
        data = write_csv(tmp_path / "data.csv", ["x1", "y"],
                         [[0.0, 0.5, 0.9, 1.2], [1.0, 2.0, 0.5, 0.3]])
        args = {
            "fit": ["fit", "--dict", f"tabulated:{tab}", "--data", str(data), "--A", "1",
                    "--out", str(tmp_path / "coef.csv")],
            "diagnose": ["diagnose", "--dict", f"tabulated:{tab}", "--data", str(data)],
        }[command]
        proc = run_cli_process(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: evaluation points outside the dictionary domain were clamped"
        ]
        first = "objective=" if command == "fit" else "kappa_M="
        assert proc.stdout.startswith(first)

    def test_repeated_warning_printed_once(self, monkeypatch, capsys):
        import warnings

        from l1agg import cli

        def warn_twice(*args):
            for _ in range(2):
                warnings.warn("quadrature is coarse", RuntimeWarning)
            return gram(*args)

        gram = cli.population_gram
        monkeypatch.setattr(cli, "population_gram", warn_twice)
        for _ in range(2):  # each call starts afresh
            code, _, err = run_cli(["diagnose", "--dict", "fourier:3"], capsys)
            assert code == 0
            assert err.splitlines() == ["warning: quadrature is coarse"]


class TestBounds:
    def test_report(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text(
            "n = 1000\nM = 10\nc0 = 1.0\nL = 1.4142135623730951\n"
            "r_nM = 0.2\nb = 1.718281828\nm_lambda = 3\nL_lambda = 0.0\n"
        )
        code, out, _ = run_cli(
            ["bounds", "--params", str(params), "--which", "L4,L5,L6"], capsys
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(report["L4"]) == pytest.approx(20 * np.exp(-1000 / 24), rel=1e-9)
        assert float(report["L6"]) == 0.0
        assert 0.0 <= float(report["L5"]) <= 1.0

    def test_missing_param_is_usage_error(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("n = 100\nM = 5\n")
        code, _, _ = run_cli(
            ["bounds", "--params", str(params), "--which", "L4"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize(
        "which, text",
        [
            ("L4", "n = 100\nM = 10\nc0 = 1\nL = 1e-300\n"),  # L * L underflows to 0
            ("L7", "n = 100\nM = 10\nm_lambda = 1\nc0 = 1\nL = 1\nL0 = 1\n"
                   "kappa_M = 1\nC_f = 1e200\n"),  # a square overflows
        ],
        ids=["L4", "L7"],
    )
    def test_arithmetic_failure_is_one_error_line(self, tmp_path, capsys, which, text):
        # Used to end in a ZeroDivisionError or OverflowError traceback.
        params = tmp_path / "params.txt"
        params.write_text(text)
        code, out, err = run_cli(["bounds", "--params", str(params), "--which", which], capsys)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            f"error: lemma {which} cannot be evaluated at these values "
            f"({'ZeroDivisionError' if which == 'L4' else 'OverflowError'})"
        ]

    def test_unknown_lemma_prints_nothing(self, tmp_path, capsys):
        # L4 used to be printed before the error for L8.
        params = tmp_path / "params.txt"
        params.write_text("n = 100\nM = 5\nc0 = 1\nL = 1\n")
        code, out, err = run_cli(["bounds", "--params", str(params), "--which", "L4,L8"], capsys)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unknown lemma 'L8'"), err

    def test_every_lemma_evaluated_before_printing(self, tmp_path, capsys):
        # Only L4's keys: without --which, L5 fails and L4 is not printed.
        params = tmp_path / "params.txt"
        params.write_text("n = 100\nM = 5\nc0 = 1\nL = 1\n")
        code, out, err = run_cli(["bounds", "--params", str(params)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: lemma L5 needs parameter r_nM"]


class TestExperimentAndSummary:
    def write_config(self, tmp_path, out_csv):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "preset = fourier-L0k\n"
            "n_values = 64,128\n"
            "m_rule = fixed:10\n"
            "k_or_beta = 3\n"
            "A = 2.0\n"
            "rate_kind = log_n\n"
            "R = 30\n"
            "seed = 11\n"
            "C_f = 1.0\n"
            f"out = {out_csv}\n"
        )
        return cfg

    def test_end_to_end(self, tmp_path, capsys):
        rows_csv = tmp_path / "rows.csv"
        cfg = self.write_config(tmp_path, rows_csv)
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 0
        header = rows_csv.read_text().splitlines()[0]
        assert header == (
            "preset,n,M,k_or_beta,A,rep,seed,risk,l1_err,m_hat,kkt,"
            "e1,e2,e3,rhs_t21_risk,rhs_t21_l1,runtime_ms"
        )

        summary_csv = tmp_path / "summary.csv"
        code, out, err = run_cli(
            ["summary", "--config", str(cfg), "--rows", str(rows_csv),
             "--out", str(summary_csv)],
            capsys,
        )
        assert code == 0
        assert summary_csv.exists()
        # Two cells only: slopes are not computable, noted on stderr.
        assert "no risk slope" in err

    def test_missing_config_exit_3(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["experiment", "--config", str(tmp_path / "nope.txt")], capsys
        )
        assert code == 3

    def test_slopes_csv(self, tmp_path, capsys):
        rows_csv = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "preset = fourier-L0k\n"
            "n_values = 64,128,256,512\n"
            "m_rule = fixed:10\n"
            "k_or_beta = 3\n"
            "A = 2.0\n"
            "rate_kind = log_n\n"
            "R = 30\n"
            "seed = 11\n"
            "C_f = 1.0\n"
            f"out = {rows_csv}\n"
        )
        assert run_cli(["experiment", "--config", str(cfg)], capsys)[0] == 0
        slopes_csv = tmp_path / "slopes.csv"
        code, out, _ = run_cli(
            ["summary", "--config", str(cfg), "--rows", str(rows_csv),
             "--out", str(tmp_path / "summary.csv"),
             "--slopes-out", str(slopes_csv)],
            capsys,
        )
        assert code == 0
        assert "risk_slope=" in out
        lines = slopes_csv.read_text().strip().splitlines()
        assert lines[0] == "quantity,slope,intercept,stderr"
        assert lines[1].startswith("risk,")
        assert float(lines[1].split(",")[1]) < 0.0


CONFIG = (
    "preset = fourier-L0k\nn_values = 64,128\nm_rule = fixed:10\nk_or_beta = 3\n"
    "A = 2.0\nrate_kind = log_n\nR = 30\nseed = 11\nC_f = 1.0\n"
)
ROWS_HEADER = (
    "preset,n,M,k_or_beta,A,rep,seed,risk,l1_err,m_hat,kkt,"
    "e1,e2,e3,rhs_t21_risk,rhs_t21_l1,runtime_ms\n"
)


def malformed_case(case, tmp_path):
    """argv for one malformed input, and the location its error must name
    (``None`` for a flag value)."""

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    out = str(tmp_path / "out.csv")
    good_data = write("good.csv", "x1,y\n0.1,1.0\n0.2,2.0\n0.3,0.5\n")

    def fit(data, rate="logn", dictionary="fourier:3", A="1.0"):
        return ["fit", "--dict", dictionary, "--data", data, "--A", A,
                "--rate", rate, "--out", out]

    def oracle(truth):
        return ["oracle", "--dict", "fourier:4", "--truth", truth, "--kmax", "1",
                "--out", out]

    if case == "fit-nonnumeric-y":
        data = write("data.csv", "x1,y\n0.1,1.0\n0.2,abc\n")
        return fit(data), f"{data}:3"
    if case == "fit-ragged-row":
        data = write("data.csv", "x1,y\n0.1,1.0\n0.2\n")
        return fit(data), f"{data}:3"
    if case in ("fit-tol-nan", "fit-tol-inf"):
        return fit(good_data) + ["--tol", case.rsplit("-", 1)[1]], None
    if case == "fit-A-inf":
        # An infinite tuning constant used to fit with omega = inf and print
        # objective=nan with exit 0.
        return fit(good_data, A="inf"), None
    if case == "rate-explicit-inf":
        return fit(good_data, rate="explicit:inf"), None
    if case.startswith("config-nonfinite-"):
        # A non-finite A, C_f or k_or_beta used to run (A = inf wrote rows
        # with infinite right-hand sides), or fail with a misleading message.
        _, _, key, value = case.split("-")
        text = CONFIG
        if key == "k_or_beta":
            text = text.replace("fourier-L0k", "fourier-sobolev")
        lines = [f"{key} = {value}" if ln.startswith(f"{key} =") else ln
                 for ln in text.splitlines()]
        cfg = write("cfg.txt", "\n".join(lines) + "\n")
        return ["experiment", "--config", cfg, "--out", out], f"{cfg}: {key}"
    if case == "fit-max-sweeps-0":
        return fit(good_data) + ["--max-sweeps", "0"], None
    if case == "dict-fourier":
        return fit(good_data, dictionary="fourier:x"), None
    if case == "dict-coordinate-box":
        return ["diagnose", "--dict", "coordinate:3:1"], None
    if case == "rate-explicit":
        return fit(good_data, rate="explicit:z"), None
    if case == "support":
        return ["diagnose", "--dict", "fourier:4", "--support", "a"], None
    if case in ("support-0", "support-9"):
        # --support is 1-based; 0 used to be refused as outside [0, 8).
        index = case.rsplit("-", 1)[1]
        return (["diagnose", "--dict", "fourier:8", "--support", f"2,{index}"],
                "--support indices must lie in [1, 8]")
    if case == "oracle-kmin-above-M":
        # Used to write a table with only a header and exit 0.
        return (["oracle", "--dict", "fourier:8", "--truth", "l0k:2", "--kmin", "20",
                 "--kmax", "30", "--out", out], "--kmin 20 exceeds M = 8")
    if case == "density-short-row":
        dens = write("dens.csv", "x,density\n0,1\n0.5\n1,1\n")
        return ["diagnose", "--dict", "fourier:4", "--measure", f"density:{dens}"], f"{dens}:3"
    if case == "density-zero":
        dens = write("dens.csv", "x,density\n0,1\n0.5,0\n1,1\n")
        return ["diagnose", "--dict", "fourier:4", "--measure", f"density:{dens}"], None
    if case == "tabulated-dict-nonnumeric":
        tab = write("tab.csv", "x,f1\n0,1\n0.5,abc\n1,1\n")
        return ["diagnose", "--dict", f"tabulated:{tab}"], f"{tab}:3"
    if case == "tabulated-truth-short-row":
        truth = write("truth.csv", "x,f\n0,1\n0.5\n1,1\n")
        return oracle(f"tabulated:{truth}"), f"{truth}:3"
    if case == "theta-index":
        return oracle("theta:1@x"), None
    if case == "bounds-value":
        params = write("params.txt", "n = 100\nM = ten\nc0 = 1\nL = 1\n")
        return ["bounds", "--params", params, "--which", "L4"], f"{params}:2"
    if case.startswith(("bounds-n-", "bounds-M-")):
        # n and M are counts: a non-finite or fractional value is refused.
        _, key, value = case.split("-")
        values = {"n": "100", "M": "10", "c0": "1", "L": "1"} | {key: value}
        params = write("params.txt", "".join(f"{k} = {v}\n" for k, v in values.items()))
        line = 1 if key == "n" else 2
        return ["bounds", "--params", params, "--which", "L4"], f"{params}:{line}: {key}"
    if case == "bounds-m_lambda-2.5":
        # M(lambda) is a count like n and M.
        params = write("params.txt", "n = 100\nr_nM = 0.5\nm_lambda = 2.5\nL_lambda = 1\n")
        return ["bounds", "--params", params, "--which", "L6"], f"{params}:3: m_lambda"
    if case == "bounds-unknown-key":
        params = write("params.txt", "n = 100\nM = 10\nc_0 = 3\nL = 1\n")
        return ["bounds", "--params", params, "--which", "L4"], f"{params}:3: c_0"
    if case == "config-value":
        cfg = write("cfg.txt", CONFIG.replace("R = 30", "R = thirty"))
        return ["experiment", "--config", cfg, "--out", out], f"{cfg}:7"
    if case == "config-m-rule":
        # The m_rule is checked with the whole config, so the error names the file.
        cfg = write("cfg.txt", CONFIG.replace("fixed:10", "fixed:x"))
        return ["experiment", "--config", cfg, "--out", out], cfg
    if case in ("config-m-rule-power-nan", "config-m-rule-power-inf"):
        # floor(n^s) of a non-finite exponent used to raise a bare ValueError
        # or OverflowError from the first cell.
        cfg = write("cfg.txt", CONFIG.replace("fixed:10", "power:" + case.rsplit("-", 1)[1]))
        return ["experiment", "--config", cfg, "--out", out], cfg
    if case == "summary-short-row":
        cfg = write("cfg.txt", CONFIG)
        rows = write("rows.csv", ROWS_HEADER + "fourier-L0k,64,10\n")
        return ["summary", "--config", cfg, "--rows", rows, "--out", out], f"{rows}:2"
    raise AssertionError(case)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "case",
        [
            "fit-nonnumeric-y", "fit-ragged-row", "dict-fourier", "dict-coordinate-box",
            "rate-explicit", "support", "density-short-row", "density-zero",
            "tabulated-dict-nonnumeric",
            "tabulated-truth-short-row", "theta-index", "bounds-value", "config-value",
            "config-m-rule", "summary-short-row", "bounds-n-nan", "bounds-n-inf",
            "bounds-n-2.5", "bounds-M-nan", "bounds-M-inf", "bounds-M-2.5",
            "bounds-m_lambda-2.5", "bounds-unknown-key", "fit-tol-nan", "fit-tol-inf",
            "fit-max-sweeps-0", "fit-A-inf", "rate-explicit-inf",
            "config-nonfinite-A-inf", "config-nonfinite-A-nan", "config-nonfinite-C_f-nan",
            "config-nonfinite-k_or_beta-nan", "config-m-rule-power-nan", "config-m-rule-power-inf",
            "support-0", "support-9", "oracle-kmin-above-M",
        ],
    )
    def test_one_error_line(self, case, tmp_path, capsys):
        argv, location = malformed_case(case, tmp_path)
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        if location is not None:
            assert location in lines[0]
        assert not os.path.exists(tmp_path / "out.csv")
