"""Command-line interface: dispatch, exit codes, file contracts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from l1agg.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
