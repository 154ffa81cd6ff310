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
    load_config,
    load_tabulated_csv,
    oracle_path,
    oracle_scan,
    population_dist2,
    population_problem,
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


def run_python(args, cwd=None, extra_env=None):
    """``python *args`` in a fresh interpreter, importing l1agg from src,
    with the inherited environment updated by ``extra_env``."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def run_cli_process(args, cwd, extra_env=None):
    """``python -m l1agg.cli`` by :func:`run_python`."""
    return run_python(["-m", "l1agg.cli", *args], cwd, extra_env)


def write_csv(path, header, columns):
    rows = zip(*columns)
    path.write_text(
        ",".join(header) + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    )
    return path


def write_tabulated(path, M):
    """A tabulated dictionary of M correlated curves on 21 nodes of [0, 1]."""
    grid = np.linspace(0.0, 1.0, 21)
    tables = [np.sin((j + 1) * 2.3 * grid) + 0.1 * j for j in range(M)]
    return write_csv(path, ["x"] + [f"f{j}" for j in range(1, M + 1)], [grid] + tables)


@pytest.fixture
def design_shapes(monkeypatch):
    """The point shapes of every ``evaluate`` call made through any l1agg
    module that calls it, in call order. The CLI imports ``evaluate`` from
    ``l1agg.dictionary`` when a command runs, so it calls the spy too."""
    import l1agg.dictionary
    import l1agg.experiments

    shapes = []
    evaluate_points = l1agg.dictionary.evaluate

    def spy(dictionary, points):
        shapes.append(np.shape(points))
        return evaluate_points(dictionary, points)

    for module in (l1agg.dictionary, l1agg.experiments):
        monkeypatch.setattr(module, "evaluate", spy)
    return shapes


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
        proc = run_python(["-m", "l1agg.cli", "--version"])
        assert proc.returncode == 0

    def test_import_does_not_load_scipy(self):
        code = "import l1agg.cli, sys\nfrom l1agg import *\nassert 'scipy' not in sys.modules"
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_lazy_numpy_modules_unloaded(self):
        # numpy.fft and numpy.random load on first use, numpy.ma on none:
        # an eager import would add its cost to every process.
        code = (
            "import sys\n"
            "from l1agg import *\n"
            "loaded = [m for m in ('numpy.ma', 'numpy.fft', 'numpy.random') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr


LAYER_MODULES = ("dictionary", "gram", "solver", "oracles", "tails", "experiments")


class TestLazyImports:
    """Which layer modules, and whether numpy, a fresh interpreter loads
    for each entry point."""

    def loaded_layers(self, code):
        """The layer modules loaded once ``code`` has run in a fresh
        interpreter, and ``"numpy"`` if numpy was loaded; they are printed
        after anything ``code`` prints."""
        modules = [f"l1agg.{m}" for m in LAYER_MODULES] + ["numpy"]
        probe = (
            f"{code}\nimport sys\n"
            f"print(*[m.split('.')[-1] for m in {modules!r} if m in sys.modules])"
        )
        proc = run_python(["-c", probe])
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("code", ["import l1agg", "import l1agg.cli"])
    def test_import_loads_no_layer_module(self, code):
        assert self.loaded_layers(code) == set()

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["--version"], 0), (["fit", "--A", "1"], 1)],
        ids=["help", "version", "usage-error"],
    )
    def test_start_up_loads_nothing(self, argv, code):
        # Help, the version and a usage error load no layer module and no numpy.
        run = f"import l1agg.cli\nassert l1agg.cli.main({argv!r}) == {code}"
        assert self.loaded_layers(run) == set()

    @pytest.mark.parametrize("command", ["fit", "diagnose", "oracle", "bounds"])
    def test_command_loads_no_harness(self, command, tmp_path):
        data = write_csv(tmp_path / "data.csv", ["x1", "y"], [[0.1, 0.5, 0.9], [1.0, 2.0, 0.5]])
        params = tmp_path / "params.txt"
        params.write_text("n = 100\nM = 10\nc0 = 1\nL = 1\n")
        out = str(tmp_path / "out.csv")
        argv = {
            "fit": ["fit", "--dict", "fourier:3", "--data", str(data), "--A", "1", "--out", out],
            "diagnose": ["diagnose", "--dict", "fourier:8", "--support", "2"],
            "oracle": ["oracle", "--dict", "fourier:5", "--truth", "sobolev:1", "--kmax", "2",
                       "--out", out],
            "bounds": ["bounds", "--params", str(params), "--which", "L4"],
        }[command]
        loaded = self.loaded_layers(f"import l1agg.cli\nassert l1agg.cli.main({argv!r}) == 0")
        assert "experiments" not in loaded
        if command == "fit":
            assert loaded == {"dictionary", "gram", "solver", "numpy"}
        if command == "bounds":
            assert loaded == {"tails"}


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

    @pytest.mark.parametrize(
        "penalty", [["--A", "1e308"], ["--A", "1", "--rate", "explicit:1e308"]],
        ids=["A", "rate"],
    )
    def test_huge_penalty_is_zero_fit_without_warning(self, penalty, tmp_path, capsys):
        # Used to print "warning: overflow encountered in divide" from the
        # duality gap next to the correct zero fit.
        data = self.write_data(tmp_path)
        out = tmp_path / "coef.csv"
        code, stdout, err = run_cli(
            ["fit", "--dict", "fourier:5", "--data", str(data), *penalty, "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == []
        assert "duality_gap=0.0" in stdout.splitlines()
        lams = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert lams == [0.0] * 5

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

    @staticmethod
    def near_duplicate_data(tmp_path):
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1, 1, 40)
        x2 = x1 + 1e-5 * rng.normal(size=40)
        return write_csv(tmp_path / "data.csv", ["x1", "x2", "y"], [x1, x2, rng.normal(size=40)])

    def test_nonconvergence_exit_2_with_machine_output(self, tmp_path, capsys):
        data = self.near_duplicate_data(tmp_path)
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

    def test_spent_budget_above_scaled_bound_exits_2(self, tmp_path, capsys):
        # At the default tol, 100 sweeps leave a KKT violation of about
        # 8.6e-7: under 1e3 * tol, but above tol ||f_j||_n ||y||_n.
        data = self.near_duplicate_data(tmp_path)
        code, stdout, err = run_cli(
            ["fit", "--dict", "coordinate:2:-2,2", "--data", str(data), "--A", "0.01",
             "--max-sweeps", "100", "--out", str(tmp_path / "coef.csv")],
            capsys,
        )
        printed = dict(line.split("=", 1) for line in stdout.splitlines())
        assert code == 2 and printed["converged"] == "0" and printed["sweeps"] == "100"
        assert float(printed["kkt_residual"]) <= 1e3 * 1e-9
        assert "tol * ||f_j||_n * ||y||_n" in err

    def test_missing_y_column_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1\n0.5\n")
        code, _, _ = run_cli(
            ["fit", "--dict", "fourier:3", "--data", str(data), "--A", "1.0",
             "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1


class TestWriteErrors:
    """A failed atomic write exits 3 naming the path given, not its temp file."""

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", ["fit", "oracle"])
    def test_error_names_the_given_path(self, command, target, tmp_path, capsys):
        if target == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        else:
            out = tmp_path / "missing" / "c.csv"
        if command == "fit":
            data = write_csv(tmp_path / "data.csv", ["x1", "y"], [np.linspace(0, 1, 30)] * 2)
            args = ["fit", "--dict", "fourier:5", "--data", str(data), "--A", "1.0"]
        else:
            args = ["oracle", "--dict", "fourier:5", "--truth", "l0k:2", "--kmax", "2"]
        code, _, err = run_cli([*args, "--out", str(out)], capsys)
        assert code == 3
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and repr(str(out)) in errors[0]
        assert ".tmp-" not in err
        assert not [p for p in tmp_path.rglob(".tmp-*")]


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
        from l1agg import gram

        reports = []

        def spy(*args):
            reports.append(diagnostics(*args))
            return reports[-1]

        monkeypatch.setattr(gram, "diagnostics", spy)
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

    def test_eigensolver_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        def no_convergence(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        tab = write_tabulated(tmp_path / "tab.csv", 4)
        code, out, err = run_cli(["diagnose", "--dict", f"tabulated:{tab}"], capsys)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "error: kappa_M cannot be computed (Eigenvalues did not converge)"
        ]

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
        # take the quadrature path through oracle_path's search.
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
        problem = population_problem(dictionary, measure, truth)
        path = list(oracle_path(problem, range(7)))
        for (_, residual2, support, exact), (_, lam, _, _) in zip(rows, path):
            assert residual2 == repr(population_dist2(problem, lam))
            assert support == "|".join(str(j + 1) for j in sparsity(lam)[0])
            assert exact == "1"
        residuals = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))

        # The scan stops at the first k on the path with dist2 <= C_f r^2 M(lambda).
        r_nM = (residuals[2] / 2.0) ** 0.5
        first = next(k for k, lam, dist2, _ in path if dist2 <= r_nM * r_nM * sparsity(lam)[1])
        lam_star, _, _, found = oracle_scan(problem, r_nM)
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


class TestOnePopulationPass:
    def test_diagnose_evaluates_one_quadrature_design(self, tmp_path, capsys, design_shapes):
        tab = write_tabulated(tmp_path / "tab.csv", 6)
        grid = np.linspace(0.0, 1.0, 21)
        density = write_csv(tmp_path / "density.csv", ["x", "density"], [grid, 1.0 + grid * grid])
        code, out, err = run_cli(
            ["diagnose", "--dict", f"tabulated:{tab}", "--measure", f"density:{density}"], capsys
        )
        assert (code, err) == (0, "")
        assert "a2_norms=1" in out.splitlines()
        assert design_shapes == [(4096, 1)]

    def test_oracle_evaluates_the_quadrature_design_once(
        self, tmp_path, capsys, design_shapes, monkeypatch
    ):
        # Once per k used to be 24 designs for k = 0..12, and then 2 designs
        # with 13 predict calls on the 4096 quadrature nodes, one per k.
        import l1agg.dictionary
        import l1agg.oracles

        predicted = []
        predict = l1agg.dictionary.predict

        def spy(*args):
            predicted.append(args)
            return predict(*args)

        for module in (l1agg.dictionary, l1agg.oracles):
            monkeypatch.setattr(module, "predict", spy)
        tab = write_tabulated(tmp_path / "tab.csv", 12)
        x = np.linspace(0.0, 1.0, 21)
        truth = write_csv(tmp_path / "truth.csv", ["x", "f"], [x, np.exp(x)])
        args = ["oracle", "--dict", f"tabulated:{tab}", "--truth", f"tabulated:{truth}",
                "--out", str(tmp_path / "oracle.csv")]
        assert run_cli(args + ["--kmax", "12"], capsys)[0] == 0
        assert design_shapes == [(4096, 1)]
        assert predicted == []
        design_shapes.clear()
        assert run_cli(args + ["--kmax", "0"], capsys)[0] == 0
        assert design_shapes == []

    @pytest.mark.parametrize("value", [1e100, 1e160])
    def test_overflow_is_one_error_line(self, tmp_path, capsys, value):
        # At 1e100 the fourth moments overflow, at 1e160 the Gram itself;
        # either used to print numpy's overflow warning before the error.
        tab = write_csv(tmp_path / "tab.csv", ["x", "f1", "f2"],
                        [[0.0, 1.0], [value, value], [1.0, 2.0]])
        code, out, err = run_cli(["diagnose", "--dict", f"tabulated:{tab}"], capsys)
        assert (code, out) == (4, "")
        assert err.splitlines() == ["error: population Gram, L, c0 or L0 is not finite"]


class TestResourceLimits:
    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        # A huge request such as `diagnose --dict fourier:200000` used to end
        # in a numpy _ArrayMemoryError traceback.
        def too_large(*_):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr("l1agg.dictionary.population_constants", too_large)
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

        from l1agg import dictionary

        def warn_twice(*args):
            for _ in range(2):
                warnings.warn("quadrature is coarse", RuntimeWarning)
            return constants(*args)

        constants = dictionary.population_constants
        monkeypatch.setattr(dictionary, "population_constants", warn_twice)
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

    def test_rows_do_not_depend_on_blas_threads(self, tmp_path):
        # C10 across thread counts. Every fit of this dense grid takes its
        # Gram from one BLAS-3 product, as the mc_dense benchmark's do.
        written = []
        for name, extra_env in (("one-thread", {"OPENBLAS_NUM_THREADS": "1"}), ("inherited", {})):
            rows_csv = tmp_path / f"rows-{name}.csv"
            cfg = tmp_path / f"{name}.txt"
            cfg.write_text(
                "preset = linear\n"
                "n_values = 2048,8192\n"
                "m_rule = fixed:20\n"
                "k_or_beta = 20\n"
                "A = 4.0\n"
                "rate_kind = log_n\n"
                "R = 10\n"
                "seed = 5\n"
                "C_f = 1.0\n"
                f"out = {rows_csv}\n"
            )
            proc = run_cli_process(["experiment", "--config", str(cfg)], tmp_path, extra_env)
            assert proc.returncode == 0, proc.stderr
            written.append(rows_csv.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "written, summarized",
        [
            # k* reads 1, 1, 2, 2 at C_f = 1 and 3, 3, 4, 5 at C_f = 0.05.
            ("preset = fourier-sobolev\nn_values = 256,512,1024,2048\nm_rule = fixed:25\n"
             "k_or_beta = 1.0\nrate_kind = log_n\nC_f = 1.0\n", "C_f = 0.05"),
            ("preset = fourier-L0k\nn_values = 256,512,1024,2048\nm_rule = power:0.75\n"
             "k_or_beta = 3.0\nrate_kind = log_M\nC_f = 1.0\n", "rate_kind = log_n"),
        ],
        ids=["C_f", "rate_kind"],
    )
    def test_rows_from_another_config_are_refused(self, written, summarized, tmp_path, capsys):
        # Rows carry no C_f or rate_kind; they used to summarize under the
        # other value with exit 0, k* and r_nM taken from the config.
        rows_csv = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(written + f"A = 4.0\nR = 30\nseed = 0\nout = {rows_csv}\n")
        assert run_cli(["experiment", "--config", str(cfg)], capsys)[0] == 0
        other = tmp_path / "other.txt"
        other.write_text(cfg.read_text() + summarized + "\n")
        code, out, err = run_cli(
            ["summary", "--config", str(other), "--rows", str(rows_csv),
             "--out", str(tmp_path / "summary.csv")],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: row n = 256, seed = 0 is not from this config"]
        assert not (tmp_path / "summary.csv").exists()

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
    if case == "rate-logn-one-row":
        # log n = 0 at n = 1, so the rate and every weight would be 0.
        data = write("data.csv", "x1,y\n0.1,1.0\n")
        return fit(data, rate="logn"), "rate kind log_n needs n >= 2, got n = 1"
    if case == "rate-explicit-zero":
        # Used to add "(log_n needs n >= 2)" to the message of a rate that
        # is not log_n.
        return fit(good_data, rate="explicit:0"), "rate r_nM must be finite and positive, got 0.0"
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
    if case == "dict-coordinate-1":
        # Used to pass the builder's d >= 1 check and fail on the generic
        # "dictionaries need M >= 2 functions".
        return (["diagnose", "--dict", "coordinate:1"],
                "coordinate dictionaries need d >= 2 axes, got d = 1")
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
    if case.startswith("truth-"):
        # A non-finite coefficient or beta used to exit 0 (sobolev:inf kept
        # theta_1 only), exit 4 (nan) or print a numpy warning first
        # (theta:inf@2,1@1); an index given twice silently kept the last value.
        spec, location = {
            "truth-sobolev-inf": ("sobolev:inf", "beta must be finite"),
            "truth-sobolev-nan": ("sobolev:nan", "beta must be finite"),
            "truth-theta-nan": ("theta:nan@1", "finite 1-d coefficient vector"),
            "truth-theta-inf": ("theta:inf@2,1@1", "finite 1-d coefficient vector"),
            "truth-theta-twice": ("theta:1@1,2@1", "theta index 1 is given twice"),
        }[case]
        return ["oracle", "--dict", "fourier:5", "--truth", spec, "--kmax", "2",
                "--out", out], location
    if case in ("density-narrow", "density-wide"):
        # The clamped interpolant used to extend or cut the table: kappa_M
        # read 0.5521 (narrow) and 0.8935 (wide) with exit 0.
        x = "0.2,0.8" if case == "density-narrow" else "-1,2"
        dens = write("dens.csv", "x,density\n" + "".join(
            f"{v},{d}\n" for v, d in zip(x.split(","), (1, 3))))
        return (["diagnose", "--dict", "fourier:5", "--measure", f"density:{dens}"],
                "not the domain [0.0, 1.0]")
    if case == "fourier-truth-off-domain":
        # Used to blame the dictionary: evaluation points fall outside its domain.
        tab = write("tab.csv", "x,f1,f2\n0,1,0\n1,0,1\n2,1,1\n")
        argv = ["oracle", "--dict", f"tabulated:{tab}", "--truth", "theta:1@1", "--kmax", "1",
                "--out", out]
        return argv, "trigonometric truth is defined on [0, 1], not on the domain [0.0, 2.0]"
    if case == "tabulated-truth-narrow":
        # The clamped interpolant used to hold the truth constant on (0.5, 1], exit 0.
        truth = write("truth.csv", "x,f\n0,1\n0.5,2\n")
        return oracle(f"tabulated:{truth}"), "tabulated truth spans [0.0, 0.5], not the domain"
    if case in ("fit-A-nan-explicit", "fit-A-negative-explicit"):
        # An explicit rate does not read A, and a bad A used to fit with exit 0.
        A = "nan" if case == "fit-A-nan-explicit" else "-1"
        return fit(good_data, rate="explicit:1", dictionary="fourier:5", A=A), "A must be finite"
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
    if case == "config-m-rule-power-400":
        # floor(64^400) used to end in an OverflowError traceback from the
        # first cell.
        cfg = write("cfg.txt", CONFIG.replace("fixed:10", "power:400"))
        return (["experiment", "--config", cfg, "--out", out],
                f"{cfg}: m_rule 'power:400' overflows at n = 64")
    if case == "config-seed-negative":
        # Used to end in numpy's "expected non-negative integer" traceback.
        cfg = write("cfg.txt", CONFIG.replace("seed = 11", "seed = -1"))
        return ["experiment", "--config", cfg, "--out", out], f"{cfg}: seed must be nonnegative"
    if case == "config-A-overflow":
        # r_nM**2 used to end in an OverflowError traceback from theorem_rhs.
        cfg = write("cfg.txt", CONFIG.replace("A = 2.0", "A = 1e308"))
        return ["experiment", "--config", cfg, "--out", out], "theorem t21_risk"
    if case in ("fit-data-not-utf8", "config-not-utf8"):
        # A byte that does not decode used to end in a UnicodeDecodeError traceback.
        path = tmp_path / "latin1.txt"
        if case == "fit-data-not-utf8":
            path.write_bytes(b"x1,y\n0.1,1.0\n0.2,\xff\n")
            return fit(str(path)), f"{path}: not UTF-8 text"
        path.write_bytes(CONFIG.replace("R = 30", "R = 3\xb10").encode("latin-1"))
        return ["experiment", "--config", str(path), "--out", out], f"{path}: not UTF-8 text"
    if case == "oracle-truth-overflow":
        # d'Psi d overflowed: a numpy warning, residual2 = inf and exit 0.
        return (["oracle", "--dict", "fourier:4", "--truth", "theta:1e308@1,1e308@2",
                 "--kmax", "2", "--out", out], "is not finite")
    if case in ("fit-y-1e300", "fit-y-1e308"):
        # n^-1 ||y||^2 overflowed: numpy warnings, objective=inf and exit 0
        # (1e300), or an IndexError traceback from the exact finish (1e308).
        v = case.rsplit("-", 1)[1]
        data = write("data.csv", f"x1,y\n0.1,{v}\n0.2,{v}\n0.3,-{v}\n")
        return fit(data, rate="logM", dictionary="fourier:5", A="1"), "is not finite"
    if case == "summary-short-row":
        cfg = write("cfg.txt", CONFIG)
        rows = write("rows.csv", ROWS_HEADER + "fourier-L0k,64,10\n")
        return ["summary", "--config", cfg, "--rows", rows, "--out", out], f"{rows}:2"
    raise AssertionError(case)


# Malformed inputs whose error is numeric: exit 4, not 1.
NUMERIC_CASES = ("config-A-overflow", "oracle-truth-overflow", "fit-y-1e300", "fit-y-1e308")


class TestMalformedInput:
    @pytest.mark.parametrize(
        "case",
        [
            "fit-nonnumeric-y", "fit-ragged-row", "dict-fourier", "dict-coordinate-box",
            "dict-coordinate-1", "rate-explicit-zero",
            "rate-explicit", "support", "density-short-row", "density-zero",
            "tabulated-dict-nonnumeric",
            "tabulated-truth-short-row", "theta-index", "bounds-value", "config-value",
            "config-m-rule", "summary-short-row", "bounds-n-nan", "bounds-n-inf",
            "bounds-n-2.5", "bounds-M-nan", "bounds-M-inf", "bounds-M-2.5",
            "bounds-m_lambda-2.5", "bounds-unknown-key", "fit-tol-nan", "fit-tol-inf",
            "fit-max-sweeps-0", "fit-A-inf", "rate-explicit-inf", "rate-logn-one-row",
            "config-nonfinite-A-inf", "config-nonfinite-A-nan", "config-nonfinite-C_f-nan",
            "config-nonfinite-k_or_beta-nan", "config-m-rule-power-nan", "config-m-rule-power-inf",
            "config-m-rule-power-400",
            "support-0", "support-9", "oracle-kmin-above-M",
            "truth-sobolev-inf", "truth-sobolev-nan", "truth-theta-nan", "truth-theta-inf",
            "truth-theta-twice", "density-narrow", "density-wide", "fit-A-nan-explicit",
            "fourier-truth-off-domain", "tabulated-truth-narrow",
            "fit-A-negative-explicit", "config-seed-negative", "config-A-overflow",
            "fit-data-not-utf8", "config-not-utf8", "oracle-truth-overflow",
            "fit-y-1e300", "fit-y-1e308",
        ],
    )
    def test_one_error_line(self, case, tmp_path, capsys):
        argv, location = malformed_case(case, tmp_path)
        code, _, err = run_cli(argv, capsys)
        assert code == (4 if case in NUMERIC_CASES else 1)
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        if location is not None:
            assert location in lines[0]
        if case == "rate-explicit-zero":
            assert "log_n" not in err
        assert not os.path.exists(tmp_path / "out.csv")


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the file
    without it."""

    def twins(self, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return str(plain), str(marked)

    def test_points_csv(self, tmp_path, capsys):
        # Used to exit 1: "points CSV header must be x1,...,xd[,y]".
        out = tmp_path / "coef.csv"
        results = []
        for data in self.twins(tmp_path, "data.csv", "x1,y\n0.1,1.0\n0.2,2.0\n0.3,0.5\n"):
            argv = ["fit", "--dict", "fourier:3", "--data", data, "--A", "1", "--out", str(out)]
            results.append((*run_cli(argv, capsys), out.read_bytes()))
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_bounds_params(self, tmp_path, capsys):
        # Used to exit 1: "<path>:1: \ufeffn: unknown parameter".
        results = [
            run_cli(["bounds", "--params", params, "--which", "L4"], capsys)
            for params in self.twins(tmp_path, "params.txt", "n = 100\nM = 10\nc0 = 1\nL = 1\n")
        ]
        assert results[0][0] == 0
        assert results[1] == results[0]

    def test_experiment_config(self, tmp_path):
        # Used to raise "unknown config key '\ufeffpreset'".
        plain, marked = self.twins(tmp_path, "cfg.txt", CONFIG)
        assert load_config(marked) == load_config(plain)
