"""Gram matrices, kappa, mutual coherence, and the entrywise deviation."""

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1agg import (
    DegenerateDictionaryError,
    DesignMatrix,
    ExperimentConfig,
    NumericError,
    ShapeError,
    build_coordinate,
    build_fourier,
    build_tabulated,
    coherence,
    diagnostics,
    empirical_gram,
    evaluate,
    kappa,
    oracle_path,
    population_gram,
    uniform_measure,
)
from l1agg import gram, oracles
from l1agg.dictionary import PopulationConstants
from l1agg.experiments import cell_context
from l1agg.gram import write_gram_csv


def kappa_bisection_oracle(psi, tol=1e-12):
    """Independent oracle: bisection on kappa with a dense PSD check."""
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


def random_psd(rng, M):
    b = rng.normal(size=(M + 3, M))
    return b.T @ b / (M + 3)


class TestGramPair:
    def test_fourier_population_identity(self):
        d = build_fourier(3)
        psi = population_gram(d, uniform_measure())
        assert np.max(np.abs(psi - np.eye(3))) < 1e-6

    def test_identical_columns_perfectly_correlated(self):
        entries = np.tile(np.arange(1.0, 6.0)[:, None], (1, 2))
        psi = empirical_gram(
            type("D", (), {"entries": entries, "n": 5, "M": 2})()
        )
        assert coherence(psi, [0]) == pytest.approx(1.0)

    def test_scaled_identity_design(self):
        M = 4
        entries = np.sqrt(M) * np.eye(M)
        psi = empirical_gram(type("D", (), {"entries": entries, "n": M, "M": M})())
        np.testing.assert_allclose(psi, np.eye(M), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            diagnostics(np.eye(3), (), np.eye(4))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 57])
    def test_both_producers_are_exactly_symmetric(self, order, n):
        # kappa's eigvalsh reads only the lower triangle, so neither Gram
        # may differ from its transpose in any bit.
        M = 130
        rng = np.random.default_rng(n)
        entries = np.asarray(rng.normal(size=(n, M)) * rng.uniform(0.1, 10.0, M), order=order)
        psi = empirical_gram(DesignMatrix(n=n, M=M, entries=entries))
        assert np.array_equal(psi, psi.T)
        grid = np.linspace(0.0, 1.0, n + 1)
        tables = [(grid, rng.normal(size=grid.size)) for _ in range(M)]
        constants = PopulationConstants(build_tabulated(tables), uniform_measure())
        # The quadrature design comes from evaluate in F order; the cached
        # value is replaced to try the other order too.
        vars(constants)["design"] = np.asarray(constants.design, order=order)
        assert np.array_equal(constants.psi, constants.psi.T)


class TestKappa:
    def test_identity(self):
        assert kappa(np.eye(5)) == pytest.approx(1.0)

    def test_two_by_two(self):
        psi = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert kappa(psi) == pytest.approx(0.7, abs=1e-12)

    def test_random_psd_vs_bisection(self):
        rng = np.random.default_rng(42)
        psi = random_psd(rng, 6)
        assert kappa(psi) == pytest.approx(kappa_bisection_oracle(psi), abs=1e-10)

    def test_nonpositive_diagonal_rejected(self):
        psi = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateDictionaryError):
            kappa(psi)

    def test_unit_diagonal_residual_eigenvalue(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = random_psd(rng, 8)
            d = np.sqrt(np.diag(psi))
            corr = psi / np.outer(d, d)
            k = kappa(corr)
            smallest = np.linalg.eigvalsh(corr - k * np.eye(8))[0]
            assert -1e-10 <= smallest <= 1e-10

    def test_diagonal_gram_needs_no_lapack(self, monkeypatch):
        # The three presets have an exactly diagonal population Gram, so
        # cell_context reads kappa_M without eigvalsh; a box with nonzero
        # cross-moments still gets the LAPACK value.
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for preset, m_rule, k in (
            ("linear", "fixed:20", 20),
            ("fourier-L0k", "power:0.75", 3),
            ("fourier-sobolev", "fixed:25", 1.0),
        ):
            config = ExperimentConfig(preset=preset, n_values=(256,), m_rule=m_rule,
                                      k_or_beta=k, A=4.0, rate_kind="log_n", R=30, seed=0)
            assert cell_context(config, 0).kappa_M == 1.0
        assert calls == []

        psi = population_gram(build_coordinate(7, domain=[-3.0, 0.5]), uniform_measure())
        scale = 1.0 / np.sqrt(np.diag(psi))
        normalized = psi * np.outer(scale, scale)
        expected = float(eigvalsh(0.5 * (normalized + normalized.T))[0])
        assert kappa(psi) == max(expected, 0.0)
        assert calls == [(7, 7)]

    def test_diagonal_gram_keeps_the_lapack_bits(self):
        rng = np.random.default_rng(17)
        for M in (1, 2, 9, 304):
            psi = np.diag(rng.uniform(1e-3, 1e3, M))
            scale = 1.0 / np.sqrt(np.diag(psi))
            normalized = psi * np.outer(scale, scale)
            assert kappa(psi) == max(float(np.linalg.eigvalsh(normalized)[0]), 0.0)

    @given(rho=st.floats(-0.999, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_two_by_two_closed_form(self, rho):
        psi = np.array([[1.0, rho], [rho, 1.0]])
        assert kappa(psi) == pytest.approx(1.0 - abs(rho), abs=1e-12)

    @pytest.mark.parametrize(
        "psi", [[[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]], [[1, 2], [2, 1]]]
    )
    def test_indefinite_refused(self, psi):
        # Both read kappa = 0; their smallest scaled eigenvalues are -0.8 and -1.
        with pytest.raises(NumericError, match="not positive semi-definite"):
            kappa(psi)

    def test_singular_clamps_to_zero(self):
        assert kappa(np.ones((3, 3))) == 0.0

    def test_eigensolver_failure_is_a_numeric_error(self, monkeypatch):
        # eigvalsh's LinAlgError used to escape the library's errors.
        def no_convergence(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(NumericError, match="kappa_M cannot be computed"):
            kappa(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_identity_needs_no_matrix_temporaries(self):
        # Scaling np.eye(2048) and comparing it with its diagonal peaked at 71 MB.
        psi = np.eye(2048)
        tracemalloc.start()
        try:
            assert kappa(psi) == 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def disjoint_hats_gram(M=8):
    """Quadrature Psi of hats on disjoint intervals of [0, 1]: every node
    meets at most one of them, so Psi is exactly diagonal."""
    grid = np.linspace(0.0, 1.0, M * 16 + 1)
    tables = [(grid, (1.0 + 0.3 * j) * np.maximum(0.0, 1.0 - np.abs(grid * M - (j + 0.5)) * 2.0))
              for j in range(M)]
    return population_gram(build_tabulated(tables), uniform_measure())


def tiny_off_diagonal():
    psi = np.eye(3)
    psi[0, 1] = psi[1, 0] = 1e-300
    return psi


class TestOneDiagonalTest:
    """kappa, coherence and oracle_path decide "Psi is exactly diagonal" by
    one test."""

    CASES = {
        "identity": (lambda: np.eye(6), None),
        "centred box": (
            lambda: population_gram(build_coordinate(5, domain=[-1.0, 1.0]), uniform_measure()),
            None,
        ),
        "disjoint hats": (disjoint_hats_gram, None),
        "1e-300 pair": (tiny_off_diagonal, None),
        "zero diagonal": (
            lambda: np.diag([1.0, 0.0, 2.0]), (DegenerateDictionaryError, "zero norm$")
        ),
        "negative diagonal": (
            lambda: np.diag([1.0, -1.0, 2.0]), (DegenerateDictionaryError, "zero norm$")
        ),
        "nan off-diagonal": (
            lambda: np.where(np.eye(3) == 1, 1.0, np.nan), (NumericError, "non-finite")
        ),
        "non-square": (lambda: np.eye(2, 3), (ShapeError, "nonempty and square")),
    }

    def test_kappa_skips_lapack_where_the_oracle_is_closed_form(self, monkeypatch):
        eigvalsh, lapack, searched = np.linalg.eigvalsh, [], []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: lapack.append(1) or eigvalsh(a))

        def search(psi, g, f2, k):
            searched.append(k)
            return np.zeros(g.size), True

        monkeypatch.setattr(oracles, "_oracle_search", search)
        closed = set()
        for name, (build, error) in self.CASES.items():
            psi = build()
            lapack.clear()
            searched.clear()
            if error is None:
                scale = 1.0 / np.sqrt(np.diag(psi))
                normalized = psi * np.outer(scale, scale)
                expected = max(float(eigvalsh(0.5 * (normalized + normalized.T))[0]), 0.0)
                assert kappa(psi) == expected, name
            else:
                with pytest.raises(error[0], match=error[1]):
                    kappa(psi)
            M = psi.shape[0]
            problem = SimpleNamespace(dictionary=SimpleNamespace(M=M), psi=psi, g=np.ones(M),
                                      f2=float(M), theta=None, tail=0.0)
            (_, _, _, exact), = oracle_path(problem, [1])
            assert exact and (error is None and not lapack) == (not searched), name
            if not searched:
                closed.add(name)
        assert closed == {"identity", "centred box", "disjoint hats"}

    def test_coherence_skips_scaling_where_kappa_skips_lapack(self, monkeypatch):
        # coherence used to scale every Psi to unit diagonal, diagonal or not.
        unit_diagonal, scaled = gram._unit_diagonal, []
        monkeypatch.setattr(
            gram, "_unit_diagonal", lambda psi: scaled.append(1) or unit_diagonal(psi)
        )
        closed = set()
        for name, (build, error) in self.CASES.items():
            psi = build()
            scaled.clear()
            if error is None:
                off = np.abs(unit_diagonal(psi)[0])
                off[0] = 0.0
                assert coherence(psi, [0]) == min(float(off.max()), 1.0), name
            else:
                with pytest.raises(error[0], match=error[1]):
                    coherence(psi, [0])
            if not scaled:
                closed.add(name)
        assert closed == {"identity", "centred box", "disjoint hats"}


class TestCoherence:
    def test_identity_any_support(self):
        assert coherence(np.eye(6), [0, 3, 5]) == 0.0

    def test_single_off_diagonal(self):
        psi = np.eye(3)
        psi[0, 1] = psi[1, 0] = 0.5
        assert coherence(psi, [0]) == pytest.approx(0.5)

    def test_off_support_correlations_ignored(self):
        # Near-collinear pair entirely outside the support leaves
        # rho(lambda) untouched.
        psi = np.eye(4)
        psi[2, 3] = psi[3, 2] = 0.999
        psi[0, 1] = psi[1, 0] = 0.1
        assert coherence(psi, [0]) == pytest.approx(0.1)

    def test_empty_support(self):
        assert coherence(np.eye(3), []) == 0.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        psi = random_psd(rng, 5)
        rl_before = coherence(psi, [1, 2])
        t = 3.7
        scaled = psi.copy()
        scaled[2, :] *= t
        scaled[:, 2] *= t
        assert coherence(scaled, [1, 2]) == pytest.approx(rl_before, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            coherence(np.empty((0, 0)), [])

    def test_identity_needs_no_matrix_temporaries(self):
        # Scaling np.eye(2048) to unit diagonal peaked at 64 MB.
        psi = np.eye(2048)
        tracemalloc.start()
        try:
            assert coherence(psi, [1, 5]) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("support", [[1, 4], [-1, 2]])
    def test_diagonal_gram_still_checks_the_support(self, support):
        with pytest.raises(ShapeError, match=r"support indices must lie in \[0, 4\)"):
            coherence(np.diag([1.0, 2.0, 3.0, 4.0]), support)


class TestEta:
    def test_equal_matrices(self):
        assert diagnostics(np.eye(3), (), np.eye(3)).eta_nM == 0.0

    def test_single_perturbed_entry(self):
        psi_n = np.eye(3)
        psi_n[0, 1] = psi_n[1, 0] = 0.02
        assert diagnostics(np.eye(3), (), psi_n).eta_nM == pytest.approx(0.02)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        psi = random_psd(rng, 4)
        assert diagnostics(psi, (), psi.copy()).eta_nM == 0.0
        bumped = psi.copy()
        bumped[1, 2] += 1e-9
        bumped[2, 1] += 1e-9
        assert diagnostics(psi, (), bumped).eta_nM > 0.0

    def test_monte_carlo_concentration(self):
        # eta < 0.1 in at least 99 of 100 seeds at n = 1e4, matching the
        # Bernstein control of the entrywise deviation.
        d = build_fourier(5)
        psi = population_gram(d, uniform_measure())
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            design = evaluate(d, rng.uniform(0, 1, 10_000))
            hits += diagnostics(psi, (), empirical_gram(design)).eta_nM < 0.1
        assert hits >= 99


class TestGramRule:
    # kappa and coherence check their matrix by one rule, with one message
    # per breach.
    @pytest.mark.parametrize("check", [kappa, lambda psi: coherence(psi, [0])])
    def test_non_symmetric_rejected(self, check):
        psi = np.eye(3)
        psi[0, 1] = 0.1
        with pytest.raises(NumericError, match="not symmetric"):
            check(psi)

    @pytest.mark.parametrize("check", [kappa, lambda psi: coherence(psi, [0])])
    def test_non_finite_rejected(self, check):
        psi = np.eye(3)
        psi[2, 2] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            check(psi)

    @pytest.mark.parametrize("check", [kappa, lambda psi: coherence(psi, [0])])
    def test_zero_diagonal_message(self, check):
        with pytest.raises(DegenerateDictionaryError, match="has zero norm$"):
            check(np.diag([1.0, 0.0]))


class TestDiagnostics:
    def test_population_only(self):
        report = diagnostics(np.eye(4), [1])
        assert (report.kappa_M, report.rho_lambda) == (1.0, 0.0)
        assert report.eta_nM is None and report.rho_lambda_empirical is None

    def test_zero_empirical_diagonal_has_no_empirical_rho(self):
        report = diagnostics(np.eye(2), [0], np.diag([1.0, 0.0]))
        assert report.eta_nM == 1.0 and report.rho_lambda_empirical is None

    def test_report_fields(self):
        d = build_fourier(4)
        design = evaluate(d, np.random.default_rng(1).uniform(0, 1, 500))
        report = diagnostics(population_gram(d, uniform_measure()), [1], empirical_gram(design))
        assert report.kappa_M == pytest.approx(1.0, abs=1e-6)
        assert report.rho_lambda < 1e-6
        assert report.eta_nM > 0.0
        assert report.rho_lambda_empirical is not None


class TestWriteGramCsv:
    def test_lf_line_ends(self, tmp_path):
        path = tmp_path / "psi.csv"
        write_gram_csv(path, np.eye(2))
        assert path.read_bytes() == b"j1,j2\n1.0,0.0\n0.0,1.0\n"

    def test_failed_write_leaves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "psi.csv"
        path.write_text("previous\n")

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_gram_csv(path, np.eye(3))
        monkeypatch.undo()
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["psi.csv"]
