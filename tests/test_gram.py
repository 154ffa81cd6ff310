"""Gram matrices, kappa, mutual coherence, and the entrywise deviation."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1agg import (
    DegenerateDictionaryError,
    NumericError,
    ShapeError,
    build_fourier,
    coherence,
    diagnostics,
    empirical_gram,
    evaluate,
    kappa,
    population_gram,
    uniform_measure,
)
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
        rho, rho_lambda = coherence(psi, [0])
        assert rho[0, 1] == pytest.approx(1.0)
        assert rho_lambda == pytest.approx(1.0)

    def test_scaled_identity_design(self):
        M = 4
        entries = np.sqrt(M) * np.eye(M)
        psi = empirical_gram(type("D", (), {"entries": entries, "n": M, "M": M})())
        np.testing.assert_allclose(psi, np.eye(M), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            diagnostics(np.eye(3), (), np.eye(4))


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

    @given(rho=st.floats(-0.999, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_two_by_two_closed_form(self, rho):
        psi = np.array([[1.0, rho], [rho, 1.0]])
        assert kappa(psi) == pytest.approx(1.0 - abs(rho), abs=1e-12)


class TestCoherence:
    def test_identity_any_support(self):
        _, rho_lambda = coherence(np.eye(6), [0, 3, 5])
        assert rho_lambda == 0.0

    def test_single_off_diagonal(self):
        psi = np.eye(3)
        psi[0, 1] = psi[1, 0] = 0.5
        _, rho_lambda = coherence(psi, [0])
        assert rho_lambda == pytest.approx(0.5)

    def test_off_support_correlations_ignored(self):
        # Near-collinear pair entirely outside the support leaves
        # rho(lambda) untouched.
        psi = np.eye(4)
        psi[2, 3] = psi[3, 2] = 0.999
        psi[0, 1] = psi[1, 0] = 0.1
        _, rho_lambda = coherence(psi, [0])
        assert rho_lambda == pytest.approx(0.1)

    def test_empty_support(self):
        _, rho_lambda = coherence(np.eye(3), [])
        assert rho_lambda == 0.0

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        psi = random_psd(rng, 5)
        rho_before, rl_before = coherence(psi, [1, 2])
        t = 3.7
        scaled = psi.copy()
        scaled[2, :] *= t
        scaled[:, 2] *= t
        rho_after, rl_after = coherence(scaled, [1, 2])
        np.testing.assert_allclose(rho_after, rho_before, atol=1e-12)
        assert rl_after == pytest.approx(rl_before, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError):
            coherence(np.empty((0, 0)), [])


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
