"""Dictionary construction, evaluation, norms, and validation."""

import math
import re
import warnings

import numpy as np
import pytest

from l1agg import (
    ConfigError,
    DictionaryError,
    DomainError,
    ShapeError,
    UnsupportedOperationError,
    build_coordinate,
    build_fourier,
    build_tabulated,
    empirical_norms,
    evaluate,
    fourier_truth,
    generate,
    grid_density_measure,
    linear_truth,
    load_points_csv,
    load_tabulated_csv,
    noiseless,
    population_gram,
    predict,
    sup_norm_error,
    uniform_measure,
    validate_a2,
)
from l1agg import dictionary as dictionary_module
from l1agg.dictionary import (
    SUP_GRID_POINTS,
    _fourier_grid,
    quadrature_grid,
    sup_norm_grid,
)

QUADRATURE_TOL = 1e-6


def _quadrature_column_norm(fn, n_nodes=200_001):
    """Independent high-resolution trapezoid oracle for int_0^1 f(x)^2 dx."""
    x = np.linspace(0.0, 1.0, n_nodes)
    return float(np.sqrt(np.trapezoid(fn(x) ** 2, x)))


class TestBuildFourier:
    def test_constant_function(self):
        d = build_fourier(3)
        assert evaluate(d, [0.7]).entries[0, 0] == 1.0

    def test_cosine_zero(self):
        d = build_fourier(3)
        # f_2(0.25) = sqrt(2) cos(pi/2) = 0
        assert evaluate(d, [0.25]).entries[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_sine_at_eighth(self):
        d = build_fourier(3)
        # f_3(0.125) = sqrt(2) sin(pi/4) = 1
        assert evaluate(d, [0.125]).entries[0, 2] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_small_m(self):
        with pytest.raises(DictionaryError):
            build_fourier(1)

    def test_even_m_ends_with_cosine(self):
        d = build_fourier(4)
        # f_4(x) = sqrt(2) cos(4 pi x)
        assert evaluate(d, [0.5]).entries[0, 3] == pytest.approx(math.sqrt(2))


class TestEvaluate:
    def test_fourier_rows(self):
        d = build_fourier(3)
        rows = evaluate(d, [0.0, 0.5]).entries
        np.testing.assert_allclose(
            rows,
            [[1.0, math.sqrt(2), 0.0], [1.0, -math.sqrt(2), 0.0]],
            atol=1e-12,
        )

    def test_coordinate_projection(self):
        d = build_coordinate(2, domain=[-10.0, 10.0])
        row = evaluate(d, [[4.0, -1.0]]).entries
        np.testing.assert_array_equal(row, [[4.0, -1.0]])

    def test_tabulated_interpolation(self):
        d = build_tabulated(
            [(np.array([0.0, 1.0]), np.array([0.0, 2.0]))] * 2, domain=[0.0, 1.0]
        )
        assert evaluate(d, [0.25]).entries[0, 0] == pytest.approx(0.5)

    def test_tabulated_clamps_and_warns(self):
        d = build_tabulated(
            [(np.array([0.0, 1.0]), np.array([0.0, 2.0]))] * 2, domain=[0.0, 1.0]
        )
        with pytest.warns(RuntimeWarning):
            out = evaluate(d, [1.0 + 1e-6]).entries
        assert out[0, 0] == pytest.approx(2.0)

    def test_tabulated_clamped_inside_domain_does_not_warn(self):
        # Inside its domain a tabulated function is its clamped interpolant,
        # so quadrature over tables narrower than the domain is silent.
        d = build_tabulated([(np.array([0.2, 0.4]), np.array([-5.0, 1.0]))] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_a2(d, uniform_measure())
            population_gram(d, uniform_measure())
            assert evaluate(d, [0.0, 1.0]).entries[:, 0].tolist() == [-5.0, 1.0]

    def test_dimension_mismatch(self):
        d = build_coordinate(3)
        with pytest.raises(ShapeError):
            evaluate(d, [[0.1, 0.2]])

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            evaluate(build_fourier(3), [1.5])

    def test_determinism_bit_identical(self):
        d = build_fourier(9)
        pts = np.random.default_rng(0).uniform(0, 1, 257)
        a = evaluate(d, pts).entries
        b = evaluate(d, pts).entries
        assert np.array_equal(a, b)

    def test_fourier_recurrence_matches_direct_trig(self):
        # The columns come from the angle-addition recurrence, whose error
        # grows with the frequency; at k = 2047 it stays below 1e-11.
        M = 4095
        x = np.linspace(0.0, 1.0, 10_001)
        got = evaluate(build_fourier(M), x).entries
        freq = 2.0 * np.pi * x[:, None] * np.arange(1, M // 2 + 1)
        assert np.all(got[:, 0] == 1.0)
        np.testing.assert_allclose(got[:, 1::2], math.sqrt(2) * np.cos(freq), rtol=0, atol=1e-11)
        np.testing.assert_allclose(got[:, 2::2], math.sqrt(2) * np.sin(freq), rtol=0, atol=1e-11)

    def test_fourier_predict_matches_direct_trig(self):
        # Complex Horner in z = exp(2 pi i x): its rounding error grows with
        # the degree, relative to the coefficients' l1 norm.
        M = 4095
        theta = np.random.default_rng(5).normal(size=M)
        x = np.linspace(0.0, 1.0, 10_001)
        freq = 2.0 * np.pi * x[:, None] * np.arange(1, M // 2 + 1)
        direct = theta[0] + math.sqrt(2) * (
            np.cos(freq) @ theta[1::2] + np.sin(freq) @ theta[2::2]
        )
        got = predict(build_fourier(M), theta, x)
        tol = 1e-12 * math.sqrt(2) * np.abs(theta).sum()
        np.testing.assert_allclose(got, direct, rtol=0, atol=tol)

    @pytest.mark.parametrize("m", [8, 9], ids=["ends-cos", "ends-sin"])
    def test_fourier_predict_ignores_trailing_zeros(self, m):
        lam = np.random.default_rng(m).normal(size=m)
        padded = np.concatenate([lam, np.zeros(12)])
        x = np.linspace(0.0, 1.0, 257)
        np.testing.assert_array_equal(
            predict(build_fourier(m + 12), padded, x), predict(build_fourier(m), lam, x)
        )

    def test_fourier_grid_folds_frequencies_above_n(self):
        # Frequencies up to 3N land on the N-point inverse FFT by k mod N;
        # unfolded, they would be off by O(1).
        N = 64
        coef = np.random.default_rng(7).normal(size=6 * N + 1)
        x = np.arange(N) / N
        freq = 2.0 * np.pi * x[:, None] * np.arange(1, 3 * N + 1)
        direct = coef[0] + math.sqrt(2) * (np.cos(freq) @ coef[1::2] + np.sin(freq) @ coef[2::2])
        tol = 1e-12 * math.sqrt(2) * np.abs(coef).sum()
        np.testing.assert_allclose(_fourier_grid(coef, N), direct, rtol=0, atol=tol)

    @pytest.mark.parametrize(
        "dictionary, points",
        [
            (build_fourier(6), np.linspace(0.0, 1.0, 9)),
            (build_coordinate(3), np.full((9, 3), 0.5)),
            (build_tabulated([(np.array([0.0, 1.0]), np.array([1.0, 2.0]))] * 3), np.full(9, 0.5)),
        ],
        ids=["fourier", "coordinate", "tabulated"],
    )
    def test_entries_column_major(self, dictionary, points):
        assert evaluate(dictionary, points).entries.flags.f_contiguous


class TestEmpiricalNorms:
    def test_constant_column(self):
        d = build_fourier(2)
        design = evaluate(d, np.zeros(5) + 0.25)
        assert empirical_norms(design)[0] == 1.0

    def test_hand_column(self):
        d = build_coordinate(2, domain=[-10.0, 10.0])
        design = evaluate(d, [[3.0, 0.0], [4.0, 0.0]])
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        assert empirical_norms(design)[0] == pytest.approx(math.sqrt(12.5))

    def test_fourier_grid_norms_near_one(self):
        # Quadrature oracle: int f_j^2 dx = 1 for every basis function.
        d = build_fourier(3)
        oracles = [
            _quadrature_column_norm(lambda x: np.ones_like(x)),
            _quadrature_column_norm(lambda x: np.sqrt(2) * np.cos(2 * np.pi * x)),
            _quadrature_column_norm(lambda x: np.sqrt(2) * np.sin(2 * np.pi * x)),
        ]
        np.testing.assert_allclose(oracles, 1.0, atol=1e-9)
        norms = empirical_norms(evaluate(d, np.linspace(0, 1, 1000)))
        assert np.all(np.abs(norms - 1.0) < 0.05)

    def test_no_hidden_normalization(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, 41)
        design = evaluate(build_fourier(5), pts)
        norms = empirical_norms(design)
        np.testing.assert_allclose(
            norms**2 * design.n,
            (design.entries**2).sum(axis=0),
            rtol=1e-12,
        )


class TestValidateA2:
    def test_fourier_uniform(self):
        v = validate_a2(build_fourier(3), uniform_measure())
        assert v.L == pytest.approx(math.sqrt(2), abs=QUADRATURE_TOL)
        assert v.c0 == pytest.approx(1.0, abs=QUADRATURE_TOL)
        assert v.satisfied

    def test_zero_column_fails_norm_flag(self):
        # Second coordinate is pinned at 0, so f_2 is the zero function.
        d = build_coordinate(2, domain=np.array([[0.0, 1.0], [0.0, 0.0]]))
        v = validate_a2(d, uniform_measure())
        assert v.c0 == 0.0
        assert not v.norms_ok

    def test_tabulated_constants(self):
        grid = np.array([0.0, 1.0])
        d = build_tabulated([(grid, np.array([2.0, 2.0]))] * 2, domain=[0.0, 1.0])
        v = validate_a2(d, uniform_measure())
        assert v.L == pytest.approx(2.0)
        assert v.c0 == pytest.approx(2.0, abs=1e-9)
        assert v.L0 == pytest.approx(16.0, rel=1e-9)

    def test_remark1_bound(self):
        for d in (build_fourier(7), build_coordinate(3, domain=[-2.0, 2.0])):
            v = validate_a2(d, uniform_measure())
            assert v.L0 <= v.L**4 + 1e-9

    def test_coordinate_sup_norm_uses_first_m_axes(self):
        box = [[-2.0, 1.0], [0.5, 3.0]]
        v = validate_a2(build_coordinate(2, domain=box), uniform_measure())
        assert v.L == 3.0

    def test_tabulated_sup_norm_matches_dense_scan(self):
        # The first table extends past the domain, the second is clamped on
        # both sides, and the third peaks at a node off the scan grid.
        d = build_tabulated(
            [
                (np.array([-0.5, 0.3, 0.6, 1.5]), np.array([10.0, -1.0, 0.5, 8.0])),
                (np.array([0.2, 0.4]), np.array([-5.0, 1.0])),
                (np.array([0.0, 1.0 / 3.0, 1.0]), np.array([0.0, 6.0, 0.0])),
            ],
            domain=[0.0, 1.0],
        )
        phi = evaluate(d, np.linspace(0.0, 1.0, 400_001)).entries
        scan = np.abs(phi).max(axis=0)
        exact = [validate_a2(build_tabulated([t, t]), uniform_measure()).L for t in d.tables]
        np.testing.assert_allclose(exact, scan, rtol=1e-4)
        assert np.all(np.asarray(exact) >= scan)
        assert exact[2] == 6.0
        assert validate_a2(d, uniform_measure()).L == max(exact)


class TestFourierOrthonormality:
    @pytest.mark.parametrize("M", [2, 5, 17, 65])
    def test_quadrature_gram_is_identity(self, M):
        psi = population_gram(build_fourier(M), uniform_measure())
        assert np.max(np.abs(psi - np.eye(M))) < 10 * QUADRATURE_TOL

    def test_uniform_gram_exact_when_m_reaches_g(self, monkeypatch):
        # Trapezoid quadrature on G = 64 nodes would alias frequency pairs
        # summing to G - 1; the uniform Gram is exact instead.
        monkeypatch.setattr(dictionary_module, "QUADRATURE_POINTS", 64)
        psi = population_gram(build_fourier(64), uniform_measure())
        np.testing.assert_array_equal(psi, np.eye(64))

    def test_density_measure_rejects_aliasing_size(self, monkeypatch):
        monkeypatch.setattr(dictionary_module, "QUADRATURE_POINTS", 64)
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        for call in (population_gram, quadrature_grid):
            with pytest.raises(ConfigError):
                call(build_fourier(63), flat)
        psi = population_gram(build_fourier(62), flat)
        assert np.max(np.abs(psi - np.eye(62))) < 1e-12


class TestGridDensityMeasure:
    def ramp(self):
        grid = np.linspace(0.0, 1.0, 1001)
        return grid_density_measure(grid, 3.0 * (1.0 + grid))  # normalises to 2(1 + x)/3

    def test_density_normalised(self):
        measure = self.ramp()
        grid, density = measure.density_table
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(density, 2.0 * (1.0 + grid) / 3.0, atol=1e-12)

    @pytest.mark.parametrize("density", [[1.0, 0.0, 1.0], [1.0, -1.0, 1.0]])
    def test_nonpositive_density_rejected(self, density):
        with pytest.raises(ConfigError, match="density values must be positive"):
            grid_density_measure([0.0, 0.5, 1.0], density)

    def test_unsorted_density_table_rejected(self):
        # Used to be accepted, and interpolated as if sorted.
        with pytest.raises(ShapeError, match="density table abscissae must be strictly increasing"):
            grid_density_measure([0.0, 0.6, 0.3, 1.0], [1.0, 2.0, 1.0, 3.0])

    def test_quadrature_weights_sum_to_one(self):
        _, w = quadrature_grid(build_fourier(5), self.ramp())
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)

    def test_inverse_cdf_sampling_mean(self):
        n = 200_000
        sample = generate(
            build_fourier(3), fourier_truth([0.0]), self.ramp(), noiseless(), n, seed=0
        )
        # Density 2(1 + x)/3 on [0, 1]: mean 5/9, variance 13/162.
        assert sample.x.mean() == pytest.approx(5.0 / 9.0, abs=5.0 * math.sqrt(13.0 / 162.0 / n))

    def test_flat_density_matches_exact_fourier_constants(self):
        d = build_fourier(9)
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(population_gram(d, flat), np.eye(9), rtol=0.0, atol=1e-9)
        exact = validate_a2(d, uniform_measure())
        quad = validate_a2(d, flat)
        assert (exact.L, exact.c0, exact.L0) == (math.sqrt(2.0), 1.0, 1.5)
        assert quad.c0 == pytest.approx(exact.c0, abs=1e-9)
        assert quad.L0 == pytest.approx(exact.L0, abs=1e-9)


class TestOneDimensionalGrids:
    @pytest.mark.parametrize("box", [[0.0, 1.0], [-0.3, 2.7]])
    def test_product_grid_is_the_plain_trapezoid(self, box, monkeypatch):
        monkeypatch.setattr(dictionary_module, "QUADRATURE_POINTS", 64)
        t = np.array(box)
        d = build_tabulated([(t, t), (t, 1.0 - t)], domain=box)
        np.testing.assert_array_equal(sup_norm_grid(d), np.linspace(*box, SUP_GRID_POINTS)[:, None])
        pts, w = quadrature_grid(d, uniform_measure())
        h = (box[1] - box[0]) / 63
        trapezoid = np.full(64, h)
        trapezoid[[0, -1]] *= 0.5
        np.testing.assert_array_equal(pts, np.linspace(*box, 64)[:, None])
        np.testing.assert_allclose(w, trapezoid / (box[1] - box[0]), rtol=1e-15, atol=0.0)


class TestGridBudget:
    # Grids span one axis; a coordinate dictionary with d > 1 has none.
    def test_sup_norm_scan_refuses_d_above_one(self):
        d = build_coordinate(20)
        with pytest.raises(UnsupportedOperationError):
            sup_norm_error(d, linear_truth(np.ones(20)), np.zeros(20))

    def test_quadrature_refuses_d_above_one(self):
        with pytest.raises(UnsupportedOperationError):
            quadrature_grid(build_coordinate(20), uniform_measure())

    def test_density_measure_refuses_d_above_one(self):
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(UnsupportedOperationError, match="grids span one axis"):
            population_gram(build_coordinate(2), flat)

    def test_closed_forms_need_no_grid(self):
        v = validate_a2(build_coordinate(20, domain=[-1.0, 1.0]), uniform_measure())
        assert (v.L, v.c0, v.L0) == (1.0, math.sqrt(1.0 / 3.0), 0.2)


class TestCsvLoaders:
    def test_tabulated_roundtrip(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("x,f1,f2\n0.0,0.0,1.0\n0.5,1.0,1.0\n1.0,2.0,1.0\n")
        d = load_tabulated_csv(path)
        assert d.M == 2
        out = evaluate(d, [0.25]).entries
        np.testing.assert_allclose(out, [[0.5, 1.0]])

    def test_points_with_response(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.5\n0.3,0.4,-2.0\n")
        pts, y = load_points_csv(path)
        np.testing.assert_allclose(pts, [[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_allclose(y, [1.5, -2.0])

    def test_points_without_response(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1\n0.25\n0.75\n")
        pts, y = load_points_csv(path)
        assert y is None
        assert pts.shape == (2, 1)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ShapeError):
            load_points_csv(path)

    @pytest.mark.parametrize("loader", [load_points_csv, load_tabulated_csv])
    @pytest.mark.parametrize(
        "body, line",
        [
            ("0.1,1.0\n0.2,abc\n", 3),  # non-numeric cell
            ("0.1,1.0\n\n0.2\n", 4),  # ragged row, after a blank line
            ("0.1,1.0,2.0\n", 2),  # row wider than the header
        ],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, loader, body, line):
        header = "x1,y\n" if loader is load_points_csv else "x,f1\n"
        path = tmp_path / "table.csv"
        path.write_text(header + body)
        with pytest.raises(ShapeError, match=re.escape(f"{path}:{line}: ")):
            loader(path)

    @pytest.mark.parametrize("loader", [load_points_csv, load_tabulated_csv])
    def test_no_data_rows(self, tmp_path, loader):
        path = tmp_path / "table.csv"
        path.write_text("x1,y\n" if loader is load_points_csv else "x,f1\n")
        with pytest.raises(ShapeError, match="no data rows"):
            loader(path)


class TestInvariants:
    def test_coordinate_requires_m_eq_d(self):
        from l1agg.dictionary import Dictionary

        box = np.tile([0.0, 1.0], (3, 1))
        for M in (2, 4):
            with pytest.raises(DictionaryError, match="M = d"):
                Dictionary(kind="coordinate", M=M, d=3, domain=box)

    def test_tabulated_grid_strictly_increasing(self):
        bad = [(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))] * 2
        with pytest.raises(DictionaryError):
            build_tabulated(bad)

    def test_fourier_nonunit_domain_rejected(self):
        from l1agg.dictionary import Dictionary

        with pytest.raises(DictionaryError):
            Dictionary(kind="fourier", M=3, d=1, domain=np.array([[0.0, 2.0]]))
