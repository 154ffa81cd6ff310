"""Dictionary construction, evaluation, norms, and population constants."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from l1agg import (
    ConfigError,
    DesignMatrix,
    NumericError,
    build_coordinate,
    build_fourier,
    build_tabulated,
    empirical_norms,
    evaluate,
    grid_density_measure,
    linear_truth,
    load_points_csv,
    load_tabulated_csv,
    population_constants,
    population_gram,
    predict,
    sup_norm_error,
    uniform_measure,
)
from l1agg import dictionary as dictionary_module
from l1agg.dictionary import (
    FOURIER_SUM_BUDGET,
    SUP_GRID_POINTS,
    Dictionary,
    MeasureSpec,
    _fourier_grid,
    quadrature_grid,
    sup_norm_grid,
)

QUADRATURE_TOL = 1e-6
OUTSIDE = "evaluation points fall outside the dictionary domain"


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
        with pytest.raises(ConfigError, match="dictionaries need M >= 2 functions"):
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
            population_constants(d, uniform_measure())
            assert evaluate(d, [0.0, 1.0]).entries[:, 0].tolist() == [-5.0, 1.0]

    def test_dimension_mismatch(self):
        d = build_coordinate(3)
        with pytest.raises(ConfigError, match=r"points shape \(1, 2\) does not match .* d = 3"):
            evaluate(d, [[0.1, 0.2]])
        with pytest.raises(ConfigError, match="points are 1-d but the dictionary has d = 3"):
            evaluate(d, [0.1, 0.2, 0.3])

    def test_three_dimensional_points_refused(self):
        message = "points shape (2, 1, 1) does not match dictionary dimension d = 1"
        with pytest.raises(ConfigError, match=re.escape(message)):
            evaluate(build_fourier(3), np.zeros((2, 1, 1)))

    def test_outside_domain_rejected(self):
        with pytest.raises(ConfigError, match=OUTSIDE):
            evaluate(build_fourier(3), [1.5])

    def test_determinism_bit_identical(self):
        d = build_fourier(9)
        pts = np.random.default_rng(0).uniform(0, 1, 257)
        a = evaluate(d, pts).entries
        b = evaluate(d, pts).entries
        assert np.array_equal(a, b)

    def test_fourier_recurrence_matches_direct_trig(self):
        # The columns come from a recurrence over the frequencies, whose error
        # grows with the frequency; at k = 2047 it stays below 1e-11.
        M = 4095
        x = np.linspace(0.0, 1.0, 10_001)
        got = evaluate(build_fourier(M), x).entries
        freq = 2.0 * np.pi * x[:, None] * np.arange(1, M // 2 + 1)
        assert np.all(got[:, 0] == 1.0)
        np.testing.assert_allclose(got[:, 1::2], math.sqrt(2) * np.cos(freq), rtol=0, atol=1e-11)
        np.testing.assert_allclose(got[:, 2::2], math.sqrt(2) * np.sin(freq), rtol=0, atol=1e-11)

    def test_fourier_predict_matches_direct_trig(self):
        # The two-level sum (B = ceil sqrt K powers of z = exp(2 pi i x), one
        # block product, Horner in z^B): its rounding error grows with the
        # degree, relative to the coefficients' l1 norm. K = 16 and 17 are a
        # square and one past it; the point counts are one point, both sides
        # of a chunk edge, and several chunks.
        rng = np.random.default_rng(5)
        for K in [0, 1, 2, 16, 17, 200, 2047]:
            B = math.isqrt(max(K, 1) - 1) + 1
            chunk = FOURIER_SUM_BUDGET // (B + -(-max(K, 1) // B))
            M = max(2 * K + 1, 2)
            theta = rng.normal(size=M)
            theta[2 * K + 1 :] = 0.0
            for n in [1, chunk, chunk + 1, 10_001]:
                x = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.3])
                freq = 2.0 * np.pi * x[:, None] * np.arange(1, K + 1)
                direct = theta[0] + math.sqrt(2) * (
                    np.cos(freq) @ theta[1 : 2 * K : 2] + np.sin(freq) @ theta[2 : 2 * K + 1 : 2]
                )
                got = predict(build_fourier(M), theta, x)
                tol = 1e-12 * math.sqrt(2) * np.abs(theta).sum()
                np.testing.assert_allclose(got, direct, rtol=0, atol=tol, err_msg=f"K={K}, n={n}")

    def test_fourier_predict_memory_stays_within_budget(self):
        # A 100,001-point scan at M = 4095 in one block would hold about
        # 146 MB of powers and block sums; chunked, it holds the budget of
        # complex entries plus the output and the checked copy of the points.
        n, M = SUP_GRID_POINTS, 4095
        x = np.linspace(0.0, 1.0, n)
        theta = np.random.default_rng(6).normal(size=M)
        tracemalloc.start()
        try:
            predict(build_fourier(M), theta, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * FOURIER_SUM_BUDGET + 3 * 8 * n

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_predict_refuses_non_finite_lambda(self, bad):
        for j in range(3):
            lam = np.zeros(3)
            lam[j] = bad
            with pytest.raises(NumericError, match="non-finite"):
                predict(build_fourier(3), lam, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("m", [8, 9], ids=["ends-cos", "ends-sin"])
    def test_fourier_predict_ignores_trailing_zeros(self, m):
        lam = np.random.default_rng(m).normal(size=m)
        padded = np.concatenate([lam, np.zeros(12)])
        x = np.linspace(0.0, 1.0, 257)
        np.testing.assert_array_equal(
            predict(build_fourier(m + 12), padded, x), predict(build_fourier(m), lam, x)
        )

    def test_fourier_grid_matches_direct_sums(self):
        # Every frequency below N / 2, the most the N-point half spectrum
        # holds without a frequency and its mirror sharing a bin. Odd and
        # even N end the half differently; N = 1 and 2 hold the constant.
        for N in [1, 2, 7, 8, 64]:
            K = (N - 1) // 2
            coef = np.random.default_rng(7).normal(size=2 * K + 1)
            x = np.arange(N) / N
            freq = 2.0 * np.pi * x[:, None] * np.arange(1, K + 1)
            direct = coef[0] + math.sqrt(2) * (
                np.cos(freq) @ coef[1::2] + np.sin(freq) @ coef[2::2]
            )
            tol = 1e-12 * math.sqrt(2) * np.abs(coef).sum()
            np.testing.assert_allclose(
                _fourier_grid(coef, N), direct, rtol=0, atol=tol, err_msg=f"N={N}"
            )

    @pytest.mark.parametrize("N", [1, 2, 7, 8, 64, 100_000, 100_001])
    def test_fourier_grid_half_fold_matches_full_fold(self, N):
        # The full fold, written out: b_m sums the a_k with k = m (mod N)
        # over all N bins, then h_m = (b_m + conj b_{-m mod N}) / 2 for
        # m <= N / 2. Below N / 2 no two frequencies share a bin, so the
        # half spectrum is a_k / 2 on bins 1..K, bit for bit.
        rng = np.random.default_rng(N)
        top = (N - 1) // 2  # the highest frequency below N / 2
        if N < 100:
            freqs = np.arange(1, top + 1)
        else:
            freqs = np.r_[1:60, top - 1, top]
        coef = np.zeros(2 * top + 1)
        coef[0] = rng.normal()
        coef[2 * freqs - 1] = rng.normal(size=freqs.size)
        coef[2 * freqs] = rng.normal(size=freqs.size)
        a = coef[1::2] - 1j * coef[2::2]
        k = np.arange(1, a.size + 1) % N
        b = np.bincount(k, a.real, N) + 1j * np.bincount(k, a.imag, N)
        m = np.arange(N // 2 + 1)
        h = 0.5 * (b[m] + np.conj(b[-m % N]))
        full = coef[0] + np.sqrt(2.0) * N * np.fft.irfft(h, N)
        np.testing.assert_array_equal(_fourier_grid(coef, N), full)

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


class TestCheckPoints:
    """The one-pass bounds test keeps every refusal of the full scans."""

    TABLE = (np.array([0.0, 1.0]), np.array([0.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "where", [(0, 0), (-1, 2), (50, 1)], ids=["first-row", "last-row", "middle-column"]
    )
    def test_non_finite_refused(self, bad, where):
        pts = np.full((101, 3), 0.5)
        pts[where] = bad
        d = build_coordinate(3)
        with pytest.raises(NumericError):
            evaluate(d, pts)
        with pytest.raises(NumericError):
            predict(d, np.ones(3), pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_refused_on_one_axis(self, bad, index):
        # A tabulated dictionary warns on points outside its domain, but a
        # non-finite point is still an error.
        pts = np.full(33, 0.5)
        pts[index] = bad
        for d in (build_fourier(5), build_tabulated([self.TABLE] * 2)):
            with pytest.raises(NumericError):
                evaluate(d, pts)

    @pytest.mark.parametrize("side", [0, 1], ids=["below", "above"])
    def test_domain_slack_is_kept(self, side):
        bounds = (-1.0, 3.0)
        d = build_coordinate(3, domain=bounds)
        step = 2e-12 if side else -2e-12
        pts = np.full((9, 3), 1.0)
        pts[4, 1] = bounds[side] + step / 4
        evaluate(d, pts)
        pts[4, 1] = bounds[side] + step
        with pytest.raises(ConfigError, match=OUTSIDE):
            evaluate(d, pts)
        with pytest.raises(ConfigError, match=OUTSIDE):
            predict(d, np.ones(3), pts)

    def test_tabulated_warns_once_and_clamps(self):
        d = build_tabulated([self.TABLE] * 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = evaluate(d, [-0.5, 0.5, 1.5, 2.0]).entries
        assert [w.category for w in caught] == [RuntimeWarning]
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "dictionary, points",
        [(build_coordinate(2), np.empty((0, 2))), (build_fourier(3), np.empty(0))],
        ids=["coordinate", "fourier"],
    )
    def test_zero_points(self, dictionary, points):
        assert predict(dictionary, np.ones(dictionary.M), points).shape == (0,)
        with pytest.raises(ConfigError, match="design matrices need n >= 1 rows"):
            evaluate(dictionary, points)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "dictionary, shape",
        [(build_coordinate(3), (9, 3)), (build_coordinate(2), (9, 2)), (build_fourier(4), (9, 1))],
        ids=["coordinate-3", "coordinate-2", "fourier"],
    )
    def test_entries_never_alias_the_points(self, order, dictionary, shape):
        pts = np.array(np.random.default_rng(2).uniform(0.0, 1.0, shape), order=order)
        entries = evaluate(dictionary, pts).entries
        before = entries.copy()
        pts[...] = 0.5
        assert np.array_equal(entries, before)

    @pytest.mark.parametrize("M", [2, 3, 304])
    def test_fourier_design_is_the_column_recurrence(self, M):
        # Column by column: frequency k fills column 2k - 1 with Re z and
        # column 2k with Im z, z = sqrt(2) z1^k advanced by z <- z z1.
        x = np.random.default_rng(M).uniform(0.0, 1.0, 1000)
        z1 = np.exp(2j * np.pi * x)
        expected = np.empty((x.size, M))
        expected[:, 0] = 1.0
        z = math.sqrt(2.0) * z1
        for k in range(1, M // 2 + 1):
            expected[:, 2 * k - 1] = z.real
            if 2 * k < M:
                expected[:, 2 * k] = z.imag
            z = z * z1
        got = evaluate(build_fourier(M), x).entries
        assert np.array_equal(got, expected)
        assert got.flags.f_contiguous

    @pytest.mark.parametrize("M", [25, 304])
    def test_fourier_design_layout_matches_predict(self, M):
        # Phi lambda from the columns against predict's two-level sum,
        # which reads a_k = c_{2k-1} - i c_{2k}: a swapped or misplaced
        # column would differ by O(|lambda|).
        rng = np.random.default_rng(M + 1)
        x = rng.uniform(0.0, 1.0, 2000)
        lam = rng.normal(size=M)
        d = build_fourier(M)
        tol = 1e-12 * math.sqrt(2) * np.abs(lam).sum()
        np.testing.assert_allclose(evaluate(d, x).entries @ lam, predict(d, lam, x), rtol=0, atol=tol)


class TestEvaluateOut:
    """``evaluate(..., out=)`` writes the same design into the caller's array."""

    TABLES = [
        (np.array([0.0, 0.3, 1.0]), np.array([1.0, -2.0, 0.5])),
        (np.array([0.0, 1.0]), np.array([0.0, 2.0])),
        (np.array([0.1, 0.6]), np.array([3.0, -1.0])),
    ]
    CASES = [
        (build_fourier(7), (33, 1)),
        (build_coordinate(3, domain=[-1.0, 3.0]), (33, 3)),
        (build_tabulated(TABLES), (33, 1)),
    ]
    IDS = ["fourier", "coordinate", "tabulated"]

    @staticmethod
    def points(dictionary, shape):
        lo, hi = dictionary.domain
        u = np.random.default_rng(4).random(shape)
        return lo + (hi - lo) * u

    @pytest.mark.parametrize("dictionary, shape", CASES, ids=IDS)
    def test_same_bits_into_the_given_array(self, dictionary, shape):
        pts = self.points(dictionary, shape)
        out = np.full((shape[0], dictionary.M), np.nan, order="F")
        design = evaluate(dictionary, pts, out=out)
        assert design.entries is out
        assert np.array_equal(out, evaluate(dictionary, pts).entries)
        # A second fill of the same array gives the second design's bits.
        again = self.points(dictionary, shape)[::-1].copy()
        assert np.array_equal(
            evaluate(dictionary, again, out=out).entries, evaluate(dictionary, again).entries
        )

    @pytest.mark.parametrize("dictionary, shape", CASES, ids=IDS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda n, M: np.empty((n + 1, M), order="F"),
            lambda n, M: np.empty((n, M + 1), order="F"),
            lambda n, M: np.empty((n, M), dtype=np.float32, order="F"),
            lambda n, M: np.empty((n, M), order="C"),
            lambda n, M: np.empty((n, 2 * M), order="F")[:, ::2],
            lambda n, M: np.empty((n, M), order="F").tolist(),
        ],
        ids=["rows", "columns", "float32", "C-order", "strided", "list"],
    )
    def test_wrong_out_refused(self, dictionary, shape, make):
        with pytest.raises(ConfigError, match="out must be"):
            evaluate(dictionary, self.points(dictionary, shape), out=make(shape[0], dictionary.M))

    def test_read_only_out_refused(self):
        out = np.empty((9, 3), order="F")
        out.flags.writeable = False
        with pytest.raises(ConfigError, match="out must be"):
            evaluate(build_coordinate(3), np.full((9, 3), 0.5), out=out)

    def test_out_sharing_the_points_refused(self):
        # A design never aliases the caller's points, so an out that may
        # share memory with them is refused before anything is written.
        d = build_coordinate(3)
        buf = np.full((9, 3), 0.5, order="F")
        for pts in (buf, buf[:, :], buf[:, ::-1]):
            with pytest.raises(ConfigError, match="share memory"):
                evaluate(d, pts, out=buf)
        assert np.all(buf == 0.5)
        out = np.zeros((9, 4), order="F")
        with pytest.raises(ConfigError, match="share memory"):
            evaluate(build_fourier(4), out[:, 1], out=out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_points_refused_through_out(self, bad):
        pts = np.full((17, 3), 0.5)
        pts[8, 1] = bad
        with pytest.raises(NumericError):
            evaluate(build_coordinate(3), pts, out=np.empty((17, 3), order="F"))
        x = np.full(17, 0.5)
        x[3] = bad
        with pytest.raises(NumericError):
            evaluate(build_fourier(5), x, out=np.empty((17, 5), order="F"))

    def test_outside_domain_refused_through_out(self):
        pts = np.full((17, 3), 0.5)
        pts[-1, 2] = 1.5
        with pytest.raises(ConfigError, match=OUTSIDE):
            evaluate(build_coordinate(3), pts, out=np.empty((17, 3), order="F"))
        with pytest.raises(ConfigError, match=OUTSIDE):
            evaluate(build_fourier(5), np.full(17, -0.5), out=np.empty((17, 5), order="F"))

    def test_tabulated_clamps_through_out(self):
        d = build_tabulated(self.TABLES)
        with pytest.warns(RuntimeWarning, match="clamped"):
            design = evaluate(d, [-0.5, 2.0], out=np.empty((2, 3), order="F"))
        np.testing.assert_array_equal(design.entries[:, 1], [0.0, 2.0])


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


class TestDesignMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", [(0, 0), (17, 5), (-1, -1)], ids=["first", "middle", "last"])
    def test_non_finite_entries_refused(self, bad, where):
        entries = np.ones((40, 9), order="F")
        entries[where] = bad
        with pytest.raises(NumericError, match="non-finite entries"):
            DesignMatrix(n=40, M=9, entries=entries)

    def test_overflowing_norms_accepted(self):
        # Finite entries whose squares overflow: the norms are inf, which
        # sends construction to the entry scan, and the scan finds nothing.
        entries = np.full((8, 3), 1e200, order="F")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design = DesignMatrix(n=8, M=3, entries=entries)
        assert np.all(design.norms_sq == np.inf)

    def test_construction_holds_no_entry_sized_temporary(self):
        # The norms pass is the finiteness check; a separate isfinite scan
        # alone would hold an n x M bool array, entries.nbytes / 8.
        entries = np.asfortranarray(np.random.default_rng(0).normal(size=(2048, 304)))
        tracemalloc.start()
        try:
            DesignMatrix(n=2048, M=304, entries=entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < entries.nbytes / 16


class TestValidateA2:
    """The boundedness constants L, c0 and L0 of assumption (A2), and Psi,
    from population_constants."""

    def test_fourier_uniform(self):
        v = population_constants(build_fourier(3), uniform_measure())
        assert v.L == pytest.approx(math.sqrt(2), abs=QUADRATURE_TOL)
        assert v.c0 == pytest.approx(1.0, abs=QUADRATURE_TOL)
        assert v.c0 > 0

    def test_zero_column_fails_norm_flag(self):
        # On [0, 0]^2 every coordinate is the zero function.
        d = build_coordinate(2, domain=[0.0, 0.0])
        v = population_constants(d, uniform_measure())
        assert v.c0 == 0.0

    def test_tabulated_constants(self):
        grid = np.array([0.0, 1.0])
        d = build_tabulated([(grid, np.array([2.0, 2.0]))] * 2, domain=[0.0, 1.0])
        v = population_constants(d, uniform_measure())
        assert v.L == pytest.approx(2.0)
        assert v.c0 == pytest.approx(2.0, abs=1e-9)
        assert v.L0 == pytest.approx(16.0, rel=1e-9)

    def test_remark1_bound(self):
        for d in (build_fourier(7), build_coordinate(3, domain=[-2.0, 2.0])):
            v = population_constants(d, uniform_measure())
            assert v.L0 <= v.L**4 + 1e-9

    def test_coordinate_sup_norm_is_the_larger_bound(self):
        for bounds, L in [((-2.0, 1.0), 2.0), ((-1.0, 3.0), 3.0), ((-3.0, -0.5), 3.0)]:
            v = population_constants(build_coordinate(2, domain=bounds), uniform_measure())
            assert v.L == L

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
        exact = [
            population_constants(build_tabulated([t, t]), uniform_measure()).L for t in d.tables
        ]
        np.testing.assert_allclose(exact, scan, rtol=1e-4)
        assert np.all(np.asarray(exact) >= scan)
        assert exact[2] == 6.0
        assert population_constants(d, uniform_measure()).L == max(exact)

    def test_quadrature_constants_are_the_one_design_formulas(self):
        # A tabulated dictionary has no closed form under either measure:
        # Psi and L0 come bit for bit from one quadrature design, Psi as
        # x^T x with x = phi sqrt(w) and L0 as the largest weighted fourth
        # moment, and c0 from Psi's diagonal. By Cauchy-Schwarz L0 is also
        # the largest mixed moment, which the M x M product used to give.
        grid = np.linspace(0.0, 1.0, 9)
        d = build_tabulated([(grid, np.cos(j * grid) + j) for j in range(4)])
        for measure in (uniform_measure(), grid_density_measure(grid, 1.0 + grid)):
            pts, w = quadrature_grid(d, measure)
            phi = evaluate(d, pts).entries
            x = phi * np.sqrt(w)[:, None]
            psi = x.T @ x
            sq = phi * phi
            v = population_constants(d, measure)
            assert np.array_equal(v.psi, psi)
            assert np.array_equal(population_gram(d, measure), psi)
            assert v.c0 == float(np.sqrt(max(np.diag(psi).min(), 0.0)))
            assert v.L0 == float((w @ (sq * sq)).max())
            mixed = float((sq.T @ (sq * w[:, None])).max())
            assert v.L0 == pytest.approx(mixed, rel=1e-14, abs=0.0)

    @staticmethod
    def pairwise_l0(bounds, d):
        """max_{i,j} E[x_i^2 x_j^2] under the uniform law on [lo, hi]^d,
        ``bounds = (lo, hi)``, from the d x d mixed-moment matrix the
        coordinate closed form used to build."""
        a, b = np.full(d, bounds[0]), np.full(d, bounds[1])
        m2 = (a * a + a * b + b * b) / 3.0
        m4 = (a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4) / 5.0
        mixed = np.outer(m2, m2)
        np.fill_diagonal(mixed, m4)
        return float(mixed.max())

    def test_coordinate_l0_is_the_pairwise_maximum(self):
        # L0 = max_j E[x_j^4] is the pairwise maximum on mc_dense's
        # [-1, 1]^20 and on random intervals, some near-degenerate (widths
        # down to below one ulp) or degenerate. Every bit is kept unless
        # the width is below 1e-6 of |lo|: there m2 * m2 can round up to
        # 5.5e-16 above m4 (2.3e-8 of |lo| is the widest such case here).
        rng = np.random.default_rng(5)
        cases = [((-1.0, 1.0), 20)]
        for _ in range(300):
            lo = rng.normal() * 10.0 ** rng.uniform(-3, 3)
            width = 0.0 if rng.random() < 0.2 else abs(lo) * 10.0 ** rng.uniform(-17, 1)
            cases.append(((lo, lo + width), int(rng.integers(2, 7))))
        kept = 0
        for bounds, d in cases:
            v = population_constants(build_coordinate(d, domain=bounds), uniform_measure())
            pairwise = self.pairwise_l0(bounds, d)
            assert v.L0 == pytest.approx(pairwise, rel=1e-15, abs=0.0)
            if bounds[1] - bounds[0] > 1e-6 * abs(bounds[0]):
                assert v.L0 == pairwise
                kept += 1
        assert kept > 50
        dense = build_coordinate(20, domain=[-1.0, 1.0])
        assert population_constants(dense, uniform_measure()).L0 == 0.2

    @pytest.mark.parametrize("c", [0.1, 0.3, 0.7, 2.0 / 3.0])
    def test_coordinate_l0_on_repeated_degenerate_axes(self, c):
        # On [c, c]^2 every E[x_i^2 x_j^2] is c^4, but m2 * m2 may round
        # above m4: on [0.3, 0.3]^2 the pairwise maximum read
        # 0.008100000000000001 and m4 reads 0.008099999999999998.
        v = population_constants(build_coordinate(2, domain=[c, c]), uniform_measure())
        assert v.L0 == pytest.approx(self.pairwise_l0((c, c), 2), rel=1e-15, abs=0.0)
        assert v.L0 == pytest.approx(c**4, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("density", [False, True], ids=["uniform", "grid-density"])
    def test_c0_is_read_off_the_gram_diagonal(self, density):
        # c0^2 is the smallest squared norm, the smallest diagonal entry of
        # Psi. A second sum over the quadrature design used to give c0 =
        # 0.4085564096487003 here under the uniform measure, against
        # sqrt(min Psi_jj) = 0.4085564096487004.
        grid = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(2)
        d = build_tabulated([(grid, rng.normal(size=grid.size)) for _ in range(12)])
        measure = grid_density_measure(grid, 1.0 + grid) if density else uniform_measure()
        psi = population_gram(d, measure)
        assert population_constants(d, measure).c0 == float(np.sqrt(max(np.diag(psi).min(), 0.0)))

    @pytest.mark.parametrize("value", [1e100, 1e160, None])
    def test_overflow_is_a_numeric_error_without_warning(self, value):
        # At 1e100 the quadrature fourth moments overflow, at 1e160 the
        # quadrature Gram, and on [-1e200, 1e200] the closed-form moments;
        # each used to warn from numpy before the error.
        grid = np.array([0.0, 1.0])
        d = (
            build_coordinate(2, domain=[-1e200, 1e200])
            if value is None
            else build_tabulated([(grid, np.array([value, value])), (grid, grid)])
        )
        # The Gram is formed with the other constants, so at 1e100, where
        # it alone is finite, population_gram refuses too.
        for build in (population_constants, population_gram):
            with pytest.raises(NumericError, match="not finite"):
                build(d, uniform_measure())


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
        with pytest.raises(ConfigError, match="density table abscissae must be strictly increasing"):
            grid_density_measure([0.0, 0.6, 0.3, 1.0], [1.0, 2.0, 1.0, 3.0])

    def test_quadrature_weights_sum_to_one(self):
        _, w = quadrature_grid(build_fourier(5), self.ramp())
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)

    @pytest.mark.parametrize("ends", [(0.2, 0.8), (-1.0, 2.0), (0.0, 0.9), (1e-9, 1.0)])
    def test_table_must_span_the_domain(self, ends):
        # Interpolation clamps, so a narrower table used to be extended and
        # a wider one cut, without a word.
        table = grid_density_measure(ends, [1.0, 3.0])
        for call in (population_constants, quadrature_grid):
            with pytest.raises(ConfigError, match=re.escape(f"spans {list(ends)}, not the domain")):
                call(build_fourier(5), table)

    def test_table_ends_within_slack_accepted(self):
        table = grid_density_measure([5e-13, 1.0 - 5e-13], [1.0, 3.0])
        _, w = quadrature_grid(build_fourier(5), table)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_span_checked_after_the_one_axis_check(self):
        table = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        d = build_coordinate(2, domain=[-1.0, 1.0])
        with pytest.raises(ConfigError, match="grids span one axis"):
            quadrature_grid(d, table)

    def test_flat_density_matches_exact_fourier_constants(self):
        d = build_fourier(9)
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        exact = population_constants(d, uniform_measure())
        quad = population_constants(d, flat)
        np.testing.assert_allclose(quad.psi, np.eye(9), rtol=0.0, atol=1e-9)
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
        with pytest.raises(ConfigError, match="grids span one axis"):
            sup_norm_error(d, linear_truth(np.ones(20)), np.zeros(20))

    def test_quadrature_refuses_d_above_one(self):
        with pytest.raises(ConfigError, match="grids span one axis"):
            quadrature_grid(build_coordinate(20), uniform_measure())

    def test_density_measure_refuses_d_above_one(self):
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigError, match="grids span one axis"):
            population_gram(build_coordinate(2), flat)

    def test_closed_forms_need_no_grid(self):
        v = population_constants(build_coordinate(20, domain=[-1.0, 1.0]), uniform_measure())
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
        with pytest.raises(ConfigError, match=re.escape("points CSV header must be x1,...,xd[,y]")):
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
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: ")):
            loader(path)

    @pytest.mark.parametrize("loader", [load_points_csv, load_tabulated_csv])
    def test_no_data_rows(self, tmp_path, loader):
        path = tmp_path / "table.csv"
        path.write_text("x1,y\n" if loader is load_points_csv else "x,f1\n")
        with pytest.raises(ConfigError, match="no data rows"):
            loader(path)


UNIT = (0.0, 1.0)
TABLE = (np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestInvariants:
    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: Dictionary(kind="wavelet", M=3, domain=UNIT),
             ConfigError, "unknown dictionary kind 'wavelet'"),
            (lambda: Dictionary(kind="tabulated", M=3, domain=UNIT, tables=(TABLE,) * 2),
             ConfigError, "one table per function"),
            (lambda: DesignMatrix(n=4, M=3, entries=np.ones((3, 4))),
             ConfigError, r"entries shape \(3, 4\) != \(4, 3\)"),
            (lambda: MeasureSpec(kind="gaussian"), ConfigError, "unknown measure kind 'gaussian'"),
            (lambda: MeasureSpec(kind="grid-density"), ConfigError, "needs a density table"),
            (lambda: Dictionary(kind="fourier", M=3, domain=(0.5, 1.0)),
             ConfigError, r"fourier dictionaries are defined on \[0, 1\]"),
            (lambda: Dictionary(kind="tabulated", M=2, domain=UNIT,
                                tables=((np.zeros((2, 2)), np.ones((2, 2))), TABLE)),
             ConfigError, "dictionary table needs matching 1-d x and value columns"),
            (lambda: Dictionary(kind="tabulated", M=2, domain=UNIT,
                                tables=((np.array([0.0, 0.5, 1.0]), np.ones(2)), TABLE)),
             ConfigError, "dictionary table needs matching 1-d x and value columns"),
            (lambda: Dictionary(kind="tabulated", M=2, domain=UNIT,
                                tables=((np.array([0.0, 1.0]), np.array([1.0, np.inf])), TABLE)),
             ConfigError, "dictionary table entries must be finite"),
            # Each of the next three used to be accepted by the constructor,
            # which left the domain rule to the builders.
            (lambda: Dictionary(kind="coordinate", M=2, domain=(1.0, 0.0)),
             ConfigError, "domain lower bounds must not exceed upper bounds"),
            (lambda: Dictionary(kind="coordinate", M=2, domain=(0.0, np.inf)),
             ConfigError, "domain bounds must be finite"),
            (lambda: Dictionary(kind="coordinate", M=2, domain=np.array([[1.0, 0.0], [1.0, 0.0]])),
             ConfigError, r"domain must be one interval \[lo, hi\], got shape \(2, 2\)"),
        ],
        ids=["dictionary-kind", "table-count", "design-shape", "measure-kind",
             "density-table", "fourier-domain", "table-2-d", "table-lengths", "table-value-inf",
             "domain-reversed", "domain-inf", "domain-box"],
    )
    def test_record_constructors_refuse(self, make, error, match):
        # Each exported record checks itself when built directly, not only
        # through its builder function.
        with pytest.raises(error, match=match):
            make()

    @pytest.mark.parametrize("domain", [[0.25, 0.75], np.array([0.25, 0.75]), (1, 2)])
    def test_domain_is_held_as_two_floats(self, domain):
        for d in (build_coordinate(3, domain=domain), build_tabulated([TABLE] * 2, domain=domain)):
            assert d.domain == tuple(float(v) for v in domain)
            assert all(type(v) is float for v in d.domain)
        assert (build_coordinate(3).d, build_tabulated([TABLE] * 2).d, build_fourier(3).d) == (3, 1, 1)

    def test_tabulated_grid_strictly_increasing(self):
        bad = [(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))] * 2
        with pytest.raises(ConfigError, match="dictionary table abscissae must be"):
            build_tabulated(bad)

    def test_fourier_nonunit_domain_rejected(self):
        with pytest.raises(ConfigError, match=r"defined on \[0, 1\]"):
            Dictionary(kind="fourier", M=3, domain=(0.0, 2.0))
