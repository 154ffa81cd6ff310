"""Oracle vectors, memberships, theorem RHS shapes, and tail bounds."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1agg import (
    BoundConstants,
    ConfigError,
    DesignMatrix,
    DomainError,
    NumericError,
    ShapeError,
    bernstein_bound,
    build_fourier,
    build_tabulated,
    evaluate,
    evaluate_truth,
    event_flags,
    fourier_truth,
    lemma_bounds,
    membership,
    oracle_fourier,
    oracle_general,
    oracle_report,
    oracle_scan,
    population_dist2,
    sobolev_truth,
    sparsity,
    sup_norm_error,
    tabulated_truth,
    theorem_rhs,
    uniform_measure,
)
from l1agg.dictionary import sup_norm_grid
from l1agg.oracles import COHERENCE_THRESHOLD, LEMMA_KINDS, LEMMA_PARAMS

RNG = np.random.default_rng(2024)


def fine_tabulated_truth(fn, points=4097):
    """The truth ``fn`` tabulated on a fine grid of [0, 1]."""
    grid = np.linspace(0.0, 1.0, points)
    return tabulated_truth(grid, fn(grid))


def correlated_tabulated_dictionary(M=6, knots=33, seed=0):
    """Random piecewise-linear functions on [0, 1]; heavily correlated."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, knots)
    base = np.cumsum(rng.normal(size=knots))
    tables = []
    for _ in range(M):
        vals = 1.0 + 0.5 * base + rng.normal(size=knots)
        tables.append((grid, vals))
    return build_tabulated(tables, domain=[0.0, 1.0])


class TestSparsity:
    def test_all_zero(self):
        support, count = sparsity(np.zeros(3))
        assert count == 0 and support.size == 0

    def test_mixed(self):
        support, count = sparsity(np.array([1.0, 0.0, -2.0]))
        np.testing.assert_array_equal(support, [0, 2])
        assert count == 2

    def test_default_counts_tiny_values(self):
        _, count = sparsity(np.array([1e-17, 1.0]))
        assert count == 2


class TestOracleFourier:
    def test_top_two(self):
        truth = fourier_truth(np.array([3.0, 1.0, 0.0, 0.5]))
        np.testing.assert_array_equal(
            oracle_fourier(truth, 4, 2), [3.0, 1.0, 0.0, 0.0]
        )

    def test_exact_representation(self):
        theta = np.array([0.0, 2.0, 0.0, -1.0])
        truth = fourier_truth(theta)
        lam = oracle_fourier(truth, 4, 2)
        np.testing.assert_array_equal(lam, theta)
        d = build_fourier(4)
        assert population_dist2(d, uniform_measure(), truth, lam) == 0.0

    def test_tie_breaks_to_smallest_index(self):
        truth = fourier_truth(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(oracle_fourier(truth, 2, 1), [1.0, 0.0])

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            oracle_fourier(fourier_truth(np.array([1.0, 2.0])), 2, 3)

    def test_optimal_over_all_supports(self):
        # Exhaustive check: no other support of size k attains a smaller
        # residual (orthonormal closed form per support).
        M = 12
        theta = RNG.normal(size=M)
        truth = fourier_truth(theta)
        total = float(theta @ theta)
        for k in (1, 2, 3):
            lam = oracle_fourier(truth, M, k)
            best = total - float(np.sort(theta**2)[::-1][:k].sum())
            d = build_fourier(M)
            achieved = population_dist2(d, uniform_measure(), truth, lam)
            assert achieved == pytest.approx(best, abs=1e-12)
            for support in itertools.combinations(range(M), k):
                rival = total - float(sum(theta[j] ** 2 for j in support))
                assert achieved <= rival + 1e-12


class TestOracleGeneral:
    def test_orthonormal_matches_closed_form(self):
        theta = np.array([0.0, 1.5, 0.0, -0.7, 0.2])
        truth = fourier_truth(theta)
        d = build_fourier(5)
        lam, exact = oracle_general(d, uniform_measure(), truth, 2)
        assert exact
        np.testing.assert_allclose(lam, oracle_fourier(truth, 5, 2), atol=1e-9)

    def test_full_support_is_projection(self):
        d = correlated_tabulated_dictionary(M=4)
        truth = fine_tabulated_truth(lambda x: np.sin(2 * np.pi * x))
        measure = uniform_measure()
        lam_full, exact = oracle_general(d, measure, truth, 4)
        assert exact
        full = population_dist2(d, measure, truth, lam_full)
        for k in (1, 2, 3):
            lam_k, _ = oracle_general(d, measure, truth, k)
            assert full <= population_dist2(d, measure, truth, lam_k) + 1e-12

    def test_exhaustive_beats_greedy(self, monkeypatch):
        d = correlated_tabulated_dictionary(M=6)
        truth = fine_tabulated_truth(lambda x: np.cos(3 * x) + x)
        measure = uniform_measure()
        lam_ex, exact = oracle_general(d, measure, truth, 2)
        assert exact
        monkeypatch.setattr("l1agg.oracles.EXHAUSTIVE_SUPPORT_CAP", 0)
        lam_greedy, exact_greedy = oracle_general(d, measure, truth, 2)
        assert not exact_greedy
        res_ex = population_dist2(d, measure, truth, lam_ex)
        res_greedy = population_dist2(d, measure, truth, lam_greedy)
        assert res_ex <= res_greedy + 1e-12

    def test_nesting_in_k(self):
        d = correlated_tabulated_dictionary(M=7, seed=3)
        truth = fine_tabulated_truth(np.exp)
        measure = uniform_measure()
        residuals = [
            population_dist2(d, measure, truth, oracle_general(d, measure, truth, k)[0])
            for k in range(0, 5)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_singular_restricted_gram_warns_once(self):
        # f_1 = f_2, so the support {1, 2} has a singular restricted Gram;
        # the other two supports of size 2 do not.
        grid = np.linspace(0.0, 1.0, 5)
        d = build_tabulated([(grid, 1.0 + grid), (grid, 1.0 + grid), (grid, grid**2)])
        truth = tabulated_truth(grid, np.sin(3.0 * grid))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam, exact = oracle_general(d, uniform_measure(), truth, 2)
        assert [str(w.message) for w in caught] == [
            "restricted Gram is singular; using a pseudo-inverse solution"
        ]
        assert exact and np.all(np.isfinite(lam))
        assert math.isfinite(population_dist2(d, uniform_measure(), truth, lam))


class TestMembership:
    def test_exact_representation(self):
        flags = membership(0.0, 2, 0.0, 0.1, C_f=1.0, C_f_prime=1.0)
        assert flags.in_oracle_set and flags.in_weak_approx_set
        assert flags.in_coherent_oracle_set and flags.in_coherent_weak_approx_set

    def test_coherence_product_just_above(self):
        # rho M(lambda) = 0.03 > 1/45: the coherent sets reject.
        flags = membership(0.0, 3, 0.01, 0.1, 1.0, 1.0)
        assert flags.in_oracle_set and not flags.in_coherent_oracle_set

    def test_coherence_product_below(self):
        # rho M(lambda) = 0.02 <= 1/45 ~ 0.0222: the coherent sets accept.
        flags = membership(0.0, 10, 0.002, 0.1, 1.0, 1.0)
        assert flags.in_coherent_oracle_set

    def test_boundary_exact(self):
        ok = membership(0.0, 1, COHERENCE_THRESHOLD, 0.1, 1.0, 1.0)
        assert ok.in_coherent_oracle_set
        above = membership(
            0.0, 1, np.nextafter(COHERENCE_THRESHOLD, 1.0), 0.1, 1.0, 1.0
        )
        assert not above.in_coherent_oracle_set

    def test_subset_implications(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            flags = membership(
                float(rng.uniform(0, 0.5)),
                int(rng.integers(0, 6)),
                float(rng.uniform(0, 0.2)),
                float(rng.uniform(0.01, 1.0)),
                float(rng.uniform(0, 3)),
                float(rng.uniform(0, 3)),
            )
            assert not flags.in_coherent_oracle_set or flags.in_oracle_set
            assert not flags.in_coherent_weak_approx_set or flags.in_weak_approx_set

    @given(
        dist2=st.floats(0, 10),
        cf_low=st.floats(0, 5),
        bump=st.floats(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_cf(self, dist2, cf_low, bump):
        low = membership(dist2, 3, 0.001, 0.5, cf_low, 1.0)
        high = membership(dist2, 3, 0.001, 0.5, cf_low + bump, 1.0)
        assert not low.in_oracle_set or high.in_oracle_set


class TestTheoremRhs:
    def test_risk_shape(self):
        c = BoundConstants(B1=1.0)
        assert theorem_rhs("t21_risk", c, 0.1, 4, kappa_M=0.5) == pytest.approx(0.08)

    def test_t23(self):
        c = BoundConstants(C_prime=2.0)
        assert theorem_rhs("t23", c, 0.1, 1, dist2=0.01) == pytest.approx(0.04)

    def test_empty_oracle(self):
        c = BoundConstants()
        assert theorem_rhs("t21_risk", c, 0.1, 0, kappa_M=1.0) == 0.0
        assert theorem_rhs("t22_l1", c, 0.1, 0) == 0.0

    def test_bad_kappa_rejected(self):
        with pytest.raises(ConfigError):
            theorem_rhs("t21_risk", BoundConstants(), 0.1, 3, kappa_M=0.0)


class TestBernstein:
    def test_vacuous_at_n_zero(self):
        assert bernstein_bound(0, 1.0, 1.0, 0.0) == 1.0

    def test_simple_value(self):
        assert bernstein_bound(100, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-50.0))

    def test_norm_equivalence_specialization(self):
        # eps = c0^2/2, w2 = c0^2 L^2, d = L^2 collapses to the
        # norm-equivalence exponent n c0^2 / (12 L^2).
        for c0, L in ((1.0, math.sqrt(2)), (0.5, 2.0), (2.0, 3.0)):
            n = 500
            eps = c0**2 / 2
            direct = bernstein_bound(n, eps, c0**2 * L**2, L**2)
            assert direct == pytest.approx(
                math.exp(-n * c0**2 / (12 * L**2)), rel=1e-12
            )


class TestLemmaBounds:
    def test_l4_value(self):
        got = lemma_bounds("L4", 1000, M=10, c0=1.0, L=math.sqrt(2))
        assert got == pytest.approx(20.0 * math.exp(-1000.0 / 24.0), rel=1e-12)

    def test_l5_value(self):
        n, M, r, b, c0, L = 200, 5, 0.3, 1.2, 0.9, 1.5
        expected = (
            2 * M * math.exp(-n * r**2 / (16 * b))
            + 2 * M * math.exp(-n * r * c0 / (8 * math.sqrt(2) * L))
            + 2 * M * math.exp(-n * c0**2 / (12 * L**2))
        )
        assert lemma_bounds("L5", n, M=M, r_nM=r, b=b, c0=c0, L=L) == pytest.approx(
            min(1.0, expected), rel=1e-12
        )

    def test_l6_exact_representation(self):
        assert lemma_bounds("L6", 100, r_nM=0.1, m_lambda=3, L_lambda=0.0) == 0.0

    def test_l6_value(self):
        got = lemma_bounds("L6", 400, r_nM=0.2, m_lambda=2, L_lambda=1.5)
        assert got == pytest.approx(math.exp(-2 * 400 * 0.04 / (4 * 2.25)), rel=1e-12)

    def test_l7_constant(self):
        # kappa = 1, C_f = 0: C = 2 (1 + 4 sqrt(2))^2 = 66 + 16 sqrt(2).
        big_c = 66.0 + 16.0 * math.sqrt(2.0)
        assert big_c == pytest.approx(88.62741699796952)
        n, M, m = 10_000_000, 4, 2
        expected = 2 * M * M * (
            math.exp(-n / (16 * 1.5 * big_c**2 * m**2))
            + math.exp(-n / (8 * 2.0 * big_c * m))
        )
        got = lemma_bounds(
            "L7", n, M=M, m_lambda=m, c0=1.0, L=math.sqrt(2), L0=1.5,
            kappa_M=1.0, C_f=0.0,
        )
        assert got == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_l9_value(self):
        big_c = 8.0 * 121.0 / 0.81
        n, M, r, L, L0 = 5_000_000, 3, 0.5, 1.1, 1.4
        expected = 2 * M * M * (
            math.exp(-n * r**2 / (16 * big_c**2 * L0))
            + math.exp(-n * r / (8 * L**2 * big_c))
        )
        got = lemma_bounds("L9", n, M=M, r_nM=r, c0=0.9, L=L, L0=L0)
        assert got == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_outputs_clamped_and_monotone_in_n(self):
        previous = None
        for n in (1, 10, 100, 1000, 10_000):
            value = lemma_bounds("L4", n, M=50, c0=0.5, L=2.0)
            assert 0.0 <= value <= 1.0
            if previous is not None:
                assert value <= previous + 1e-15
            previous = value

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError):
            lemma_bounds("L5", 100, M=5, r_nM=0.1, c0=1.0, L=1.0)  # no b

    @pytest.mark.parametrize("which", LEMMA_KINDS)
    def test_zero_value_rule(self, which):
        # M, m_lambda, C_f and L_lambda may be 0 (L7 needs m_lambda >= 1);
        # every other parameter must be positive.
        values = dict(M=0, r_nM=0.3, b=1.2, c0=0.9, L=1.5, L0=1.4, kappa_M=0.9,
                      C_f=0.0, m_lambda=0, L_lambda=0.0)
        if which == "L7":
            with pytest.raises(ConfigError, match="needs finite m_lambda >= 1, got 0$"):
                lemma_bounds(which, 100, **values)
            values["m_lambda"] = 1
        assert lemma_bounds(which, 100, **values) == 0.0
        for name in set(LEMMA_PARAMS[which]) - {"M", "m_lambda", "C_f", "L_lambda"}:
            with pytest.raises(ConfigError, match=f"needs finite {name} > 0, got 0$"):
                lemma_bounds(which, 100, **(values | {name: 0}))

    def test_unknown_keyword_rejected(self):
        # The explicit keyword signature this replaced raised TypeError.
        with pytest.raises(ConfigError, match="no lemma reads parameter c_0$"):
            lemma_bounds("L4", 100, M=5, c0=1.0, L=1.0, c_0=3.0)

    @pytest.mark.parametrize(
        "which, params",
        [
            # L * L underflows to 0 and the formula divides by it.
            ("L4", dict(M=10, c0=1.0, L=1e-300)),
            # (2 C_f + ...) ** 2 overflows.
            ("L7", dict(M=10, m_lambda=1, c0=1.0, L=1.0, L0=1.0, kappa_M=1.0, C_f=1e200)),
        ],
    )
    def test_arithmetic_failure_is_numeric_error(self, which, params):
        # Used to end in a ZeroDivisionError or OverflowError.
        with pytest.raises(NumericError, match=f"^lemma {which} cannot be evaluated"):
            lemma_bounds(which, 100, **params)

    @pytest.mark.parametrize("which", LEMMA_KINDS)
    def test_parameter_table(self, which):
        values = dict(M=5, r_nM=0.3, b=1.2, c0=0.9, L=1.5, L0=1.4, kappa_M=0.9,
                      C_f=1.0, m_lambda=2, L_lambda=0.5)
        params = {k: values[k] for k in LEMMA_PARAMS[which]}
        assert 0.0 <= lemma_bounds(which, 100, **params) <= 1.0
        for name in params:
            with pytest.raises(ConfigError, match=f"needs parameter {name}$"):
                lemma_bounds(which, 100, **{k: v for k, v in params.items() if k != name})


class TestEventFlags:
    def _design(self, n=50, M=3, seed=0):
        pts = np.random.default_rng(seed).uniform(0, 1, n)
        return evaluate(build_fourier(M), pts)

    def test_noiseless_e1(self):
        design = self._design()
        flags = event_flags(
            design,
            np.zeros(design.n),
            np.full(design.M, 0.1),
            np.ones(design.M),
            np.zeros(design.n),
            0.0,
            0.1,
            1,
        )
        assert flags.e1

    def test_e2_definition(self):
        design = self._design(n=2000)
        norms_sq = np.mean(design.entries**2, axis=0)
        flags = event_flags(
            design, np.zeros(design.n), np.ones(design.M), norms_sq,
            np.zeros(design.n), 0.0, 0.1, 1,
        )
        assert flags.e2
        flags_bad = event_flags(
            design, np.zeros(design.n), np.ones(design.M), norms_sq * 3.0,
            np.zeros(design.n), 0.0, 0.1, 1,
        )
        assert not flags_bad.e2

    def test_e3_definition(self):
        design = self._design(n=100)
        err = np.full(design.n, 0.5)
        flags = event_flags(
            design, np.zeros(design.n), np.ones(design.M), np.ones(design.M),
            err, dist2=0.2, r_nM=0.1, m_lambda=1,
        )
        # 0.25 <= 2 * 0.2 + 0.01
        assert flags.e3
        flags_bad = event_flags(
            design, np.zeros(design.n), np.ones(design.M), np.ones(design.M),
            err, dist2=0.1, r_nM=0.1, m_lambda=1,
        )
        # 0.25 > 2 * 0.1 + 0.01
        assert not flags_bad.e3


class TestOracleReport:
    def test_exact_representation_scan(self):
        theta = np.zeros(7)
        theta[1], theta[3], theta[6] = 3.0, 2.0, 1.0
        truth = fourier_truth(theta)
        d = build_fourier(10)
        report = oracle_report(d, uniform_measure(), truth, r_nM=0.5, C_f=1.0)
        assert report.k_star == 3
        assert report.dist2 == 0.0
        assert report.L_lambda < 1e-9
        assert report.memberships.in_coherent_oracle_set
        assert report.exact

    def test_empty_oracle_set(self):
        truth = fine_tabulated_truth(lambda x: np.sign(x - 0.5))
        d = build_fourier(4)
        report = oracle_report(d, uniform_measure(), truth, r_nM=1e-6, C_f=1.0)
        assert report.k_star is None
        assert report.lambda_star is None
        assert report.memberships is None

    def test_scan_without_oracle_keeps_last_vector(self):
        # The tail beyond M keeps dist2 above C_f r^2 M(lambda) at every k.
        theta = np.arange(40, 0, -1, dtype=float) / 40.0
        d = build_fourier(8)
        lam, dist2, exact, found = oracle_scan(
            d, uniform_measure(), fourier_truth(theta), r_nM=1e-3
        )
        assert not found and exact
        np.testing.assert_array_equal(lam, theta[:8])
        assert dist2 == pytest.approx(float(theta[8:] @ theta[8:]), rel=1e-12)

    def test_zero_truth(self):
        truth = fourier_truth(np.zeros(3))
        d = build_fourier(5)
        report = oracle_report(d, uniform_measure(), truth, r_nM=0.1)
        assert report.k_star == 0
        assert report.dist2 == 0.0

    @pytest.mark.parametrize("M", [25, 861])
    def test_sup_norm_error_streams_fourier_sums(self, M):
        # One inverse FFT of length 10^5 needs a few MB; an (n, M) or
        # (n, 400) block on the 100,001-point grid alone would take 20-690 MB.
        truth = sobolev_truth(1.0)
        lam = oracle_fourier(truth, M, 10)
        tracemalloc.start()
        try:
            sup_norm_error(build_fourier(M), truth, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("M", [25, 861])
    def test_sup_norm_error_fft_matches_dense_scan(self, M):
        truth = sobolev_truth(1.0)
        d = build_fourier(M)
        lam = np.random.default_rng(M).normal(size=M)
        coef = np.zeros(max(M, truth.theta.size))
        coef[: truth.theta.size] = truth.theta
        coef[:M] -= lam
        wide = build_fourier(coef.size)
        grid = sup_norm_grid(d)
        # The dense scan in chunks, so no full (100,001, K) block is held.
        dense = max(
            np.abs(evaluate(wide, chunk).entries @ coef).max()
            for chunk in np.array_split(grid, 20)
        )
        assert sup_norm_error(d, truth, lam) == pytest.approx(dense, rel=0, abs=1e-12)

    def test_sup_norm_error_tabulated_pair_is_node_maximum(self):
        # f - f_lambda is piecewise linear with kinks at the merged table
        # nodes, all multiples of 1/1000 and so points of the scan grid:
        # the scan's maximum is the maximum over those nodes.
        rng = np.random.default_rng(3)
        x_dict = np.unique(np.r_[np.arange(0, 1001, 7), 1000]) / 1000
        x_truth = np.unique(np.r_[np.arange(0, 1001, 3), 1000]) / 1000
        d = build_tabulated([(x_dict, rng.uniform(-1, 1, x_dict.size)) for _ in range(3)])
        truth = tabulated_truth(x_truth, rng.uniform(-1, 1, x_truth.size))
        lam = np.array([0.7, -1.3, 0.4])
        nodes = np.union1d(x_dict, x_truth)
        f_lam = sum(c * np.interp(nodes, g, v) for c, (g, v) in zip(lam, d.tables))
        expected = np.abs(np.interp(nodes, *truth.table) - f_lam).max()
        assert sup_norm_error(d, truth, lam) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_sup_norm_error_fourier_dictionary_tabulated_truth(self):
        # lambda = 0 leaves |f|, whose maximum sits at a table node.
        x = np.unique(np.r_[np.arange(0, 1001, 9), 1000]) / 1000
        values = np.random.default_rng(4).normal(size=x.size)
        got = sup_norm_error(build_fourier(4), tabulated_truth(x, values), np.zeros(4))
        assert got == pytest.approx(np.abs(values).max(), rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "x, message",
        [([0.0, 1.0, 0.5], "strictly increasing"), ([0.0, np.nan, 1.0], "finite"),
         ([0.0], "matching 1-d")],
    )
    def test_tabulated_truth_table_rule(self, x, message):
        with pytest.raises(ShapeError, match=message):
            tabulated_truth(x, np.ones(len(x)))

    def test_sup_norm_error_fft_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            sup_norm_error(build_fourier(5), sobolev_truth(1.0), np.zeros(4))

    def test_fourier_truth_outside_unit_interval_rejected(self):
        truth = fourier_truth(np.array([0.5, 1.0, -1.0]))
        with pytest.raises(DomainError):
            evaluate_truth(truth, np.array([0.5, 1.5]))

    def test_sup_norm_error_reported(self):
        theta = np.array([0.5, 1.0])
        truth = fourier_truth(theta)
        d = build_fourier(4)
        lam = np.zeros(4)
        # ||f - 0||_inf = max |0.5 + sqrt(2) cos(2 pi x)| = 0.5 + sqrt(2)
        assert sup_norm_error(d, truth, lam) == pytest.approx(
            0.5 + math.sqrt(2), abs=1e-6
        )
