"""Oracle vectors, memberships, theorem RHS shapes, and tail bounds."""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1agg import (
    ConfigError,
    DesignMatrix,
    NumericError,
    TruthSpec,
    bernstein_bound,
    build_coordinate,
    build_fourier,
    build_tabulated,
    evaluate,
    evaluate_truth,
    event_flags,
    fourier_truth,
    grid_density_measure,
    kappa,
    lemma_bounds,
    l0k_truth,
    linear_truth,
    membership,
    oracle_path,
    oracle_report,
    oracle_scan,
    population_dist2,
    population_problem,
    sobolev_truth,
    sparsity,
    sup_norm_error,
    tabulated_truth,
    theorem_rhs,
    uniform_measure,
)
from l1agg import dictionary, oracles
from l1agg.dictionary import SUP_GRID_POINTS, sup_norm_grid
from l1agg.oracles import COHERENCE_THRESHOLD, _oracle_search
from l1agg.tails import LEMMA_KINDS, LEMMA_PARAMS

RNG = np.random.default_rng(2024)


@pytest.fixture
def design_points(monkeypatch):
    """The points of every ``evaluate`` call made through the dictionary
    module, the one that forms population designs, in call order."""
    calls = []
    original = dictionary.evaluate

    def spy(d, points):
        calls.append(points)
        return original(d, points)

    monkeypatch.setattr(dictionary, "evaluate", spy)
    return calls


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_refused(self, bad):
        with pytest.raises(NumericError, match="non-finite entries"):
            sparsity(np.array([1.0, bad]))


class TestCoefficientTruths:
    @pytest.mark.parametrize("make", [fourier_truth, linear_truth])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_refused(self, make, bad):
        with pytest.raises(ConfigError, match="finite 1-d coefficient vector"):
            make([1.0, bad])

    @pytest.mark.parametrize("make", [fourier_truth, linear_truth])
    @pytest.mark.parametrize("coef", [[], [[1.0, 2.0]]], ids=["empty", "2-d"])
    def test_shape_refused(self, make, coef):
        with pytest.raises(ConfigError, match="nonempty"):
            make(coef)

    @pytest.mark.parametrize("kind", ["fourier", "linear"])
    def test_coefficients_required(self, kind):
        with pytest.raises(ConfigError, match=f"{kind} truths need a nonempty, finite 1-d"):
            TruthSpec(kind=kind)

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigError, match="unknown truth kind 'wavelet'"):
            TruthSpec(kind="wavelet", theta=np.ones(2))

    def test_one_dimensional_points(self):
        # 1-d points are one axis: a tabulated truth reads them as (n, 1),
        # and a linear truth of two coefficients finds too few coordinates.
        x = np.array([0.25, 0.5])
        truth = tabulated_truth([0.0, 1.0], [1.0, 3.0])
        assert evaluate_truth(truth, x).tolist() == evaluate_truth(truth, x[:, None]).tolist()
        assert evaluate_truth(truth, x).tolist() == [1.5, 2.0]
        with pytest.raises(ConfigError, match="fewer coordinates than truth coefficients"):
            evaluate_truth(linear_truth([1.0, 2.0]), x)


def top_abs(theta, M, k):
    """theta_M's k entries of largest |theta_j|, ties to the smaller index;
    zero elsewhere."""
    theta_M = np.zeros(M)
    theta_M[: min(M, theta.size)] = theta[:M]
    lam = np.zeros(M)
    keep = np.argsort(-np.abs(theta_M), kind="stable")[:k]
    lam[keep] = theta_M[keep]
    return lam


class TestOracleFourier:
    """oracle_path's closed form on a Fourier coefficient problem (Psi = I)."""

    def test_top_two(self):
        truth = fourier_truth(np.array([3.0, 1.0, 0.0, 0.5]))
        lam, exact = oracle_at(build_fourier(4), uniform_measure(), truth, 2)
        np.testing.assert_array_equal(lam, [3.0, 1.0, 0.0, 0.0])
        assert exact

    def test_exact_representation(self):
        theta = np.array([0.0, 2.0, 0.0, -1.0])
        problem = population_problem(build_fourier(4), uniform_measure(), fourier_truth(theta))
        ((_, lam, dist2, exact),) = oracle_path(problem, [2])
        np.testing.assert_array_equal(lam, theta)
        assert dist2 == 0.0 and exact

    def test_tie_breaks_to_smallest_index(self):
        truth = fourier_truth(np.array([1.0, 1.0]))
        lam, _ = oracle_at(build_fourier(2), uniform_measure(), truth, 1)
        np.testing.assert_array_equal(lam, [1.0, 0.0])

    def test_k_too_large(self):
        truth = fourier_truth(np.array([1.0, 2.0]))
        path = oracle_path(population_problem(build_fourier(2), uniform_measure(), truth), [3])
        with pytest.raises(ConfigError, match=r"outside \[0, M\] = \[0, 2\]"):
            next(path)

    def test_optimal_over_all_supports(self):
        # Exhaustive check: no other support of size k attains a smaller
        # residual (orthonormal closed form per support).
        M = 12
        theta = RNG.normal(size=M)
        problem = population_problem(build_fourier(M), uniform_measure(), fourier_truth(theta))
        total = float(theta @ theta)
        for k, _, achieved, exact in oracle_path(problem, [1, 2, 3]):
            best = total - float(np.sort(theta**2)[::-1][:k].sum())
            assert exact and achieved == pytest.approx(best, abs=1e-12)
            for support in itertools.combinations(range(M), k):
                rival = total - float(sum(theta[j] ** 2 for j in support))
                assert achieved <= rival + 1e-12

    @pytest.mark.parametrize("M", [25, 304])
    @pytest.mark.parametrize(
        "truth", [sobolev_truth(1.0), sobolev_truth(2.0), l0k_truth(3), l0k_truth(10)],
        ids=["sobolev-1", "sobolev-2", "l0k-3", "l0k-10"],
    )
    def test_keeps_the_largest_coefficients(self, M, truth):
        problem = population_problem(build_fourier(M), uniform_measure(), truth)
        for k, lam, dist2, exact in oracle_path(problem, range(min(M, 30) + 1)):
            reference = top_abs(truth.theta, M, k)
            assert np.array_equal(lam, reference) and exact
            assert dist2 == population_dist2(problem, reference)


class TestDiagonalGram:
    """The closed form is read off Psi, whatever the dictionary's kind."""

    def test_disjoint_supports_match_the_search(self):
        # Hats of different heights on disjoint intervals of [0, 1], zero
        # elsewhere: every quadrature node meets at most one of them, so
        # the quadrature Psi is exactly diagonal.
        M, grid = 8, np.linspace(0.0, 1.0, 8 * 16 + 1)
        tables = []
        for j in range(M):
            hat = np.maximum(0.0, 1.0 - np.abs(grid * M - (j + 0.5)) * 2.0)
            tables.append((grid, (1.0 + 0.3 * j) * hat))
        truth = fine_tabulated_truth(lambda x: np.sin(5.0 * x) + x * x)
        problem = population_problem(build_tabulated(tables), uniform_measure(), truth)
        assert np.count_nonzero(problem.psi) == M
        for k, lam, dist2, exact in oracle_path(problem, range(M + 1)):
            assert exact
            if k == 0:
                continue
            searched, _ = _oracle_search(problem.psi, problem.g, problem.f2, k)
            np.testing.assert_array_equal(np.flatnonzero(lam), np.flatnonzero(searched))
            assert dist2 == pytest.approx(population_dist2(problem, searched), rel=0, abs=1e-12)

    def test_centred_box_is_exact_at_every_k(self, monkeypatch):
        # The box's moment Gram is diagonal; the search fell back to greedy
        # (exact = 0) at k = 8 ... 12, where C(20, k) > 1e5.
        M = 20
        d = build_coordinate(M, domain=[-1.0, 1.0])
        theta = np.random.default_rng(5).normal(size=M)
        problem = population_problem(d, uniform_measure(), linear_truth(theta))
        start = time.perf_counter()
        path = list(oracle_path(problem, range(M + 1)))
        assert time.perf_counter() - start < 0.5
        assert [exact for *_, exact in path] == [True] * (M + 1)
        _, lam, dist2, _ = path[10]
        monkeypatch.setattr("l1agg.oracles.EXHAUSTIVE_SUPPORT_CAP", 0)
        greedy, exact = _oracle_search(problem.psi, problem.g, problem.f2, 10)
        assert not exact and sparsity(lam)[1] == 10
        assert dist2 <= population_dist2(problem, greedy) + 1e-12


def oracle_at(dictionary, measure, truth, k):
    """``(lambda, exact)`` of :func:`oracle_path` at the one size k."""
    ((_, lam, _, exact),) = oracle_path(population_problem(dictionary, measure, truth), [k])
    return lam, exact


class TestOracleGeneral:
    """The k-sparse search that oracle_path runs when Psi is not diagonal."""

    def test_orthonormal_matches_closed_form(self):
        # A flat density is the uniform measure by quadrature, so the
        # search runs on a quadrature problem.
        theta = np.array([0.0, 1.5, 0.0, -0.7, 0.2])
        truth = fourier_truth(theta)
        d = build_fourier(5)
        flat = grid_density_measure([0.0, 1.0], [1.0, 1.0])
        assert population_problem(d, flat, truth).theta is None
        lam, exact = oracle_at(d, flat, truth, 2)
        assert exact
        np.testing.assert_allclose(lam, top_abs(theta, 5, 2), atol=1e-9)

    def test_full_support_is_projection(self):
        d = correlated_tabulated_dictionary(M=4)
        truth = fine_tabulated_truth(lambda x: np.sin(2 * np.pi * x))
        measure = uniform_measure()
        problem = population_problem(d, measure, truth)
        *smaller, (_, _, full, exact) = oracle_path(problem, [1, 2, 3, 4])
        assert exact
        assert all(full <= dist2 + 1e-12 for _, _, dist2, _ in smaller)

    def test_exhaustive_beats_greedy(self, monkeypatch):
        d = correlated_tabulated_dictionary(M=6)
        truth = fine_tabulated_truth(lambda x: np.cos(3 * x) + x)
        measure = uniform_measure()
        lam_ex, exact = oracle_at(d, measure, truth, 2)
        assert exact
        monkeypatch.setattr("l1agg.oracles.EXHAUSTIVE_SUPPORT_CAP", 0)
        lam_greedy, exact_greedy = oracle_at(d, measure, truth, 2)
        assert not exact_greedy
        problem = population_problem(d, measure, truth)
        res_ex = population_dist2(problem, lam_ex)
        res_greedy = population_dist2(problem, lam_greedy)
        assert res_ex <= res_greedy + 1e-12

    def test_nesting_in_k(self):
        d = correlated_tabulated_dictionary(M=7, seed=3)
        truth = fine_tabulated_truth(np.exp)
        measure = uniform_measure()
        path = oracle_path(population_problem(d, measure, truth), range(0, 5))
        residuals = [dist2 for _, _, dist2, _ in path]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_singular_restricted_gram_warns_once(self):
        # f_1 = f_2, so the support {1, 2} has a singular restricted Gram;
        # the other two supports of size 2 do not.
        grid = np.linspace(0.0, 1.0, 5)
        d = build_tabulated([(grid, 1.0 + grid), (grid, 1.0 + grid), (grid, grid**2)])
        truth = tabulated_truth(grid, np.sin(3.0 * grid))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam, exact = oracle_at(d, uniform_measure(), truth, 2)
        assert [str(w.message) for w in caught] == [
            "restricted Gram is singular; using a pseudo-inverse solution"
        ]
        assert exact and np.all(np.isfinite(lam))
        assert math.isfinite(population_dist2(population_problem(d, uniform_measure(), truth), lam))

    def test_failed_pseudo_inverse_is_a_numeric_error(self, monkeypatch):
        # The pseudo-inverse's LinAlgError used to escape the library's errors.
        def no_convergence(_):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "pinv", no_convergence)
        grid = np.linspace(0.0, 1.0, 5)
        d = build_tabulated([(grid, 1.0 + grid), (grid, 1.0 + grid), (grid, grid**2)])
        truth = tabulated_truth(grid, np.sin(3.0 * grid))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericError, match="restricted Gram has no pseudo-inverse"):
                oracle_at(d, uniform_measure(), truth, 2)


ORACLE_PAIRS = {
    "fourier-uniform": lambda: (build_fourier(5), fourier_truth(np.array([1.0, 0.0, -2.0]))),
    "tabulated": lambda: (
        correlated_tabulated_dictionary(M=5),
        fine_tabulated_truth(lambda x: np.sin(2 * np.pi * x)),
    ),
}


class TestOraclePath:
    @pytest.mark.parametrize("pair", sorted(ORACLE_PAIRS))
    @pytest.mark.parametrize("k", [-1, 6])
    def test_k_outside_zero_to_m_refused(self, pair, k):
        d, truth = ORACLE_PAIRS[pair]()
        path = oracle_path(population_problem(d, uniform_measure(), truth), [0, k])
        assert next(path)[0] == 0
        with pytest.raises(ConfigError, match=r"outside \[0, M\] = \[0, 5\]"):
            next(path)

    @pytest.mark.parametrize("pair, builds", [("fourier-uniform", 0), ("tabulated", 1)])
    def test_search_problem_built_once(self, pair, builds, design_points):
        d, truth = ORACLE_PAIRS[pair]()
        problem = population_problem(d, uniform_measure(), truth)
        path = list(oracle_path(problem, range(d.M + 1)))
        assert [k for k, *_ in path] == list(range(d.M + 1))
        assert np.all(path[0][1] == 0.0) and path[0][3]
        assert len(design_points) == builds

    @pytest.mark.parametrize("pair", ["fourier-sobolev", "tabulated"])
    def test_builder_does_the_whole_population_pass(self, pair, monkeypatch):
        # Psi, g and ||f||^2 used to be formed on first read, so kappa and
        # the oracle path ran the closed form or the quadrature design.
        if pair == "tabulated":
            d, truth = ORACLE_PAIRS[pair]()
        else:
            d, truth = build_fourier(25), sobolev_truth(1.0)
        problem = population_problem(d, uniform_measure(), truth)
        calls = []

        def spy(module, name):
            original = getattr(module, name)
            return lambda *args: calls.append(name) or original(*args)

        for module, name in [
            (dictionary, "evaluate"),
            (dictionary, "_uniform_closed_form"),
            (oracles, "evaluate_truth"),
        ]:
            monkeypatch.setattr(module, name, spy(module, name))
        kappa(problem.psi)
        for _, lam, dist2, _ in oracle_path(problem, range(d.M + 1)):
            assert population_dist2(problem, lam) == dist2
        assert calls == []

    @pytest.mark.parametrize(
        "dictionary, truth, message",
        [
            (build_coordinate(2), linear_truth(np.ones(3)),
             "grids span one axis; the coordinate dictionary has d = 2"),
            (build_tabulated([(np.array([-1.0, 1.0]), np.ones(2))] * 2, domain=[-1.0, 1.0]),
             fourier_truth([1.0]),
             r"trigonometric truth is defined on \[0, 1\], not on the domain \[-1.0, 1.0\]"),
            (build_fourier(3), tabulated_truth([0.5, 1.0], [1.0, 2.0]),
             r"tabulated truth spans \[0.5, 1.0\], not the domain \[0.0, 1.0\]"),
        ],
        ids=["linear-truth-longer-than-M", "fourier-truth-from-minus-one",
             "tabulated-truth-starts-inside"],
    )
    def test_problem_refused(self, dictionary, truth, message):
        with pytest.raises(ConfigError, match=message):
            population_problem(dictionary, uniform_measure(), truth)

    def test_quadrature_problem_arrays_are_read_only(self):
        # A fourier dictionary with a tabulated truth takes the exact Psi = I
        # and g from the design on the quadrature nodes.
        problem = population_problem(
            build_fourier(5), uniform_measure(), fine_tabulated_truth(np.cos)
        )
        assert np.array_equal(problem.psi, np.eye(5)) and problem.theta is None
        for shared in (problem.psi, problem.g):
            with pytest.raises(ValueError, match="read-only"):
                shared[...] = 0.0

    @pytest.mark.parametrize("ends", [(0.0, 1.0), (-1.0, 2.0), (5e-13, 1.0 - 5e-13)])
    def test_tabulated_truth_covering_the_domain_accepted(self, ends):
        grid = np.linspace(*ends, 9)
        problem = population_problem(build_fourier(3), uniform_measure(),
                                     tabulated_truth(grid, grid))
        assert problem.f2 == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_linear_truth_on_a_box_searches_the_moment_gram(self):
        # Used to be refused: grids span one axis. On the non-centred
        # [-1, 3]^3 Psi is not diagonal, so the support search runs.
        d = build_coordinate(3, domain=[-1.0, 3.0])
        theta = np.array([1.0, -2.0, 0.5])
        problem = population_problem(d, uniform_measure(), linear_truth(theta))
        a, b = d.domain
        psi = np.full((3, 3), ((a + b) / 2) ** 2)
        np.fill_diagonal(psi, (a * a + a * b + b * b) / 3)
        assert not np.array_equal(psi, np.diag(psi.diagonal()))
        for k, lam, dist2, exact in oracle_path(problem, range(4)):
            best = math.inf
            for support in itertools.combinations(range(3), k):
                idx = list(support)
                lam_s = np.zeros(3)
                if idx:
                    lam_s[idx] = np.linalg.solve(psi[np.ix_(idx, idx)], psi[idx] @ theta)
                best = min(best, (lam_s - theta) @ psi @ (lam_s - theta))
            assert exact and sparsity(lam)[1] <= k
            assert dist2 == pytest.approx(best, rel=1e-12, abs=1e-13)
        assert dist2 == pytest.approx(0.0, abs=1e-13)


class TestLinearDistance:
    """population_dist2 of a coordinate dictionary to a linear truth uses
    the closed-form moment Gram of the uniform law on [lo, hi]^d."""

    def test_moment_gram_form(self):
        d = build_coordinate(3, domain=[-1.0, 3.0])
        diff = np.array([0.5, -1.0, 2.0])
        a, b = d.domain
        psi = np.full((3, 3), ((a + b) / 2) ** 2)
        np.fill_diagonal(psi, (a * a + a * b + b * b) / 3)
        problem = population_problem(d, uniform_measure(), linear_truth(np.zeros(3)))
        got = population_dist2(problem, diff)
        assert got == pytest.approx(diff @ psi @ diff, rel=1e-14)

    def test_overflowing_gram_is_a_numeric_error(self):
        # On [-1e200, 1e200] the second moments overflow, on [-1e100, 1e100]
        # only the fourth moments: one NumericError when the problem is built,
        # no numpy warning.
        for bound in (1e200, 1e100):
            box = build_coordinate(2, domain=[-bound, bound])
            with pytest.raises(NumericError, match="population Gram, L, c0 or L0 is not finite"):
                population_problem(box, uniform_measure(), linear_truth(np.ones(2)))


class TestOverflowingTruth:
    """A truth whose g, ||f||^2 or distance overflows gives one NumericError
    and no numpy warning (the suite turns warnings into errors)."""

    def test_distance_overflow(self):
        # Psi = I and g = theta are finite, but ||f||^2 = 2e616 is not, so
        # the problem is refused; it used to be built and d'Psi d at
        # lambda = 0 read inf. The same overflow beyond M, in
        # ||theta beyond M||^2, is refused too.
        for theta in ([1e308, 1e308], [1.0, 0.0, 0.0, 0.0, 1e308, 1e308]):
            with pytest.raises(NumericError, match=r"g or \|\|f\|\|\^2 is not finite"):
                population_problem(build_fourier(4), uniform_measure(), fourier_truth(theta))
        # A finite problem whose distance to a finite lambda overflows.
        problem = population_problem(build_fourier(4), uniform_measure(), fourier_truth([1.0]))
        with pytest.raises(NumericError, match="distance .* is not finite"):
            population_dist2(problem, np.array([1e308, 1e308, 0.0, 0.0]))

    def test_quadrature_products_overflow(self):
        # The Gram of a 1e200 table overflows first. With a finite Gram,
        # ||f||^2 of a 1e200 truth overflows, and so does g of a 1e308
        # truth against a column of 4s, which is checked first.
        grid = np.linspace(0.0, 1.0, 5)
        for dictionary_value, truth_value, what in [
            (1e200, 1e200, "population Gram, L, c0 or L0"),
            (1.0, 1e200, r"g or \|\|f\|\|\^2"),
            (4.0, 1e308, r"g or \|\|f\|\|\^2"),
        ]:
            d = build_tabulated([(grid, np.full(5, dictionary_value)), (grid, grid)])
            truth = tabulated_truth(grid, np.full(5, truth_value))
            with pytest.raises(NumericError, match=f"{what} is not finite"):
                population_problem(d, uniform_measure(), truth)


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

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ((math.nan, 1, 0.0, 0.1), NumericError, "inputs must be finite"),
            ((0.0, 1, math.inf, 0.1), NumericError, "inputs must be finite"),
            ((0.0, 1, 0.0, math.inf), NumericError, "inputs must be finite"),
            ((0.0, 1, 0.0, 0.0), ConfigError, "needs r_nM > 0"),
            ((0.0, 1, 0.0, -0.1), ConfigError, "needs r_nM > 0"),
        ],
        ids=["dist2-nan", "rho-inf", "r-inf", "r-zero", "r-negative"],
    )
    def test_bad_input_refused(self, args, error, match):
        with pytest.raises(error, match=match):
            membership(*args, 1.0, 1.0)

    @pytest.mark.parametrize("constants", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_constant_refused(self, constants):
        # Used to make the flag it enters False without a word.
        with pytest.raises(ConfigError, match="needs C_f >= 0 and C_f_prime >= 0"):
            membership(0.0, 1, 0.0, 0.1, *constants)


class TestTheoremRhs:
    def test_risk_shape(self):
        assert theorem_rhs("t21_risk", 0.1, 4, kappa_M=0.5) == pytest.approx(0.08)

    def test_t23(self):
        assert theorem_rhs("t23", 0.1, 1, dist2=0.01) == pytest.approx(0.02)

    def test_empty_oracle(self):
        assert theorem_rhs("t21_risk", 0.1, 0, kappa_M=1.0) == 0.0

    @pytest.mark.parametrize("kind", ["t22_risk", "t22_l1", "t24"])
    def test_unknown_kind_names_the_kinds(self, kind):
        with pytest.raises(ConfigError, match=r"\('t21_risk', 't21_l1', 't23'\)"):
            theorem_rhs(kind, 0.1, 1, kappa_M=1.0, dist2=0.0)

    @pytest.mark.parametrize(
        "kind, m_lambda, extra, message",
        [
            ("t21_risk", -1, dict(kappa_M=1.0), r"needs r_nM > 0 and M\(lambda\) >= 0"),
            ("t23", 1, {}, "t23 needs a nonnegative dist2"),
            ("t21_l1", 1, {}, r"t21 bounds need kappa_M in \(0, 1\]"),
            ("t21_risk", 1, dict(kappa_M=0.0), r"t21 bounds need kappa_M in \(0, 1\]"),
            ("t21_risk", 1, dict(kappa_M=1.5), r"t21 bounds need kappa_M in \(0, 1\]"),
        ],
        ids=["m-negative", "t23-no-dist2", "t21-no-kappa", "kappa-zero", "kappa-above-one"],
    )
    def test_bad_argument_refused(self, kind, m_lambda, extra, message):
        with pytest.raises(ConfigError, match=message):
            theorem_rhs(kind, 0.1, m_lambda, **extra)

    def test_bad_kappa_rejected(self):
        with pytest.raises(ConfigError):
            theorem_rhs("t21_risk", 0.1, 3, kappa_M=0.0)

    @pytest.mark.parametrize(
        "kind, r_nM, dist2",
        [("t21_risk", math.nan, None), ("t23", math.nan, 0.0), ("t23", 0.1, math.nan)],
    )
    def test_nan_input_refused(self, kind, r_nM, dist2):
        # Each used to return nan.
        with pytest.raises(ConfigError):
            theorem_rhs(kind, r_nM, 1, kappa_M=1.0, dist2=dist2)

    @pytest.mark.parametrize("kind", ["t21_risk", "t23"])
    def test_overflow_is_a_numeric_error(self, kind):
        # r**2 used to raise a bare OverflowError.
        with pytest.raises(NumericError, match=f"theorem {kind} cannot be evaluated"):
            theorem_rhs(kind, 1e200, 1, kappa_M=1.0, dist2=0.0)
        assert theorem_rhs("t21_l1", 1e200, 1, kappa_M=1.0) == 1e200


class TestBernstein:
    def test_vacuous_at_n_zero(self):
        assert bernstein_bound(0, 1.0, 1.0, 0.0) == 1.0

    def test_vacuous_at_epsilon_zero(self):
        assert bernstein_bound(100, 0.0, 1.0, 1.0) == 1.0

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

    @pytest.mark.parametrize(
        "args, name",
        [
            ((10, math.nan, 1.0, 1.0), "epsilon"),
            ((math.nan, 0.5, 1.0, 1.0), "n"),
            ((10, 0.5, 1.0, math.nan), "d"),
            ((10, 0.5, math.inf, 1.0), "w2"),
            ((math.inf, 0.5, 1.0, 1.0), "n"),
            ((10, -0.5, 1.0, 1.0), "epsilon"),
            ((10.5, 0.5, 1.0, 1.0), "n"),
        ],
    )
    def test_refuses_non_finite_and_non_integral_input(self, args, name):
        # The first four used to return 1.0, the fifth 0.0, and n = 10.5 was read.
        with pytest.raises(ConfigError, match=rf"needs (finite|an integer) {name}\b"):
            bernstein_bound(*args)

    def test_zero_variance_and_range_give_zero(self):
        # w2 = d = 0: the deviation eps > 0 has probability 0.
        assert bernstein_bound(10, 0.5, 0.0, 0.0) == 0.0

    def test_integral_float_n_accepted(self):
        assert bernstein_bound(1e2, 1.0, 1.0, 0.0) == bernstein_bound(100, 1.0, 1.0, 0.0)


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

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, 0])
    def test_n_must_be_a_positive_integer(self, n):
        # nan and inf used to give 0.0, a bound saying E2 fails never.
        with pytest.raises(ConfigError, match=f"need an integer n >= 1, got {n}$"):
            lemma_bounds("L4", n, M=10, c0=1.0, L=math.sqrt(2))

    @pytest.mark.parametrize(
        "which, name", [("L4", "M"), ("L6", "m_lambda"), ("L7", "M"), ("L7", "m_lambda")]
    )
    def test_counts_must_be_integral(self, which, name):
        values = dict(M=5, r_nM=0.3, c0=0.9, L=1.5, L0=1.4, kappa_M=0.9, C_f=1.0,
                      m_lambda=2, L_lambda=0.5)
        params = {k: values[k] for k in LEMMA_PARAMS[which]}
        with pytest.raises(ConfigError, match=f"needs an integer {name}, got 2.5$"):
            lemma_bounds(which, 100, **(params | {name: 2.5}))

    def test_integral_floats_accepted(self):
        got = lemma_bounds("L4", 1e3, M=10.0, c0=1.0, L=math.sqrt(2))
        assert got == lemma_bounds("L4", 1000, M=10, c0=1.0, L=math.sqrt(2))

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

    def test_noise_shape_refused(self):
        design = self._design(n=10)
        with pytest.raises(ConfigError, match="noise vector must match the design row count"):
            event_flags(
                design, np.zeros(design.n + 1), np.ones(design.M), np.ones(design.M),
                np.zeros(design.n), 0.0, 0.1, 1,
            )


class TestOracleReport:
    def test_exact_representation_scan(self):
        theta = np.zeros(7)
        theta[1], theta[3], theta[6] = 3.0, 2.0, 1.0
        truth = fourier_truth(theta)
        d = build_fourier(10)
        report = oracle_report(population_problem(d, uniform_measure(), truth), r_nM=0.5, C_f=1.0)
        assert report.k_star == 3
        assert report.dist2 == 0.0
        assert report.L_lambda < 1e-9
        assert report.memberships.in_coherent_oracle_set

    def test_found_report_on_a_tabulated_pair_builds_one_design(self, design_points):
        # The search's design, the Gram it read and the Gram rho(lambda)
        # read used to be 3 quadrature designs.
        d, truth = ORACLE_PAIRS["tabulated"]()
        *_, (_, _, dist2, _) = oracle_path(population_problem(d, uniform_measure(), truth), [2])
        design_points.clear()
        report = oracle_report(population_problem(d, uniform_measure(), truth), dist2**0.5)
        assert report.k_star in (1, 2)
        assert len(design_points) == 1

    def test_empty_oracle_set(self):
        truth = fine_tabulated_truth(lambda x: np.sign(x - 0.5))
        d = build_fourier(4)
        report = oracle_report(population_problem(d, uniform_measure(), truth), r_nM=1e-6, C_f=1.0)
        assert report.k_star is None
        assert report.lambda_star is None
        assert report.memberships is None

    def test_scan_without_oracle_keeps_last_vector(self):
        # The tail beyond M keeps dist2 above C_f r^2 M(lambda) at every k.
        theta = np.arange(40, 0, -1, dtype=float) / 40.0
        d = build_fourier(8)
        problem = population_problem(d, uniform_measure(), fourier_truth(theta))
        lam, dist2, found = oracle_scan(problem, r_nM=1e-3)
        assert not found
        np.testing.assert_array_equal(lam, theta[:8])
        assert dist2 == pytest.approx(float(theta[8:] @ theta[8:]), rel=1e-12)

    @pytest.mark.parametrize("r_nM, C_f", [(math.nan, 1.0), (0.1, math.nan)])
    def test_scan_refuses_nan_rate_or_constant(self, r_nM, C_f):
        # Each used to scan every k and report found = False.
        problem = population_problem(build_fourier(4), uniform_measure(), sobolev_truth(1.0))
        with pytest.raises(ConfigError, match="needs r_nM > 0 and C_f >= 0"):
            oracle_scan(problem, r_nM, C_f)

    def test_zero_truth(self):
        truth = fourier_truth(np.zeros(3))
        d = build_fourier(5)
        report = oracle_report(population_problem(d, uniform_measure(), truth), r_nM=0.1)
        assert report.k_star == 0
        assert report.dist2 == 0.0

    @pytest.mark.parametrize("M", [25, 861, 4095])
    def test_sup_norm_error_streams_fourier_sums(self, M):
        # The scan holds the half spectrum (N / 2 + 1 complex bins) and one
        # N-point output, about 16 B per node. An (n, M) or (n, 400) block
        # on the 100,001-point grid alone would take 20-3300 MB.
        truth = sobolev_truth(1.0)
        lam = top_abs(truth.theta, M, 10)
        tracemalloc.start()
        try:
            sup_norm_error(build_fourier(M), truth, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * (SUP_GRID_POINTS - 1)

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

    @pytest.mark.parametrize("top", ["cos", "sin", "beyond"])
    def test_sup_norm_error_fourier_pair_reaching_half_the_grid_streams(
        self, monkeypatch, top
    ):
        # On a 17-point grid (N = 16) frequency 8 = N / 2 shares its bin of
        # the half spectrum with its mirror, so a pair reaching it is
        # streamed like every other pair, not summed by the FFT.
        monkeypatch.setattr(dictionary, "SUP_GRID_POINTS", 17)
        monkeypatch.setattr(oracles, "SUP_GRID_POINTS", 17)
        monkeypatch.setattr(oracles, "_fourier_grid", None)
        M = {"cos": 16, "sin": 17, "beyond": 23}[top]
        rng = np.random.default_rng(M)
        d = build_fourier(M)
        truth = fourier_truth(rng.normal(size=M))
        lam = rng.normal(size=M)
        pts = np.linspace(0.0, 1.0, 17)[:, None]
        expected = np.abs(dictionary.predict(d, lam, pts) - evaluate_truth(truth, pts)).max()
        assert sup_norm_error(d, truth, lam) == expected

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
        with pytest.raises(ConfigError, match=message):
            tabulated_truth(x, np.ones(len(x)))

    def test_sup_norm_error_fft_rejects_wrong_length(self):
        with pytest.raises(ConfigError, match=r"must have shape \(5,\), got \(4,\)"):
            sup_norm_error(build_fourier(5), sobolev_truth(1.0), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_sup_norm_error_refuses_non_finite_lambda(self, bad):
        # Both the FFT pair and the streamed pair; unchecked, each returned nan.
        lam = np.zeros(5)
        lam[2] = bad
        for truth in (sobolev_truth(1.0), tabulated_truth([0.0, 1.0], [0.0, 1.0])):
            with pytest.raises(NumericError, match="non-finite"):
                sup_norm_error(build_fourier(5), truth, lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_population_dist2_refuses_non_finite_lambda(self, bad):
        # A coefficient problem and a quadrature problem; unchecked, each
        # returned nan.
        lam = np.zeros(3)
        lam[1] = bad
        table = (np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        for d in (build_fourier(3), build_tabulated([table] * 3)):
            problem = population_problem(d, uniform_measure(), sobolev_truth(1.0))
            with pytest.raises(NumericError, match="non-finite"):
                population_dist2(problem, lam)

    def test_fourier_truth_outside_unit_interval_rejected(self):
        truth = fourier_truth(np.array([0.5, 1.0, -1.0]))
        with pytest.raises(ConfigError, match="points fall outside the dictionary domain"):
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
