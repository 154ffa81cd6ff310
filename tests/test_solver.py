"""Coordinate descent solver: closed forms, KKT certificates, properties."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1agg import (
    ConfigError,
    ConvergenceError,
    DesignMatrix,
    ExperimentConfig,
    NumericError,
    build_coordinate,
    build_fourier,
    empirical_gram,
    empirical_norms,
    evaluate,
    event_flags,
    fit,
    penalty_weights,
    predict,
    rate,
    run,
)
from l1agg import cli, experiments, solver
from l1agg.solver import soft_threshold


def make_design(entries):
    entries = np.asarray(entries, dtype=float)
    return DesignMatrix(n=entries.shape[0], M=entries.shape[1], entries=entries)


def orthonormalized_design(rng, n, M):
    """Columns exactly orthonormal in the empirical inner product."""
    q, _ = np.linalg.qr(rng.normal(size=(n, M)))
    return make_design(q * math.sqrt(n))


def log_m_weights(design, A):
    """The penalty weights at the rate A sqrt(log M / n)."""
    return penalty_weights(design, rate(A, design.n, design.M, "log_M"))


def reference_violation(grad, signs, weights):
    """Each coordinate's KKT violation, written out on its own."""
    return np.where(signs == 0.0, np.maximum(np.abs(grad) - weights, 0.0),
                    np.abs(grad - weights * signs))


def reference_finish(phi, residual, lam, weights, bound):
    """The exact finish from the residual loop's own quantities: a Newton
    step Phi_S^T Phi_S / n delta = grad_S - omega_S s on the support S with
    signs s, grad = n^-1 Phi^T residual, kept only if the signs hold and
    every KKT violation at the candidate's fresh residual is within bound."""
    n = phi.shape[0]
    signs = np.sign(lam)
    S = np.flatnonzero(signs)
    phi_s = phi[:, S]
    with np.errstate(all="ignore"):
        grad = phi.T @ residual / n
        try:
            delta = np.linalg.solve(phi_s.T @ phi_s / n, grad[S] - weights[S] * signs[S])
        except np.linalg.LinAlgError:
            return None
        cand = lam.copy()
        cand[S] += delta
        grad = phi.T @ (residual - phi_s @ delta) / n
    if not np.array_equal(np.sign(cand[S]), signs[S]):
        return None
    return cand if np.all(reference_violation(grad, signs, weights) <= bound) else None


def reference_fit(design, y, weights, tol=1e-9, max_sweeps=100_000):
    """The residual-update coordinate descent that ``fit`` replaced: same
    zero start, sweep order, update, stopping test and exact finish, but
    each visit takes c_j from an O(n) dot product with the running residual,
    and the test reads the gradient n^-1 Phi^T residual."""
    phi = design.entries
    n, M = design.n, design.M
    col_sq = np.mean(phi * phi, axis=0)
    bound = tol * np.sqrt(y @ y / n) * np.sqrt(col_sq)
    lam = np.zeros(M)
    residual = y.copy()
    signs = np.zeros(M)
    tried = False
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        for j in range(M):
            if col_sq[j] == 0.0:
                continue
            col = phi[:, j]
            c_j = col @ residual / n + lam[j] * col_sq[j]
            new = soft_threshold(c_j, weights[j]) / col_sq[j]
            if new != lam[j]:
                residual -= (new - lam[j]) * col
                lam[j] = new
        previous, signs = signs, np.sign(lam)
        if np.all(reference_violation(phi.T @ residual / n, signs, weights) <= bound):
            converged = True
            break
        if not np.array_equal(signs, previous):
            tried = False
        elif not tried:
            tried = True
            finish = reference_finish(phi, residual, lam, weights, bound)
            if finish is not None:
                lam = finish
                converged = True
                break
    return {
        "lambda_hat": lam,
        "sweeps": sweeps,
        "converged": converged,
        "support": np.flatnonzero(lam != 0.0),
    }


def reference_cases():
    """(design, y, weights) for the shapes the covariance updates must
    track the residual loop on."""
    rng = np.random.default_rng(101)
    cases = {}
    base = rng.normal(size=(60, 8))
    base[:, 1] = 0.95 * base[:, 0] + 0.05 * base[:, 1]
    base[:, 5] = 0.8 * base[:, 4] - 0.6 * base[:, 2]
    cases["correlated"] = (base, 0.2)
    dup = rng.normal(size=(50, 6))
    dup[:, 4] = dup[:, 1]
    cases["duplicated"] = (dup, 0.3)
    zero = rng.normal(size=(40, 5))
    zero[:, 2] = 0.0
    cases["zero-column"] = (zero, 0.5)
    cases["M-gt-n"] = (rng.normal(size=(20, 45)), 0.5)
    # Every coordinate fails the KKT test at zero (fit takes each Psi_j from
    # one Gram product), and two of twelve do (fit forms them one by one).
    extra = np.random.default_rng(102)
    shared = 0.5 * extra.normal(size=(70, 1))
    cases["all-fail-at-zero"] = (extra.normal(size=(70, 6)) + shared, 0.02)
    cases["few-fail-at-zero"] = (extra.normal(size=(60, 12)), 5.0)
    out = {}
    for name, (entries, A) in cases.items():
        design = make_design(entries)
        y = entries[:, :3] @ np.array([1.5, -2.0, 0.7]) + 0.3 * rng.normal(size=design.n)
        out[name] = (design, y, log_m_weights(design, A))
    return out


REFERENCE_CASES = reference_cases()


def assert_matches_reference(result, ref):
    assert result.sweeps == ref["sweeps"]
    assert result.converged == ref["converged"]
    np.testing.assert_array_equal(result.support, ref["support"])
    assert np.max(np.abs(result.lambda_hat - ref["lambda_hat"])) <= 1e-12


def primal_dual_gap(design, y, lam, weights):
    """P(lam) - D(s r) computed directly: D(theta) = n^-1 (|Y|^2 - |Y - theta|^2),
    with s the largest value in [0, 1] keeping |n^-1 <f_j, s r>| <= omega_j."""
    n = design.n
    r = y - design.entries @ lam
    corr = np.abs(design.entries.T @ r) / n
    s = min([1.0] + [w / c for w, c in zip(weights, corr) if c != 0.0])
    theta = s * r
    primal = r @ r / n + 2.0 * weights @ np.abs(lam)
    dual = (y @ y - (y - theta) @ (y - theta)) / n
    return primal - dual


def grid_search_2d(design, y, weights, lo=-5.0, hi=5.0, step=1e-3):
    """Exhaustive objective evaluation over a 2-d grid (chunked outer sum)."""
    n = design.n
    x1, x2 = design.entries[:, 0], design.entries[:, 1]
    q11 = x1 @ x1 / n
    q22 = x2 @ x2 / n
    q12 = x1 @ x2 / n
    b1 = x1 @ y / n
    b2 = x2 @ y / n
    c = y @ y / n
    grid = np.arange(lo, hi + step / 2, step)
    g1 = q11 * grid**2 - 2 * b1 * grid + 2 * weights[0] * np.abs(grid)
    g2 = q22 * grid**2 - 2 * b2 * grid + 2 * weights[1] * np.abs(grid)
    best_val, best_i, best_j = np.inf, 0, 0
    chunk = 500
    for start in range(0, grid.size, chunk):
        stop = min(start + chunk, grid.size)
        block = (
            g1[start:stop, None]
            + g2[None, :]
            + 2 * q12 * np.outer(grid[start:stop], grid)
        )
        flat = np.argmin(block)
        i, j = divmod(flat, grid.size)
        if block[i, j] < best_val:
            best_val, best_i, best_j = block[i, j], start + i, j
    return np.array([grid[best_i], grid[best_j]]), float(best_val + c)


class TestRate:
    def test_log_m(self):
        assert rate(1.0, 100, 10, "log_M") == pytest.approx(
            math.sqrt(math.log(10) / 100)
        )

    def test_log_n(self):
        n = int(round(math.e**2))  # closest integer sample size to e^2
        expected = 2.0 * math.sqrt(math.log(n) / n)
        assert rate(2.0, n, 5, "log_n") == pytest.approx(expected)

    def test_boundary_n_one(self):
        assert rate(1.0, 1, 2, "log_M") == pytest.approx(math.sqrt(math.log(2)))

    def test_log_n_refuses_one_sample(self):
        # log 1 = 0: the rate used to be 0, refused later by penalty_weights.
        with pytest.raises(ConfigError, match="log_n needs n >= 2, got n = 1"):
            rate(1.0, 1, 5, "log_n")

    @pytest.mark.parametrize(
        "n, M, match",
        [(0, 5, "sample size n must be >= 1"), (10, 1, "dictionary size M must be >= 2")],
        ids=["n-zero", "M-one"],
    )
    def test_too_small_n_or_m_rejected(self, n, M, match):
        for kind in ("log_M", "log_n"):
            with pytest.raises(ConfigError, match=match):
                rate(1.0, n, M, kind)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ConfigError):
            rate(0.0, 10, 5, "log_M")

    @pytest.mark.parametrize("A", [math.inf, math.nan])
    def test_nonfinite_a_rejected(self, A):
        with pytest.raises(ConfigError):
            rate(A, 10, 5, "log_M")

    @pytest.mark.parametrize(
        "r, weights",
        [(math.inf, [0.1, 0.2]), (0.5, [0.1, math.nan]), (0.5, [math.inf, 0.2])],
        ids=["rate-inf", "weight-nan", "weight-inf"],
    )
    def test_nonfinite_penalty_rejected(self, r, weights):
        # A bad rate is refused when the weights are formed, a bad weight
        # when fit reads it.
        design = make_design(np.random.default_rng(2).normal(size=(10, 2)))
        with pytest.raises(ConfigError):
            fit(design, design.entries[:, 0], penalty_weights(design, r) * np.array(weights))

    @pytest.mark.parametrize("A", [math.nan, math.inf, 0.0, -1.0])
    def test_explicit_rate_still_needs_a_valid_a(self, A, tmp_path, capsys):
        # An explicit rate does not read A, but a bad A used to be kept; the
        # library takes the rate alone, and the CLI refuses a bad --A.
        data = tmp_path / "data.csv"
        data.write_text("x1,y\n0.1,1.0\n0.2,2.0\n0.3,0.5\n")
        argv = ["fit", "--dict", "fourier:3", "--data", str(data), "--A", str(A),
                "--rate", "explicit:0.5", "--out", str(tmp_path / "coef.csv")]
        assert cli.main(argv) == 1
        assert "A must be finite and positive" in capsys.readouterr().err

    def test_nonfinite_explicit_rate_rejected(self):
        design = make_design(np.random.default_rng(2).normal(size=(10, 3)))
        with pytest.raises(ConfigError, match="rate r_nM must be finite and positive"):
            penalty_weights(design, math.nan)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            rate(1.0, 10, 5, "sqrt_n")


class TestSoftThreshold:
    def test_at_zero(self):
        assert soft_threshold(0.0, 1.0) == 0.0

    def test_shrinks(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_inside_threshold(self):
        assert soft_threshold(-0.5, 1.0) == 0.0

    @given(z=st.floats(-1e6, 1e6), t=st.floats(0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_properties(self, z, t):
        s = soft_threshold(z, t)
        assert abs(s) <= abs(z)
        assert s * z >= 0.0
        if abs(z) > t:
            assert s == pytest.approx(z - math.copysign(t, z))
        else:
            assert s == 0.0


class TestFit:
    def test_orthonormal_matches_closed_form(self):
        rng = np.random.default_rng(0)
        design = orthonormalized_design(rng, 64, 8)
        y = rng.normal(size=64)
        weights = log_m_weights(design, 1.0)
        result = fit(design, y, weights)
        closed = soft_threshold(design.entries.T @ y / 64, weights)
        np.testing.assert_allclose(result.lambda_hat, closed, atol=1e-8)

    def test_zero_response(self):
        design = make_design(np.random.default_rng(1).normal(size=(10, 3)))
        weights = log_m_weights(design, 1.0)
        result = fit(design, np.zeros(10), weights)
        np.testing.assert_array_equal(result.lambda_hat, 0.0)
        assert result.objective == 0.0

    @pytest.mark.parametrize("scale", [1e300, 1e308])
    def test_overflowing_response_is_refused(self, scale):
        # n^-1 ||y||^2 = inf made every stopping bound infinite: at 1e300 the
        # fit "converged" with objective inf after numpy's overflow warnings,
        # at 1e308 the exact finish got an empty support and an IndexError.
        design = evaluate(build_fourier(5), np.array([0.1, 0.2, 0.3]))
        y = scale * np.array([1.0, 1.0, -1.0])
        with pytest.raises(NumericError, match="is not finite"):
            fit(design, y, log_m_weights(design, 1.0))

    def test_overflowing_correlation_is_refused(self):
        # y is finite and n^-1 ||y||^2 = 1e20, but n^-1 Phi^T y overflows on
        # a 1e300 box; every bound would be infinite, as above.
        design = evaluate(build_coordinate(2, domain=[-1e300, 1e300]), np.full((3, 2), 1e300))
        with pytest.raises(NumericError, match=r"or n\^-1 Phi\^T y is not finite"):
            fit(design, np.full(3, 1e10), np.ones(2))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        design = make_design(rng.normal(size=(4, 2)))
        y = rng.normal(size=4)
        weights = log_m_weights(design, 0.5)
        result = fit(design, y, weights)
        lam_grid, obj_grid = grid_search_2d(design, y, weights)
        np.testing.assert_allclose(result.lambda_hat, lam_grid, atol=2e-3)
        assert result.objective == pytest.approx(obj_grid, abs=1e-5)

    def test_kkt_certificate_recomputable(self):
        rng = np.random.default_rng(13)
        design = make_design(rng.normal(size=(40, 5)))
        y = rng.normal(size=40)
        weights = log_m_weights(design, 1.0)
        result = fit(design, y, weights)
        # The largest KKT violation, recomputed from a fresh residual: zero
        # coordinates need |grad_j| <= omega_j, active ones equality with
        # omega_j sign(lambda_j).
        lam, w = result.lambda_hat, weights
        grad = design.entries.T @ (y - design.entries @ lam) / design.n
        again = np.where(lam == 0.0, np.maximum(np.abs(grad) - w, 0.0), np.abs(grad - w * np.sign(lam)))
        assert np.count_nonzero(lam) >= 1 and np.count_nonzero(lam == 0.0) >= 1
        assert abs(again.max() - result.kkt_residual) <= 1e-12

    def test_penalty_dominance_returns_zero_in_one_sweep(self):
        rng = np.random.default_rng(21)
        design = make_design(rng.normal(size=(25, 4)))
        y = rng.normal(size=25)
        grad0 = np.abs(design.entries.T @ y / 25)
        result = fit(design, y, grad0 + 1e-12)
        np.testing.assert_array_equal(result.lambda_hat, 0.0)
        assert result.sweeps == 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        design = make_design(rng.normal(size=(50, 6)))
        y = rng.normal(size=50)
        weights = log_m_weights(design, 0.8)
        base = fit(design, y, weights)
        perm = np.array([4, 2, 0, 5, 1, 3])
        design_p = make_design(design.entries[:, perm])
        permuted = fit(design_p, y, weights[perm])
        np.testing.assert_allclose(
            permuted.lambda_hat, base.lambda_hat[perm], atol=1e-10
        )

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(44)
        design = make_design(rng.normal(size=(32, 5)))
        y = rng.normal(size=32)
        weights = log_m_weights(design, 0.5)
        a = fit(design, y, weights)
        b = fit(design, y, weights)
        assert np.array_equal(a.lambda_hat, b.lambda_hat)
        assert a.objective == b.objective
        assert a.sweeps == b.sweeps

    def test_zero_norm_column_frozen(self):
        entries = np.random.default_rng(3).normal(size=(20, 3))
        entries[:, 1] = 0.0
        design = make_design(entries)
        y = entries[:, 0] * 2.0
        result = fit(design, y, 0.01 * np.sqrt(np.mean(entries**2, axis=0)))
        assert result.lambda_hat[1] == 0.0

    def test_non_convergence_error_carries_partial_fit(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(40, 1))
        entries = np.hstack([base + 1e-4 * rng.normal(size=(40, 1)) for _ in range(4)])
        design = make_design(entries)
        y = rng.normal(size=40)
        weights = log_m_weights(design, 0.01)
        with pytest.raises(ConvergenceError) as excinfo:
            fit(design, y, weights, tol=1e-15, max_sweeps=2)
        partial = excinfo.value.partial_fit
        assert partial is not None
        assert partial.sweeps == 2
        assert not partial.converged

    def test_spent_budget_with_small_kkt_is_converged(self):
        # Orthonormal columns reach the optimum in one sweep, and the
        # stopping test passes on the gradient that sweep leaves, so a
        # budget of one sweep is spent and converged.
        rng = np.random.default_rng(12)
        design = orthonormalized_design(rng, 60, 5)
        y = design.entries @ np.array([2.0, 0.0, -1.0, 0.0, 0.5]) + 0.1 * rng.normal(size=60)
        result = fit(design, y, log_m_weights(design, 1.0), max_sweeps=1)
        assert result.sweeps == 1 and result.kkt_residual <= 1e3 * 1e-9
        assert result.converged

    def test_spent_budget_above_scaled_bound_raises(self):
        # Near-duplicate columns: coordinate descent creeps along the ridge
        # and the exact finish is refused. After 100 sweeps the KKT
        # violation, 8.6e-7, is under 1e3 * tol but above tol ||f_j||_n
        # ||y||_n (4.8e-10), and a fit that spends its budget there is not
        # converged, whatever its absolute violation.
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1, 1, 40)
        entries = np.column_stack([x1, x1 + 1e-5 * rng.normal(size=40)])
        design = make_design(entries)
        y = rng.normal(size=40)
        with pytest.raises(ConvergenceError, match=r"tol \* \|\|f_j\|\|_n") as excinfo:
            fit(design, y, log_m_weights(design, 0.01), max_sweeps=100)
        partial = excinfo.value.partial_fit
        bound = 1e-9 * np.sqrt(y @ y / 40) * np.sqrt(design.norms_sq)
        assert partial.sweeps == 100 and not partial.converged
        assert bound.max() < partial.kkt_residual <= 1e3 * 1e-9

    @pytest.mark.parametrize(
        "stop",
        [{"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"max_sweeps": 0}, {"max_sweeps": -5}],
        ids=["tol-nan", "tol-inf", "tol-0", "max-sweeps-0", "max-sweeps-neg"],
    )
    def test_bad_stopping_rule_rejected(self, stop):
        # A NaN tol never compares below it and an infinite one stops after
        # one sweep whatever the KKT residual; no sweep budget runs nothing.
        design = make_design(np.random.default_rng(4).normal(size=(20, 3)))
        y = design.entries[:, 0]
        with pytest.raises(ConfigError, match="tol must be finite|max_sweeps must be >= 1"):
            fit(design, y, log_m_weights(design, 1.0), **stop)

    @pytest.mark.parametrize(
        "which, bad, error, message",
        [
            ("y", (21,), ConfigError, "response must have shape (20,), got (21,)"),
            ("y", (20, 1), ConfigError, "response must have shape (20,), got (20, 1)"),
            ("weights", (2,), ConfigError, "weights must have shape (3,), got (2,)"),
            ("weights", (1, 3), ConfigError, "weights must have shape (3,), got (1, 3)"),
            *[("y", v, NumericError, "response vector contains non-finite values")
              for v in (math.nan, math.inf, -math.inf)],
            *[("weights", v, ConfigError, "penalty weights must be finite and nonnegative")
              for v in (math.nan, math.inf, -math.inf, -0.5)],
        ],
        ids=["y-long", "y-column", "weights-short", "weights-row", "y-nan", "y-inf", "y-minus-inf",
             "weights-nan", "weights-inf", "weights-minus-inf", "weights-negative"],
    )
    def test_bad_response_or_weights_refused(self, which, bad, error, message):
        # A shape (a tuple) replaces the array, a value its entry 1; each is
        # refused before the first sweep.
        design = make_design(np.random.default_rng(4).normal(size=(20, 3)))
        inputs = {"y": design.entries[:, 0].copy(), "weights": log_m_weights(design, 1.0)}
        if isinstance(bad, tuple):
            inputs[which] = np.ones(bad)
        else:
            inputs[which][1] = bad
        with pytest.raises(error, match=re.escape(message)):
            fit(design, inputs["y"], inputs["weights"])

    def test_objective_identity(self):
        rng = np.random.default_rng(17)
        design = make_design(rng.normal(size=(30, 4)))
        y = rng.normal(size=30)
        weights = log_m_weights(design, 1.0)
        result = fit(design, y, weights)
        resid = y - design.entries @ result.lambda_hat
        recomputed = resid @ resid / 30 + 2 * weights @ np.abs(result.lambda_hat)
        assert result.objective == pytest.approx(recomputed, rel=1e-10)


class TestReferenceLoop:
    """``fit`` against the residual loop it replaced: the same sweeps and
    support, and coefficients to 1e-12."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_residual_loop(self, case):
        design, y, weights = REFERENCE_CASES[case]
        assert_matches_reference(fit(design, y, weights), reference_fit(design, y, weights))

    def test_partial_fits_match(self):
        design, y, weights = REFERENCE_CASES["correlated"]
        with pytest.raises(ConvergenceError) as excinfo:
            fit(design, y, weights, tol=1e-15, max_sweeps=2)
        ref = reference_fit(design, y, weights, tol=1e-15, max_sweeps=2)
        assert not ref["converged"]
        assert_matches_reference(excinfo.value.partial_fit, ref)


class TestGramPath:
    """``fit`` takes every Psi_j from one ``empirical_gram`` product exactly
    when more than half of the non-frozen coordinates fail the KKT test at
    zero, and otherwise forms them column by column."""

    @staticmethod
    def spy_gram(monkeypatch):
        calls = []

        def spy(design):
            calls.append(design.M)
            return empirical_gram(design)

        monkeypatch.setattr(solver, "empirical_gram", spy)
        return calls

    @pytest.mark.parametrize(
        "case, failing, products",
        [("all-fail-at-zero", 6, [6]), ("few-fail-at-zero", 2, [])],
        ids=["all-fail-at-zero", "few-fail-at-zero"],
    )
    def test_path_matches_residual_loop(self, monkeypatch, case, failing, products):
        design, y, weights = REFERENCE_CASES[case]
        g = design.entries.T @ y / design.n
        assert np.count_nonzero(np.abs(g) > weights) == failing
        calls = self.spy_gram(monkeypatch)
        assert_matches_reference(fit(design, y, weights), reference_fit(design, y, weights))
        assert calls == products

    def test_sparse_fourier_fit_forms_columns(self, monkeypatch):
        rng = np.random.default_rng(3)
        design = evaluate(build_fourier(25), rng.uniform(size=(512, 1)))
        y = design.entries[:, [1, 4, 8]] @ np.array([1.0, -0.8, 0.5])
        y += 0.3 * rng.normal(size=512)
        calls = self.spy_gram(monkeypatch)
        result = fit(design, y, penalty_weights(design, rate(2.0, 512, 25, "log_n")))
        assert calls == []
        assert result.m_hat == 3


class TestExactFinish:
    """Once a sweep leaves every coordinate's sign unchanged, ``fit`` solves
    Psi_SS x = g_S - omega_S s on that support and stops there if x is the
    minimizer; otherwise coordinate descent goes on as if it had not tried."""

    @staticmethod
    def two_column_problem(second):
        rng = np.random.default_rng(6)
        e1 = rng.normal(size=200)
        e2 = 0.9 * e1 + math.sqrt(1 - 0.81) * rng.normal(size=200)
        design = make_design(np.column_stack([e1, e2]))
        y = e1 + second * e2 + 0.01 * rng.normal(size=200)
        weights = np.full(2, 0.05)
        g = design.entries.T @ y / design.n
        gram = dict(enumerate(empirical_gram(design)))
        # fit's bound at the default tol: 1e-9 ||f_j||_n ||y||_n.
        bound = 1e-9 * np.sqrt(y @ y / design.n) * np.sqrt(design.norms_sq)
        return design, y, weights, g, gram, bound

    def test_sign_mismatch_refused(self):
        design, y, weights, g, gram, bound = self.two_column_problem(0.0)
        both = np.array([1.0, 1.0])
        x = np.linalg.solve(empirical_gram(design), g - weights * both)
        assert x[1] < 0.0  # the system for signs (+, +) has a negative root
        assert solver._exact_finish(g, gram, both, weights, bound) is None
        finish = solver._exact_finish(g, gram, np.array([1.0, 0.0]), weights, bound)
        result = fit(design, y, weights)
        assert result.m_hat == 1
        assert np.max(np.abs(finish - result.lambda_hat)) <= 1e-12

    def test_violated_zero_coordinate_refused(self):
        _, _, weights, g, gram, bound = self.two_column_problem(1.0)
        first = np.array([1.0, 0.0])
        assert abs(g[1] - gram[0][1] * (g[0] - weights[0]) / gram[0][0]) > weights[1] + bound[1]
        assert solver._exact_finish(g, gram, first, weights, bound) is None

    def test_near_singular_active_set_matches_plain_loop(self, monkeypatch):
        # Columns 0 and 1 differ by 1e-9 of noise and both turn active.
        rng = np.random.default_rng(0)
        entries = rng.normal(size=(60, 4))
        entries[:, 1] = entries[:, 0] + 1e-9 * rng.normal(size=60)
        design = make_design(entries)
        y = entries[:, 0] + 0.5 * entries[:, 2] + 0.1 * rng.normal(size=60)
        weights = log_m_weights(design, 0.1)
        tries = []
        exact_finish = solver._exact_finish

        def spy(g, gram, signs, *rest):
            found = exact_finish(g, gram, signs, *rest)
            tries.append((signs.copy(), found))
            return found

        monkeypatch.setattr(solver, "_exact_finish", spy)
        result = fit(design, y, weights)
        assert tries and all(found is None for _, found in tries)
        assert any(signs[0] != 0.0 and signs[1] != 0.0 for signs, _ in tries)
        monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
        plain = fit(design, y, weights)
        assert np.array_equal(result.lambda_hat, plain.lambda_hat)
        assert result.sweeps == plain.sweeps
        assert result.objective == plain.objective

    def test_dense_run_finishes_at_first_settled_sweep(self, monkeypatch):
        # mc_dense's larger cells: the finish is accepted at its first try,
        # one sweep after the signs last changed (sweep 1 in almost every
        # fit), where the sweeps alone need 6-9 to pass the stopping test.
        exact_finish = solver._exact_finish

        def plain_signs(design, y, weights, sweeps):
            monkeypatch.setattr(solver, "_exact_finish", lambda *args: None)
            try:
                lam = fit(design, y, weights, max_sweeps=sweeps).lambda_hat
            except ConvergenceError as err:
                lam = err.partial_fit.lambda_hat
            finally:
                monkeypatch.setattr(solver, "_exact_finish", exact_finish)
            return np.sign(lam)

        fits = []

        def spy(design, y, weights):
            # run reuses its design array, so the signs are read here.
            result = fit(design, y, weights)
            signs = [plain_signs(design, y, weights, k) for k in range(1, result.sweeps + 1)]
            settled = [k for k in range(2, result.sweeps + 1)
                       if np.array_equal(signs[k - 1], signs[k - 2])]
            fits.append((result, settled))
            return result

        monkeypatch.setattr(experiments, "fit", spy)
        cfg = ExperimentConfig(preset="linear", n_values=(1024, 2048), m_rule="fixed:20",
                               k_or_beta=20, A=4.0, rate_kind="log_n", R=30, seed=5)
        assert len(run(cfg)) == len(fits) == 60
        assert all(settled == [result.sweeps] for result, settled in fits)
        assert sum(result.sweeps for result, _ in fits) <= 2.1 * len(fits)
        assert max(result.kkt_residual for result, _ in fits) <= 1e-13


class TestScaleEquivariance:
    """Scaling every column by c divides the weighted-lasso minimizer by c.
    The stopping test bounds coordinate j's KKT violation by
    tol ||f_j||_n ||y||_n, which scales with the column as the violation
    does, so the fit stops at the same point at every scale whether the
    exact finish or the test after a sweep stops it."""

    @staticmethod
    def scaled_fit(c, duplicated=False):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(200, 1))
        base = np.tanh(0.9 * z + 0.3 * rng.normal(size=(200, 6)))
        if duplicated:
            base[:, 4] = base[:, 1]
        y = base @ np.array([1.0, -0.5, 0.0, 0.25, 0.0, 0.0]) + 0.1 * rng.normal(size=200)
        design = evaluate(build_coordinate(6, domain=[-c, c]), c * base)
        weights = log_m_weights(design, 0.05)
        return fit(design, y, weights), weights, design, y

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_scaled_columns_give_scaled_fit(self, c):
        unit = self.scaled_fit(1.0)[0]
        scaled, weights, _, _ = self.scaled_fit(c)
        np.testing.assert_array_equal(scaled.support, unit.support)
        assert scaled.converged == unit.converged
        np.testing.assert_allclose(c * scaled.lambda_hat, unit.lambda_hat, rtol=1e-9, atol=0)
        assert scaled.kkt_residual <= 1e-12 * weights.max()

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_refused_finish_gives_scaled_fit(self, monkeypatch, c):
        # Columns 1 and 4 are equal and both turn active, so Psi_SS is
        # singular, every finish is refused and the test after a sweep
        # stops the fit, after the same number of sweeps at every c.
        unit = self.scaled_fit(1.0, duplicated=True)[0]
        tries = []
        exact_finish = solver._exact_finish

        def spy(*args):
            tries.append(exact_finish(*args))
            return tries[-1]

        monkeypatch.setattr(solver, "_exact_finish", spy)
        scaled, _, design, y = self.scaled_fit(c, duplicated=True)
        assert tries and all(found is None for found in tries)
        assert {1, 4} <= set(scaled.support.tolist())
        np.testing.assert_array_equal(scaled.support, unit.support)
        assert scaled.converged and scaled.sweeps == unit.sweeps
        np.testing.assert_allclose(c * scaled.lambda_hat, unit.lambda_hat, rtol=1e-9, atol=0)
        scale = math.sqrt(y @ y / design.n) * math.sqrt(design.norms_sq.max())
        assert scaled.kkt_residual <= 1e-9 * scale


class TestDualityGap:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_gap_at_convergence(self, case):
        design, y, weights = REFERENCE_CASES[case]
        result = fit(design, y, weights)
        assert -1e-12 <= result.duality_gap <= 1e-8
        direct = primal_dual_gap(design, y, result.lambda_hat, weights)
        assert result.duality_gap == pytest.approx(direct, abs=1e-12)

    def test_unpenalized_column_forces_zero_dual_point(self):
        # omega_0 = 0 on a nonzero column: only theta = 0 is dual feasible
        # unless that column's gradient vanishes exactly, so the gap is P.
        design, y, weights = REFERENCE_CASES["correlated"]
        weights = weights.copy()
        weights[0] = 0.0
        result = fit(design, y, weights)
        direct = primal_dual_gap(design, y, result.lambda_hat, weights)
        assert result.duality_gap == pytest.approx(direct, abs=1e-12)
        if (design.entries[:, 0] @ (y - design.entries @ result.lambda_hat)) != 0.0:
            assert result.duality_gap == pytest.approx(result.objective, rel=1e-12)

    def test_huge_weights_give_zero_gap_without_overflow(self):
        # omega_j / |grad_j| used to overflow (a RuntimeWarning, an error
        # under this suite's filter) though only ratios below 1 bound s.
        design, y, _ = REFERENCE_CASES["correlated"]
        weights = np.full(design.M, 1e308)
        result = fit(design, y, weights)
        assert result.m_hat == 0
        assert result.duality_gap == 0.0

    def test_gap_before_convergence_is_positive(self):
        design, y, weights = REFERENCE_CASES["correlated"]
        with pytest.raises(ConvergenceError) as excinfo:
            fit(design, y, weights, tol=1e-15, max_sweeps=1)
        partial = excinfo.value.partial_fit
        direct = primal_dual_gap(design, y, partial.lambda_hat, weights)
        assert partial.duality_gap > 1e-8
        assert partial.duality_gap == pytest.approx(direct, rel=1e-10)


class TestSharedNorms:
    def test_one_squared_norm_per_design(self):
        # The penalty weights, the solver and E2 all read design.norms_sq,
        # computed with the one expression its docstring names.
        rng = np.random.default_rng(12)
        design = make_design(rng.normal(size=(37, 9)) * rng.uniform(0.1, 3.0, 9))
        direct = np.einsum("ij,ij->j", design.entries, design.entries) / design.n
        assert design.norms_sq is design.norms_sq
        np.testing.assert_array_equal(design.norms_sq, direct)
        np.testing.assert_array_equal(empirical_norms(design), np.sqrt(direct))
        # E2 holds at both of its boundaries only if event_flags reads
        # exactly these bits (scaling by 2 and 0.5 is exact).
        for pop in (2.0 * direct, 0.5 * direct):
            flags = event_flags(
                design, np.zeros(37), np.ones(9), pop, np.zeros(37), 0.0, 0.1, 0
            )
            assert flags.e2

    def test_no_n_by_m_temporary(self):
        # mc_wide's largest design, 2048 x 304 column-major: 5 MB of entries.
        entries = np.asfortranarray(np.random.default_rng(13).normal(size=(2048, 304)))
        design = make_design(entries)
        tracemalloc.start()
        try:
            design.norms_sq
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < entries.nbytes / 4


class TestPredict:
    def test_zero_coefficients(self):
        d = build_fourier(3)
        np.testing.assert_array_equal(predict(d, np.zeros(3), [0.1, 0.9]), 0.0)

    def test_constant_basis_vector(self):
        d = build_fourier(3)
        np.testing.assert_allclose(
            predict(d, np.array([1.0, 0.0, 0.0]), [0.3, 0.77]), 1.0
        )

    def test_coordinate_combination(self):
        d = build_coordinate(2, domain=[-10.0, 10.0])
        assert predict(d, np.array([1.0, 2.0]), [[3.0, 4.0]])[0] == pytest.approx(11.0)
