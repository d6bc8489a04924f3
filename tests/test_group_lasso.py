"""Tests for repro.core.group_lasso — the paper's Eq. (12) solver."""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.group_lasso as gl
from repro.obs import MetricsRegistry, use_registry
from repro.utils import ckernels
from repro.core.group_lasso import (
    GroupLassoResult,
    StrongRuleScreener,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
    group_lasso_penalized,
)


def sparse_problem(seed=0, n=400, m=30, k=5, active=(3, 11, 27), noise=0.05):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    B_true = np.zeros((k, m))
    B_true[:, list(active)] = 2.0 * rng.standard_normal((k, len(active)))
    G = Z @ B_true.T + noise * rng.standard_normal((n, k))
    return Z, G, B_true


def correlated_problem(seed=0, n=300, m=20, k=4, rank=5, noise=0.02):
    """Highly correlated candidate columns (low-rank latent drivers) —
    the regime where loose solves understate norm sums and bisection
    once returned budget-violating solutions."""
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, rank))
    mix = rng.standard_normal((rank, m))
    Z = latent @ mix + 0.05 * rng.standard_normal((n, m))
    W = rng.standard_normal((k, rank))
    G = latent @ W.T + noise * rng.standard_normal((n, k))
    return Z, G


class TestPenalized:
    def test_recovers_support(self):
        Z, G, _ = sparse_problem()
        result = group_lasso_penalized(Z, G, mu=50.0)
        assert result.active_groups().tolist() == [3, 11, 27]

    def test_mu_zero_equals_ols(self):
        Z, G, _ = sparse_problem(n=200, m=10, active=(3, 7))
        result = group_lasso_penalized(Z, G, mu=0.0)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        assert np.allclose(result.coef, ols, atol=1e-5)

    def test_huge_mu_gives_all_zero(self):
        Z, G, _ = sparse_problem()
        A = Z.T @ G
        mu = 2.0 * float(np.max(np.linalg.norm(A, axis=1)))
        result = group_lasso_penalized(Z, G, mu=mu)
        assert np.all(result.coef == 0.0)

    def test_methods_agree(self):
        # FISTA against a solver-independent certificate (the KKT
        # conditions at its penalty) and against the second-order
        # active-set refiner started from zero.
        Z, G, _ = sparse_problem(seed=1)
        stats = SufficientStats.from_arrays(Z, G)
        fista = group_lasso_penalized(Z, G, mu=40.0)
        assert _kkt_clean(stats.S, stats.A, fista.coef, 40.0, rtol=1e-4)
        newton = gl._active_refine(
            stats.S, stats.A, stats.diag_S, 40.0, np.zeros_like(fista.coef)
        )
        assert newton is not None
        assert np.allclose(fista.coef, newton, atol=1e-5)
        assert fista.active_groups(1e-4).tolist() == np.nonzero(
            np.linalg.norm(newton, axis=0) > 1e-4
        )[0].tolist()

    def test_objective_decreases_with_looser_penalty(self):
        # Fit term at smaller mu must be at least as good.
        Z, G, _ = sparse_problem()
        tight = group_lasso_penalized(Z, G, mu=100.0)
        loose = group_lasso_penalized(Z, G, mu=10.0)
        def fit_term(result):
            return float(np.linalg.norm(G - Z @ result.coef.T) ** 2)
        assert fit_term(loose) <= fit_term(tight) + 1e-9

    def test_warm_start_converges_same(self):
        Z, G, _ = sparse_problem(seed=2)
        cold = group_lasso_penalized(Z, G, mu=30.0)
        warm = group_lasso_penalized(
            Z, G, mu=30.0, warm_start=np.ones_like(cold.coef)
        )
        assert np.allclose(cold.coef, warm.coef, atol=1e-4)

    def test_warm_start_shape_check(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, warm_start=np.ones((2, 2)))

    def test_rejects_bad_args(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=-1.0)
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, max_iter=0)
        with pytest.raises(ValueError):
            group_lasso_penalized(Z, G, mu=1.0, tol=0.0)

    def test_constant_feature_never_selected(self):
        Z, G, _ = sparse_problem(n=100, m=8, active=(1,))
        Z[:, 5] = 0.0  # dead feature
        result = group_lasso_penalized(Z, G, mu=5.0)
        assert 5 not in result.active_groups().tolist()

    def test_kkt_optimality_of_solution(self):
        # At the optimum: active groups satisfy grad_m = -mu*B_m/||B_m||,
        # inactive groups satisfy ||grad_m|| <= mu.
        Z, G, _ = sparse_problem(seed=3)
        mu = 40.0
        result = group_lasso_penalized(Z, G, mu=mu, tol=1e-10)
        B = result.coef
        grad = B @ (Z.T @ Z) - (Z.T @ G).T  # (K, M)
        norms = np.linalg.norm(B, axis=0)
        for m in range(B.shape[1]):
            g_norm = np.linalg.norm(grad[:, m])
            if norms[m] > 1e-8:
                direction = -mu * B[:, m] / norms[m]
                assert np.allclose(grad[:, m], direction, atol=1e-3)
            else:
                assert g_norm <= mu * (1 + 1e-6)


class TestConstrained:
    def test_budget_binding(self):
        Z, G, _ = sparse_problem()
        result = group_lasso_constrained(Z, G, budget=5.0)
        assert result.norm_sum() == pytest.approx(5.0, rel=0.05)
        assert result.budget == 5.0

    def test_slack_budget_returns_ols(self):
        Z, G, _ = sparse_problem(n=200, m=10, active=(2,))
        result = group_lasso_constrained(Z, G, budget=1e9)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        assert np.allclose(result.coef, ols, atol=1e-6)
        assert result.penalty == 0.0

    def test_monotone_selection_in_budget(self):
        Z, G, _ = sparse_problem(seed=4)
        small = group_lasso_constrained(Z, G, budget=1.0)
        large = group_lasso_constrained(Z, G, budget=8.0)
        assert small.active_groups(1e-3).size <= large.active_groups(1e-3).size

    def test_correct_support_at_moderate_budget(self):
        Z, G, _ = sparse_problem(seed=5)
        result = group_lasso_constrained(Z, G, budget=4.0)
        assert set(result.active_groups(1e-3).tolist()) <= {3, 11, 27}
        assert result.active_groups(1e-3).size >= 1

    def test_rejects_bad_budget(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError):
            group_lasso_constrained(Z, G, budget=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": -0.5},
            {"rtol": float("nan")},
            {"probe_tol": -1.0},
            {"probe_tol": 0.0},
        ],
    )
    def test_rejects_bad_tolerances(self, kwargs):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            group_lasso_constrained(Z, G, budget=1.0, **kwargs)

    def test_needs_data_without_cached_ols(self):
        Z, G, _ = sparse_problem()
        with pytest.raises(ValueError, match="Z and G are required"):
            group_lasso_constrained(None, None, budget=1.0)
        stats = SufficientStats.from_arrays(Z, G)
        with pytest.raises(ValueError, match="not cached"):
            group_lasso_constrained(None, None, budget=1.0, stats=stats)

    def test_zero_response_all_zero(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((50, 5))
        G = np.zeros((50, 2))
        result = group_lasso_constrained(Z, G, budget=1.0)
        assert np.allclose(result.coef, 0.0, atol=1e-9)


class TestConstrainedFeasibility:
    """Regression tests: a constrained solve must return a feasible
    solution.  The bisection once initialized its running best to the
    *infeasible* lo endpoint, so budgets whose band no iterate hit came
    back violating the constraint."""

    RTOL = 1e-2

    @pytest.mark.parametrize("budget", [0.2, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_feasible_on_correlated_problem(self, budget):
        Z, G = correlated_problem()
        result = group_lasso_constrained(Z, G, budget=budget, rtol=self.RTOL)
        assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12
        assert result.budget == budget

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_feasible_across_problems(self, seed):
        Z, G = correlated_problem(seed=seed)
        for budget in (0.3, 1.5, 6.0):
            result = group_lasso_constrained(
                Z, G, budget=budget, rtol=self.RTOL
            )
            assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12

    def test_feasible_with_loose_probes(self):
        # Loose bracket probes understate the norm sum on correlated
        # data; the returned solution must still be feasible.
        Z, G = correlated_problem(seed=5)
        for budget in (0.5, 2.0, 5.0):
            result = group_lasso_constrained(
                Z, G, budget=budget, rtol=self.RTOL, probe_tol=1e-5
            )
            assert result.norm_sum() <= budget * (1.0 + self.RTOL) + 1e-12


class TestConstrainedPathFidelity:
    """The λ-path accelerations (cached Gram, loose probes, warm
    starts) must not change what a constrained solve returns."""

    def test_cached_stats_bit_identical(self):
        Z, G = correlated_problem(seed=1)
        stats = SufficientStats.from_arrays(Z, G)
        plain = group_lasso_constrained(Z, G, budget=1.0)
        cached = group_lasso_constrained(Z, G, budget=1.0, stats=stats)
        assert np.array_equal(plain.coef, cached.coef)
        assert plain.penalty == cached.penalty

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("slack", [False, True])
    def test_stats_only_call_bit_identical(self, lazy, slack):
        # With the OLS solution cached on the statistics, the solve
        # needs no data: (None, None, stats=) returns the (Z, G) result.
        Z, G = correlated_problem(seed=4)
        budget = 1.0
        if slack:
            budget = 2.0 * SufficientStats.from_arrays(Z, G).ols(Z, G)[1]

        def solve(with_data):
            stats = SufficientStats.from_arrays(Z, G, lazy=lazy)
            if not with_data:
                stats.ols(Z, G)
            args = (Z, G) if with_data else (None, None)
            return group_lasso_constrained(
                *args, budget=budget, stats=stats, screen=lazy or None
            )

        with_data, stats_only = solve(True), solve(False)
        assert (with_data.penalty == 0.0) == slack
        assert np.array_equal(with_data.coef, stats_only.coef)
        assert with_data.penalty == stats_only.penalty
        assert with_data.objective == stats_only.objective
        assert with_data.n_iterations == stats_only.n_iterations

    def test_loose_probes_match_strict_selection(self):
        Z, G = correlated_problem(seed=2)
        for budget in (0.5, 1.0, 2.0):
            strict = group_lasso_constrained(Z, G, budget=budget, probe_tol=None)
            loose = group_lasso_constrained(Z, G, budget=budget, probe_tol=1e-5)
            assert (
                strict.active_groups(1e-3).tolist()
                == loose.active_groups(1e-3).tolist()
            )

    def test_warm_start_matches_cold_selection(self):
        Z, G = correlated_problem(seed=3)
        stats = SufficientStats.from_arrays(Z, G)
        prev = group_lasso_constrained(
            Z, G, budget=0.5, stats=stats, probe_tol=1e-5
        )
        warm = group_lasso_constrained(
            Z, G, budget=1.5, stats=stats, probe_tol=1e-5,
            warm=WarmState(coef=prev.coef, penalty=prev.penalty),
        )
        cold = group_lasso_constrained(
            Z, G, budget=1.5, stats=stats, probe_tol=1e-5
        )
        assert (
            warm.active_groups(1e-3).tolist()
            == cold.active_groups(1e-3).tolist()
        )
        assert warm.norm_sum() == pytest.approx(cold.norm_sum(), rel=1e-4)

    def test_methods_agree_at_tight_budgets(self):
        # The constrained solve on correlated features satisfies the
        # KKT conditions at its returned penalty, and plain proximal
        # gradient started from zero at that penalty selects the same
        # groups with the same attained norm sum.  (The active-set
        # Newton refiner is no reference here: started from zero it
        # admits groups it cannot drop again and stalls.)
        Z, G = correlated_problem(seed=4)
        stats = SufficientStats.from_arrays(Z, G)
        for budget in (0.3, 0.8):
            fista = group_lasso_constrained(Z, G, budget=budget)
            assert fista.penalty > 0.0
            assert _kkt_clean(
                stats.S, stats.A, fista.coef, fista.penalty, rtol=1e-4
            )
            ista = GroupLassoResult(
                coef=_ista(stats.S, stats.A, fista.penalty),
                penalty=fista.penalty,
            )
            assert (
                fista.active_groups(1e-3).tolist()
                == ista.active_groups(1e-3).tolist()
            )
            assert fista.norm_sum() == pytest.approx(
                ista.norm_sum(), rel=5e-2
            )


class TestResultObject:
    def test_group_norms_and_sum(self):
        coef = np.array([[3.0, 0.0], [4.0, 0.0]])
        result = GroupLassoResult(coef=coef, penalty=1.0)
        assert np.allclose(result.group_norms(), [5.0, 0.0])
        assert result.norm_sum() == pytest.approx(5.0)

    def test_active_groups_threshold(self):
        coef = np.array([[1e-4, 1.0]])
        result = GroupLassoResult(coef=coef, penalty=1.0)
        assert result.active_groups(1e-3).tolist() == [1]
        with pytest.raises(ValueError):
            result.active_groups(-1.0)


class TestPathStart:
    """``mu_max`` must be the exact path head: ``B(mu_max) == 0``.

    The λ-path walk, the constrained solver's zero fallback, and step 0
    of the sequential strong rule all anchor on
    :attr:`SufficientStats.mu_max` being the max per-group activation
    threshold ``||A_g||`` — a too-small value would make the first grid
    penalty select phantom groups and the strong rule unsound at the
    path start.
    """

    @staticmethod
    def _solve(method, monkeypatch, *args, **kwargs):
        # "fista" runs the default path (the compiled kernel when it
        # is available), "numpy" the numpy reference loop.
        if method == "numpy":
            monkeypatch.setenv(ckernels.DISABLE_ENV_VAR, "1")
        return group_lasso_penalized(*args, **kwargs)

    @pytest.mark.parametrize("method", ["fista", "numpy"])
    def test_all_zero_at_mu_max(self, method, monkeypatch):
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        result = self._solve(method, monkeypatch, Z, G, mu=stats.mu_max)
        assert np.all(result.coef == 0.0)

    @pytest.mark.parametrize("method", ["fista", "numpy"])
    def test_all_zero_at_mu_max_degenerate_columns(self, method, monkeypatch):
        # Constant (zero after centering) and duplicated columns: the
        # per-group thresholds tie, the worst case for the max.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((100, 8))
        Z[:, 2] = 0.0          # dead candidate
        Z[:, 5] = Z[:, 1]      # exact duplicate: tied ||A_g||
        G = rng.standard_normal((100, 3))
        stats = SufficientStats.from_arrays(Z, G)
        result = self._solve(method, monkeypatch, Z, G, mu=stats.mu_max)
        assert np.all(result.coef == 0.0)

    def test_mu_max_is_max_group_threshold(self):
        # mu_max must dominate every group's activation threshold *as
        # the solver measures it* — the per-row 1-D norm, whose
        # summation order can land an ulp above the axis-reduced value.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        A = Z.T @ G
        row_norms = [float(np.linalg.norm(A[m])) for m in range(A.shape[0])]
        assert stats.mu_max == max(row_norms)
        assert stats.mu_max >= float(np.max(np.linalg.norm(A, axis=1)))
        # Lazy statistics share the exact same anchor.
        lazy = SufficientStats.from_arrays(Z, G, lazy=True)
        assert lazy.mu_max == stats.mu_max

    def test_just_below_mu_max_activates(self):
        # mu_max is tight, not merely an upper bound: nudging the
        # penalty below it activates the argmax group.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G)
        result = group_lasso_penalized(Z, G, mu=stats.mu_max * (1 - 1e-3))
        assert result.active_groups().size >= 1

    def test_step_zero_screening_discards_no_active_group(self):
        # A fresh screener's reference state IS the exact solution at
        # mu_max (B == 0, residuals = rows of A), so the first screened
        # solve of a descending path must keep every group that the
        # unscreened solve activates — with zero KKT re-admissions.
        Z, G, _ = sparse_problem()
        stats = SufficientStats.from_arrays(Z, G, lazy=True)
        scr = StrongRuleScreener(stats)
        assert scr.mu_ref == stats.mu_max
        mu0 = stats.mu_max * 0.65  # the path engine's first grid point
        screened = group_lasso_penalized(None, None, mu0, screen=scr)
        plain = group_lasso_penalized(Z, G, mu0)
        np.testing.assert_array_equal(
            plain.active_groups(), screened.active_groups()
        )
        assert scr.n_violations == 0


class TestSolverProperties:
    @given(
        seed=st.integers(0, 30),
        mu_frac=st.floats(0.05, 0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_shrinkage_property(self, seed, mu_frac):
        # Group norms at larger mu are dominated by the norm sum at
        # smaller mu (total shrinkage monotonicity).
        Z, G, _ = sparse_problem(seed=seed, n=150, m=12, k=3, active=(1, 7))
        A = Z.T @ G
        mu_max = float(np.max(np.linalg.norm(A, axis=1)))
        lo = group_lasso_penalized(Z, G, mu=mu_frac * mu_max * 0.5)
        hi = group_lasso_penalized(Z, G, mu=mu_frac * mu_max)
        assert hi.norm_sum() <= lo.norm_sum() + 1e-6


def fista_inputs(Z, G):
    stats = SufficientStats.from_arrays(Z, G)
    return stats, stats.A.T.copy()


def assert_same_fista(got, ref):
    """Same support and converged flag; coefficients to 1e-9 relative."""
    B_got, _, ok_got, _ = got
    B_ref, _, ok_ref, _ = ref
    assert ok_got == ok_ref
    np.testing.assert_array_equal(
        np.linalg.norm(B_got, axis=0) > 0, np.linalg.norm(B_ref, axis=0) > 0
    )
    scale = max(1.0, float(np.max(np.abs(B_ref))))
    assert float(np.max(np.abs(B_got - B_ref))) <= 1e-9 * scale


class _RestartSpy:
    """Stands in for numpy inside group_lasso; counts FISTA restarts.

    ``_fista_numpy`` calls ``np.sum`` only for its restart test, whose
    value is positive exactly when the momentum is reset.
    """

    def __init__(self):
        self.restarts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, *args, **kwargs):
        value = np.sum(*args, **kwargs)
        self.restarts += int(value > 0.0)
        return value


@pytest.fixture
def fista_kernel():
    if os.environ.get(ckernels.DISABLE_ENV_VAR):
        pytest.skip("compiled kernels disabled by REPRO_DISABLE_CKERNEL")
    handle = ckernels.kernel("fista")
    # A silent fallback would let these comparisons pass vacuously.
    assert handle is not None, "compiled FISTA kernel unavailable"
    return handle


class TestCompiledFista:
    """The compiled FISTA kernel against the numpy reference loop."""

    @staticmethod
    def both(handle, B0, stats, AT, mu, max_iter=20000, tol=1e-12):
        L = stats.lipschitz
        ref = gl._fista_numpy(B0, stats.S, AT, mu, max_iter, tol, L)
        got = gl._fista_compiled(handle, B0, stats.S, AT, mu, max_iter, tol, L)
        return got, ref

    @pytest.mark.parametrize("mu_frac", [0.5, 0.05, 1e-4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_start_sparse_to_dense(self, fista_kernel, seed, mu_frac):
        Z, G, _ = sparse_problem(seed=seed, m=30, k=5)
        stats, AT = fista_inputs(Z, G)
        B0 = np.zeros((5, 30))
        mu = mu_frac * stats.mu_max
        got, ref = self.both(fista_kernel, B0, stats, AT, mu)
        assert_same_fista(got, ref)
        assert ref[2]
        n_active = int(np.count_nonzero(np.linalg.norm(ref[0], axis=0)))
        if mu_frac == 0.5:
            assert n_active <= 3
        if mu_frac == 1e-4:
            assert n_active == 30

    def test_warm_start(self, fista_kernel):
        Z, G, _ = sparse_problem(seed=3, m=30, k=5)
        stats, AT = fista_inputs(Z, G)
        mu = 0.2 * stats.mu_max
        warm = group_lasso_penalized(None, None, 1.3 * mu, stats=stats).coef
        got, ref = self.both(fista_kernel, warm, stats, AT, mu)
        assert_same_fista(got, ref)
        assert np.any(warm)

    def test_restart_branch(self, fista_kernel, monkeypatch):
        Z, G = correlated_problem(seed=4)
        stats, AT = fista_inputs(Z, G)
        args = (
            np.zeros((4, 20)), stats.S, AT, 0.05 * stats.mu_max, 20000,
            1e-10, stats.lipschitz,
        )
        spy = _RestartSpy()
        monkeypatch.setattr(gl, "np", spy)
        ref = gl._fista_numpy(*args)
        monkeypatch.undo()
        assert spy.restarts > 0
        assert_same_fista(gl._fista_compiled(fista_kernel, *args), ref)

    def test_max_iter_exhaustion(self, fista_kernel):
        Z, G = correlated_problem(seed=5)
        stats, AT = fista_inputs(Z, G)
        got, ref = self.both(
            fista_kernel, np.zeros((4, 20)), stats, AT, 0.05 * stats.mu_max,
            max_iter=25,
        )
        assert not ref[2]
        assert got[1] == ref[1] == 25
        assert_same_fista(got, ref)

    def test_mu_zero(self, fista_kernel):
        Z, G, _ = sparse_problem(seed=6, n=200, m=10, active=(3, 7))
        stats, AT = fista_inputs(Z, G)
        got, ref = self.both(fista_kernel, np.zeros((5, 10)), stats, AT, 0.0)
        assert_same_fista(got, ref)
        ols = np.linalg.lstsq(Z, G, rcond=None)[0].T
        np.testing.assert_allclose(got[0], ols, atol=1e-6)

    def test_concurrent_threads(self, fista_kernel):
        problems = []
        for seed in range(6):
            Z, G, _ = sparse_problem(seed=seed, m=30, k=5)
            stats, AT = fista_inputs(Z, G)
            problems.append((stats, AT, 0.1 * stats.mu_max))

        def solve(problem):
            stats, AT, mu = problem
            return gl._fista_compiled(
                fista_kernel, np.zeros((5, 30)), stats.S, AT, mu, 20000,
                1e-12, stats.lipschitz,
            )

        serial = [solve(p) for p in problems]
        # More threads than cores on a 2-CPU host and frequent thread
        # switches, so kernel calls overlap.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(solve, problems * 2, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, result in enumerate(threaded):
            expected = serial[i % len(problems)]
            np.testing.assert_array_equal(result[0], expected[0])
            assert result[1:] == expected[1:]
        for (stats, AT, mu), result in zip(problems, serial):
            ref = gl._fista_numpy(
                np.zeros((5, 30)), stats.S, AT, mu, 20000, 1e-12,
                stats.lipschitz,
            )
            assert_same_fista(result, ref)

    def test_rejects_mismatched_shapes(self, fista_kernel):
        Z, G, _ = sparse_problem(seed=8, m=30, k=5)
        stats, AT = fista_inputs(Z, G)
        with pytest.raises(ValueError, match="shapes"):
            gl._fista_compiled(
                fista_kernel, np.zeros((5, 29)), stats.S, AT, 1.0, 10, 1e-7,
                stats.lipschitz,
            )

    def test_disable_env_selects_numpy_path(self, monkeypatch):
        calls = []
        reference = gl._fista_numpy

        def spy(*args):
            calls.append(args)
            return reference(*args)

        monkeypatch.setattr(gl, "_fista_numpy", spy)
        Z, G, _ = sparse_problem(seed=7)
        if ckernels.kernel("fista") is not None:
            group_lasso_penalized(Z, G, mu=50.0)
            assert not calls
        monkeypatch.setenv(ckernels.DISABLE_ENV_VAR, "1")
        assert ckernels.kernel("fista") is None
        result = group_lasso_penalized(Z, G, mu=50.0)
        assert len(calls) == 1
        assert result.active_groups().tolist() == [3, 11, 27]


def _dense_newton_step(Saa, c, U, Gt, lam):
    """Reference for ``gl._newton_step``: assemble the damped Hessian
    ``kron(S_aa, I_K) + blockdiag_j c_j (I_K - u_j u_j^T) + lam I``
    and solve it directly."""
    a, k = U.shape
    eye_k = np.eye(k)
    H = np.kron(Saa, eye_k)
    for j in range(a):
        sl = slice(j * k, (j + 1) * k)
        H[sl, sl] += c[j] * (eye_k - np.outer(U[j], U[j]))
    H[np.diag_indices_from(H)] += lam
    return np.linalg.solve(H, Gt.reshape(-1)).reshape(a, k)


def _step_problem(seed, a, k, collinear=False, n=200):
    rng = np.random.default_rng(seed)
    if collinear:
        # Every column a 1% perturbation of one shared latent column.
        Z = rng.standard_normal((n, 1)) + 1e-2 * rng.standard_normal((n, a))
    else:
        Z = rng.standard_normal((n, a))
    Saa = Z.T @ Z
    B = rng.standard_normal((a, k))
    U = B / np.linalg.norm(B, axis=1, keepdims=True)
    # c_j = mu / ||b_j|| from 1% to 100x the mean Gram diagonal: small
    # groups make c dominate S_jj.
    c = np.mean(np.diag(Saa)) * 10.0 ** rng.uniform(-2.0, 2.0, a)
    Gt = rng.standard_normal((a, k))
    return Saa, c, U, Gt


def _ista(S, A, mu, n_iter=20000):
    """Plain proximal gradient from zero: no momentum, restart, kernel
    or residue zeroing — a reference that shares no code with FISTA."""
    L = float(np.linalg.eigvalsh(S)[-1])
    B = np.zeros((A.shape[1], A.shape[0]))
    for _ in range(n_iter):
        W = B - (B @ S - A.T) / L
        norms = np.linalg.norm(W, axis=0)
        B = W * np.maximum(0.0, 1.0 - mu / L / np.maximum(norms, 1e-300))
    return B


def _kkt_clean(S, A, B, mu, rtol=1e-6):
    grad = B @ S - A.T
    norms = np.linalg.norm(B, axis=0)
    for m in range(B.shape[1]):
        if norms[m] > 0:
            target = -mu * B[:, m] / norms[m]
            if np.linalg.norm(grad[:, m] - target) > rtol * max(1.0, mu):
                return False
        elif np.linalg.norm(grad[:, m]) > mu * (1.0 + 1e-6):
            return False
    return True


class TestStructuredNewtonStep:
    """The Kronecker + Woodbury step equals the dense Newton solve."""

    @pytest.mark.parametrize("a", [1, 2, 7, 28])
    @pytest.mark.parametrize("k", [1, 2, 30])
    @pytest.mark.parametrize("collinear", [False, True])
    @pytest.mark.parametrize("lam_scale", [0.0, 1e-10, 1e-2, 1e3])
    def test_matches_dense_solve(self, a, k, collinear, lam_scale):
        Saa, c, U, Gt = _step_problem(a * 100 + k, a, k, collinear)
        lam = lam_scale * float(np.mean(np.diag(Saa)))
        step = gl._newton_step(Saa, c, U, Gt, lam)
        ref = _dense_newton_step(Saa, c, U, Gt, lam)
        assert step.shape == (a, k)
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_indefinite_system_raises(self):
        # A negative damping large enough to make H indefinite must
        # surface as a factorization failure, never a silent step.
        Saa, c, U, Gt = _step_problem(0, 4, 3)
        lam = -10.0 * float(np.max(np.linalg.eigvalsh(Saa)) + c.max())
        with pytest.raises(np.linalg.LinAlgError):
            gl._newton_step(Saa, c, U, Gt, lam)

    def test_no_dense_hessian_in_refiner(self, monkeypatch):
        # The refiner must never assemble the (aK)x(aK) Hessian.
        def forbidden(*args, **kwargs):
            raise AssertionError("np.kron called")

        Z, G, _ = sparse_problem(seed=2)
        stats = SufficientStats.from_arrays(Z, G)
        start = group_lasso_penalized(Z, G, mu=40.0, tol=1e-4).coef
        monkeypatch.setattr(gl.np, "kron", forbidden)
        refined = gl._active_refine(
            stats.S, stats.A, stats.diag_S, 40.0, start
        )
        assert refined is not None


class TestActiveRefine:
    """``_active_refine`` returns a KKT-clean solution with the dense
    reference's support, or ``None`` — never a non-finite array."""

    @staticmethod
    def _refine_both(Z, G, mu, start, monkeypatch):
        stats = SufficientStats.from_arrays(Z, G)
        args = (stats.S, stats.A, stats.diag_S, mu, start)
        structured = gl._active_refine(*args)
        with monkeypatch.context() as patch:
            patch.setattr(gl, "_newton_step", _dense_newton_step)
            dense = gl._active_refine(*args)
        return stats, structured, dense

    def _check(self, stats, structured, dense, mu):
        if structured is None:
            return
        assert np.all(np.isfinite(structured))
        assert _kkt_clean(stats.S, stats.A, structured, mu)
        if dense is not None:
            support = np.linalg.norm(structured, axis=0) > 0
            assert support.tolist() == (
                np.linalg.norm(dense, axis=0) > 0
            ).tolist()

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("mu_frac", [0.05, 0.3, 0.8])
    def test_sparse_problem(self, k, mu_frac, monkeypatch):
        Z, G, _ = sparse_problem(seed=k, k=k)
        mu = mu_frac * float(SufficientStats.from_arrays(Z, G).mu_max)
        start = group_lasso_penalized(Z, G, mu=mu, tol=1e-4).coef
        stats, structured, dense = self._refine_both(
            Z, G, mu, start, monkeypatch
        )
        assert structured is not None
        self._check(stats, structured, dense, mu)

    @pytest.mark.parametrize("k", [1, 4])
    def test_correlated_problem(self, k, monkeypatch):
        Z, G = correlated_problem(seed=k, k=k)
        mu = 0.2 * float(SufficientStats.from_arrays(Z, G).mu_max)
        start = group_lasso_penalized(Z, G, mu=mu, tol=1e-4).coef
        stats, structured, dense = self._refine_both(
            Z, G, mu, start, monkeypatch
        )
        self._check(stats, structured, dense, mu)

    @pytest.mark.parametrize("k", [1, 3])
    def test_duplicate_candidate_columns(self, k, monkeypatch):
        # Two identical candidates make S_aa exactly singular; the
        # start puts weight on both copies.
        Z, G, _ = sparse_problem(seed=7, k=k, m=12, active=(2, 5))
        Z = np.column_stack([Z, Z[:, 2]])
        mu = 0.3 * float(SufficientStats.from_arrays(Z, G).mu_max)
        start = group_lasso_penalized(Z, G, mu=mu, tol=1e-4).coef
        start[:, -1] = 0.5 * start[:, 2]
        start[:, 2] *= 0.5
        stats, structured, dense = self._refine_both(
            Z, G, mu, start, monkeypatch
        )
        self._check(stats, structured, dense, mu)


class TestCertifyTelemetry:
    def test_certify_timer_and_newton_counter(self):
        Z, G = correlated_problem(seed=5)
        with use_registry(MetricsRegistry()) as registry:
            group_lasso_constrained(
                Z, G, budget=2.0, rtol=1e-2, probe_tol=1e-5
            )
        assert registry.timer("group_lasso.certify").count > 0
        assert registry.counter("group_lasso.newton_steps").value > 0
