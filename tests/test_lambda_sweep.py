"""Tests for repro.core.lambda_sweep."""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.lambda_sweep as lambda_sweep
from repro.core.lambda_sweep import fit_for_sensor_count, sweep_lambda
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.core.predictor import VoltagePredictor
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset


class TestSweepLambda:
    def test_point_per_budget(self):
        ds = make_synthetic_dataset()
        points = sweep_lambda(ds, budgets=[0.5, 2.0, 6.0], rng=0)
        assert [p.budget for p in points] == [0.5, 2.0, 6.0]

    def test_sensor_count_non_decreasing(self):
        ds = make_synthetic_dataset()
        points = sweep_lambda(ds, budgets=[0.5, 1.0, 2.0, 4.0], rng=0)
        counts = [p.n_sensors_total for p in points]
        assert counts == sorted(counts)

    def test_error_broadly_improves(self):
        ds = make_synthetic_dataset(noise=0.0005, seed=13)
        points = sweep_lambda(ds, budgets=[0.5, 6.0], rng=1)
        assert points[-1].relative_error <= points[0].relative_error + 1e-6

    def test_same_split_for_all_budgets(self):
        # Errors must be comparable: each point carries its own model
        # but was evaluated on the same held-out rows (deterministic rng).
        ds = make_synthetic_dataset()
        a = sweep_lambda(ds, budgets=[1.0], rng=42)[0]
        b = sweep_lambda(ds, budgets=[1.0], rng=42)[0]
        assert a.relative_error == pytest.approx(b.relative_error)

    def test_rejects_empty_budgets(self):
        with pytest.raises(ValueError):
            sweep_lambda(make_synthetic_dataset(), budgets=[])

    def test_respects_base_config(self):
        ds = make_synthetic_dataset()
        base = PipelineConfig(budget=1.0, per_core=False)
        points = sweep_lambda(ds, budgets=[2.0], base_config=base, rng=0)
        assert len(points[0].model.scopes) == 1

    def test_warm_start_matches_independent_fits(self):
        # The engine-backed sweep (shared Gram + cross-budget warm
        # starts) must select the same sensors as refitting every
        # budget from scratch on the same training split.
        ds = make_synthetic_dataset(seed=5)
        budgets = [0.4, 0.8, 1.6, 3.2]
        warm = sweep_lambda(ds, budgets=budgets, rng=0)
        train, test = ds.train_test_split(test_fraction=0.25, rng=0)
        for w, budget in zip(warm, budgets):
            cold = fit_placement(train, PipelineConfig(budget=budget))
            assert (
                w.model.sensor_candidate_cols.tolist()
                == cold.sensor_candidate_cols.tolist()
            )
            assert w.relative_error == pytest.approx(
                mean_relative_error(cold.predict(test.X), test.F)
            )

    def test_n_jobs_matches_serial(self):
        ds = make_synthetic_dataset(seed=6)
        budgets = [0.5, 1.0, 2.0]
        serial = sweep_lambda(
            ds, budgets=budgets, rng=0,
            base_config=PipelineConfig(budget=0.5, n_jobs=1),
        )
        threaded = sweep_lambda(
            ds, budgets=budgets, rng=0,
            base_config=PipelineConfig(budget=0.5, n_jobs=2),
        )
        for s, t in zip(serial, threaded):
            assert (
                s.model.sensor_candidate_cols.tolist()
                == t.model.sensor_candidate_cols.tolist()
            )

    def test_unsorted_budgets_match_sorted(self):
        # Budgets are solved in ascending order regardless of input
        # order, so the models must not depend on it.
        ds = make_synthetic_dataset(seed=7)
        fwd = sweep_lambda(ds, budgets=[0.5, 1.0, 2.0], rng=0)
        rev = sweep_lambda(ds, budgets=[2.0, 1.0, 0.5], rng=0)
        for f, r in zip(fwd, reversed(rev)):
            assert f.budget == r.budget
            assert (
                f.model.sensor_candidate_cols.tolist()
                == r.model.sensor_candidate_cols.tolist()
            )


class TestFitForSensorCount:
    def test_hits_small_target(self):
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(ds, target_per_core=2.0)
        per_core = model.n_sensors / len(ds.core_ids)
        assert abs(per_core - 2.0) <= 1.0

    def test_larger_target_more_sensors(self):
        ds = make_synthetic_dataset()
        small = fit_for_sensor_count(ds, target_per_core=1.0)
        large = fit_for_sensor_count(ds, target_per_core=6.0)
        assert large.n_sensors > small.n_sensors

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_one_readout_fit_per_scope(self, monkeypatch, n_jobs):
        # Probes stop at the selection: only the returned placement
        # fits its OLS readouts, one per scope.
        ds = make_synthetic_dataset()
        calls = []
        original = VoltagePredictor.fit.__func__

        def spy(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(VoltagePredictor, "fit", classmethod(spy))
        base = PipelineConfig(budget=1.0, n_jobs=n_jobs)
        model = fit_for_sensor_count(ds, target_per_core=2.0, base_config=base)
        assert len(calls) == len(model.scopes) == len(ds.core_ids)

    def test_readout_matches_direct_fit_bitwise(self):
        ds = make_synthetic_dataset(seed=5)
        model = fit_for_sensor_count(ds, target_per_core=2.0)
        for scope in model.scopes:
            direct = VoltagePredictor.fit(
                ds.X[:, scope.candidate_cols],
                ds.F[:, scope.block_cols],
                selected=scope.selection.selected,
            )
            got = scope.predictor.model
            assert np.array_equal(got.coef, direct.model.coef)
            assert np.array_equal(got.intercept, direct.model.intercept)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            fit_for_sensor_count(make_synthetic_dataset(), target_per_core=0.0)

    def test_too_small_explicit_budget_hi_is_expanded(self):
        # Regression: an explicit budget_hi whose count is below the
        # target used to freeze the bracket, silently returning a model
        # far from the requested count.
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(ds, target_per_core=4.0, budget_hi=0.2)
        per_core = model.n_sensors / len(ds.core_ids)
        assert per_core >= 3.0

    def test_failed_probes_do_not_consume_probe_budget(self):
        # Regression: budgets too small to select anything raise
        # ValueError inside the bisection; those probes used to burn
        # max_probes, degrading the bracket before any model was fit.
        ds = make_synthetic_dataset()
        model = fit_for_sensor_count(
            ds, target_per_core=2.0, budget_lo=1e-9, max_probes=6
        )
        per_core = model.n_sensors / len(ds.core_ids)
        assert abs(per_core - 2.0) <= 1.0

    def test_bisection_stops_below_solver_resolution(self, monkeypatch):
        # A non-monotone count, shaped like the paper chip at one sensor
        # per core: nothing selected below 0.02 or from 0.03 up to 0.0576
        # (where the solver collapses to the zero solution), half the
        # target in between, and 9 sensors for 8 cores from 0.0576 up.
        # The bracket collapses onto the 0.0576 jump, which no probe can
        # cross.
        n_cores = 8
        fits = []

        class StubEngine:
            def __init__(self, dataset, config):
                pass

            def select(self, budget):
                fits.append(budget)
                if budget >= 0.0576:
                    n = 9
                elif 0.02 <= budget < 0.03:
                    n = 4
                else:
                    raise ValueError("no sensor selected")
                return [SimpleNamespace(n_selected=n)]

            def placement(self, selections, budget):
                n = sum(s.n_selected for s in selections)
                return SimpleNamespace(n_sensors=n, budget=budget)

        monkeypatch.setattr(lambda_sweep, "LambdaPathEngine", StubEngine)
        dataset = SimpleNamespace(core_ids=list(range(n_cores)))

        def run(rtol):
            fits.clear()
            model = fit_for_sensor_count(
                dataset, 1.0, base_config=PipelineConfig(budget=1.0, rtol=rtol)
            )
            return model, len(fits)

        # rtol=0 never triggers the resolution stop: the full search.
        full, full_fits = run(0.0)
        stopped, stopped_fits = run(1e-2)
        assert stopped_fits <= 12 < full_fits
        assert stopped.n_sensors == full.n_sensors == 9
        assert stopped.budget == full.budget
