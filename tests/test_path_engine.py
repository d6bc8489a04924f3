"""Tests for repro.core.path_engine — the shared-Gram λ-path engine."""

import numpy as np
import pytest

from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import make_synthetic_dataset

BUDGETS = [0.4, 0.8, 1.6]


def selections_of(model):
    return [
        (scope.core_index, scope.selected_cols.tolist())
        for scope in model.scopes
    ]


class TestEngineVsPipeline:
    def test_fit_matches_fit_placement(self):
        dataset = make_synthetic_dataset()
        config = PipelineConfig(budget=1.0)
        engine = LambdaPathEngine(dataset, config)
        direct = fit_placement(dataset, config)
        via_engine = engine.fit(1.0)
        assert selections_of(via_engine) == selections_of(direct)
        np.testing.assert_allclose(
            via_engine.predict(dataset.X), direct.predict(dataset.X)
        )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_select_then_placement_matches_fit(self, n_jobs):
        dataset = make_synthetic_dataset(seed=4)
        config = PipelineConfig(budget=1.0, n_jobs=n_jobs)
        fitted = LambdaPathEngine(dataset, config).fit(1.0)
        engine = LambdaPathEngine(dataset, config)
        selections = engine.select(1.0)
        assert [s.n_selected for s in selections] == [
            scope.n_sensors for scope in fitted.scopes
        ]
        model = engine.placement(selections, 1.0)
        assert selections_of(model) == selections_of(fitted)
        assert model.config.budget == fitted.config.budget
        for got, want in zip(model.scopes, fitted.scopes):
            assert np.array_equal(
                got.predictor.model.coef, want.predictor.model.coef
            )
            assert np.array_equal(
                got.predictor.model.intercept, want.predictor.model.intercept
            )
        with pytest.raises(ValueError, match="scope selections"):
            engine.placement(selections[:1], 1.0)

    def test_fit_path_matches_independent_fits(self):
        dataset = make_synthetic_dataset(seed=3)
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=BUDGETS[0]))
        models = engine.fit_path(BUDGETS)
        for budget, model in zip(BUDGETS, models):
            direct = fit_placement(dataset, PipelineConfig(budget=budget))
            assert selections_of(model) == selections_of(direct), (
                f"warm-started path diverged at budget {budget}"
            )

    def test_fit_path_returns_input_order(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        shuffled = [1.6, 0.4, 0.8]
        models = engine.fit_path(shuffled)
        assert [m.config.budget for m in models] == shuffled

    def test_parallel_matches_serial(self):
        dataset = make_synthetic_dataset(seed=7)
        serial = LambdaPathEngine(
            dataset, PipelineConfig(budget=BUDGETS[0], n_jobs=1)
        ).fit_path(BUDGETS)
        parallel = LambdaPathEngine(
            dataset, PipelineConfig(budget=BUDGETS[0], n_jobs=2)
        ).fit_path(BUDGETS)
        for s_model, p_model in zip(serial, parallel):
            assert selections_of(s_model) == selections_of(p_model)

    def test_dense_scope_state_holds_no_sample_rows(self):
        # The readout slices the dataset when it runs; cached scope
        # state must not grow with N (the paper chip has N = 10,000).
        dataset = make_synthetic_dataset(n_samples=301)
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        engine.fit(1.0)
        for state in engine._scopes:
            arrays = [
                value
                for holder in (state, state.stats, state.warm)
                for value in vars(holder).values()
                if isinstance(value, np.ndarray)
            ]
            assert arrays
            assert all(301 not in a.shape for a in arrays)

    def test_rejects_empty_budgets(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        with pytest.raises(ValueError):
            engine.fit_path([])

    def test_too_small_budget_raises_value_error(self):
        dataset = make_synthetic_dataset()
        engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
        with pytest.raises(ValueError, match="no sensors selected"):
            engine.fit_path([1e-9, 1.0])

    def test_every_scope_failure_is_counted_and_attached(self):
        dataset = make_synthetic_dataset()
        with use_registry(MetricsRegistry()) as registry:
            engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
            with pytest.raises(ValueError, match="no sensors selected") as info:
                engine.fit_path([1.0, 2e-9, 1e-9])
            counters = registry.snapshot()["counters"]
        # Two too-small budgets fail in every scope; the smallest
        # budget's first scope is raised and the others ride along.
        failed = 2 * engine.n_scopes
        assert counters["path.scope_failures"] == failed
        notes = info.value.__notes__
        assert len(notes) == failed - 1
        assert all(note.startswith("also failed: core ") for note in notes)
        assert sum("budget 2e-09" in note for note in notes) == engine.n_scopes


class TestObservability:
    def test_counters_recorded(self):
        dataset = make_synthetic_dataset()
        with use_registry(MetricsRegistry()) as registry:
            engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
            engine.fit_path(BUDGETS)
            counters = registry.snapshot()["counters"]
        # Every inner solve after the first reuses the cached Gram, and
        # every budget after the first warm-starts from its predecessor.
        assert counters.get("path.gram_reuse", 0) > 0
        assert counters.get("sweep.warm_start_hits", 0) >= (
            (len(BUDGETS) - 1) * engine.n_scopes
        )

    def test_spans_recorded(self):
        dataset = make_synthetic_dataset()
        with use_registry(MetricsRegistry()) as registry:
            engine = LambdaPathEngine(dataset, PipelineConfig(budget=1.0))
            engine.fit(1.0)
            names = {s.name for s in registry.spans}
        assert {"path.prepare", "path.fit", "fit.scope"} <= names

    def test_parallel_counter_aggregation_exact(self):
        # Thread-safe counters: the parallel path must count exactly as
        # many gram reuses as the serial path.
        dataset = make_synthetic_dataset(seed=11)
        counts = {}
        for n_jobs in (1, 2):
            with use_registry(MetricsRegistry()) as registry:
                LambdaPathEngine(
                    dataset, PipelineConfig(budget=BUDGETS[0], n_jobs=n_jobs)
                ).fit_path(BUDGETS)
                counts[n_jobs] = registry.snapshot()["counters"].get(
                    "path.gram_reuse", 0
                )
        assert counts[1] == counts[2]
