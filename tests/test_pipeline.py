"""Tests for repro.core.pipeline (Section 2.4 end to end)."""

import numpy as np
import pytest

from repro.core.path_engine import LambdaPathEngine
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.obs import MetricsRegistry, use_registry
from repro.voltage.metrics import mean_relative_error
from tests.conftest import make_synthetic_dataset


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig(budget=1.0)
        assert cfg.threshold == 1e-3
        assert cfg.per_core

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            PipelineConfig(budget=0.0)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("rtol", -0.5, ValueError),
            ("rtol", float("nan"), ValueError),
            ("probe_tol", -1.0, ValueError),
            ("probe_tol", 0.0, ValueError),
            ("solver_tol", 0.0, ValueError),
            ("solver_tol", float("inf"), ValueError),
            ("solver_max_iter", 0, ValueError),
            ("solver_max_iter", 2.5, TypeError),
        ],
    )
    def test_rejects_bad_solver_settings(self, field, value, error):
        with pytest.raises(error, match=field if error is ValueError else None):
            PipelineConfig(budget=1.0, **{field: value})

    def test_accepts_edge_solver_settings(self):
        cfg = PipelineConfig(budget=1.0, rtol=0.0, probe_tol=None)
        assert cfg.rtol == 0.0 and cfg.probe_tol is None


class TestFitPlacementPerCore:
    def test_scopes_per_core(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        assert [s.core_index for s in model.scopes] == ds.core_ids

    def test_sensors_within_own_core(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        for scope in model.scopes:
            cores = ds.candidate_cores[scope.selected_cols]
            assert np.all(cores == scope.core_index)

    def test_prediction_accuracy(self):
        ds = make_synthetic_dataset(noise=0.0005, seed=11)
        model = fit_placement(ds, PipelineConfig(budget=3.0))
        err = mean_relative_error(model.predict(ds.X), ds.F)
        assert err < 0.01

    def test_predict_covers_all_blocks(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        out = model.predict(ds.X[:3])
        assert out.shape == (3, ds.n_blocks)
        assert np.all(np.isfinite(out))

    def test_sensor_bookkeeping(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        cols = model.sensor_candidate_cols
        assert model.n_sensors == cols.shape[0]
        nodes = model.sensor_nodes(ds)
        assert np.array_equal(nodes, ds.candidate_nodes[cols])
        per_core = model.sensors_per_core()
        assert sum(per_core.values()) == model.n_sensors

    def test_alarm_and_block_states(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        states = model.block_states(ds.X[:10], threshold=0.9)
        alarms = model.alarm(ds.X[:10], threshold=0.9)
        assert np.array_equal(alarms, states.any(axis=1))


class TestFitPlacementGlobal:
    def test_single_scope(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=2.0, per_core=False))
        assert len(model.scopes) == 1
        assert model.scopes[0].core_index == -1

    def test_global_can_cross_cores(self):
        ds = make_synthetic_dataset()
        model = fit_placement(ds, PipelineConfig(budget=4.0, per_core=False))
        out = model.predict(ds.X[:2])
        assert out.shape == (2, ds.n_blocks)


class TestErrorCases:
    def test_core_without_candidates_raises(self):
        ds = make_synthetic_dataset()
        # Reassign all of core 1's candidates to core 0.
        ds.candidate_cores[:] = 0
        with pytest.raises(ValueError, match="no\\s+sensor candidates"):
            fit_placement(ds, PipelineConfig(budget=1.0))


class TestFitPlacementRunsOnEngine:
    @pytest.mark.parametrize(
        "options", [{"n_jobs": 1}, {"n_jobs": 2}, {"screen": True}]
    )
    def test_matches_engine_fit(self, options):
        ds = make_synthetic_dataset(seed=2)
        config = PipelineConfig(budget=1.0, **options)
        with use_registry(MetricsRegistry()) as direct_reg:
            direct = fit_placement(ds, config)
        with use_registry(MetricsRegistry()) as engine_reg:
            via_engine = LambdaPathEngine(ds, config).fit(config.budget)
        assert direct.config == via_engine.config == config
        for got, want in zip(direct.scopes, via_engine.scopes):
            assert got.core_index == want.core_index
            assert np.array_equal(got.selected_cols, want.selected_cols)
            assert np.array_equal(
                got.selection.group_norms, want.selection.group_norms
            )
            assert np.array_equal(
                got.predictor.model.coef, want.predictor.model.coef
            )

        def span_count(registry, name):
            return sum(1 for s in registry.spans if s.name == name)

        assert span_count(direct_reg, "fit.scope") == span_count(
            engine_reg, "fit.scope"
        ) == len(direct.scopes)
        top = [s for s in direct_reg.spans if s.name == "fit.placement"]
        assert len(top) == 1
        assert top[0].attributes["n_sensors"] == direct.n_sensors
        assert {
            s.parent
            for s in direct_reg.spans
            if s.name in ("path.prepare", "path.fit")
        } == {"fit.placement"}
