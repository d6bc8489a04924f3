"""Tests for the batched fleet serving core (repro.monitor.fleet)."""

import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core import PipelineConfig, fit_placement
from repro.monitor import (
    CompiledPredictor,
    DropoutFault,
    FaultPolicy,
    FleetMonitor,
    StuckAtFault,
    VoltageMonitor,
)
from repro.monitor.fleet import _BLOCK_ROWS, _stable_rows
from tests.conftest import make_synthetic_dataset


@pytest.fixture(scope="module")
def fitted():
    ds = make_synthetic_dataset(seed=3)
    model = fit_placement(ds, PipelineConfig(budget=1.0))
    return ds, model


def _streams(model, ds, n_streams, n_cycles, seed=0, noise=2e-4):
    """(S, T, Q) sensor readings replaying the dataset with noise."""
    rng = np.random.default_rng(seed)
    cols = model.sensor_candidate_cols
    reps = int(np.ceil(n_cycles / ds.X.shape[0]))
    base = np.tile(ds.X, (reps, 1))[:n_cycles][:, cols]
    return base[np.newaxis] + rng.normal(0, noise, (n_streams,) + base.shape)


def _alarm_threshold(model, ds, quantile=0.2):
    """A threshold that real episodes actually cross."""
    return float(np.quantile(model.predict(ds.X), quantile))


class TestStableRows:
    def test_single_row_matches_batch_row(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 7))
        W = rng.standard_normal((7, 4))
        batch = _stable_rows(X, W)
        for i in (0, 13, 49):
            row = _stable_rows(X[i : i + 1], W)
            assert np.array_equal(row[0], batch[i])

    def test_single_column_matches_batch(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 5))
        W = rng.standard_normal((5, 3))
        full = _stable_rows(X, W)
        one = _stable_rows(X, W[:, :1])
        assert np.array_equal(one[:, 0], full[:, 0])

    def test_empty_input(self):
        out = _stable_rows(np.zeros((0, 4)), np.zeros((4, 2)))
        assert out.shape == (0, 2)

    def test_matches_plain_matmul_values(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 6))
        W = rng.standard_normal((6, 5))
        assert np.allclose(_stable_rows(X, W), X @ W)


class TestMinblockRows:
    @pytest.mark.parametrize(
        "n_rows",
        [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 1],
    )
    def test_matches_unblocked_min_argmin(self, fitted, n_rows):
        _, model = fitted
        fleet = FleetMonitor(model, 0.9)
        rng = np.random.default_rng(n_rows)
        coef_t = rng.normal(size=(4, 6))
        coef_t[:, 3] = coef_t[:, 1]  # blocks 1 and 3 tie on every row
        intercept = rng.normal(size=6)
        intercept[[1, 3]] = -20.0  # the tie is the minimum on plain rows
        compiled = CompiledPredictor(np.arange(4), coef_t, intercept)
        rows = rng.normal(size=(n_rows, 4))
        rows[1::2, 0] *= 100.0  # spread minima over several blocks
        rows[3::7, 2] = np.nan

        v, b = fleet._minblock_rows(rows, compiled)
        pred = _stable_rows(rows, coef_t) + intercept
        assert np.array_equal(v, pred.min(axis=1), equal_nan=True)
        assert np.array_equal(b, pred.argmin(axis=1))
        assert np.isnan(v[3::7]).all()
        assert (b == 1).any() and not (b == 3).any()  # first index wins

class TestCompiledPredictor:
    def test_matches_model_predict(self, fitted):
        ds, model = fitted
        compiled = CompiledPredictor.from_model(model)
        readings = ds.X[:40][:, compiled.sensor_cols]
        assert np.allclose(
            compiled.predict(readings), model.predict(ds.X[:40]), atol=1e-10
        )

    def test_layout_properties(self, fitted):
        _, model = fitted
        compiled = CompiledPredictor.from_model(model)
        assert compiled.n_sensors == model.n_sensors
        assert compiled.n_blocks == model.n_blocks
        assert np.array_equal(
            compiled.sensor_cols, np.sort(model.sensor_candidate_cols)
        )

    def test_duplicate_layout_rejected(self, fitted):
        _, model = fitted
        cols = model.sensor_candidate_cols
        bad = np.concatenate([cols, cols[:1]])
        with pytest.raises(ValueError, match="duplicate"):
            CompiledPredictor.from_model(model, sensor_cols=bad)

    def test_layout_missing_selected_column_rejected(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError, match="outside"):
            CompiledPredictor.from_model(
                model, sensor_cols=model.sensor_candidate_cols[1:]
            )

    def test_predict_shape_validated(self, fitted):
        _, model = fitted
        compiled = CompiledPredictor.from_model(model)
        with pytest.raises(ValueError, match="readings must be"):
            compiled.predict(np.zeros(compiled.n_sensors))
        with pytest.raises(ValueError, match="readings must be"):
            compiled.predict(np.zeros((3, compiled.n_sensors + 1)))

    def test_fallback_compiles_onto_base_layout_with_dead_column(self, fitted):
        ds, model = fitted
        cols = model.sensor_candidate_cols
        dead = int(cols[0])
        fallback = model.fallback_models()[dead]
        compiled = CompiledPredictor.from_model(fallback, sensor_cols=cols)
        assert compiled.coef_t.shape[0] == cols.size
        q = int(np.searchsorted(cols, dead))
        assert np.all(compiled.coef_t[q] == 0.0)
        readings = ds.X[:20][:, cols].copy()
        readings[:, q] = 0.0  # what the monitor feeds a dead channel
        assert np.allclose(
            compiled.predict(readings), fallback.predict(ds.X[:20]), atol=1e-10
        )


class TestFleetMonitorValidation:
    def test_constructor_rejects_bad_args(self, fitted):
        _, model = fitted
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=-0.1)
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=0.9, debounce=0)
        with pytest.raises(ValueError):
            FleetMonitor(model, threshold=0.9, n_streams=0)
        with pytest.raises(TypeError, match="FaultPolicy"):
            FleetMonitor(model, threshold=0.9, policy=object())

    def test_step_shape_validated(self, fitted):
        _, model = fitted
        fleet = FleetMonitor(model, threshold=0.9, n_streams=2)
        with pytest.raises(ValueError, match="one row per stream"):
            fleet.step(np.zeros(fleet.n_sensors))
        with pytest.raises(ValueError, match="one row per stream"):
            fleet.step(np.zeros((3, fleet.n_sensors)))

    def test_run_batch_shape_validated(self, fitted):
        _, model = fitted
        fleet = FleetMonitor(model, threshold=0.9, n_streams=2)
        with pytest.raises(ValueError, match="streams must be"):
            fleet.run_batch(np.zeros((2, fleet.n_sensors)))
        with pytest.raises(ValueError, match="streams must be"):
            fleet.run_batch(np.zeros((1, 5, fleet.n_sensors)))


class TestFleetVsSingleStream:
    def test_fleet_step_equals_independent_monitors(self, fitted):
        ds, model = fitted
        n_streams, n_cycles = 5, 120
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=4)
        cols = model.sensor_candidate_cols

        fleet = FleetMonitor(model, thr, debounce=2, n_streams=n_streams)
        singles = [VoltageMonitor(model, thr, debounce=2) for _ in range(n_streams)]
        n_inputs = model.n_inputs
        for t in range(n_cycles):
            flags = fleet.step(streams[:, t, :])
            for s, mon in enumerate(singles):
                v = np.zeros(n_inputs)
                v[cols] = streams[s, t]
                assert mon.step(v) == bool(flags[s])
        fleet.finish()
        for s, mon in enumerate(singles):
            stats = mon.finish()
            assert mon.events == fleet.events[s]
            assert stats.alarm_cycles == fleet.stream_stats(s).alarm_cycles
            assert stats.min_predicted == fleet.stream_stats(s).min_predicted

    def test_run_batch_equals_step_loop_bitwise(self, fitted):
        ds, model = fitted
        n_streams, n_cycles = 4, 150
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=5)

        stepper = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        step_flags = np.array(
            [stepper.step(streams[:, t, :]) for t in range(n_cycles)]
        ).T
        stepper.finish()

        batcher = FleetMonitor(model, thr, debounce=3, n_streams=n_streams)
        batch_flags = batcher.run_batch(streams)
        batcher.finish()

        assert np.array_equal(step_flags, batch_flags)
        assert stepper.events == batcher.events
        assert np.array_equal(stepper._alarm_cycles, batcher._alarm_cycles)
        assert np.array_equal(stepper._min_pred, batcher._min_pred)

    def test_run_batch_chunked_equals_single_call(self, fitted):
        """Debounce/episode/frozen state must carry across run_batch calls."""
        ds, model = fitted
        n_streams, n_cycles = 3, 160
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=6)
        # A stuck fault whose frozen window straddles the chunk split.
        fault = StuckAtFault(channel=0, start=70, value=0.93)
        streams = fault.apply(streams)
        policy = FaultPolicy(
            v_lo=streams.min() - 0.1, v_hi=streams.max() + 0.1,
            frozen_window=8, frozen_eps=0.0,
        )

        whole = FleetMonitor(model, thr, debounce=2, n_streams=n_streams,
                             policy=policy)
        flags_whole = whole.run_batch(streams)
        whole.finish()

        chunked = FleetMonitor(model, thr, debounce=2, n_streams=n_streams,
                               policy=policy)
        parts = [
            chunked.run_batch(streams[:, lo:hi, :])
            for lo, hi in ((0, 1), (1, 73), (73, 74), (74, n_cycles))
        ]
        flags_chunked = np.concatenate(parts, axis=1)
        chunked.finish()

        assert np.array_equal(flags_whole, flags_chunked)
        assert whole.events == chunked.events
        assert whole.failures == chunked.failures
        assert np.array_equal(whole._alarm_cycles, chunked._alarm_cycles)
        assert np.array_equal(whole._min_pred, chunked._min_pred)

    def test_nan_streams_without_policy_match_step(self, fitted):
        """NaN v_min takes the scalar replay path; still equals step mode."""
        ds, model = fitted
        n_streams, n_cycles = 2, 60
        thr = _alarm_threshold(model, ds)
        streams = _streams(model, ds, n_streams, n_cycles, seed=7)
        streams[0] = DropoutFault(channel=0, start=20, duration=10).apply(
            streams[0]
        )

        stepper = FleetMonitor(model, thr, debounce=2, n_streams=n_streams)
        step_flags = np.array(
            [stepper.step(streams[:, t, :]) for t in range(n_cycles)]
        ).T
        stepper.finish()

        batcher = FleetMonitor(model, thr, debounce=2, n_streams=n_streams)
        batch_flags = batcher.run_batch(streams)
        batcher.finish()

        assert np.array_equal(step_flags, batch_flags)
        assert stepper.events == batcher.events
        assert np.array_equal(stepper._alarm_cycles, batcher._alarm_cycles)

    def test_screen_fast_path_carries_frozen_run(self, fitted):
        """A clean chunk (fast path) then a chunk opening with a value
        equal to the last one: same frozen carry and detection cycle as
        the per-cycle screen."""
        ds, model = fitted
        n_streams, window = 3, 5
        streams = _streams(model, ds, n_streams, 40, seed=12)
        streams[1, 20:, 2] = streams[1, 19, 2]  # frozen from cycle 19 on
        policy = FaultPolicy(frozen_window=window)
        clean = streams[:, :20]
        assert policy.v_lo < clean.min() and clean.max() < policy.v_hi
        assert (np.abs(np.diff(clean, axis=1)) > policy.frozen_eps).all()

        stepper = FleetMonitor(model, 1e-6, n_streams=n_streams, policy=policy)
        batcher = FleetMonitor(model, 1e-6, n_streams=n_streams, policy=policy)
        for t in range(20):
            stepper.step(streams[:, t])
        batcher.run_batch(clean)
        assert np.array_equal(batcher._frozen_run, stepper._frozen_run)
        assert (batcher._frozen_run == 1).all()
        for t in range(20, 40):
            stepper.step(streams[:, t])
        batcher.run_batch(streams[:, 20:])
        assert np.array_equal(batcher._frozen_run, stepper._frozen_run)
        assert batcher.failures == stepper.failures
        assert [f.cycle for f in batcher.failures[1]] == [19 + window - 1]
        assert batcher.failures[1][0].screen == "frozen"

    def test_dead_sensor_keeps_clean_chunks_on_fast_path(self, fitted):
        """A sensor detected dead that keeps reading NaN must not send
        the fleet's otherwise clean chunks through the full screen."""
        ds, model = fitted
        streams = _streams(model, ds, 3, 60, seed=13)
        streams[1, 5:, 0] = np.nan
        policy = FaultPolicy(frozen_window=5)
        stepper = FleetMonitor(model, 1e-6, n_streams=3, policy=policy)
        batcher = FleetMonitor(model, 1e-6, n_streams=3, policy=policy)
        assert not batcher._chunk_is_clean(streams[:, :20])
        batcher.run_batch(streams[:, :20])
        assert batcher._detected.sum() == 1
        for start in (20, 40):
            assert batcher._chunk_is_clean(streams[:, start : start + 20])
            batcher.run_batch(streams[:, start : start + 20])
        for t in range(60):
            stepper.step(streams[:, t])
        assert batcher.failures == stepper.failures
        assert batcher.events == stepper.events
        assert np.array_equal(batcher._alarm_cycles, stepper._alarm_cycles)
        assert np.array_equal(batcher._min_pred, stepper._min_pred)
        # A live sensor going bad still fails the predicate.
        bad = streams[:, 40:60].copy()
        bad[2, 7, 1] = np.nan
        assert not batcher._chunk_is_clean(bad)


class TestFleetThroughput:
    def test_batch_at_least_5x_faster_than_looped_monitors(self):
        """One run_batch over 16 streams x 400 cycles against 16 looped
        single-stream VoltageMonitors (the batch path measures over
        100x on a 2-CPU Xeon)."""
        ds = make_synthetic_dataset(n_samples=600, n_blocks=8, seed=7)
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        n_streams, n_cycles, debounce = 16, 400, 3
        rng = np.random.default_rng(11)
        base = ds.X[:n_cycles]
        candidates = base[np.newaxis] + rng.normal(
            0.0, 2e-4, size=(n_streams,) + base.shape
        )
        sensors = np.ascontiguousarray(
            candidates[:, :, model.sensor_candidate_cols]
        )
        threshold = float(np.quantile(model.predict(base), 0.10))

        t0 = time.perf_counter()
        loop_flags = np.array([
            VoltageMonitor(model, threshold, debounce=debounce).run(c)
            for c in candidates
        ])
        loop_s = time.perf_counter() - t0
        batch_s = np.inf
        for _ in range(3):  # best of three: the batch call is ~ms
            fleet = FleetMonitor(
                model, threshold, debounce=debounce, n_streams=n_streams
            )
            t0 = time.perf_counter()
            batch_flags = fleet.run_batch(sensors)
            batch_s = min(batch_s, time.perf_counter() - t0)
        assert np.array_equal(batch_flags, loop_flags)
        assert loop_flags.any()
        assert loop_s >= 5.0 * batch_s, (loop_s, batch_s)


class TestFleetBehaviour:
    def test_on_emergency_callback_gets_stream_index(self, fitted):
        ds, model = fitted
        thr = _alarm_threshold(model, ds, quantile=0.5)
        seen = []
        fleet = FleetMonitor(
            model, thr, n_streams=3,
            on_emergency=lambda s, ev: seen.append((s, ev)),
        )
        fleet.run_batch(_streams(model, ds, 3, 80, seed=8))
        fleet.finish()
        assert seen
        assert len(seen) == sum(len(ev) for ev in fleet.events)
        for s, ev in seen:
            assert ev in fleet.events[s]

    def test_finish_closes_open_episodes_and_aggregates(self, fitted):
        ds, model = fitted
        thr = _alarm_threshold(model, ds, quantile=0.99)  # almost always below
        fleet = FleetMonitor(model, thr, n_streams=2)
        fleet.run_batch(_streams(model, ds, 2, 30, seed=9))
        assert fleet.alarm_active.any()
        stats = fleet.finish()
        assert not fleet.alarm_active.any()
        assert stats.cycles == 30
        assert stats.events == sum(len(ev) for ev in fleet.events)
        assert stats.alarm_cycles == sum(
            ev.duration for evs in fleet.events for ev in evs
        )
        assert stats.failovers == 0
        assert stats.degraded_streams == 0

    def test_degraded_mask_and_served_models(self, fitted):
        ds, model = fitted
        streams = _streams(model, ds, 2, 60, seed=10)
        streams[1] = DropoutFault(channel=2, start=5).apply(streams[1])
        policy = FaultPolicy(v_lo=0.5, v_hi=1.5, frozen_window=8)
        fleet = FleetMonitor(model, 1e-6, n_streams=2, policy=policy)
        fleet.run_batch(streams)
        assert list(fleet.degraded) == [False, True]
        assert fleet.model_for(0) is model
        col = int(fleet.sensor_cols[2])
        assert fleet.model_for(1) is model.fallback_models()[col]
        assert fleet.predictor_for(0) is not fleet.predictor_for(1)
        # The served predictor is exactly the fallback compiled onto the
        # fleet's sensor layout.
        expected = CompiledPredictor.from_model(
            model.fallback_models()[col], sensor_cols=fleet.sensor_cols
        )
        served = fleet.predictor_for(1)
        assert np.array_equal(served.coef_t, expected.coef_t)
        assert np.array_equal(served.intercept, expected.intercept)

    def test_obs_batch_metrics(self, fitted):
        ds, model = fitted
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            fleet = FleetMonitor(model, 1e-6, n_streams=3)
            fleet.run_batch(_streams(model, ds, 3, 40, seed=11))
            snap = registry.snapshot()
        assert snap["counters"]["monitor.batch_cycles"] == 120
        assert snap["timers"]["monitor.run_batch"]["count"] == 1
