"""Tests for repro.obs (metrics registry, spans, events, manifests)."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import (
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Timer,
    build_manifest,
    convergence_stats,
    current_span,
    render_timing_summary,
    span,
)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.5)
        reg.gauge("g").set(1.0)
        assert reg.gauge("g").value == 1.0

    def test_timer_exact_aggregates(self):
        t = Timer("t")
        for v in (0.1, 0.3, 0.2):
            t.record(v)
        s = t.summary()
        assert s.count == 3
        assert s.total == pytest.approx(0.6)
        assert s.minimum == pytest.approx(0.1)
        assert s.maximum == pytest.approx(0.3)
        assert s.mean == pytest.approx(0.2)

    def test_timer_percentiles(self):
        t = Timer("t")
        for v in np.linspace(0.0, 1.0, 101):
            t.record(v)
        assert t.percentile(50) == pytest.approx(0.5, abs=0.02)
        assert t.percentile(90) == pytest.approx(0.9, abs=0.02)
        assert t.percentile(0) == 0.0
        assert t.percentile(100) == 1.0

    def test_timer_sketch_stays_bounded(self):
        t = Timer("t")
        for i in range(10_000):
            t.record(i * 1e-6)
        assert t.count == 10_000
        # Log-linear buckets: ~32 per power of two over ~14 octaves.
        assert len(t._buckets) < 512
        assert t.summary().maximum == pytest.approx(9999e-6)
        # Relative error bounded by the bucket width (2^(1/32) - 1).
        assert t.percentile(50) == pytest.approx(5000e-6, rel=0.03)
        assert t.percentile(99) == pytest.approx(9900e-6, rel=0.03)

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        with reg.time("body"):
            pass
        assert reg.timer("body").count == 1

    def test_empty_timer_summary(self):
        assert Timer("t").summary().count == 0


class TestThreadSafety:
    """Instruments aggregate exactly under concurrent recording (the
    path engine increments them from scope worker threads)."""

    def _hammer(self, fn, n_threads=8, n_iter=2000):
        import threading

        threads = [
            threading.Thread(target=lambda: [fn() for _ in range(n_iter)])
            for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return n_threads * n_iter

    def test_concurrent_counter_increments_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        total = self._hammer(counter.inc)
        assert counter.value == total

    def test_concurrent_timer_records_exact(self):
        timer = Timer("t")
        total = self._hammer(lambda: timer.record(1e-6))
        assert timer.count == total
        assert timer.total == pytest.approx(total * 1e-6)
        assert sum(timer._buckets.values()) == total

    def test_concurrent_events_unique_seq(self):
        reg = MetricsRegistry()
        total = self._hammer(lambda: reg.event("e"), n_threads=4, n_iter=500)
        assert len(reg.events) == total
        seqs = [e["seq"] for e in reg.events]
        assert len(set(seqs)) == total

    def test_concurrent_jsonl_sink_lines_intact(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlSink(path) as sink:
            reg = MetricsRegistry()
            reg.add_sink(sink)
            total = self._hammer(
                lambda: reg.event("e", payload="x" * 50),
                n_threads=4,
                n_iter=250,
            )
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == total
        for line in lines:
            json.loads(line)  # every line is one intact JSON document


class TestNullMode:
    def test_disabled_registry_drops_everything(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.timer("t").record(0.5)
        reg.event("e", x=1)
        assert reg.events == []
        assert reg.snapshot() == {
            "schema": obs.SNAPSHOT_SCHEMA,
            "counters": {},
            "gauges": {},
            "timers": {},
        }

    def test_null_span_records_nothing(self):
        with obs.use_registry(MetricsRegistry(enabled=False)) as reg:
            with span("noop", budget=1.0) as sp:
                sp.set_attribute("a", 1)
            assert reg.spans == []

    def test_global_default_is_null(self):
        # The process-global registry must start disabled so importing
        # instrumented modules costs nothing.
        assert isinstance(obs.get_registry(), MetricsRegistry)

    def test_enable_disable_roundtrip(self):
        previous = obs.get_registry()
        reg = obs.enable()
        try:
            assert obs.get_registry() is reg
            assert reg.enabled
        finally:
            obs.set_registry(previous)


class TestSpans:
    def test_nesting_depth_and_parent(self):
        with obs.use_registry(MetricsRegistry()) as reg:
            with span("outer"):
                with span("inner"):
                    assert current_span().name == "inner"
            assert current_span() is None
        inner, outer = reg.spans
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
        assert outer.wall_s >= inner.wall_s

    def test_attributes_and_timer(self):
        with obs.use_registry(MetricsRegistry()) as reg:
            with span("op", budget=2.0) as sp:
                sp.set_attribute("n", 7)
        record = reg.spans[0]
        assert record.attributes == {"budget": 2.0, "n": 7}
        assert reg.timer("op").count == 1

    def test_error_status(self):
        with obs.use_registry(MetricsRegistry()) as reg:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
        assert reg.spans[0].status == "error"
        assert current_span() is None

    def test_explicit_registry(self):
        reg = MetricsRegistry()
        with span("direct", registry=reg):
            pass
        assert reg.spans[0].name == "direct"


class TestEvents:
    def test_event_stream_ordering(self):
        reg = MetricsRegistry()
        reg.event("a", x=1)
        reg.event("b")
        reg.event("a", x=2)
        assert [e["seq"] for e in reg.events] == [0, 1, 2]
        assert [e["x"] for e in reg.events_named("a")] == [1, 2]

    def test_list_sink(self):
        reg = MetricsRegistry()
        sink = ListSink()
        reg.add_sink(sink)
        reg.event("a")
        reg.remove_sink(sink)
        reg.event("b")
        assert [e["event"] for e in sink.events] == ["a"]

    def test_jsonl_sink_strict_json(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        reg = MetricsRegistry()
        with JsonlSink(path) as sink:
            reg.add_sink(sink)
            reg.event("solve", residual=float("inf"), ok=np.bool_(True))
            reg.event("solve", residual=0.5)
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "solve"
        assert first["residual"] is None  # inf -> null, strict JSON
        assert json.loads(lines[1])["residual"] == 0.5

    def test_jsonl_sink_rejects_bad_mode(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "x.jsonl"), mode="r")

    def test_jsonl_sink_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "events.jsonl")
        with JsonlSink(path) as sink:
            sink.emit({"event": "a", "seq": 0, "t_s": 0.0})
        assert json.loads(open(path).read())["event"] == "a"


class TestManifest:
    def _populated_registry(self):
        reg = MetricsRegistry()
        with span("experiment.fig1", registry=reg):
            pass
        reg.event(
            "group_lasso.constrained",
            budget=1.0,
            penalty=3.0,
            iterations=12,
            total_iterations=40,
            final_residual=1e-8,
            converged=True,
            n_active=4,
        )
        return reg

    def test_build_manifest_shape(self):
        reg = self._populated_registry()
        m = build_manifest(reg, profile="fast", dataset={"train": "x"})
        assert m["profile"] == "fast"
        assert m["experiments"][0]["experiment"] == "fig1"
        assert m["group_lasso"][0]["budget"] == 1.0
        assert m["group_lasso"][0]["iterations"] == 12
        assert m["group_lasso"][0]["final_residual"] == 1e-8
        assert m["event_counts"] == {"group_lasso.constrained": 1}
        json.dumps(m)  # JSON-ready

    def test_manifest_records_active_kernels(self, monkeypatch):
        from repro.utils import ckernels

        m = build_manifest(self._populated_registry())
        assert m["kernels"] == ckernels.active_kernels()
        assert set(m["kernels"]) == {"lu", "fista"}
        monkeypatch.setenv(ckernels.DISABLE_ENV_VAR, "1")
        m = build_manifest(self._populated_registry())
        assert m["kernels"] == {"lu": False, "fista": False}

    def test_convergence_stats_strips_bookkeeping(self):
        stats = convergence_stats(self._populated_registry())
        assert "event" not in stats[0] and "seq" not in stats[0]

    def test_timing_summary_table(self):
        reg = self._populated_registry()
        text = render_timing_summary(reg)
        assert "experiment.fig1" in text
        assert "count" in text

    def test_timing_summary_empty(self):
        assert "no timings" in render_timing_summary(MetricsRegistry())

    def test_manifest_workers_carry_fleet_finish(self, synthetic_dataset):
        from repro.core.pipeline import PipelineConfig, fit_placement
        from repro.monitor.fleet import FleetMonitor

        model = fit_placement(synthetic_dataset, PipelineConfig(budget=1.0))
        readings = synthetic_dataset.X[:, model.sensor_candidate_cols]
        threshold = float(np.median(model.predict(synthetic_dataset.X)))
        with obs.use_registry(MetricsRegistry()) as reg:
            for n_streams in (3, 2):
                fleet = FleetMonitor(model, threshold, n_streams=n_streams)
                fleet.run_batch(np.stack([readings[:16]] * n_streams))
                fleet.finish()
            manifest = build_manifest(reg, profile="test")
        assert manifest["schema"] == "repro.obs.manifest/v4"
        assert "shards" not in manifest
        workers = manifest["workers"]
        assert workers == obs.worker_stats(reg)
        assert [w["n_streams"] for w in workers] == [3, 2]
        for entry in workers:
            assert entry["source"] == "monitor"
            assert "shard" not in entry
            assert entry["cycles"] == 16
            assert "monitor.step" in entry["snapshot"]["timers"]
        assert set(reg.snapshot()["timers"]) >= {
            "monitor.run_batch", "monitor.stream_cycle"
        }
        json.dumps(manifest)  # JSON-ready


class TestSolverIntegration:
    def test_constrained_solve_emits_convergence_event(self):
        from repro.core.group_lasso import group_lasso_constrained

        rng = np.random.default_rng(0)
        Z = rng.normal(size=(50, 10))
        G = Z @ (rng.normal(size=(10, 3)) * 0.1) + 0.01 * rng.normal(
            size=(50, 3)
        )
        with obs.use_registry(MetricsRegistry()) as reg:
            result = group_lasso_constrained(Z, G, budget=0.5)
        events = reg.events_named("group_lasso.constrained")
        assert len(events) == 1
        assert events[0]["budget"] == 0.5
        assert events[0]["iterations"] == result.n_iterations
        assert events[0]["final_residual"] == result.final_residual
        assert events[0]["total_iterations"] >= result.n_iterations
        assert result.final_residual > 0
        assert [s.name for s in reg.spans] == ["fit.group_lasso"]

    def test_fit_placement_spans(self, synthetic_dataset):
        from repro.core.pipeline import PipelineConfig, fit_placement

        with obs.use_registry(MetricsRegistry()) as reg:
            model = fit_placement(synthetic_dataset, PipelineConfig(budget=1.0))
            model.predict(synthetic_dataset.X[:5])
        names = {s.name for s in reg.spans}
        assert "fit.placement" in names
        assert "fit.scope" in names
        assert reg.counter("predict.samples").value == 5
        top = [s for s in reg.spans if s.name == "fit.placement"][0]
        assert top.attributes["n_sensors"] == model.n_sensors

    def test_sweep_emits_points(self, synthetic_dataset):
        from repro.core.lambda_sweep import sweep_lambda

        with obs.use_registry(MetricsRegistry()) as reg:
            points = sweep_lambda(synthetic_dataset, budgets=[1.0, 2.0], rng=0)
        events = reg.events_named("lambda_sweep.point")
        assert [e["budget"] for e in events] == [1.0, 2.0]
        assert events[0]["n_sensors"] == points[0].n_sensors_total
