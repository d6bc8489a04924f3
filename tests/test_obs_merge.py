"""Mergeable-snapshot semantics: exactness, processes, thread scopes."""

import multiprocessing

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry, Timer
from repro.obs.metrics import SUBBUCKETS


def _pooled_timer(samples):
    t = Timer("t")
    for v in samples:
        t.record(float(v))
    return t


class TestTimerMerge:
    def test_merge_matches_pooled_percentiles_bitwise(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=4000)
        pooled = _pooled_timer(samples)
        shards = [_pooled_timer(s) for s in np.array_split(samples, 7)]
        merged = Timer("t")
        for shard in shards:
            merged.merge(shard.snapshot())
        assert merged.count == pooled.count
        assert merged.minimum == pooled.minimum
        assert merged.maximum == pooled.maximum
        for p in (0, 1, 25, 50, 75, 90, 99, 99.9, 100):
            assert merged.percentile(p) == pooled.percentile(p)

    def test_merge_accepts_timer_instance(self):
        a = _pooled_timer([0.1, 0.2])
        b = _pooled_timer([0.3])
        a.merge(b)
        assert a.count == 3
        assert a.maximum == pytest.approx(0.3)

    def test_merge_empty_is_identity(self):
        t = _pooled_timer([0.5])
        before = t.snapshot()
        t.merge(Timer("empty").snapshot())
        assert t.snapshot() == before

    def test_merge_into_empty(self):
        src = _pooled_timer([0.5, 0.25])
        dst = Timer("t")
        dst.merge(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_merge_order_invariant_percentiles(self):
        rng = np.random.default_rng(3)
        parts = [rng.uniform(1e-5, 1e-2, size=50) for _ in range(4)]
        forward = Timer("t")
        backward = Timer("t")
        for part in parts:
            forward.merge(_pooled_timer(part).snapshot())
        for part in reversed(parts):
            backward.merge(_pooled_timer(part).snapshot())
        for p in (50, 90, 99):
            assert forward.percentile(p) == backward.percentile(p)

    def test_merge_rejects_subbucket_mismatch(self):
        t = Timer("t")
        bad = _pooled_timer([0.1]).snapshot()
        bad["subbuckets"] = SUBBUCKETS * 2
        with pytest.raises(ValueError):
            t.merge(bad)

    def test_zero_and_negative_samples_merge(self):
        a = Timer("t")
        a.record(0.0)
        a.record(-1e-9)
        b = Timer("t")
        b.record(0.5)
        b.merge(a.snapshot())
        assert b.count == 3
        assert b.percentile(0) == a.minimum
        assert b.percentile(100) == 0.5

    def test_percentile_relative_error_bound(self):
        # The sketch guarantees relative error <= 2^(1/SUBBUCKETS) - 1
        # (values clamped to exact min/max at the extremes).
        bound = 2.0 ** (1.0 / SUBBUCKETS) - 1.0
        rng = np.random.default_rng(5)
        samples = np.sort(rng.uniform(1e-6, 1.0, size=2001))
        t = _pooled_timer(samples)
        for p in (10, 50, 90):
            exact = samples[int(np.ceil(2001 * p / 100.0)) - 1]
            assert abs(t.percentile(p) - exact) <= bound * exact + 1e-15


class TestRegistrySnapshotMerge:
    def _worked_registry(self, scale=1):
        reg = MetricsRegistry()
        reg.counter("solves").inc(3 * scale)
        reg.gauge("load").set(0.5 * scale)
        for i in range(10 * scale):
            reg.timer("lat").record((i + 1) * 1e-4)
        return reg

    def test_counter_totals_exact(self):
        parent = MetricsRegistry()
        for scale in (1, 2, 5):
            parent.merge_snapshot(self._worked_registry(scale).snapshot())
        assert parent.counter("solves").value == 3 * (1 + 2 + 5)

    def test_schema_stamp(self):
        snap = MetricsRegistry().snapshot()
        assert snap["schema"] == obs.SNAPSHOT_SCHEMA

    def test_merged_equals_pooled_run(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(1e-5, 1e-2, size=900)
        pooled = MetricsRegistry()
        for v in samples:
            pooled.timer("t").record(float(v))
            pooled.counter("n").inc()
        merged = MetricsRegistry()
        for part in np.array_split(samples, 4):
            child = MetricsRegistry()
            for v in part:
                child.timer("t").record(float(v))
                child.counter("n").inc()
            merged.merge_snapshot(child.snapshot())
        assert merged.counter("n").value == pooled.counter("n").value
        for p in (50, 90, 99):
            assert merged.timer("t").percentile(p) == pooled.timer(
                "t"
            ).percentile(p)

    def test_null_registry_merge_is_noop(self):
        null = MetricsRegistry(enabled=False)
        null.merge_snapshot(self._worked_registry().snapshot())
        assert null.snapshot()["counters"] == {}

    def test_merge_registry_forwards_spans_and_events(self):
        parent = MetricsRegistry()
        parent.event("parent.before")
        child = MetricsRegistry()
        with obs.span("child.op", registry=child):
            pass
        child.event("child.done", x=1)
        parent.merge_registry(child)
        assert [s.name for s in parent.spans] == ["child.op"]
        names = [e["event"] for e in parent.events]
        assert names == ["parent.before", "child.done"]
        # Re-sequenced: seq values stay unique and monotone.
        seqs = [e["seq"] for e in parent.events]
        assert seqs == sorted(set(seqs))


class TestThreadRegistry:
    def test_thread_override_is_per_thread(self):
        import threading

        child = MetricsRegistry()
        seen = {}

        def other_thread():
            seen["registry"] = obs.get_registry()

        with obs.use_registry(MetricsRegistry()) as global_reg:
            with obs.thread_registry(child):
                assert obs.get_registry() is child
                t = threading.Thread(target=other_thread)
                t.start()
                t.join()
            assert obs.get_registry() is global_reg
        assert seen["registry"] is global_reg

    def test_path_engine_threads_merge_into_parent(self, synthetic_dataset):
        from repro.core.path_engine import LambdaPathEngine
        from repro.core.pipeline import PipelineConfig

        with obs.use_registry(MetricsRegistry()) as seq_reg:
            engine = LambdaPathEngine(
                synthetic_dataset, PipelineConfig(budget=1.0, n_jobs=1)
            )
            seq_models = engine.fit_path([1.0, 2.0])
        with obs.use_registry(MetricsRegistry()) as par_reg:
            engine = LambdaPathEngine(
                synthetic_dataset, PipelineConfig(budget=1.0, n_jobs=4)
            )
            par_models = engine.fit_path([1.0, 2.0])
        # Identical work: same solves, same counters, same span names.
        assert [
            [s.predictor.sensor_nodes.tolist() for s in m.scopes]
            for m in par_models
        ] == [
            [s.predictor.sensor_nodes.tolist() for s in m.scopes]
            for m in seq_models
        ]
        assert (
            par_reg.counter("path.gram_reuse").value
            == seq_reg.counter("path.gram_reuse").value
        )
        assert sorted(s.name for s in par_reg.spans) == sorted(
            s.name for s in seq_reg.spans
        )
        assert par_reg.timer("fit.scope").count == seq_reg.timer(
            "fit.scope"
        ).count


def _mp_worker(args):
    """Record a deterministic share of samples; return the snapshot."""
    worker_id, samples = args
    registry = MetricsRegistry()
    registry.counter("work.items").inc(len(samples))
    for v in samples:
        registry.timer("work.lat").record(float(v))
    registry.event("work.done", worker=worker_id)
    return registry.snapshot()


class TestMultiprocessingMerge:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_merge_across_processes(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        rng = np.random.default_rng(7)
        samples = rng.uniform(1e-5, 1e-2, size=400)
        shares = [
            (i, part.tolist())
            for i, part in enumerate(np.array_split(samples, 4))
        ]
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(2) as pool:
            snapshots = pool.map(_mp_worker, shares)

        parent = MetricsRegistry()
        for snap in snapshots:
            parent.merge_snapshot(snap)

        pooled = MetricsRegistry()
        pooled.counter("work.items").inc(len(samples))
        for v in samples:
            pooled.timer("work.lat").record(float(v))

        assert parent.counter("work.items").value == len(samples)
        assert parent.timer("work.lat").count == len(samples)
        assert parent.timer("work.lat").minimum == pooled.timer(
            "work.lat"
        ).minimum
        for p in (50, 90, 99):
            assert parent.timer("work.lat").percentile(p) == pooled.timer(
                "work.lat"
            ).percentile(p)


class TestDatagenParallelAggregation:
    def test_parallel_workers_report_snapshots(self, tiny_setup=None):
        from repro.experiments.config import ChipConfig, DataConfig
        from repro.experiments.data_generation import build_chip, generate_maps

        config = ChipConfig(
            core_cols=1, core_rows=1, template="small",
            grid_pitch=0.4, pad_pitch=1.5,
        )
        data = DataConfig(
            benchmarks=("x264", "canneal", "dedup", "vips"),
            steps_per_benchmark=40, warmup_steps=10,
            record_every=4, n_samples=20, seed=3,
        )
        chip = build_chip(config)
        with obs.use_registry(MetricsRegistry()) as reg:
            maps = generate_maps(chip, data, n_jobs=2)
        workers = reg.events_named("obs.worker")
        assert len(workers) == 2
        assert {w["source"] for w in workers} == {"datagen"}
        all_benchmarks = [b for w in workers for b in w["benchmarks"]]
        assert sorted(all_benchmarks) == sorted(data.benchmarks)
        for w in workers:
            snap = w["snapshot"]
            assert snap["schema"] == obs.SNAPSHOT_SCHEMA
            assert snap["counters"]["datagen.batch_solve"] == 1
            assert "datagen.batch_solve" in snap["timers"]
        # Worker counters merged into the parent registry exactly.
        assert reg.counter("datagen.batch_solve").value == 2
        assert reg.timer("datagen.batch_solve").count == 2
        assert maps.n_samples > 0

    def test_library_does_not_clobber_global_registry(self):
        from repro.experiments.config import ChipConfig, DataConfig
        from repro.experiments.data_generation import (
            _parallel_worker,
        )

        config = ChipConfig(
            core_cols=1, core_rows=1, template="small",
            grid_pitch=0.4, pad_pitch=1.5,
        )
        data = DataConfig(
            benchmarks=("x264",), steps_per_benchmark=20,
            warmup_steps=5, record_every=4, n_samples=5, seed=0,
        )
        before = obs.get_registry()
        payload = _parallel_worker((config, data, ["x264"], False))
        # The worker used a scoped registry: the caller's global one is
        # untouched (previously obs.enable()/disable() clobbered it).
        assert obs.get_registry() is before
        assert payload["snapshot"]["counters"]["datagen.batch_solve"] == 1
