"""Bench-report schema validation and the run-diff regression CLI."""

import copy
import json
import os

import pytest

from repro.obs.benchjson import (
    BENCH_SCHEMA,
    infer_mode,
    normalize_bench,
    stamp_bench,
    validate_bench,
)
from repro.obs.report import (
    Thresholds,
    diff_runs,
    load_run,
    main,
    render_ascii,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _committed_bench(name):
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    if not os.path.exists(path):
        pytest.skip(f"{path} not committed")
    with open(path) as fh:
        return path, json.load(fh)


class TestBenchSchema:
    @pytest.mark.parametrize("name", ["sweep", "datagen", "monitor", "screen"])
    def test_committed_baselines_validate(self, name):
        _, doc = _committed_bench(name)
        assert validate_bench(doc) == []
        assert infer_mode(doc) == name

    def test_quick_monitor_baseline_aligns_with_quick_runs(self):
        # CI diffs its --monitor --quick smoke against this baseline;
        # the full-profile one is refused as a profile mismatch.
        quick, doc = _committed_bench("monitor_quick")
        full, _ = _committed_bench("monitor")
        assert validate_bench(doc) == []
        assert infer_mode(doc) == "monitor"
        assert doc["profile"] == "quick"
        assert main([quick, quick]) == 0
        assert main([full, quick]) == 2

    def test_legacy_sweep_without_mode_is_inferred(self):
        _, doc = _committed_bench("sweep")
        doc.pop("mode", None)
        doc.pop("schema", None)
        assert infer_mode(doc) == "sweep"
        assert validate_bench(doc) == []

    def test_stamp_sets_schema_and_mode(self):
        # Only the legacy sweep layout is inferrable without a mode tag;
        # a datagen/monitor doc must keep its explicit mode.
        _, doc = _committed_bench("sweep")
        doc.pop("mode", None)
        doc.pop("schema", None)
        stamp_bench(doc)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["mode"] == "sweep"

    def test_unrecognizable_doc_raises(self):
        with pytest.raises(ValueError):
            infer_mode({"hello": "world"})

    def test_missing_required_field_reported(self):
        _, doc = _committed_bench("datagen")
        doc.pop("speedup")
        problems = validate_bench(doc)
        assert any("speedup" in p for p in problems)

    @pytest.mark.parametrize("name", ["sweep", "datagen", "monitor", "screen"])
    def test_normalize_shape(self, name):
        _, doc = _committed_bench(name)
        norm = normalize_bench(doc)
        assert norm["kind"] == "bench"
        assert norm["mode"] == name
        assert isinstance(norm["counters"], dict)
        assert isinstance(norm["scalars"], dict)
        assert norm["counters"] or norm["scalars"]


class TestDiffRuns:
    def test_self_diff_has_no_regressions(self):
        _, doc = _committed_bench("sweep")
        report = diff_runs(load_run_doc(doc), load_run_doc(doc))
        assert report["verdict"] == "ok"
        assert report["regressions"] == []

    def test_injected_accuracy_regression_flagged(self):
        _, doc = _committed_bench("sweep")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("relative_error")
        )
        new["scalars"][name] = value * 2.0
        report = diff_runs(old, new)
        assert report["verdict"] == "regression"
        assert any(
            r["metric"] == f"scalar:{name}" for r in report["regressions"]
        )

    def test_within_threshold_delta_is_ok(self):
        _, doc = _committed_bench("sweep")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("relative_error")
        )
        new["scalars"][name] = value * 1.05  # inside the 10% accuracy gate
        assert diff_runs(old, new)["verdict"] == "ok"

    def test_custom_thresholds(self):
        _, doc = _committed_bench("sweep")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        name, value = next(
            (k, v)
            for k, v in new["scalars"].items()
            if k.startswith("relative_error")
        )
        new["scalars"][name] = value * 1.05
        tight = Thresholds(accuracy=0.01)
        assert diff_runs(old, new, tight)["verdict"] == "regression"

    def test_wall_clock_scalars_are_info_only(self):
        _, doc = _committed_bench("sweep")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        for key in ("engine_s", "baseline_s", "datagen_s"):
            if key in new["scalars"]:
                new["scalars"][key] = new["scalars"][key] * 100
        assert diff_runs(old, new)["verdict"] == "ok"

    def test_problem_counter_increase_always_flags(self):
        _, doc = _committed_bench("sweep")
        old = load_run_doc(doc)
        new = copy.deepcopy(old)
        new["scalars"]["solver_problems"] = (
            old["scalars"].get("solver_problems", 0) + 1
        )
        report = diff_runs(old, new)
        assert report["verdict"] == "regression"

    def test_render_ascii_mentions_verdict(self):
        _, doc = _committed_bench("sweep")
        run = load_run_doc(doc)
        text = render_ascii(diff_runs(run, run))
        assert "OK" in text


def load_run_doc(doc):
    """Normalize an in-memory bench doc the way load_run does a file."""
    from repro.obs.benchjson import normalize_bench

    return normalize_bench(copy.deepcopy(doc))


class TestReportCLI:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_self_diff_exit_zero(self, tmp_path, capsys):
        path, _ = _committed_bench("sweep")
        assert main([path, path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_injected_regression_exit_one(self, tmp_path, capsys):
        path, doc = _committed_bench("sweep")
        bad = copy.deepcopy(doc)
        for point in bad["engine_points"]:
            point["relative_error"] = point["relative_error"] * 2.0
        bad_path = self._write(tmp_path, "new.json", bad)
        assert main([path, bad_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unreadable_input_exit_two(self, tmp_path, capsys):
        garbage = self._write(tmp_path, "garbage.json", {"nope": 1})
        path, _ = _committed_bench("sweep")
        assert main([path, garbage]) == 2

    def test_json_output(self, tmp_path, capsys):
        path, _ = _committed_bench("sweep")
        out_path = tmp_path / "diff.json"
        assert main([path, path, "--json", str(out_path)]) == 0
        saved = json.loads(out_path.read_text())
        assert saved["verdict"] == "ok"
        assert saved["schema"].startswith("repro.obs.report/")

    def test_threshold_flags(self, tmp_path):
        path, doc = _committed_bench("sweep")
        worse = copy.deepcopy(doc)
        for point in worse["engine_points"]:
            point["relative_error"] = point["relative_error"] * 1.05
        worse_path = self._write(tmp_path, "worse.json", worse)
        assert main([path, worse_path]) == 0
        assert main([path, worse_path, "--accuracy-tol", "0.01"]) == 1

    def test_manifest_diff(self, tmp_path, capsys):
        import repro.obs as obs

        with obs.use_registry(obs.MetricsRegistry()) as registry:
            registry.counter("datagen.batch_solve").inc(4)
            registry.timer("fit.scope").record(1e-3)
            manifest = obs.build_manifest(registry, profile="test")
        a = self._write(tmp_path, "a.json", manifest)
        b = self._write(tmp_path, "b.json", manifest)
        assert main([a, b]) == 0
        assert "OK" in capsys.readouterr().out

    def test_manifest_latency_regression(self, tmp_path, capsys):
        import repro.obs as obs

        def build(scale):
            with obs.use_registry(obs.MetricsRegistry()) as registry:
                for i in range(50):
                    registry.timer("fit.scope").record((i + 1) * 1e-4 * scale)
                return obs.build_manifest(registry, profile="test")

        a = self._write(tmp_path, "old.json", build(1.0))
        b = self._write(tmp_path, "new.json", build(10.0))
        assert main([a, b]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_mode_mismatch_warns_but_compares(self, tmp_path, capsys):
        sweep_path, _ = _committed_bench("sweep")
        datagen_path, _ = _committed_bench("datagen")
        code = main([sweep_path, datagen_path])
        out = capsys.readouterr().out
        assert "WARNING" in out
        assert code in (0, 1)


def _worked_manifest():
    import repro.obs as obs

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        registry.counter("datagen.batch_solve").inc(4)
        for i in range(20):
            registry.timer("fit.scope").record((i + 1) * 1e-4)
        return obs.build_manifest(registry, profile="test")


class TestCannotAlign:
    """Unalignable metrics must exit 2 with a message, not a traceback."""

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_nan_p99_manifest_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        bad["metrics"]["timers"]["fit.scope"]["p99_s"] = float("nan")
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        err = capsys.readouterr().err
        assert "cannot align" in err
        assert "p99_s" in err

    def test_absent_metrics_section_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        del bad["metrics"]
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        assert "cannot align" in capsys.readouterr().err

    def test_nan_bench_scalar_exit_two(self, tmp_path, capsys):
        path, doc = _committed_bench("sweep")
        bad = copy.deepcopy(doc)
        bad["engine_s"] = float("nan")
        bad_path = self._write(tmp_path, "bad.json", bad)
        assert main([path, bad_path]) == 2
        err = capsys.readouterr().err
        assert "cannot align" in err
        assert "engine_s" in err

    def test_non_numeric_counter_exit_two(self, tmp_path, capsys):
        good = _worked_manifest()
        bad = copy.deepcopy(good)
        bad["metrics"]["counters"]["datagen.batch_solve"] = "four"
        a = self._write(tmp_path, "a.json", good)
        b = self._write(tmp_path, "b.json", bad)
        assert main([a, b]) == 2
        assert "cannot align" in capsys.readouterr().err

    def test_non_dict_event_entries_are_skipped(self, tmp_path):
        # Junk entries in the event lists must not crash the load; the
        # numeric entries still fold into scalars.
        good = _worked_manifest()
        weird = copy.deepcopy(good)
        weird["group_lasso"] = [
            {"iterations": 3, "total_iterations": 5},
            "garbage",
        ]
        weird["experiments"] = ["garbage", {"experiment": "e1", "wall_s": 1.5}]
        run = load_run(self._write(tmp_path, "w.json", weird))
        assert run["scalars"]["group_lasso.iterations"] == 3.0
        assert run["scalars"]["experiment.e1.wall_s"] == 1.5

    def test_empty_workers_datagen_loads_and_diffs_ok(self, tmp_path, capsys):
        # An empty worker list is a legitimate single-process run, not
        # an alignment failure.
        path, doc = _committed_bench("datagen")
        empty = copy.deepcopy(doc)
        empty["workers"] = []
        empty_path = self._write(tmp_path, "empty.json", empty)
        assert main([path, empty_path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_profile_mismatch_exit_two(self, tmp_path, capsys):
        # A quick smoke diffed against a full baseline must not report
        # its smaller wall times as "improved".
        path, doc = _committed_bench("monitor")
        quick = copy.deepcopy(doc)
        quick["profile"] = "quick"
        quick_path = self._write(tmp_path, "quick.json", quick)
        assert main([path, quick_path]) == 2
        err = capsys.readouterr().err
        assert f"cannot align: profile mismatch ({doc['profile']} vs quick)" in err

    def test_profile_absent_on_one_side_still_diffs(self, tmp_path, capsys):
        path, doc = _committed_bench("monitor")
        bare = copy.deepcopy(doc)
        del bare["profile"]
        bare_path = self._write(tmp_path, "bare.json", bare)
        assert main([path, bare_path]) == 0
