"""Unit + golden regression tests for the droop-surrogate stack.

Covers the conformal-calibration math (:mod:`repro.surrogate.calibrate`),
the regressor contract (:mod:`repro.surrogate.model`), scenario spaces
(:mod:`repro.surrogate.scenarios`), sweep-config validation, the
``emit_bench`` tail shared by both bench-report CLIs, and the pinned fast-profile sweep replayed against
``tests/golden/golden_surrogate.json`` (tolerance policy in
``tests/golden/README.md``).
"""

import json

import numpy as np
import pytest

from repro.obs.benchjson import MODES, emit_bench, stamp_bench, validate_bench
from repro.surrogate import (
    GridVariant,
    ScenarioSpace,
    SweepConfig,
    conformal_calibrate,
    default_variants,
    empirical_coverage,
    make_model,
)
from repro.surrogate.calibrate import (
    MIN_BLOCK_CALIBRATION,
    _conformal_quantile,
)
from tests.golden.regenerate import (
    SURROGATE_GOLDEN_PATH,
    build_surrogate_golden,
)

#: Continuous tolerance: the sweep's inputs are float32 simulated
#: voltage maps (see tests/golden/README.md).
REL_TOL = 2e-5


# ---------------------------------------------------------------- calibrate
class TestConformalQuantile:
    def test_finite_sample_rank(self):
        # n=9, alpha=0.1 -> rank ceil(10*0.9)=9 -> the maximum.
        scores = np.arange(1.0, 10.0)
        assert _conformal_quantile(scores, 0.1) == 9.0

    def test_interior_rank(self):
        # n=19, alpha=0.2 -> rank ceil(20*0.8)=16 -> 16th smallest.
        scores = np.arange(1.0, 20.0)
        assert _conformal_quantile(scores, 0.2) == 16.0

    def test_vacuous_level_falls_back_to_max(self):
        # n=3, alpha=0.01 -> rank 4 > n -> max residual.
        scores = np.array([0.5, 2.0, 1.0])
        assert _conformal_quantile(scores, 0.01) == 2.0

    def test_order_free(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=50)
        q = _conformal_quantile(scores, 0.15)
        assert _conformal_quantile(rng.permutation(scores), 0.15) == q


def _synthetic_calibration(
    n_scenarios=40, n_blocks=3, alpha=0.1, guard_margin=1.25, seed=0
):
    rng = np.random.default_rng(seed)
    n = n_scenarios * n_blocks
    pred = rng.uniform(0.05, 0.5, size=n)
    actual = pred * (1.0 + rng.normal(0, 0.05, size=n))
    ids = np.tile(np.arange(n_blocks), n_scenarios)
    cal = conformal_calibrate(
        pred, actual, ids, n_blocks, alpha=alpha, guard_margin=guard_margin
    )
    return cal, pred, actual, ids


class TestConformalCalibrate:
    def test_guard_is_scaled_max_score_times_margin(self):
        cal, pred, actual, _ = _synthetic_calibration(guard_margin=1.5)
        scores = np.abs(actual - pred) / np.maximum(pred, cal.scale_floor)
        assert cal.guard_q == pytest.approx(scores.max() * 1.5)

    def test_guard_band_contains_all_calibration_points(self):
        cal, pred, actual, _ = _synthetic_calibration()
        assert np.all(actual <= cal.guard_upper(pred))
        assert np.all(actual >= cal.guard_lower(pred))

    def test_nominal_coverage_on_calibration_split(self):
        cal, pred, actual, ids = _synthetic_calibration(
            n_scenarios=100, alpha=0.1
        )
        cov = empirical_coverage(cal, pred, actual, ids)
        assert cov["nominal_coverage"] >= 1.0 - cal.alpha
        assert cov["guard_coverage"] == 1.0
        assert cov["target_coverage"] == pytest.approx(0.9)

    def test_small_blocks_fall_back_to_pooled_quantile(self):
        # 5 rows per block is below MIN_BLOCK_CALIBRATION.
        assert 5 < MIN_BLOCK_CALIBRATION
        cal, _, _, _ = _synthetic_calibration(n_scenarios=5, n_blocks=4)
        assert np.all(cal.block_q == cal.pooled_q)

    def test_populous_blocks_get_their_own_quantile(self):
        cal, _, _, _ = _synthetic_calibration(n_scenarios=60, n_blocks=2)
        assert cal.per_block_counts.min() >= MIN_BLOCK_CALIBRATION
        # Per-block quantiles of distinct samples almost surely differ.
        assert not np.all(cal.block_q == cal.pooled_q)

    def test_band_is_multiplicative_in_prediction(self):
        cal, _, _, _ = _synthetic_calibration()
        pred = np.array([0.4])
        ids = np.array([0])
        width = cal.upper(pred, ids) - pred
        assert width[0] == pytest.approx(cal.block_q[0] * 0.4)

    def test_scale_floor_clamps_tiny_predictions(self):
        cal, _, _, _ = _synthetic_calibration()
        tiny = np.array([1e-9])
        width = cal.guard_upper(tiny) - tiny
        assert width[0] == pytest.approx(cal.guard_q * cal.scale_floor)

    def test_to_dict_is_json_ready(self):
        cal, _, _, _ = _synthetic_calibration()
        doc = json.loads(json.dumps(cal.to_dict()))
        assert doc["alpha"] == cal.alpha
        assert len(doc["block_q"]) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [dict(alpha=0.0), dict(alpha=1.0), dict(guard_margin=0.9)],
    )
    def test_rejects_bad_levels(self, kwargs):
        pred = np.ones(10)
        ids = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            conformal_calibrate(pred, pred, ids, 1, **kwargs)

    def test_rejects_shape_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="share one shape"):
            conformal_calibrate(
                np.ones(4), np.ones(5), np.zeros(4, dtype=int), 1
            )
        with pytest.raises(ValueError, match="empty"):
            conformal_calibrate(
                np.ones(0), np.ones(0), np.zeros(0, dtype=int), 1
            )


# ------------------------------------------------------------------- models
class TestModels:
    @pytest.mark.parametrize("kind", ["patchconv", "kernel"])
    def test_fit_predict_deterministic(self, kind):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 8))
        y = rng.normal(size=60)
        p1 = make_model(kind).fit(X, y).predict(X)
        p2 = make_model(kind).fit(X.copy(), y.copy()).predict(X.copy())
        np.testing.assert_array_equal(p1, p2)

    def test_patchconv_recovers_linear_signal(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 5))
        w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        y = X @ w + 0.1
        pred = make_model("patchconv", alpha=1e-8).fit(X, y).predict(X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 1e-4

    def test_kernel_fits_nonlinear_signal(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(150, 2))
        y = np.sin(3 * X[:, 0]) * X[:, 1]
        pred = make_model("kernel").fit(X, y).predict(X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    @pytest.mark.parametrize("kind", ["patchconv", "kernel"])
    def test_predict_before_fit_raises(self, kind):
        with pytest.raises(RuntimeError, match="fit"):
            make_model(kind).predict(np.ones((2, 3)))

    @pytest.mark.parametrize("kind", ["patchconv", "kernel"])
    def test_rejects_bad_shapes(self, kind):
        with pytest.raises(ValueError, match="2-D"):
            make_model(kind).fit(np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            make_model(kind).fit(np.ones((5, 2)), np.ones(4))
        with pytest.raises(ValueError, match="empty"):
            make_model(kind).fit(np.ones((0, 2)), np.ones(0))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError, match="alpha"):
            make_model("patchconv", alpha=0.0)
        with pytest.raises(ValueError, match="gamma"):
            make_model("kernel", gamma=-1.0)

    def test_kernel_refuses_oversize_training_set(self):
        model = make_model("kernel", max_train_rows=10)
        with pytest.raises(ValueError, match="max_train_rows"):
            model.fit(np.ones((11, 2)), np.ones(11))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown surrogate model"):
            make_model("transformer")


# ---------------------------------------------------------------- scenarios
class TestScenarios:
    SPACE = ScenarioSpace(benchmarks=("x264", "canneal"))

    def test_sample_deterministic_for_seed(self):
        a = self.SPACE.sample(20, 42)
        b = self.SPACE.sample(20, 42)
        assert a == b

    def test_sample_varies_with_seed(self):
        assert self.SPACE.sample(20, 1) != self.SPACE.sample(20, 2)

    def test_sample_covers_benchmarks_and_variants(self):
        scenarios = self.SPACE.sample(200, 0)
        assert {s.benchmark for s in scenarios} == {"x264", "canneal"}
        assert {s.variant for s in scenarios} == set(
            range(len(self.SPACE.variants))
        )

    def test_sample_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be"):
            self.SPACE.sample(0, 0)

    def test_space_rejects_empty_benchmarks(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            ScenarioSpace(benchmarks=())

    def test_space_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            ScenarioSpace(benchmarks=("doom",))

    def test_scenario_keys_unique_within_sample(self):
        scenarios = self.SPACE.sample(100, 3)
        assert len({s.key() for s in scenarios}) == 100

    def test_default_variants_shape(self):
        variants = default_variants(n_variation=2, pad_scales=(0.8, 1.25))
        assert [v.name for v in variants] == [
            "nominal", "rvar0", "rvar1", "pad0.8", "pad1.25",
        ]

    def test_grid_variant_validation(self):
        with pytest.raises(ValueError):
            GridVariant(resistance_sigma=-0.1)
        with pytest.raises(ValueError):
            GridVariant(pad_resistance_scale=0.0)


# ------------------------------------------------------------- sweep config
class TestSweepConfig:
    def test_defaults_valid(self):
        assert SweepConfig().model == "patchconv"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_train=4), "n_train"),
            (dict(calibration_fraction=0.95), "calibration_fraction"),
            (dict(n_pool=0), "n_pool"),
            (dict(top_k=0), "top_k"),
            (dict(n_pool=10, top_k=11), "top_k"),
            (dict(model="mlp"), "unknown model"),
            (dict(screen_chunk=0), "screen_chunk"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**kwargs)


# ------------------------------------------------------ emit_bench contract
#: One minimal structurally-valid report per bench mode.  Adding a mode
#: to MODES without a stub here fails the exhaustiveness assertion.
_MODE_STUBS = {
    "tournament": {
        "budget": 1.0, "placers": [], "scenarios": {}, "entries": [],
        "problems": [],
    },
    "surrogate": {
        "throughput": {}, "recall": {}, "counters": {}, "problems": [],
    },
}


class TestEmitBench:
    def test_stub_table_covers_every_mode(self):
        assert set(_MODE_STUBS) == set(MODES)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_validates_and_emits(self, mode, tmp_path):
        report = {"mode": mode, **_MODE_STUBS[mode]}
        assert validate_bench(stamp_bench(dict(report))) == []
        out = tmp_path / f"BENCH_{mode}.json"
        assert emit_bench(dict(report), str(out)) == 0
        written = json.loads(out.read_text())
        assert written["mode"] == mode
        assert written["schema"] == "repro.bench/v1"

    def test_invalid_report_refused(self):
        report = {"mode": "surrogate"}  # missing required fields
        with pytest.raises(SystemExit, match="invalid bench report"):
            emit_bench(report)

    def test_problems_drive_exit_code(self, capsys):
        report = {"mode": "surrogate", **_MODE_STUBS["surrogate"]}
        report["problems"] = [{"kind": "guard_bound_violation"}]
        assert emit_bench(report) == 1
        assert "guard_bound_violation" in capsys.readouterr().out

    def test_validates_even_without_out(self):
        report = {"mode": "surrogate", **_MODE_STUBS["surrogate"]}
        assert emit_bench(dict(report)) == 0

    @pytest.mark.parametrize("problems", [[], [{"kind": "worst_case_missed"}]])
    def test_study_cli_writes_report_and_exit_code(
        self, monkeypatch, tmp_path, problems
    ):
        from repro.experiments import surrogate_study

        section = {
            "profile": "p", "model": "ridge", "top_k": 4,
            "screen_scenarios_per_min": 600.0,
            "exact_scenarios_per_min": 6.0, "speedup": 100.0,
            "guard_violations": 0, "nominal_coverage": 0.9,
            "recall_at_k": 0.5, "worst_case_hit": int(not problems),
            "rank_agreement": 0.4,
        }
        report = {
            "mode": "surrogate", "profile": "quick", "throughput": section,
            "recall": section, "counters": {}, "problems": problems,
        }
        calls = []
        monkeypatch.setattr(
            surrogate_study,
            "run_surrogate_study",
            lambda quick: calls.append(quick) or dict(report),
        )
        out = tmp_path / "BENCH_surrogate.json"
        code = surrogate_study.main(["--quick", "--out", str(out)])
        assert calls == [True]
        assert code == int(bool(problems))
        assert json.loads(out.read_text())["problems"] == problems


# ------------------------------------------------------- golden regression
@pytest.fixture(scope="module")
def golden():
    with open(SURROGATE_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return build_surrogate_golden()


class TestSurrogateGolden:
    def test_fixture_matches_scenario(self, golden, current):
        assert golden["scenario"] == json.loads(
            json.dumps(current["scenario"])
        )
        assert current["n_blocks"] == golden["n_blocks"]

    def test_screened_ranking_exact(self, golden, current):
        assert current["screen"]["topk_indices"] == (
            golden["screen"]["topk_indices"]
        )

    def test_pool_scores_and_bounds_within_tolerance(self, golden, current):
        for field in ("pool_scores", "pool_bounds"):
            assert current["screen"][field] == pytest.approx(
                golden["screen"][field], rel=REL_TOL
            )

    def test_calibration_within_tolerance(self, golden, current):
        got, want = current["calibration"], golden["calibration"]
        assert got["n_calibration"] == want["n_calibration"]
        assert got["alpha"] == want["alpha"]
        assert got["guard_margin"] == want["guard_margin"]
        for field in ("pooled_q", "guard_q", "scale_floor"):
            assert got[field] == pytest.approx(want[field], rel=REL_TOL)
        assert got["block_q"] == pytest.approx(want["block_q"], rel=REL_TOL)

    def test_coverage_and_fit_error(self, golden, current):
        assert current["fit_error_rms"] == pytest.approx(
            golden["fit_error_rms"], rel=REL_TOL
        )
        for field in ("nominal_coverage", "guard_coverage", "n_rows"):
            assert current["coverage"][field] == pytest.approx(
                golden["coverage"][field], rel=REL_TOL
            )

    def test_verdicts_match(self, golden, current):
        got, want = current["verify"], golden["verify"]
        assert got["nominal_violations"] == want["nominal_violations"]
        assert got["guard_violations"] == want["guard_violations"]
        assert got["rank_agreement"] == pytest.approx(
            want["rank_agreement"], rel=REL_TOL
        )
        assert len(got["verdicts"]) == len(want["verdicts"])
        for g, w in zip(got["verdicts"], want["verdicts"]):
            assert g["rank"] == w["rank"]
            assert g["scenario"] == w["scenario"]
            assert g["nominal_violations"] == w["nominal_violations"]
            assert g["guard_violations"] == w["guard_violations"]
            for field in ("predicted_worst", "bound_worst", "exact_worst"):
                assert g[field] == pytest.approx(w[field], rel=REL_TOL)

    def test_exact_pool_recall_exact(self, golden, current):
        got, want = current["exact_pool"], golden["exact_pool"]
        assert got["true_worst_index"] == want["true_worst_index"]
        assert got["recall_at_k"] == want["recall_at_k"]
        assert got["worst_case_hit"] == want["worst_case_hit"]
        assert got["exact_scores"] == pytest.approx(
            want["exact_scores"], rel=REL_TOL
        )


class TestExactVerificationRegression:
    """The pinned (k, seed) screening guarantees: see ISSUE acceptance."""

    def test_true_worst_case_is_screened_in(self, current):
        assert current["exact_pool"]["worst_case_hit"] is True
        assert (
            current["exact_pool"]["true_worst_index"]
            in current["screen"]["topk_indices"]
        )

    def test_zero_guard_violations(self, current):
        assert current["verify"]["guard_violations"] == 0

    def test_every_exact_droop_within_reported_bound(self, current):
        for verdict in current["verify"]["verdicts"]:
            assert verdict["exact_worst"] <= verdict["bound_worst"]
