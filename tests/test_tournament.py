"""Placement tournament: golden leaderboard diff + engine contract.

``golden_leaderboard.json`` pins the full tiny-profile tournament —
rankings, selected sensors, and every scenario score for all
registered placers.  The replay compares under the tolerance policy in
``tests/golden/README.md``: discrete fields exact, continuous fields
to 2e-5 relative (float32 simulation data), wall-clock fields ignored.

The remaining tests pin the engine contract: schema validity of the
leaderboard document, rank ordering, failure isolation (a broken
placer lands in ``problems``, not an exception), and the committed
``results/leaderboard.json`` artifact's required coverage.
"""

import json
import os

import numpy as np
import pytest

from repro.experiments import tournament
from repro.experiments.tournament import (
    DEFAULT_PLACERS,
    TournamentConfig,
    render_leaderboard_markdown,
    run_tournament,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.benchjson import normalize_bench, validate_bench
from tests.golden.regenerate import (
    TOURNAMENT_GOLDEN_PATH,
    build_tournament_golden,
)

REL_TOL = 2e-5
#: Wall-clock fields: recorded in the fixture, exempt from comparison.
TIMING_KEYS = {"place_s"}

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results",
    "leaderboard.json",
)


@pytest.fixture(scope="module")
def golden():
    with open(TOURNAMENT_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current(tiny_data):
    return build_tournament_golden(data=tiny_data)


def _assert_matches(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        got_keys = set(got) - TIMING_KEYS
        want_keys = set(want) - TIMING_KEYS
        assert got_keys == want_keys, (
            f"{path}: keys differ (+{got_keys - want_keys} "
            f"-{want_keys - got_keys})"
        )
        for key in want_keys:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=REL_TOL, abs=1e-12), path
    else:
        assert got == want, path


def test_leaderboard_matches_golden(golden, current):
    _assert_matches(current, golden, "leaderboard")


def test_golden_is_valid_bench_document(golden):
    assert golden["schema" if "schema" in golden else "mode"]  # sanity
    assert validate_bench(golden) == []
    assert golden["problems"] == []


def test_golden_normalizes_for_report_diffing(golden):
    flat = normalize_bench(golden)
    assert flat["mode"] == "tournament"
    for entry in golden["entries"]:
        assert f"overall_error[placer={entry['placer']}]" in flat["scalars"]
        assert f"nominal_error[placer={entry['placer']}]" in flat["scalars"]
    assert flat["scalars"]["problems"] == 0.0


def test_entries_ranked_by_overall_error(current):
    overall = [e["overall_error"] for e in current["entries"]]
    assert overall == sorted(overall)
    assert [e["rank"] for e in current["entries"]] == list(
        range(1, len(overall) + 1)
    )


def test_every_entry_covers_every_scenario(current):
    scenarios = current["scenarios"]
    for entry in current["entries"]:
        assert set(entry["per_benchmark"]) == set(scenarios["benchmarks"])
        assert len(entry["variation"]["errors"]) == scenarios["n_variation"]
        assert set(entry["faults"]) == set(scenarios["fault_modes"])
        for mode_row in entry["faults"].values():
            assert 0.0 <= mode_row["detected_fraction"] <= 1.0
            assert mode_row["worst_degraded_error"] >= (
                mode_row["mean_degraded_error"] - 1e-12
            )
        assert entry["n_sensors"] == len(entry["selected_cols"])


def test_markdown_rendering_lists_every_placer(tiny_data):
    config = TournamentConfig(
        placers=("worst_noise", "correlation"),
        n_variation=0,
        fault_modes=(),
    )
    result = run_tournament(tiny_data, config)
    markdown = render_leaderboard_markdown(result)
    assert "| worst_noise |" in markdown
    assert "| correlation |" in markdown
    assert markdown.count("n/a") >= 2  # no variation axis -> n/a cells
    assert result.render()  # ASCII rendering also works


def test_failing_placer_is_isolated(tiny_data):
    config = TournamentConfig(
        placers=("worst_noise", "no_such_placer"),
        n_variation=0,
        fault_modes=(),
    )
    result = run_tournament(tiny_data, config)
    assert [e.placer for e in result.entries] == ["worst_noise"]
    assert len(result.problems) == 1
    assert "no_such_placer" in result.problems[0]
    with pytest.raises(KeyError):
        result.entry("no_such_placer")


def test_failing_placer_is_counted(tiny_data):
    config = TournamentConfig(
        placers=("worst_noise", "no_such_placer"),
        n_variation=0,
        fault_modes=(),
    )
    with use_registry(MetricsRegistry()) as registry:
        result = run_tournament(tiny_data, config)
        counters = registry.snapshot()["counters"]
    assert counters["tournament.placer_failures"] == len(result.problems) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        TournamentConfig(placers=())
    with pytest.raises(ValueError):
        TournamentConfig(budget=0)
    with pytest.raises(ValueError):
        TournamentConfig(fault_start=200, fault_cycles=100)
    with pytest.raises(ValueError):
        TournamentConfig(resistance_sigma=-0.1)


def test_committed_leaderboard_meets_coverage_floor():
    # The committed artifact must exist, validate, and cover the
    # required grid: >= 4 placers x (benchmarks, >= 3 variation
    # instances, >= 2 fault modes) with detection and degraded columns.
    with open(RESULTS_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_bench(doc) == []
    assert doc["problems"] == []
    assert len(doc["entries"]) >= 4
    scenarios = doc["scenarios"]
    assert len(scenarios["benchmarks"]) >= 1
    assert scenarios["n_variation"] >= 3
    assert len(scenarios["fault_modes"]) >= 2
    for entry in doc["entries"]:
        assert {"miss", "wrong_alarm", "total"} <= set(entry["nominal"])
        assert entry["worst_degraded_error"] is not None
        assert np.isfinite(entry["overall_error"])


def test_quick_cli_writes_leaderboard_documents(tmp_path, capsys):
    out = tmp_path / "leaderboard.json"
    markdown = tmp_path / "leaderboard.md"
    code = tournament.main(
        ["--quick", "--out", str(out), "--markdown", str(markdown)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert validate_bench(doc) == []
    assert doc["profile"] == "tournament-quick"
    assert doc["problems"] == []
    assert sorted(e["placer"] for e in doc["entries"]) == sorted(
        DEFAULT_PLACERS
    )
    assert doc["counters"]
    for placer in DEFAULT_PLACERS:
        assert f"| {placer} |" in markdown.read_text()
    assert "tournament:" in capsys.readouterr().out


def test_cli_exits_nonzero_when_a_placer_fails(monkeypatch, capsys):
    monkeypatch.setattr(
        tournament,
        "TournamentConfig",
        lambda **_: TournamentConfig(
            placers=("worst_noise", "no_such_placer"),
            n_variation=0,
            fault_modes=(),
        ),
    )
    assert tournament.main(["--quick"]) == 1
    assert "no_such_placer" in capsys.readouterr().out


class TestVariationRefit:
    """Warm-started re-placement across shared variation instances."""

    def test_refit_records_warm_reuse(self, tiny_data):
        import repro.obs as obs

        config = TournamentConfig(
            placers=("group_lasso", "worst_noise"),
            budget=1,
            n_variation=2,
            variation_steps=60,
            fault_modes=(),
        )
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            result = run_tournament(tiny_data, config)
            assert (
                registry.counter("tournament.variation_refits").snapshot()
                == 2
            )
            assert (
                registry.counter("tournament.warm_start_hits").snapshot()
                >= 1
            )
        by_name = {e.placer: e for e in result.entries}
        refit = by_name["group_lasso"].meta["variation_refit"]
        assert refit["instances"] == 2
        assert refit["scopes"] >= 2
        assert 1 <= refit["warm_start_hits"] <= refit["scopes"]
        assert refit["probes"] >= refit["scopes"]
        assert len(refit["placement_overlap"]) == 2
        assert all(0.0 <= o <= 1.0 for o in refit["placement_overlap"])
        # Placers that cannot warm-start simply skip the axis.
        assert "variation_refit" not in by_name["worst_noise"].meta

    def test_refit_disabled_leaves_meta_untouched(self, tiny_data):
        config = TournamentConfig(
            placers=("group_lasso",),
            budget=1,
            n_variation=1,
            variation_steps=60,
            fault_modes=(),
            variation_refit=False,
        )
        result = run_tournament(tiny_data, config)
        assert "variation_refit" not in result.entries[0].meta

    def test_refit_never_reaches_leaderboard_document(self, tiny_data):
        config = TournamentConfig(
            placers=("group_lasso",),
            budget=1,
            n_variation=1,
            variation_steps=60,
            fault_modes=(),
        )
        result = run_tournament(tiny_data, config)
        doc = result.leaderboard()
        assert "variation_refit" not in json.dumps(doc)
