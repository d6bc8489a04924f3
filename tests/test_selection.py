"""Tests for repro.core.selection (paper Steps 3-5)."""

import numpy as np
import pytest

from repro.baselines import get_placer
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.core.pipeline import PipelineConfig, fit_placement
from repro.core.selection import DEFAULT_THRESHOLD, prepare_stats, select_sensors
from tests.conftest import make_synthetic_dataset


class TestSelectSensors:
    def test_selects_driver_candidates(self):
        # The synthetic dataset's blocks are linear in known drivers;
        # a moderate budget must select (a subset of) those drivers.
        ds = make_synthetic_dataset(noise=0.0005, seed=7)
        cand, blocks = ds.core_view(0)
        result = select_sensors(ds.X[:, cand], ds.F[:, blocks], budget=2.0)
        drivers = set()
        for k in blocks:
            drivers.update(int(d) for d in ds.drivers[int(k)])
        # drivers are global candidate indices == local here (core 0 first)
        selected_global = set(cand[result.selected].tolist())
        assert selected_global <= set(range(12))  # stays in core 0's pool
        assert len(selected_global & drivers) >= 1

    def test_default_threshold_is_papers(self):
        assert DEFAULT_THRESHOLD == 1e-3

    def test_norms_length(self):
        ds = make_synthetic_dataset()
        result = select_sensors(ds.X, ds.F, budget=1.0)
        assert result.group_norms.shape == (ds.n_candidates,)
        assert result.n_selected == result.selected.shape[0]

    def test_selected_above_threshold(self):
        ds = make_synthetic_dataset()
        result = select_sensors(ds.X, ds.F, budget=1.0, threshold=1e-3)
        assert np.all(result.group_norms[result.selected] > 1e-3)
        unselected = np.setdiff1d(np.arange(ds.n_candidates), result.selected)
        assert np.all(result.group_norms[unselected] <= 1e-3)

    def test_budget_increases_selection(self):
        ds = make_synthetic_dataset()
        small = select_sensors(ds.X, ds.F, budget=0.5)
        large = select_sensors(ds.X, ds.F, budget=6.0)
        assert small.n_selected <= large.n_selected

    def test_tiny_budget_raises_informative(self):
        ds = make_synthetic_dataset()
        with pytest.raises(ValueError, match="increase lambda"):
            select_sensors(ds.X, ds.F, budget=1e-9)

    def test_gl_result_attached(self):
        ds = make_synthetic_dataset()
        result = select_sensors(ds.X, ds.F, budget=1.0)
        assert result.gl_result.budget == 1.0
        assert result.gl_result.coef.shape == (ds.n_blocks, ds.n_candidates)

    def test_rejects_bad_args(self):
        ds = make_synthetic_dataset()
        with pytest.raises(ValueError):
            select_sensors(ds.X, ds.F, budget=-1.0)
        with pytest.raises(ValueError):
            select_sensors(ds.X, ds.F, budget=1.0, threshold=0.0)
        with pytest.raises(ValueError):
            select_sensors(ds.X, ds.F[:-1], budget=1.0)


def _constant_core0(n_constant=None):
    """Synthetic data with core 0's first ``n_constant`` candidates (all
    of them by default) pinned to one voltage."""
    ds = make_synthetic_dataset()
    cand, _ = ds.core_view(0)
    ds.X[:, cand[:n_constant]] = 0.93
    return ds


class TestConstantCandidates:
    """Constant candidates carry no information and are never selected.

    Standardizing leaves a ~1e-16 centering residue in a constant
    column; a solver fitting to it once "selected" all of them.
    """

    def test_prepare_stats_zeroes_constant_columns(self):
        ds = _constant_core0(n_constant=5)
        cand, blocks = ds.core_view(0)
        z, _, stats = prepare_stats(ds.X[:, cand], ds.F[:, blocks])
        assert np.all(z[:, :5] == 0.0)
        assert np.all(stats.diag_S[:5] == 0.0)
        assert np.all(stats.diag_S[5:] > 0.0)

    def test_constant_candidates_never_selected(self):
        ds = _constant_core0(n_constant=5)
        model = fit_placement(ds, PipelineConfig(budget=1.0))
        cand, _ = ds.core_view(0)
        assert not np.isin(cand[:5], model.sensor_candidate_cols).any()
        placement = get_placer("group_lasso").place(ds, 2)
        assert not np.isin(cand[:5], placement.selected_cols).any()

    @pytest.mark.parametrize(
        "fit",
        [
            lambda ds: fit_placement(ds, PipelineConfig(budget=1.0)),
            lambda ds: fit_for_sensor_count(ds, 2.0),
            lambda ds: get_placer("group_lasso").place(ds, 2),
        ],
        ids=["fit_placement", "fit_for_sensor_count", "group_lasso_placer"],
    )
    def test_scope_without_varying_candidate_fails_loudly(self, fit):
        with pytest.raises(ValueError, match="core 0: none of the 12"):
            fit(_constant_core0())
