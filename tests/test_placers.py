"""Unified Placer protocol: regressions vs the legacy baselines.

Pins three contracts:

* **Bit-identity** — every legacy baseline re-homed behind
  :class:`~repro.baselines.placer.Placer` must select exactly the
  columns its ``fit_*`` / ``*_selection`` kernel selects, per-core and
  globally (the refactor moved code, not behaviour).
* **Tie-breaking** — ties now uniformly go to the *lowest* candidate
  index everywhere (stable sorts / first-argmax).  Before the
  unification, ``ols_magnitude`` broke ties toward the highest index
  (reversed argsort) and ``worst_noise`` / the eagle-eye fill branch
  used unstable quicksorts; these tests pin the documented policy on
  constructed exact-tie inputs.
* **Spacing** — ``min_spacing`` is enforced globally across scopes
  with refill from each scope's ranking, and an unreachable budget
  raises instead of silently under-placing.
"""

import numpy as np
import pytest

from repro.baselines import (
    EagleEyePlacer,
    Placement,
    PlacementConstraints,
    Placer,
    available_placers,
    fit_correlation_greedy,
    fit_eagle_eye,
    fit_ols_magnitude,
    fit_random,
    fit_worst_noise,
    get_placer,
    lasso_select_sensors,
    ols_magnitude_ranking,
    register_placer,
    worst_noise_ranking,
)
from tests.conftest import make_synthetic_dataset

THRESHOLD = 0.915

ALL_PLACERS = (
    "correlation",
    "eagle_eye",
    "frame_potential",
    "group_lasso",
    "ols_magnitude",
    "plain_lasso",
    "qr_pivot",
    "random",
    "robust",
    "worst_noise",
)


@pytest.fixture(scope="module")
def ds():
    return make_synthetic_dataset(seed=5)


def _constraints(per_core=True, **kw):
    kw.setdefault("emergency_threshold", THRESHOLD)
    return PlacementConstraints(per_core=per_core, **kw)


def test_registry_lists_all_placers():
    assert set(ALL_PLACERS) <= set(available_placers())


def test_get_placer_unknown_name():
    with pytest.raises(KeyError, match="unknown placer"):
        get_placer("does_not_exist")


def test_register_placer_rejects_name_collision():
    class Impostor(Placer):
        name = "worst_noise"

        def _rank_scope(self, X, F, budget, n_rank, rng, ctx):
            return np.arange(n_rank)

    with pytest.raises(ValueError, match="already registered"):
        register_placer(Impostor)


# ---------------------------------------------------------------------------
# Bit-identity with the legacy baselines.


@pytest.mark.parametrize("per_core", [True, False])
def test_worst_noise_matches_legacy(ds, per_core):
    got = get_placer("worst_noise").place(
        ds, 2, constraints=_constraints(per_core)
    )
    want = fit_worst_noise(ds, 2, per_core=per_core)
    np.testing.assert_array_equal(got.selected_cols, want)


@pytest.mark.parametrize("per_core", [True, False])
def test_ols_magnitude_matches_legacy(ds, per_core):
    got = get_placer("ols_magnitude").place(
        ds, 2, constraints=_constraints(per_core)
    )
    want = fit_ols_magnitude(ds, 2, per_core=per_core)
    np.testing.assert_array_equal(got.selected_cols, want)


@pytest.mark.parametrize("per_core", [True, False])
def test_correlation_matches_legacy(ds, per_core):
    got = get_placer("correlation").place(
        ds, 2, constraints=_constraints(per_core)
    )
    want = fit_correlation_greedy(ds, 2, per_core=per_core)
    np.testing.assert_array_equal(got.selected_cols, want)


@pytest.mark.parametrize("per_core", [True, False])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_matches_legacy(ds, per_core, seed):
    got = get_placer("random").place(
        ds, 2, constraints=_constraints(per_core, seed=seed)
    )
    want = fit_random(ds, 2, per_core=per_core, rng=seed)
    np.testing.assert_array_equal(got.selected_cols, want)


@pytest.mark.parametrize("per_core", [True, False])
def test_eagle_eye_matches_legacy(ds, per_core):
    got = EagleEyePlacer(threshold=THRESHOLD).place(
        ds, 2, constraints=_constraints(per_core)
    )
    want = fit_eagle_eye(ds, 2, THRESHOLD, per_core=per_core)
    np.testing.assert_array_equal(got.selected_cols, want.selected_cols)


def test_eagle_eye_threshold_from_constraints(ds):
    via_ctor = EagleEyePlacer(threshold=THRESHOLD).place(
        ds, 2, constraints=PlacementConstraints()
    )
    via_constraints = get_placer("eagle_eye").place(
        ds, 2, constraints=_constraints()
    )
    np.testing.assert_array_equal(
        via_ctor.selected_cols, via_constraints.selected_cols
    )


def test_eagle_eye_requires_some_threshold(ds):
    with pytest.raises(ValueError, match="threshold"):
        get_placer("eagle_eye").place(ds, 2, constraints=PlacementConstraints())


def test_plain_lasso_matches_legacy_at_exact_count(ds):
    mu = 1e-3
    survivors = lasso_select_sensors(ds.X, ds.F, mu)
    assert survivors.size >= 1
    got = get_placer("plain_lasso", mu=mu).place(
        ds, int(survivors.size), constraints=_constraints(per_core=False)
    )
    np.testing.assert_array_equal(got.selected_cols, survivors)


def test_group_lasso_count_mode_hits_budget(ds):
    placement = get_placer("group_lasso").place(ds, 2, constraints=_constraints())
    assert placement.n_sensors == 2 * len(
        [c for c in ds.core_ids if ds.core_view(c)[1].size]
    )
    for scope_meta in placement.meta["scopes"].values():
        assert scope_meta["n_above_threshold"] >= 2
        assert scope_meta["lambda"] > 0


# ---------------------------------------------------------------------------
# Unified tie-breaking (the latent inconsistencies the refactor fixed).


def test_worst_noise_ties_prefer_lower_index():
    X = np.array(
        [[0.9, 0.9, 0.95, 0.9], [1.0, 1.0, 1.0, 1.0]]
    )  # columns 0, 1, 3 tie on the minimum
    order = worst_noise_ranking(X)
    assert order[:3].tolist() == [0, 1, 3]


def test_ols_magnitude_ties_prefer_lower_index():
    # Identical duplicated columns produce exactly equal magnitudes;
    # the old reversed argsort picked the highest index first.
    rng = np.random.default_rng(0)
    base = rng.normal(0.9, 0.01, size=(40, 2))
    X = np.column_stack([base[:, 0], base[:, 0], base[:, 1], base[:, 1]])
    F = 0.5 * base + 0.45
    order = ols_magnitude_ranking(X, F)
    first_of_pair = {0: 0, 1: 0, 2: 2, 3: 2}
    seen = []
    for idx in order:
        pair_head = first_of_pair[int(idx)]
        if pair_head not in seen:
            assert idx == pair_head  # lower index of a tied pair comes first
            seen.append(pair_head)


def test_eagle_eye_fill_ties_prefer_lower_index():
    # No emergencies at all: the coverage greedy never fires and the
    # fill branch ranks by worst noise with stable ties.
    X = np.array(
        [[0.95, 0.95, 0.96], [0.97, 0.97, 0.97]]
    )
    emergency = np.zeros(2, dtype=bool)
    from repro.baselines import greedy_coverage_order

    order = greedy_coverage_order(X, emergency, 2, threshold=0.9)
    assert order.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Placement container and protocol-level validation.


def test_placement_is_sorted_and_sized(ds):
    placement = get_placer("worst_noise").place(ds, 3, constraints=_constraints())
    assert isinstance(placement, Placement)
    assert placement.n_sensors == placement.selected_cols.size
    assert np.all(np.diff(placement.selected_cols) > 0)
    assert placement.placer == "worst_noise"
    assert placement.budget == 3


def test_budget_above_pool_raises(ds):
    with pytest.raises(ValueError, match="cannot select"):
        get_placer("worst_noise").place(ds, 10**6, constraints=_constraints())


def test_budget_must_be_positive(ds):
    with pytest.raises(ValueError):
        get_placer("worst_noise").place(ds, 0, constraints=_constraints())


def test_placement_to_model_predicts(ds):
    placement = get_placer("correlation").place(ds, 2, constraints=_constraints())
    model = placement.to_model(ds)
    pred = model.predict(ds.X)
    assert pred.shape == ds.F.shape
    np.testing.assert_array_equal(
        np.sort(model.sensor_candidate_cols), placement.selected_cols
    )


# ---------------------------------------------------------------------------
# Spacing: global enforcement with ranking refill.


def _line_positions(n):
    return np.column_stack([np.arange(n, dtype=float), np.zeros(n)])


def test_spacing_requires_positions(ds):
    with pytest.raises(ValueError, match="positions"):
        get_placer("worst_noise").place(
            ds, 2, constraints=_constraints(min_spacing=1.0)
        )


def test_spacing_is_enforced_with_refill(ds):
    positions = _line_positions(ds.n_candidates)
    constraints = _constraints(
        per_core=False, min_spacing=2.5, positions=positions
    )
    placement = get_placer("worst_noise").place(ds, 4, constraints=constraints)
    assert placement.n_sensors == 4
    picked = positions[placement.selected_cols]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(picked[i] - picked[j]) >= 2.5


def test_spacing_unreachable_budget_raises(ds):
    positions = _line_positions(ds.n_candidates)
    constraints = _constraints(
        per_core=False,
        min_spacing=float(ds.n_candidates),  # at most one sensor fits
        positions=positions,
    )
    with pytest.raises(ValueError, match="min_spacing"):
        get_placer("worst_noise").place(ds, 2, constraints=constraints)


def test_spacing_shorthand_equals_constraints(ds):
    positions = _line_positions(ds.n_candidates)
    base = _constraints(per_core=False, positions=positions)
    via_kwarg = get_placer("worst_noise").place(
        ds, 3, spacing=2.0, constraints=base
    )
    via_constraints = get_placer("worst_noise").place(
        ds, 3, constraints=_constraints(
            per_core=False, min_spacing=2.0, positions=positions
        )
    )
    np.testing.assert_array_equal(
        via_kwarg.selected_cols, via_constraints.selected_cols
    )


def test_capability_flags():
    assert get_placer("random").uses_rng
    assert not get_placer("worst_noise").uses_rng


class TestGroupLassoWarmStart:
    """Warm starts stay inside one place call: nothing carries over."""

    def test_default_placer_is_stateless(self, ds):
        cold = get_placer("group_lasso")
        a = cold.place(ds, 2, constraints=_constraints())
        b = cold.place(ds, 2, constraints=_constraints())
        np.testing.assert_array_equal(a.selected_cols, b.selected_cols)
        assert (
            [s["probes"] for s in a.meta["scopes"].values()]
            == [s["probes"] for s in b.meta["scopes"].values()]
        )
