"""Sensor selection from group-lasso coefficients (paper Steps 3-5).

Normalizes the data, runs the constrained group lasso at the chosen
``lambda``, and thresholds the column norms ``||beta_m||_2`` against T
(the paper uses T = 1e-3) to obtain the selected sensor index set S.

For λ paths (sweeps, bisections) the expensive part of each solve is
the Gram computation; :func:`prepare_stats` builds the standardized
problem and its :class:`~repro.core.group_lasso.SufficientStats` once
so solves at different budgets never recompute it (see
:mod:`repro.core.path_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.group_lasso import (
    GroupLassoResult,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
)
from repro.core.normalization import Standardizer
from repro.utils.validation import check_matrix, check_positive

__all__ = [
    "SelectionResult",
    "select_sensors",
    "prepare_stats",
    "threshold_selection",
    "DEFAULT_THRESHOLD",
]

#: The paper's selection threshold T.
DEFAULT_THRESHOLD = 1e-3


@dataclass
class SelectionResult:
    """Outcome of group-lasso sensor selection.

    Attributes
    ----------
    selected:
        Sorted indices of the selected sensors (into the candidate
        columns of X) — the paper's set S.
    group_norms:
        ``(M,)`` column norms ``||beta_m||_2`` of the GL solution (the
        quantity plotted in the paper's Fig. 1).
    budget:
        The lambda used.
    threshold:
        The T used.
    gl_result:
        The underlying group-lasso solution (coefficients are *biased*
        by the constraint — use them for selection only, never for
        prediction; see paper Section 2.3).  ``None`` for selections
        that did not come from a group-lasso solve (placements imported
        through
        :func:`~repro.core.pipeline.placement_model_from_cols`), in
        which case ``group_norms`` is a 0/1 membership indicator.
    """

    selected: np.ndarray
    group_norms: np.ndarray
    budget: float
    threshold: float
    gl_result: Optional[GroupLassoResult]

    @property
    def n_selected(self) -> int:
        """Q — number of selected sensors."""
        return self.selected.shape[0]

    def warm_state(self) -> WarmState:
        """Warm-start seed for a constrained solve at a nearby budget."""
        if self.gl_result is None:
            raise RuntimeError(
                "selection has no group-lasso solution to warm-start from"
            )
        return WarmState(
            coef=self.gl_result.coef, penalty=self.gl_result.penalty
        )


def prepare_stats(
    X: np.ndarray, F: np.ndarray, lazy: bool = False
) -> Tuple[np.ndarray, np.ndarray, SufficientStats]:
    """Standardize ``(X, F)`` and build the solver sufficient statistics.

    Returns ``(z, g, stats)``: the standardized matrices plus their
    :class:`~repro.core.group_lasso.SufficientStats`.  Solving on these
    statistics makes every solve of a λ path reuse one Gram
    computation.  The statistics already hold the OLS slack-check
    solution, so the constrained solver runs on them alone
    (``Z = G = None``).

    Constant candidate columns (:attr:`Standardizer.constant_columns`)
    are zeroed in ``z``: centering leaves them a ~1e-16 rounding
    residue the solver could otherwise fit to, so they can never be
    selected.

    With ``lazy=True`` the statistics skip the dense ``M×M`` Gram
    (``S = ZᵀZ``) and retain ``z`` instead; they are only usable with
    strong-rule screening (``screen=``), which assembles small Gram
    slices on demand.

    Raises
    ------
    ValueError
        If no candidate column varies: nothing could be selected.
    """
    X = check_matrix(X, "X")
    F = check_matrix(F, "F", n_rows=X.shape[0])
    standardizer = Standardizer()
    z = standardizer.fit_transform(X)
    constant = standardizer.constant_columns
    if constant.all():
        raise ValueError(
            f"none of the {X.shape[1]} candidates varies over the "
            f"{X.shape[0]} samples; nothing can be selected"
        )
    z[:, constant] = 0.0
    g = Standardizer().fit_transform(F)
    stats = SufficientStats.from_arrays(z, g, lazy=lazy)
    stats.ols(z, g)
    return z, g, stats


def threshold_selection(
    gl: GroupLassoResult, budget: float, threshold: float
) -> SelectionResult:
    """Paper Step 5: threshold ``||beta_m||_2`` against T.

    Raises
    ------
    ValueError
        If no sensor survives the threshold — the budget is too small
        to be useful; increase lambda.
    """
    norms = gl.group_norms()
    selected = np.nonzero(norms > threshold)[0]
    if selected.size == 0:
        raise ValueError(
            f"no sensors selected at lambda={budget} with T={threshold}; "
            f"max ||beta_m|| = {norms.max():.3g} — increase lambda"
        )
    return SelectionResult(
        selected=selected,
        group_norms=norms,
        budget=budget,
        threshold=threshold,
        gl_result=gl,
    )


def select_sensors(
    X: np.ndarray,
    F: np.ndarray,
    budget: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> SelectionResult:
    """Run paper Steps 3-5: normalize, solve GL, threshold ``||beta_m||``.

    Parameters
    ----------
    X:
        ``(N, M)`` raw candidate-sensor voltages.
    F:
        ``(N, K)`` raw critical-node voltages.
    budget:
        The paper's hyper-parameter lambda: total group-norm budget.
        Small values select few sensors.
    threshold:
        The paper's T; candidates with ``||beta_m||_2 > T`` are
        selected.

    Returns
    -------
    SelectionResult

    Raises
    ------
    ValueError
        If no sensor survives the threshold — the budget is too small
        to be useful; increase lambda — or no candidate varies.
    """
    check_positive(budget, "budget")
    check_positive(threshold, "threshold")
    stats = prepare_stats(X, F)[2]
    gl = group_lasso_constrained(None, None, budget=budget, stats=stats)
    return threshold_selection(gl, budget, threshold)
