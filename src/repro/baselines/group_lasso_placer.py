"""The paper's group-lasso placement as a :class:`Placer`.

Per scope, bisect the monotone lambda -> sensor-count mapping (the
:func:`~repro.core.lambda_sweep.fit_for_sensor_count` bracketing
pattern) for the smallest lambda selecting at least ``budget``
sensors, then rank candidates by descending ``||beta_m||_2``.  The
top-``budget`` prefix is the placement, so the budget is met exactly
even when the count mapping jumps past it.

Each probe is one constrained solve plus the paper's threshold
(:func:`~repro.core.selection.threshold_selection`) on statistics
prepared once per scope (:func:`~repro.core.selection.prepare_stats`),
warm-started from the previous probe.  Per-scope diagnostics (final
lambda, above-threshold count, probe count) land in
``Placement.meta["scopes"]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.placer import Placer, register_placer
from repro.core.group_lasso import group_lasso_constrained
from repro.core.selection import (
    DEFAULT_THRESHOLD,
    SelectionResult,
    prepare_stats,
    threshold_selection,
)
from repro.utils.validation import check_positive

__all__ = ["GroupLassoPlacer"]

#: Lower end of the initial lambda bracket.
_BUDGET_LO = 1e-3
#: Upper end of the initial lambda bracket (grown x2.5 until reached).
_BUDGET_HI = 1.0
#: Bisection probes that selected something, per scope.
_MAX_PROBES = 14


@register_placer
class GroupLassoPlacer(Placer):
    """Constrained group-lasso selection behind the placer protocol."""

    name = "group_lasso"

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        check_positive(threshold, "threshold")
        self.threshold = threshold

    def _rank_scope(self, X, F, budget, n_rank, rng, ctx):
        try:
            stats = prepare_stats(X, F)[2]
        except ValueError as exc:
            where = (
                f"core {ctx.core_index}" if ctx.core_index >= 0
                else "global scope"
            )
            raise ValueError(f"{where}: {exc}") from None

        def solve(lam: float, warm) -> Optional[SelectionResult]:
            # Budgets too small to select anything raise ValueError;
            # report them as None so bracketing/bisection can react.
            gl = group_lasso_constrained(
                None, None, budget=lam, stats=stats, warm=warm
            )
            try:
                return threshold_selection(gl, lam, self.threshold)
            except ValueError:
                return None

        result, probes = self._bisect_count(solve, budget)
        ctx.meta["lambda"] = float(result.budget)
        ctx.meta["n_above_threshold"] = int(result.n_selected)
        ctx.meta["probes"] = int(probes)
        # Descending-norm ranking; zero-norm tail candidates break ties
        # by ascending index (stable sort) so spacing refill stays
        # deterministic.
        return np.argsort(-result.group_norms, kind="stable")[:n_rank]

    @staticmethod
    def _bisect_count(solve, budget: int):
        """Smallest lambda whose selection count reaches ``budget``.

        Brackets from above (growing the upper end x2.5 like
        ``fit_for_sensor_count``) then bisects geometrically; failed
        probes (nothing selected) raise the floor without consuming
        the probe budget.  Returns ``(result, n_probes)`` where
        ``result`` is the solve at the smallest lambda found with
        ``n_selected >= budget``.
        """
        lo, hi = _BUDGET_LO, _BUDGET_HI
        best = solve(hi, None)
        probes = 1
        for _ in range(12):
            if best is not None and best.n_selected >= budget:
                break
            hi *= 2.5
            warm = best.warm_state() if best is not None else None
            best = solve(hi, warm)
            probes += 1
        if best is None or best.n_selected < budget:
            got = 0 if best is None else best.n_selected
            raise ValueError(
                f"group lasso selects at most {got} sensors at lambdas "
                f"up to {hi:g}; cannot reach budget {budget}"
            )
        if best.n_selected == budget:
            return best, probes

        attempts = 0
        used = 0
        while used < _MAX_PROBES and attempts < 4 * _MAX_PROBES:
            attempts += 1
            mid = float(np.sqrt(lo * hi))
            result = solve(mid, best.warm_state())
            probes += 1
            if result is None:
                lo = mid
                continue
            used += 1
            if result.n_selected >= budget:
                hi = mid
                best = result
                if result.n_selected == budget:
                    break
            else:
                lo = mid
        return best, probes
