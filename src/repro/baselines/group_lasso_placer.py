"""The paper's group-lasso placement as a :class:`Placer`.

Two modes:

* **count mode** (default, ``lambda_=None``): per scope, bisect the
  monotone lambda -> sensor-count mapping (the
  :func:`~repro.core.lambda_sweep.fit_for_sensor_count` bracketing
  pattern) for the smallest lambda selecting at least ``budget``
  sensors, then rank candidates by descending ``||beta_m||_2``.  The
  top-``budget`` prefix is the placement, so the budget is met exactly
  even when the count mapping jumps past it.
* **lambda mode** (``lambda_=lam``): a single constrained solve at
  ``lam`` per scope, matching
  :func:`~repro.core.selection.select_sensors` — with
  ``budget = |selection|`` the placement is identical to the legacy
  path (selected norms exceed the threshold, unselected ones do not,
  so the top-budget prefix is exactly the selected set).

All probes within a scope share one Gram
(:func:`~repro.core.selection.prepare_stats`) and warm-start each
other; ``screen=True`` runs every solve through strong-rule candidate
screening.  Per-scope diagnostics (final lambda, above-threshold
count, probe count, warm-start reuse) land in
``Placement.meta["scopes"]``.

With ``warm_start=True`` the placer additionally remembers, per scope,
the final ``(lambda, warm_state)`` of each :meth:`place` call and
seeds the *next* call's bisection with it — when placing repeatedly on
nearly identical data (the tournament's shared variation instances,
refits after small grid perturbations), the cached lambda usually
lands on the budget immediately and the whole bracketing/bisection
collapses to one warm solve.  The cache is off by default because it
makes ``place`` stateful across calls (probe counts — not placements —
depend on call history).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.baselines.placer import Placer, register_placer
from repro.core.selection import (
    DEFAULT_THRESHOLD,
    SelectionResult,
    prepare_stats,
    select_sensors,
)
from repro.utils.validation import check_integer, check_positive

__all__ = ["GroupLassoPlacer"]


@register_placer
class GroupLassoPlacer(Placer):
    """Constrained group-lasso selection behind the placer protocol."""

    name = "group_lasso"
    supports_warm_start = True

    def __init__(
        self,
        lambda_: Optional[float] = None,
        threshold: float = DEFAULT_THRESHOLD,
        rtol: float = 1e-2,
        method: str = "fista",
        screen: bool = False,
        budget_lo: float = 1e-3,
        budget_hi: Optional[float] = None,
        max_probes: int = 14,
        warm_start: bool = False,
    ) -> None:
        if lambda_ is not None:
            check_positive(lambda_, "lambda_")
        check_positive(threshold, "threshold")
        check_positive(budget_lo, "budget_lo")
        if budget_hi is not None:
            check_positive(budget_hi, "budget_hi")
        check_integer(max_probes, "max_probes", minimum=1)
        self.lambda_ = lambda_
        self.threshold = threshold
        self.rtol = rtol
        self.method = method
        self.screen = bool(screen)
        self.budget_lo = budget_lo
        self.budget_hi = budget_hi
        self.max_probes = max_probes
        self.warm_start = bool(warm_start)
        # scope key -> (final lambda, warm state) of the last place call
        self._warm_cache: Dict[Any, Tuple[float, Any]] = {}

    def _rank_scope(self, X, F, budget, n_rank, rng, ctx):
        stats = prepare_stats(X, F, lazy=self.screen)[2]
        scope_key = int(ctx.core_index)
        cached = self._warm_cache.get(scope_key) if self.warm_start else None

        def solve(lam: float, warm) -> Optional[SelectionResult]:
            # Budgets too small to select anything raise ValueError;
            # report them as None so bracketing/bisection can react.
            try:
                return select_sensors(
                    X,
                    F,
                    budget=lam,
                    threshold=self.threshold,
                    rtol=self.rtol,
                    method=self.method,
                    stats=stats,
                    warm=warm,
                    screen=(True if self.screen else None),
                )
            except ValueError:
                return None

        if self.lambda_ is not None:
            warm_used = cached is not None
            result = solve(self.lambda_, cached[1] if cached else None)
            if result is None or result.n_selected < budget:
                got = 0 if result is None else result.n_selected
                raise ValueError(
                    f"group lasso at lambda={self.lambda_:g} selects "
                    f"{got} sensors, fewer than the budget {budget}"
                )
            probes = 1
        else:
            result, probes, warm_used = self._bisect_count(
                solve, budget, cached
            )

        if self.warm_start:
            self._warm_cache[scope_key] = (
                float(result.budget), result.warm_state()
            )
        ctx.meta["lambda"] = float(result.budget)
        ctx.meta["n_above_threshold"] = int(result.n_selected)
        ctx.meta["probes"] = int(probes)
        ctx.meta["warm_start"] = bool(warm_used)
        # Descending-norm ranking; zero-norm tail candidates break ties
        # by ascending index (stable sort) so spacing refill stays
        # deterministic.
        return np.argsort(-result.group_norms, kind="stable")[:n_rank]

    def _bisect_count(self, solve, budget: int, cached=None):
        """Smallest lambda whose selection count reaches ``budget``.

        Brackets from above (growing ``budget_hi`` x2.5 like
        ``fit_for_sensor_count``) then bisects geometrically; failed
        probes (nothing selected) raise the floor without consuming
        the probe budget.  When ``cached`` — a ``(lambda, warm_state)``
        pair from a previous place on similar data — is given, it is
        probed first: landing on the budget exactly ends the search in
        one warm solve, overshooting it seeds the bisection ceiling,
        undershooting raises the floor.  Returns
        ``(result, n_probes, warm_used)`` where ``result`` is the solve
        at the smallest lambda found with ``n_selected >= budget``.
        """
        lo = self.budget_lo
        hi = self.budget_hi if self.budget_hi is not None else 1.0
        probes = 0
        warm_used = False
        best = None
        bracket_warm = None
        if cached is not None:
            lam0, warm0 = cached
            probe = solve(lam0, warm0)
            probes += 1
            if probe is not None:
                warm_used = True
                if probe.n_selected == budget:
                    return probe, probes, warm_used
                if probe.n_selected > budget:
                    hi = lam0
                    best = probe
                else:
                    lo = max(lo, lam0)
                    hi = max(hi, lam0 * 2.5)
                    bracket_warm = probe.warm_state()
        if best is None:
            best = solve(hi, bracket_warm)
            probes += 1
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
            return best, probes, warm_used

        attempts = 0
        used = 0
        while used < self.max_probes and attempts < 4 * self.max_probes:
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
        return best, probes, warm_used
