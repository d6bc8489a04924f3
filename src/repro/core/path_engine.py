"""Shared-Gram, warm-started λ-path engine.

The λ sweep is the paper's central workflow (Table 1): refit the
placement at many budgets and trade sensor count against accuracy.
Done naively, every constrained solve inside the sweep re-standardizes
its scope, recomputes the Gram statistics ``S = ZᵀZ`` and ``A = ZᵀG``
(an O(N·M²) cost repeated up to ~160× per scope per budget by the
path-following and bisection loops), and starts from zero coefficients.

:class:`LambdaPathEngine` removes all three costs:

* **Sufficient-statistics cache** — each fitting scope (one core, or
  the global pool) is standardized once and its
  :class:`~repro.core.group_lasso.SufficientStats` built once; every
  solve at every budget reuses them (``path.gram_reuse`` counts the
  reuses).
* **Cross-budget warm starts** — budgets are solved in ascending
  order; each constrained solve is seeded with the previous budget's
  coefficients and dual penalty, so the bracketing path starts one or
  two solves from the answer (``sweep.warm_start_hits`` counts the
  seeds used).
* **Opt-in parallelism** — with ``n_jobs > 1`` on the config,
  independent scopes run on a thread pool (`concurrent.futures`); BLAS
  releases the GIL, so the matmul-heavy solves overlap without copying
  the dataset.  In :meth:`fit_path`, each worker owns one scope's
  *entire* budget path, so scope-level parallelism and warm starts
  compose instead of competing.

:func:`~repro.core.pipeline.fit_placement` is one :meth:`fit` on a
fresh engine.  Warm starts change only the iteration count, not the
selected sets: a warm-started path selects the same sensors as
per-budget ``fit_placement`` calls.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsRegistry, get_registry, span, thread_registry
from repro.core.group_lasso import (
    StrongRuleScreener,
    SufficientStats,
    WarmState,
    group_lasso_constrained,
)
from repro.core.pipeline import (
    PipelineConfig,
    PlacementModel,
    ScopeModel,
    _scope_specs,
)
from repro.core.predictor import VoltagePredictor
from repro.core.selection import (
    SelectionResult,
    prepare_stats,
    threshold_selection,
)
from repro.voltage.dataset import VoltageDataset

__all__ = ["LambdaPathEngine"]


@dataclass
class _ScopeState:
    """Cached per-scope statistics plus the rolling warm state.

    Dense state holds no per-sample array (the statistics are M×M and
    M×K; lazy ones keep the standardized candidates screening needs):
    the readout slices the dataset when it runs, so a many-scope engine
    costs little more memory than one scope's fit.
    """

    core_index: int
    candidate_cols: np.ndarray
    block_cols: np.ndarray
    stats: SufficientStats
    warm: Optional[WarmState] = None
    screener: Optional[StrongRuleScreener] = None


class LambdaPathEngine:
    """Reusable fitting engine for λ paths over one training dataset.

    Parameters
    ----------
    dataset:
        Training data; scope caches are built from it once.
    base_config:
        Pipeline template; its ``budget`` is overridden per fit.
        Defaults to per-core fitting with the paper's T.  Its
        ``n_jobs`` sets the worker threads for independent scopes.
        With ``screen=True``, each scope keeps *lazy* sufficient
        statistics — the dense ``M×M`` Gram is never built — plus one
        :class:`~repro.core.group_lasso.StrongRuleScreener` whose
        sequential state (the previous solve's dual residuals) rides
        along the budget path exactly like the warm starts.  Every
        screened solve is KKT-safeguarded, so selected sets match the
        unscreened engine.

    Notes
    -----
    The engine is cheap to construct (one standardization + one Gram
    per scope) and amortizes those costs over every subsequent
    :meth:`fit` / :meth:`fit_path` / :meth:`select` call — budget
    bisections in :func:`~repro.core.lambda_sweep.fit_for_sensor_count`
    (probing with :meth:`select`) and sweeps in
    :func:`~repro.core.lambda_sweep.sweep_lambda` both ride on it.
    """

    def __init__(
        self,
        dataset: VoltageDataset,
        base_config: Optional[PipelineConfig] = None,
    ) -> None:
        if base_config is None:
            base_config = PipelineConfig(budget=1.0)
        self.dataset = dataset
        self.base_config = base_config
        self.n_jobs = base_config.n_jobs
        self.screen = base_config.screen
        with span("path.prepare", n_jobs=self.n_jobs):
            self._scopes = [
                self._prepare_scope(core, cand, blocks)
                for core, cand, blocks in _scope_specs(dataset, base_config)
            ]

    def _prepare_scope(
        self,
        core_index: int,
        candidate_cols: np.ndarray,
        block_cols: np.ndarray,
    ) -> _ScopeState:
        stats = prepare_stats(
            self.dataset.X[:, candidate_cols],
            self.dataset.F[:, block_cols],
            lazy=self.screen,
        )[2]
        return _ScopeState(
            core_index=core_index,
            candidate_cols=candidate_cols,
            block_cols=block_cols,
            stats=stats,
            screener=StrongRuleScreener(stats) if self.screen else None,
        )

    @property
    def n_scopes(self) -> int:
        """Number of independent fitting scopes the engine caches."""
        return len(self._scopes)

    def _map_threaded(self, fn, items):
        """``pool.map(fn, items)`` with per-thread registry isolation.

        Each task records spans/metrics into a private child registry
        (installed via :func:`repro.obs.thread_registry`), and the
        children are merged back into the caller's registry in ``items``
        order once the pool drains — worker threads never contend on
        the shared registry lock, and merged results are deterministic
        regardless of thread scheduling.
        """
        parent = get_registry()
        workers = min(self.n_jobs, len(items))
        if not parent.enabled:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        children = [MetricsRegistry() for _ in items]

        def run(task):
            index, item = task
            with thread_registry(children[index]):
                return fn(item)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(run, enumerate(items)))
        for child in children:
            parent.merge_registry(child)
        return out

    def _each_scope(self, fn) -> list:
        """``fn`` over every scope, on the thread pool when ``n_jobs > 1``."""
        if self.n_jobs > 1 and len(self._scopes) > 1:
            return self._map_threaded(fn, self._scopes)
        return [fn(state) for state in self._scopes]

    def _select_scope(
        self, state: _ScopeState, budget: float
    ) -> SelectionResult:
        """One constrained solve + threshold, cache-backed."""
        cfg = self.base_config
        with span(
            "fit.scope",
            core=state.core_index,
            n_candidates=int(state.candidate_cols.size),
            n_blocks=int(state.block_cols.size),
        ) as sp:
            gl = group_lasso_constrained(
                None,
                None,
                budget=budget,
                rtol=cfg.rtol,
                solver_max_iter=cfg.solver_max_iter,
                solver_tol=cfg.solver_tol,
                method=cfg.method,
                stats=state.stats,
                warm=state.warm,
                probe_tol=cfg.probe_tol,
                screen=state.screener,
            )
            # Update the warm seed before thresholding: even a solve
            # whose selection comes up empty brackets the dual penalty
            # for the next budget.
            state.warm = WarmState(coef=gl.coef, penalty=gl.penalty)
            selection = threshold_selection(gl, budget, cfg.threshold)
            sp.set_attribute("n_selected", selection.n_selected)
        return selection

    def _readout(
        self, state: _ScopeState, selection: SelectionResult
    ) -> ScopeModel:
        """The OLS readout (Eq. (17)) on one scope's selected sensors."""
        predictor = VoltagePredictor.fit(
            self.dataset.X[:, state.candidate_cols],
            self.dataset.F[:, state.block_cols],
            selected=selection.selected,
            sensor_nodes=self.dataset.candidate_nodes[
                state.candidate_cols[selection.selected]
            ],
        )
        return ScopeModel(
            core_index=state.core_index,
            candidate_cols=state.candidate_cols,
            block_cols=state.block_cols,
            selection=selection,
            predictor=predictor,
        )

    def _fit_scope(self, state: _ScopeState, budget: float) -> ScopeModel:
        return self._readout(state, self._select_scope(state, budget))

    def _assemble(
        self, scopes: List[ScopeModel], budget: float
    ) -> PlacementModel:
        return PlacementModel(
            scopes=scopes,
            config=replace(self.base_config, budget=float(budget)),
            n_blocks=self.dataset.n_blocks,
        )

    def fit(self, budget: float) -> PlacementModel:
        """Fit the placement at one budget, reusing all cached state."""
        with span("path.fit", budget=float(budget)) as sp:
            scopes = self._each_scope(lambda st: self._fit_scope(st, budget))
            sp.set_attribute("n_sensors", sum(s.n_sensors for s in scopes))
        return self._assemble(scopes, budget)

    def select(self, budget: float) -> List[SelectionResult]:
        """Per-scope sensor selections at one budget, without readouts.

        The same solves (and warm-state updates) as :meth:`fit`, minus
        the OLS refit — what a search over budgets needs to read off
        sensor counts.  Pass the chosen budget's selections to
        :meth:`placement` for the model.  Raises ``ValueError`` when
        the budget is too small to select any sensor in some scope.
        """
        with span("path.fit", budget=float(budget)) as sp:
            selections = self._each_scope(
                lambda st: self._select_scope(st, budget)
            )
            sp.set_attribute(
                "n_sensors", sum(s.n_selected for s in selections)
            )
        return selections

    def placement(
        self, selections: Sequence[SelectionResult], budget: float
    ) -> PlacementModel:
        """The placement model for per-scope ``selections`` at ``budget``.

        Fits each scope's OLS readout; with the selections
        :meth:`select` returned for ``budget``, the result is
        bit-identical to :meth:`fit` at that budget.
        """
        if len(selections) != len(self._scopes):
            raise ValueError(
                f"expected {len(self._scopes)} scope selections, "
                f"got {len(selections)}"
            )
        scopes = [
            self._readout(state, selection)
            for state, selection in zip(self._scopes, selections)
        ]
        return self._assemble(scopes, budget)

    def fit_path(self, budgets: Sequence[float]) -> List[PlacementModel]:
        """Fit every budget of a λ path; returns models in input order.

        Budgets are *solved* in ascending order so each constrained
        solve warm-starts from its predecessor.  With ``n_jobs > 1``
        each worker thread owns one scope's whole path (warm starts
        stay sequential within a scope while scopes overlap); the
        models are then assembled per budget.

        Raises whatever the earliest (in ascending-budget order, then
        scope order) failing scope fit raised — typically ``ValueError``
        when a budget is too small to select any sensor.  Every other
        failure is attached to it as a note and all are counted in
        ``path.scope_failures``.
        """
        if not budgets:
            raise ValueError("budgets must be non-empty")
        order = sorted(range(len(budgets)), key=lambda i: float(budgets[i]))

        results: Dict[Tuple[int, int], ScopeModel] = {}
        failures: Dict[Tuple[int, int], Exception] = {}

        def run_scope_path(scope_idx: int) -> None:
            state = self._scopes[scope_idx]
            with span(
                "path.scope", core=state.core_index, n_budgets=len(budgets)
            ):
                for budget_idx in order:
                    try:
                        results[(scope_idx, budget_idx)] = self._fit_scope(
                            state, float(budgets[budget_idx])
                        )
                    except Exception as exc:  # surfaced below
                        failures[(budget_idx, scope_idx)] = exc

        with span(
            "path.fit_path", n_budgets=len(budgets), n_jobs=self.n_jobs
        ):
            if self.n_jobs > 1 and len(self._scopes) > 1:
                self._map_threaded(run_scope_path, list(range(len(self._scopes))))
            else:
                for scope_idx in range(len(self._scopes)):
                    run_scope_path(scope_idx)

        if failures:
            # Mirror sequential semantics: the smallest failing budget
            # is the error the caller sees; the rest ride along as notes.
            registry = get_registry()
            if registry.enabled:
                registry.counter("path.scope_failures").inc(len(failures))
            first, *rest = sorted(
                failures, key=lambda k: (float(budgets[k[0]]), k)
            )
            error = failures[first]
            for budget_idx, scope_idx in rest:
                other = failures[(budget_idx, scope_idx)]
                error.add_note(
                    f"also failed: core "
                    f"{self._scopes[scope_idx].core_index} at budget "
                    f"{float(budgets[budget_idx])!r}: "
                    f"{type(other).__name__}: {other}"
                )
            raise error

        models: List[Optional[PlacementModel]] = [None] * len(budgets)
        for budget_idx, budget in enumerate(budgets):
            scopes = [
                results[(scope_idx, budget_idx)]
                for scope_idx in range(len(self._scopes))
            ]
            models[budget_idx] = self._assemble(scopes, float(budget))
        return models  # type: ignore[return-value]
