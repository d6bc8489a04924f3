"""Unified sensor-placement protocol.

Every placement algorithm in the library — the paper's group lasso,
the six ad-hoc baselines, and the modern competitors (QR/DEIM
pivoting, frame-potential minimization, failure-robust greedy) — is a
:class:`Placer`: it ranks a scope's candidates by priority and the
base class turns rankings into a validated :class:`Placement` with one
shared policy for scope iteration, budget accounting, tie-breaking,
and minimum-spacing enforcement.

The contract (pinned by ``tests/test_placer_properties.py``):

* ``place(dataset, budget)`` returns exactly ``budget`` distinct,
  in-bounds candidate columns per fitting scope (per core in per-core
  mode, total in global mode), sorted ascending.
* **Tie-break policy**: candidates with equal scores are ordered by
  ascending candidate index (all rankings use stable sorts /
  first-winner argmax).  The legacy modules disagreed on this —
  ``ols_magnitude`` reversed an argsort (highest index won) and
  ``worst_noise`` used an unstable quicksort; both now route through
  stable rankings.
* **Spacing policy**: ``min_spacing`` is enforced *globally* across
  scopes in selection order — a candidate is kept iff it clears every
  sensor already placed anywhere on the chip (the
  :func:`~repro.core.spacing.enforce_min_spacing` greedy-keep rule).
  Rankings are extended over the full candidate pool so rejected
  candidates are refilled from the next-best ones; if the budget is
  unreachable under the spacing, ``place`` raises :class:`ValueError`
  instead of silently under-placing.  The legacy modules either
  ignored spacing or filtered post hoc without refilling.
* **Determinism**: given the same dataset, budget, and constraints
  (including ``seed``), ``place`` returns the same placement.
  Stochastic placers thread one generator sequentially through the
  scopes, matching the legacy ``fit_random`` stream.

Capability flags (``supports_warm_start``, ``uses_rng``) let drivers
such as the tournament pick solver features per placer.
Implementations register themselves in a process-global
registry (:func:`register_placer`) so test suites and tournaments can
enumerate every available algorithm (:func:`available_placers`).
"""

from __future__ import annotations

import abc
import time as _time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.obs import get_registry
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import check_integer, check_matrix, check_positive
from repro.voltage.dataset import VoltageDataset

__all__ = [
    "PlacementConstraints",
    "Placement",
    "ScopeContext",
    "Placer",
    "register_placer",
    "get_placer",
    "available_placers",
]


@dataclass(frozen=True, eq=False)
class PlacementConstraints:
    """Shared constraints a :class:`Placer` must honor.

    Attributes
    ----------
    per_core:
        Select ``budget`` sensors within each core's candidates
        (paper behaviour) or ``budget`` sensors globally.
    positions:
        ``(n_candidates, 2)`` positions (mm) indexed by dataset
        candidate column; required when ``min_spacing`` is set.
    min_spacing:
        Minimum pairwise distance (mm) between any two placed sensors,
        enforced across scope boundaries.
    emergency_threshold:
        Emergency threshold in volts for placers that need ground-truth
        emergency labels (Eagle-Eye).
    seed:
        Seed (or generator) for stochastic placers; deterministic
        placers ignore it.
    """

    per_core: bool = True
    positions: Optional[np.ndarray] = None
    min_spacing: Optional[float] = None
    emergency_threshold: Optional[float] = None
    seed: RngLike = 0

    def __post_init__(self) -> None:
        if self.min_spacing is not None:
            check_positive(self.min_spacing, "min_spacing")
        if self.positions is not None:
            object.__setattr__(
                self,
                "positions",
                check_matrix(self.positions, "positions", n_cols=2),
            )


@dataclass
class Placement:
    """The outcome of a :meth:`Placer.place` call.

    Attributes
    ----------
    selected_cols:
        Selected candidate columns in dataset X indexing, sorted.
    placer:
        Registry name of the algorithm that produced it.
    budget:
        Sensors requested per scope.
    per_core:
        Whether selection ran per core or globally.
    per_core_cols:
        Selected columns grouped per core; ``None`` for global fits.
    meta:
        Placer-specific diagnostics (``meta["scopes"][core_index]``
        holds per-scope entries, e.g. the robust placer's worst-case
        bound or the group-lasso placer's final lambda).
    """

    selected_cols: np.ndarray
    placer: str
    budget: int
    per_core: bool = True
    per_core_cols: Optional[Dict[int, np.ndarray]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.selected_cols = np.asarray(self.selected_cols, dtype=np.int64)

    @property
    def n_sensors(self) -> int:
        """Total sensors placed."""
        return int(self.selected_cols.shape[0])

    def to_model(self, dataset: VoltageDataset):
        """Fit the OLS readout for this placement on ``dataset``.

        Returns a :class:`~repro.core.pipeline.PlacementModel` (built
        via :func:`~repro.core.pipeline.placement_model_from_cols`)
        that predicts, alarms, serializes, and serves through
        :class:`~repro.monitor.fleet.FleetMonitor` — including the
        leave-one-sensor-out failover models — exactly like a
        group-lasso fit.
        """
        from repro.core.pipeline import placement_model_from_cols

        return placement_model_from_cols(
            dataset, self.selected_cols, per_core=self.per_core
        )


@dataclass
class ScopeContext:
    """Per-scope information handed to :meth:`Placer._rank_scope`.

    ``meta`` starts empty; anything an implementation stores there is
    surfaced as ``Placement.meta["scopes"][core_index]``.
    """

    core_index: int
    candidate_cols: np.ndarray
    block_cols: np.ndarray
    constraints: PlacementConstraints
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def spacing_active(self) -> bool:
        """Whether a min-spacing constraint is in force."""
        return self.constraints.min_spacing is not None


class Placer(abc.ABC):
    """Base class implementing the shared placement policy.

    Subclasses implement :meth:`_rank_scope` — return the scope's
    candidates in priority order (best first) — and the base turns
    rankings into placements: per-scope budget accounting, global
    min-spacing enforcement with refill, per-placer obs metrics, and
    assembly of the :class:`Placement`.

    Class attributes
    ----------------
    name:
        Registry name (``register_placer`` keys on it).
    supports_warm_start:
        Whether the underlying solver can reuse warm starts (only the
        group-lasso placer does).
    uses_rng:
        Whether the placer consumes ``constraints.seed``; deterministic
        placers receive ``rng=None``.
    """

    name: str = "abstract"
    supports_warm_start: bool = False
    uses_rng: bool = False

    @abc.abstractmethod
    def _rank_scope(
        self,
        X: np.ndarray,
        F: np.ndarray,
        budget: int,
        n_rank: int,
        rng: Optional[np.random.Generator],
        ctx: ScopeContext,
    ) -> np.ndarray:
        """Rank one scope's candidates by priority (best first).

        Parameters
        ----------
        X:
            ``(N, m)`` raw candidate voltages of this scope.
        F:
            ``(N, k)`` raw critical-node voltages of this scope.
        budget:
            Sensors that will be taken from the front of the ranking.
        n_rank:
            Minimum ranking length to return: ``budget`` normally, the
            full pool size when spacing is active (so rejected
            candidates can be refilled).  Returning more is fine.
        rng:
            The threaded generator (``None`` unless ``uses_rng``).
        ctx:
            Scope bookkeeping + constraints; implementations may store
            diagnostics in ``ctx.meta``.

        Returns
        -------
        np.ndarray
            Distinct local candidate indices (into X's columns), best
            first, of length >= ``n_rank``.
        """

    def place(
        self,
        dataset: VoltageDataset,
        budget: int,
        spacing: Optional[float] = None,
        constraints: Optional[PlacementConstraints] = None,
    ) -> Placement:
        """Place ``budget`` sensors per scope on ``dataset``.

        Parameters
        ----------
        dataset:
            Training data (candidate voltages X, critical voltages F).
        budget:
            Sensors per core (per-core mode) or total (global mode).
        spacing:
            Shorthand for ``constraints.min_spacing``; requires
            candidate ``positions`` on the constraints.
        constraints:
            Placement constraints; defaults to per-core, no spacing,
            seed 0.

        Raises
        ------
        ValueError
            If a scope has fewer candidates than ``budget``, or the
            spacing constraint leaves the budget unreachable.
        """
        check_integer(budget, "budget", minimum=1)
        if constraints is None:
            constraints = PlacementConstraints()
        if spacing is not None:
            constraints = replace(constraints, min_spacing=float(spacing))

        registry = get_registry()
        t0 = _time.perf_counter() if registry.enabled else 0.0

        min_spacing = constraints.min_spacing
        positions = None
        if min_spacing is not None:
            if constraints.positions is None:
                raise ValueError(
                    "min_spacing requires candidate positions on the "
                    "constraints (one (x, y) row per dataset candidate "
                    "column)"
                )
            positions = check_matrix(
                constraints.positions,
                "positions",
                n_rows=dataset.n_candidates,
                n_cols=2,
            )

        rng = make_rng(constraints.seed) if self.uses_rng else None
        scopes = self._scopes(dataset, constraints)

        kept_pos: List[np.ndarray] = []
        min_sq = float(min_spacing) ** 2 if min_spacing is not None else 0.0
        per_core_cols: Optional[Dict[int, np.ndarray]] = (
            {} if constraints.per_core else None
        )
        all_cols: List[np.ndarray] = []
        scope_meta: Dict[int, Dict[str, Any]] = {}
        rejected = 0

        for core, candidate_cols, block_cols in scopes:
            pool = int(candidate_cols.size)
            where = f" in core {core}" if core >= 0 else ""
            if pool < budget:
                raise ValueError(
                    f"cannot select {budget} sensors from {pool} "
                    f"candidates{where}"
                )
            ctx = ScopeContext(
                core_index=core,
                candidate_cols=candidate_cols,
                block_cols=block_cols,
                constraints=constraints,
            )
            n_rank = budget if min_spacing is None else pool
            order = np.asarray(
                self._rank_scope(
                    dataset.X[:, candidate_cols],
                    dataset.F[:, block_cols],
                    budget,
                    n_rank,
                    rng,
                    ctx,
                ),
                dtype=np.int64,
            )
            self._check_ranking(order, pool, n_rank, where)

            if min_spacing is None:
                taken = order[:budget]
            else:
                kept: List[int] = []
                for local in order:
                    pos = positions[candidate_cols[local]]
                    ok = all(
                        float(np.sum((pos - other) ** 2)) >= min_sq
                        for other in kept_pos
                    )
                    if not ok:
                        rejected += 1
                        continue
                    kept.append(int(local))
                    kept_pos.append(pos)
                    if len(kept) == budget:
                        break
                if len(kept) < budget:
                    raise ValueError(
                        f"placer {self.name!r}: min_spacing="
                        f"{min_spacing:g} leaves only {len(kept)} of "
                        f"{budget} sensors placeable{where}"
                    )
                taken = np.asarray(kept, dtype=np.int64)

            cols = np.sort(candidate_cols[taken])
            if per_core_cols is not None:
                per_core_cols[core] = cols
            all_cols.append(cols)
            if ctx.meta:
                scope_meta[core] = ctx.meta

        selected = np.sort(np.concatenate(all_cols))
        meta: Dict[str, Any] = {}
        if scope_meta:
            meta["scopes"] = scope_meta

        if registry.enabled:
            registry.timer(f"placer.{self.name}.place").record(
                _time.perf_counter() - t0
            )
            registry.counter(f"placer.{self.name}.placements").inc()
            registry.counter(f"placer.{self.name}.sensors").inc(
                int(selected.size)
            )
            if rejected:
                registry.counter(
                    f"placer.{self.name}.spacing_rejections"
                ).inc(rejected)

        return Placement(
            selected_cols=selected,
            placer=self.name,
            budget=int(budget),
            per_core=constraints.per_core,
            per_core_cols=per_core_cols,
            meta=meta,
        )

    @staticmethod
    def _scopes(
        dataset: VoltageDataset, constraints: PlacementConstraints
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """``(core_index, candidate_cols, block_cols)`` per fit scope.

        Matches the legacy ``fit_*`` iteration exactly: per-core mode
        visits ``dataset.core_ids`` in order, skips cores without
        blocks, and errors on cores with blocks but no candidates; the
        global scope is ``core_index = -1`` over everything.
        """
        if not constraints.per_core:
            return [
                (
                    -1,
                    np.arange(dataset.n_candidates, dtype=np.int64),
                    np.arange(dataset.n_blocks, dtype=np.int64),
                )
            ]
        specs: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for core in dataset.core_ids:
            candidate_cols, block_cols = dataset.core_view(core)
            if block_cols.size == 0:
                continue
            if candidate_cols.size == 0:
                raise ValueError(f"core {core} has no sensor candidates")
            specs.append((int(core), candidate_cols, block_cols))
        if not specs:
            raise ValueError("dataset has no cores with blocks")
        return specs

    def _check_ranking(
        self, order: np.ndarray, pool: int, n_rank: int, where: str
    ) -> None:
        """Validate a scope ranking: 1-D, in-bounds, distinct, long enough."""
        if order.ndim != 1:
            raise ValueError(
                f"placer {self.name!r} returned a non-1-D ranking{where}"
            )
        if order.size < min(n_rank, pool):
            raise ValueError(
                f"placer {self.name!r} ranked only {order.size} of "
                f"{min(n_rank, pool)} required candidates{where}"
            )
        if order.size and (order.min() < 0 or order.max() >= pool):
            raise ValueError(
                f"placer {self.name!r} ranked an out-of-range "
                f"candidate{where}"
            )
        if np.unique(order).size != order.size:
            raise ValueError(
                f"placer {self.name!r} ranked a candidate twice{where}"
            )


#: Process-global registry of placement algorithms, keyed by name.
_PLACERS: Dict[str, Type[Placer]] = {}


def register_placer(cls: Type[Placer]) -> Type[Placer]:
    """Class decorator: register a :class:`Placer` under ``cls.name``.

    Re-registering the same class is a no-op; registering a *different*
    class under an existing name raises (names are the tournament's and
    test suite's identity).
    """
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"placer class {cls.__name__} must set a name")
    existing = _PLACERS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"placer name {name!r} already registered by "
            f"{existing.__name__}"
        )
    _PLACERS[name] = cls
    return cls


def get_placer(name: str, **kwargs: Any) -> Placer:
    """Instantiate the registered placer ``name`` with ``kwargs``."""
    try:
        cls = _PLACERS[name]
    except KeyError:
        raise KeyError(
            f"unknown placer {name!r}; available: "
            f"{', '.join(available_placers())}"
        ) from None
    return cls(**kwargs)


def available_placers() -> Tuple[str, ...]:
    """Names of all registered placers, sorted."""
    return tuple(sorted(_PLACERS))
