"""Placement-algorithm tournament across the scenario suite.

Races every registered :class:`~repro.baselines.placer.Placer` under
identical conditions and scores each placement on the three scenario
axes the library already simulates:

* **benchmarks** — nominal held-out evaluation maps: aggregated
  relative error plus the paper's ME/WAE/TE detection rates, overall
  and per benchmark;
* **variation** — re-simulated evaluation workloads on varied grid
  instances (:mod:`repro.powergrid.variation`: resistance spread +
  open branches), each instance simulated *once* and shared by every
  placer;
* **faults** — every (fault mode, placed sensor) pair injected through
  :mod:`repro.monitor.faults` into a
  :class:`~repro.monitor.fleet.FleetMonitor` stream, recording the
  detected fraction and the *degraded-mode error*: the error of the
  model actually served after failover, measured on clean evaluation
  data (worst case over sensors = the cost of losing your worst
  sensor).

Placers are ranked by ``overall_error`` — the mean of the nominal and
per-variation-instance relative errors (degraded-mode error is
reported but not ranked on, so robustness/accuracy trade-offs stay
visible).  The result serializes to a ``repro.bench/v1`` document
(mode ``"tournament"``; see :mod:`repro.obs.benchjson`) and renders as
a markdown leaderboard.  The committed ``results/leaderboard.json`` /
``results/leaderboard.md`` were produced by::

    python -m repro.experiments.tournament \
        --out results/leaderboard.json --markdown results/leaderboard.md

``--quick`` races the same placers on a tiny chip in seconds (the CI
smoke); the command exits nonzero when a placer failed to place.
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.placer import (
    Placement,
    PlacementConstraints,
    Placer,
    get_placer,
)
from repro.core.pipeline import PlacementModel, placement_model_from_cols
from repro.experiments.config import (
    ChipConfig,
    DataConfig,
    ExperimentSetup,
    FAST_SETUP,
)
from repro.experiments.data_generation import GeneratedData, generate_dataset
from repro.monitor.faults import DropoutFault, FaultPolicy, SensorFault, StuckAtFault
from repro.monitor.fleet import FleetMonitor
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.obs.benchjson import emit_bench
from repro.powergrid.transient import TransientSolver
from repro.powergrid.variation import with_open_branches, with_resistance_variation
from repro.voltage.dataset import VoltageDataset
from repro.voltage.emergencies import any_emergency
from repro.voltage.metrics import detection_error_rates, mean_relative_error
from repro.workload.activity import generate_activity
from repro.workload.benchmarks import get_benchmark
from repro.workload.current_map import CurrentMapper
from repro.utils.rng import seed_for
from repro.utils.tables import format_table
from repro.utils.validation import check_integer, check_non_negative

__all__ = [
    "DEFAULT_PLACERS",
    "TournamentConfig",
    "VariationInstance",
    "TournamentEntry",
    "TournamentResult",
    "simulate_variation_instances",
    "run_tournament",
    "render_leaderboard_markdown",
    "QUICK_SETUP",
    "main",
]

#: Default field: the paper's group lasso, the modern competitors, and
#: every legacy baseline including the random floor.
DEFAULT_PLACERS = (
    "group_lasso",
    "qr_pivot",
    "frame_potential",
    "robust",
    "correlation",
    "eagle_eye",
    "ols_magnitude",
    "plain_lasso",
    "worst_noise",
    "random",
)


@dataclass(frozen=True)
class TournamentConfig:
    """Scenario grid and placement settings of one tournament.

    Attributes
    ----------
    placers:
        Registry names to race (constructed with defaults unless an
        instance override is passed to :func:`run_tournament`).
    budget:
        Sensors per scope for every placer.
    per_core:
        Per-core scopes (paper behaviour) or one global scope.
    n_variation:
        Varied-grid die instances to simulate (0 disables the axis).
    resistance_sigma, open_fraction:
        Variation magnitudes per instance.
    variation_steps:
        Recorded steps per instance simulation.
    fault_modes:
        Fault injectors exercised per placed sensor (``dropout`` /
        ``stuck``).
    fault_start, fault_cycles:
        Onset cycle and stream length of each fault trial.
    seed:
        Seed for stochastic placers (threaded via the constraints).
    variation_refit:
        For placers advertising ``supports_warm_start``, re-place on
        every variation instance with a warm-started twin of the placer
        (seeded by the nominal placement) and record the reuse in
        ``entry.meta["variation_refit"]`` plus the
        ``tournament.warm_start_hits`` counter.  Diagnostics only — the
        leaderboard document is unchanged.
    """

    placers: Tuple[str, ...] = DEFAULT_PLACERS
    budget: int = 2
    per_core: bool = True
    n_variation: int = 3
    resistance_sigma: float = 0.1
    open_fraction: float = 0.02
    variation_steps: int = 200
    fault_modes: Tuple[str, ...] = ("dropout", "stuck")
    fault_start: int = 16
    fault_cycles: int = 160
    seed: int = 0
    variation_refit: bool = True

    def __post_init__(self) -> None:
        if not self.placers:
            raise ValueError("placers must be non-empty")
        check_integer(self.budget, "budget", minimum=1)
        check_integer(self.n_variation, "n_variation", minimum=0)
        check_integer(self.variation_steps, "variation_steps", minimum=1)
        check_integer(self.fault_cycles, "fault_cycles", minimum=1)
        check_integer(self.fault_start, "fault_start", minimum=0)
        check_non_negative(self.resistance_sigma, "resistance_sigma")
        check_non_negative(self.open_fraction, "open_fraction")
        if self.fault_start >= self.fault_cycles:
            raise ValueError("fault_start must be < fault_cycles")


@dataclass
class VariationInstance:
    """One varied die: the workload re-simulated on a perturbed grid."""

    index: int
    benchmark: str
    X: np.ndarray
    F: np.ndarray


@dataclass
class TournamentEntry:
    """One placer's scores across the scenario grid."""

    placer: str
    n_sensors: int
    selected_cols: np.ndarray
    place_s: float
    nominal: Dict[str, float]
    per_benchmark: Dict[str, Dict[str, float]]
    variation_errors: List[float]
    variation_total_rates: List[float]
    faults: Dict[str, Dict[str, float]]
    overall_error: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def worst_degraded_error(self) -> float:
        """Worst degraded-mode error over all fault modes (nan if none)."""
        if not self.faults:
            return float("nan")
        return max(m["worst_degraded_error"] for m in self.faults.values())

    @property
    def detected_fraction(self) -> float:
        """Fraction of injected faults detected, over all modes."""
        if not self.faults:
            return float("nan")
        return float(
            np.mean([m["detected_fraction"] for m in self.faults.values()])
        )


@dataclass
class TournamentResult:
    """Ranked tournament outcome (entries sorted best first)."""

    entries: List[TournamentEntry]
    config: TournamentConfig
    threshold: float
    benchmarks: List[str]
    variation_benchmarks: List[str]
    problems: List[str]
    profile: str = ""

    def entry(self, placer: str) -> TournamentEntry:
        """The entry of ``placer`` (KeyError if it failed/absent)."""
        for e in self.entries:
            if e.placer == placer:
                return e
        raise KeyError(f"no tournament entry for placer {placer!r}")

    def leaderboard(self) -> Dict[str, Any]:
        """The ``repro.bench/v1`` leaderboard document (mode tournament)."""
        entries = []
        for rank, e in enumerate(self.entries, start=1):
            entries.append(
                {
                    "rank": rank,
                    "placer": e.placer,
                    "n_sensors": int(e.n_sensors),
                    "selected_cols": [int(c) for c in e.selected_cols],
                    "place_s": round(float(e.place_s), 6),
                    "nominal": {k: _json_float(v) for k, v in e.nominal.items()},
                    "per_benchmark": {
                        bm: {k: _json_float(v) for k, v in row.items()}
                        for bm, row in e.per_benchmark.items()
                    },
                    "variation": {
                        "errors": [_json_float(v) for v in e.variation_errors],
                        "total_rates": [
                            _json_float(v) for v in e.variation_total_rates
                        ],
                        "mean_error": _json_float(
                            float(np.mean(e.variation_errors))
                            if e.variation_errors
                            else float("nan")
                        ),
                        "worst_error": _json_float(
                            max(e.variation_errors)
                            if e.variation_errors
                            else float("nan")
                        ),
                    },
                    "faults": {
                        mode: {k: _json_float(v) for k, v in row.items()}
                        for mode, row in e.faults.items()
                    },
                    "worst_degraded_error": _json_float(e.worst_degraded_error),
                    "detected_fraction": _json_float(e.detected_fraction),
                    "overall_error": _json_float(e.overall_error),
                }
            )
        return {
            "mode": "tournament",
            "profile": self.profile,
            "budget": int(self.config.budget),
            "per_core": bool(self.config.per_core),
            "emergency_threshold": _json_float(self.threshold),
            "placers": list(self.config.placers),
            "scenarios": {
                "benchmarks": list(self.benchmarks),
                "n_variation": len(self.variation_benchmarks),
                "variation_benchmarks": list(self.variation_benchmarks),
                "resistance_sigma": self.config.resistance_sigma,
                "open_fraction": self.config.open_fraction,
                "fault_modes": list(self.config.fault_modes),
            },
            "entries": entries,
            "problems": list(self.problems),
        }

    def render(self) -> str:
        """ASCII leaderboard table for terminal output."""
        rows = []
        for rank, e in enumerate(self.entries, start=1):
            rows.append(
                [
                    str(rank),
                    e.placer,
                    str(e.n_sensors),
                    f"{100 * e.nominal['relative_error']:.4f}",
                    _fmt_rate(e.nominal["total"]),
                    (
                        f"{100 * float(np.mean(e.variation_errors)):.4f}"
                        if e.variation_errors
                        else "n/a"
                    ),
                    _fmt_pct(e.worst_degraded_error),
                    _fmt_rate(e.detected_fraction),
                    f"{100 * e.overall_error:.4f}",
                ]
            )
        table = format_table(
            headers=[
                "#", "placer", "sensors", "nominal %", "TE",
                "var mean %", "degraded %", "detected", "overall %",
            ],
            rows=rows,
            title=(
                f"Placement tournament — budget {self.config.budget}"
                + (" per core" if self.config.per_core else " global")
                + f", {len(self.benchmarks)} benchmarks, "
                f"{len(self.variation_benchmarks)} variation instances, "
                f"{len(self.config.fault_modes)} fault modes"
            ),
        )
        if self.problems:
            table += "\nproblems:\n" + "\n".join(
                f"  - {p}" for p in self.problems
            )
        return table


def _json_float(value: float) -> Optional[float]:
    """Finite float, or ``None`` for nan/inf (valid strict JSON)."""
    value = float(value)
    return value if np.isfinite(value) else None


def _fmt_rate(value: float) -> str:
    return "n/a" if not np.isfinite(value) else f"{value:.4f}"


def _fmt_pct(value: float) -> str:
    return "n/a" if not np.isfinite(value) else f"{100 * value:.4f}"


def simulate_variation_instances(
    data: GeneratedData, config: TournamentConfig
) -> List[VariationInstance]:
    """Simulate the varied-die instances once, for all placers to share.

    Instance ``i`` perturbs the nominal grid with
    :func:`with_resistance_variation` (+ optional
    :func:`with_open_branches`) under seeds derived from the instance
    index, then re-runs one benchmark workload (cycling through the
    training suite) on the varied grid — the
    :func:`~repro.experiments.robustness.run_robustness_study` recipe.
    """
    chip = data.chip
    names = data.train.benchmark_names
    instances: List[VariationInstance] = []
    for inst in range(config.n_variation):
        benchmark = names[inst % len(names)]
        grid = with_resistance_variation(
            chip.grid, config.resistance_sigma,
            rng=seed_for(f"tournament-rvar-{inst}"),
        )
        if config.open_fraction > 0:
            grid = with_open_branches(
                grid, config.open_fraction,
                rng=seed_for(f"tournament-open-{inst}"),
            )
        solver = TransientSolver(grid, chip.config.timestep)
        mapper = CurrentMapper(
            chip.floorplan, chip.classification, grid.n_nodes, vdd=grid.vdd
        )
        traces = generate_activity(
            chip.floorplan,
            get_benchmark(benchmark),
            n_steps=config.variation_steps + 50,
            rng=seed_for(f"tournament-act-{inst}-{benchmark}"),
        )
        mapper.bind(chip.power_model.block_power(traces))
        result = solver.simulate(
            mapper, n_steps=config.variation_steps, warmup_steps=50
        )
        instances.append(
            VariationInstance(
                index=inst,
                benchmark=benchmark,
                X=result.voltages[:, data.train.candidate_nodes],
                F=result.voltages[:, data.train.critical_nodes],
            )
        )
    return instances


def _fault_for_mode(
    mode: str, channel: int, start: int, policy: FaultPolicy
) -> SensorFault:
    """The tournament's representative injector of ``mode``."""
    if mode == "dropout":
        return DropoutFault(channel=channel, start=start)
    if mode == "stuck":
        # In-band stuck-at: only the frozen screen can catch it.
        return StuckAtFault(
            channel=channel, start=start,
            value=0.5 * (policy.v_lo + policy.v_hi),
        )
    raise ValueError(
        f"unknown tournament fault mode {mode!r} (use 'dropout'/'stuck')"
    )


def _detection_row(
    truth: np.ndarray, alarm: np.ndarray
) -> Dict[str, float]:
    """ME/WAE/TE of ``alarm`` against ``truth`` (nan-safe)."""
    rates = detection_error_rates(truth, alarm)
    return {
        "miss": rates.miss,
        "wrong_alarm": rates.wrong_alarm,
        "total": rates.total,
    }


def _score_faults(
    model: PlacementModel,
    ev: VoltageDataset,
    config: TournamentConfig,
) -> Dict[str, Dict[str, float]]:
    """Degraded-mode scores per fault mode.

    For every (mode, placed sensor): replay the evaluation sensor
    stream with that sensor faulted through a
    :class:`~repro.monitor.fleet.FleetMonitor` with online screens,
    then measure the error of the model the fleet actually serves
    afterwards — on *clean* evaluation data, so the number isolates the
    cost of running on the leave-one-out fallback.
    """
    cols = model.sensor_candidate_cols
    readings = ev.X[:, cols]
    if readings.shape[0] < config.fault_cycles:
        reps = int(np.ceil(config.fault_cycles / readings.shape[0]))
        readings = np.tile(readings, (reps, 1))
    readings = readings[: config.fault_cycles]
    lo, hi = float(readings.min()), float(readings.max())
    margin = 0.05 * max(hi - lo, 1e-3)
    policy = FaultPolicy(
        v_lo=lo - margin, v_hi=hi + margin, frozen_window=8, frozen_eps=0.0
    )

    out: Dict[str, Dict[str, float]] = {}
    for mode in config.fault_modes:
        degraded: List[float] = []
        detected = 0
        for q in range(cols.size):
            fault = _fault_for_mode(mode, q, config.fault_start, policy)
            stream = fault.apply(readings)
            fleet = FleetMonitor(
                model, threshold=1e-6, n_streams=1, policy=policy
            )
            fleet.run_batch(stream[np.newaxis])
            fleet.finish()
            if fleet.failures[0]:
                detected += 1
            served = fleet.model_for(0)
            degraded.append(
                mean_relative_error(served.predict(ev.X), ev.F)
            )
        out[mode] = {
            "worst_degraded_error": max(degraded),
            "mean_degraded_error": float(np.mean(degraded)),
            "detected_fraction": detected / cols.size,
        }
    return out


def _instance_dataset(
    train: VoltageDataset, inst: VariationInstance
) -> VoltageDataset:
    """A variation instance wrapped as a placeable dataset.

    The varied die keeps the nominal grid's node/block layout — only
    the simulated voltages differ — so the training dataset's metadata
    carries over verbatim and a placer can re-place on the instance's
    ``X``/``F``.
    """
    n = inst.X.shape[0]
    return VoltageDataset(
        X=inst.X,
        F=inst.F,
        candidate_nodes=train.candidate_nodes,
        candidate_cores=train.candidate_cores,
        critical_nodes=train.critical_nodes,
        block_names=train.block_names,
        block_cores=train.block_cores,
        benchmark_of_sample=np.zeros(n, dtype=np.int64),
        benchmark_names=[inst.benchmark],
        vdd=train.vdd,
    )


def _refit_variations(
    placer: Placer,
    train: VoltageDataset,
    constraints: PlacementConstraints,
    variations: List[VariationInstance],
    config: TournamentConfig,
) -> Optional[Dict[str, Any]]:
    """Warm-started re-placements across the shared variation instances.

    For a placer advertising ``supports_warm_start``, builds a twin
    with the warm cache enabled, seeds it with a nominal place on the
    training data, then re-places on every variation instance — each
    refit's bisection starts from the previous placement's final
    ``(lambda, warm_state)`` per scope.  Returns a diagnostics dict
    (also counted into ``tournament.warm_start_hits``), or ``None``
    when the placer cannot warm-start / refits are disabled.  Never
    affects the scored entry or the leaderboard document.
    """
    if not config.variation_refit or not variations:
        return None
    if not getattr(type(placer), "supports_warm_start", False):
        return None
    try:
        warm_placer = get_placer(placer.name, warm_start=True)
    except TypeError:
        return None
    nominal = warm_placer.place(train, config.budget, constraints=constraints)

    hits = 0
    probes = 0
    scopes_total = 0
    stability: List[float] = []
    for inst in variations:
        inst_data = _instance_dataset(train, inst)
        placement = warm_placer.place(
            inst_data, config.budget, constraints=constraints
        )
        for scope in placement.meta.get("scopes", {}).values():
            scopes_total += 1
            probes += int(scope.get("probes", 0))
            if scope.get("warm_start"):
                hits += 1
        stability.append(
            float(
                np.intersect1d(
                    placement.selected_cols, nominal.selected_cols
                ).size
            )
            / max(1, placement.selected_cols.size)
        )
    registry = get_registry()
    if registry.enabled and hits:
        registry.counter("tournament.warm_start_hits").inc(hits)
    if registry.enabled:
        registry.counter("tournament.variation_refits").inc(len(variations))
    return {
        "instances": len(variations),
        "scopes": scopes_total,
        "warm_start_hits": hits,
        "probes": probes,
        "placement_overlap": stability,
    }


def _evaluate_placer(
    placer: Placer,
    data: GeneratedData,
    constraints: PlacementConstraints,
    variations: List[VariationInstance],
    config: TournamentConfig,
) -> TournamentEntry:
    """Place, fit the readout, and score one placer on every scenario."""
    train, ev = data.train, data.eval
    threshold = data.chip.config.emergency_threshold

    t0 = _time.perf_counter()
    placement: Placement = placer.place(
        train, config.budget, constraints=constraints
    )
    place_s = _time.perf_counter() - t0
    model = placement_model_from_cols(
        train, placement.selected_cols, per_core=config.per_core
    )

    pred = model.predict(ev.X)
    truth = any_emergency(ev.F, threshold)
    alarm = np.any(pred < threshold, axis=1)
    nominal = {"relative_error": mean_relative_error(pred, ev.F)}
    nominal.update(_detection_row(truth, alarm))

    per_benchmark: Dict[str, Dict[str, float]] = {}
    for bm in ev.benchmark_names:
        sub = ev.subset_benchmark(bm)
        pred_b = model.predict(sub.X)
        row = {"relative_error": mean_relative_error(pred_b, sub.F)}
        row.update(
            _detection_row(
                any_emergency(sub.F, threshold),
                np.any(pred_b < threshold, axis=1),
            )
        )
        per_benchmark[bm] = row

    variation_errors: List[float] = []
    variation_te: List[float] = []
    for inst in variations:
        pred_v = model.predict(inst.X)
        variation_errors.append(mean_relative_error(pred_v, inst.F))
        truth_v = any_emergency(inst.F, threshold)
        variation_te.append(
            detection_error_rates(
                truth_v, np.any(pred_v < threshold, axis=1)
            ).total
            if truth_v.any()
            else float("nan")
        )

    faults = _score_faults(model, ev, config) if config.fault_modes else {}

    entry_meta = dict(placement.meta)
    refit = _refit_variations(placer, train, constraints, variations, config)
    if refit is not None:
        entry_meta["variation_refit"] = refit

    overall = float(np.mean([nominal["relative_error"]] + variation_errors))
    return TournamentEntry(
        placer=placer.name,
        n_sensors=placement.n_sensors,
        selected_cols=placement.selected_cols,
        place_s=place_s,
        nominal=nominal,
        per_benchmark=per_benchmark,
        variation_errors=variation_errors,
        variation_total_rates=variation_te,
        faults=faults,
        overall_error=overall,
        meta=entry_meta,
    )


def run_tournament(
    data: GeneratedData,
    config: Optional[TournamentConfig] = None,
    placers: Optional[Mapping[str, Placer]] = None,
) -> TournamentResult:
    """Race every configured placer across the scenario grid.

    Parameters
    ----------
    data:
        Generated chip + train/eval datasets; placements fit on
        ``data.train``, scores come from ``data.eval`` and the derived
        variation/fault scenarios.
    config:
        Scenario grid settings (defaults to :class:`TournamentConfig`).
    placers:
        Optional ``name -> instance`` overrides; names not present are
        constructed from the registry with default parameters.

    Returns
    -------
    TournamentResult
        Entries ranked by ``overall_error`` ascending (ties by name).
        A placer that raises is reported in ``problems`` and excluded
        from the ranking instead of failing the tournament.
    """
    if config is None:
        config = TournamentConfig()
    constraints = PlacementConstraints(
        per_core=config.per_core,
        emergency_threshold=data.chip.config.emergency_threshold,
        seed=config.seed,
    )
    variations = simulate_variation_instances(data, config)

    entries: List[TournamentEntry] = []
    problems: List[str] = []
    for name in config.placers:
        try:
            placer = (
                placers[name]
                if placers is not None and name in placers
                else get_placer(name)
            )
            entries.append(
                _evaluate_placer(placer, data, constraints, variations, config)
            )
        except Exception as exc:  # noqa: BLE001 — one bad placer must not kill the race
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            registry = get_registry()
            if registry.enabled:
                registry.counter("tournament.placer_failures").inc()

    entries.sort(
        key=lambda e: (
            e.overall_error if np.isfinite(e.overall_error) else np.inf,
            e.placer,
        )
    )
    return TournamentResult(
        entries=entries,
        config=config,
        threshold=data.chip.config.emergency_threshold,
        benchmarks=list(data.eval.benchmark_names),
        variation_benchmarks=[v.benchmark for v in variations],
        problems=problems,
        profile=data.setup.name if data.setup is not None else "",
    )


def render_leaderboard_markdown(result: TournamentResult) -> str:
    """The committed markdown leaderboard (``results/leaderboard.md``)."""
    cfg = result.config
    lines = [
        "# Placement tournament leaderboard",
        "",
        f"Profile `{result.profile or 'custom'}` — budget {cfg.budget} "
        + ("per core" if cfg.per_core else "global")
        + f", emergency threshold {result.threshold:.4f} V.",
        f"Scenarios: {len(result.benchmarks)} benchmarks "
        f"({', '.join(result.benchmarks)}), "
        f"{len(result.variation_benchmarks)} variation instances "
        f"(R sigma {cfg.resistance_sigma:g}, "
        f"{100 * cfg.open_fraction:g}% opens), "
        f"fault modes: {', '.join(cfg.fault_modes)}.",
        "",
        "Ranked by overall relative error (mean of nominal + variation"
        " instances). Degraded = worst post-failover error over every"
        " (fault mode, sensor) pair, measured on clean evaluation data.",
        "",
        "| # | placer | sensors | nominal err % | ME | WAE | TE "
        "| var mean % | var worst % | degraded worst % | detected "
        "| overall % |",
        "|---|--------|---------|---------------|----|-----|----"
        "|------------|-------------|------------------|----------"
        "|-----------|",
    ]
    for rank, e in enumerate(result.entries, start=1):
        var_mean = (
            f"{100 * float(np.mean(e.variation_errors)):.4f}"
            if e.variation_errors
            else "n/a"
        )
        var_worst = (
            f"{100 * max(e.variation_errors):.4f}"
            if e.variation_errors
            else "n/a"
        )
        lines.append(
            f"| {rank} | {e.placer} | {e.n_sensors} "
            f"| {100 * e.nominal['relative_error']:.4f} "
            f"| {_fmt_rate(e.nominal['miss'])} "
            f"| {_fmt_rate(e.nominal['wrong_alarm'])} "
            f"| {_fmt_rate(e.nominal['total'])} "
            f"| {var_mean} | {var_worst} "
            f"| {_fmt_pct(e.worst_degraded_error)} "
            f"| {_fmt_rate(e.detected_fraction)} "
            f"| {100 * e.overall_error:.4f} |"
        )
    if result.problems:
        lines += ["", "Excluded placers:", ""]
        lines += [f"- `{p}`" for p in result.problems]
    lines.append("")
    return "\n".join(lines)


#: ``--quick`` setup: a tiny two-core chip and short workloads, so the
#: whole race (every placer x scenario) runs in seconds while still
#: exercising every placer end to end.
QUICK_SETUP = ExperimentSetup(
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    train=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=160, warmup_steps=30,
        n_samples=300, seed=21,
    ),
    eval=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=120, warmup_steps=30,
        n_samples=220, seed=22,
    ),
    name="tournament-quick",
)


def main(argv: Optional[List[str]] = None) -> int:
    """Race every default placer and write the leaderboard documents.

    The full run uses the ``fast`` experiment profile and the default
    scenario grid; ``--quick`` shrinks the chip, workloads and grid.
    Returns 1 when a placer failed (its entry is in ``problems``).
    """
    parser = argparse.ArgumentParser(
        description="Race every registered sensor placer across "
        "benchmarks, variation instances and fault scenarios."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny chip and scenario grid (seconds; CI smoke)",
    )
    parser.add_argument(
        "--out", default=None, metavar="leaderboard.json",
        help="write the repro.bench/v1 leaderboard to this path",
    )
    parser.add_argument(
        "--markdown", default=None, metavar="leaderboard.md",
        help="also write the markdown leaderboard to this path",
    )
    args = parser.parse_args(argv)

    setup = QUICK_SETUP if args.quick else FAST_SETUP
    config = (
        TournamentConfig(n_variation=2, variation_steps=120)
        if args.quick
        else TournamentConfig()
    )
    t0 = _time.perf_counter()
    data = generate_dataset(setup)
    datagen_s = _time.perf_counter() - t0
    with use_registry(MetricsRegistry()) as registry:
        t0 = _time.perf_counter()
        result = run_tournament(data, config)
        tournament_s = _time.perf_counter() - t0
        counters = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(("placer.", "tournament."))
        }

    report = result.leaderboard()
    report.update(
        datagen_s=datagen_s, tournament_s=tournament_s, counters=counters
    )
    print(result.render())
    print(f"datagen: {datagen_s:.2f}s  tournament: {tournament_s:.2f}s")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(render_leaderboard_markdown(result))
        print(f"markdown leaderboard written to {args.markdown}")
    return emit_bench(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
