"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload runs the paper flow through the library's default public
entry points (``generate_dataset``, ``fit_for_sensor_count``,
``fit_placement``, ``fit_eagle_eye``, ``PlacementModel.predict/alarm``,
``detection_error_rates`` and ``FleetMonitor.run_batch``) with library
defaults; the sizes pick which layer does most of the work.

* ``paper_place`` — count-targeted placement at 1, 2 and 3 sensors per
  core on the paper chip, with Eagle-Eye and held-out scoring; the
  group-lasso solves dominate.
* ``simulate_monitor`` — fresh-seed map generation on the paper chip
  plus a 128-stream runtime replay; fitting happens only in set-up.

Fitting work and detection rates depend strongly on which maps a
training or evaluation set holds, so ``paper_place`` fits and scores on
the profile's own datasets (the paper operating point).  The workload
seed drives what varies from run to run without changing the amount of
work: the runtime streams' offsets and noise, and the fresh datasets
``simulate_monitor`` generates.  A second seed, derived from it, picks
the slices the output checks replay.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.eagle_eye import fit_eagle_eye
from repro.core.lambda_sweep import fit_for_sensor_count
from repro.core.ols import fit_ols
from repro.core.pipeline import PipelineConfig, PlacementModel, fit_placement
from repro.experiments.config import PAPER_SETUP, ExperimentSetup
from repro.experiments.data_generation import GeneratedData, generate_dataset
from repro.monitor.faults import FaultPolicy
from repro.monitor.fleet import FleetMonitor
from repro.sensors.model import SensorSpec
from repro.voltage.metrics import detection_error_rates, mean_relative_error

#: Read noise added to replayed streams (V): the default sensor design's
#: white measurement noise.
READ_NOISE_V = SensorSpec().noise_sigma

#: Cycles per ``run_batch`` call.  Served streams reach ``run_batch`` one
#: ring slot at a time, and 32 ticks is the serving tier's default slot
#: (``ShardedFleet(slot_ticks=32)``); both workloads replay at that grain.
INGEST_TICKS = 32

#: Each sweep placement's runtime replay: streams x cycles.
SWEEP_STREAMS, SWEEP_CYCLES = 64, 4000

#: The simulate_monitor fleet: streams x cycles.
FLEET_STREAMS, FLEET_CYCLES = 128, 10_000

#: Sampled streams whose flags are replayed through PlacementModel.alarm.
CHECK_STREAMS = 2

#: Largest |run_batch readout - independent OLS readout| accepted (V).
OLS_TOLERANCE_V = 1e-9


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return bool(ok)


class PassClock:
    """Wall time of one pass, minus the stretches spent making inputs."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._excluded = 0.0

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0 - self._excluded


def digest(cols: np.ndarray) -> str:
    """Short hash of a selected sensor set."""
    data = np.ascontiguousarray(np.asarray(cols, dtype=np.int64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Readout:
    """One placement replayed as noisy sensor streams through run_batch."""

    cycles: int = 0
    # Stream-cycles per second of each run_batch call.
    call_rates: List[float] = field(default_factory=list)
    failovers: int = 0
    # Sampled streams, every cycle, kept for the alarm cross-check.
    sample_readings: Optional[np.ndarray] = None  # (s, T, Q)
    sample_flags: Optional[np.ndarray] = None  # (s, T)
    sensor_cols: Optional[np.ndarray] = None


@dataclass
class Scored:
    """One placement of a pass, with its held-out scores."""

    target: Optional[float]
    model: PlacementModel
    digest: str
    fit_s: float
    te: float
    me: float
    wae: float
    rel_error: float
    predictions_finite: bool
    ee_te: float = float("nan")
    readout: Optional[Readout] = None


@dataclass
class PassResult:
    """What one timed pass produced."""

    placements: List[Scored] = field(default_factory=list)
    datagen_rows: int = 0
    datagen_s: float = 0.0
    readouts: List[Readout] = field(default_factory=list)
    # Fresh datasets a pass generated; checked and dropped after the pass.
    data: Optional[GeneratedData] = None


@dataclass
class State:
    """A workload after set-up."""

    data: GeneratedData
    datagen_rows: int
    datagen_s: float
    kernel_active: bool
    model: Optional[PlacementModel] = None
    digests: List[str] = field(default_factory=list)
    scored: Optional[Scored] = None


def _rows(data: GeneratedData) -> int:
    return data.train.n_samples + data.eval.n_samples


def _timed_generate(setup: ExperimentSetup):
    t0 = time.perf_counter()
    data = generate_dataset(setup, cache_dir=None)
    return data, time.perf_counter() - t0


def _threshold(data: GeneratedData) -> float:
    return data.chip.config.emergency_threshold


def _replay(
    model: PlacementModel,
    X: np.ndarray,
    threshold: float,
    n_streams: int,
    n_cycles: int,
    rng: np.random.Generator,
    sample_streams: np.ndarray,
    clock: PassClock,
) -> Readout:
    """Replay ``X`` rows as noisy sensor streams through ``run_batch``.

    Stream ``s`` reads row ``(offset_s + t) mod N`` at cycle ``t``, fed
    ``INGEST_TICKS`` cycles per call; the readings and flags of
    ``sample_streams`` are kept for the alarm cross-check.  Making the
    inputs and keeping the sample are left out of ``clock``.
    """
    fleet = FleetMonitor(model, threshold, n_streams=n_streams, policy=FaultPolicy())
    cols = fleet.sensor_cols
    sensors = np.ascontiguousarray(X[:, cols])
    offsets = rng.integers(0, sensors.shape[0], size=n_streams)
    out = Readout(
        sensor_cols=cols,
        sample_readings=np.empty((sample_streams.size, n_cycles, cols.size)),
        sample_flags=np.empty((sample_streams.size, n_cycles), dtype=bool),
    )
    for start in range(0, n_cycles, INGEST_TICKS):
        t0 = time.perf_counter()
        stop = min(start + INGEST_TICKS, n_cycles)
        rows = (offsets[:, None] + np.arange(start, stop)) % sensors.shape[0]
        streams = sensors[rows] + rng.normal(
            0.0, READ_NOISE_V, (n_streams, stop - start, cols.size)
        )
        clock.exclude(time.perf_counter() - t0)
        t1 = time.perf_counter()
        flags = fleet.run_batch(streams)
        t2 = time.perf_counter()
        out.call_rates.append(n_streams * (stop - start) / (t2 - t1))
        out.cycles += n_streams * (stop - start)
        out.sample_readings[:, start:stop] = streams[sample_streams]
        out.sample_flags[:, start:stop] = flags[sample_streams]
        clock.exclude(time.perf_counter() - t2)
    out.failovers = sum(len(f) for f in fleet.failures)
    return out


def _score(
    model: PlacementModel, data: GeneratedData, target: Optional[float], fit_s: float
) -> Scored:
    """Held-out ME/WAE/TE and relative voltage error of one placement."""
    thr = _threshold(data)
    truth = np.any(data.eval.F < thr, axis=1)
    pred = model.predict(data.eval.X)
    rates = detection_error_rates(truth, np.any(pred < thr, axis=1))
    return Scored(
        target=target,
        model=model,
        digest=digest(model.sensor_candidate_cols),
        fit_s=fit_s,
        te=rates.total,
        me=rates.miss,
        wae=rates.wrong_alarm,
        rel_error=mean_relative_error(pred, data.eval.F),
        predictions_finite=bool(np.isfinite(pred).all()),
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Base: the shared checks; subclasses define set-up and the pass."""

    name = ""
    profile: ExperimentSetup = PAPER_SETUP
    # A paper-chip set-up takes 6-9 s; two keep every workload's runs
    # within the benchmark's total time budget.
    n_setups = 2

    def __init__(self, seed: int) -> None:
        # Generators take non-negative entropy; any integer seed maps to one.
        self.seed = seed % 2**63
        self.check_seed = [self.seed, 1]
        self.check_rng = np.random.default_rng(self.check_seed)

    def setup(self) -> State:
        data, seconds = _timed_generate(self.profile)
        return State(
            data=data,
            datagen_rows=_rows(data),
            datagen_s=seconds,
            kernel_active=data.chip.solver.uses_kernel,
        )

    def run_pass(self, state: State, index: int, clock: PassClock) -> PassResult:
        raise NotImplementedError

    def count_miss(self, result: PassResult) -> float:
        """Sum over the sweep of |sensors placed - target per core x cores|."""
        return float(
            sum(
                abs(p.model.n_sensors - p.target * len(p.model.scopes))
                for p in result.placements
                if p.target is not None
            )
        )

    # -- checks (never timed) -------------------------------------------

    def check_dataset(self, data: GeneratedData, checks: Checks, label: str) -> None:
        # Pad inductance rings the grid above VDD (by up to ~13% on the
        # fast profile's chip), so maps are held to the supply band the runtime
        # fault screen accepts as plausible, not to (0, VDD].
        band = FaultPolicy()
        thr = _threshold(data)
        for part, ds in (("train", data.train), ("eval", data.eval)):
            for matrix_name, m in (("X", ds.X), ("F", ds.F)):
                checks.check(
                    bool(
                        np.isfinite(m).all()
                        and m.min() >= band.v_lo
                        and m.max() <= band.v_hi
                    ),
                    f"{label} {part}.{matrix_name} not finite or outside "
                    f"[{band.v_lo}, {band.v_hi}] V",
                )
            checks.check(
                bool(np.any(ds.F < thr)), f"{label} {part} holds no emergency"
            )
        checks.check(data.chip.solver.uses_kernel, f"{label}: compiled LU kernel inactive")

    def check_placement(
        self, p: Scored, data: GeneratedData, checks: Checks, label: str
    ) -> None:
        model = p.model
        checks.check(model.n_sensors > 0, f"{label}: empty placement")
        checks.check(p.predictions_finite, f"{label}: non-finite predictions")
        pred = model.predict(data.eval.X)
        worst = 0.0
        for scope in model.scopes:
            cols = scope.selected_cols
            ref = fit_ols(data.train.X[:, cols], data.train.F[:, scope.block_cols])
            ours = pred[:, scope.block_cols]
            worst = max(worst, float(np.max(np.abs(ours - ref.predict(data.eval.X[:, cols])))))
        checks.check(
            worst <= OLS_TOLERANCE_V,
            f"{label}: readout differs from independent OLS by {worst:.3g} V",
        )

    def check_readout(
        self, model: PlacementModel, r: Readout, threshold: float, checks: Checks, label: str
    ) -> None:
        checks.check(r.failovers == 0, f"{label}: {r.failovers} failovers on clean input")
        full = np.zeros((r.sample_readings.shape[1], model.n_inputs))
        for s in range(r.sample_readings.shape[0]):
            full[:, r.sensor_cols] = r.sample_readings[s]
            expected = model.alarm(full, threshold)
            checks.check(
                bool(np.array_equal(expected, r.sample_flags[s])),
                f"{label}: run_batch flags differ from PlacementModel.alarm",
            )

    def check_setup(self, state: State, checks: Checks) -> None:
        """Checks the set-up's outputs before the timed phase."""
        self.check_dataset(state.data, checks, "set-up data")

    def check_pass(self, state: State, index: int, result: PassResult, checks: Checks) -> None:
        """Checks one pass right after it ran, outside its timing."""

    def check(self, state: State, passes: List[PassResult], checks: Checks) -> None:
        """Checks across the set-up and every pass, after the timed phase."""
        raise NotImplementedError


class PaperPlace(Workload):
    """The paper's count sweep: fit, Eagle-Eye and score per target, then replay."""

    name = "paper_place"
    targets = (1.0, 2.0, 3.0)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._sample_streams = np.sort(
            self.check_rng.choice(SWEEP_STREAMS, CHECK_STREAMS, replace=False)
        )

    def run_pass(self, state: State, index: int, clock: PassClock) -> PassResult:
        data = state.data
        thr = _threshold(data)
        rng = np.random.default_rng([self.seed, index])
        truth = np.any(data.eval.F < thr, axis=1)
        result = PassResult()
        for q in self.targets:
            t0 = time.perf_counter()
            model = fit_for_sensor_count(data.train, q)
            scored = _score(model, data, q, time.perf_counter() - t0)
            eagle = fit_eagle_eye(data.train, int(q), thr)
            scored.ee_te = detection_error_rates(truth, eagle.alarm(data.eval.X)).total
            scored.readout = _replay(
                model, data.eval.X, thr, SWEEP_STREAMS, SWEEP_CYCLES,
                rng, self._sample_streams, clock,
            )
            result.readouts.append(scored.readout)
            result.placements.append(scored)
        return result

    def check(self, state: State, passes: List[PassResult], checks: Checks) -> None:
        # Refitting a target to check that its selected set repeats costs
        # 7-24 s here, more than the run time budget allows; traced runs
        # run the pass twice, and the comparison below covers it there.
        data = state.data
        thr = _threshold(data)
        first = passes[0]
        for p in first.placements:
            label = f"q={p.target:g}"
            self.check_placement(p, data, checks, label)
            self.check_readout(p.model, p.readout, thr, checks, label)
        key = [(p.digest, p.te, p.me, p.wae, p.rel_error) for p in first.placements]
        for other in passes[1:]:
            checks.check(
                [(p.digest, p.te, p.me, p.wae, p.rel_error) for p in other.placements] == key,
                "selected sets or scores changed between passes",
            )


class SimulateMonitor(Workload):
    name = "simulate_monitor"
    profile = PAPER_SETUP
    budget = 1.0

    def setup(self) -> State:
        state = super().setup()
        state.model = fit_placement(state.data.train, PipelineConfig(budget=self.budget))
        state.digests.append(digest(state.model.sensor_candidate_cols))
        return state

    def run_pass(self, state: State, index: int, clock: PassClock) -> PassResult:
        rng = np.random.default_rng([self.seed, index])
        train_seed, eval_seed = (int(s) for s in rng.integers(1, 2**31 - 1, size=2))
        setup = replace(
            self.profile,
            train=replace(self.profile.train, seed=train_seed),
            eval=replace(self.profile.eval, seed=eval_seed),
        )
        data, seconds = _timed_generate(setup)
        result = PassResult(datagen_rows=_rows(data), datagen_s=seconds, data=data)
        sample_streams = np.sort(
            self.check_rng.choice(FLEET_STREAMS, CHECK_STREAMS, replace=False)
        )
        result.readouts.append(
            _replay(
                state.model, data.eval.X, _threshold(data), FLEET_STREAMS,
                FLEET_CYCLES, rng, sample_streams, clock,
            )
        )
        return result

    def check_pass(self, state: State, index: int, result: PassResult, checks: Checks) -> None:
        fresh, result.data = result.data, None
        self.check_dataset(fresh, checks, f"pass {index} data")
        self.check_readout(
            state.model, result.readouts[0], _threshold(fresh), checks, f"pass {index}"
        )

    def check_setup(self, state: State, checks: Checks) -> None:
        # Score the placement now and drop the set-up datasets, so they
        # are not held while the passes generate fresh ones.
        super().check_setup(state, checks)
        state.scored = _score(state.model, state.data, None, 0.0)
        self.check_placement(state.scored, state.data, checks, "budget placement")
        state.data = None

    def check(self, state: State, passes: List[PassResult], checks: Checks) -> None:
        checks.check(
            len(set(state.digests)) == 1, "selected set changed between set-ups"
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (PaperPlace, SimulateMonitor)
}
