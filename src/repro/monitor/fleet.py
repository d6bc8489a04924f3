"""Fault-tolerant batched serving core: the fleet monitor.

This module is the runtime half of the methodology at production
scale: one fitted :class:`~repro.core.pipeline.PlacementModel` serves
``S`` independent sensor streams (many chips, or many benchmark
replays) at once.  Per cycle the fleet does **one** ``(S, Q) @ (Q, K)``
matmul instead of S small predicts, keeps per-stream debounce/episode
state in flat arrays, and — when given a
:class:`~repro.monitor.faults.FaultPolicy` — screens every sensor
reading online and fails over to leave-one-sensor-out fallback models
so a dead sensor degrades accuracy instead of poisoning every block
prediction.

Two serving paths share one numeric profile:

* :meth:`FleetMonitor.step` — cycle-at-a-time, ``(S, Q)`` readings.
* :meth:`FleetMonitor.run_batch` — a whole ``(S, T, Q)`` tensor with
  no Python loop over cycles or healthy streams: cache-blocked flat
  matmuls fused with the min/argmin readout, and one replay of the
  debounce/episode state machine across all streams.

Bit-identity between the paths (and with a fleet of 1, which is what
:class:`~repro.monitor.runtime.VoltageMonitor` wraps) is guaranteed by
routing every prediction through :func:`_stable_rows`; see its
docstring for the BLAS dispatch subtlety it neutralizes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import SNAPSHOT_SCHEMA, Timer, TimerSummary, get_registry
from repro.core.pipeline import PlacementModel
from repro.monitor.faults import (
    SCREEN_FROZEN,
    SCREEN_NAN,
    SCREEN_RANGE,
    FaultPolicy,
)
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "EmergencyEvent",
    "MonitorStats",
    "SensorFailure",
    "FleetStats",
    "CompiledPredictor",
    "FleetMonitor",
]

#: Rows per block of the flat ``run_batch`` readout: the ``(rows, K)``
#: prediction block stays cache-resident and results do not depend on
#: it (see ``_stable_rows``).
_BLOCK_ROWS = 512

_SCREEN_LABELS = (SCREEN_NAN, SCREEN_RANGE, SCREEN_FROZEN)


def _stable_rows(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W`` with rows bitwise-independent of the batch size.

    BLAS gemm kernels produce row-wise bit-identical products for any
    ``N >= 2`` and ``K >= 2`` — row ``i`` of a 10000-row product equals
    the same row computed in a 2-row product — but ``N == 1`` and
    ``K == 1`` dispatch to gemv-style kernels with a different
    reduction order, which differ in the last ulp.  Padding those edges
    (duplicate the single row / append a zero column) keeps every
    caller on the gemm profile, so a fleet of 1, a cycle-at-a-time
    fleet of S, and the chunked ``run_batch`` fast path all agree
    bit-for-bit.
    """
    n = X.shape[0]
    k = W.shape[1]
    if n == 0:
        return np.zeros((0, k))
    pad_n = n == 1
    pad_k = k == 1
    if pad_n:
        X = np.concatenate([X, X], axis=0)
    if pad_k:
        W = np.concatenate([W, np.zeros_like(W)], axis=1)
    out = X @ W
    if pad_n or pad_k:
        out = out[:n, :k]
    return out


@dataclass(frozen=True)
class EmergencyEvent:
    """One contiguous alarm episode.

    Attributes
    ----------
    start_cycle, end_cycle:
        First and last cycle of the episode (inclusive).
    min_predicted:
        Deepest predicted voltage during the episode (V).
    worst_block:
        Index of the block with the deepest prediction.
    """

    start_cycle: int
    end_cycle: int
    min_predicted: float
    worst_block: int

    @property
    def duration(self) -> int:
        """Episode length in cycles."""
        return self.end_cycle - self.start_cycle + 1


@dataclass
class MonitorStats:
    """Aggregate statistics of one monitored stream.

    Attributes
    ----------
    cycles:
        Cycles processed.
    alarm_cycles:
        Cycles with an active (debounced) alarm.
    events:
        Completed alarm episodes.
    min_predicted:
        Deepest prediction seen overall (V).
    step_latency:
        Percentile summary of per-step wall times, populated by
        ``finish``.
    """

    cycles: int = 0
    alarm_cycles: int = 0
    events: int = 0
    min_predicted: float = float("inf")
    step_latency: Optional[TimerSummary] = None


@dataclass(frozen=True)
class SensorFailure:
    """One detected sensor failure on one stream.

    Attributes
    ----------
    stream:
        Fleet stream index.
    position:
        Sensor position within the fleet's ``sensor_cols`` layout.
    candidate_col:
        Dataset candidate column (X indexing) of the failed sensor.
    cycle:
        Absolute cycle of detection.
    screen:
        Which screen fired (``nan`` / ``range`` / ``frozen``).
    """

    stream: int
    position: int
    candidate_col: int
    cycle: int
    screen: str


@dataclass
class FleetStats:
    """Fleet-wide aggregate statistics.

    ``cycles`` is per stream (all streams advance together);
    ``alarm_cycles`` and ``events`` are totals across streams.
    """

    n_streams: int
    cycles: int
    alarm_cycles: int
    events: int
    min_predicted: float
    failovers: int
    degraded_streams: int
    step_latency: Optional[TimerSummary] = None


@dataclass
class CompiledPredictor:
    """A placement flattened into one global ``(Q, K)`` matmul.

    :meth:`~repro.core.pipeline.PlacementModel.predict` walks scopes
    and does one small matmul per core; compiling scatters every
    scope's OLS coefficients into a single coefficient matrix over the
    fleet's sensor layout, so S streams are served with a single gemm.
    Coefficients of layout columns a model does not read are zero —
    which is how leave-one-sensor-out fallbacks compile into the *same*
    layout (the dead column simply stops contributing).

    Attributes
    ----------
    sensor_cols:
        ``(Q,)`` sorted dataset candidate columns of the layout.
    coef_t:
        ``(Q, K)`` transposed coefficients in global block order.
    intercept:
        ``(K,)`` intercepts in global block order.
    """

    sensor_cols: np.ndarray
    coef_t: np.ndarray
    intercept: np.ndarray

    @property
    def n_sensors(self) -> int:
        """Q — layout width."""
        return self.sensor_cols.shape[0]

    @property
    def n_blocks(self) -> int:
        """K — predicted blocks."""
        return self.coef_t.shape[1]

    @classmethod
    def from_model(
        cls,
        model: PlacementModel,
        sensor_cols: Optional[np.ndarray] = None,
    ) -> "CompiledPredictor":
        """Compile ``model`` onto a sensor-column layout.

        Parameters
        ----------
        model:
            The placement to flatten.
        sensor_cols:
            Layout to compile onto (sorted dataset candidate columns).
            Defaults to the model's own sensors; pass the *base*
            model's layout when compiling a fallback so readings keep
            one shape across failovers.
        """
        cols = np.asarray(
            model.sensor_candidate_cols if sensor_cols is None else sensor_cols,
            dtype=np.int64,
        )
        if cols.size != np.unique(cols).size:
            raise ValueError("sensor layout has duplicate candidate columns")
        n_blocks = model.n_blocks
        coef_t = np.zeros((cols.size, n_blocks))
        intercept = np.zeros(n_blocks)
        filled = np.zeros(n_blocks, dtype=bool)
        for scope in model.scopes:
            sel = scope.selected_cols
            if sel.size:
                pos = np.searchsorted(cols, sel)
                if np.any(pos >= cols.size) or np.any(cols[pos] != sel):
                    raise ValueError(
                        "model selects candidate columns outside the "
                        "compiled sensor layout"
                    )
                coef_t[np.ix_(pos, scope.block_cols)] = (
                    scope.predictor.model.coef.T
                )
            intercept[scope.block_cols] = scope.predictor.model.intercept
            filled[scope.block_cols] = True
        if not filled.all():
            raise RuntimeError(
                f"{int((~filled).sum())} block columns are not covered by "
                "any scope"
            )
        return cls(sensor_cols=cols, coef_t=coef_t, intercept=intercept)

    def predict(self, readings: np.ndarray) -> np.ndarray:
        """Predict ``(N, K)`` block voltages from ``(N, Q)`` readings."""
        readings = np.asarray(readings, dtype=float)
        if readings.ndim != 2 or readings.shape[1] != self.n_sensors:
            raise ValueError(
                f"readings must be (N, {self.n_sensors}); got "
                f"{readings.shape}"
            )
        return _stable_rows(readings, self.coef_t) + self.intercept


class FleetMonitor:
    """Batched emergency monitor over S independent sensor streams.

    Parameters
    ----------
    model:
        The fitted placement/prediction model.
    threshold:
        Emergency threshold in volts.
    debounce:
        Consecutive below-threshold cycles required before a stream's
        alarm asserts (1 = immediate, the paper's semantics).
    n_streams:
        Number of parallel streams S.
    policy:
        Optional :class:`~repro.monitor.faults.FaultPolicy`; when set,
        every reading is screened and detected-dead sensors trigger
        failover to the model's leave-one-out fallbacks (which requires
        the model to carry OLS refit statistics — fitted models do;
        hand-built ones may not).
    on_emergency:
        Optional callback ``(stream_index, event)`` per completed
        episode.

    Notes
    -----
    Streams advance in lockstep: one :meth:`step` consumes one cycle of
    every stream.  All state is per stream; events, failures and stats
    are queryable per stream or fleet-wide.
    """

    def __init__(
        self,
        model: PlacementModel,
        threshold: float,
        debounce: int = 1,
        n_streams: int = 1,
        policy: Optional[FaultPolicy] = None,
        on_emergency: Optional[Callable[[int, EmergencyEvent], None]] = None,
    ) -> None:
        check_positive(threshold, "threshold")
        check_integer(debounce, "debounce", minimum=1)
        check_integer(n_streams, "n_streams", minimum=1)
        if policy is not None and not isinstance(policy, FaultPolicy):
            raise TypeError("policy must be a FaultPolicy or None")
        self.model = model
        self.threshold = threshold
        self.debounce = debounce
        self.n_streams = n_streams
        self.policy = policy
        self.on_emergency = on_emergency

        self._base = CompiledPredictor.from_model(model)
        n_sensors = self._base.n_sensors
        s = n_streams
        #: Per-stream episode logs and failure logs.
        self.events: List[List[EmergencyEvent]] = [[] for _ in range(s)]
        self.failures: List[List[SensorFailure]] = [[] for _ in range(s)]

        self._cycle = 0
        self._alarm = np.zeros(s, dtype=bool)
        self._streak = np.zeros(s, dtype=np.int64)
        self._streak_min = np.full(s, np.inf)
        self._streak_block = np.full(s, -1, dtype=np.int64)
        self._ep_start = np.zeros(s, dtype=np.int64)
        self._ep_min = np.full(s, np.inf)
        self._ep_block = np.full(s, -1, dtype=np.int64)
        self._alarm_cycles = np.zeros(s, dtype=np.int64)
        self._min_pred = np.full(s, np.inf)

        # Fault-detection state.
        self._detected = np.zeros((s, n_sensors), dtype=bool)
        self._frozen_run = np.zeros((s, n_sensors), dtype=np.int64)
        self._last: Optional[np.ndarray] = None
        #: Per-stream failover chain: current model / compiled predictor
        #: (None while the stream is healthy and serves the base model).
        self._models: List[Optional[PlacementModel]] = [None] * s
        self._compiled: List[Optional[CompiledPredictor]] = [None] * s

        self._latency = Timer("monitor.step")

    # -- introspection ---------------------------------------------------

    @property
    def sensor_cols(self) -> np.ndarray:
        """``(Q,)`` dataset candidate columns the fleet reads, sorted."""
        return self._base.sensor_cols

    @property
    def n_sensors(self) -> int:
        """Q — sensors read per stream per cycle."""
        return self._base.n_sensors

    @property
    def cycles(self) -> int:
        """Cycles processed per stream so far."""
        return self._cycle

    @property
    def alarm_active(self) -> np.ndarray:
        """``(S,)`` current (debounced) alarm state per stream."""
        return self._alarm.copy()

    @property
    def degraded(self) -> np.ndarray:
        """``(S,)`` mask of streams serving a fallback model."""
        return self._detected.any(axis=1)

    def predictor_for(self, stream: int) -> CompiledPredictor:
        """The compiled predictor currently serving ``stream``."""
        compiled = self._compiled[stream]
        return self._base if compiled is None else compiled

    def model_for(self, stream: int) -> PlacementModel:
        """The placement model currently serving ``stream``."""
        current = self._models[stream]
        return self.model if current is None else current

    def stream_stats(self, stream: int) -> MonitorStats:
        """Materialized :class:`MonitorStats` for one stream."""
        return MonitorStats(
            cycles=self._cycle,
            alarm_cycles=int(self._alarm_cycles[stream]),
            events=len(self.events[stream]),
            min_predicted=float(self._min_pred[stream]),
        )

    def latency_summary(self) -> TimerSummary:
        """Percentile summary of per-:meth:`step` wall times."""
        return self._latency.summary()

    # -- serving: cycle at a time ---------------------------------------

    def step(self, readings: np.ndarray) -> np.ndarray:
        """Process one cycle of every stream; returns ``(S,)`` alarm flags.

        Parameters
        ----------
        readings:
            ``(S, Q)`` sensor readings, columns in :attr:`sensor_cols`
            order.
        """
        t0 = _time.perf_counter()
        readings = np.asarray(readings, dtype=float)
        if readings.shape != (self.n_streams, self.n_sensors):
            raise ValueError(
                f"readings must be ({self.n_streams}, {self.n_sensors}) "
                f"— one row per stream, one column per sensor in "
                f"sensor_cols order; got shape {readings.shape}"
            )
        t = self._cycle
        if self.policy is not None:
            self._screen_step(readings, t)
        degraded = np.nonzero(self._detected.any(axis=1))[0]
        if degraded.size:
            clean = readings.copy()
            clean[self._detected] = 0.0
        else:
            clean = readings
        pred = _stable_rows(clean, self._base.coef_t) + self._base.intercept
        for s in degraded:
            cp = self._compiled[s]
            pred[s] = (
                _stable_rows(clean[s : s + 1], cp.coef_t) + cp.intercept
            )[0]
        v_min = pred.min(axis=1)
        blocks = pred.argmin(axis=1)
        self._advance(v_min, blocks, t)
        self._cycle += 1
        dt = _time.perf_counter() - t0
        self._latency.record(dt)
        registry = get_registry()
        if registry.enabled:
            registry.timer("monitor.step").record(dt)
        return self._alarm.copy()

    def _advance(self, v_min: np.ndarray, blocks: np.ndarray, t: int) -> None:
        """Vectorized one-cycle update of every stream's state machine."""
        below = v_min < self.threshold  # NaN compares False: no streak
        start_or_deeper = below & (
            (self._streak == 0) | (v_min < self._streak_min)
        )
        self._streak_min = np.where(start_or_deeper, v_min, self._streak_min)
        self._streak_block = np.where(
            start_or_deeper, blocks, self._streak_block
        )
        self._streak = np.where(below, self._streak + 1, 0)

        alarm_before = self._alarm.copy()
        assert_now = ~alarm_before & (self._streak >= self.debounce)
        self._alarm |= assert_now
        self._ep_start = np.where(
            assert_now, t - (self.debounce - 1), self._ep_start
        )
        self._ep_min = np.where(assert_now, self._streak_min, self._ep_min)
        self._ep_block = np.where(
            assert_now, self._streak_block, self._ep_block
        )
        # Backdated debounce-streak cycles count as alarm cycles so that
        # sum(event durations) == alarm_cycles for any debounce.
        self._alarm_cycles += assert_now * (self.debounce - 1)

        deeper = alarm_before & (v_min < self._ep_min)
        self._ep_min = np.where(deeper, v_min, self._ep_min)
        self._ep_block = np.where(deeper, blocks, self._ep_block)
        # NaN neither closes an episode nor extends the streak.
        close = alarm_before & (v_min >= self.threshold)
        for s in np.nonzero(close)[0]:
            self._close_episode(int(s), t - 1)

        self._alarm_cycles += self._alarm
        self._min_pred = np.fmin(self._min_pred, v_min)

    # -- serving: whole-tensor fast path --------------------------------

    def run_batch(self, streams: np.ndarray) -> np.ndarray:
        """Process a whole ``(S, T, Q)`` tensor; returns ``(S, T)`` flags.

        Semantically identical (bit-for-bit: predictions, episodes,
        failovers, stats) to calling :meth:`step` T times, but with no
        Python loop over cycles or healthy streams: fault screens are
        evaluated over the full tensor (or skipped when no screen can
        fire), predictions run as cache-blocked flat gemms fused with
        the min/argmin readout, and the debounce/episode machine of
        every stream is replayed at once from the runs of the
        below-threshold mask (see :meth:`_replay`).

        May be called repeatedly; debounce/episode/fault state carries
        across calls exactly as it does across :meth:`step` calls.

        Parameters
        ----------
        streams:
            ``(S, T, Q)`` sensor readings.
        """
        t0 = _time.perf_counter()
        streams = np.asarray(streams, dtype=float)
        if streams.ndim != 3 or streams.shape[0] != self.n_streams or (
            streams.shape[2] != self.n_sensors
        ):
            raise ValueError(
                f"streams must be ({self.n_streams}, T, {self.n_sensors}); "
                f"got shape {streams.shape}"
            )
        n_cycles = streams.shape[1]
        if n_cycles == 0:
            return np.zeros((self.n_streams, 0), dtype=bool)
        t_base = self._cycle

        entry_compiled = list(self._compiled)
        # Failover timeline of each stream that fails over in this
        # chunk: (local_cycle, compiled_after).
        changes: Dict[int, List[Tuple[int, CompiledPredictor]]] = {}
        # Local cycle each detected sensor stops being trusted
        # (0 for sensors already dead at entry).
        clean_from = np.zeros((self.n_streams, self.n_sensors), dtype=np.int64)
        if self.policy is not None:
            det_t, screen_codes = self._screen_batch(streams)
            det_t[self._detected] = n_cycles
            for s in np.nonzero((det_t < n_cycles).any(axis=1))[0].tolist():
                fresh = np.nonzero(det_t[s] < n_cycles)[0]
                # Failover order matches step mode: by cycle, then by
                # sensor position within a cycle.
                for q in fresh[np.argsort(det_t[s, fresh], kind="stable")]:
                    t_loc = int(det_t[s, q])
                    self._fail_sensor(
                        s,
                        int(q),
                        t_base + t_loc,
                        _SCREEN_LABELS[screen_codes[s, q]],
                    )
                    clean_from[s, q] = t_loc
                    changes.setdefault(s, []).append(
                        (t_loc, self._compiled[s])
                    )

        v_min, blocks = self._predict_batch(
            streams, entry_compiled, changes, clean_from
        )
        flags = self._replay(v_min, blocks, t_base)
        self._cycle += n_cycles

        registry = get_registry()
        if registry.enabled:
            dt = _time.perf_counter() - t0
            registry.timer("monitor.run_batch").record(dt)
            # Amortized per-cycle latency so batch and step serving
            # expose comparable per-stream timing in the registry.
            registry.timer("monitor.stream_cycle").record(
                dt / n_cycles
            )
            registry.counter("monitor.batch_cycles").inc(
                self.n_streams * n_cycles
            )
        return flags

    def _predict_batch(
        self,
        streams: np.ndarray,
        entry_compiled: List[Optional[CompiledPredictor]],
        changes: Dict[int, List[Tuple[int, CompiledPredictor]]],
        clean_from: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cycle prediction minima/argmins for the whole tensor."""
        n_streams, n_cycles, n_sensors = streams.shape
        # Streams that neither entered degraded nor failed over here.
        healthy = ~self._detected.any(axis=1)
        rows = streams if healthy.all() else streams[healthy]
        v, b = self._minblock_rows(rows.reshape(-1, n_sensors), self._base)
        if rows is streams:
            shape = (n_streams, n_cycles)
            return v.reshape(shape), b.reshape(shape)
        v_min = np.empty((n_streams, n_cycles))
        blocks = np.empty((n_streams, n_cycles), dtype=np.int64)
        v_min[healthy] = v.reshape(-1, n_cycles)
        blocks[healthy] = b.reshape(-1, n_cycles)
        for s in np.nonzero(~healthy)[0]:
            rows = streams[s].copy()
            for q in np.nonzero(self._detected[s])[0]:
                rows[clean_from[s, q]:, q] = 0.0
            comp = entry_compiled[s]
            comp = self._base if comp is None else comp
            t_prev = 0
            for t_loc, after in changes.get(s, ()):
                if t_loc > t_prev:
                    v, b = self._minblock_rows(rows[t_prev:t_loc], comp)
                    v_min[s, t_prev:t_loc] = v
                    blocks[s, t_prev:t_loc] = b
                    t_prev = t_loc
                comp = after
            v, b = self._minblock_rows(rows[t_prev:], comp)
            v_min[s, t_prev:] = v
            blocks[s, t_prev:] = b
        return v_min, blocks

    def _minblock_rows(
        self, rows: np.ndarray, compiled: CompiledPredictor
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row prediction min and argmin for ``(N, Q)`` rows.

        Walks ``_BLOCK_ROWS`` rows at a time so each prediction block
        stays in cache, adds the intercept in place and gathers the
        minimum at the argmin — bit-equal to ``pred.min(axis=1)``,
        first-index ties and NaN rows included.
        """
        n = rows.shape[0]
        v_min = np.empty(n)
        blocks = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _BLOCK_ROWS):
            pred = _stable_rows(rows[lo:lo + _BLOCK_ROWS], compiled.coef_t)
            pred += compiled.intercept
            arg = pred.argmin(axis=1)
            blocks[lo:lo + arg.size] = arg
            v_min[lo:lo + arg.size] = pred[np.arange(arg.size), arg]
        return v_min, blocks

    # -- episode state machine (batch replay) ----------------------------

    def _advance_single(
        self, s: int, v: float, block: int, t: int
    ) -> None:
        """Scalar replay of :meth:`_advance` for one stream (NaN-exact)."""
        if v < self.threshold:
            if self._streak[s] == 0 or v < self._streak_min[s]:
                self._streak_min[s] = v
                self._streak_block[s] = block
            self._streak[s] += 1
        else:
            self._streak[s] = 0
        if not self._alarm[s] and self._streak[s] >= self.debounce:
            self._alarm[s] = True
            self._ep_start[s] = t - (self.debounce - 1)
            self._ep_min[s] = self._streak_min[s]
            self._ep_block[s] = self._streak_block[s]
            self._alarm_cycles[s] += self.debounce - 1
        elif self._alarm[s]:
            if v < self._ep_min[s]:
                self._ep_min[s] = v
                self._ep_block[s] = block
            if v >= self.threshold:
                self._close_episode(s, t - 1)
        if self._alarm[s]:
            self._alarm_cycles[s] += 1
        if v < self._min_pred[s]:
            self._min_pred[s] = v

    def _replay(
        self, v: np.ndarray, blocks: np.ndarray, t_base: int
    ) -> np.ndarray:
        """Replay T cycles of every stream's state machine at once.

        Produces exactly the ``(S, T)`` flags, episodes and counters of
        T :meth:`_advance` calls.  The below-threshold runs of all
        streams come from one ``nonzero``.  A run's episode minimum is
        its first-occurrence minimum joined with the streak carried in
        (which wins ties, being earlier); a run asserts
        ``debounce - 1 - carry`` cycles in, or at once when it continues
        an episode open at entry.  Streams whose minima are not all
        finite replay through :meth:`_advance_single`.  Episodes are
        emitted stream-major, in time order within a stream.
        """
        n_streams, n_cycles = v.shape
        deb = self.debounce
        finite = np.isfinite(v).all(axis=1)
        below = (v < self.threshold) & finite[:, np.newaxis]
        alarm0 = self._alarm & finite

        # Runs [g, stop) of the below mask; edges alternate start/stop.
        rs, edge = np.nonzero(
            np.diff(below, axis=1, prepend=False, append=False)
        )
        rs, g, stop = rs[::2], edge[::2], edge[1::2]
        length = stop - g
        w = np.where(below, v, np.inf).ravel()
        first = rs * n_cycles + g
        run_min = np.minimum.reduceat(w, first)
        run_block = np.zeros(g.size, dtype=np.int64)
        if g.size:
            # Block of each run's first cell that holds its minimum.
            seg = np.diff(first, append=w.size)
            hits = first[0] + np.nonzero(
                w[first[0]:] == np.repeat(run_min, seg)
            )[0]
            run_block = blocks.ravel()[hits[np.searchsorted(hits, first)]]

        carry = np.where(g == 0, self._streak[rs], 0)
        keep = (carry > 0) & (self._streak_min[rs] <= run_min)
        c_min = np.where(keep, self._streak_min[rs], run_min)
        c_block = np.where(keep, self._streak_block[rs], run_block)
        cont = (g == 0) & alarm0[rs]
        fire = np.where(cont, 0, np.maximum(deb - 1 - carry, 0))
        fires = fire < length
        deeper = cont & (run_min < self._ep_min[rs])
        e_min = np.where(cont & ~deeper, self._ep_min[rs], c_min)
        e_block = np.where(cont & ~deeper, self._ep_block[rs], c_block)
        e_start = np.where(
            cont, self._ep_start[rs], t_base + g + fire - (deb - 1)
        )
        # Backdated debounce cycles count as alarm cycles (see _advance).
        gained = np.where(fires, length - fire + (deb - 1) * ~cont, 0)
        self._alarm_cycles += np.bincount(
            rs, weights=gained, minlength=n_streams
        ).astype(np.int64)
        self._min_pred = np.fmin(self._min_pred, np.fmin.reduce(v, axis=1))

        marks = np.zeros((n_streams, n_cycles + 1), dtype=np.int8)
        marks[rs[fires], (g + fire)[fires]] = 1
        marks[rs[fires], stop[fires]] = -1
        flags = np.cumsum(marks, axis=1, dtype=np.int8)[:, :-1] > 0

        # Completed episodes: those open at entry that recover on cycle
        # 0, then every asserted run that recovers inside the chunk.
        shut = np.nonzero(alarm0 & ~below[:, 0])[0]
        done = fires & (stop < n_cycles)
        ep = [
            np.concatenate(parts)
            for parts in (
                (shut, rs[done]),
                (self._ep_start[shut], e_start[done]),
                (np.full(shut.size, t_base - 1), t_base + stop[done] - 1),
                (self._ep_min[shut], e_min[done]),
                (self._ep_block[shut], e_block[done]),
            )
        ]
        order = np.argsort(ep[0], kind="stable")
        episodes = list(zip(*(a[order].tolist() for a in ep)))

        # End-of-chunk state: only runs reaching the last cycle carry.
        self._streak[finite] = 0
        self._alarm[finite] = False
        tail = stop == n_cycles
        self._streak[rs[tail]] = (carry + length)[tail]
        self._streak_min[rs[tail]] = c_min[tail]
        self._streak_block[rs[tail]] = c_block[tail]
        open_ = tail & fires
        self._alarm[rs[open_]] = True
        self._ep_start[rs[open_]] = e_start[open_]
        self._ep_min[rs[open_]] = e_min[open_]
        self._ep_block[rs[open_]] = e_block[open_]

        ep_streams, emitted = ep[0][order], 0
        for s in np.nonzero(~finite)[0].tolist():
            cut = int(np.searchsorted(ep_streams, s))
            self._emit_episodes(episodes[emitted:cut])
            emitted = cut
            for i in range(n_cycles):
                self._advance_single(
                    s, float(v[s, i]), int(blocks[s, i]), t_base + i
                )
                flags[s, i] = self._alarm[s]
        self._emit_episodes(episodes[emitted:])
        return flags

    def _emit_episodes(
        self, episodes: Sequence[Tuple[int, int, int, float, int]]
    ) -> None:
        """Record completed ``(stream, start, end, v_min, block)`` episodes
        in order (log, obs, callback)."""
        registry = get_registry()
        for s, start, end, v_min, block in episodes:
            event = EmergencyEvent(
                start_cycle=start,
                end_cycle=end,
                min_predicted=v_min,
                worst_block=block,
            )
            self.events[s].append(event)
            if registry.enabled:
                registry.counter("monitor.emergencies").inc()
                registry.event(
                    "monitor.emergency",
                    stream=s,
                    start_cycle=event.start_cycle,
                    end_cycle=event.end_cycle,
                    duration=event.duration,
                    min_predicted=event.min_predicted,
                    worst_block=event.worst_block,
                    threshold=self.threshold,
                )
            if self.on_emergency is not None:
                self.on_emergency(s, event)

    def _close_episode(self, s: int, end_cycle: int) -> None:
        """Close stream ``s``'s open episode at ``end_cycle``."""
        self._emit_episodes([(
            s,
            int(self._ep_start[s]),
            int(end_cycle),
            float(self._ep_min[s]),
            int(self._ep_block[s]),
        )])
        self._alarm[s] = False
        self._streak[s] = 0

    # -- fault screening and failover ------------------------------------

    def _screen_step(self, readings: np.ndarray, t: int) -> None:
        """Run the per-cycle fault screens and fail over fresh detections."""
        policy = self.policy
        finite = np.isfinite(readings)
        nan_m = ~finite
        range_m = finite & (
            (readings < policy.v_lo) | (readings > policy.v_hi)
        )
        if self._last is None:
            self._frozen_run = np.ones_like(self._frozen_run)
        else:
            eq = np.abs(readings - self._last) <= policy.frozen_eps
            self._frozen_run = np.where(eq, self._frozen_run + 1, 1)
        self._last = readings.copy()
        frozen_m = self._frozen_run >= policy.frozen_window
        fresh = (nan_m | range_m | frozen_m) & ~self._detected
        if not fresh.any():
            return
        for s, q in zip(*np.nonzero(fresh)):  # row-major: stream, then q
            if nan_m[s, q]:
                screen = SCREEN_NAN
            elif range_m[s, q]:
                screen = SCREEN_RANGE
            else:
                screen = SCREEN_FROZEN
            self._fail_sensor(int(s), int(q), t, screen)

    def _chunk_is_clean(self, streams: np.ndarray) -> bool:
        """Whether no screen can fire on an undetected sensor in ``streams``.

        True when every reading of each undetected (stream, sensor)
        pair lies in ``[v_lo, v_hi]`` (NaN fails) and none lies within
        ``frozen_eps`` of its predecessor, the carried last reading
        included.  Detected sensors are left out: their screens never
        fire again, so one dead sensor does not send every later chunk
        of the fleet through the full screen.
        """
        policy = self.policy
        last = self._last
        if self._detected.any():
            live = ~self._detected
            if not live.any():
                return True
            # (pairs, T, 1): one series per undetected (stream, sensor).
            streams = streams.transpose(0, 2, 1)[live][:, :, np.newaxis]
            last = None if last is None else last[live][:, np.newaxis]
        prev = np.inf if last is None else last[:, np.newaxis]
        return bool(
            streams.min() >= policy.v_lo  # NaN fails this test
            and streams.max() <= policy.v_hi
            and np.abs(np.diff(streams, axis=1, prepend=prev)).min()
            > policy.frozen_eps
        )

    def _screen_batch(
        self, streams: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First-detection local cycle and screen code per (stream, sensor).

        Returns ``(S, Q)`` first-trigger cycles (``T`` = never) and the
        matching screen codes (index into ``_SCREEN_LABELS``, priority
        nan > range > frozen on ties).  Also rolls the frozen-run carry
        state forward to the end of the chunk, exactly as T calls to
        :meth:`_screen_step` would.
        """
        policy = self.policy
        n_streams, n_cycles, n_sensors = streams.shape
        if self._chunk_is_clean(streams):
            # No screen can fire on a live sensor and every live frozen
            # run restarts on every cycle.  Detected sensors' runs are
            # never read again, so they restart too.
            self._frozen_run = np.ones_like(self._frozen_run)
            self._last = streams[:, -1, :].copy()
            never = np.full((n_streams, n_sensors), n_cycles, dtype=np.int64)
            return never, np.zeros((n_streams, n_sensors), dtype=np.int8)
        finite = np.isfinite(streams)
        nan_m = ~finite
        range_m = finite & (
            (streams < policy.v_lo) | (streams > policy.v_hi)
        )
        if self._last is None:
            eq0 = np.zeros(
                (streams.shape[0], 1, streams.shape[2]), dtype=bool
            )
        else:
            eq0 = (
                np.abs(streams[:, :1, :] - self._last[:, np.newaxis, :])
                <= policy.frozen_eps
            )
        eq = np.concatenate(
            [eq0, np.abs(np.diff(streams, axis=1)) <= policy.frozen_eps],
            axis=1,
        )
        pos = np.arange(n_cycles)[np.newaxis, :, np.newaxis]
        reset = np.where(~eq, pos, -1)
        last_reset = np.maximum.accumulate(reset, axis=1)
        run = np.where(
            last_reset < 0,
            self._frozen_run[:, np.newaxis, :] + pos + 1,
            pos - last_reset + 1,
        )
        self._frozen_run = run[:, -1, :].copy()
        self._last = streams[:, -1, :].copy()
        frozen_m = run >= policy.frozen_window

        def first_true(mask: np.ndarray) -> np.ndarray:
            hit = mask.any(axis=1)
            return np.where(hit, mask.argmax(axis=1), n_cycles).astype(
                np.int64
            )

        t_nan = first_true(nan_m)
        t_range = first_true(range_m)
        t_frozen = first_true(frozen_m)
        det_t = np.minimum(np.minimum(t_nan, t_range), t_frozen)
        codes = np.where(
            t_nan == det_t, 0, np.where(t_range == det_t, 1, 2)
        ).astype(np.int8)
        return det_t, codes

    def _fail_sensor(self, s: int, q: int, cycle: int, screen: str) -> None:
        """Mark sensor ``q`` of stream ``s`` dead and fail over its model."""
        col = int(self.sensor_cols[q])
        self._detected[s, q] = True
        failure = SensorFailure(
            stream=s, position=q, candidate_col=col, cycle=cycle,
            screen=screen,
        )
        self.failures[s].append(failure)
        current = self._models[s]
        if current is None:
            # First failure on this stream: the precomputed LOO fallback.
            new_model = self.model.fallback_models()[col]
        else:
            # Chained failure: drop another sensor from the fallback.
            new_model = current.without_sensor(col)
        self._models[s] = new_model
        self._compiled[s] = CompiledPredictor.from_model(
            new_model, sensor_cols=self.sensor_cols
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.sensor_faults").inc()
            registry.counter("monitor.failovers").inc()
            registry.gauge("monitor.degraded_streams").set(
                int(self._detected.any(axis=1).sum())
            )
            registry.event(
                "monitor.sensor_fault",
                stream=s,
                position=q,
                sensor_col=col,
                cycle=cycle,
                screen=screen,
            )

    # -- session end ------------------------------------------------------

    def finish(self) -> FleetStats:
        """Close all open episodes and return fleet-wide statistics.

        When the registry is enabled, also emits one ``obs.worker``
        event carrying this fleet's latency snapshot — run manifests
        collect these into their per-worker section.
        """
        for s in np.nonzero(self._alarm)[0]:
            self._close_episode(int(s), self._cycle - 1)
        stats = self.fleet_stats()
        registry = get_registry()
        if registry.enabled:
            registry.event(
                "obs.worker",
                source="monitor",
                n_streams=stats.n_streams,
                cycles=stats.cycles,
                events=stats.events,
                failovers=stats.failovers,
                snapshot={
                    "schema": SNAPSHOT_SCHEMA,
                    "counters": {},
                    "gauges": {},
                    "timers": {"monitor.step": self._latency.snapshot()},
                },
            )
        return stats

    def fleet_stats(self) -> FleetStats:
        """Materialized fleet-wide statistics (episodes as of now)."""
        finite_min = self._min_pred[np.isfinite(self._min_pred)]
        return FleetStats(
            n_streams=self.n_streams,
            cycles=self._cycle,
            alarm_cycles=int(self._alarm_cycles.sum()),
            events=sum(len(ev) for ev in self.events),
            min_predicted=float(
                finite_min.min() if finite_min.size else np.inf
            ),
            failovers=sum(len(f) for f in self.failures),
            degraded_streams=int(self._detected.any(axis=1).sum()),
            step_latency=self._latency.summary(),
        )
