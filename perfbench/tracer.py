"""Per-layer timing and counting for the traced benchmark run.

The benchmark measures the program from outside: :class:`Tracer`
replaces each layer's public function by a wrapper, patched on the
module or class where its caller looks the name up, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` is
changed.

Each wrapper times the call (inclusive of the layers it calls) and may
count work from its arguments or result.  Time is booked to
the current phase (``"setup"`` or ``"run"``); calls made outside a phase,
such as the output checks, are not recorded.  A call of a reported layer
(``TIMED_LAYERS``) that starts while no other reported call is open is a
root span: the phase's wall time minus the root spans' total is the time
no reported layer accounts for.  Counts come from the library's own
``repro.obs`` counters where it emits them; the wrappers count only what
it does not.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order.  Each is reported as ``<name>_s``.
TIMED_LAYERS = (
    "powergrid.build_chip",
    "workload.traces",
    "powergrid.transient",
    "voltage.sampling",
    "core.stats",
    "core.gl_solve",
    "core.ols",
    "core.predict",
    "voltage.metrics",
    "baselines.eagle_eye",
    "monitor.run_batch",
)


class Tracer:
    """Wraps layer entry points and accumulates time and counts per phase."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_seconds: Dict[str, float] = defaultdict(float)
        self._open: Dict[str, int] = defaultdict(int)
        self._depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` in the current phase."""
        if self.phase is not None:
            self.counts[(self.phase, name)] += n

    def _wrap(
        self,
        layer: str,
        fn: Callable,
        on_call: Optional[Callable] = None,
    ) -> Callable:
        tracer = self
        reported = layer in TIMED_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            # Only the outermost call of a layer books its time, so a
            # layer that re-enters itself is not counted twice.
            outermost = tracer._open[layer] == 0
            tracer._open[layer] += 1
            tracer._depth += reported
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._depth -= reported
                tracer._open[layer] -= 1
                if outermost:
                    tracer.seconds[(phase, layer)] += dt
                if reported and tracer._depth == 0:
                    tracer.root_seconds[phase] += dt
                if on_call is not None:
                    on_call(tracer, args, kwargs, result, exc, dt)

        return traced

    # -- patching ------------------------------------------------------

    def patch_function(
        self, module: object, name: str, layer: str, on_call=None
    ) -> None:
        """Replace ``module.name`` by a traced wrapper."""
        original = getattr(module, name)
        self._patches.append((module, name, original))
        setattr(module, name, self._wrap(layer, original, on_call))

    def patch_method(
        self, cls: type, name: str, layer: str, on_call=None
    ) -> None:
        """Replace method ``cls.name`` (plain or classmethod) by a wrapper."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(layer, original.__func__, on_call))
        else:
            wrapped = self._wrap(layer, original, on_call)
        setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -----------------------------------------------------

    def layer_seconds(self, phase: str, layer: str) -> float:
        return self.seconds.get((phase, layer), 0.0)

    def counter(self, phase: str, name: str) -> float:
        return self.counts.get((phase, name), 0.0)


# ----------------------------------------------------------------------
# Where each layer is looked up
# ----------------------------------------------------------------------

def _on_transient(tracer, args, kwargs, result, exc, dt):
    # simulate_many(self, loads, n_steps, ..., warmup_steps=...) and
    # simulate(self, load, n_steps, ..., warmup_steps=...).
    solver, source = args[0], args[1]
    n_steps = kwargs.get("n_steps", args[2] if len(args) > 2 else 0)
    warmup = kwargs.get("warmup_steps", 0)
    n_loads = len(source) if hasattr(source, "__len__") else 1
    tracer.count("powergrid.transient_calls")
    tracer.count(
        "powergrid.node_steps",
        solver.grid.n_nodes * (int(n_steps) + int(warmup)) * n_loads,
    )


def _on_stats(tracer, args, kwargs, result, exc, dt):
    tracer.count("core.stats_builds")


def _on_probe(tracer, args, kwargs, result, exc, dt):
    tracer.count("core.probes")
    if isinstance(exc, ValueError):
        # fit_for_sensor_count reads a ValueError as "budget too small
        # to select any sensor": the probe fitted nothing.
        tracer.count("core.probes_empty")


def install(tracer: Tracer, caller: object) -> None:
    """Patch every layer's entry points where their callers look them up.

    ``caller`` is the benchmark module that calls Eagle-Eye and the
    metrics directly; those names are patched on it.
    """
    from repro.baselines import eagle_eye
    from repro.core import group_lasso, path_engine, pipeline, predictor, selection
    from repro.experiments import data_generation as dg
    from repro.monitor.fleet import FleetMonitor
    from repro.powergrid.transient import TransientSolver
    from repro.workload.current_map import CurrentMapper
    from repro.workload.power_model import McPATLikePowerModel

    tracer.patch_function(dg, "build_chip", "powergrid.build_chip")
    tracer.patch_function(dg, "generate_activity", "workload.traces")
    tracer.patch_method(McPATLikePowerModel, "block_power", "workload.traces")
    tracer.patch_method(CurrentMapper, "bound", "workload.traces")
    tracer.patch_method(
        TransientSolver, "simulate_many", "powergrid.transient", _on_transient
    )
    tracer.patch_method(
        TransientSolver, "simulate", "powergrid.transient", _on_transient
    )
    for name in ("sample_maps", "select_critical_nodes", "build_dataset"):
        tracer.patch_function(dg, name, "voltage.sampling")
    tracer.patch_method(
        group_lasso.SufficientStats, "from_arrays", "core.stats", _on_stats
    )
    # The constrained solve is looked up by the path engine (count
    # sweeps) and by select_sensors (fit_placement).
    tracer.patch_function(path_engine, "group_lasso_constrained", "core.gl_solve")
    tracer.patch_function(selection, "group_lasso_constrained", "core.gl_solve")
    tracer.patch_method(path_engine.LambdaPathEngine, "fit", "core.probe", _on_probe)
    tracer.patch_method(predictor.VoltagePredictor, "fit", "core.ols")
    tracer.patch_method(pipeline.PlacementModel, "predict", "core.predict")
    tracer.patch_function(caller, "fit_eagle_eye", "baselines.eagle_eye")
    tracer.patch_method(eagle_eye.EagleEyeModel, "alarm", "baselines.eagle_eye")
    for name in ("detection_error_rates", "mean_relative_error"):
        tracer.patch_function(caller, name, "voltage.metrics")
    tracer.patch_method(FleetMonitor, "run_batch", "monitor.run_batch")
