"""Benchmark of the paper pipeline: placement, map generation, runtime readout.

Run from the repository root::

    python3 perfbench/run.py --workload paper_place --seed 1 --seconds 10 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  Each run sets the
workload up several times (``setup_s`` is the median of the set-ups that
did not compile the LU kernel), then runs timed passes until the next
one would end after ``--seconds`` (at least one), then checks the
outputs outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics.  With ``--trace 1`` the run makes one
untraced pass, then repeats it with every layer's entry point wrapped
(``perfbench/tracer.py``) and the library's own counters on, and
reports the per-layer metrics instead.  The line before the result is a
record with provenance, the workload's inputs and what the checks found.

Everything the run writes (the compiled LU kernel, compiler scratch
files) stays under ``.bench_build/`` in the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _isolate() -> None:
    """Keep every file the run writes inside the checkout; no dataset cache."""
    kernels, scratch = BUILD / "repro-kernels", BUILD / "tmp"
    kernels.mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(kernels)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    os.environ.pop("REPRO_DATASET_CACHE", None)
    sys.path.insert(0, str(ROOT / "src"))


def _git_sha():
    """HEAD commit read from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _provenance(workload, kernel_compiled: bool, kernel_active: bool) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "profile": workload.profile.name,
        "kernel_active": kernel_active,
        "kernel_compiled_in_setup": kernel_compiled,
    }


def _kernel_files() -> set:
    return set(os.listdir(os.environ["REPRO_KERNEL_CACHE"]))


def _mean(values):
    return float(sum(values) / len(values))


def _end_to_end(state, warm, passes, pass_times) -> dict:
    """End-to-end metrics; ``warm`` holds (seconds, state) of each set-up
    that did not compile the LU kernel."""
    # Map generation is timed in those set-ups and in passes that simulate.
    datagen = [s for _, s in warm] + [p for p in passes if p.datagen_s > 0]
    call_rates = [rate for p in passes for r in p.readouts for rate in r.call_rates]
    scored = passes[0].placements or [state.scored]
    return {
        "setup_s": (statistics.median(t for t, _ in warm), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "maps_per_s": (
            statistics.median(d.datagen_rows / d.datagen_s for d in datagen), "1/s"
        ),
        "monitor_cycles_per_s": (statistics.median(call_rates), "1/s"),
        "te_rate": (_mean([p.te for p in scored]), "ratio"),
        "me_rate": (_mean([p.me for p in scored]), "ratio"),
        "wae_rate": (_mean([p.wae for p in scored]), "ratio"),
        "rel_error": (_mean([p.rel_error for p in scored]), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def _per_layer(tracer, workload, traced, untraced_s, traced_s, traced_setup_s, snapshot):
    import tracer as tracing

    out = {}
    for layer in tracing.TIMED_LAYERS:
        out[f"{layer}_s"] = (tracer.layer_seconds("run", layer), "s")
    for layer in tracing.TIMED_LAYERS:
        out[f"setup.{layer}_s"] = (tracer.layer_seconds("setup", layer), "s")
    out["unattributed_s"] = (traced_s - tracer.root_seconds["run"], "s")
    out["setup.unattributed_s"] = (traced_setup_s - tracer.root_seconds["setup"], "s")

    transient_s = tracer.layer_seconds("run", "powergrid.transient")
    node_steps = tracer.counter("run", "powergrid.node_steps")
    counters = snapshot["counters"]
    iterations = counters.get("group_lasso.iterations", 0)
    penalized = snapshot["timers"].get("group_lasso.penalized", {})
    probes = tracer.counter("run", "core.probes")
    n_placements = len(traced.placements)
    out.update(
        {
            "powergrid.transient_calls": (
                tracer.counter("run", "powergrid.transient_calls"), "count"
            ),
            "powergrid.node_steps_per_s": (
                node_steps / transient_s if transient_s else 0.0, "1/s"
            ),
            "core.stats_builds": (tracer.counter("run", "core.stats_builds"), "count"),
            "core.gl_solves": (counters.get("group_lasso.solves", 0), "count"),
            "core.gl_iterations": (iterations, "count"),
            "core.us_per_iteration": (
                1e6 * penalized.get("total_s", 0.0) / iterations if iterations else 0.0,
                "us",
            ),
            "core.probes": (probes, "count"),
            "core.probes_empty": (tracer.counter("run", "core.probes_empty"), "count"),
            "core.probes_per_placement": (probes / n_placements if n_placements else 0.0, "count"),
            "core.warm_start_hits": (counters.get("sweep.warm_start_hits", 0), "count"),
            "core.gram_reuse": (counters.get("path.gram_reuse", 0), "count"),
            "core.count_miss": (workload.count_miss(traced), "count"),
            "monitor.stream_cycles": (counters.get("monitor.batch_cycles", 0), "count"),
            "monitor.failovers": (counters.get("monitor.failovers", 0), "count"),
            "obs.trace_overhead_s": (traced_s - untraced_s, "s"),
        }
    )
    return out


def _run(args) -> int:
    _isolate()
    import tracer as tracing
    import workloads
    import repro.obs as obs

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cls(args.seed)
    checks = workloads.Checks()
    tracer = tracing.Tracer()

    # Set-up, several times; the last state is the one measured.  The
    # compiled LU kernel, if not cached yet, is built in the first one.
    setup_times, states, warm = [], [], []
    kernel_compiled = False
    for i in range(workload.n_setups):
        if states:
            states[-1].data = None  # free the previous set-up's datasets
        if args.trace and i == workload.n_setups - 1:
            tracing.install(tracer, workloads)
            tracer.phase = "setup"
        before = _kernel_files()
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        tracer.phase = None
        tracer.uninstall()
        if _kernel_files() - before:
            kernel_compiled = True
        else:
            warm.append((setup_times[-1], state))
        if states:
            state.digests = states[-1].digests + state.digests
        states.append(state)
    state = states[-1]
    workload.check_setup(state, checks)

    passes, pass_times = [], []
    run_start = time.perf_counter()
    while True:
        clock = workloads.PassClock()
        result = workload.run_pass(state, 0 if args.trace else len(passes), clock)
        pass_times.append(clock.elapsed())
        passes.append(result)
        workload.check_pass(state, len(passes) - 1, result, checks)
        elapsed = time.perf_counter() - run_start
        if args.trace or elapsed + pass_times[-1] > args.seconds:
            break

    metrics = None
    if args.trace:
        tracing.install(tracer, workloads)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            tracer.phase = "run"
            clock = workloads.PassClock()
            traced = workload.run_pass(state, 0, clock)
            traced_s = clock.elapsed()
            tracer.phase = None
            snapshot = registry.snapshot()
        tracer.uninstall()
        workload.check_pass(state, len(passes), traced, checks)
        passes.append(traced)
        metrics = _per_layer(
            tracer, workload, traced, pass_times[0], traced_s, setup_times[-1], snapshot
        )
    workload.check(state, passes, checks)
    if metrics is None:
        metrics = _end_to_end(state, warm, passes, pass_times)

    kernel_active = all(s.kernel_active for s in states)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "check_seed": workload.check_seed,
        "inputs": {
            "ingest_ticks": workloads.INGEST_TICKS,
            "read_noise_v": workloads.READ_NOISE_V,
        },
        "trace": args.trace,
        "provenance": _provenance(workload, kernel_compiled, kernel_active),
        "setup_times_s": setup_times,
        "pass_times_s": pass_times,
        "placements": [
            {
                "target_per_core": p.target,
                "sensors": p.model.n_sensors,
                "digest": p.digest,
                "fit_s": p.fit_s,
                "te": p.te,
                "me": p.me,
                "wae": p.wae,
                "rel_error": p.rel_error,
                "eagle_eye_te": p.ee_te,
            }
            for p in (passes[0].placements or [state.scored])
        ],
        "count_miss": workload.count_miss(passes[0]),
        "problems": checks.problems,
    }
    print(json.dumps({"record": record}, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>16}  {name:<32} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if checks.failed == 0 else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        return _run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
