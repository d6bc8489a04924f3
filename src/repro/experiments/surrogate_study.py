"""The surrogate study: calibrated screening benchmarked against exact.

Two sweeps, two questions:

* **Throughput sweep** — on a dense grid (where the exact engine is
  genuinely expensive, the regime the surrogate exists for): how many
  scenarios per minute does surrogate screening sustain vs the exact
  batched engine, and do the exact-verified top-k droops respect their
  guard bounds?  DC droop-map features are disabled here so screening
  cost stays O(blocks) per scenario regardless of grid density.
* **Recall sweep** — on a small grid where exact-evaluating the *whole*
  pool is affordable: of the true top-k worst scenarios, how many did
  the screen shortlist, and was the single worst case among them?

:func:`run_surrogate_study` runs both and returns the
``repro.bench/v1`` ``surrogate`` report.  Gates: screening throughput
must beat exact by ``SPEEDUP_TARGET`` on the full profile, guard-bound
violations among exact-verified scenarios must be zero everywhere, and
the recall sweep must shortlist the true worst case.  The committed
``BENCH_surrogate.json`` was produced by::

    python -m repro.experiments.surrogate_study --out BENCH_surrogate.json

``--quick`` runs the CI-smoke profiles; the command exits nonzero when
any gate fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import repro.obs as obs
from repro.experiments.config import ChipConfig, DataConfig
from repro.experiments.data_generation import build_chip
from repro.obs.benchjson import emit_bench
from repro.surrogate import ScenarioSpace, SweepConfig, SweepResult, run_sweep

__all__ = [
    "SurrogateStudyProfile",
    "THROUGHPUT_PROFILE",
    "THROUGHPUT_QUICK_PROFILE",
    "RECALL_PROFILE",
    "RECALL_QUICK_PROFILE",
    "SPEEDUP_TARGET",
    "run_surrogate_study",
    "main",
]

#: Minimum screening-vs-exact throughput ratio on the full profile.
SPEEDUP_TARGET = 50.0


@dataclass(frozen=True)
class SurrogateStudyProfile:
    """One study sweep: a chip, a scenario space, and sweep knobs."""

    name: str
    chip: ChipConfig
    data: DataConfig
    sweep: SweepConfig


#: Dense-grid throughput profile: ~48k nodes, 120 blocks.  The node/
#: block ratio is what decides the attainable speedup — exact transient
#: cost scales with nodes x steps while screening scales with blocks x
#: steps — so this is the regime the surrogate is *for*.
THROUGHPUT_PROFILE = SurrogateStudyProfile(
    name="surrogate-throughput",
    chip=ChipConfig(
        core_cols=2, core_rows=2, template="xeon",
        grid_pitch=0.04, pad_pitch=2.0,
    ),
    data=DataConfig(
        benchmarks=("x264", "canneal", "swaptions", "dedup"),
        steps_per_benchmark=600, warmup_steps=60, record_every=2, seed=11,
    ),
    sweep=SweepConfig(
        n_train=32, n_pool=400, top_k=10, seed=5, dc_features=False,
    ),
)

#: CI smoke variant: the same shape at a fraction of the wall-clock.
THROUGHPUT_QUICK_PROFILE = SurrogateStudyProfile(
    name="surrogate-throughput-quick",
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="xeon",
        grid_pitch=0.1, pad_pitch=2.0,
    ),
    data=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=200, warmup_steps=40, record_every=2, seed=11,
    ),
    sweep=SweepConfig(
        n_train=16, n_pool=80, top_k=6, seed=5, dc_features=False,
    ),
)

#: Small-grid recall profile: exact-evaluating the full pool is cheap,
#: so true top-k recall and worst-case capture are measurable.
RECALL_PROFILE = SurrogateStudyProfile(
    name="surrogate-recall",
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    data=DataConfig(
        benchmarks=("x264", "canneal", "swaptions", "dedup"),
        steps_per_benchmark=300, warmup_steps=40, record_every=1, seed=11,
    ),
    sweep=SweepConfig(
        n_train=120, n_pool=240, top_k=20, seed=5, exact_pool=True,
    ),
)

#: CI smoke variant of the recall sweep.
RECALL_QUICK_PROFILE = SurrogateStudyProfile(
    name="surrogate-recall-quick",
    chip=ChipConfig(
        core_cols=2, core_rows=1, template="small",
        grid_pitch=0.2, pad_pitch=1.5,
    ),
    data=DataConfig(
        benchmarks=("x264", "canneal"),
        steps_per_benchmark=120, warmup_steps=24, record_every=2, seed=11,
    ),
    sweep=SweepConfig(
        n_train=48, n_pool=80, top_k=20, seed=5, exact_pool=True,
    ),
)


def _run_profile(profile: SurrogateStudyProfile) -> SweepResult:
    chip = build_chip(profile.chip)
    space = ScenarioSpace(benchmarks=profile.data.benchmarks)
    return run_sweep(chip, space, profile.data, profile.sweep)


def _throughput_section(
    profile: SurrogateStudyProfile, result: SweepResult, elapsed_s: float
) -> Dict:
    return {
        "profile": profile.name,
        "model": result.config.model,
        "n_train": result.config.n_train,
        "n_pool": result.config.n_pool,
        "top_k": result.config.top_k,
        "n_blocks": result.n_blocks,
        "elapsed_s": elapsed_s,
        "train_s": result.train_s,
        "screen_s": result.screen_s,
        "verify_s": result.verify_s,
        "screen_scenarios_per_min": result.screen_rate(),
        "exact_scenarios_per_min": result.exact_rate(),
        "speedup": result.speedup(),
        "fit_error_rms": result.fit_error_rms,
        "rank_agreement": result.rank_agreement,
        "guard_violations": result.guard_violations,
        "nominal_violations": result.nominal_violations,
        "nominal_coverage": result.coverage["nominal_coverage"],
        "guard_coverage": result.coverage["guard_coverage"],
        "calibration": result.calibration.to_dict(),
    }


def _recall_section(
    profile: SurrogateStudyProfile, result: SweepResult, elapsed_s: float
) -> Dict:
    recall = result.recall_at_k()
    hit = result.worst_case_hit()
    return {
        "profile": profile.name,
        "model": result.config.model,
        "n_train": result.config.n_train,
        "n_pool": result.config.n_pool,
        "top_k": result.config.top_k,
        "n_blocks": result.n_blocks,
        "elapsed_s": elapsed_s,
        "exact_pool_s": result.exact_pool_s,
        "recall_at_k": recall,
        # int, not bool: benchjson scalars are numeric.
        "worst_case_hit": int(bool(hit)),
        "guard_violations": result.guard_violations,
        "nominal_violations": result.nominal_violations,
        "nominal_coverage": result.coverage["nominal_coverage"],
        "rank_agreement": result.rank_agreement,
    }


def run_surrogate_study(quick: bool = False) -> Dict:
    """Run the throughput and recall sweeps; return the bench report.

    The report's ``problems`` list is the gate: a guard-bound violation
    in either sweep, a missed worst case in the recall sweep, or (full
    profile only) screening throughput below :data:`SPEEDUP_TARGET`
    each append an entry, and :func:`main` exits nonzero when any are
    present.
    """
    throughput_profile = THROUGHPUT_QUICK_PROFILE if quick else THROUGHPUT_PROFILE
    recall_profile = RECALL_QUICK_PROFILE if quick else RECALL_PROFILE
    problems: List[Dict] = []

    with obs.use_registry(obs.MetricsRegistry()) as registry:
        t0 = time.perf_counter()
        throughput_result = _run_profile(throughput_profile)
        throughput_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        recall_result = _run_profile(recall_profile)
        recall_s = time.perf_counter() - t0

        snapshot = registry.snapshot()
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(("surrogate.", "sweep."))
        }
        timers = {
            name: state
            for name, state in snapshot["timers"].items()
            if name.startswith("surrogate.")
        }

    throughput = _throughput_section(
        throughput_profile, throughput_result, throughput_s
    )
    recall = _recall_section(recall_profile, recall_result, recall_s)

    if throughput["guard_violations"] or recall["guard_violations"]:
        problems.append(
            {
                "kind": "guard_bound_violation",
                "throughput": throughput["guard_violations"],
                "recall": recall["guard_violations"],
            }
        )
    if not recall["worst_case_hit"]:
        problems.append(
            {
                "kind": "worst_case_missed",
                "top_k": recall["top_k"],
                "recall_at_k": recall["recall_at_k"],
            }
        )
    if not quick and throughput["speedup"] < SPEEDUP_TARGET:
        problems.append(
            {
                "kind": "speedup_below_target",
                "measured": throughput["speedup"],
                "target": SPEEDUP_TARGET,
            }
        )

    return {
        "mode": "surrogate",
        "profile": "quick" if quick else "full",
        "speedup_target": SPEEDUP_TARGET if not quick else None,
        "throughput": throughput,
        "recall": recall,
        "counters": counters,
        "timers": timers,
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Run the surrogate study and write its bench report."""
    parser = argparse.ArgumentParser(
        description="Benchmark the learned droop surrogate: screening "
        "throughput vs the exact engine on a dense grid, plus exact "
        "top-k recall on a small grid."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-smoke profiles (no speedup gate)",
    )
    parser.add_argument(
        "--out", default=None, metavar="BENCH_surrogate.json",
        help="write the repro.bench/v1 report to this path",
    )
    args = parser.parse_args(argv)

    report = run_surrogate_study(quick=args.quick)
    tp = report["throughput"]
    rc = report["recall"]
    print(f"surrogate profile: {report['profile']}  model: {tp['model']}")
    print(
        f"throughput [{tp['profile']}]: screen "
        f"{tp['screen_scenarios_per_min']:,.0f}/min vs exact "
        f"{tp['exact_scenarios_per_min']:,.0f}/min  "
        f"speedup {tp['speedup']:.1f}x  "
        f"guard_violations={tp['guard_violations']}  "
        f"nominal_coverage={tp['nominal_coverage']:.3f}"
    )
    print(
        f"recall [{rc['profile']}]: recall@{rc['top_k']} "
        f"{rc['recall_at_k']:.2f}  worst_case_hit="
        f"{bool(rc['worst_case_hit'])}  "
        f"guard_violations={rc['guard_violations']}  "
        f"rank_agreement={rc['rank_agreement']:.2f}"
    )
    return emit_bench(report, args.out)


if __name__ == "__main__":
    sys.exit(main())
