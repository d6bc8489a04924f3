"""Shared schema and writer for the ``repro.bench/v1`` reports.

Two study modules write benchmark reports:
``python -m repro.experiments.tournament`` (the placement leaderboard,
``results/leaderboard.json``) and
``python -m repro.experiments.surrogate_study`` (``BENCH_surrogate.json``).
This module pins their contract down:

* :data:`BENCH_SCHEMA` — the schema tag stamped into every report
  (:func:`stamp_bench`).
* :func:`infer_mode` — the (explicit) mode of a report.
* :func:`validate_bench` — structural validation.
* :func:`emit_bench` — the shared stamp → validate → write → exit-code
  tail of both study CLIs.
* :func:`normalize_bench` — flattens either mode into the common
  ``{counters, timers, scalars}`` shape that
  :mod:`repro.obs.report` diffs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "BENCH_SCHEMA",
    "MODES",
    "infer_mode",
    "stamp_bench",
    "validate_bench",
    "emit_bench",
    "normalize_bench",
]

#: Schema tag stamped into every bench report.
BENCH_SCHEMA = "repro.bench/v1"

#: The benchmark report modes.
MODES = ("tournament", "surrogate")

#: Fields every report of a mode must carry to be considered valid.
_REQUIRED_FIELDS = {
    "tournament": ("budget", "placers", "scenarios", "entries", "problems"),
    "surrogate": (
        "throughput", "recall", "counters", "problems",
    ),
}


def infer_mode(doc: Dict[str, Any]) -> str:
    """The benchmark mode of ``doc`` (its ``mode`` field).

    Raises
    ------
    ValueError
        If the mode is missing or unknown.
    """
    mode = doc.get("mode")
    if mode not in MODES:
        raise ValueError(f"cannot determine benchmark mode: mode={mode!r}")
    return str(mode)


def stamp_bench(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp ``schema`` and ``mode`` into a report (in place; returned)."""
    doc["mode"] = infer_mode(doc)
    doc["schema"] = BENCH_SCHEMA
    return doc


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Structural problems of a bench report (empty list = valid).

    A wrong schema tag, an undeterminable mode, missing required
    fields, or non-numeric counters are each one problem string.
    """
    problems: List[str] = []
    schema = doc.get("schema")
    if schema is not None and schema != BENCH_SCHEMA:
        problems.append(f"unknown schema {schema!r} (expected {BENCH_SCHEMA!r})")
    try:
        mode = infer_mode(doc)
    except ValueError as exc:
        problems.append(str(exc))
        return problems
    for field in _REQUIRED_FIELDS[mode]:
        if field not in doc:
            problems.append(f"{mode} report missing field {field!r}")
    counters = doc.get("counters")
    if counters is not None:
        if not isinstance(counters, dict):
            problems.append("'counters' must be a mapping")
        else:
            for name, value in counters.items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"counter {name!r} has non-numeric value {value!r}"
                    )
    return problems


def emit_bench(report: Dict[str, Any], out: Optional[str] = None) -> int:
    """Stamp, validate and write ``report``; return the exit code.

    Validation runs even when no ``out`` path is given, so a quick
    smoke run catches a report that drifts from the schema; a report
    that fails it raises ``SystemExit``.  The report's ``problems``
    list is printed and maps to exit code 1.
    """
    stamp_bench(report)
    issues = validate_bench(report)
    if issues:
        raise SystemExit("invalid bench report: " + "; ".join(issues))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")
    problems = report.get("problems", [])
    if problems:
        print(f"{len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


def _scalar(out: Dict[str, float], doc: Dict[str, Any], *names: str) -> None:
    """Copy numeric fields of ``doc`` into ``out`` when present."""
    for name in names:
        value = doc.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)


def normalize_bench(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten a bench report into ``{mode, counters, timers, scalars}``.

    ``counters`` are exact event counts, ``timers`` percentile-summary
    dicts (bench reports have none — manifests do), and ``scalars``
    everything else numeric: wall-clock seconds, speedups, and
    per-placer error figures keyed ``overall_error[placer=qr_pivot]``.
    The report CLI classifies entries by name, so the keys here are
    the contract.
    """
    mode = infer_mode(doc)
    counters = doc.get("counters", {})
    scalars: Dict[str, float] = {}

    if mode == "tournament":
        for entry in doc.get("entries", []):
            placer = entry.get("placer")
            tag = f"[placer={placer}]" if placer else ""
            for field in (
                "overall_error", "worst_degraded_error",
                "detected_fraction", "place_s",
            ):
                value = entry.get(field)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    scalars[f"{field}{tag}"] = float(value)
            nominal = entry.get("nominal")
            if isinstance(nominal, dict):
                value = nominal.get("relative_error")
                if isinstance(value, (int, float)):
                    scalars[f"nominal_error{tag}"] = float(value)
    else:  # surrogate
        throughput = doc.get("throughput", {})
        if isinstance(throughput, dict):
            _scalar(
                scalars, throughput,
                "screen_scenarios_per_min", "exact_scenarios_per_min",
                "speedup", "n_pool", "top_k",
                "guard_violations", "nominal_violations",
                "rank_agreement", "fit_error_rms",
                "nominal_coverage", "guard_coverage",
            )
        recall = doc.get("recall", {})
        if isinstance(recall, dict):
            # Prefixed so the recall sweep's figures cannot collide
            # with the throughput sweep's in the flat scalar namespace.
            sub: Dict[str, float] = {}
            _scalar(
                sub, recall,
                "recall_at_k", "worst_case_hit", "n_pool", "top_k",
                "guard_violations", "nominal_coverage",
            )
            scalars.update({f"recall.{k}": v for k, v in sub.items()})
    scalars["problems"] = float(len(doc.get("problems", [])))

    return {
        "kind": "bench",
        "mode": mode,
        "counters": {str(k): float(v) for k, v in counters.items()},
        "timers": {},
        "scalars": scalars,
    }
