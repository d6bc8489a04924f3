"""Benchmarks of strong-rule screening against the dense path.

Two claims, measured on the synthetic sparse problems the tier-1 audit
in ``tests/test_screening.py`` uses at smaller sizes:

* at M = 3000 candidates, where the dense Gram still fits, the screened
  warm-started budget sweep selects exactly the dense sweep's sets and
  is faster;
* at M = 100 000, where the dense Gram would take 76 GB, the screened
  sweep's measured peak memory is at least 5× below that Gram.

Every screened solve is audited for uncaught KKT violations.  Run with
``-s`` to see the measured ratios.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from benchmarks.conftest import run_once
from tests.test_screening import budget_sweep, sweep_problem, uncaught_kkt


def _timed_peak(fn, *args, **kwargs):
    """``(result, seconds, peak traced MB)`` of one call."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, elapsed, peak / 2**20


@pytest.mark.benchmark(group="screening")
def test_screened_matches_dense_and_is_faster(benchmark):
    Z, G = sweep_problem(3000, seed=0)
    (dense_sets, _), dense_s, dense_mb = _timed_peak(
        budget_sweep, Z, G, screen=False
    )
    (sets, results), screened_s, screened_mb = run_once(
        benchmark, _timed_peak, budget_sweep, Z, G, screen=True
    )
    print(
        f"\nM=3000: dense {dense_s:.2f} s / {dense_mb:.1f} MB, screened "
        f"{screened_s:.2f} s / {screened_mb:.1f} MB "
        f"({dense_s / screened_s:.1f}x time, "
        f"{dense_mb / max(screened_mb, 1e-9):.1f}x memory)"
    )
    assert sets == dense_sets
    assert uncaught_kkt(Z, G, results) == 0
    assert screened_s < dense_s


@pytest.mark.benchmark(group="screening")
def test_screened_memory_far_below_dense_gram(benchmark):
    n_candidates = 100_000
    Z, G = sweep_problem(n_candidates, seed=1)
    (sets, results), screened_s, peak_mb = run_once(
        benchmark, _timed_peak, budget_sweep, Z, G, screen=True
    )
    dense_gram_mb = n_candidates * n_candidates * 8 / 2**20
    reduction = dense_gram_mb / max(peak_mb, 1e-9)
    print(
        f"\nM={n_candidates}: screened {screened_s:.2f} s, peak "
        f"{peak_mb:.1f} MB vs dense Gram {dense_gram_mb:.0f} MB "
        f"({reduction:.0f}x); selected {[len(s) for s in sets]}"
    )
    assert uncaught_kkt(Z, G, results) == 0
    assert reduction >= 5.0
