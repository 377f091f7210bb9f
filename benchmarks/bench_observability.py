"""Instrumentation overhead guarantee.

The observability layer (``repro.obs``) instruments ``Scheduler.schedule``
and the simulator hot path; this file asserts the price is acceptable:
with tracing *disabled* (the default), the instrumented entry point must
stay within 5% of calling the bare algorithm directly.

Methodology: best-of-N timing (min over repeats of a small averaged inner
loop) of ``sched.schedule(graph)`` — validation + instrumentation — versus
``graph.validate(); sched._schedule(graph)`` — validation only.  Min-of-N
is robust to scheduler jitter on shared machines.  The measured overheads
are recorded into the process metrics registry, so they are written to
``benchmarks/out/BENCH_observability.json`` with the rest of the timing
baseline (see ``conftest.observability_baseline``).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import pytest

from repro.generation.random_dag import generate_pdg
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.schedulers import get_scheduler

#: Tier-1 acceptance bound: disabled-tracing overhead below 5%.
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def standard_graph():
    rng = np.random.default_rng(42)
    return generate_pdg(
        rng, n_tasks=80, band=2, anchor=3, weight_range=(20, 200)
    )


def _best_of(fn, *, repeats: int = 9, inner: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (perf_counter() - start) / inner)
    return best


@pytest.mark.parametrize("name", ["DSC", "MCP", "HU"])
def test_disabled_tracing_overhead_under_5pct(name, standard_graph):
    assert not get_tracer().enabled, "overhead bound only applies untraced"
    sched = get_scheduler(name)

    def bare():
        standard_graph.validate()
        sched._schedule(standard_graph)

    bare()  # warm caches before timing either variant
    raw = _best_of(bare)
    instrumented = _best_of(lambda: sched.schedule(standard_graph))
    overhead = instrumented / raw - 1.0
    # Recorded signed: timing noise can make the instrumented call faster.
    get_registry().observe(
        f"bench.obs_overhead_pct.{name}", round(overhead * 100, 3)
    )
    assert overhead < MAX_OVERHEAD, (
        f"{name}: instrumented {instrumented * 1e3:.3f}ms vs bare "
        f"{raw * 1e3:.3f}ms = {overhead * 100:.2f}% overhead"
    )


def test_enabled_tracing_records_spans(standard_graph):
    """Sanity: the same call under an enabled tracer produces spans."""
    sched = get_scheduler("DSC")
    with use_tracer(Tracer()) as tracer:
        sched.schedule(standard_graph)
    assert len(tracer.spans("schedule.DSC")) == 1
