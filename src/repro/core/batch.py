"""Up-front level analysis for many graphs: prime the per-graph memos.

The schedulers rank tasks by levels computed lazily by the compiled
kernels in :mod:`repro.core.kernels` and memoized on each
:class:`~repro.core.taskgraph.TaskGraph`.  :func:`batch_analyze` runs those
same accessors over a sequence of graphs ahead of time — t/b-levels with
and without communication, ALAP times and, optionally, the section-3
serial time and granularity — so the memos are warm before the graphs are
scheduled.  The primed values are the kernels' values by construction;
consumers that never call it compute the same numbers on demand.

What it adds over calling the accessors directly is the
:class:`BatchReport`: compiling a cyclic graph raises
:class:`~repro.core.exceptions.CycleError`, and instead of propagating it
:func:`batch_analyze` records the graph's input position in
``report.skipped``.  Callers that mutate graphs (the adversarial search)
check it to catch a bad mutation before scoring.

Observability: each call is timed into the ``batch.analyze`` timer (and a
``batch.analyze`` tracer span when tracing is on), analyzed graphs count
as ``batch.graphs``, cyclic graphs as ``batch.skipped_cyclic``; the index
compile is cached and counted by the existing ``kernels.cache.*`` wiring.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .exceptions import CycleError, GraphError
from .kernels import alap_arr, b_levels_arr, graph_index, t_levels_arr
from .metrics import granularity
from .taskgraph import TaskGraph

__all__ = ["BatchReport", "batch_analyze"]


class BatchReport(int):
    """The number of graphs a :func:`batch_analyze` call primed, plus the
    input positions it *refused*.

    An ``int`` subclass so every existing ``batch_analyze(...) == n`` /
    truthiness use keeps working; :attr:`skipped` carries the 0-based
    positions (into the call's input iterable, before deduplication) of
    graphs skipped because compiling them raised
    :class:`~repro.core.exceptions.CycleError`.  Callers that mutate
    graphs — the adversarial search — check ``report.skipped`` to catch a
    bad mutation instead of scoring a graph that cannot be scheduled.
    """

    skipped: tuple[int, ...]

    def __new__(cls, analyzed: int = 0, skipped: tuple[int, ...] = ()) -> "BatchReport":
        self = super().__new__(cls, analyzed)
        self.skipped = tuple(skipped)
        return self

    def __repr__(self) -> str:
        return f"BatchReport(analyzed={int(self)}, skipped={self.skipped})"


def batch_analyze(
    graphs: Iterable[TaskGraph], *, classify: bool = True
) -> BatchReport:
    """Prime the level memos of many graphs, reporting cyclic ones.

    For each distinct graph (deduplicated by identity), compiles its
    :class:`~repro.core.kernels.GraphIndex` through the
    :func:`~repro.core.kernels.graph_index` cache and evaluates the
    memoized level accessors the schedulers read.  With ``classify=True``
    the section-3 serial time and granularity are primed as well; graphs
    whose granularity is undefined are left unprimed for it, so
    :func:`~repro.core.metrics.granularity` still raises on demand.

    Returns a :class:`BatchReport` — the number of graphs analyzed (it
    compares equal to a plain ``int``), carrying the input positions of
    any cyclic graphs in ``skipped``.  Never raises for individual cyclic
    graphs: they are skipped with a ``batch.skipped_cyclic`` counter bump
    (the per-graph path raises :class:`CycleError` on demand).
    """
    registry = get_registry()
    tracer = get_tracer()
    analyzed = 0
    skipped: list[int] = []
    seen: set[int] = set()
    with registry.timer("batch.analyze"), (
        tracer.span("batch.analyze", cat="batch")
        if tracer.enabled
        else nullcontext()
    ):
        for pos, g in enumerate(graphs):
            if id(g) in seen:
                continue
            seen.add(id(g))
            try:
                graph_index(g)
            except CycleError:
                skipped.append(pos)
                continue
            t_levels_arr(g, communication=True)
            b_levels_arr(g, communication=True)
            b_levels_arr(g, communication=False)
            alap_arr(g, communication=True)
            if classify:
                g.serial_time()
                try:
                    granularity(g)
                except GraphError:
                    pass
            analyzed += 1
    if skipped:
        registry.inc("batch.skipped_cyclic", len(skipped))
    if analyzed:
        registry.inc("batch.graphs", analyzed)
    return BatchReport(analyzed, tuple(skipped))
