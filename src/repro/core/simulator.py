"""Shared execution-timing simulator.

The paper's testbed judges every heuristic under one execution model
(section 2).  The clustering heuristics (DSC, CLANS) produce *clusters* —
processor assignments with a per-processor execution order — and this module
turns such a clustering into a timed :class:`~repro.core.schedule.Schedule`
using the shared model:

    start(t) = max( processor free time,
                    max over predecessors p of
                        finish(p) + c(p, t) * [proc(p) != proc(t)] )

Communication overlaps computation (assumption 4): producers are never
blocked by sends, and multicasts are free.

Two entry points:

* :func:`simulate_ordered` — the caller supplies per-processor task orders.
* :func:`simulate_clustering` — the caller supplies only the assignment;
  orders are derived from a priority (b-level by default), which is the
  convention in the clustering literature.

Both run on the compiled :class:`~repro.core.kernels.GraphIndex`.  A cyclic
graph cannot be compiled; both entry points report it as a
:class:`~repro.core.exceptions.ScheduleError` (``simulate_ordered`` as a
clustering deadlock, ``simulate_clustering`` as a cycle).  ``validate``
(default True) checks that the clustering covers exactly the graph's task
set; internal callers that construct clusterings from the graph itself pass
``validate=False`` to skip the per-call set rebuilds.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..obs.metrics import get_registry
from .exceptions import CycleError, ScheduleError
from .kernels import (
    GraphIndex,
    b_levels_arr,
    graph_index,
    priority_topo_order_idx,
    simulate_ordered_idx,
)
from .schedule import Schedule
from .taskgraph import Task, TaskGraph

__all__ = ["simulate_ordered", "simulate_clustering", "serial_schedule"]


def _compiled(graph: TaskGraph, cycle_message: str) -> GraphIndex:
    """The graph's index; a cyclic graph raises ``ScheduleError(cycle_message)``."""
    try:
        return graph_index(graph)
    except CycleError as err:
        raise ScheduleError(cycle_message) from err


def _validate_clusters(graph: TaskGraph, clusters: Sequence[Sequence[Task]]) -> None:
    """Check that ``clusters`` partitions exactly the graph's task set."""
    seen: dict[Task, int] = {}
    for i, cluster in enumerate(clusters):
        for t in cluster:
            if t in seen:
                raise ScheduleError(f"task {t!r} appears in more than one cluster")
            seen[t] = i
    missing = set(graph.tasks()) - set(seen)
    if missing:
        raise ScheduleError(f"tasks not clustered: {sorted(map(repr, missing))}")
    extra = set(seen) - set(graph.tasks())
    if extra:
        raise ScheduleError(f"unknown tasks clustered: {sorted(map(repr, extra))}")


def _count_run(events: int) -> None:
    registry = get_registry()
    registry.inc("simulator.runs")
    registry.inc("simulator.events", events)


def simulate_ordered(
    graph: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    *,
    validate: bool = True,
) -> Schedule:
    """Time a clustering whose per-processor execution order is fixed.

    ``clusters[i]`` is the ordered task list of processor ``i``.  Every task
    must appear exactly once (checked when ``validate`` is True, the
    default; internal callers that construct the clustering from the graph's
    own task set pass ``validate=False``).  The combined constraints (DAG
    precedence plus cluster order) must be acyclic, otherwise the clustering
    deadlocks and a :class:`ScheduleError` is raised.
    """
    if validate:
        _validate_clusters(graph, clusters)

    gi = _compiled(
        graph, "clustering deadlocks: cluster orders conflict with precedence"
    )
    index_of = gi.index_of
    clusters_idx = [[index_of[t] for t in cluster] for cluster in clusters]
    schedule, done = simulate_ordered_idx(gi, clusters_idx)
    _count_run(done)
    return schedule


def simulate_clustering(
    graph: TaskGraph,
    assignment: Mapping[Task, int],
    *,
    priority: Mapping[Task, float] | None = None,
    validate: bool = True,
) -> Schedule:
    """Time a processor assignment, deriving per-processor execution orders.

    Tasks are laid out in a global topological order sorted by descending
    ``priority`` (communication-inclusive b-level when omitted); each
    processor executes its tasks in that order.  Because each cluster order
    is a subsequence of one global topological order, the result never
    deadlocks.  ``validate=False`` skips the assignment-coverage check for
    internal callers that assign from the graph's own task set.
    """
    if validate:
        tasks = set(graph.tasks())
        if set(assignment) != tasks:
            raise ScheduleError("assignment does not cover exactly the graph's tasks")

    gi = _compiled(graph, "graph contains a cycle")
    order = _priority_order_idx(graph, gi, priority)
    procs = sorted(set(assignment.values()))
    remap = {p: i for i, p in enumerate(procs)}
    proc_arr = [0] * gi.n
    index_of = gi.index_of
    for t, p in assignment.items():
        proc_arr[index_of[t]] = remap[p]
    clusters_idx: list[list[int]] = [[] for _ in procs]
    for i in order:
        clusters_idx[proc_arr[i]].append(i)
    schedule, done = simulate_ordered_idx(gi, clusters_idx)
    _count_run(done)
    return schedule


def serial_schedule(graph: TaskGraph) -> Schedule:
    """All tasks on processor 0 in topological order — the serial baseline."""
    return simulate_ordered(graph, [graph.topological_order()], validate=False)


def _priority_order_idx(
    graph: TaskGraph, gi: GraphIndex, priority: Mapping[Task, float] | None
) -> list[int]:
    """Topological order of task ids, larger ``priority`` first.

    ``priority`` defaults to the communication-inclusive b-level; ties break
    on insertion order.
    """
    if priority is None:
        prio = b_levels_arr(graph, communication=True)
    else:
        prio = [priority[t] for t in gi.tasks]
    return priority_topo_order_idx(gi, prio)


def _priority_order(
    graph: TaskGraph, priority: Mapping[Task, float] | None = None
) -> list[Task]:
    """Tasks in :func:`_priority_order_idx` order; cycles raise ``ScheduleError``."""
    gi = _compiled(graph, "graph contains a cycle")
    tasks = gi.tasks
    return [tasks[i] for i in _priority_order_idx(graph, gi, priority)]
