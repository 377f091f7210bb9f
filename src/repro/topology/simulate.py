"""Timing and validation under a processor-network topology.

The only change from the uniform model (:mod:`repro.core.simulator`) is the
communication rule: a message of edge weight ``c`` between processors ``p``
and ``q`` arrives after ``c * distance(p, q)`` — store-and-forward along a
shortest path, no link contention.  A fully connected topology therefore
reproduces the paper's model exactly.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..core.exceptions import ScheduleError
from ..core.schedule import Schedule
from ..core.simulator import _priority_order
from ..core.taskgraph import Task, TaskGraph
from .networks import Topology

__all__ = ["simulate_on_topology", "validate_on_topology"]

_EPS = 1e-9


def simulate_on_topology(
    graph: TaskGraph,
    assignment: Mapping[Task, int],
    topology: Topology,
    *,
    priority: Mapping[Task, float] | None = None,
) -> Schedule:
    """Time a processor assignment on ``topology``.

    Per-processor orders are derived from ``priority`` (default b-level),
    as in :func:`repro.core.simulator.simulate_clustering`.
    """
    tasks = set(graph.tasks())
    if set(assignment) != tasks:
        raise ScheduleError("assignment does not cover exactly the graph's tasks")
    for t, p in assignment.items():
        if not 0 <= p < topology.n_processors:
            raise ScheduleError(
                f"task {t!r} assigned to processor {p} outside {topology!r}"
            )

    schedule = Schedule()
    proc_free: dict[int, float] = {}
    for t in _priority_order(graph, priority):
        p = assignment[t]
        start = proc_free.get(p, 0.0)
        for pred, c in graph.in_edges(t).items():
            arrival = schedule.finish(pred) + c * topology.distance(
                assignment[pred], p
            )
            if arrival > start:
                start = arrival
        schedule.place(t, p, start, graph.weight(t))
        proc_free[p] = schedule.finish(t)
    return schedule


def validate_on_topology(
    schedule: Schedule, graph: TaskGraph, topology: Topology
) -> None:
    """Check a schedule against the topology-scaled communication rule.

    Mirrors :meth:`Schedule.validate` with the hop-scaled arrival times.
    """
    placed = {p.task for p in schedule}
    if placed != set(graph.tasks()):
        raise ScheduleError("schedule does not cover exactly the graph's tasks")
    for p in schedule:
        if not 0 <= p.processor < topology.n_processors:
            raise ScheduleError(
                f"task {p.task!r} on processor {p.processor} outside {topology!r}"
            )
        expect = graph.weight(p.task)
        if abs((p.finish - p.start) - expect) > _EPS:
            raise ScheduleError(f"task {p.task!r} has wrong duration")
    for proc in schedule.processors:
        row = schedule.tasks_on(proc)
        for a, b in zip(row, row[1:]):
            if b.start < a.finish - _EPS:
                raise ScheduleError(
                    f"tasks {a.task!r} and {b.task!r} overlap on processor {proc}"
                )
    for u, v in graph.edges():
        pu, pv = schedule[u], schedule[v]
        arrival = pu.finish + graph.edge_weight(u, v) * topology.distance(
            pu.processor, pv.processor
        )
        if pv.start < arrival - _EPS:
            raise ScheduleError(
                f"task {v!r} starts before its input from {u!r} arrives "
                f"over the network"
            )
