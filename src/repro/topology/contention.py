"""One-port communication contention — stressing the paper's assumption 4.

The paper's model lets communication overlap computation without limit:
a processor can send any number of messages simultaneously.  Real NICs
serialize.  The classic *one-port* model gives every processor one send
port and one receive port; each transfer occupies its sender's send port
and its receiver's receive port for the full edge weight.

:func:`simulate_one_port` times a processor assignment under that model
(greedy, messages issued in task order), so any heuristic's clustering can
be re-evaluated with contention: the gap against the contention-free
simulator quantifies how much that heuristic leans on assumption 4.
Same-processor data passing remains free.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..core.exceptions import ScheduleError
from ..core.schedule import Schedule
from ..core.simulator import _priority_order
from ..core.taskgraph import Task, TaskGraph

__all__ = ["Transfer", "OnePortResult", "simulate_one_port"]


@dataclass(frozen=True)
class Transfer:
    """One cross-processor message in the one-port timing."""

    src: Task
    dst: Task
    start: float
    finish: float
    from_proc: int
    to_proc: int


@dataclass(frozen=True)
class OnePortResult:
    """Tasks plus the message log of a one-port simulation."""

    schedule: Schedule
    transfers: tuple[Transfer, ...]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def port_busy_time(self) -> float:
        """Total time spent on transfers (each counted once)."""
        return sum(t.finish - t.start for t in self.transfers)


def simulate_one_port(
    graph: TaskGraph,
    assignment: Mapping[Task, int],
    *,
    priority: Mapping[Task, float] | None = None,
) -> OnePortResult:
    """Time an assignment with one send and one receive port per processor.

    Tasks run in a priority-topological order per processor (as in the
    contention-free simulator); each cross-processor input is fetched by a
    transfer that must reserve the sender's send port and the receiver's
    receive port, both for the edge weight.  Transfers are issued greedily
    in task order (heaviest-priority consumers fetch first), which keeps
    the simulation deterministic.
    """
    tasks = set(graph.tasks())
    if set(assignment) != tasks:
        raise ScheduleError("assignment does not cover exactly the graph's tasks")

    schedule = Schedule()
    transfers: list[Transfer] = []
    proc_free: dict[int, float] = {}
    send_free: dict[int, float] = {}
    recv_free: dict[int, float] = {}

    for t in _priority_order(graph, priority):
        p = assignment[t]
        start = proc_free.get(p, 0.0)
        for pred, c in graph.in_edges(t).items():
            q = assignment[pred]
            if q == p:
                arrival = schedule.finish(pred)
            elif c == 0.0:
                arrival = schedule.finish(pred)
            else:
                xfer_start = max(
                    schedule.finish(pred),
                    send_free.get(q, 0.0),
                    recv_free.get(p, 0.0),
                )
                arrival = xfer_start + c
                send_free[q] = arrival
                recv_free[p] = arrival
                transfers.append(
                    Transfer(pred, t, xfer_start, arrival, q, p)
                )
            if arrival > start:
                start = arrival
        schedule.place(t, p, start, graph.weight(t))
        proc_free[p] = schedule.finish(t)
    return OnePortResult(schedule, tuple(transfers))
