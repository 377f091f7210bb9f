"""A contention-aware list scheduler for the one-port model.

:mod:`repro.topology.contention` showed that schedules built for the
paper's free-overlap model degrade badly when ports serialize.  This
scheduler plans *with* the port constraints: an MH-style list scheduler
whose placement rule evaluates, for each candidate processor, the true
one-port start time — reserving the sender/receiver ports for every fetch
it would trigger — and commits the reservations of the chosen candidate.

The benchmark compares it against re-timed contention-blind heuristics:
planning with the real model should recover much of the penalty.
"""

from __future__ import annotations

from ..core.exceptions import GraphError
from ..core.kernels import b_levels_arr, graph_index, priority_topo_order_idx
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph

__all__ = ["PortAwareScheduler"]


class PortAwareScheduler:
    """List scheduling that plans around one-port communication."""

    def __init__(self, *, max_processors: int | None = None) -> None:
        if max_processors is not None and max_processors < 1:
            raise GraphError("max_processors must be >= 1")
        self.max_processors = max_processors
        self.name = "MH1P"
        #: Transfers committed by the last schedule() call.
        self.last_transfers: list[tuple[Task, Task, float, float]] = []

    def schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule under the one-port model (see module docstring)."""
        if graph.n_tasks == 0:
            raise GraphError("MH1P: cannot schedule an empty graph")
        graph.validate()
        gi = graph_index(graph)
        seq = gi.index_of

        schedule = Schedule()
        proc_of: dict[Task, int] = {}
        proc_free: list[float] = []
        send_free: list[float] = []
        recv_free: list[float] = []
        self.last_transfers = []

        def plan(task: Task, proc: int):
            """(start, port reservations) for placing ``task`` on ``proc``."""
            fresh = proc == len(proc_free)
            start = 0.0 if fresh else proc_free[proc]
            recv_cursor = 0.0 if fresh else recv_free[proc]
            reservations = []  # (src_proc, xfer_start, xfer_finish, pred)
            # fetch in deterministic pred order (heaviest message first —
            # long transfers should not wait behind short ones)
            preds = sorted(
                graph.in_edges(task).items(), key=lambda kv: (-kv[1], seq[kv[0]])
            )
            send_cursor = dict()  # local view of send ports
            for pred, c in preds:
                q = proc_of[pred]
                if q == proc or c == 0.0:
                    arrival = schedule.finish(pred)
                else:
                    s_free = send_cursor.get(q, send_free[q])
                    xfer = max(schedule.finish(pred), s_free, recv_cursor)
                    arrival = xfer + c
                    send_cursor[q] = arrival
                    recv_cursor = arrival
                    reservations.append((q, xfer, arrival, pred))
                if arrival > start:
                    start = arrival
            return start, recv_cursor, reservations

        # the free list pops by (-level, seq) and never depends on placements
        order = priority_topo_order_idx(gi, b_levels_arr(graph, communication=True))
        for task in map(gi.tasks.__getitem__, order):
            can_grow = (
                self.max_processors is None or len(proc_free) < self.max_processors
            )
            candidates = list(range(len(proc_free))) + (
                [len(proc_free)] if can_grow or not proc_free else []
            )
            best = None
            for proc in candidates:
                start, recv_cursor, reservations = plan(task, proc)
                key = (start, proc)
                if best is None or key < best[0]:
                    best = (key, proc, start, recv_cursor, reservations)
            assert best is not None
            _, proc, start, recv_cursor, reservations = best
            if proc == len(proc_free):
                proc_free.append(0.0)
                send_free.append(0.0)
                recv_free.append(0.0)
            for q, xfer, arrival, pred in reservations:
                send_free[q] = max(send_free[q], arrival)
                self.last_transfers.append((pred, task, xfer, arrival))
            recv_free[proc] = max(recv_free[proc], recv_cursor)
            schedule.place(task, proc, start, graph.weight(task))
            proc_free[proc] = schedule.finish(task)
            proc_of[task] = proc
        return schedule
