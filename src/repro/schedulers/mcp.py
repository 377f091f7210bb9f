"""MCP — the Modified Critical Path algorithm of Wu & Gajski.

Appendix A.2 / Figure 9 of the paper.  The heuristic:

1. computes each task's ALAP start time ``T_L`` (latest start that keeps the
   communication-inclusive critical path), so critical tasks get the
   smallest ``T_L``;
2. associates with every task the sorted list of the ``T_L`` values of the
   task and all its descendants, and orders tasks by lexicographic
   comparison of those lists — most critical first.  (The paper's Figure 9
   says "sort in decreasing order and schedule head(L)", which would place
   sinks before their predecessors; we follow the published MCP ordering —
   smallest ALAP first — which is also a topological order, see DESIGN.md.)
3. places each task, in that order, on the processor (existing or fresh)
   giving the earliest start time, with idle-slot insertion.
"""

from __future__ import annotations

from ..core.kernels import (
    GraphIndex,
    IndexedPool,
    alap_arr,
    descendant_masks,
    graph_index,
)
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register


@register
class MCPScheduler(Scheduler):
    """ALAP-priority list scheduling with idle-slot insertion."""

    name = "MCP"

    def __init__(
        self, *, insertion: bool = True, max_processors: int | None = None
    ) -> None:
        #: When False, tasks are only appended after a processor's last task.
        #: Exposed for the ablation benchmark (DESIGN.md section 8).
        self.insertion = insertion
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant.
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        order = self._priority_order_ids(graph, gi)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        weights = gi.weights
        n_slot_insertions = 0
        for i in order:
            proc, start = pool.best_processor(i, insertion=self.insertion)
            if (
                self.insertion
                and proc < pool.n_processors
                and start + weights[i] <= pool.avail(proc) - 1e-12
            ):
                # placed into an idle gap, not appended after the last task
                n_slot_insertions += 1
            pool.place(i, proc, start)
        registry = get_registry()
        if self.insertion:
            registry.inc("mcp.insertion_attempts", len(order))
        registry.inc("mcp.slot_insertions", n_slot_insertions)
        return pool.schedule

    @staticmethod
    def _priority_order_ids(graph: TaskGraph, gi: GraphIndex) -> list[int]:
        """:meth:`priority_order` on integer ids.

        Each task's key is its own ALAP time followed by its descendants',
        sorted ascending, then its id (= insertion order) as the tie-break.
        Descendant sets come from one reverse-topological bitmask sweep.
        """
        alap = alap_arr(graph, communication=True)
        masks = descendant_masks(gi)
        keys: list[tuple[tuple[float, ...], int]] = []
        for i in range(gi.n):
            vals = [alap[i]]
            m = masks[i]
            while m:
                lsb = m & -m
                vals.append(alap[lsb.bit_length() - 1])
                m ^= lsb
            vals.sort()
            keys.append((tuple(vals), i))
        return sorted(range(gi.n), key=keys.__getitem__)

    @staticmethod
    def priority_order(graph: TaskGraph) -> list[Task]:
        """Tasks ordered most-critical-first by (own ALAP, descendant ALAPs).

        Every ancestor has a strictly smaller ALAP time than its descendants
        (node weights are positive along the connecting path), so the order
        is topological.
        """
        gi = graph_index(graph)
        tasks = gi.tasks
        return [tasks[i] for i in MCPScheduler._priority_order_ids(graph, gi)]
