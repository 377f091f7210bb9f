"""MH — the Mapping Heuristic of Lewis & El-Rewini.

Appendix A.3 / Figure 11 of the paper.  A modified list scheduler:

* a zero-cost exit node is (conceptually) inserted, so each task's priority
  is the Gerasoulis/Yang *level* — the communication-inclusive bottom level;
* the free list holds every task whose predecessors are all scheduled,
  ordered by level;
* each task is allocated to the processor — existing or fresh — on which it
  could **start earliest**, accounting for message arrival times;
* an event list releases successors: following Figure 11, the current free
  list is drained completely before the event list is processed, so tasks
  are scheduled in level order within release "waves".

MH also supports fitting to specific network topologies; on the paper's
fully connected model that feature is a no-op (section A.3), so this
implementation does not model topology.
"""

from __future__ import annotations

import heapq

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class MHScheduler(Scheduler):
    """Level-priority list scheduling with earliest-start processor choice."""

    name = "MH"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        # The inserted exit node has weight 0 and zero-cost in-edges, so the
        # level it induces equals the plain communication-inclusive b-level.
        level = b_levels_arr(graph, communication=True)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        indeg = gi.in_degree
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        free = [(-level[i], i) for i in range(gi.n) if indeg[i] == 0]
        heapq.heapify(free)
        events: list[tuple[float, int]] = []
        n_done = 0

        while n_done < gi.n:
            # Drain the free list: allocate every currently-free task.
            while free:
                _, i = heapq.heappop(free)
                proc, start = pool.best_processor(i, insertion=False)
                pool.place(i, proc, start)
                heapq.heappush(events, (pool.finish[i], i))
                n_done += 1
            # Drain the event list, releasing satisfied successors.
            while events:
                _, i = heapq.heappop(events)
                for j, _ in succ_rows[i]:
                    n_sched_preds[j] += 1
                    if n_sched_preds[j] == indeg[j]:
                        heapq.heappush(free, (-level[j], j))
        return pool.schedule
