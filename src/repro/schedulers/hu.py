"""HU — Lewis & El-Rewini's communication-cost variant of Hu's algorithm.

Appendix A.4 / Figure 13 of the paper.  Tasks are prioritized by the
classical Hu level (the communication-*free* bottom level) and released in a
free list once all predecessors are scheduled.  Each task is assigned to the
processor that is **free earliest** — the choice ignores where the task's
input data lives, although the task's actual start time still waits for its
messages to arrive.

With an unbounded processor pool that rule spreads tasks maximally: a fresh
processor is free at time 0, so nearly every task lands on its own processor
and pays full communication on every edge.  This is exactly the behaviour the
paper observes — HU retards *all* low-granularity graphs (Table 2), has the
worst relative parallel time everywhere (Tables 3/7/11) and near-zero
efficiency (Tables 5/9).
"""

from __future__ import annotations

import heapq

from ..core.kernels import IndexedPool, b_levels_arr, graph_index
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class HuScheduler(Scheduler):
    """Hu levels + earliest-available-processor assignment."""

    name = "HU"

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        level = b_levels_arr(graph, communication=False)
        pool = IndexedPool(gi, max_processors=self.max_processors)
        indeg = gi.in_degree
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        free = [(-level[i], i) for i in range(gi.n) if indeg[i] == 0]
        heapq.heapify(free)

        while free:
            _, i = heapq.heappop(free)
            proc, _avail = pool.earliest_available_processor()
            start = pool.est_append(i, proc)
            pool.place(i, proc, start)
            for j, _ in succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    heapq.heappush(free, (-level[j], j))
        return pool.schedule
