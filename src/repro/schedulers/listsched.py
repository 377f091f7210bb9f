"""The list schedulers — MCP, MH, HU, HLFET, ETF and DLS — on one engine.

A list scheduler ranks the tasks and places them one at a time into an
:class:`~repro.core.kernels.IndexedPool`.  The six heuristics differ only in
the ranking and in the placement rule (Coleman et al.'s decomposition into
priority function, processor choice and insertion policy):

========  =======================================  ==========================
          order                                    placement
========  =======================================  ==========================
MCP       sorted (own + descendant ALAP times)     earliest start, insertion
MH        release waves, comm-inclusive level      earliest start
HU        free list, computation-only level        processor free earliest
HLFET     free list, computation-only level        earliest start
ETF       dynamic: earliest start, then level      (chosen with the task)
DLS       dynamic: largest ``SL - start``          (chosen with the task)
========  =======================================  ==========================

With a *static* priority the order in which tasks leave the free list never
depends on where earlier tasks were placed, so the whole order is computed
up front and the engine is one loop: ``for i in order: pool.place(i,
*slot(i))``.  The *dynamic* schedulers (ETF, DLS) rank (task, processor)
pairs against the current pool and share one ready-set driver.

``max_processors`` (None = the paper's unbounded pool) caps the pool for the
direct bounded variants: once the cap is reached, fresh processors stop
being offered.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Callable

from ..core.kernels import (
    GraphIndex,
    IndexedPool,
    alap_arr,
    b_levels_arr,
    descendant_masks,
    graph_index,
    priority_topo_order_idx,
    wave_order_idx,
)
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register

__all__ = [
    "MCPScheduler",
    "MHScheduler",
    "HuScheduler",
    "HLFETScheduler",
    "ETFScheduler",
    "DLSScheduler",
]

#: ``slot(i) -> (proc, start)``: where task ``i`` goes in the current pool.
Slot = Callable[[int], tuple[int, float]]
#: ``best_slot(i) -> (key, proc, start)``: task ``i``'s best placement and
#: its rank among the ready tasks (smallest key is placed next).
BestSlot = Callable[[int], tuple[tuple, int, float]]


class _ListScheduler(Scheduler):
    """Owns the processor cap and the pool; subclasses fill the pool."""

    def __init__(self, *, max_processors: int | None = None) -> None:
        #: None reproduces the paper's unbounded model; an integer gives the
        #: direct bounded variant (fresh processors stop being offered).
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        pool = IndexedPool(graph_index(graph), max_processors=self.max_processors)
        self._fill(graph, pool)
        return pool.schedule

    @abstractmethod
    def _fill(self, graph: TaskGraph, pool: IndexedPool) -> None:
        """Place every task of ``graph`` into the empty ``pool``."""


class _StaticListScheduler(_ListScheduler):
    """A precomputed topological order plus a per-task placement rule."""

    def _fill(self, graph: TaskGraph, pool: IndexedPool) -> None:
        order = self._order(graph, pool.gi)
        slot = self._slot(pool)
        for i in order:
            pool.place(i, *slot(i))

    @abstractmethod
    def _order(self, graph: TaskGraph, gi: GraphIndex) -> list[int]:
        """Every task id, in placement order (a topological order)."""

    @abstractmethod
    def _slot(self, pool: IndexedPool) -> Slot:
        """The placement rule on ``pool``."""


class _DynamicListScheduler(_ListScheduler):
    """Each step places the ready task whose best slot has the smallest key."""

    def _fill(self, graph: TaskGraph, pool: IndexedPool) -> None:
        gi = pool.gi
        best_slot = self._best_slot(graph, pool)
        indeg = gi.in_degree
        succ_rows = gi.succ_rows
        n_sched_preds = [0] * gi.n
        ready = set(gi.source_ids)
        while ready:
            # keys end in the task id, so set iteration order never matters
            best = None
            for i in ready:
                key, proc, start = best_slot(i)
                if best is None or key < best[0]:
                    best = (key, i, proc, start)
            assert best is not None
            _, i, proc, start = best
            pool.place(i, proc, start)
            ready.remove(i)
            for j, _ in succ_rows[i]:
                n_sched_preds[j] += 1
                if n_sched_preds[j] == indeg[j]:
                    ready.add(j)

    @abstractmethod
    def _best_slot(self, graph: TaskGraph, pool: IndexedPool) -> BestSlot:
        """The ranked placement rule on ``pool``."""


@register
class MCPScheduler(_StaticListScheduler):
    """ALAP-priority list scheduling with idle-slot insertion.

    MCP is Wu & Gajski's Modified Critical Path (appendix A.2, Figure 9).
    Each task's ALAP start time ``T_L`` (latest start that keeps the
    communication-inclusive critical path) is listed with its descendants'
    ``T_L`` values, sorted; tasks are ordered by lexicographic comparison of
    those lists, most critical first.  (Figure 9 says "sort in decreasing
    order and schedule head(L)", which would place sinks before their
    predecessors; we follow the published MCP ordering — smallest ALAP
    first — which is also a topological order, see DESIGN.md.)  Each task
    goes to the processor (existing or fresh) giving the earliest start,
    with idle-slot insertion.
    """

    name = "MCP"

    def __init__(
        self, *, insertion: bool = True, max_processors: int | None = None
    ) -> None:
        super().__init__(max_processors=max_processors)
        #: When False, tasks are only appended after a processor's last task.
        #: Exposed for the ablation benchmark (DESIGN.md section 8).
        self.insertion = insertion

    def _slot(self, pool: IndexedPool) -> Slot:
        registry = get_registry()
        if not self.insertion:
            registry.inc("mcp.slot_insertions", 0)
            return pool.best_processor
        registry.inc("mcp.insertion_attempts", pool.gi.n)
        registry.inc("mcp.slot_insertions", 0)
        weights = pool.gi.weights

        def slot(i: int) -> tuple[int, float]:
            proc, start = pool.best_processor(i, insertion=True)
            if (
                proc < pool.n_processors
                and start + weights[i] <= pool.avail(proc) - 1e-12
            ):
                # placed into an idle gap, not appended after the last task
                registry.inc("mcp.slot_insertions")
            return proc, start

        return slot

    @staticmethod
    def _order(graph: TaskGraph, gi: GraphIndex) -> list[int]:
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
        return [tasks[i] for i in MCPScheduler._order(graph, gi)]


@register
class MHScheduler(_StaticListScheduler):
    """Level-priority list scheduling with earliest-start processor choice.

    MH is Lewis & El-Rewini's Mapping Heuristic (appendix A.3, Figure 11).
    Priority is the Gerasoulis/Yang *level*: with a zero-cost exit node
    inserted, the communication-inclusive bottom level.  Figure 11 drains
    the whole free list before its event list releases successors, so tasks
    are placed in release waves, highest level first within a wave.  A
    task's wave is its edge depth, which makes the order depth-major
    (:func:`~repro.core.kernels.wave_order_idx`).  Each task goes to the
    processor — existing or fresh — on which it could start earliest,
    accounting for message arrival times.

    MH also fits the graph to network topologies; on the paper's fully
    connected model that is a no-op (section A.3).  The topology-aware
    variant is :class:`repro.topology.TopologyMHScheduler`.
    """

    name = "MH"

    def _order(self, graph: TaskGraph, gi: GraphIndex) -> list[int]:
        # The inserted exit node has weight 0 and zero-cost in-edges, so the
        # level it induces equals the plain communication-inclusive b-level.
        return wave_order_idx(gi, b_levels_arr(graph, communication=True))

    def _slot(self, pool: IndexedPool) -> Slot:
        return pool.best_processor


@register
class HuScheduler(_StaticListScheduler):
    """Hu levels + earliest-available-processor assignment.

    HU is Lewis & El-Rewini's communication-cost variant of Hu's algorithm
    (appendix A.4, Figure 13).  Tasks are prioritized by the classical Hu
    level (the communication-free bottom level) and released in a free list
    once all predecessors are scheduled.  Each task goes to the processor
    that is **free earliest** — the choice ignores where its input data
    lives, although its start still waits for its messages.  With an unbounded pool a fresh processor is
    free at time 0, so nearly every task lands alone and pays full
    communication on every edge: exactly the paper's observation that HU
    retards all low-granularity graphs (Table 2), has the worst relative
    parallel time (Tables 3/7/11) and near-zero efficiency (Tables 5/9).
    """

    name = "HU"

    def _order(self, graph: TaskGraph, gi: GraphIndex) -> list[int]:
        return priority_topo_order_idx(gi, b_levels_arr(graph, communication=False))

    def _slot(self, pool: IndexedPool) -> Slot:
        def slot(i: int) -> tuple[int, float]:
            proc, _avail = pool.earliest_available_processor()
            return proc, pool.est_append(i, proc)

        return slot


@register
class HLFETScheduler(_StaticListScheduler):
    """Computation-only levels + earliest-start processor choice.

    HLFET is Highest Level First with Estimated Times (Adam, Chandy &
    Dickson), the classical list-scheduling baseline: HU's computation-only
    level order with MH's earliest-start placement, so it isolates the
    difference between the paper's two list schedulers from the other side.
    """

    name = "HLFET"

    def _order(self, graph: TaskGraph, gi: GraphIndex) -> list[int]:
        return priority_topo_order_idx(gi, b_levels_arr(graph, communication=False))

    def _slot(self, pool: IndexedPool) -> Slot:
        return pool.best_processor


@register
class ETFScheduler(_DynamicListScheduler):
    """Greedy global earliest-start-time scheduling.

    ETF is Earliest Task First (Hwang, Chow, Anger & Lee), an extension
    beyond the paper's five heuristics (DESIGN.md section 8): at every step,
    among all *ready* tasks, schedule the (task, processor) pair with the
    globally earliest start time, breaking ties by the static
    communication-inclusive b-level — the dynamic-priority counterpart to
    MH's static list.
    """

    name = "ETF"

    def _best_slot(self, graph: TaskGraph, pool: IndexedPool) -> BestSlot:
        level = b_levels_arr(graph, communication=True)

        def best_slot(i: int) -> tuple[tuple, int, float]:
            proc, start = pool.best_processor(i)
            return (start, -level[i], i), proc, start

        return best_slot


@register
class DLSScheduler(_DynamicListScheduler):
    """Greedy maximization of the dynamic level over (task, processor).

    DLS is Dynamic Level Scheduling (Sih & Lee, 1993).  The dynamic level of
    a ready task t on processor p is
    ``DL(t, p) = SL(t) - max(data_available(t, p), processor_free(p))``
    with ``SL`` the static computation-only b-level; every step schedules
    the pair with the largest DL.  Unlike ETF (smallest start, ties by
    level) DLS trades the two off directly, which keeps critical tasks from
    being displaced by merely-early ones.
    """

    name = "DLS"

    def _best_slot(self, graph: TaskGraph, pool: IndexedPool) -> BestSlot:
        static_level = b_levels_arr(graph, communication=False)

        def best_slot(i: int) -> tuple[tuple, int, float]:
            best = None
            # candidate processors: all used, plus one fresh if allowed
            for proc in range(pool.n_processors + (1 if pool.can_grow else 0)):
                start = pool.est_append(i, proc)
                key = (-(static_level[i] - start), start, proc, i)
                if best is None or key < best[0]:
                    best = (key, proc, start)
            assert best is not None
            return best

        return best_slot
