"""Indexed graph kernels: CSR-compiled hot paths.

The schedulers' inner loops — level computation, the simulator timing rule,
ready-list maintenance — run on integer task ids rather than
``dict[Task, dict[Task, float]]`` adjacency with hashable-object keys.  This
module compiles a :class:`~repro.core.taskgraph.TaskGraph` once per
mutation version into a :class:`GraphIndex`: dense integer task ids
(insertion order, so id ``i`` equals the ``seq`` tie-break index the
schedulers use), CSR predecessor/successor adjacency
(``array('l')``/``array('d')``, no numpy dependency), and node/edge cost
vectors.  The kernels below then run on flat lists of floats and ints and
translate back to ``Task``-keyed structures only at the boundary.

Bit-exactness contract: every kernel performs the *same floating-point
operations in the same order* as the straightforward dict traversal of the
same recurrence (associativity is not assumed — e.g. ``tl[p] + w[p] + c``
is never folded into ``tl[p] + (w[p] + c)``).  ``tests/test_kernels.py``
enforces this against the dict oracles in ``tests/reference.py``.

The kernels require a DAG: compilation topologically orders the ids and
raises :class:`~repro.core.exceptions.CycleError` on cyclic input.  The
public simulator entry points translate that into the
:class:`~repro.core.exceptions.ScheduleError` they document.

Observability: each compile is timed into the ``kernels.compile`` timer and
index reuse shows up as ``kernels.cache.hits`` / ``kernels.cache.misses``
counters, so ``repro stats`` reveals whether indexes are being recompiled
(e.g. a workload that mutates graphs between schedule calls).
"""

from __future__ import annotations

from array import array
from bisect import insort
from heapq import heapify, heappop, heappush

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .exceptions import ScheduleError
from .schedule import Schedule, _LazySchedule
from .taskgraph import TaskGraph

__all__ = [
    "GraphIndex",
    "graph_index",
    "discard_index",
    "t_levels_arr",
    "b_levels_arr",
    "alap_arr",
    "critical_path_idx",
    "priority_topo_order_idx",
    "wave_order_idx",
    "simulate_ordered_idx",
    "descendant_masks",
    "IndexedPool",
]


class GraphIndex:
    """A :class:`TaskGraph` compiled to topo-ordered integer ids + CSR arrays.

    Task ``tasks[i]`` has integer id ``i`` in graph insertion order — the
    same index the schedulers use as their deterministic tie-break — and
    ``topo`` lists the ids in the graph's (memoized) topological order.
    ``succ_ptr[i]:succ_ptr[i+1]`` slices ``succ_idx``/``succ_w`` to give
    task ``i``'s successors and edge costs in adjacency insertion order;
    ``pred_*`` mirrors that for predecessors.

    The compact CSR arrays (``array('l')``/``array('d')``) are the canonical
    storage; the ``*_rows`` attributes hold the same adjacency as per-node
    ``[(j, c), ...]`` lists, which CPython iterates measurably faster than
    indexed array reads — the kernels use the rows, interop uses the arrays.

    Instances are immutable snapshots: they are compiled for one graph
    version via :func:`graph_index` and never updated in place.
    """

    __slots__ = (
        "n",
        "m",
        "tasks",
        "index_of",
        "weight",
        "topo",
        "succ_ptr",
        "succ_idx",
        "succ_w",
        "pred_ptr",
        "pred_idx",
        "pred_w",
        "weights",
        "topo_list",
        "succ_rows",
        "pred_rows",
        "in_degree",
        "out_degree",
        "source_ids",
    )

    def __init__(self, graph: TaskGraph) -> None:
        tasks = graph.tasks()
        index_of = {t: i for i, t in enumerate(tasks)}
        n = len(tasks)
        self.n = n
        self.tasks = tasks
        self.index_of = index_of
        weights = [graph.weight(t) for t in tasks]
        self.weights = weights
        self.weight = array("d", weights)

        succ_ptr = array("l", [0] * (n + 1))
        pred_ptr = array("l", [0] * (n + 1))
        succ_idx: list[int] = []
        succ_w: list[float] = []
        pred_idx: list[int] = []
        pred_w: list[float] = []
        succ_rows: list[list[tuple[int, float]]] = []
        pred_rows: list[list[tuple[int, float]]] = []
        for i, t in enumerate(tasks):
            srow = [(index_of[s], c) for s, c in graph.out_edges(t).items()]
            prow = [(index_of[p], c) for p, c in graph.in_edges(t).items()]
            succ_rows.append(srow)
            pred_rows.append(prow)
            for j, c in srow:
                succ_idx.append(j)
                succ_w.append(c)
            for j, c in prow:
                pred_idx.append(j)
                pred_w.append(c)
            succ_ptr[i + 1] = len(succ_idx)
            pred_ptr[i + 1] = len(pred_idx)
        self.m = len(succ_idx)
        self.succ_ptr = succ_ptr
        self.succ_idx = array("l", succ_idx)
        self.succ_w = array("d", succ_w)
        self.pred_ptr = pred_ptr
        self.pred_idx = array("l", pred_idx)
        self.pred_w = array("d", pred_w)
        self.succ_rows = succ_rows
        self.pred_rows = pred_rows
        self.in_degree = [len(r) for r in pred_rows]
        self.out_degree = [len(r) for r in succ_rows]
        # raises CycleError on cyclic input — kernels require a DAG
        self.topo_list = [index_of[t] for t in graph.topological_order()]
        self.topo = array("l", self.topo_list)
        self.source_ids = [i for i in range(n) if not pred_rows[i]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphIndex(n={self.n}, m={self.m})"


_INDEX_KEY = "kernels.graph_index"


def graph_index(graph: TaskGraph) -> GraphIndex:
    """The compiled :class:`GraphIndex` of ``graph``, memoized per version.

    Compilation is keyed to the graph's mutation version through
    :meth:`TaskGraph.cached`, so a suite run that schedules one graph with
    five heuristics compiles once and the other calls are cache hits.
    Raises :class:`CycleError` on cyclic input.
    """
    registry = get_registry()
    hit = True

    def compute() -> GraphIndex:
        nonlocal hit
        hit = False
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("kernels.compile", cat="kernels", n=graph.n_tasks):
                with registry.timer("kernels.compile"):
                    return GraphIndex(graph)
        with registry.timer("kernels.compile"):
            return GraphIndex(graph)

    gi = graph.cached(_INDEX_KEY, compute)
    registry.inc("kernels.cache.hits" if hit else "kernels.cache.misses")
    return gi


def discard_index(graph: TaskGraph) -> None:
    """Drop ``graph``'s memoized :class:`GraphIndex`, if any.

    Eviction hook for size-bounded caches (the service's LRU index cache):
    a long-lived graph object otherwise pins its compiled index for life.
    The next :func:`graph_index` call recompiles and counts a miss.
    """
    graph.uncache(_INDEX_KEY)


# ----------------------------------------------------------------------
# level kernels
#
# The level recurrences of repro.core.analysis on flat arrays.  Each is
# memoized on the graph (dropped by any mutation) and returns the shared
# list — callers must treat results as read-only.
# ----------------------------------------------------------------------


def _t_levels(gi: GraphIndex, communication: bool) -> list[float]:
    tl = [0.0] * gi.n
    w = gi.weights
    rows = gi.pred_rows
    if communication:
        for t in gi.topo_list:
            best = 0.0
            for j, c in rows[t]:
                cand = tl[j] + w[j] + c
                if cand > best:
                    best = cand
            tl[t] = best
    else:
        for t in gi.topo_list:
            best = 0.0
            for j, _ in rows[t]:
                cand = tl[j] + w[j] + 0.0
                if cand > best:
                    best = cand
            tl[t] = best
    return tl


def _b_levels(gi: GraphIndex, communication: bool) -> list[float]:
    bl = [0.0] * gi.n
    w = gi.weights
    rows = gi.succ_rows
    if communication:
        for t in reversed(gi.topo_list):
            best = 0.0
            for j, c in rows[t]:
                cand = bl[j] + c
                if cand > best:
                    best = cand
            bl[t] = best + w[t]
    else:
        for t in reversed(gi.topo_list):
            best = 0.0
            for j, _ in rows[t]:
                cand = bl[j] + 0.0
                if cand > best:
                    best = cand
            bl[t] = best + w[t]
    return bl


def t_levels_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """T-levels as a read-only list indexed by task id (memoized per version)."""
    return graph.cached(
        ("kernels.t_levels", communication),
        lambda: _t_levels(graph_index(graph), communication),
    )


def b_levels_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """B-levels as a read-only list indexed by task id (memoized per version)."""
    return graph.cached(
        ("kernels.b_levels", communication),
        lambda: _b_levels(graph_index(graph), communication),
    )


def alap_arr(graph: TaskGraph, *, communication: bool = True) -> list[float]:
    """ALAP start times (critical-path deadline) by task id, memoized."""

    def compute() -> list[float]:
        bl = b_levels_arr(graph, communication=communication)
        cp = max(bl, default=0.0)
        return [cp - b for b in bl]

    return graph.cached(("kernels.alap", communication), compute)


def critical_path_idx(graph: TaskGraph, *, communication: bool = True) -> list[int]:
    """One maximal-weight source-to-sink path as task ids.

    Same tie-breaking as :func:`repro.core.analysis.critical_path`: start at
    the first maximal source, follow the first maximal successor in
    adjacency order.
    """
    gi = graph_index(graph)
    if gi.n == 0:
        return []
    bl = b_levels_arr(graph, communication=communication)
    node = -1
    best = -1.0
    for s in gi.source_ids:
        if bl[s] > best:
            node, best = s, bl[s]
    path = [node]
    rows = gi.succ_rows
    while rows[node]:
        best_s, best_val = -1, -1.0
        if communication:
            for j, c in rows[node]:
                val = bl[j] + c
                if val > best_val:
                    best_s, best_val = j, val
        else:
            for j, _ in rows[node]:
                val = bl[j] + 0.0
                if val > best_val:
                    best_s, best_val = j, val
        path.append(best_s)
        node = best_s
    return path


def descendant_masks(gi: GraphIndex) -> list[int]:
    """Strict-descendant sets as int bitmasks, indexed by task id.

    Bit ``j`` of ``masks[i]`` is set iff there is a nonempty path
    ``i -> j``.  One reverse-topological sweep of cheap big-int ors; used by
    the MCP priority kernel in place of per-task hash-set DFS.
    """
    masks = [0] * gi.n
    rows = gi.succ_rows
    for i in reversed(gi.topo_list):
        m = 0
        for j, _ in rows[i]:
            m |= (1 << j) | masks[j]
        masks[i] = m
    return masks


# ----------------------------------------------------------------------
# simulator kernels
# ----------------------------------------------------------------------


def priority_topo_order_idx(gi: GraphIndex, priority: list[float]) -> list[int]:
    """Topological order of task ids, larger ``priority`` first.

    Ties break on the smaller id (= insertion order), i.e. ``(-priority,
    seq)`` heap keys.
    """
    indeg = list(gi.in_degree)
    heap = [(-priority[i], i) for i in range(gi.n) if indeg[i] == 0]
    heapify(heap)
    order: list[int] = []
    rows = gi.succ_rows
    while heap:
        _, i = heappop(heap)
        order.append(i)
        for j, _ in rows[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(heap, (-priority[j], j))
    if len(order) != gi.n:
        raise ScheduleError("graph contains a cycle")
    return order


def wave_order_idx(gi: GraphIndex, priority: list[float]) -> list[int]:
    """Task ids in release waves, larger ``priority`` first within a wave.

    MH's free list (Figure 11) is drained completely before the event list
    releases successors, so tasks leave it in waves: wave 0 is the sources
    and wave k the tasks whose last predecessor was placed in wave k-1 —
    i.e. whose *edge depth* (edges on the longest path from a source) is k.
    Within a wave the heap pops by ``(-priority, id)``, so the whole order
    is one sort by ``(depth, -priority, id)``; it is topological because
    every predecessor has a smaller depth.
    """
    depth = [0] * gi.n
    rows = gi.pred_rows
    for i in gi.topo_list:
        d = 0
        for j, _ in rows[i]:
            if depth[j] >= d:
                d = depth[j] + 1
        depth[i] = d
    return sorted(range(gi.n), key=lambda i: (depth[i], -priority[i], i))


def simulate_ordered_idx(
    gi: GraphIndex, clusters: list[list[int]]
) -> tuple[Schedule, int]:
    """The shared timing rule on integer ids; ``clusters`` hold task ids.

    Returns ``(schedule, events)``.  Ready tasks are processed from a LIFO
    stack, which fixes the task placement order (and therefore serialized
    schedules).  Raises :class:`ScheduleError` when
    the cluster orders conflict with precedence (deadlock).  The caller is
    responsible for validating that ``clusters`` partitions the task set.
    """
    n = gi.n
    proc_of = [-1] * n
    position = [0] * n
    for p, cluster in enumerate(clusters):
        for j, i in enumerate(cluster):
            proc_of[i] = p
            position[i] = j

    indeg = gi.in_degree
    waiting = [indeg[i] + (1 if position[i] > 0 else 0) for i in range(n)]
    ready = [i for i in range(n) if waiting[i] == 0]

    rows: list[tuple[object, int, float, float]] = []
    append_row = rows.append
    tasks = gi.tasks
    weights = gi.weights
    pred_rows = gi.pred_rows
    succ_rows = gi.succ_rows
    finish = [0.0] * n
    proc_free = [0.0] * len(clusters)
    done = 0
    while ready:
        i = ready.pop()
        p = proc_of[i]
        start = proc_free[p]
        for j, c in pred_rows[i]:
            arrival = finish[j] + (c if proc_of[j] != p else 0.0)
            if arrival > start:
                start = arrival
        f = start + weights[i]
        append_row((tasks[i], p, start, f))
        finish[i] = f
        proc_free[p] = f
        done += 1
        for j, _ in succ_rows[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.append(j)
        nxt_pos = position[i] + 1
        cluster = clusters[p]
        if nxt_pos < len(cluster):
            nxt = cluster[nxt_pos]
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                ready.append(nxt)
    if done != n:
        raise ScheduleError(
            "clustering deadlocks: cluster orders conflict with precedence"
        )
    return _LazySchedule(rows), done


# ----------------------------------------------------------------------
# indexed processor pool
# ----------------------------------------------------------------------


class IndexedPool:
    """Processor-pool bookkeeping shared by the list schedulers, on task ids.

    The machine model has an unbounded pool of identical, fully connected
    processors; list schedulers grow the pool on demand.  The pool tracks,
    per processor, the placed ``(start, finish, id)`` intervals so
    schedulers can compute earliest start times either append-only (after
    the last task) or with idle-slot insertion (MCP).  Predecessor lookups
    go through the CSR rows and task finish times live in a flat list.

    ``max_processors`` (None = unbounded, the paper's model) caps the pool:
    once the cap is reached, fresh-processor candidates are no longer
    offered, giving the *direct* bounded variants of the list schedulers
    (as opposed to the fold-after post-pass in
    :mod:`repro.schedulers.mapping`).  The ``Schedule`` is built
    incrementally in placement order.
    """

    __slots__ = (
        "gi",
        "max_processors",
        "_rows",
        "proc_of",
        "finish",
        "_intervals",
    )

    def __init__(self, gi: GraphIndex, *, max_processors: int | None = None) -> None:
        if max_processors is not None and max_processors < 1:
            raise ValueError(f"max_processors must be >= 1, got {max_processors}")
        self.gi = gi
        self.max_processors = max_processors
        self._rows: list[tuple[object, int, float, float]] = []
        self.proc_of = [-1] * gi.n
        self.finish = [0.0] * gi.n
        self._intervals: list[list[tuple[float, float, int]]] = []

    @property
    def schedule(self) -> Schedule:
        """The placements so far, in placement order (lazily materialized)."""
        return _LazySchedule(self._rows)

    @property
    def n_processors(self) -> int:
        return len(self._intervals)

    @property
    def can_grow(self) -> bool:
        """Whether a fresh processor may still be opened."""
        return (
            self.max_processors is None
            or len(self._intervals) < self.max_processors
        )

    def avail(self, proc: int) -> float:
        """Finish time of the last task on ``proc`` (0 for a fresh one)."""
        if proc >= len(self._intervals) or not self._intervals[proc]:
            return 0.0
        return self._intervals[proc][-1][1]

    def ready_time(self, i: int, proc: int) -> float:
        """Earliest moment all of task ``i``'s inputs are available on ``proc``.

        ``proc == self.n_processors`` denotes a fresh processor (every
        message then crosses processors).
        """
        ready = 0.0
        finish = self.finish
        proc_of = self.proc_of
        for j, c in self.gi.pred_rows[i]:
            arrival = finish[j]
            if proc_of[j] != proc:
                arrival += c
            if arrival > ready:
                ready = arrival
        return ready

    def est_append(self, i: int, proc: int) -> float:
        """Earliest start of task ``i`` appended after everything on ``proc``."""
        return max(self.avail(proc), self.ready_time(i, proc))

    def _arrival_bounds(self, i: int) -> tuple[dict[int, float], int, float, float]:
        """Predecessor arrival facts, grouped by processor, in O(indeg).

        Returns ``(local, top_proc, top, second)`` where ``local[q]`` is the
        max finish time of task ``i``'s predecessors placed on ``q``, and
        ``top``/``second`` are the largest and second-largest of the
        per-processor maxima of ``finish + c`` (``top`` achieved on
        ``top_proc``; maxima taken across *distinct* processors).  The ready
        time on any candidate ``p`` is then O(1):
        ``max(local.get(p, 0), top if p != top_proc else second)`` —
        predecessors co-located with ``p`` pay no communication, all others
        pay theirs in full.
        """
        local: dict[int, float] = {}
        comm: dict[int, float] = {}
        finish = self.finish
        proc_of = self.proc_of
        for j, c in self.gi.pred_rows[i]:
            f = finish[j]
            q = proc_of[j]
            if f > local.get(q, -1.0):
                local[q] = f
            a = f + c
            if a > comm.get(q, -1.0):
                comm[q] = a
        top_proc, top, second = -1, 0.0, 0.0
        for q, a in comm.items():
            if a > top:
                if top_proc != -1:
                    second = top
                top_proc, top = q, a
            elif a > second:
                second = a
        return local, top_proc, top, second

    def _insertion_start(self, proc: int, ready: float, duration: float) -> float:
        """First gap on ``proc`` fitting ``duration`` at/after ``ready``."""
        if proc >= len(self._intervals):
            return ready
        cursor = ready
        for start, finish, _ in self._intervals[proc]:
            if cursor + duration <= start + 1e-12:
                return cursor
            if finish > cursor:
                cursor = finish
        return max(cursor, ready)

    def est_insertion(self, i: int, proc: int) -> float:
        """Earliest start of task ``i`` on ``proc`` allowing idle-slot insertion."""
        return self._insertion_start(
            proc, self.ready_time(i, proc), self.gi.weights[i]
        )

    def place(self, i: int, proc: int, start: float) -> None:
        """Record task ``i`` on ``proc`` at ``start`` (growing the pool by at
        most one processor)."""
        if proc > len(self._intervals):
            raise ValueError("processor indices must be allocated contiguously")
        if proc == len(self._intervals):
            self._intervals.append([])
        f = start + self.gi.weights[i]
        self._rows.append((self.gi.tasks[i], proc, start, f))
        self.finish[i] = f
        intervals = self._intervals[proc]
        entry = (start, f, i)
        # Append-only is the common case (MH/HU/ETF/DLS and non-insertion
        # MCP never place before the last task); insort only when actually
        # inserting into an idle slot.
        if not intervals or entry >= intervals[-1]:
            intervals.append(entry)
        else:
            insort(intervals, entry)
        self.proc_of[i] = proc

    def best_processor(self, i: int, *, insertion: bool = False) -> tuple[int, float]:
        """Processor (existing or new) minimizing the start time of task ``i``.

        Returns ``(proc, start)``.  Ties prefer existing processors over a
        fresh one, and lower indices first, which keeps results deterministic
        and avoids gratuitous spreading.  The scan is O(P + indeg):
        predecessor arrivals are grouped once (:meth:`_arrival_bounds`), then
        each candidate's ready time is O(1).  (Idle-slot insertion
        additionally scans the candidate's placed intervals.)
        """
        local, top_proc, top, second = self._arrival_bounds(i)
        n = len(self._intervals)
        duration = self.gi.weights[i] if insertion else 0.0

        def start_on(proc: int) -> float:
            ready = local.get(proc, 0.0)
            cross = second if proc == top_proc else top
            if cross > ready:
                ready = cross
            if insertion:
                return self._insertion_start(proc, ready, duration)
            return max(self.avail(proc), ready)

        if self.can_grow:
            best_proc = n
            best_start = start_on(best_proc)
        else:
            best_proc = 0
            best_start = start_on(0)
        for proc in range(n):
            start = start_on(proc)
            if start < best_start - 1e-12 or (
                abs(start - best_start) <= 1e-12 and proc < best_proc
            ):
                best_proc, best_start = proc, start
        return best_proc, best_start

    def earliest_available_processor(self) -> tuple[int, float]:
        """Processor that is *free* earliest, ignoring message arrivals.

        This is HU's processor-choice rule (appendix A.4): pick by machine
        availability, not by where the task's data lives.  Ties prefer the
        lowest existing index; a fresh processor (avail 0) is used only when
        no existing processor is idle at time 0.
        """
        if self.can_grow:
            best_proc = len(self._intervals)
            best_avail = 0.0
        else:
            best_proc, best_avail = 0, self.avail(0)
        for proc in range(len(self._intervals)):
            avail = self.avail(proc)
            if avail < best_avail - 1e-12 or (
                abs(avail - best_avail) <= 1e-12 and proc < best_proc
            ):
                best_proc, best_avail = proc, avail
        return best_proc, best_avail
