"""Dict-based reference implementations: the oracles for the compiled paths.

Production runs every part of the section-2 execution model once, on the
compiled :class:`~repro.core.kernels.GraphIndex` (integer ids, CSR rows,
integer-bitset clan relations).  This module keeps the straightforward
``Task``-keyed implementations those paths were derived from, so the tests
can pin production against them **exactly** — same floats, same
tie-breaks, same dict iteration order, same placements:

* levels: :func:`t_levels`, :func:`b_levels`, :func:`hu_levels`,
  :func:`alap_times`, :func:`critical_path`;
* simulator: :func:`simulate_ordered`, :func:`simulate_clustering`,
  :func:`serial_schedule`;
* clan decomposition on the numpy relation matrix: :func:`decompose`;
* :class:`ProcessorPool`, the ``Task``-keyed processor pool, whose
  ``best_processor`` re-scans every candidate's in-edges;
* the list/clustering schedulers :func:`dsc`, :func:`mcp`, :func:`mh`,
  :func:`hu`, :func:`etf`, :func:`hlfet`, :func:`dls`, plus :func:`clans`
  and :func:`clans_run` (production CLANS running on the reference
  decomposition, decision step and simulator).

Nothing here is memoized on the graph, so calling an oracle never primes
or reads the production memo table.  ``SCHEDULERS`` maps heuristic names to
the oracle functions; each returns a :class:`~repro.core.schedule.Schedule`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections.abc import Callable, Mapping, Sequence
from unittest import mock

import numpy as np

from repro.clans.parse_tree import ClanKind, ClanNode
from repro.clans.relations import UNRELATED, RelationMatrix
from repro.core.exceptions import DecompositionError, ScheduleError
from repro.core.schedule import Schedule
from repro.core.simulator import _validate_clusters
from repro.core.taskgraph import Task, TaskGraph
from repro.schedulers.clans_sched import GroupDecision

# ----------------------------------------------------------------------
# levels
# ----------------------------------------------------------------------


def t_levels(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Longest source-to-task path, excluding the task; topological order."""
    tl: dict[Task, float] = {}
    weight = graph.weight
    for t in graph.topological_order():
        best = 0.0
        for p, c in graph.in_edges(t).items():
            cand = tl[p] + weight(p) + (c if communication else 0.0)
            if cand > best:
                best = cand
        tl[t] = best
    return tl


def b_levels(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Longest task-to-sink path, including the task; reverse topological order."""
    bl: dict[Task, float] = {}
    weight = graph.weight
    for t in reversed(graph.topological_order()):
        best = 0.0
        for s, c in graph.out_edges(t).items():
            cand = bl[s] + (c if communication else 0.0)
            if cand > best:
                best = cand
        bl[t] = best + weight(t)
    return bl


def hu_levels(graph: TaskGraph) -> dict[Task, float]:
    return b_levels(graph, communication=False)


def alap_times(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Critical-path-deadline ALAP start times, in graph insertion order."""
    bl = b_levels(graph, communication=communication)
    cp = max(bl.values(), default=0.0)
    return {t: cp - bl[t] for t in graph.tasks()}


def critical_path(graph: TaskGraph, *, communication: bool = True) -> list[Task]:
    """First maximal source, then the first maximal successor at each step."""
    if graph.n_tasks == 0:
        return []
    bl = b_levels(graph, communication=communication)
    node = max(graph.sources(), key=lambda s: (bl[s],))
    path = [node]
    while graph.out_degree(node):
        best_s, best_val = None, -1.0
        for s, c in graph.out_edges(node).items():
            val = bl[s] + (c if communication else 0.0)
            if val > best_val:
                best_s, best_val = s, val
        assert best_s is not None
        path.append(best_s)
        node = best_s
    return path


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------


def simulate_ordered(
    graph: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    *,
    validate: bool = True,
) -> Schedule:
    """The shared timing rule with fixed per-processor orders (LIFO ready stack)."""
    if validate:
        _validate_clusters(graph, clusters)

    proc_of: dict[Task, int] = {}
    position: dict[Task, int] = {}
    for i, cluster in enumerate(clusters):
        for j, t in enumerate(cluster):
            proc_of[t] = i
            position[t] = j

    # Count unmet constraints per task: DAG predecessors + cluster predecessor.
    waiting: dict[Task, int] = {}
    for t in graph.tasks():
        waiting[t] = graph.in_degree(t) + (1 if position[t] > 0 else 0)
    ready = [t for t, w in waiting.items() if w == 0]

    schedule = Schedule()
    proc_free = [0.0] * len(clusters)
    done = 0
    while ready:
        t = ready.pop()
        p = proc_of[t]
        start = proc_free[p]
        for pred, c in graph.in_edges(t).items():
            arrival = schedule.finish(pred) + (c if proc_of[pred] != p else 0.0)
            if arrival > start:
                start = arrival
        schedule.place(t, p, start, graph.weight(t))
        proc_free[p] = schedule.finish(t)
        done += 1
        # release DAG successors and the next task in this cluster
        for s in graph.successors(t):
            waiting[s] -= 1
            if waiting[s] == 0:
                ready.append(s)
        nxt_pos = position[t] + 1
        if nxt_pos < len(clusters[p]):
            nxt = clusters[p][nxt_pos]
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                ready.append(nxt)
    if done != graph.n_tasks:
        raise ScheduleError(
            "clustering deadlocks: cluster orders conflict with precedence"
        )
    return schedule


def priority_topological_order(
    graph: TaskGraph, priority: Mapping[Task, float]
) -> list[Task]:
    """Topological order, larger priority first, ties by insertion order."""
    indeg = {t: graph.in_degree(t) for t in graph.tasks()}
    seq = {t: i for i, t in enumerate(graph.tasks())}
    heap = [(-priority[t], seq[t], t) for t in graph.tasks() if indeg[t] == 0]
    heapq.heapify(heap)
    order: list[Task] = []
    while heap:
        _, _, t = heapq.heappop(heap)
        order.append(t)
        for s in graph.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(heap, (-priority[s], seq[s], s))
    if len(order) != graph.n_tasks:
        raise ScheduleError("graph contains a cycle")
    return order


def simulate_clustering(
    graph: TaskGraph,
    assignment: Mapping[Task, int],
    *,
    priority: Mapping[Task, float] | None = None,
) -> Schedule:
    """Per-processor orders from one priority-topological order (b-level default)."""
    if set(assignment) != set(graph.tasks()):
        raise ScheduleError("assignment does not cover exactly the graph's tasks")
    if priority is None:
        priority = b_levels(graph, communication=True)
    procs = sorted(set(assignment.values()))
    remap = {p: i for i, p in enumerate(procs)}
    clusters: list[list[Task]] = [[] for _ in procs]
    for t in priority_topological_order(graph, priority):
        clusters[remap[assignment[t]]].append(t)
    return simulate_ordered(graph, clusters, validate=False)


def serial_schedule(graph: TaskGraph) -> Schedule:
    return simulate_ordered(graph, [graph.topological_order()], validate=False)


# ----------------------------------------------------------------------
# clan decomposition on the numpy relation matrix
# ----------------------------------------------------------------------


def decompose(graph: TaskGraph) -> ClanNode:
    """The clan parse tree, vectorized over the int8 relation matrix."""
    if graph.n_tasks == 0:
        raise DecompositionError("cannot decompose an empty graph")
    rm = RelationMatrix(graph)
    return _decompose(rm, np.arange(rm.n))


def _decompose(rm: RelationMatrix, idx: np.ndarray) -> ClanNode:
    """Recursive modular decomposition on ``idx`` (ascending topological positions)."""
    if len(idx) == 1:
        task = rm.tasks[int(idx[0])]
        return ClanNode(ClanKind.LEAF, frozenset([task]), task=task)

    sub = rm.matrix[np.ix_(idx, idx)]
    comparable = sub != UNRELATED  # symmetric boolean matrix

    comp_labels = _components(comparable)
    if comp_labels.max() > 0:
        children = [
            _decompose(rm, idx[comp_labels == label])
            for label in range(comp_labels.max() + 1)
        ]
        children.sort(key=lambda c: min(rm.index[t] for t in c.members))
        return _make_internal(ClanKind.INDEPENDENT, children)

    incomparable = ~comparable
    np.fill_diagonal(incomparable, False)
    co_labels = _components(incomparable)
    if co_labels.max() > 0:
        children = [
            _decompose(rm, idx[co_labels == label])
            for label in range(co_labels.max() + 1)
        ]
        children.sort(key=lambda c: min(rm.index[t] for t in c.members))
        _check_linear_order(rm, children)
        return _make_internal(ClanKind.LINEAR, children)

    children = [_decompose(rm, part) for part in _primitive_children(sub, idx)]
    children.sort(key=lambda c: min(rm.index[t] for t in c.members))
    return _make_internal(ClanKind.PRIMITIVE, children)


def _make_internal(kind: ClanKind, children: list[ClanNode]) -> ClanNode:
    members = frozenset().union(*(c.members for c in children))
    return ClanNode(kind, members, children)


def _components(adj: np.ndarray) -> np.ndarray:
    """Connected-component labels of a symmetric boolean adjacency matrix."""
    n = adj.shape[0]
    labels = np.full(n, -1, dtype=int)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if labels[v] == -1:
                    labels[v] = current
                    stack.append(int(v))
        current += 1
    return labels


def _check_linear_order(rm: RelationMatrix, children: list[ClanNode]) -> None:
    for a, b in zip(children, children[1:]):
        if not rm.is_ancestor(next(iter(a.members)), next(iter(b.members))):
            raise DecompositionError("linear clan children are not totally ordered")


def _primitive_children(sub: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """Maximal proper strong modules: union of proper closures from each seed."""
    n = sub.shape[0]
    assigned = np.full(n, -1, dtype=int)
    parts: list[np.ndarray] = []
    for v in range(n):
        if assigned[v] != -1:
            continue
        member = np.zeros(n, dtype=bool)
        member[v] = True
        for u in range(n):
            if u == v or member[u] or assigned[u] != -1:
                continue
            closure = _smallest_module(sub, v, u)
            if not closure.all():  # proper: lies inside v's maximal module
                member |= closure
        assigned[np.flatnonzero(member)] = len(parts)
        parts.append(idx[member])
    if len(parts) < 2:
        raise DecompositionError("primitive clan produced fewer than two children")
    return parts


def _smallest_module(rel: np.ndarray, v: int, u: int) -> np.ndarray:
    """Mask of the smallest module containing ``v`` and ``u`` (wave closure)."""
    n = rel.shape[0]
    member = np.zeros(n, dtype=bool)
    member[v] = True
    member[u] = True
    ref = rel[:, v]  # relation of each vertex to the module
    new = np.array([u], dtype=np.intp)
    count = 2
    while new.size:
        splits = (rel[:, new] != ref[:, None]).any(axis=1)
        splits &= ~member
        new = np.flatnonzero(splits)
        member[new] = True
        count += new.size
        if count == n:
            break
    return member


# ----------------------------------------------------------------------
# Task-keyed processor pool
# ----------------------------------------------------------------------


class ProcessorPool:
    """Grows processors on demand and records task placements by ``Task``."""

    def __init__(self, graph: TaskGraph, *, max_processors: int | None = None) -> None:
        if max_processors is not None and max_processors < 1:
            raise ValueError(f"max_processors must be >= 1, got {max_processors}")
        self._graph = graph
        self._intervals: list[list[tuple[float, float, Task]]] = []
        self.max_processors = max_processors
        self.schedule = Schedule()
        self.proc_of: dict[Task, int] = {}

    @property
    def n_processors(self) -> int:
        return len(self._intervals)

    @property
    def can_grow(self) -> bool:
        return (
            self.max_processors is None
            or len(self._intervals) < self.max_processors
        )

    def ready_time(self, task: Task, proc: int) -> float:
        ready = 0.0
        for pred, c in self._graph.in_edges(task).items():
            arrival = self.schedule.finish(pred)
            if self.proc_of[pred] != proc:
                arrival += c
            if arrival > ready:
                ready = arrival
        return ready

    def avail(self, proc: int) -> float:
        if proc >= len(self._intervals) or not self._intervals[proc]:
            return 0.0
        return self._intervals[proc][-1][1]

    def est_append(self, task: Task, proc: int) -> float:
        return max(self.avail(proc), self.ready_time(task, proc))

    def est_insertion(self, task: Task, proc: int) -> float:
        return self._insertion_start(
            proc, self.ready_time(task, proc), self._graph.weight(task)
        )

    def _insertion_start(self, proc: int, ready: float, duration: float) -> float:
        if proc >= len(self._intervals):
            return ready
        cursor = ready
        for start, finish, _ in self._intervals[proc]:
            if cursor + duration <= start + 1e-12:
                return cursor
            if finish > cursor:
                cursor = finish
        return max(cursor, ready)

    def place(self, task: Task, proc: int, start: float) -> None:
        if proc > len(self._intervals):
            raise ValueError("processor indices must be allocated contiguously")
        if proc == len(self._intervals):
            self._intervals.append([])
        duration = self._graph.weight(task)
        self.schedule.place(task, proc, start, duration)
        intervals = self._intervals[proc]
        entry = (start, start + duration, task)
        if not intervals or entry >= intervals[-1]:
            intervals.append(entry)
        else:
            insort(intervals, entry)
        self.proc_of[task] = proc

    def best_processor(self, task: Task, *, insertion: bool = False) -> tuple[int, float]:
        """Brute-force scan: each candidate's start re-walks the in-edges."""
        est = self.est_insertion if insertion else self.est_append
        if self.can_grow:
            best_proc = len(self._intervals)  # the fresh-processor candidate
            best_start = est(task, best_proc)
        else:
            best_proc = 0
            best_start = est(task, 0)
        for proc in range(len(self._intervals)):
            start = est(task, proc)
            if start < best_start - 1e-12 or (
                abs(start - best_start) <= 1e-12 and proc < best_proc
            ):
                best_proc, best_start = proc, start
        return best_proc, best_start

    def earliest_available_processor(self) -> tuple[int, float]:
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


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------


def dsc(graph: TaskGraph, *, use_ct2: bool = True) -> Schedule:
    """Dominant sequence clustering, recomputing startbounds from scratch."""
    level = b_levels(graph, communication=True)
    seq = {t: i for i, t in enumerate(graph.tasks())}

    finish: dict[Task, float] = {}
    cluster_of: dict[Task, int] = {}
    cluster_avail: list[float] = []
    schedule = Schedule()

    n_sched_preds = {t: 0 for t in graph.tasks()}
    unscheduled = set(graph.tasks())

    def startbound(t: Task) -> float:
        return max(
            (finish[p] + c for p, c in graph.in_edges(t).items() if p in finish),
            default=0.0,
        )

    def st_on(c: int, t: Task) -> float:
        start = cluster_avail[c]
        for p, w in graph.in_edges(t).items():
            if p in finish:
                arrival = finish[p] + (w if cluster_of[p] != c else 0.0)
                if arrival > start:
                    start = arrival
        return start

    def priority(t: Task) -> float:
        return startbound(t) + level[t]

    def ct2_ok(ny: Task, cluster: int, finish_nx: float) -> bool:
        if not use_ct2:
            return True
        has_parent_here = any(
            p in cluster_of and cluster_of[p] == cluster
            for p in graph.predecessors(ny)
        )
        return not has_parent_here or finish_nx <= startbound(ny) + 1e-12

    while unscheduled:
        free = [t for t in unscheduled if n_sched_preds[t] == graph.in_degree(t)]
        partial = [t for t in unscheduled if n_sched_preds[t] < graph.in_degree(t)]
        nx = max(free, key=lambda t: (priority(t), -seq[t]))
        ny = max(partial, key=lambda t: (priority(t), -seq[t])) if partial else None

        sb = startbound(nx)
        parent_clusters = sorted(
            {cluster_of[p] for p in graph.predecessors(nx) if p in cluster_of}
        )
        target: int | None = None
        if parent_clusters:
            best_c = min(parent_clusters, key=lambda c: (st_on(c, nx), c))
            st = st_on(best_c, nx)
            ct1 = st <= sb + 1e-12
            if ny is None or priority(nx) >= priority(ny):
                if ct1:
                    target = best_c
            elif ct1 and ct2_ok(ny, best_c, st + graph.weight(nx)):
                target = best_c

        if target is None:
            target = len(cluster_avail)
            cluster_avail.append(0.0)
            start = sb
        else:
            start = st_on(target, nx)

        schedule.place(nx, target, start, graph.weight(nx))
        finish[nx] = start + graph.weight(nx)
        cluster_avail[target] = finish[nx]
        cluster_of[nx] = target
        unscheduled.remove(nx)
        for s in graph.successors(nx):
            n_sched_preds[s] += 1
    return schedule


def mcp_priority_order(graph: TaskGraph) -> list[Task]:
    """Tasks by (sorted own + descendant ALAP times, insertion order)."""
    alap = alap_times(graph, communication=True)
    seq = {t: i for i, t in enumerate(graph.tasks())}
    keys: dict[Task, tuple] = {}
    for t in graph.tasks():
        tl_list = sorted([alap[t]] + [alap[d] for d in graph.descendants(t)])
        keys[t] = (tuple(tl_list), seq[t])
    return sorted(graph.tasks(), key=keys.__getitem__)


def mcp(
    graph: TaskGraph, *, insertion: bool = True, max_processors: int | None = None
) -> Schedule:
    pool = ProcessorPool(graph, max_processors=max_processors)
    for task in mcp_priority_order(graph):
        proc, start = pool.best_processor(task, insertion=insertion)
        pool.place(task, proc, start)
    return pool.schedule


def mh(graph: TaskGraph, *, max_processors: int | None = None) -> Schedule:
    """Level order within release waves: drain the free list, then the events."""
    level = b_levels(graph, communication=True)
    seq = {t: i for i, t in enumerate(graph.tasks())}
    pool = ProcessorPool(graph, max_processors=max_processors)

    n_sched_preds = {t: 0 for t in graph.tasks()}
    free = [(-level[t], seq[t], t) for t in graph.tasks() if graph.in_degree(t) == 0]
    heapq.heapify(free)
    events: list[tuple[float, int, Task]] = []
    n_done = 0
    while n_done < graph.n_tasks:
        while free:
            _, _, task = heapq.heappop(free)
            proc, start = pool.best_processor(task, insertion=False)
            pool.place(task, proc, start)
            heapq.heappush(events, (pool.schedule.finish(task), seq[task], task))
            n_done += 1
        while events:
            _, _, task = heapq.heappop(events)
            for succ in graph.successors(task):
                n_sched_preds[succ] += 1
                if n_sched_preds[succ] == graph.in_degree(succ):
                    heapq.heappush(free, (-level[succ], seq[succ], succ))
    return pool.schedule


def _static_list(
    graph: TaskGraph,
    max_processors: int | None,
    choose: Callable[[ProcessorPool, Task], tuple[int, float]],
) -> Schedule:
    """Hu-level free-list scheduling; ``choose`` picks each task's slot."""
    level = hu_levels(graph)
    seq = {t: i for i, t in enumerate(graph.tasks())}
    pool = ProcessorPool(graph, max_processors=max_processors)

    n_sched_preds = {t: 0 for t in graph.tasks()}
    free = [(-level[t], seq[t], t) for t in graph.tasks() if graph.in_degree(t) == 0]
    heapq.heapify(free)
    while free:
        _, _, task = heapq.heappop(free)
        proc, start = choose(pool, task)
        pool.place(task, proc, start)
        for succ in graph.successors(task):
            n_sched_preds[succ] += 1
            if n_sched_preds[succ] == graph.in_degree(succ):
                heapq.heappush(free, (-level[succ], seq[succ], succ))
    return pool.schedule


def hu(graph: TaskGraph, *, max_processors: int | None = None) -> Schedule:
    """Hu levels; each task goes to the processor that is free earliest."""

    def choose(pool: ProcessorPool, task: Task) -> tuple[int, float]:
        proc, _avail = pool.earliest_available_processor()
        return proc, pool.est_append(task, proc)

    return _static_list(graph, max_processors, choose)


def hlfet(graph: TaskGraph, *, max_processors: int | None = None) -> Schedule:
    """Hu levels; each task goes where it starts earliest."""
    return _static_list(
        graph,
        max_processors,
        lambda pool, task: pool.best_processor(task, insertion=False),
    )


def _dynamic_list(
    graph: TaskGraph,
    max_processors: int | None,
    best_slot: Callable[[ProcessorPool, Task, int], tuple[tuple, int, float]],
) -> Schedule:
    """Each step places the ready task with the smallest ``best_slot`` key.

    ``best_slot(pool, task, seq)`` returns ``(key, proc, start)``; keys end
    in ``seq`` (insertion order), so set iteration order never matters.
    """
    seq = {t: i for i, t in enumerate(graph.tasks())}
    pool = ProcessorPool(graph, max_processors=max_processors)
    n_sched_preds = {t: 0 for t in graph.tasks()}
    ready = {t for t in graph.tasks() if graph.in_degree(t) == 0}
    while ready:
        best = None
        for task in ready:
            key, proc, start = best_slot(pool, task, seq[task])
            if best is None or key < best[0]:
                best = (key, task, proc, start)
        assert best is not None
        _, task, proc, start = best
        pool.place(task, proc, start)
        ready.remove(task)
        for succ in graph.successors(task):
            n_sched_preds[succ] += 1
            if n_sched_preds[succ] == graph.in_degree(succ):
                ready.add(succ)
    return pool.schedule


def etf(graph: TaskGraph, *, max_processors: int | None = None) -> Schedule:
    """Globally earliest (start, -level) over ready tasks."""
    level = b_levels(graph, communication=True)

    def best_slot(pool: ProcessorPool, task: Task, seq: int):
        proc, start = pool.best_processor(task, insertion=False)
        return (start, -level[task], seq), proc, start

    return _dynamic_list(graph, max_processors, best_slot)


def dls(graph: TaskGraph, *, max_processors: int | None = None) -> Schedule:
    """Largest dynamic level ``SL(t) - start`` over (task, processor)."""
    static_level = hu_levels(graph)

    def best_slot(pool: ProcessorPool, task: Task, seq: int):
        best = None
        n_cand = pool.n_processors + (1 if pool.can_grow else 0)
        for proc in range(max(n_cand, 1)):
            start = pool.est_append(task, proc)
            key = (-(static_level[task] - start), start, proc, seq)
            if best is None or key < best[0]:
                best = (key, proc, start)
        assert best is not None
        return best

    return _dynamic_list(graph, max_processors, best_slot)


# The CLANS decision step without production's shortcuts: every k is
# list-scheduled over all k processors with the b-levels recomputed, and
# full parallelization is always evaluated.
def _clans_decide(self, node: ClanNode, ctx) -> GroupDecision:
    """Best grouping of a clan's children onto ``k`` processors.

    For each candidate ``k`` the quotient is list-scheduled onto ``k``
    processors (processor 0 is the *local* one: it holds the clan's
    surrounding context, so it pays no external communication; others
    pay ``comm_in`` before their first input-consuming child and
    ``comm_out`` after their last producing child).  The cheapest ``k``
    wins; the scan stops once adding processors stops helping (the
    makespan-vs-k curve is effectively convex), with full
    parallelization always evaluated.  With the speedup check disabled
    the grouping is forced fully parallel.
    """
    q = self._quotient(node, ctx)
    n = len(q.costs)
    if not self.speedup_check:
        return self._mini_schedule(q, n)
    best = self._mini_schedule(q, 1)
    stale = 0
    for k in range(2, n):
        cand = self._mini_schedule(q, k)
        if cand.cost < best.cost - 1e-12:
            best = cand
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
    if n > 1:
        cand = self._mini_schedule(q, n)
        if cand.cost < best.cost - 1e-12:
            best = cand
    return best


def _clans_mini_schedule(q, k: int) -> GroupDecision:
    """ETF-style list schedule of the quotient on ``k`` processors.

    Returns the grouping (per-processor child order) and the estimated
    completion cost including external communication of the non-local
    processors.
    """
    n = len(q.costs)
    # static priority: communication-free longest path to a quotient sink
    blevel = [0.0] * n
    indeg_out = [len(q.succ[i]) for i in range(n)]
    stack = [i for i in range(n) if indeg_out[i] == 0]
    while stack:
        i = stack.pop()
        blevel[i] = q.costs[i] + max(
            (blevel[j] for j in q.succ[i]), default=0.0
        )
        for p in q.pred[i]:
            indeg_out[p] -= 1
            if indeg_out[p] == 0:
                stack.append(p)

    proc_free = [0.0] * k
    proc_of = [-1] * n
    finish = [0.0] * n
    groups: list[list[int]] = [[] for _ in range(k)]
    waiting = [len(q.pred[i]) for i in range(n)]
    ready = {i for i in range(n) if waiting[i] == 0}
    worst = 0.0
    while ready:
        best_key = None
        choice = None
        for i in ready:
            for p in range(k):
                start = proc_free[p]
                if p != 0:
                    start = max(start, q.comm_in[i])
                for j, w in q.pred[i].items():
                    arrival = finish[j] + (w if proc_of[j] != p else 0.0)
                    if arrival > start:
                        start = arrival
                key = (start, -blevel[i], p, i)
                if best_key is None or key < best_key:
                    best_key = key
                    choice = (i, p, start)
        assert choice is not None
        i, p, start = choice
        proc_of[i] = p
        finish[i] = start + q.costs[i]
        proc_free[p] = finish[i]
        groups[p].append(i)
        done = finish[i] + (q.comm_out[i] if p != 0 else 0.0)
        worst = max(worst, done)
        ready.remove(i)
        for j in q.succ[i]:
            waiting[j] -= 1
            if waiting[j] == 0:
                ready.add(j)
    return GroupDecision([g for g in groups if g], worst)


def clans_run(graph: TaskGraph, *, speedup_check: bool = True) -> tuple[Schedule, bool]:
    """Production CLANS on the reference decomposition, decision step and
    simulator; returns the schedule and whether the macro fallback fired."""
    from repro.schedulers import clans_sched

    scheduler = clans_sched.ClansScheduler(speedup_check=speedup_check)
    cls = clans_sched.ClansScheduler
    with mock.patch.object(clans_sched, "decompose", decompose), mock.patch.object(
        clans_sched, "simulate_ordered", simulate_ordered
    ), mock.patch.object(
        clans_sched, "serial_schedule", serial_schedule
    ), mock.patch.object(cls, "_decide", _clans_decide), mock.patch.object(
        cls, "_mini_schedule", staticmethod(_clans_mini_schedule)
    ):
        schedule = scheduler._schedule(graph)
    return schedule, scheduler.last_fallback


def clans(graph: TaskGraph) -> Schedule:
    return clans_run(graph)[0]


SCHEDULERS: dict[str, Callable[[TaskGraph], Schedule]] = {
    "DSC": dsc,
    "MCP": mcp,
    "MH": mh,
    "HU": hu,
    "ETF": etf,
    "HLFET": hlfet,
    "DLS": dls,
    "CLANS": clans,
}
