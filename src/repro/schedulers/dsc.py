"""DSC — Dominant Sequence Clustering (Yang & Gerasoulis).

Appendix A.1 / Figures 7–8 of the paper.  DSC is an edge-zeroing clustering
algorithm: tasks are examined in priority order
``priority(n) = startbound(n) + level(n)`` (t-level + b-level — maximal on
the current dominant sequence), and each *free* task either

* merges into the predecessor cluster that minimizes its start time —
  "zeroing" the edges from that cluster — when that does not increase its
  start over the unmerged lower bound (**CT1**), and, when a partial-free
  task outranks it, when the merge does not delay that task either
  (**CT2**); or
* starts a fresh cluster at its lower-bound start time.

Definitions used below (paper's timing values):

* ``startbound(n)`` — earliest start on an independent cluster:
  ``max over scheduled preds p of finish(p) + c(p, n)``;
* ``ST(c, n)`` — start when appended to cluster ``c``:
  ``max(avail(c), max over scheduled preds p of finish(p) + c(p, n) * [cluster(p) != c])``;
* ``level(n)`` — communication-inclusive b-level, computed once on the
  input graph (as in the DSC paper).

Because only free tasks are ever scheduled, cluster orders follow a
topological order and the recorded start times equal the shared simulator's
timing rule, so the schedule is emitted directly.
"""

from __future__ import annotations

from ..core.kernels import b_levels_arr, graph_index
from ..core.schedule import Schedule, _LazySchedule
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register


@register
class DSCScheduler(Scheduler):
    """Dominant sequence clustering on an unbounded processor pool."""

    name = "DSC"

    def __init__(self, *, use_ct2: bool = True) -> None:
        #: CT2 guards partial-free tasks (DSC-II).  Exposed for ablation.
        self.use_ct2 = use_ct2

    def _schedule(self, graph: TaskGraph) -> Schedule:
        """DSC on the compiled index (id == insertion order).

        One scan per iteration selects both the top free task and the top
        partial-free task, by ``(priority, -id)``.  Startbounds are
        maintained incrementally: when a task is scheduled, each
        successor's bound takes ``max(bound, finish + c)`` (max is
        order-independent, so this equals recomputing the bound over the
        scheduled predecessors).
        """
        gi = graph_index(graph)
        n = gi.n
        level = b_levels_arr(graph, communication=True)
        weights = gi.weights
        pred_rows = gi.pred_rows
        succ_rows = gi.succ_rows
        indeg = gi.in_degree
        tasks = gi.tasks

        finish = [0.0] * n
        scheduled = [False] * n
        cluster_of = [-1] * n
        cluster_avail: list[float] = []
        rows: list[tuple[Task, int, float, float]] = []
        n_sched_preds = [0] * n
        startbound = [0.0] * n  # max over *scheduled* preds of finish + c

        def st_on(c: int, t: int) -> float:
            start = cluster_avail[c]
            for p, w in pred_rows[t]:
                if scheduled[p]:
                    arrival = finish[p] + (w if cluster_of[p] != c else 0.0)
                    if arrival > start:
                        start = arrival
            return start

        n_zeroings = 0
        n_fresh = 0
        n_ct2_rejections = 0

        n_left = n
        while n_left:
            # nx = max over free, ny = max over partial, by (priority, -id).
            nx = -1
            nx_key: tuple[float, int] | None = None
            nx_sb = 0.0
            ny = -1
            ny_key: tuple[float, int] | None = None
            for t in range(n):
                if scheduled[t]:
                    continue
                sb = startbound[t]
                key = (sb + level[t], -t)
                if n_sched_preds[t] == indeg[t]:
                    if nx_key is None or key > nx_key:
                        nx, nx_key, nx_sb = t, key, sb
                else:
                    if ny_key is None or key > ny_key:
                        ny, ny_key = t, key
            assert nx_key is not None

            sb = nx_sb
            parent_clusters = sorted(
                {cluster_of[p] for p, _ in pred_rows[nx] if scheduled[p]}
            )
            target = -1
            if parent_clusters:
                best_c = min(parent_clusters, key=lambda c: (st_on(c, nx), c))
                st = st_on(best_c, nx)
                ct1 = st <= sb + 1e-12
                if ny_key is None or nx_key[0] >= ny_key[0]:
                    if ct1:
                        target = best_c
                else:
                    if ct1 and self._ct2_ok(
                        ny, best_c, st + weights[nx],
                        startbound[ny], scheduled, cluster_of, pred_rows,
                    ):
                        target = best_c
                    elif ct1:
                        n_ct2_rejections += 1

            if target < 0:
                # fresh cluster at the lower-bound start time
                target = len(cluster_avail)
                cluster_avail.append(0.0)
                start = sb
                n_fresh += 1
            else:
                start = st_on(target, nx)
                n_zeroings += 1

            f = start + weights[nx]
            rows.append((tasks[nx], target, start, f))
            finish[nx] = f
            cluster_avail[target] = f
            cluster_of[nx] = target
            scheduled[nx] = True
            n_left -= 1
            for s, c in succ_rows[nx]:
                n_sched_preds[s] += 1
                a = f + c
                if a > startbound[s]:
                    startbound[s] = a

        registry = get_registry()
        registry.inc("dsc.edge_zeroings", n_zeroings)
        registry.inc("dsc.fresh_clusters", n_fresh)
        registry.inc("dsc.ct2_rejections", n_ct2_rejections)
        return _LazySchedule(rows)

    def _ct2_ok(
        self,
        ny: int,
        cluster: int,
        finish_nx: float,
        startbound_ny: float,
        scheduled: list[bool],
        cluster_of: list[int],
        pred_rows: list[list[tuple[int, float]]],
    ) -> bool:
        """CT2: merging must not delay the higher-priority partial-free task.

        If ``cluster`` holds a scheduled predecessor of ``ny``, occupying it
        until ``finish_nx`` must not push ``ny``'s start there past its
        independent-cluster lower bound (appendix A.1's "guarantees that the
        start time of partial free nodes is never increased").
        """
        if not self.use_ct2:
            return True
        has_parent_here = any(
            scheduled[p] and cluster_of[p] == cluster for p, _ in pred_rows[ny]
        )
        if not has_parent_here:
            return True
        return finish_nx <= startbound_ny + 1e-12
