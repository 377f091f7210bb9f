"""CLANS — clan-based graph decomposition scheduling (McCreary & Gill).

Appendix A.5 / Figures 15–16 of the paper.  The algorithm:

1. Parse the PDG into the clan hierarchy (:mod:`repro.clans`): the root is
   the whole graph, leaves are tasks, internal nodes are LINEAR /
   INDEPENDENT / PRIMITIVE clans.
2. Traverse the tree bottom-up assigning costs and making *local decisions
   at linear clans*: for each independent child, pick the best sequence of
   clustering and concurrency for its children.  Executing children
   serially costs the sum of their costs and no communication; executing a
   child away from the local processor adds its incoming and outgoing
   message costs to its path (the paper's Figure 16 worked example:
   ``5 + 20 + 4`` for node 2).  We evaluate candidate processor counts
   ``k`` with a small list schedule of the clan's *quotient* (children as
   macro-tasks) and keep the cheapest — ``k = 1`` is full serialization,
   ``k = n`` full parallelization.
3. Because serialization is always a candidate, a parallelization that
   would retard execution is rejected — the paper's "speedup check at
   every linear node", the reason CLANS never produces speedup < 1
   (Tables 2/6/10).  A final *macro* check compares the simulated makespan
   against the serial time and falls back to the single-processor schedule
   if the cost estimates were ever too optimistic.

**Primitive clans.**  The paper's generator modifies graphs until the parse
tree no longer matches the original series-parallel tree, so primitive
clans occur; McCreary handles them by grouping siblings into pseudo-clans.
The quotient mini-schedule covers this uniformly: for an INDEPENDENT clan
the quotient is an antichain and the mini-schedule reduces to LPT packing;
for a PRIMITIVE clan it respects the quotient's precedence edges (the
relation between sibling clans is uniform, so one member edge decides).
See DESIGN.md section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clans.decomposition import decompose
from ..clans.parse_tree import ClanKind, ClanNode
from ..core.schedule import Schedule
from ..core.simulator import serial_schedule, simulate_ordered
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register

__all__ = ["ClansScheduler", "GroupDecision"]


@dataclass
class GroupDecision:
    """Outcome of one clustering-vs-concurrency decision.

    ``groups`` holds child indices in execution order; ``groups[0]`` runs
    on the local processor (no external communication), every other group
    gets a processor of its own.
    """

    groups: list[list[int]]
    cost: float

    @property
    def parallelized(self) -> bool:
        return len(self.groups) > 1


@dataclass
class _Quotient:
    """A clan's children viewed as macro-tasks with uniform relations."""

    costs: list[float]  # decided cost per child
    comm_in: list[float]  # heaviest direct message from outside the clan
    comm_out: list[float]  # heaviest direct message to outside the clan
    succ: list[dict[int, float]]  # quotient edges with heaviest member edge
    pred: list[dict[int, float]]
    blevel: list[float]  # communication-free longest path to a quotient sink


@dataclass
class _Context:
    """Per-invocation scratch state (cost annotations and decisions)."""

    graph: TaskGraph
    cost: dict[int, float] = field(default_factory=dict)
    decisions: dict[int, GroupDecision] = field(default_factory=dict)
    clusters: list[list[Task]] = field(default_factory=lambda: [[]])


@register
class ClansScheduler(Scheduler):
    """Clan-decomposition scheduling with per-clan speedup checks."""

    name = "CLANS"

    def __init__(self, *, speedup_check: bool = True) -> None:
        #: With the check off, every non-linear clan is fully parallelized
        #: and the macro fallback is skipped — the ablation showing why
        #: CLANS never retards (DESIGN.md section 8).
        self.speedup_check = speedup_check
        #: Set by each schedule() call: the parse tree and whether the macro
        #: serial fallback fired (introspection for tests/benchmarks).
        self.last_tree: ClanNode | None = None
        self.last_fallback: bool = False

    def _schedule(self, graph: TaskGraph) -> Schedule:
        tree = decompose(graph)
        self.last_tree = tree
        ctx = _Context(graph)
        self._annotate(tree, ctx)
        self._assign(tree, ctx, 0)
        registry = get_registry()
        registry.inc("clans.group_decisions", len(ctx.decisions))
        registry.inc(
            "clans.parallel_decisions",
            sum(1 for d in ctx.decisions.values() if d.parallelized),
        )
        schedule = simulate_ordered(graph, ctx.clusters, validate=False)
        self.last_fallback = False
        if self.speedup_check and schedule.makespan > graph.serial_time() + 1e-9:
            self.last_fallback = True
            registry.inc("clans.serial_fallbacks")
            return serial_schedule(graph)
        return schedule

    # ------------------------------------------------------------------
    # pass 1: bottom-up costs and decisions
    # ------------------------------------------------------------------
    def _annotate(self, node: ClanNode, ctx: _Context) -> float:
        if node.is_leaf:
            cost = ctx.graph.weight(node.task)
        elif node.kind is ClanKind.LINEAR:
            cost = sum(self._annotate(c, ctx) for c in node.children)
        else:  # INDEPENDENT or PRIMITIVE: grouping decision on the quotient
            for c in node.children:
                self._annotate(c, ctx)
            decision = self._decide(node, ctx)
            ctx.decisions[id(node)] = decision
            cost = decision.cost
        ctx.cost[id(node)] = cost
        return cost

    def _quotient(self, node: ClanNode, ctx: _Context) -> _Quotient:
        """Macro-task view of ``node``'s children.

        Quotient edge weights take the heaviest member-to-member message
        (concurrent messages overlap under model assumption 4, so the
        heaviest one bounds the added delay — the estimate the paper's
        Figure 16 example uses).
        """
        n = len(node.children)
        child_of: dict[Task, int] = {}
        for i, c in enumerate(node.children):
            for t in c.members:
                child_of[t] = i
        members = node.members
        costs = [ctx.cost[id(c)] for c in node.children]
        comm_in = [0.0] * n
        comm_out = [0.0] * n
        succ: list[dict[int, float]] = [{} for _ in range(n)]
        pred: list[dict[int, float]] = [{} for _ in range(n)]
        for i, c in enumerate(node.children):
            for t in c.members:
                for p, w in ctx.graph.in_edges(t).items():
                    if p not in members:
                        comm_in[i] = max(comm_in[i], w)
                for s, w in ctx.graph.out_edges(t).items():
                    if s not in members:
                        comm_out[i] = max(comm_out[i], w)
                        continue
                    j = child_of[s]
                    if j != i and w > succ[i].get(j, -1.0):
                        succ[i][j] = w
                        pred[j][i] = w
        blevel = [0.0] * n
        indeg_out = [len(succ[i]) for i in range(n)]
        stack = [i for i in range(n) if indeg_out[i] == 0]
        while stack:
            i = stack.pop()
            blevel[i] = costs[i] + max((blevel[j] for j in succ[i]), default=0.0)
            for p in pred[i]:
                indeg_out[p] -= 1
                if indeg_out[p] == 0:
                    stack.append(p)
        return _Quotient(costs, comm_in, comm_out, succ, pred, blevel)

    def _decide(self, node: ClanNode, ctx: _Context) -> GroupDecision:
        """Best grouping of a clan's children onto ``k`` processors.

        For each candidate ``k`` the quotient is list-scheduled onto ``k``
        processors (processor 0 is the *local* one: it holds the clan's
        surrounding context, so it pays no external communication; others
        pay ``comm_in`` before their first input-consuming child and
        ``comm_out`` after their last producing child).  The cheapest ``k``
        wins; the scan stops once adding processors stops helping (the
        makespan-vs-k curve is effectively convex), with full
        parallelization always evaluated.  A candidate that leaves a
        processor empty ends the scan: the cap no longer binds, so every
        larger ``k`` (full parallelization included) replays the same
        schedule and cannot be strictly cheaper.  With the speedup check
        disabled the grouping is forced fully parallel.
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
            if len(cand.groups) < k:
                return best
            if stale >= 2:
                break
        if n > 1:
            cand = self._mini_schedule(q, n)
            if cand.cost < best.cost - 1e-12:
                best = cand
        return best

    @staticmethod
    def _mini_schedule(q: _Quotient, k: int) -> GroupDecision:
        """ETF-style list schedule of the quotient on ``k`` processors.

        Returns the grouping (per-processor child order) and the estimated
        completion cost including external communication of the non-local
        processors.
        """
        n = len(q.costs)
        blevel = q.blevel
        comm_in = q.comm_in
        pred = q.pred
        proc_free = [0.0] * k
        proc_of = [-1] * n
        finish = [0.0] * n
        groups: list[list[int]] = [[] for _ in range(k)]
        waiting = [len(pred[i]) for i in range(n)]
        ready = [i for i in range(n) if waiting[i] == 0]
        worst = 0.0
        # Processors fill in index order: every empty non-local processor
        # offers a task the same start and ties go to the lowest index, so
        # only processors 0..used are candidates.
        used = 0
        while ready:
            best_key = None
            span = range(min(used + 1, k))
            for i in ready:
                edges = pred[i].items()
                bs = bp = None
                for p in span:
                    start = proc_free[p]
                    if p != 0:
                        start = max(start, comm_in[i])
                    for j, w in edges:
                        arrival = finish[j] + (w if proc_of[j] != p else 0.0)
                        if arrival > start:
                            start = arrival
                    if bs is None or start < bs:
                        bs, bp = start, p
                key = (bs, -blevel[i], bp, i)
                if best_key is None or key < best_key:
                    best_key = key
            assert best_key is not None
            start, _, p, i = best_key
            proc_of[i] = p
            finish[i] = start + q.costs[i]
            proc_free[p] = finish[i]
            groups[p].append(i)
            done = finish[i] + (q.comm_out[i] if p != 0 else 0.0)
            worst = max(worst, done)
            if p == used:
                used += 1
            ready.remove(i)
            for j in q.succ[i]:
                waiting[j] -= 1
                if waiting[j] == 0:
                    ready.append(j)
        return GroupDecision([g for g in groups if g], worst)

    # ------------------------------------------------------------------
    # pass 2: materialize clusters
    # ------------------------------------------------------------------
    def _assign(self, node: ClanNode, ctx: _Context, cluster: int) -> None:
        if node.is_leaf:
            ctx.clusters[cluster].append(node.task)
            return
        if node.kind is ClanKind.LINEAR:
            for child in node.children:
                self._assign(child, ctx, cluster)
            return
        decision = ctx.decisions[id(node)]
        for j, group in enumerate(decision.groups):
            if j == 0:
                target = cluster
            else:
                ctx.clusters.append([])
                target = len(ctx.clusters) - 1
            for i in group:
                self._assign(node.children[i], ctx, target)
