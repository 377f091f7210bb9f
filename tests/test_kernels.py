"""Seeded equivalence sweep: the compiled production paths vs the oracles.

Production runs on the indexed kernels (``repro.core.kernels``); the
dict-based oracles in ``tests/reference.py`` compute the same quantities
directly on ``Task`` keys.  The two must agree *bit for bit* — same floats,
same tie-breaks, same dict ordering.  These tests sweep seeded random PDGs
across the paper's testbed axes (granularity band, anchor, weight range)
plus degenerate shapes (single node, chain, fork-join, zero-cost edges, a
unit-weight fork whose levels all tie) and assert exact equality at every
layer: levels, critical path, the simulator, the schedulers, and the clan
decomposition.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import TaskGraph
from repro.clans import decomposition
from repro.clans.decomposition import decompose
from repro.clans.parse_tree import ClanKind, ClanNode
from repro.core.analysis import (
    alap_times,
    b_levels,
    critical_path,
    hu_levels,
    t_levels,
)
from repro.core.exceptions import ScheduleError
from repro.core.kernels import (
    GraphIndex,
    b_levels_arr,
    graph_index,
    t_levels_arr,
)
from repro.core.simulator import simulate_clustering, simulate_ordered
from repro.generation.random_dag import generate_pdg
from repro.generation.suites import generate_suite
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.schedulers import get_scheduler
from repro.schedulers.clans_sched import ClansScheduler

import reference

SEED = 19940815
REWRITTEN = ["DSC", "MCP", "MH", "HU", "ETF", "HLFET", "DLS", "CLANS"]


# ----------------------------------------------------------------------
# graph corpus: seeded testbed sweep + edge-case shapes
# ----------------------------------------------------------------------
def _testbed_graphs() -> list[tuple[str, TaskGraph]]:
    graphs = []
    for band in range(5):
        for anchor in (2, 5):
            for wr in [(1, 10), (3, 200)]:
                rng = np.random.default_rng(SEED + band * 100 + anchor * 10 + wr[1])
                g = generate_pdg(
                    rng, n_tasks=40, band=band, anchor=anchor, weight_range=wr
                )
                graphs.append((f"band{band}-a{anchor}-w{wr[1]}", g))
    return graphs


def _edge_case_graphs() -> list[tuple[str, TaskGraph]]:
    single = TaskGraph()
    single.add_task("only", 7)

    chain = TaskGraph()
    for i in range(6):
        chain.add_task(i, 5 + i)
        if i:
            chain.add_edge(i - 1, i, 2)

    fork_join = TaskGraph()
    fork_join.add_task("src", 4)
    fork_join.add_task("sink", 4)
    for i in range(5):
        fork_join.add_task(i, 10)
        fork_join.add_edge("src", i, 3)
        fork_join.add_edge(i, "sink", 3)

    zero_comm = TaskGraph()
    for t in "abcd":
        zero_comm.add_task(t, 10)
    zero_comm.add_edge("a", "b", 0)
    zero_comm.add_edge("a", "c", 5)
    zero_comm.add_edge("b", "d", 0)
    zero_comm.add_edge("c", "d", 0)

    # every level ties, so placement order is decided by tie-breaks alone
    unit_fork = TaskGraph()
    unit_fork.add_task("src", 1)
    for i in range(8):
        unit_fork.add_task(i, 1)
        unit_fork.add_edge("src", i, 1)

    return [
        ("single", single),
        ("chain", chain),
        ("fork-join", fork_join),
        ("zero-cost-edges", zero_comm),
        ("unit-fork", unit_fork),
    ]


CORPUS = _testbed_graphs() + _edge_case_graphs()
IDS = [name for name, _ in CORPUS]
GRAPHS = [g for _, g in CORPUS]


# ----------------------------------------------------------------------
# GraphIndex structure
# ----------------------------------------------------------------------
class TestGraphIndex:
    def test_index_mirrors_graph(self):
        g = GRAPHS[0]
        gi = GraphIndex(g)
        assert gi.n == g.n_tasks
        assert gi.tasks == list(g.tasks())
        assert gi.m == sum(len(g.out_edges(t)) for t in g.tasks())
        for t in g.tasks():
            i = gi.index_of[t]
            assert gi.weights[i] == g.weight(t)
            succ = {gi.tasks[j]: w for j, w in gi.succ_rows[i]}
            assert succ == dict(g.out_edges(t))
            pred = {gi.tasks[j]: w for j, w in gi.pred_rows[i]}
            assert pred == dict(g.in_edges(t))

    def test_index_cached_by_mutation_version(self):
        g = GRAPHS[0].copy()
        gi1 = graph_index(g)
        assert graph_index(g) is gi1
        g.add_task("fresh", 1.0)
        gi2 = graph_index(g)
        assert gi2 is not gi1
        assert gi2.n == gi1.n + 1


# ----------------------------------------------------------------------
# levels / critical path
# ----------------------------------------------------------------------
class TestLevelEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    @pytest.mark.parametrize("comm", [True, False])
    def test_levels_exactly_equal(self, g, comm):
        tl_d = reference.t_levels(g, communication=comm)
        bl_d = reference.b_levels(g, communication=comm)
        alap_d = reference.alap_times(g, communication=comm)
        ker = g.copy()  # production memoizes per graph: start cold
        tl_k = t_levels(ker, communication=comm)
        bl_k = b_levels(ker, communication=comm)
        alap_k = alap_times(ker, communication=comm)
        # == on dicts ignores order; production promises bit-equal floats
        # AND identical insertion order (callers iterate these dicts).
        assert tl_d == tl_k and list(tl_d) == list(tl_k)
        assert bl_d == bl_k and list(bl_d) == list(bl_k)
        assert alap_d == alap_k and list(alap_d) == list(alap_k)

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_hu_levels_and_critical_path(self, g):
        hu_d = reference.hu_levels(g)
        cp_d = reference.critical_path(g, communication=True)
        cpn_d = reference.critical_path(g, communication=False)
        ker = g.copy()
        hu_k = hu_levels(ker)
        cp_k = critical_path(ker, communication=True)
        cpn_k = critical_path(ker, communication=False)
        assert hu_d == hu_k and list(hu_d) == list(hu_k)
        assert cp_d == cp_k
        assert cpn_d == cpn_k

    def test_arr_matches_dict_values(self):
        g = GRAPHS[0]
        gi = graph_index(g)
        tl = t_levels_arr(g, communication=True)
        bl = b_levels_arr(g, communication=True)
        tl_d = reference.t_levels(g, communication=True)
        bl_d = reference.b_levels(g, communication=True)
        for t in g.tasks():
            i = gi.index_of[t]
            assert tl[i] == tl_d[t]
            assert bl[i] == bl_d[t]


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
def _chain_split_clusters(g: TaskGraph, k: int = 4) -> list[list]:
    order = list(g.topological_order())
    return [order[i::k] for i in range(k) if order[i::k]]


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_ordered_identical(self, g):
        clusters = _chain_split_clusters(g)
        ref = reference.simulate_ordered(g, clusters)
        ker = simulate_ordered(g.copy(), clusters)
        assert ref.to_dict() == ker.to_dict()

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_simulate_clustering_identical(self, g):
        assignment = {t: i % 3 for i, t in enumerate(g.tasks())}
        ref = reference.simulate_clustering(g, assignment)
        ker = simulate_clustering(g.copy(), assignment)
        assert ref.to_dict() == ker.to_dict()

    # flag True runs production, False the reference oracle
    @pytest.mark.parametrize("flag", [True, False])
    def test_validation_hoisted_behind_flag(self, flag):
        simulate = simulate_ordered if flag else reference.simulate_ordered
        g = GRAPHS[0]
        tasks = list(g.tasks())
        duplicated = [tasks, [tasks[0]]]
        with pytest.raises(ScheduleError, match="more than one cluster"):
            simulate(g, duplicated)
        with pytest.raises(ScheduleError, match="not clustered"):
            simulate(g, [tasks[:-1]])

    @pytest.mark.parametrize("flag", [True, False])
    def test_deadlocking_order_raises_in_both_modes(self, flag):
        simulate = simulate_ordered if flag else reference.simulate_ordered
        g = TaskGraph()
        for t in "ab":
            g.add_task(t, 1)
        g.add_edge("a", "b", 1)
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate(g, [["b", "a"]])


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", REWRITTEN)
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_schedules_placement_identical(self, name, g):
        ref = reference.SCHEDULERS[name](g).to_dict()
        ker = get_scheduler(name).schedule(g.copy()).to_dict()
        assert ref == ker

    @pytest.mark.parametrize("name", ["MCP", "MH", "HU", "ETF", "HLFET", "DLS"])
    def test_bounded_pool_placement_identical(self, name):
        oracle = reference.SCHEDULERS[name]
        for cap in (1, 2, 3):
            for g in GRAPHS:
                ref = oracle(g, max_processors=cap).to_dict()
                sched = type(get_scheduler(name))(max_processors=cap)
                ker = sched.schedule(g.copy()).to_dict()
                assert ref == ker, f"max_processors={cap}"


# ----------------------------------------------------------------------
# clan decomposition (production bitsets vs the numpy oracle)
# ----------------------------------------------------------------------
def _tree_shape(node):
    if node.is_leaf:
        return ("leaf", node.task)
    return (node.kind.name, [_tree_shape(c) for c in node.children])


class TestDecompositionEquivalence:
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_trees_identical(self, g):
        ref = _tree_shape(reference.decompose(g))
        ker = _tree_shape(decompose(g))
        assert ref == ker


# ----------------------------------------------------------------------
# CLANS on the 60-graph reference suite (decomposition + decision step)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference_suite() -> list[TaskGraph]:
    return [sg.graph for sg in generate_suite(graphs_per_cell=1, seed=SEED)]


def _parts_avoiding_lowest(node: ClanNode, index: dict) -> int:
    """|P(S, v)|: the maximal clans of ``node`` that miss its lowest vertex v.

    Read off the parse tree along the path down to v: every other child of
    a PRIMITIVE node is one; the other children of an INDEPENDENT node
    form one together; those of a LINEAR node form one block before v's
    child and one after it.
    """
    low = min(index[t] for t in node.members)
    count = 0
    while not node.is_leaf:
        at = next(
            i for i, c in enumerate(node.children)
            if any(index[t] == low for t in c.members)
        )
        if node.kind is ClanKind.PRIMITIVE:
            count += len(node.children) - 1
        elif node.kind is ClanKind.INDEPENDENT:
            count += 1
        else:
            count += (at > 0) + (at < len(node.children) - 1)
        node = node.children[at]
    return count


class TestClansReferenceSuite:
    def test_trees_identical_and_primitive_rich(self, reference_suite):
        widest = 0
        for i, g in enumerate(reference_suite):
            ref = reference.decompose(g)
            assert _tree_shape(decompose(g.copy())) == _tree_shape(ref), f"graph {i}"
            for node in ref.walk():
                if node.kind is ClanKind.PRIMITIVE:
                    widest = max(widest, len(node.children))
        assert widest >= 20

    @pytest.mark.parametrize("speedup_check", [True, False])
    def test_clans_identical(self, reference_suite, speedup_check):
        for i, g in enumerate(reference_suite):
            ref, ref_fallback = reference.clans_run(g, speedup_check=speedup_check)
            sched = ClansScheduler(speedup_check=speedup_check)
            ker = sched.schedule(g.copy())
            assert ker.to_dict() == ref.to_dict(), f"graph {i}"
            assert sched.last_fallback == ref_fallback, f"graph {i}"

    def test_one_closure_per_part_at_each_primitive_node(self, reference_suite):
        """At a PRIMITIVE node the closures run on the quotient of P(S, v)
        plus v, at most once per part (not once per vertex pair)."""
        real_children = decomposition._primitive_children_bits
        real_closure = decomposition._smallest_module_bits
        log: list[list[int]] = []  # [node mask, closure calls, largest subset]

        def children(br, subset):
            log.append([subset, 0, 0])
            return real_children(br, subset)

        def closure(subset, vbit, ubit, diffs):
            log[-1][1] += 1
            log[-1][2] = max(log[-1][2], subset.bit_count())
            return real_closure(subset, vbit, ubit, diffs)

        n_primitive = 0
        with mock.patch.object(
            decomposition, "_primitive_children_bits", children
        ), mock.patch.object(decomposition, "_smallest_module_bits", closure):
            for i, g in enumerate(reference_suite):
                log.clear()
                tree = decompose(g.copy())
                index = {t: j for j, t in enumerate(g.topological_order())}
                bound = {
                    sum(1 << index[t] for t in node.members):
                        _parts_avoiding_lowest(node, index)
                    for node in tree.walk()
                    if node.kind is ClanKind.PRIMITIVE
                }
                assert sorted(mask for mask, _, _ in log) == sorted(bound)
                for mask, calls, largest in log:
                    assert calls <= bound[mask], f"graph {i}"
                    assert largest <= bound[mask] + 1, f"graph {i}"
                n_primitive += len(bound)
        assert n_primitive > 0


# ----------------------------------------------------------------------
# observability wiring
# ----------------------------------------------------------------------
class TestKernelObservability:
    def test_compile_timer_and_cache_counters(self):
        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        with use_registry(sandbox):
            graph_index(g)
            graph_index(g)
            graph_index(g)
        counters = sandbox.counters()
        assert counters.get("kernels.cache.misses") == 1
        assert counters.get("kernels.cache.hits") == 2
        stats = sandbox.timer_stats("kernels.compile")
        assert stats.count == 1


# ----------------------------------------------------------------------
# concurrent access (the daemon compiles indexes from executor threads)
# ----------------------------------------------------------------------
class TestConcurrentIndexAccess:
    def test_one_compile_per_graph_version_under_contention(self):
        import threading

        from repro.core.kernels import discard_index

        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        results: list[GraphIndex] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()  # maximize overlap on the memoization miss path
            results.append(graph_index(g))

        with use_registry(sandbox):
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        counters = sandbox.counters()
        assert counters.get("kernels.cache.misses") == 1
        assert counters.get("kernels.cache.hits") == 7
        assert sandbox.timer_stats("kernels.compile").count == 1
        # no torn reads: every thread saw the one compiled index
        assert len(results) == 8
        assert all(idx is results[0] for idx in results)
        discard_index(g)

    def test_mutation_then_concurrent_reads_stay_consistent(self):
        import threading

        g = GRAPHS[0].copy()
        first = graph_index(g)
        g.add_task("extra", 1.0)  # bumps the version, invalidating the memo
        seen: list[GraphIndex] = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            idx = graph_index(g)
            assert idx.n == g.n_tasks  # never the stale pre-mutation index
            seen.append(idx)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 6
        assert all(idx is seen[0] for idx in seen)
        assert seen[0] is not first

    def test_discard_index_forces_recompile(self):
        from repro.core.kernels import discard_index

        g = GRAPHS[0].copy()
        sandbox = MetricsRegistry()
        with use_registry(sandbox):
            a = graph_index(g)
            discard_index(g)
            b = graph_index(g)
        assert a is not b
        assert sandbox.counters().get("kernels.cache.misses") == 2
