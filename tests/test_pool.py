"""Unit tests for the shared processor pool, :class:`IndexedPool`.

The pool works on integer task ids; ``_pool`` compiles the graph and
returns the id lookup so the cases read in task names.
"""

from __future__ import annotations

import pytest

from repro import TaskGraph
from repro.core.kernels import IndexedPool, graph_index


def _pool(g, **kwargs):
    gi = graph_index(g)
    return IndexedPool(gi, **kwargs), gi.index_of


@pytest.fixture
def graph():
    g = TaskGraph()
    g.add_task("a", 10)
    g.add_task("b", 20)
    g.add_task("c", 5)
    g.add_edge("a", "b", 7)
    g.add_edge("a", "c", 3)
    return g


class TestBookkeeping:
    def test_initially_empty(self, graph):
        pool, _ = _pool(graph)
        assert pool.n_processors == 0
        assert pool.avail(0) == 0.0
        assert pool.can_grow

    def test_place_grows_pool(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        assert pool.n_processors == 1
        assert pool.avail(0) == 10.0
        assert pool.proc_of[ix["a"]] == 0

    def test_non_contiguous_rejected(self, graph):
        pool, ix = _pool(graph)
        with pytest.raises(ValueError):
            pool.place(ix["a"], 3, 0.0)

    def test_bad_cap(self, graph):
        with pytest.raises(ValueError):
            _pool(graph, max_processors=0)


class TestReadyTimes:
    def test_same_processor_no_comm(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        assert pool.ready_time(ix["b"], 0) == 10.0

    def test_cross_processor_pays(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        assert pool.ready_time(ix["b"], 1) == 17.0
        assert pool.ready_time(ix["c"], 1) == 13.0

    def test_est_append_includes_avail(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        pool.place(ix["b"], 0, 10.0)
        # c on proc 0: data ready at 10, proc busy until 30
        assert pool.est_append(ix["c"], 0) == 30.0


class TestInsertion:
    def test_slides_into_gap(self):
        g = TaskGraph()
        g.add_task("x", 10)
        g.add_task("y", 10)
        g.add_task("z", 5)
        pool, ix = _pool(g)
        pool.place(ix["x"], 0, 0.0)
        pool.place(ix["y"], 0, 20.0)  # gap [10, 20]
        assert pool.est_insertion(ix["z"], 0) == 10.0
        assert pool.est_append(ix["z"], 0) == 30.0

    def test_gap_too_small(self):
        g = TaskGraph()
        g.add_task("x", 10)
        g.add_task("y", 10)
        g.add_task("z", 15)
        pool, ix = _pool(g)
        pool.place(ix["x"], 0, 0.0)
        pool.place(ix["y"], 0, 20.0)
        assert pool.est_insertion(ix["z"], 0) == 30.0


class TestBestProcessor:
    def test_prefers_data_locality(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        proc, start = pool.best_processor(ix["b"])
        assert proc == 0 and start == 10.0

    def test_fresh_wins_when_local_busy(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("blocker", 100)
        g.add_task("b", 10)
        g.add_edge("a", "b", 2)
        pool, ix = _pool(g)
        pool.place(ix["a"], 0, 0.0)
        pool.place(ix["blocker"], 0, 10.0)
        proc, start = pool.best_processor(ix["b"])
        assert proc == 1 and start == 12.0

    def test_ties_prefer_existing(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_task("c", 1)
        pool, ix = _pool(g)
        pool.place(ix["a"], 0, 0.0)
        pool.place(ix["b"], 1, 0.0)
        proc, start = pool.best_processor(ix["c"])
        # all options start at 10 (P0), 10 (P1), 0 (fresh): fresh wins here
        assert start == 0.0 and proc == 2


class TestBoundedPool:
    def test_cap_stops_growth(self, graph):
        pool, ix = _pool(graph, max_processors=1)
        pool.place(ix["a"], 0, 0.0)
        assert not pool.can_grow
        proc, start = pool.best_processor(ix["b"])
        assert proc == 0
        proc, _ = pool.earliest_available_processor()
        assert proc == 0

    def test_cap_of_two(self, graph):
        pool, ix = _pool(graph, max_processors=2)
        pool.place(ix["a"], 0, 0.0)
        assert pool.can_grow
        pool.place(ix["b"], 1, 17.0)
        assert not pool.can_grow


class TestEarliestAvailable:
    def test_fresh_processor_at_zero(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        proc, avail = pool.earliest_available_processor()
        assert proc == 1 and avail == 0.0

    def test_reuses_idle_existing(self, graph):
        pool, ix = _pool(graph, max_processors=2)
        pool.place(ix["a"], 0, 0.0)
        pool.place(ix["b"], 1, 17.0)
        proc, avail = pool.earliest_available_processor()
        assert proc == 0 and avail == 10.0


def _brute_force_best(pool, i, *, insertion):
    """The O(P*indeg) reference rule for best_processor: re-scan each candidate."""
    est = pool.est_insertion if insertion else pool.est_append
    if pool.can_grow:
        best_proc = pool.n_processors
        best_start = est(i, best_proc)
    else:
        best_proc = 0
        best_start = est(i, 0)
    for proc in range(pool.n_processors):
        start = est(i, proc)
        if start < best_start - 1e-12 or (
            abs(start - best_start) <= 1e-12 and proc < best_proc
        ):
            best_proc, best_start = proc, start
    return best_proc, best_start


class TestBestProcessorAgainstReference:
    """Property test: the O(P + indeg) fast path must agree everywhere with
    the brute-force per-processor re-scan."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("insertion", [False, True])
    @pytest.mark.parametrize("max_processors", [None, 3])
    def test_random_graphs(self, seed, insertion, max_processors):
        import numpy as np

        from repro.generation.random_dag import generate_pdg

        rng = np.random.default_rng(seed)
        g = generate_pdg(
            rng,
            n_tasks=int(rng.integers(10, 40)),
            band=int(rng.integers(0, 5)),
            anchor=int(rng.integers(2, 6)),
            weight_range=(20, 200),
        )
        pool, ix = _pool(g, max_processors=max_processors)
        for task in g.topological_order():
            i = ix[task]
            fast = pool.best_processor(i, insertion=insertion)
            brute = _brute_force_best(pool, i, insertion=insertion)
            assert fast == brute, f"divergence at {task!r}: {fast} != {brute}"
            pool.place(i, *fast)
        pool.schedule.validate(g)

    def test_zero_weight_and_zero_comm_edges(self):
        g = TaskGraph()
        g.add_task("a", 0.0)
        g.add_task("b", 5.0)
        g.add_task("c", 0.0)
        g.add_task("d", 2.0)
        g.add_edge("a", "b", 0.0)
        g.add_edge("a", "c", 3.0)
        g.add_edge("b", "d", 0.0)
        g.add_edge("c", "d", 4.0)
        for insertion in (False, True):
            pool, ix = _pool(g)
            for task in g.topological_order():
                i = ix[task]
                fast = pool.best_processor(i, insertion=insertion)
                assert fast == _brute_force_best(pool, i, insertion=insertion)
                pool.place(i, *fast)

    def test_ties_prefer_low_existing_processor(self, graph):
        pool, ix = _pool(graph)
        pool.place(ix["a"], 0, 0.0)
        # b and c both ready at 17 on fresh processors (finish 10 + comm 7/3
        # vs waiting on p0): check agreement and determinism of the tie rule
        for task in ("b", "c"):
            i = ix[task]
            fast = pool.best_processor(i)
            assert fast == _brute_force_best(pool, i, insertion=False)
            pool.place(i, *fast)
