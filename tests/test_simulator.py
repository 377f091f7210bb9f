"""Unit tests for the shared execution-timing simulator."""

from __future__ import annotations

import pytest

from repro import (
    ReproError,
    ScheduleError,
    TaskGraph,
    serial_schedule,
    simulate_clustering,
    simulate_ordered,
)


class TestSimulateOrdered:
    def test_single_cluster_is_serial(self, chain5):
        s = simulate_ordered(chain5, [list(range(5))])
        assert s.makespan == chain5.serial_time()
        s.validate(chain5)

    def test_cross_cluster_pays_comm(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 20)
        g.add_edge("a", "b", 5)
        s = simulate_ordered(g, [["a"], ["b"]])
        assert s.start("b") == 15.0
        assert s.makespan == 35.0

    def test_same_cluster_no_comm(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 20)
        g.add_edge("a", "b", 5)
        s = simulate_ordered(g, [["a", "b"]])
        assert s.start("b") == 10.0

    def test_waits_for_processor(self, diamond):
        # b and c share a's cluster: c must queue behind b
        s = simulate_ordered(diamond, [["a", "b", "c", "d"]])
        assert s.start("c") == 20.0
        s.validate(diamond)

    def test_multicast_overlaps(self, diamond):
        # b and c on separate clusters both get a's data at 10 + 4
        s = simulate_ordered(diamond, [["a", "b", "d"], ["c"]])
        assert s.start("b") == 10.0
        assert s.start("c") == 14.0
        # d waits for c's message: 24 + 4 = 28
        assert s.start("d") == 28.0
        s.validate(diamond)

    def test_duplicate_task_rejected(self, diamond):
        with pytest.raises(ScheduleError, match="more than one"):
            simulate_ordered(diamond, [["a", "b"], ["b", "c", "d"]])

    def test_missing_task_rejected(self, diamond):
        with pytest.raises(ScheduleError, match="not clustered"):
            simulate_ordered(diamond, [["a", "b", "c"]])

    def test_unknown_task_rejected(self, diamond):
        with pytest.raises(ScheduleError, match="unknown"):
            simulate_ordered(diamond, [["a", "b", "c", "d", "zzz"]])

    def test_deadlock_detected(self):
        g = TaskGraph()
        for t in "abcd":
            g.add_task(t, 1)
        g.add_edge("a", "b", 0)
        g.add_edge("c", "d", 0)
        # cluster orders b-before-c and d-before-a close a cycle
        with pytest.raises(ScheduleError, match="deadlock"):
            simulate_ordered(g, [["b", "c"], ["d", "a"]])

    def test_empty_cluster_allowed(self, single):
        s = simulate_ordered(single, [["only"], []])
        assert s.makespan == 7.0


class TestSimulateClustering:
    def test_assignment_respected(self, diamond):
        s = simulate_clustering(diamond, {"a": 0, "b": 0, "c": 1, "d": 0})
        assert s.processor_of("c") != s.processor_of("a")
        s.validate(diamond)

    def test_processor_ids_normalized(self, diamond):
        s = simulate_clustering(diamond, {"a": 7, "b": 7, "c": 99, "d": 7})
        assert set(s.processors) == {0, 1}

    def test_never_deadlocks(self, paper_example):
        # any assignment must simulate fine (orders derive from one topo order)
        s = simulate_clustering(
            paper_example, {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
        )
        s.validate(paper_example)

    def test_incomplete_assignment_rejected(self, diamond):
        with pytest.raises(ScheduleError):
            simulate_clustering(diamond, {"a": 0})

    def test_priority_orders_cluster(self, diamond):
        # with priority forcing c first, c precedes b on the shared processor
        prio = {"a": 10, "b": 1, "c": 5, "d": 0}
        s = simulate_clustering(diamond, {t: 0 for t in diamond.tasks()}, priority=prio)
        assert s.start("c") < s.start("b")


class TestSerialSchedule:
    def test_uses_one_processor(self, paper_example):
        s = serial_schedule(paper_example)
        assert s.n_processors == 1
        assert s.makespan == paper_example.serial_time()
        s.validate(paper_example)

    def test_speedup_is_one(self, paper_example):
        assert serial_schedule(paper_example).speedup(paper_example) == pytest.approx(1.0)


@pytest.fixture
def cyclic() -> TaskGraph:
    """a -> b -> c -> a: not a DAG (TaskGraph.add_edge does not check)."""
    g = TaskGraph()
    for t in "abc":
        g.add_task(t, 1)
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 1)
    g.add_edge("c", "a", 1)
    return g


class TestCyclicInput:
    @pytest.mark.parametrize(
        "clusters", [[["a", "b", "c"]], [["a"], ["b"], ["c"]]], ids=["one", "three"]
    )
    def test_simulate_ordered_reports_deadlock(self, cyclic, clusters):
        with pytest.raises(ScheduleError, match="clustering deadlocks") as exc:
            simulate_ordered(cyclic, clusters)
        assert exc.type is ScheduleError

    @pytest.mark.parametrize(
        "priority", [None, {"a": 1, "b": 2, "c": 3}], ids=["b-level", "given"]
    )
    def test_simulate_clustering_reports_cycle(self, cyclic, priority):
        with pytest.raises(ScheduleError, match="cycle") as exc:
            simulate_clustering(cyclic, {"a": 0, "b": 1, "c": 0}, priority=priority)
        assert exc.type is ScheduleError

    def test_serial_schedule_raises_library_error(self, cyclic):
        with pytest.raises(ReproError):
            serial_schedule(cyclic)
