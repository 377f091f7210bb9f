"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro import get_scheduler
from repro.experiments.runner import PAPER_HEURISTIC_ORDER, evaluate_graph, run_suite
from repro.generation.suites import SuiteCell, generate_suite


@pytest.fixture(scope="module")
def small_suite():
    cells = [SuiteCell(0, 2, (20, 100)), SuiteCell(4, 3, (20, 100))]
    return list(generate_suite(graphs_per_cell=2, cells=cells, n_tasks_range=(15, 25)))


class TestEvaluateGraph:
    def test_all_heuristics_present(self, paper_example):
        out = evaluate_graph(paper_example, [get_scheduler(n) for n in PAPER_HEURISTIC_ORDER])
        assert set(out) == set(PAPER_HEURISTIC_ORDER)
        for r in out.values():
            assert r.parallel_time > 0
            assert r.n_processors >= 1

    def test_validation_flag(self, paper_example):
        # just exercises the validate path; all real schedules must pass
        evaluate_graph(paper_example, [get_scheduler("DSC")], validate=True)

    def test_known_values(self, paper_example):
        out = evaluate_graph(paper_example, [get_scheduler("CLANS")])
        assert out["CLANS"].parallel_time == pytest.approx(130.0)
        assert out["CLANS"].n_processors == 2


class TestRunSuite:
    def test_produces_one_result_per_graph(self, small_suite):
        results = run_suite(small_suite)
        assert len(results) == len(small_suite)
        for gr in results:
            assert set(gr.results) == set(PAPER_HEURISTIC_ORDER)

    def test_classification_carried(self, small_suite):
        results = run_suite(small_suite)
        bands = {gr.band for gr in results}
        assert bands == {0, 4}
        for gr in results:
            assert gr.serial_time > 0
            assert gr.granularity > 0

    def test_progress_callback(self, small_suite):
        seen = []
        run_suite(small_suite, progress=lambda i, gr: seen.append(i))
        assert seen == list(range(1, len(small_suite) + 1))

    def test_custom_scheduler_list(self, small_suite):
        results = run_suite(small_suite, [get_scheduler("SERIAL")])
        for gr in results:
            assert set(gr.results) == {"SERIAL"}
            assert gr.results["SERIAL"].parallel_time == pytest.approx(gr.serial_time)


class TestCyclicGraphInSuite:
    """A cyclic graph in the middle of a suite, serial and ``--jobs``."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro import TaskGraph
        from repro.generation.suites import SuiteGraph

        ok = list(
            generate_suite(
                graphs_per_cell=2,
                cells=[SuiteCell(1, 2, (20, 100))],
                n_tasks_range=(10, 15),
            )
        )
        cyc = TaskGraph()
        for t in "abc":
            cyc.add_task(t, 10)
        cyc.add_edge("a", "b", 5)
        cyc.add_edge("b", "c", 5)
        cyc.add_edge("c", "a", 5)
        bad = SuiteGraph(cell=ok[0].cell, index=99, graph=cyc)
        return [ok[0], bad, ok[1]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_policy_raises_cycle_error(self, suite, jobs):
        from repro.core.exceptions import CycleError

        with pytest.raises(CycleError):
            run_suite(suite, jobs=jobs, on_error="raise")

    def test_record_policy_one_failure_per_heuristic(self, suite):
        from repro.experiments.advbench import _serialized

        outputs = []
        for jobs in (1, 2):
            results = run_suite(suite, jobs=jobs, on_error="record")
            assert [gr.graph_id for gr in results] == [
                suite[0].graph_id,
                suite[2].graph_id,
            ]
            failures = sorted(
                (fr.heuristic, fr.kind, fr.exc_type, fr.graph_id)
                for fr in results.failures
            )
            assert failures == sorted(
                (name, "error", "CycleError", suite[1].graph_id)
                for name in PAPER_HEURISTIC_ORDER
            )
            outputs.append((_serialized(results), failures))
        assert outputs[0] == outputs[1]
