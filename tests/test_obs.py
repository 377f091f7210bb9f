"""Tests for the repro.obs observability subsystem.

Covers span nesting/timing, counter isolation between registries, manifest
round-trips, the Scheduler.schedule span/timing contract (exactly one span
per call, error paths included), run_suite error context and progress
statistics.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro import TaskGraph, get_scheduler
from repro.core.exceptions import GraphError, ScheduleError
from repro.core.schedule import Schedule
from repro.experiments.runner import evaluate_graph, run_suite
from repro.generation.suites import SuiteCell, SuiteGraph
from repro.obs import (
    MetricsRegistry,
    ProgressLogger,
    ProgressStats,
    RunManifest,
    Tracer,
    get_registry,
    get_tracer,
    load_manifest,
    manifest_path_for,
    use_registry,
    use_tracer,
)
from repro.schedulers.base import Scheduler


class _BoomScheduler(Scheduler):
    """Raises mid-algorithm (unregistered on purpose)."""

    name = "BOOM"

    def _schedule(self, graph):
        raise ScheduleError("boom")


class _EmptyScheduler(Scheduler):
    """Returns an empty (invalid) schedule — trips validate()."""

    name = "EMPTY"

    def _schedule(self, graph):
        return Schedule()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer", kind="o"):
            with tracer.span("inner", kind="i"):
                sum(range(1000))
        inner, outer = tracer.events  # inner closes (and records) first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert inner["args"]["parent"] == "outer"
        assert "parent" not in outer.get("args", {})
        assert inner["dur"] <= outer["dur"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1.0

    def test_span_records_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("nope")
        (event,) = tracer.events
        assert event["args"]["error"] == "ValueError: nope"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("quiet"):
            pass
        tracer.add_span("quiet", 0.0, 1.0)
        tracer.instant("quiet")
        assert len(tracer) == 0

    def test_global_tracer_disabled_by_default(self):
        assert get_tracer().enabled is False

    def test_use_tracer_restores(self):
        before = get_tracer()
        with use_tracer(Tracer()) as tr:
            assert get_tracer() is tr
        assert get_tracer() is before

    def test_jsonl_export_one_event_per_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.instant("marker", note="here")
        path = tracer.write(tmp_path / "t.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert {e["name"] for e in events} == {"a", "marker"}

    def test_chrome_export_loads_in_trace_viewer_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", cat="test"):
            pass
        path = tracer.write(tmp_path / "t.json")
        data = json.loads(path.read_text())
        (event,) = data["traceEvents"]
        assert event["ph"] == "X"
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_isolation_between_registries(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.inc("x")
        r1.inc("x", 4)
        assert r1.counter("x") == 5
        assert r2.counter("x") == 0

    def test_use_registry_scopes_the_default(self):
        sandbox = MetricsRegistry()
        before = get_registry()
        with use_registry(sandbox):
            get_registry().inc("scoped")
        assert get_registry() is before
        assert sandbox.counter("scoped") == 1
        assert before.counter("scoped") == 0

    def test_timer_context_manager(self):
        r = MetricsRegistry()
        with r.timer("t"):
            pass
        with pytest.raises(RuntimeError):
            with r.timer("t"):
                raise RuntimeError("timed errors still count")
        stats = r.timer_stats("t")
        assert stats.count == 2
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.max_s

    def test_histogram_observe(self):
        r = MetricsRegistry()
        for v in (0.5, 3.0, 100.0):
            r.observe("h", v)
        h = r.snapshot()["histograms"]["h"]
        assert h["count"] == 3
        assert h["min"] == 0.5
        assert h["max"] == 100.0
        assert sum(h["buckets"].values()) == 3

    def test_snapshot_merge_roundtrip(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.inc("c", 2)
        r1.add_timing("t", 0.5)
        r2.merge(r1.snapshot())
        r2.merge(r1.snapshot())
        assert r2.counter("c") == 4
        assert r2.timer_stats("t").count == 2
        assert r2.timer_stats("t").total_s == pytest.approx(1.0)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_collect_fills_environment(self):
        from repro import __version__

        m = RunManifest.collect(seed=7, config={"k": 1})
        assert m.seed == 7
        assert m.version == __version__
        assert m.platform["python"]
        assert m.created

    def test_round_trip_next_to_results(self, tmp_path):
        m = RunManifest.collect(seed=42, config={"graphs_per_cell": 1})
        with m.phase("schedule"):
            pass
        reg = MetricsRegistry()
        reg.inc("simulator.events", 9)
        m.attach_metrics(reg)
        results_path = tmp_path / "res.json"
        written = m.write_for(results_path)
        assert written == tmp_path / "res.manifest.json"
        assert manifest_path_for(results_path) == written
        assert manifest_path_for(written) == written  # idempotent
        loaded = load_manifest(written)
        assert loaded.seed == 42
        assert loaded.config == {"graphs_per_cell": 1}
        assert "schedule" in loaded.phases
        assert loaded.metrics["counters"]["simulator.events"] == 9
        assert loaded.to_dict() == m.to_dict()

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_manifest(path)


# ----------------------------------------------------------------------
# Scheduler.schedule() instrumentation contract
# ----------------------------------------------------------------------
class TestSchedulerSpans:
    def test_exactly_one_span_and_timing_per_call(self, paper_example):
        with use_tracer(Tracer()) as tracer, use_registry(MetricsRegistry()) as reg:
            get_scheduler("DSC").schedule(paper_example)
            get_scheduler("DSC").schedule(paper_example)
        spans = tracer.spans("schedule.DSC")
        assert len(spans) == 2
        assert spans[0]["args"]["n_tasks"] == paper_example.n_tasks
        assert reg.timer_stats("scheduler.DSC").count == 2
        assert reg.counter("scheduler.DSC.errors") == 0

    def test_error_path_still_records_one_span(self, paper_example):
        with use_tracer(Tracer()) as tracer, use_registry(MetricsRegistry()) as reg:
            with pytest.raises(ScheduleError):
                _BoomScheduler().schedule(paper_example)
        (span,) = tracer.spans("schedule.BOOM")
        assert "boom" in span["args"]["error"]
        assert reg.counter("scheduler.BOOM.errors") == 1
        assert reg.timer_stats("scheduler.BOOM").count == 1

    def test_empty_graph_rejection_is_observed(self):
        with use_tracer(Tracer()) as tracer, use_registry(MetricsRegistry()) as reg:
            with pytest.raises(GraphError, match="empty graph"):
                get_scheduler("MH").schedule(TaskGraph())
        (span,) = tracer.spans("schedule.MH")
        assert "empty graph" in span["args"]["error"]
        assert reg.counter("scheduler.MH.errors") == 1
        assert reg.timer_stats("scheduler.MH").count == 1

    def test_nested_graph_span_parents_scheduler_span(self, paper_example):
        with use_tracer(Tracer()) as tracer:
            with tracer.span("graph.g0", cat="suite"):
                get_scheduler("HU").schedule(paper_example)
        sched_span = tracer.spans("schedule.HU")[0]
        assert sched_span["args"]["parent"] == "graph.g0"

    def test_counters_flow_to_scoped_registry(self, paper_example):
        with use_registry(MetricsRegistry()) as reg:
            get_scheduler("DSC").schedule(paper_example)
            get_scheduler("MCP").schedule(paper_example)
            get_scheduler("CLANS").schedule(paper_example)
        counters = reg.counters()
        assert counters["dsc.edge_zeroings"] + counters["dsc.fresh_clusters"] == 5
        assert counters["mcp.insertion_attempts"] == 5
        assert counters["clans.group_decisions"] >= 1
        assert counters["simulator.events"] >= 5  # CLANS simulates its clustering


# ----------------------------------------------------------------------
# runner error context and progress stats
# ----------------------------------------------------------------------
def _tiny_suite(graph, n=3):
    cell = SuiteCell(band=2, anchor=3, weight_range=(20, 100))
    return [SuiteGraph(cell=cell, index=i, graph=graph) for i in range(n)]


class TestRunnerContext:
    def test_validation_failure_carries_run_context(self, paper_example):
        with pytest.raises(ScheduleError) as excinfo:
            evaluate_graph(
                paper_example,
                [_EmptyScheduler()],
                validate=True,
                graph_id="g-007",
                seed=42,
            )
        notes = "\n".join(excinfo.value.__notes__)
        assert "g-007" in notes
        assert "EMPTY" in notes
        assert "42" in notes

    def test_scheduler_failure_carries_run_context(self, paper_example):
        with pytest.raises(ScheduleError) as excinfo:
            evaluate_graph(paper_example, [_BoomScheduler()], graph_id="g-1")
        assert "g-1" in "\n".join(excinfo.value.__notes__)

    def test_run_suite_attaches_graph_id_and_seed(self, paper_example):
        suite = _tiny_suite(paper_example, n=1)
        with pytest.raises(ScheduleError) as excinfo:
            run_suite(suite, [_BoomScheduler()], seed=1234)
        notes = "\n".join(excinfo.value.__notes__)
        assert suite[0].graph_id in notes
        assert "1234" in notes

    def test_progress_two_arg_callback_still_works(self, paper_example):
        seen = []
        run_suite(
            _tiny_suite(paper_example),
            [get_scheduler("HU")],
            progress=lambda i, gr: seen.append(i),
        )
        assert seen == [1, 2, 3]

    def test_progress_three_arg_callback_gets_stats(self, paper_example):
        stats_seen: list[ProgressStats] = []
        run_suite(
            _tiny_suite(paper_example),
            [get_scheduler("HU")],
            progress=lambda i, gr, stats: stats_seen.append(stats),
        )
        assert [s.done for s in stats_seen] == [1, 2, 3]
        assert all(s.total == 3 for s in stats_seen)
        assert stats_seen[-1].elapsed >= stats_seen[0].elapsed >= 0.0
        assert stats_seen[-1].rate > 0.0
        assert stats_seen[-1].eta == pytest.approx(0.0)

    def test_run_suite_traces_each_graph(self, paper_example):
        suite = _tiny_suite(paper_example)
        with use_tracer(Tracer()) as tracer:
            run_suite(suite, [get_scheduler("HU")])
        graph_spans = [e for e in tracer.spans() if e["name"].startswith("graph.")]
        assert len(graph_spans) == 3


class TestProgressLogger:
    # an injected logger outside the "repro" namespace keeps these tests
    # independent of whether obs.configure() disabled propagation earlier
    def test_logs_count_elapsed_and_rate(self, caplog):
        pl = ProgressLogger(every=1, logger=logging.getLogger("obs-test.rate"))
        stats = ProgressStats(done=5, total=10, elapsed=2.0, rate=2.5)
        with caplog.at_level(logging.INFO, logger="obs-test.rate"):
            pl(5, None, stats)
        (record,) = caplog.records
        assert "5/10 graphs" in record.message
        assert "2.0s elapsed" in record.message
        assert "2.5 graphs/s" in record.message
        assert "ETA 2.0s" in record.message

    def test_respects_every_and_final(self, caplog):
        pl = ProgressLogger(every=2, logger=logging.getLogger("obs-test.every"))
        with caplog.at_level(logging.INFO, logger="obs-test.every"):
            for i in range(1, 6):
                pl(i, None, ProgressStats(done=i, total=5, elapsed=1.0, rate=1.0))
        logged = [r.done for r in caplog.records]
        assert logged == [2, 4, 5]  # every 2nd plus the final graph
