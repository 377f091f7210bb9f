"""End-to-end telemetry: trace propagation, quantile histograms, exposition.

Four layers under test:

* :mod:`repro.obs.telemetry` — the W3C-traceparent codec and the
  contextvar propagation model;
* :class:`repro.obs.metrics.FixedHistogram` — bucket-boundary semantics,
  quantile estimation, and the exact order-independent merge that makes
  per-worker aggregation well-defined;
* :mod:`repro.obs.prom` — the Prometheus text exposition and the
  service's ``metrics`` verb;
* the acceptance path: one trace id emitted by the blocking client must
  appear on client, server (admission / queue / op / compile) and
  suite-worker spans — a single distributed trace across a process
  boundary — plus the ``bench track`` perf-ledger exit codes.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.core.kernels import graph_index
from repro.experiments import benchtrack
from repro.experiments.parallel import run_suite_parallel
from repro.generation.suites import SuiteCell, generate_suite
from repro.generation.workloads import fork_join, gaussian_elimination
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    FixedHistogram,
    MetricsRegistry,
    use_registry,
)
from repro.obs.profile import SamplingProfiler, profile_path_for
from repro.obs.prom import to_prometheus
from repro.obs.telemetry import (
    TraceContext,
    current_context,
    inject,
    extract,
    new_context,
    parse_traceparent,
    use_context,
)
from repro.obs.trace import Tracer, use_tracer
from repro.service import ServerThread, ServiceClient
from repro.service.protocol import decode_request, encode_request
from repro.service.top import render


# ----------------------------------------------------------------------
# trace context codec
# ----------------------------------------------------------------------
class TestTraceparent:
    def test_round_trip(self):
        ctx = new_context()
        assert parse_traceparent(ctx.to_traceparent()) == ctx

    def test_format_shape(self):
        ctx = new_context()
        version, trace_id, span_id, flags = ctx.to_traceparent().split("-")
        assert version == "00"
        assert len(trace_id) == 32 and len(span_id) == 16 and flags == "01"

    def test_child_keeps_trace_id_fresh_span_id(self):
        ctx = new_context()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            42,
            "",
            "nonsense",
            "00-xyz-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",  # 3 parts
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # version ff
            "00-" + "0" * 32 + "-00f067aa0ba902b7-01",  # all-zero trace id
            "00-4bf92f3577b34da6a3ce929d0e0e4736-" + "0" * 16 + "-01",  # zero span
        ],
    )
    def test_malformed_is_dropped_not_raised(self, bad):
        assert parse_traceparent(bad) is None

    def test_inject_extract_envelope(self):
        ctx = new_context()
        obj = inject({"op": "schedule"}, ctx)
        assert extract(obj) == ctx
        assert inject({"op": "x"}) == {"op": "x"}  # no active ctx: no bytes

    def test_contextvar_scoping(self):
        assert current_context() is None
        ctx = new_context()
        with use_context(ctx):
            assert current_context() == ctx
            with use_context(ctx.child()) as inner:
                assert current_context() == inner
            assert current_context() == ctx
        assert current_context() is None


class TestWireRoundTrip:
    def test_traceparent_survives_encode_decode(self):
        ctx = new_context()
        frame = encode_request(
            "schedule",
            {"graph": {}},
            id=7,
            traceparent=ctx.to_traceparent(),
        )
        request = decode_request(frame)
        assert request.traceparent == ctx.to_traceparent()
        assert parse_traceparent(request.traceparent) == ctx

    def test_absent_traceparent_is_none(self):
        request = decode_request(encode_request("health"))
        assert request.traceparent is None

    def test_malformed_traceparent_dropped_request_still_valid(self):
        line = json.dumps(
            {"id": 1, "op": "health", "params": {}, "traceparent": "garbage"}
        )
        request = decode_request(line)
        assert request.op == "health"
        assert request.traceparent is None


# ----------------------------------------------------------------------
# fixed-bucket histograms
# ----------------------------------------------------------------------
class TestFixedHistogram:
    def test_empty_quantile_is_nan(self):
        h = FixedHistogram((1.0, 2.0))
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.quantile(0.0))
        assert math.isnan(h.quantile(1.0))

    def test_single_sample_is_exact(self):
        h = FixedHistogram(DEFAULT_LATENCY_BOUNDS_MS)
        h.observe(3.7)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.7)

    def test_le_semantics_at_bucket_edges(self):
        # Values exactly on a bound land in that bound's bucket (le).
        h = FixedHistogram((1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        assert h.counts == [1, 1, 1, 0]

    def test_quantiles_exact_for_population_on_edges(self):
        h = FixedHistogram((1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(2.0)
        assert h.quantile(0.5) == pytest.approx(2.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_quantile_clamps_to_observed_range(self):
        h = FixedHistogram((100.0,))
        h.observe(3.0)
        h.observe(5.0)
        assert 3.0 <= h.quantile(0.5) <= 5.0
        assert h.quantile(1.0) == pytest.approx(5.0)
        assert h.quantile(0.0) == pytest.approx(3.0)

    def test_overflow_bucket(self):
        h = FixedHistogram((1.0,))
        h.observe(99.0)
        assert h.counts == [0, 1]
        assert h.quantile(0.5) == pytest.approx(99.0)  # clamped to max

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram(())
        with pytest.raises(ValueError):
            FixedHistogram((1.0, 1.0))
        with pytest.raises(ValueError):
            FixedHistogram((2.0, 1.0))
        with pytest.raises(ValueError):
            FixedHistogram((1.0, math.inf))

    def test_merge_is_order_independent(self):
        samples_a = [0.3, 1.0, 7.5, 120.0]
        samples_b = [2.0, 2.5, 900.0]
        samples_c = [0.1, 55.0]

        def hist(samples):
            h = FixedHistogram(DEFAULT_LATENCY_BOUNDS_MS)
            for v in samples:
                h.observe(v)
            return h

        ab_c = hist(samples_a)
        ab_c.merge(hist(samples_b))
        ab_c.merge(hist(samples_c))
        c_ba = hist(samples_c)
        c_ba.merge(hist(samples_b))
        c_ba.merge(hist(samples_a))
        direct = hist(samples_a + samples_b + samples_c)
        # Bucket counts, extrema and every quantile are exactly
        # order-independent; total/mean only up to float summation order.
        for merged in (ab_c, c_ba):
            assert merged.counts == direct.counts
            assert merged.count == direct.count
            assert merged.min == direct.min and merged.max == direct.max
            assert merged.total == pytest.approx(direct.total)
            for q in (0.5, 0.95, 0.99):
                assert merged.quantile(q) == direct.quantile(q)

    def test_merge_accepts_snapshot_dict(self):
        a = FixedHistogram((1.0, 10.0))
        a.observe(0.5)
        b = FixedHistogram((1.0, 10.0))
        b.observe(5.0)
        a.merge(b.as_dict())
        assert a.count == 2 and a.counts == [1, 1, 0]

    def test_merge_rejects_mismatched_bounds(self):
        a = FixedHistogram((1.0,))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(FixedHistogram((2.0,)))

    def test_registry_merge_folds_worker_histograms_exactly(self):
        parent = MetricsRegistry()
        worker1 = MetricsRegistry()
        worker2 = MetricsRegistry()
        for v in (1.0, 30.0):
            worker1.observe("lat", v, bounds=DEFAULT_LATENCY_BOUNDS_MS)
        worker2.observe("lat", 600.0, bounds=DEFAULT_LATENCY_BOUNDS_MS)
        parent.merge(worker1.snapshot())
        parent.merge(worker2.snapshot())
        direct = MetricsRegistry()
        for v in (1.0, 30.0, 600.0):
            direct.observe("lat", v, bounds=DEFAULT_LATENCY_BOUNDS_MS)
        assert (
            parent.snapshot()["histograms"]["lat"]
            == direct.snapshot()["histograms"]["lat"]
        )


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict[str, float]:
    """Minimal 0.0.4 parser: sample name+labels -> value, validating
    comment/TYPE structure along the way."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            raise AssertionError("blank line in exposition")
        if line.startswith("#"):
            assert line.startswith("# TYPE "), line
            continue
        name_and_labels, _, value = line.rpartition(" ")
        assert name_and_labels, line
        samples[name_and_labels] = float(value)
    return samples


class TestPrometheus:
    def test_counter_timer_histogram_render(self):
        reg = MetricsRegistry()
        reg.inc("service.requests", 5)
        reg.add_timing("service.op.schedule", 0.25)
        for v in (0.4, 3.0, 9999.0):
            reg.observe("service.latency_ms", v, bounds=(1.0, 10.0))
        samples = _parse_prometheus(to_prometheus(reg.snapshot()))
        assert samples["repro_service_requests_total"] == 5.0
        assert samples["repro_service_op_schedule_seconds_count"] == 1.0
        assert samples["repro_service_op_schedule_seconds_sum"] == 0.25
        assert samples['repro_service_latency_ms_bucket{le="1"}'] == 1.0
        assert samples['repro_service_latency_ms_bucket{le="10"}'] == 2.0
        assert samples['repro_service_latency_ms_bucket{le="+Inf"}'] == 3.0
        assert samples["repro_service_latency_ms_count"] == 3.0

    def test_cumulative_buckets_are_monotone(self):
        reg = MetricsRegistry()
        for v in (0.5, 2.0, 20.0, 500.0):
            reg.observe("lat", v, bounds=DEFAULT_LATENCY_BOUNDS_MS)
        text = to_prometheus(reg.snapshot())
        cums = [
            float(line.rpartition(" ")[2])
            for line in text.splitlines()
            if "_bucket{" in line
        ]
        assert cums == sorted(cums)
        assert cums[-1] == 4.0

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.inc("weird.metric-name/x")
        text = to_prometheus(reg.snapshot())
        assert "repro_weird_metric_name_x_total 1" in text


# ----------------------------------------------------------------------
# acceptance: one trace id across client, server and workers
# ----------------------------------------------------------------------
class TestDistributedTrace:
    def test_one_trace_id_client_to_server_spans(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with use_registry(registry), use_tracer(tracer):
            with ServerThread(port=0, threads=2) as srv:
                with ServiceClient(srv.address) as client:
                    client.schedule(gaussian_elimination(5), "MCP")

        spans = {e["name"]: e for e in tracer.spans()}
        # The blocking client minted a root context; every hop of the
        # request joins its trace.
        client_span = spans["client.schedule"]
        trace_id = client_span["args"]["trace_id"]
        assert parse_traceparent(f"00-{trace_id}-{'1' * 16}-01") is not None
        for name in ("service.queue", "service.schedule", "kernels.compile"):
            assert name in spans, f"missing span {name}: {sorted(spans)}"
            assert spans[name]["args"]["trace_id"] == trace_id, name
        admits = [e for e in tracer.events if e["name"] == "service.admit"]
        assert admits and admits[0]["args"]["trace_id"] == trace_id
        # Server-side handling is a *child* span: same trace, new span id.
        assert (
            spans["service.schedule"]["args"]["span_id"]
            != client_span["args"]["span_id"]
        )

    def test_trace_ids_differ_between_requests(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with use_registry(registry), use_tracer(tracer):
            with ServerThread(port=0, threads=1) as srv:
                with ServiceClient(srv.address) as client:
                    client.classify(fork_join(3))
                    client.classify(fork_join(4))
        ids = {
            e["args"]["trace_id"]
            for e in tracer.spans("client.classify")
        }
        assert len(ids) == 2

    def test_untraced_requests_carry_no_traceparent(self):
        frames = []
        real_encode = ServiceClient.call  # sanity: capture via decode instead
        del real_encode
        tracer = Tracer(enabled=False)
        with use_tracer(tracer):
            frame = encode_request("health")
            assert b"traceparent" not in frame
            # and the client helper mints no context when tracing is off
            from repro.service.client import _request_context

            assert _request_context() is None
            frames.append(frame)

    def test_campaign_trace_id_reaches_suite_worker_spans(self):
        cells = [SuiteCell(0, 2, (20, 100))]
        suite = list(
            generate_suite(graphs_per_cell=4, cells=cells, n_tasks_range=(10, 16))
        )
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        ctx = new_context()
        with use_registry(registry), use_tracer(tracer), use_context(ctx):
            run_suite_parallel(suite, jobs=2, chunk_size=2)
        worker_spans = [
            e for e in tracer.spans() if e["name"].startswith("graph.")
        ]
        assert worker_spans, "no worker graph spans were folded into the parent"
        assert all(e["pid"] != 0 for e in worker_spans)
        assert {e["args"]["trace_id"] for e in worker_spans} == {ctx.trace_id}
        sched_spans = [
            e for e in tracer.spans() if e["name"].startswith("schedule.")
        ]
        assert sched_spans
        assert {e["args"]["trace_id"] for e in sched_spans} == {ctx.trace_id}

    def test_compile_span_joins_active_trace(self):
        tracer = Tracer(enabled=True)
        ctx = new_context()
        with use_tracer(tracer), use_context(ctx):
            graph_index(fork_join(5))
        compile_spans = tracer.spans("kernels.compile")
        assert compile_spans
        assert compile_spans[0]["args"]["trace_id"] == ctx.trace_id


# ----------------------------------------------------------------------
# metrics verb + top dashboard
# ----------------------------------------------------------------------
class TestMetricsVerbAndTop:
    def test_metrics_verb_returns_parsable_prometheus(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with ServerThread(port=0) as srv:
                with ServiceClient(srv.address) as client:
                    client.classify(fork_join(3))
                    payload = client.metrics()
        assert payload["content_type"].startswith("text/plain; version=0.0.4")
        samples = _parse_prometheus(payload["text"])
        assert samples["repro_service_requests_total"] >= 1.0
        assert any("latency_ms_bucket" in k for k in samples)

    def test_render_is_pure_and_complete(self):
        stats = {
            "uptime_s": 12.0,
            "draining": False,
            "queue_depth": 3,
            "queue_capacity": 128,
            "inflight_groups": 1,
            "index_cache": {"size": 2, "capacity": 64},
            "counters": {
                "service.requests": 120.0,
                "service.errors": 6.0,
                "service.shed": 2.0,
                "service.deadline_misses": 1.0,
                "service.index_cache.hits": 90.0,
                "service.index_cache.misses": 10.0,
                "service.batch.groups": 10.0,
                "service.batch.grouped_requests": 35.0,
            },
            "latency_ms": {"p50": 1.5, "p95": 9.0, "p99": 30.0, "count": 120},
        }
        prev = {"counters": {"service.requests": 100.0, "service.errors": 6.0}}
        frame = render(stats, prev, interval=2.0)
        assert "10.0/s" in frame  # (120-100)/2
        assert "p50     1.50" in frame
        assert "3/128" in frame
        assert "shed 2" in frame and "deadline 1" in frame
        assert "90.0% hit" in frame
        assert "3.50 req/group" in frame

    def test_render_without_prev_shows_na_rates(self):
        frame = render({"counters": {}, "queue_capacity": 8})
        assert "n/a" in frame


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_collapsed_stacks_capture_busy_function(self, tmp_path):
        def _spin_with_a_recognizable_name(deadline: float) -> None:
            while time.perf_counter() < deadline:
                sum(range(200))

        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            _spin_with_a_recognizable_name(time.perf_counter() + 0.25)
        assert profiler.n_samples > 0
        out = profiler.write(tmp_path / "run.profile.txt")
        text = out.read_text()
        assert text.startswith("# repro sampling profile:")
        assert "_spin_with_a_recognizable_name" in text
        # collapsed format: every non-comment line is "stack count"
        for line in text.splitlines()[1:]:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_profile_path_pairs_with_artifact(self):
        assert str(profile_path_for("out/res.json")).endswith("out/res.profile.txt")


# ----------------------------------------------------------------------
# perf-trajectory ledger
# ----------------------------------------------------------------------
class TestBenchTrack:
    def _seed_tree(self, root, *, speedup: float) -> None:
        out = root / "benchmarks" / "out"
        out.mkdir(parents=True)
        (out / "BENCH_perf_suite.json").write_text(
            json.dumps({"speedup": speedup, "serial_s": 2.0, "parallel_s": 1.0})
        )

    def test_record_then_check_passes(self, tmp_path, capsys):
        self._seed_tree(tmp_path, speedup=4.5)
        assert benchtrack.run_track(root=tmp_path, label="seed") == 0
        assert benchtrack.run_track(root=tmp_path, check=True) == 0
        out = capsys.readouterr().out
        assert "no tracked metric regressed" in out

    def test_check_fails_on_synthetic_regression(self, tmp_path, capsys):
        self._seed_tree(tmp_path, speedup=4.5)
        assert benchtrack.run_track(root=tmp_path, label="seed") == 0
        # regress the suite speedup far beyond the 35% band
        self._seed_tree_update(tmp_path, speedup=1.0)
        assert benchtrack.run_track(root=tmp_path, check=True) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "perf_suite:speedup" in out

    def _seed_tree_update(self, root, *, speedup: float) -> None:
        path = root / "benchmarks" / "out" / "BENCH_perf_suite.json"
        payload = json.loads(path.read_text())
        payload["speedup"] = speedup
        path.write_text(json.dumps(payload))

    def test_check_without_history_is_clean(self, tmp_path):
        self._seed_tree(tmp_path, speedup=4.0)
        assert benchtrack.run_track(root=tmp_path, check=True) == 0

    def test_improvement_is_not_a_regression(self, tmp_path):
        self._seed_tree(tmp_path, speedup=4.0)
        assert benchtrack.run_track(root=tmp_path) == 0
        self._seed_tree_update(tmp_path, speedup=9.0)
        assert benchtrack.run_track(root=tmp_path, check=True) == 0

    def test_history_tolerates_truncated_tail(self, tmp_path):
        self._seed_tree(tmp_path, speedup=4.0)
        assert benchtrack.run_track(root=tmp_path) == 0
        history = tmp_path / benchtrack.HISTORY_NAME
        history.write_text(history.read_text() + '{"label": "cut')
        assert benchtrack.run_track(root=tmp_path, check=True) == 0

    def test_committed_ledger_matches_committed_baselines(self):
        # The repo ships baselines and a seeded ledger; they must agree.
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        if not (repo / benchtrack.HISTORY_NAME).is_file():
            pytest.skip("ledger not seeded in this tree")
        current, _ = benchtrack.collect_metrics([repo])
        history = benchtrack.load_history(repo / benchtrack.HISTORY_NAME)
        assert history, "BENCH_history.jsonl exists but holds no entries"
        deltas = benchtrack.compare(current, history[-1]["metrics"])
        assert not any(d.regressed for d in deltas)
