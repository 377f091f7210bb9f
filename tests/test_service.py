"""The scheduling service: transport-transparency, back-pressure, drain.

The central contract is byte-identity: a schedule obtained through the
daemon is the same bytes as one computed by a direct library call, for
every registered heuristic.  Everything else — shedding, deadlines,
batching, the index cache, graceful drain — must degrade *visibly*
(typed error responses) rather than corrupt or silently drop work.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.core import wire
from repro.generation.workloads import fork_join, gaussian_elimination
from repro.schedulers.base import SCHEDULER_REGISTRY, get_scheduler
from repro.service import ServerThread, ServiceClient, ServiceError
from repro.service.protocol import schedule_result


@pytest.fixture(scope="module")
def server():
    """One shared daemon for the read-only tests (port 0 = ephemeral)."""
    with ServerThread(port=0, threads=2) as st:
        yield st


@pytest.fixture
def client(server):
    with ServiceClient(server.address) as c:
        yield c


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
    def test_every_heuristic_matches_library(self, client, name):
        graph = fork_join(4)  # 6 tasks: small enough for OPT's exact search
        via_service = client.schedule(graph, name)
        direct = get_scheduler(name).schedule(graph)
        expected = schedule_result(name, graph, direct)
        assert wire.dumps(via_service) == wire.dumps(expected)

    def test_improve_matches_library(self, client):
        from repro.schedulers.improve import LocalSearchImprover

        graph = fork_join(4)
        via_service = client.schedule(graph, "HLFET", improve=True)
        sched = LocalSearchImprover(get_scheduler("HLFET"))
        expected = schedule_result(sched.name, graph, sched.schedule(graph))
        assert wire.dumps(via_service) == wire.dumps(expected)


class TestOps:
    def test_health(self, client):
        h = client.health()
        assert h["status"] == "ok"
        assert h["uptime_s"] >= 0

    def test_classify(self, client, paper_example):
        res = client.classify(paper_example)
        assert res["n_tasks"] == 5
        assert res["n_edges"] == 5
        assert res["serial_time"] == 150.0

    def test_simulate(self, client, paper_example):
        direct = get_scheduler("LC").schedule(paper_example)
        res = client.simulate(paper_example, direct.clusters())
        assert res["makespan"] == direct.makespan

    def test_batch_mixed_results(self, client, paper_example):
        responses = client.batch(
            [
                {"op": "classify", "params": {"graph": paper_example}},
                {"op": "schedule", "params": {"graph": paper_example, "heuristic": "NOPE"}},
                {"op": "schedule", "params": {"graph": paper_example, "heuristic": "HU"}},
            ]
        )
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"]["code"] == 400
        assert responses[2]["result"]["heuristic"] == "HU"

    def test_batch_rejects_nesting(self, client, paper_example):
        (resp,) = client.batch([{"op": "batch", "params": {"requests": []}}])
        assert not resp["ok"]
        assert resp["error"]["code"] == 400

    def test_stats_counts_requests(self, client, paper_example):
        client.classify(paper_example)
        stats = client.stats()
        assert stats["counters"].get("service.requests", 0) >= 1
        assert stats["queue_capacity"] == 128

    def test_index_cache_hit_on_repeat(self, server, paper_example):
        with ServiceClient(server.address) as c:
            c.schedule(paper_example, "HLFET")
            before = c.stats()["counters"].get("service.index_cache.hits", 0)
            c.schedule(paper_example, "DSC")
            after = c.stats()["counters"].get("service.index_cache.hits", 0)
        assert after > before


class TestErrors:
    def test_unknown_op_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("frobnicate", {})
        assert exc.value.code == 400

    def test_missing_graph_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("schedule", {"heuristic": "HU"})
        assert exc.value.code == 400

    def test_malformed_graph_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.call("schedule", {"graph": {"tasks": "nonsense"}})
        assert exc.value.code == 400

    def test_bad_json_line_is_400_and_connection_survives(self, server):
        with socket.create_connection(server.address) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.flush()
            resp = json.loads(fh.readline())
            assert resp["ok"] is False
            assert resp["error"]["code"] == 400
            # same connection still serves well-formed frames
            fh.write(b'{"id": 1, "op": "health", "params": {}}\n')
            fh.flush()
            resp = json.loads(fh.readline())
            assert resp["ok"] is True

    def test_unreachable_daemon_is_unavailable(self):
        client = ServiceClient(("127.0.0.1", 1), retries=1, backoff=0.01)
        with pytest.raises(ServiceError) as exc:
            client.health()
        assert exc.value.status == "unavailable"

    def test_client_rejects_oversized_frame_locally(self, server):
        client = ServiceClient(server.address, max_frame_bytes=256)
        with pytest.raises(ServiceError) as exc:
            client.schedule(gaussian_elimination(8))
        assert exc.value.code == 413


class TestBackoffJitter:
    def test_jittered_delay_within_envelope(self):
        import random

        from repro.service.client import backoff_delay

        rng = random.Random(42)
        for attempt in range(1, 8):
            envelope = min(2.0, 0.05 * (2 ** (attempt - 1)))
            for _ in range(50):
                d = backoff_delay(0.05, attempt, rng=rng)
                assert 0.0 <= d <= envelope

    def test_jitter_decorrelates_clients(self):
        import random

        from repro.service.client import backoff_delay

        rng = random.Random(7)
        delays = {backoff_delay(0.05, 3, rng=rng) for _ in range(20)}
        assert len(delays) > 1  # deterministic schedule would collapse to one

    def test_no_jitter_restores_deterministic_schedule(self):
        from repro.service.client import backoff_delay

        assert [backoff_delay(0.05, k, jitter=False) for k in (1, 2, 3)] == [
            0.05,
            0.1,
            0.2,
        ]

    def test_cap_bounds_growth(self):
        from repro.service.client import backoff_delay

        assert backoff_delay(0.05, 30, jitter=False, cap=0.5) == 0.5
        assert backoff_delay(0.05, 30, cap=0.5) <= 0.5

    def test_zero_base_never_sleeps(self):
        from repro.service.client import backoff_delay

        assert backoff_delay(0.0, 5) == 0.0

    def test_backoff_ms_counter_reflects_actual_sleep(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as reg:
            client = ServiceClient(
                ("127.0.0.1", 1), retries=2, backoff=0.01, jitter=True
            )
            with pytest.raises(ServiceError):
                client.health()
            slept_ms = reg.counter("client.backoff_ms")
            # jittered: bounded by the sum of the two envelopes, not equal
            assert 0.0 <= slept_ms <= (0.01 + 0.02) * 1e3
            assert reg.counter("client.retries") == 2


class TestOversizedFrames:
    def test_server_responds_413_then_closes(self):
        with ServerThread(port=0, max_frame_bytes=4096) as st:
            with socket.create_connection(st.address) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "health", "padding": "' + b"x" * 8192 + b'"}\n')
                fh.flush()
                resp = json.loads(fh.readline())
                assert resp["ok"] is False
                assert resp["error"]["code"] == 413
                # frame sync is lost after an overrun, so the server closes
                assert fh.readline() == b""


class TestDeadlines:
    def test_queued_past_deadline_is_504(self):
        # one worker: a heavy request (GA, ~200ms) occupies it while a
        # 1 ms-deadline request waits in the queue, guaranteeing the miss
        with ServerThread(port=0, threads=1) as st:
            heavy = gaussian_elimination(12)
            light = fork_join(3)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    slow = asyncio.ensure_future(ac.schedule(heavy, "GA"))
                    await asyncio.sleep(0.05)  # let the heavy one start
                    with pytest.raises(ServiceError) as exc:
                        await ac.schedule(light, deadline_ms=1)
                    assert exc.value.code == 504
                    await slow  # the heavy request itself still completes

            asyncio.run(run())


class TestShedding:
    def test_queue_overflow_sheds_503(self):
        with ServerThread(port=0, threads=1, queue_size=2) as st:
            heavy = gaussian_elimination(12)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    futs = [
                        asyncio.ensure_future(ac.schedule(heavy, "GA"))
                        for _ in range(12)
                    ]
                    done = await asyncio.gather(*futs, return_exceptions=True)
                    statuses = [
                        e.status if isinstance(e, ServiceError) else "ok"
                        for e in done
                    ]
                    assert "shed" in statuses  # queue bound enforced
                    assert "ok" in statuses  # admitted work still completes
                    assert all(s in ("ok", "shed") for s in statuses)

            asyncio.run(run())


class TestBatchingByDigest:
    def test_same_graph_requests_share_one_compile(self):
        # pipeline many same-graph requests; the dispatcher groups them by
        # digest, so the index compiles once for the whole burst
        with ServerThread(port=0, threads=1, batch_max=32) as st:
            graph = fork_join(6, stages=2)

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    before = await ac.stats()
                    futs = [
                        asyncio.ensure_future(ac.schedule(graph, "HLFET"))
                        for _ in range(10)
                    ]
                    results = await asyncio.gather(*futs)
                    after = await ac.stats()
                    return results, before, after

            results, before, after = asyncio.run(run())
            assert len({wire.dumps(r) for r in results}) == 1

            def delta(key):
                # the metrics registry is process-global, so compare deltas
                return after["counters"].get(key, 0) - before["counters"].get(key, 0)

            assert delta("service.index_cache.misses") == 1  # one decode+compile
            assert delta("service.index_cache.misses") + delta(
                "service.index_cache.hits"
            ) <= 10

    def test_distinct_graphs_pipelined_match_library(self):
        # pipeline distinct graphs so several share a dispatch round; every
        # response must still be byte-identical to a direct library call
        with ServerThread(port=0, threads=1, batch_max=32) as st:
            graphs = [fork_join(k, stages=2) for k in range(3, 9)]

            async def run():
                from repro.service.client import AsyncServiceClient

                async with AsyncServiceClient(st.address) as ac:
                    futs = [
                        asyncio.ensure_future(ac.schedule(g, "HLFET"))
                        for g in graphs
                    ]
                    return await asyncio.gather(*futs)

            results = asyncio.run(run())
            for g, got in zip(graphs, results):
                expect = schedule_result(
                    "HLFET", g, get_scheduler("HLFET").schedule(g)
                )
                assert wire.dumps(got) == wire.dumps(expect)


class TestDrain:
    def test_zero_dropped_in_flight(self):
        # fire a burst, then drain mid-flight: every request must get a
        # response — completed work or an explicit 503 "draining", never
        # a silently dropped frame
        st = ServerThread(port=0, threads=1).start()
        graph = gaussian_elimination(12)

        async def run():
            from repro.service.client import AsyncServiceClient

            async with AsyncServiceClient(st.address) as ac:
                futs = [
                    asyncio.ensure_future(ac.schedule(graph, "GA"))
                    for _ in range(8)
                ]
                await asyncio.sleep(0.05)
                threading.Thread(target=st.stop, daemon=True).start()
                done = await asyncio.gather(*futs, return_exceptions=True)
                return done

        done = asyncio.run(run())
        st.stop()
        assert len(done) == 8
        for outcome in done:
            if isinstance(outcome, ServiceError):
                assert outcome.status in ("shed", "draining")
            else:
                assert isinstance(outcome, Exception) is False
                assert outcome["heuristic"] == "GA"

    def test_new_connections_refused_after_drain(self):
        with ServerThread(port=0) as st:
            addr = st.address
            with ServiceClient(addr) as c:
                assert c.health()["status"] == "ok"
            st.stop()
            late = ServiceClient(addr, retries=0, backoff=0.01)
            with pytest.raises(ServiceError):
                late.health()

    def test_manifest_written_on_drain(self, tmp_path):
        manifest_path = tmp_path / "serve_manifest.json"
        with ServerThread(port=0, manifest_path=str(manifest_path)) as st:
            with ServiceClient(st.address) as c:
                c.classify(fork_join(3))
        payload = json.loads(manifest_path.read_text())
        assert payload["config"]["command"] == "serve"
        counters = payload["metrics"]["counters"]
        assert counters.get("service.requests", 0) >= 1


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path, paper_example):
        sock_path = str(tmp_path / "repro.sock")
        with ServerThread(socket_path=sock_path) as st:
            assert st.server.endpoint == f"unix:{sock_path}"
            with ServiceClient(sock_path) as c:
                direct = get_scheduler("DSC").schedule(paper_example)
                res = c.schedule(paper_example, "DSC")
                expected = schedule_result("DSC", paper_example, direct)
                assert wire.dumps(res) == wire.dumps(expected)


# ----------------------------------------------------------------------
# the sharded tier (router + worker processes, consistent hashing)
# ----------------------------------------------------------------------


class TestHashRing:
    """The routing ring's contracts: determinism, balance, and — the reason
    consistent hashing exists — minimal key movement under resize."""

    KEYS = [f"digest-{i:05d}" for i in range(2000)]

    def test_deterministic_across_instances(self):
        from repro.service.ring import HashRing

        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.shard_for(k) for k in self.KEYS] == [
            b.shard_for(k) for k in self.KEYS
        ]

    def test_every_shard_owns_keys(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        owners = {ring.shard_for(k) for k in self.KEYS}
        assert owners == {0, 1, 2, 3}

    def test_roughly_balanced(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        counts = {s: 0 for s in range(4)}
        for k in self.KEYS:
            counts[ring.shard_for(k)] += 1
        # vnodes keep the split even-ish; cache affinity needs stability,
        # not perfection — but no shard may be starved or hogging.
        assert min(counts.values()) > len(self.KEYS) * 0.10
        assert max(counts.values()) < len(self.KEYS) * 0.45

    def test_adding_a_shard_only_moves_keys_to_it(self):
        from repro.service.ring import HashRing

        small = HashRing(range(4))
        grown = HashRing(range(5))
        moved = 0
        for k in self.KEYS:
            before, after = small.shard_for(k), grown.shard_for(k)
            if before != after:
                moved += 1
                # the defining property: a new shard only *takes* keys —
                # keys never shuffle between the surviving shards
                assert after == 4
        # ~1/5 of the keyspace should move, and certainly not most of it
        assert 0 < moved < len(self.KEYS) * 0.40

    def test_removing_a_shard_only_moves_its_keys(self):
        from repro.service.ring import HashRing

        full = HashRing(range(5))
        shrunk = HashRing([0, 1, 2, 3])  # shard 4 removed
        for k in self.KEYS:
            before, after = full.shard_for(k), shrunk.shard_for(k)
            if before != 4:
                assert after == before  # survivors keep their keys

    def test_fallback_is_a_different_shard(self):
        from repro.service.ring import HashRing

        ring = HashRing(range(4))
        for k in self.KEYS[:200]:
            owner = ring.shard_for(k)
            assert ring.fallback_for(k, owner) != owner
        single = HashRing([0])
        assert single.fallback_for("anything", 0) == 0


@pytest.fixture(scope="module")
def tier():
    """One shared router + 2 worker processes (spawning workers is the
    expensive part, so the read-only sharded tests share a tier)."""
    from repro.service.shard import ShardedTier

    with ShardedTier(workers=2, worker_config={"threads": 1}) as t:
        yield t


class TestShardedTier:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_REGISTRY))
    def test_every_heuristic_byte_identical_through_router(self, tier, name):
        graph = fork_join(4)
        with ServiceClient(tier.address) as c:
            via_tier = c.schedule(graph, name)
        direct = get_scheduler(name).schedule(graph)
        expected = schedule_result(name, graph, direct)
        assert wire.dumps(via_tier) == wire.dumps(expected)

    def test_merged_health_lists_every_shard(self, tier):
        with ServiceClient(tier.address) as c:
            h = c.health()
        assert h["status"] == "ok"
        assert h["workers"] == 2
        assert [s["shard"] for s in h["shards"]] == [0, 1]
        assert all(s["status"] == "ok" for s in h["shards"])
        # workers are real separate processes, not threads
        pids = {s["pid"] for s in h["shards"]}
        assert len(pids) == 2 and h["pid"] not in pids

    def test_digest_affinity_pins_a_graph_to_one_shard(self, tier):
        graph = gaussian_elimination(7)
        with ServiceClient(tier.address) as c:
            before = [
                s.get("counters", {}).get("service.requests", 0.0)
                for s in c.stats()["shards"]
            ]
            for _ in range(6):
                c.schedule(graph, "HLFET")
            after = [
                s.get("counters", {}).get("service.requests", 0.0)
                for s in c.stats()["shards"]
            ]
        deltas = [a - b for a, b in zip(after, before)]
        # all six same-digest requests landed on exactly one shard
        assert sorted(deltas) == [0.0, 6.0]

    def test_merged_stats_sum_per_shard_counters(self, tier):
        with ServiceClient(tier.address) as c:
            c.classify(fork_join(3))
            stats = c.stats()
        per_shard = sum(
            s.get("counters", {}).get("service.requests", 0.0)
            for s in stats["shards"]
        )
        assert stats["counters"]["service.requests"] == per_shard > 0
        assert stats["queue_capacity"] == 2 * 128  # summed across shards
        lat = stats["latency_ms"]
        assert lat is not None and lat["count"] >= per_shard - 1
        assert stats["router"]["workers"] == 2
        assert stats["router"]["counters"].get("router.requests", 0) > 0

    def test_merged_metrics_exposition(self, tier):
        with ServiceClient(tier.address) as c:
            c.classify(fork_join(3))
            m = c.metrics()
        assert "0.0.4" in m["content_type"]
        assert "repro_service_requests_total" in m["text"]
        assert "repro_router_requests_total" in m["text"]
        assert "repro_service_latency_ms_bucket" in m["text"]

    def test_top_renders_per_shard_rows(self, tier):
        from repro.service.top import render

        with ServiceClient(tier.address) as c:
            stats = c.stats()
        frame = render(stats)
        lines = frame.splitlines()
        assert any(line.startswith("rate") for line in lines)  # aggregate block
        shard_header = [line for line in lines if "shard" in line and "p99ms" in line]
        assert len(shard_header) == 1
        # one row per shard, each starting with its id and a state column
        rows = lines[lines.index(shard_header[0]) + 1 :]
        assert len(rows) == 2
        assert rows[0].split()[:2] == ["0", "ok"]
        assert rows[1].split()[:2] == ["1", "ok"]

    def test_batch_via_router(self, tier, paper_example):
        with ServiceClient(tier.address) as c:
            responses = c.batch(
                [
                    {"op": "classify", "params": {"graph": paper_example}},
                    {
                        "op": "schedule",
                        "params": {"graph": paper_example, "heuristic": "HU"},
                    },
                ]
            )
        assert [r["ok"] for r in responses] == [True, True]
        assert responses[1]["result"]["heuristic"] == "HU"

    def test_router_validation_errors_match_daemon(self, tier, server):
        """Error payloads must be identical through either front door (the
        worker, not the router, owns validation)."""
        for params in ({"heuristic": "HU"}, {"graph": "not-a-graph"}):
            with ServiceClient(tier.address) as c:
                with pytest.raises(ServiceError) as via_tier:
                    c.call("schedule", params)
            with ServiceClient(server.address) as c:
                with pytest.raises(ServiceError) as via_daemon:
                    c.call("schedule", params)
            assert str(via_tier.value) == str(via_daemon.value)

    def test_control_requires_router(self, client):
        # `client` talks to the single-process daemon fixture
        with pytest.raises(ServiceError) as exc:
            client.call("control", {"action": "restart"})
        assert exc.value.code == 400
        assert "router" in exc.value.message

    def test_control_rejects_bad_shard(self, tier):
        with ServiceClient(tier.address) as c:
            with pytest.raises(ServiceError) as exc:
                c.call("control", {"action": "restart", "shard": 99})
            assert exc.value.code == 400
            with pytest.raises(ServiceError) as exc:
                c.call("control", {"action": "frobnicate"})
            assert exc.value.code == 400


class TestShardRestart:
    def test_rolling_restart_under_traffic(self):
        """A rolling restart of every shard while requests keep flowing:
        nothing fails — the router retries/reroutes around the drain
        windows and the SDK surfaces that pressure as client counters."""
        from repro.service.client import client_counters
        from repro.service.shard import ShardedTier

        graphs = [fork_join(n) for n in (3, 4, 5, 6)]
        with ShardedTier(workers=2, worker_config={"threads": 1}) as t:
            with ServiceClient(t.address, timeout=60.0) as c:
                expected = {}
                for g in graphs:
                    expected[id(g)] = wire.dumps(c.schedule(g, "HLFET"))
                before = client_counters()
                done = {}

                def restart_all():
                    with ServiceClient(t.address, timeout=120.0) as c2:
                        done["result"] = c2.call("control", {"action": "restart"})

                worker = threading.Thread(target=restart_all)
                worker.start()
                served = 0
                while worker.is_alive():
                    for g in graphs:
                        # must succeed (routed around the restart), and the
                        # payload must be byte-identical to pre-restart
                        assert wire.dumps(c.schedule(g, "HLFET")) == expected[id(g)]
                        served += 1
                worker.join()
                after = client_counters()
                stats = c.stats()
        assert done["result"]["restarted"] == [0, 1]
        assert served > 0
        assert stats["router"]["restarts"] == 2
        # the restart window forced at least one retry or reroute, and the
        # SDK folded it into the client.* pressure counters
        pressure = (
            after.get("shard_retries", 0.0)
            - before.get("shard_retries", 0.0)
            + after.get("reroutes", 0.0)
            - before.get("reroutes", 0.0)
        )
        assert pressure > 0


class TestBindErrors:
    def test_port_in_use_exits_2_single_process(self, server):
        """`repro serve` on an occupied port: exit code 2 and a readable
        message, not an asyncio traceback (the satellite bugfix)."""
        from repro.service.server import ReproServer, run_server

        host, port = server.address
        taken = ReproServer(host=host, port=port)
        assert run_server(taken, handle_signals=False) == 2

    def test_port_in_use_exits_2_router_mode(self, server):
        from repro.service.shard import run_sharded

        host, port = server.address
        rc = run_sharded(
            workers=2,
            host=host,
            port=port,
            worker_config={"threads": 1},
            handle_signals=False,
        )
        assert rc == 2

    def test_socket_path_in_use_exits_2(self, tmp_path):
        from repro.service.server import ReproServer, run_server

        sock_path = str(tmp_path / "taken.sock")
        with ServerThread(socket_path=sock_path):
            taken = ReproServer(socket_path=sock_path)
            assert run_server(taken, handle_signals=False) == 2
