"""The ``service-open-loop`` workload.

A ``repro serve --threads 1`` subprocess on a Unix socket takes Poisson
arrivals from this process over two pipelined connections.  The mix draws
paper-suite graphs with Zipf reuse plus a share of fresh graphs (index-cache
misses), with ``schedule`` for DSC/MCP/MH/HU, ``classify`` and ``batch``
ops; it has no CLANS, so a CLANS change should not move this workload.

The load generator is open-loop: every request has a due time fixed before the
phase starts, is sent at its due time whatever the server is doing, and its
latency runs from the due time to its response, so a stall is charged to
every request it delays.  How late the sender ran is reported separately.
(``repro.service.loadgen.run_open_loop`` times from the send instead, which
hides such stalls.)
"""

from __future__ import annotations

import asyncio
import gc
import os
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.core import wire
from repro.core.exceptions import ScheduleError
from repro.generation.suites import generate_suite
from repro.schedulers.base import get_scheduler
from repro.service.protocol import (
    classify_result,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    ok_response,
    schedule_result,
)

from common import (
    Spans,
    child_env,
    counter_delta,
    out_dir,
    percentile,
    ratio,
    vm_hwm_mb,
)
from suite import generate_traced, kernel_hit_ratio

HEURISTICS = ("DSC", "MCP", "MH", "HU")
CONNECTIONS = 2
#: Offered load of the latency phase.  Capacity on a 2-CPU host measured
#: 150-310 requests/s as the host's speed drifted; 100 stays below the knee.
FIXED_RATE = 100.0
#: Warm-up load: below capacity, and quick.
WARMUP_RATE = 240.0
#: Rates tried for ``max_rate_rps`` (requests/s), 5% apart; 31 rungs take
#: exactly five bisection probes.
LADDER = tuple(round(100 * 1.05**k) for k in range(31))
#: A ladder rung passes when its p99 from due time stays within this and no
#: request failed.  It sits above the server's collector pauses (tens of
#: ms), so a rung fails when the queue grows, near capacity.
P99_LIMIT_MS = 150.0
#: The fixed-rate phase lasts a run's ``--seconds`` (2000 requests at 20 s,
#: twenty beyond the p99); each ladder probe lasts a tenth of that.
LADDER_PROBES = 5
PROBE_SHARE = 0.1
ZIPF_S = 0.8
FRESH_SHARE = 0.2
#: Op shares: schedule (heuristic drawn uniformly), classify, batch.
OP_SHARES = {"schedule": 0.75, "classify": 0.15, "batch": 0.10}
BATCH_SIZE = 3
#: Responses per run compared byte for byte against the library.
SAMPLES = 40

_ID_PREFIX = len(b'{"id":0,')


@dataclass
class Request:
    due: float
    frame: bytes
    op: str
    graphs: int
    #: ``(op, params)`` of the request, kept for the correctness sample.
    body: tuple


@dataclass
class PhaseResult:
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    graphs_ok: int = 0
    wall_s: float = 0.0
    #: ``(request, response line)`` for the sampled requests.
    samples: list = field(default_factory=list)
    #: Every response line (``None`` where none came), when asked to keep them.
    responses: list = field(default_factory=list)
    #: The requests offered, the phase start and each request's response
    #: time (``perf_counter``; 0.0 when none arrived).
    reqs: list = field(default_factory=list)
    t0: float = 0.0
    done: list = field(default_factory=list)


class Mix:
    """The request mix of one workload seed.

    Pool graphs are one paper-suite graph per Table-1 cell, requested with
    Zipf skew over a seeded ranking; a fresh graph is a pool graph with one
    task weight nudged, so its digest is new and the server must decode,
    compile and analyze it from scratch.
    """

    def __init__(self, suite, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.pool = [wire.graph_to_wire(sg.graph) for sg in suite]
        n = len(self.pool)
        rank = self.rng.permutation(n)
        weights = 1.0 / (np.arange(1, n + 1) ** ZIPF_S)
        self.p = np.empty(n)
        self.p[rank] = weights / weights.sum()
        self._fresh = 0
        self._tails: dict = {}

    def _graph(self):
        """``(key, wire graph)``; ``key`` is ``None`` for a fresh graph."""
        i = int(self.rng.choice(len(self.pool), p=self.p))
        if self.rng.random() >= FRESH_SHARE:
            return i, self.pool[i]
        self._fresh += 1
        g = self.pool[i]
        tasks = [list(t) for t in g["tasks"]]
        tasks[0][1] = tasks[0][1] * (1.0 + self._fresh * 2.0**-30)
        return None, {"tasks": tasks, "edges": g["edges"]}

    def _body(self):
        op = self.rng.choice(list(OP_SHARES), p=list(OP_SHARES.values()))
        if op == "batch":
            subs = []
            for j in range(BATCH_SIZE):
                _, g = self._graph()
                h = HEURISTICS[int(self.rng.integers(len(HEURISTICS)))]
                subs.append(
                    {"id": j, "op": "schedule", "params": {"graph": g, "heuristic": h}}
                )
            return None, "batch", {"requests": subs}, BATCH_SIZE
        key, g = self._graph()
        if op == "classify":
            return (key, "classify"), "classify", {"graph": g}, 1
        h = HEURISTICS[int(self.rng.integers(len(HEURISTICS)))]
        return (key, h), "schedule", {"graph": g, "heuristic": h}, 1

    def requests(self, rate: float, n: int) -> list[Request]:
        """``n`` Poisson arrivals at ``rate``/s; frames carry ids 0..n-1
        and are encoded here, before the phase starts."""
        gaps = self.rng.exponential(1.0 / rate, size=n)
        due = np.cumsum(gaps) - gaps[0]
        out = []
        for i in range(n):
            cache_key, op, params, graphs = self._body()
            if cache_key is not None and cache_key[0] is not None:
                tail = self._tails.get(cache_key)
                if tail is None:
                    tail = self._tails[cache_key] = encode_request(op, params, id=0)[_ID_PREFIX:]
            else:
                tail = encode_request(op, params, id=0)[_ID_PREFIX:]
            frame = b'{"id":%d,' % i + tail
            out.append(Request(float(due[i]), frame, op, graphs, (op, params)))
        return out


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on a Unix socket under the checkout."""

    def __init__(self, tag: str) -> None:
        d = out_dir("service")
        # Relative to the checkout root (the working directory): a Unix
        # socket path must stay under ~100 bytes.
        self.path = str((d / f"{tag}.sock").relative_to(Path.cwd()))
        self.log = d / "server.log"
        Path(self.path).unlink(missing_ok=True)
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.path, "--threads", "1"],
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = perf_counter() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log.read_text()[-2000:]}")
            try:
                if self.call("health")["status"] == "ok":
                    return
            except OSError:
                pass
            if perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy within 60 s")
            sleep(0.01)

    def call(self, op: str, params: dict | None = None) -> dict:
        """One request on a fresh connection (inline ops: health/stats)."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30.0)
            s.connect(self.path)
            s.sendall(encode_request(op, params, id=0))
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise OSError("connection closed before a reply")
                buf += chunk
        resp = decode_response(buf)
        if not resp["ok"]:
            raise RuntimeError(f"{op} failed: {resp['error']}")
        return resp["result"]

    def registry(self) -> dict:
        return self.call("stats", {"full": True})["registry"]

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        Path(self.path).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# the open-loop load generator
# ----------------------------------------------------------------------


async def _phase(path: str, reqs: list[Request], sample: set, keep: bool) -> PhaseResult:
    conns = [await asyncio.open_unix_connection(path, limit=1 << 24) for _ in range(CONNECTIONS)]
    n = len(reqs)
    res = PhaseResult(attempted=n)
    done = [0.0] * n
    ok = [False] * n
    lines: dict[int, bytes] = {}
    expect = [len(range(c, n, CONNECTIONS)) for c in range(CONNECTIONS)]

    async def read(c: int) -> None:
        reader = conns[c][0]
        for _ in range(expect[c]):
            line = await reader.readline()
            if not line:
                return
            t = perf_counter()
            comma = line.index(b",")
            rid = int(line[6:comma])
            done[rid] = t
            ok[rid] = line.startswith(b'"ok":true', comma + 1)
            if keep or rid in sample:
                lines[rid] = line

    readers = [asyncio.ensure_future(read(c)) for c in range(CONNECTIONS)]
    t0 = perf_counter() + 0.05
    late = res.late_ms
    for i, req in enumerate(reqs):
        due = t0 + req.due
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[i % CONNECTIONS][1]
        writer.write(req.frame)
        late.append((perf_counter() - due) * 1e3)
        await writer.drain()
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout=60.0)
    except asyncio.TimeoutError:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()
    res.wall_s = max(done) - t0 if any(done) else 0.0
    for i, req in enumerate(reqs):
        if ok[i]:
            res.latencies_ms.append((done[i] - t0 - req.due) * 1e3)
            res.graphs_ok += req.graphs
        else:
            res.failed += 1
    res.samples = [(reqs[i], lines[i]) for i in sorted(sample) if i in lines]
    if keep:
        res.responses = [lines.get(i) for i in range(n)]
    res.reqs, res.done, res.t0 = reqs, done, t0
    return res


def run_phase(path: str, reqs: list[Request], sample=(), keep: bool = False) -> PhaseResult:
    # The load generator's own collector stays off while it offers load, so its
    # pauses are not charged to the server.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_phase(path, reqs, set(sample), keep))
    finally:
        gc.enable()


def library_response(req: Request, rid: int) -> bytes:
    """The response frame the library gives for ``req``, encoded as the
    server encodes it."""
    op, params = req.body
    if op == "batch":
        subs = []
        for sub in params["requests"]:
            graph = wire.graph_from_wire(sub["params"]["graph"])
            sched = get_scheduler(sub["params"]["heuristic"])
            result = schedule_result(sched.name, graph, sched.schedule(graph))
            subs.append(ok_response(sub["id"], result))
        result = {"responses": subs}
    else:
        graph = wire.graph_from_wire(params["graph"])
        if op == "classify":
            result = classify_result(graph)
        else:
            sched = get_scheduler(params["heuristic"])
            result = schedule_result(sched.name, graph, sched.schedule(graph))
    return encode_response(ok_response(rid, result))


def check_samples(samples, spans: Spans | None = None) -> list[str]:
    """Each sampled response must equal the library's, byte for byte, and
    every schedule in it must be valid for its graph."""
    bad = []
    for req, line in samples:
        rid = decode_request(req.frame).id
        if line != library_response(req, rid):
            bad.append(f"request {rid} ({req.op}): response differs from the library")
            continue
        resp = decode_response(line)["result"]
        op, params = req.body
        pairs = (
            [
                (s["params"]["graph"], r["result"])
                for s, r in zip(params["requests"], resp["responses"])
            ]
            if op == "batch"
            else [(params["graph"], resp)] if op == "schedule" else []
        )
        for g, result in pairs:
            graph = wire.graph_from_wire(g)
            schedule = wire.schedule_from_wire(result["schedule"])
            try:
                if spans is None:
                    schedule.validate(graph)
                else:
                    with spans.span("validate", rid):
                        schedule.validate(graph)
            except ScheduleError as exc:
                bad.append(f"request {rid} ({req.op}): invalid schedule: {exc}")
    return bad


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------


def timer_delta(before: dict, after: dict, name: str) -> tuple[float, int]:
    """``(seconds, calls)`` a registry timer gained between two snapshots."""
    a = after["timers"].get(name, {"total_s": 0.0, "count": 0})
    b = before["timers"].get(name, {"total_s": 0.0, "count": 0})
    return a["total_s"] - b["total_s"], a["count"] - b["count"]


class ServiceWorkload:
    name = "service-open-loop"

    def setup(self, seed: int, spans: Spans | None = None) -> None:
        tag = f"svc{os.getpid()}"
        if spans is None:
            self.mix = Mix(generate_suite(graphs_per_cell=1, seed=seed), seed)
            self.server = Server(tag)
        else:
            self.mix = Mix(generate_traced(spans, graphs_per_cell=1, seed=seed), seed)
            with spans.span("server.start"):
                self.server = Server(tag)
        # Warm-up: every pool graph decoded and compiled once, sockets and
        # executor threads live, before anything is timed.
        try:
            warm = run_phase(self.server.path, self.mix.requests(WARMUP_RATE, 240))
            if warm.failed:
                raise RuntimeError(f"{warm.failed} warm-up requests failed")
        except BaseException:
            self.server.stop()
            raise

    def teardown(self) -> None:
        self.server.stop()

    def _phase(self, rate: float, seconds: float, **kw) -> PhaseResult:
        """Offer ``rate`` requests/s for ``seconds``; a seeded sample of the
        responses is kept for the correctness gate."""
        n = max(50, int(rate * seconds))
        reqs = self.mix.requests(rate, n)
        sample = sorted(self.mix.rng.choice(n, size=min(SAMPLES, n), replace=False))
        return run_phase(self.server.path, reqs, sample=sample, **kw)

    def max_rate(self, seconds: float) -> tuple[int, float, list]:
        """Bisect ``LADDER`` for its highest passing rung, each probe
        offering ``seconds`` of load; returns that rate, the graphs per
        second completed while probing it, and every probe made."""
        lo, hi = -1, len(LADDER)
        best_graphs_per_s = 0.0
        probes = []
        while hi - lo > 1:
            mid = (lo + hi) // 2
            res = self._phase(LADDER[mid], seconds)
            p99 = percentile(res.latencies_ms, 99) if res.latencies_ms else float("inf")
            passed = res.failed == 0 and p99 <= P99_LIMIT_MS
            probes.append(
                {
                    "rate": LADDER[mid],
                    "p99_ms": p99,
                    "attempted": res.attempted,
                    "failed": res.failed,
                    "passed": passed,
                }
            )
            if passed:
                lo = mid
                best_graphs_per_s = res.graphs_ok / res.wall_s
            else:
                hi = mid
        if lo < 0:
            raise RuntimeError(f"no ladder rung met p99 <= {P99_LIMIT_MS} ms: {probes}")
        return LADDER[lo], best_graphs_per_s, probes

    def measure(self, seed: int, seconds: float) -> dict:
        fixed = self._phase(FIXED_RATE, seconds)
        attempted, failed = fixed.attempted, fixed.failed
        top, graphs_per_s, probes = self.max_rate(PROBE_SHARE * seconds)
        for probe in probes:
            if probe["passed"]:
                attempted += probe["attempted"]
        peak = self.server.peak_rss_mb()
        return {
            "metrics": {
                "graphs_per_s": (graphs_per_s, "1/s"),
                "p50_ms": (percentile(fixed.latencies_ms, 50), "ms"),
                "p99_ms": (percentile(fixed.latencies_ms, 99), "ms"),
                "max_rate_rps": (float(top), "1/s"),
                "peak_rss_mb": (peak, "MB"),
            },
            "attempted": attempted,
            "failed": failed,
            "mismatches": check_samples(fixed.samples),
            "detail": {
                "fixed_rate": FIXED_RATE,
                "fixed_requests": fixed.attempted,
                "late_p99_ms": percentile(fixed.late_ms, 99),
                "ladder": probes,
            },
        }

    def trace(self, seed: int, seconds: float, spans: Spans) -> dict:
        """Two fixed-rate phases of ``seconds / 2``: a baseline phase that
        records nothing per request, then a traced phase with one span per
        request (due time to response) and the server's registry read
        before and after.  The traced phase's exact request frames are
        then replayed through the codec functions the server runs on them,
        one span per call."""
        with spans.span("baseline.fixed_phase"):
            base = self._phase(FIXED_RATE, seconds / 2)
        before = self.server.registry()
        with spans.span("loadgen.fixed_phase") as phase:
            traced = self._phase(FIXED_RATE, seconds / 2, keep=True)
        after = self.server.registry()
        counts0, counts1 = before["counters"], after["counters"]
        for i, req in enumerate(traced.reqs):
            if traced.done[i]:
                spans.add("service.request", traced.t0 + req.due, traced.done[i], phase, i)
        n = traced.attempted
        codec = self.replay_codec(spans, traced)
        with spans.span("gate"):
            mismatches = check_samples(traced.samples + base.samples, spans)
        layers = {
            "generation.busy_s": spans.busy("generation"),
            "generation.graphs": float(spans.count("generation")),
            "batch.busy_s": timer_delta(before, after, "batch.analyze")[0],
            "kernels.compile_s": timer_delta(before, after, "kernels.compile")[0],
            "kernels.cache_hit_ratio": kernel_hit_ratio(counts0, counts1),
        }
        for h in HEURISTICS:
            busy, calls = timer_delta(before, after, f"scheduler.{h}")
            layers[f"scheduler.{h}.busy_s"] = busy
            layers[f"scheduler.{h}.calls"] = float(calls)
        op_s = op_calls = 0.0
        for name in after["timers"]:
            if name.startswith("service.op."):
                busy, calls = timer_delta(before, after, name)
                op_s += busy
                op_calls += calls
        hits = counter_delta(counts0, counts1, "service.index_cache.hits")
        misses = counter_delta(counts0, counts1, "service.index_cache.misses")
        layers.update(
            {
                "validate.busy_s": spans.busy("validate"),
                "trace.overhead_pct": 100.0
                * (percentile(traced.latencies_ms, 50) - percentile(base.latencies_ms, 50))
                / percentile(base.latencies_ms, 50),
                "service.op_ms": 1e3 * ratio(op_s, op_calls),
                "service.index_cache_hit_ratio": ratio(hits, hits + misses),
                "service.grouped_share": ratio(
                    counter_delta(counts0, counts1, "service.batch.grouped_requests"),
                    counter_delta(counts0, counts1, "service.requests"),
                ),
                "loadgen.late_p99_ms": percentile(traced.late_ms, 99),
                **{f"{name}_ms": 1e3 * busy / n for name, busy in codec.items()},
            }
        )
        return {
            "layers": layers,
            "attempted": base.attempted + traced.attempted,
            "failed": base.failed + traced.failed,
            "mismatches": mismatches,
            "detail": {
                "fixed_rate": FIXED_RATE,
                "p50_ms": percentile(traced.latencies_ms, 50),
                "p99_ms": percentile(traced.latencies_ms, 99),
            },
        }

    @staticmethod
    def replay_codec(spans: Spans, traced: PhaseResult) -> dict[str, float]:
        """Time the wire and protocol calls the server makes per request
        over the phase's exact frames and responses; returns busy seconds
        per call name."""
        names = (
            "wire.loads",
            "protocol.decode",
            "wire.graph_digest",
            "wire.graph_from_wire",
            "wire.dumps",
            "protocol.encode",
        )
        with spans.span("codec.replay"):
            for i, (req, line) in enumerate(zip(traced.reqs, traced.responses)):
                frame = req.frame
                with spans.span("wire.loads", i):
                    obj = wire.loads(frame)
                with spans.span("protocol.decode", i):
                    req = decode_request(frame)
                graphs = (
                    [s["params"]["graph"] for s in req.params["requests"]]
                    if req.op == "batch"
                    else [req.params["graph"]]
                )
                for g in graphs:
                    with spans.span("wire.graph_digest", i):
                        wire.graph_digest(g)
                    with spans.span("wire.graph_from_wire", i):
                        wire.graph_from_wire(g)
                with spans.span("wire.dumps", i):
                    wire.dumps(obj)
                if line is not None:
                    resp = decode_response(line)
                    with spans.span("protocol.encode", i):
                        encode_response(resp)
        return {name: spans.busy(name) for name in names}
