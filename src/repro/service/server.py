"""The asyncio scheduling daemon (``repro serve``).

One warm process serves many callers over the newline-delimited JSON
protocol of :mod:`repro.service.protocol`, on TCP or a Unix socket.  The
request pipeline, in order:

1. **Framing** — one request per line, with the stream reader's byte limit
   bounding frame size (an oversized frame gets a 413 response and the
   connection is closed, since line sync is lost).
2. **Inline ops** — ``health`` and ``stats`` are answered directly on the
   connection handler, never queued, so they stay responsive under
   overload (that is the point of a health endpoint).
3. **Admission control** — queued ops enter a bounded queue; when it is
   full (or the server is draining) the request is *shed* with a 503-style
   response instead of growing an unbounded backlog.  Shedding is cheap
   and explicit: clients see ``status: "shed"`` and can back off.
4. **Micro-batching** — the dispatcher drains whatever is queued (up to
   ``batch_max``) and groups requests by graph digest.  A group shares one
   decoded :class:`~repro.core.taskgraph.TaskGraph` — and therefore one
   :class:`~repro.core.kernels.GraphIndex` compile — via the size-bounded
   LRU index cache, so the compile cost of a hot graph is paid once, not
   per request.
5. **Deadlines** — a request's relative ``deadline_ms`` becomes an
   absolute deadline at admission.  Work is refused *before* execution
   when the deadline has already passed (the queued time ate the budget)
   and a result computed *past* the deadline is discarded and reported as
   a 504 — the service-level analogue of the suite runner's per-call
   timeout (PR 3): late work is reported, never silently served.
6. **Execution** — op handlers run on a small thread pool and are plain
   library calls over the shared wire codec.  The service adds transport,
   never semantics: a schedule obtained here is byte-identical to the
   same call through the library API.

Observability: every queued request gets RED metrics (``service.requests``
rate, ``service.errors``, a fixed-bucket ``service.latency_ms`` histogram
with p50/p95/p99, per-op ``service.op.*`` timers) and — when the process
tracer is enabled — ``service.queue`` and ``service.<op>`` spans, all
through the :mod:`repro.obs` registries.  The ``metrics`` inline op
exposes the registry in Prometheus text format.  A request frame's
``traceparent`` is adopted as the parent trace context: admission markers,
queue/op spans and everything recorded under the executor (index compile,
scheduler spans) carry the caller's trace id, so one distributed trace
stitches client and server.

Graceful drain: on SIGTERM/SIGINT (or :meth:`ReproServer.begin_drain`) the
listeners close, queued-but-unstarted requests are rejected with
``status: "draining"``, in-flight requests run to completion and their
responses are flushed, a run manifest is written via :mod:`repro.obs`, and
the process exits 0.  Zero in-flight requests are dropped.
"""

from __future__ import annotations

import asyncio
import errno
import os
import signal
import socket as socket_module
import sys
import threading
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ..core import wire
from ..core.exceptions import ReproError
from ..core.kernels import discard_index
from ..core.simulator import simulate_ordered
from ..core.taskgraph import TaskGraph
from ..obs.log import get_logger
from ..obs.manifest import RunManifest
from ..obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, get_registry
from ..obs.prom import to_prometheus
from ..obs.telemetry import (
    TraceContext,
    activate,
    current_context,
    deactivate,
    parse_traceparent,
    use_context,
)
from ..obs.trace import get_tracer
from ..schedulers.base import get_scheduler
from .protocol import (
    CAMPAIGN_OPS,
    DEADLINE,
    DEFAULT_PORT,
    INTERNAL,
    INVALID,
    MAX_FRAME_BYTES,
    QUEUED_OPS,
    SHED,
    TOO_LARGE,
    ProtocolError,
    Request,
    classify_result,
    decode_request,
    encode_response,
    error_response,
    ok_response,
    schedule_result,
    simulate_result,
)

__all__ = [
    "ReproServer",
    "ServerThread",
    "run_server",
    "BIND_ERRNOS",
    "format_bind_error",
    "guard_unix_socket_path",
]

#: Queue sentinel telling the dispatcher to exit after the drain flush.
_STOP = object()

#: Upper bound on sub-requests inside one ``batch`` op.
MAX_BATCH_REQUESTS = 1024


class _Conn:
    """One client connection: its writer plus a write lock (responses for
    pipelined requests may complete concurrently)."""

    __slots__ = ("writer", "lock")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()


@dataclass
class _Item:
    """One admitted queued request."""

    request: Request
    conn: _Conn
    digest: str | None  # grouping key; None for ``batch``
    arrival_pc: float  # perf_counter at admission (latency/spans)
    deadline: float | None  # absolute loop.time() deadline


class _GraphCache:
    """Size-bounded LRU of graph digest → decoded (and index-compiled)
    :class:`TaskGraph`, shared by all worker threads.

    A hit skips both the JSON decode and — because the compiled
    :class:`~repro.core.kernels.GraphIndex` is memoized on the graph
    object — the index compile.  Eviction calls
    :func:`repro.core.kernels.discard_index` so a graph referenced
    elsewhere does not pin its index forever.  Hits/misses/evictions are
    counted as ``service.index_cache.*``.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: OrderedDict[str, TaskGraph] = OrderedDict()
        self._lock = threading.Lock()

    def get_or_decode(self, digest: str, wire_graph: Mapping[str, Any]) -> TaskGraph:
        registry = get_registry()
        if self.capacity <= 0:
            registry.inc("service.index_cache.misses")
            return wire.graph_from_wire(wire_graph)
        with self._lock:
            graph = self._items.get(digest)
            if graph is not None:
                self._items.move_to_end(digest)
                registry.inc("service.index_cache.hits")
                return graph
            graph = wire.graph_from_wire(wire_graph)
            self._items[digest] = graph
            registry.inc("service.index_cache.misses")
            while len(self._items) > self.capacity:
                _, evicted = self._items.popitem(last=False)
                discard_index(evicted)
                registry.inc("service.index_cache.evictions")
            return graph

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._items), "capacity": self.capacity}


class ReproServer:
    """The scheduling service daemon.  See the module docstring for the
    request pipeline; see :class:`ServerThread` for in-process embedding.

    Parameters mirror the ``repro serve`` flags: listen on ``socket_path``
    (Unix) when given, else TCP ``host:port`` (``port=0`` binds an
    ephemeral port, readable from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        socket_path: str | None = None,
        queue_size: int = 128,
        batch_max: int = 16,
        threads: int = 1,
        index_cache_size: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        manifest_path: str | None = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.queue_size = queue_size
        self.batch_max = batch_max
        self.threads = threads
        self.max_frame_bytes = max_frame_bytes
        self.manifest_path = manifest_path
        self._cache = _GraphCache(index_cache_size)
        self._log = get_logger("service")
        self._queue: asyncio.Queue = asyncio.Queue()  # capacity enforced manually
        self._conns: set[_Conn] = set()
        self._group_tasks: set[asyncio.Task] = set()
        self._servers: list[asyncio.base_events.Server] = []
        self._dispatch_task: asyncio.Task | None = None
        self._drain_started = False
        self._draining = False
        self._done = asyncio.Event()
        self._sem: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._started_pc = 0.0
        self._address: tuple[str, int] | str | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the dispatcher."""
        self._sem = asyncio.Semaphore(self.threads)
        self._executor = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix="repro-service"
        )
        if self.socket_path is not None:
            guard_unix_socket_path(self.socket_path)
            srv = await asyncio.start_unix_server(
                self._handle_conn, path=self.socket_path, limit=self.max_frame_bytes
            )
            self._address = self.socket_path
        else:
            srv = await asyncio.start_server(
                self._handle_conn, self.host, self.port, limit=self.max_frame_bytes
            )
            self._address = srv.sockets[0].getsockname()[:2]
        self._servers = [srv]
        self._dispatch_task = asyncio.get_running_loop().create_task(self._dispatch())
        self._started_pc = perf_counter()
        self._log.info("serving on %s", self.endpoint)

    @property
    def address(self) -> tuple[str, int] | str:
        """Bound address: ``(host, port)`` for TCP, the path for Unix."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def endpoint(self) -> str:
        """Human-readable bound address (``host:port`` or ``unix:PATH``)."""
        addr = self.address
        if isinstance(addr, str):
            return f"unix:{addr}"
        return f"{addr[0]}:{addr[1]}"

    @property
    def requested_endpoint(self) -> str:
        """The *configured* address, printable before binding succeeds."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"{self.host}:{self.port}"

    def begin_drain(self) -> None:
        """Start a graceful drain (idempotent; also the SIGTERM handler)."""
        if self._drain_started:
            return
        self._drain_started = True
        asyncio.get_running_loop().create_task(self._drain())

    async def wait_drained(self) -> None:
        """Block until a drain started by :meth:`begin_drain` completes."""
        await self._done.wait()

    async def _drain(self) -> None:
        registry = get_registry()
        self._draining = True
        self._log.info("drain: closing listeners, rejecting queued requests")
        for srv in self._servers:
            srv.close()
        # Synchronously (no awaits) move queued-but-unstarted items aside and
        # plant the dispatcher's stop sentinel, so nothing can slip into the
        # queue between the flush and the sentinel.
        flushed: list[_Item] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                flushed.append(item)
        self._queue.put_nowait(_STOP)
        for item in flushed:
            registry.inc("service.shed")
            registry.inc("service.errors")
            await self._send(
                item.conn,
                error_response(
                    item.request.id,
                    SHED,
                    "server draining; request was queued but not started",
                    status="draining",
                ),
            )
        if self._dispatch_task is not None:
            await self._dispatch_task
        if self._group_tasks:  # in-flight work runs to completion
            await asyncio.gather(*list(self._group_tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.manifest_path:
            path = self._write_manifest()
            self._log.info("drain: wrote run manifest to %s", path)
        for srv in self._servers:
            await srv.wait_closed()
        for conn in list(self._conns):
            conn.writer.close()
        self._log.info("drain complete (%d rejected from queue)", len(flushed))
        self._done.set()

    def _write_manifest(self) -> str:
        registry = get_registry()
        manifest = RunManifest.collect(
            config={
                "command": "serve",
                "endpoint": self.endpoint,
                "queue_size": self.queue_size,
                "batch_max": self.batch_max,
                "threads": self.threads,
                "index_cache": self._cache.stats(),
                "uptime_s": round(perf_counter() - self._started_pc, 3),
                "requests": registry.counter("service.requests"),
                "errors": registry.counter("service.errors"),
                "shed": registry.counter("service.shed"),
                "deadline_misses": registry.counter("service.deadline_misses"),
            }
        )
        manifest.attach_metrics(registry)
        return str(manifest.write(self.manifest_path))

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized frame: the reader dropped its buffer, so line
                    # sync is gone — report and close this connection.
                    get_registry().inc("service.errors")
                    await self._send(
                        conn,
                        error_response(
                            None,
                            TOO_LARGE,
                            f"frame exceeds {self.max_frame_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_frame(conn, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _handle_frame(self, conn: _Conn, line: bytes) -> None:
        registry = get_registry()
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            # Salvage the id for correlation when the frame was valid JSON.
            req_id = None
            try:
                obj = wire.loads(line)
                if isinstance(obj, dict):
                    candidate = obj.get("id")
                    if isinstance(candidate, (int, str)):
                        req_id = candidate
            except ValueError:
                pass
            registry.inc("service.errors")
            await self._send(conn, error_response(req_id, exc.code, str(exc)))
            return

        if request.op == "health":
            await self._send(conn, ok_response(request.id, self._health()))
            return
        if request.op == "stats":
            full = bool(request.params.get("full"))
            await self._send(conn, ok_response(request.id, self._stats(full=full)))
            return
        if request.op == "metrics":
            await self._send(conn, ok_response(request.id, self._metrics()))
            return
        if request.op == "control":
            registry.inc("service.errors")
            await self._send(
                conn,
                error_response(
                    request.id,
                    INVALID,
                    "control requires the sharded router (`repro serve --workers N`)",
                ),
            )
            return
        if request.op in CAMPAIGN_OPS:
            registry.inc("service.errors")
            await self._send(
                conn,
                error_response(
                    request.id,
                    INVALID,
                    f"{request.op} requires a campaign coordinator "
                    "(`repro campaign run`)",
                ),
            )
            return

        error = self._admit(conn, request)
        if error is not None:
            registry.inc("service.errors")
            await self._send(conn, error)
            return

    def _admit(self, conn: _Conn, request: Request) -> dict | None:
        """Admit ``request`` to the queue, or return the shed/invalid
        response to send instead."""
        registry = get_registry()
        if self._draining:
            registry.inc("service.shed")
            return error_response(
                request.id, SHED, "server draining", status="draining"
            )
        if self._queue.qsize() >= self.queue_size:
            registry.inc("service.shed")
            return error_response(request.id, SHED, "admission queue full")
        digest: str | None = None
        if request.op in ("schedule", "classify", "simulate"):
            graph = request.params.get("graph")
            if not isinstance(graph, dict):
                return error_response(
                    request.id, INVALID, "params.graph must be a graph object"
                )
            try:
                digest = wire.graph_digest(graph)
            except ValueError as exc:
                return error_response(
                    request.id, INVALID, f"unencodable graph: {exc}"
                )
        elif request.op == "batch":
            subs = request.params.get("requests")
            if not isinstance(subs, list):
                return error_response(
                    request.id, INVALID, "params.requests must be a list"
                )
            if len(subs) > MAX_BATCH_REQUESTS:
                return error_response(
                    request.id,
                    INVALID,
                    f"batch of {len(subs)} exceeds {MAX_BATCH_REQUESTS} requests",
                )
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        item = _Item(
            request=request,
            conn=conn,
            digest=digest,
            arrival_pc=perf_counter(),
            deadline=deadline,
        )
        self._queue.put_nowait(item)
        registry.inc("service.requests")
        tracer = get_tracer()
        if tracer.enabled:
            # Admission marker, tagged with the caller's trace id (the
            # caller's own span id: admission happens *before* the server's
            # handling span exists).  An untraced caller keeps the server's
            # ambient context instead of clearing it.
            remote = parse_traceparent(request.traceparent)
            with use_context(remote if remote is not None else current_context()):
                tracer.instant(
                    "service.admit",
                    cat="service",
                    op=request.op,
                    queue_depth=self._queue.qsize(),
                )
        return None

    # ------------------------------------------------------------------
    # dispatch and execution
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                break
            stopping = False
            group = [item]
            while len(group) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stopping = True
                    break
                group.append(nxt)
            # Group by graph digest, preserving arrival order.  batch ops
            # (digest None) each form their own group.
            buckets: OrderedDict[object, list[_Item]] = OrderedDict()
            for it in group:
                key: object = it.digest if it.digest is not None else object()
                buckets.setdefault(key, []).append(it)
            registry = get_registry()
            for items in buckets.values():
                if len(items) > 1:
                    registry.inc("service.batch.groups")
                    registry.inc("service.batch.grouped_requests", len(items))
                assert self._sem is not None
                await self._sem.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._run_group(items)
                )
                self._group_tasks.add(task)
                task.add_done_callback(self._group_done)
            if stopping:
                break

    def _group_done(self, task: asyncio.Task) -> None:
        self._group_tasks.discard(task)
        assert self._sem is not None
        self._sem.release()
        if not task.cancelled() and task.exception() is not None:
            self._log.error("group task failed: %r", task.exception())

    async def _run_group(self, items: list[_Item]) -> None:
        # Items in a group share a digest; the first execution decodes (or
        # LRU-hits) the graph and compiles its index, the rest reuse both.
        for item in items:
            await self._run_item(item)

    async def _run_item(self, item: _Item) -> None:
        loop = asyncio.get_running_loop()
        registry = get_registry()
        tracer = get_tracer()
        request = item.request
        # Adopt the caller's trace: the server's handling is a child span of
        # the hop that carried the request.  An untraced caller falls back
        # to the daemon's own ambient context (serve --trace) so executor
        # threads — which contextvars do not reach — still tag their spans.
        # Token-scoped so the context is confined to this item even though
        # _run_group serializes items on one task.
        remote = parse_traceparent(request.traceparent)
        ctx = remote.child() if remote is not None else current_context()
        token = activate(ctx) if ctx is not None else None
        try:
            exec_start = perf_counter()
            if tracer.enabled:
                tracer.add_span(
                    "service.queue",
                    item.arrival_pc,
                    exec_start - item.arrival_pc,
                    cat="service",
                    args={"op": request.op},
                )
            code: int | None = None
            message = ""
            result: Any = None
            if item.deadline is not None and loop.time() >= item.deadline:
                queued_ms = (perf_counter() - item.arrival_pc) * 1e3
                code, message = DEADLINE, (
                    f"deadline exceeded before execution (queued {queued_ms:.1f} ms)"
                )
            else:
                try:
                    with registry.timer(f"service.op.{request.op}"):
                        result = await loop.run_in_executor(
                            self._executor, self._run_queued_op_in_ctx, ctx, request
                        )
                except ProtocolError as exc:
                    code, message = exc.code, str(exc)
                except ReproError as exc:
                    code, message = INVALID, str(exc)
                except Exception as exc:  # noqa: BLE001 - daemon must not die
                    self._log.exception("internal error in op %s", request.op)
                    code, message = INTERNAL, f"{type(exc).__name__}: {exc}"
                if code is None and item.deadline is not None and loop.time() > item.deadline:
                    code, message = DEADLINE, (
                        "deadline exceeded during execution; result discarded"
                    )
            if code == DEADLINE:
                registry.inc("service.deadline_misses")
            if code is None:
                response = ok_response(request.id, result)
            else:
                registry.inc("service.errors")
                response = error_response(request.id, code, message)
            duration = perf_counter() - item.arrival_pc
            registry.observe(
                "service.latency_ms", duration * 1e3, bounds=DEFAULT_LATENCY_BOUNDS_MS
            )
            if tracer.enabled:
                tracer.add_span(
                    f"service.{request.op}",
                    item.arrival_pc,
                    duration,
                    cat="service",
                    args={"op": request.op, "code": code if code is not None else 200},
                )
        finally:
            if token is not None:
                deactivate(token)
        await self._send(item.conn, response)

    # ------------------------------------------------------------------
    # op handlers (worker threads; plain library calls)
    # ------------------------------------------------------------------
    def _run_queued_op_in_ctx(
        self, ctx: "TraceContext | None", request: Request
    ) -> Any:
        """Executor-thread entry: ``run_in_executor`` does not propagate
        contextvars, so the trace context is re-activated here — that is
        what tags kernel-compile and scheduler spans with the trace id."""
        if ctx is None:
            return self._run_queued_op(request)
        token = activate(ctx)
        try:
            return self._run_queued_op(request)
        finally:
            deactivate(token)

    def _run_queued_op(self, request: Request) -> Any:
        if request.op == "batch":
            return self._op_batch(request.params)
        graph = self._resolve_graph(request.params, None)
        if request.op == "schedule":
            return self._op_schedule(graph, request.params)
        if request.op == "classify":
            return classify_result(graph)
        if request.op == "simulate":
            return self._op_simulate(graph, request.params)
        raise ProtocolError(f"unknown op {request.op!r}")  # unreachable

    def _resolve_graph(
        self, params: Mapping[str, Any], digest: str | None
    ) -> TaskGraph:
        wire_graph = params.get("graph")
        if not isinstance(wire_graph, dict):
            raise ProtocolError("params.graph must be a graph object")
        if digest is None:
            digest = wire.graph_digest(wire_graph)
        try:
            return self._cache.get_or_decode(digest, wire_graph)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"params.graph does not decode: {exc}") from None

    @staticmethod
    def _op_schedule(graph: TaskGraph, params: Mapping[str, Any]) -> dict:
        name = params.get("heuristic", "CLANS")
        if not isinstance(name, str):
            raise ProtocolError("params.heuristic must be a string")
        try:
            scheduler = get_scheduler(name)
        except KeyError as exc:
            raise ProtocolError(str(exc.args[0])) from None
        if params.get("improve"):
            from ..schedulers.improve import LocalSearchImprover

            scheduler = LocalSearchImprover(scheduler)
        schedule = scheduler.schedule(graph)
        return schedule_result(scheduler.name, graph, schedule)

    @staticmethod
    def _op_simulate(graph: TaskGraph, params: Mapping[str, Any]) -> dict:
        clusters = params.get("clusters")
        if not isinstance(clusters, list) or not all(
            isinstance(c, list) for c in clusters
        ):
            raise ProtocolError("params.clusters must be a list of task lists")
        thawed = [[wire.thaw_task(t) for t in cluster] for cluster in clusters]
        schedule = simulate_ordered(graph, thawed, validate=True)
        return simulate_result(graph, schedule)

    def _op_batch(self, params: Mapping[str, Any]) -> dict:
        subs = params.get("requests")
        if not isinstance(subs, list):
            raise ProtocolError("params.requests must be a list")
        responses = []
        for i, sub in enumerate(subs):
            if not isinstance(sub, dict):
                responses.append(
                    error_response(None, INVALID, f"requests[{i}] must be an object")
                )
                continue
            sub_id = sub.get("id")
            if sub_id is not None and not isinstance(sub_id, (int, str)):
                sub_id = None
            op = sub.get("op")
            sub_params = sub.get("params", {})
            if op == "batch":
                responses.append(
                    error_response(sub_id, INVALID, "batch ops cannot nest")
                )
                continue
            if op not in QUEUED_OPS or not isinstance(sub_params, dict):
                responses.append(
                    error_response(sub_id, INVALID, f"requests[{i}]: bad op/params")
                )
                continue
            try:
                result = self._run_queued_op(
                    Request(id=sub_id, op=op, params=sub_params)
                )
                responses.append(ok_response(sub_id, result))
            except ProtocolError as exc:
                responses.append(error_response(sub_id, exc.code, str(exc)))
            except ReproError as exc:
                responses.append(error_response(sub_id, INVALID, str(exc)))
            except Exception as exc:  # noqa: BLE001
                self._log.exception("internal error in batch[%d]", i)
                responses.append(
                    error_response(sub_id, INTERNAL, f"{type(exc).__name__}: {exc}")
                )
        get_registry().inc("service.batch.requests", len(subs))
        return {"responses": responses}

    # ------------------------------------------------------------------
    # inline ops
    # ------------------------------------------------------------------
    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "pid": os.getpid(),
        }

    def _stats(self, *, full: bool = False) -> dict:
        """The ``stats`` inline op.  With ``{"full": true}`` the payload also
        carries the complete registry snapshot — that is what the sharded
        router merges across workers (``MetricsRegistry.merge`` is exact for
        counters, timers and fixed-bucket histograms)."""
        snap = get_registry().snapshot()
        payload = {
            "uptime_s": round(perf_counter() - self._started_pc, 3),
            "draining": self._draining,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_size,
            "inflight_groups": len(self._group_tasks),
            "index_cache": self._cache.stats(),
            "counters": {
                k: v
                for k, v in snap["counters"].items()
                if k.startswith(("service.", "kernels."))
            },
            "op_timers": {
                k: v for k, v in snap["timers"].items() if k.startswith("service.op.")
            },
            "latency_ms": snap["histograms"].get("service.latency_ms"),
        }
        if full:
            payload["registry"] = snap
        return payload

    def _metrics(self) -> dict:
        """The ``metrics`` inline op: the full registry in Prometheus text
        exposition format (version 0.0.4), ready for any scraper."""
        return {
            "content_type": "text/plain; version=0.0.4; charset=utf-8",
            "text": to_prometheus(get_registry().snapshot()),
        }

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _send(self, conn: _Conn, obj: Mapping[str, Any]) -> None:
        data = encode_response(obj)
        try:
            async with conn.lock:
                if conn.writer.is_closing():
                    return
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            get_registry().inc("service.responses.dropped")


#: Bind failures worth a readable one-liner instead of a traceback: port (or
#: Unix socket path) taken, address not local, privileged port.
BIND_ERRNOS = (errno.EADDRINUSE, errno.EADDRNOTAVAIL, errno.EACCES)


def guard_unix_socket_path(path: str) -> None:
    """Refuse to bind a Unix socket path that a live daemon is serving.

    ``asyncio.start_unix_server`` unlinks an existing socket file
    *unconditionally* before binding, so without this probe a second
    ``repro serve --socket PATH`` silently steals the endpoint out from
    under the running daemon (which keeps serving an unlinked inode that
    no new client can reach).  Probe with a connect: anything accepting
    means EADDRINUSE; a stale leftover (connection refused) is left for
    asyncio's unlink-and-bind to clean up.
    """
    if not os.path.exists(path):
        return
    probe = socket_module.socket(socket_module.AF_UNIX)
    try:
        probe.settimeout(0.25)
        probe.connect(path)
    except OSError:
        return  # stale socket file (or not a socket): asyncio handles it
    finally:
        probe.close()
    raise OSError(errno.EADDRINUSE, "Address already in use", path)


def format_bind_error(endpoint: str, exc: OSError) -> str:
    """The operator-facing message for a failed listen (exit code 2)."""
    reason = exc.strerror or str(exc)
    hint = (
        " (is another daemon already running there?)"
        if exc.errno == errno.EADDRINUSE
        else ""
    )
    return f"repro serve: cannot listen on {endpoint}: {reason}{hint}"


def run_server(
    server: ReproServer, *, handle_signals: bool = True, banner: bool = True
) -> int:
    """Run ``server`` until a graceful drain completes; returns 0, or 2 when
    the requested address cannot be bound (already in use, not local,
    privileged) — a readable one-liner instead of an asyncio traceback.

    Installs SIGTERM/SIGINT handlers that begin the drain, so a supervisor's
    ``kill -TERM`` finishes in-flight work, writes the manifest, and exits
    cleanly.  ``banner=False`` suppresses the stderr listening line (used by
    the sharded tier's worker processes, where the router owns the banner).
    """

    async def _main() -> int:
        try:
            await server.start()
        except OSError as exc:
            if exc.errno in BIND_ERRNOS:
                print(
                    format_bind_error(server.requested_endpoint, exc),
                    file=sys.stderr,
                    flush=True,
                )
                return 2
            raise
        if handle_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, server.begin_drain)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
        if banner:
            print(
                f"repro service listening on {server.endpoint}",
                file=sys.stderr,
                flush=True,
            )
        await server.wait_drained()
        return 0

    return asyncio.run(_main())


class ServerThread:
    """Run a :class:`ReproServer` on a background thread with its own event
    loop — the embedding used by tests and benchmarks.

    Usage::

        with ServerThread(port=0) as srv:
            client = ServiceClient(srv.address)
            ...

    ``__exit__`` performs a full graceful drain, so counters and manifests
    written at drain time are observable after the ``with`` block.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._server: ReproServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread did not start within 10s")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()/stop()
            self._error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        server = ReproServer(**self._kwargs)
        await server.start()
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.wait_drained()

    @property
    def server(self) -> ReproServer:
        assert self._server is not None
        return self._server

    @property
    def address(self) -> tuple[str, int] | str:
        return self.server.address

    def stop(self, timeout: float = 15.0) -> None:
        """Gracefully drain and join the server thread."""
        if (
            self._thread is not None
            and self._thread.is_alive()
            and self._loop is not None
            and self._server is not None
        ):
            self._loop.call_soon_threadsafe(self._server.begin_drain)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not drain within timeout")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
