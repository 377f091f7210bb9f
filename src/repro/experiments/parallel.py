"""Parallel suite execution over a process pool.

The testbed's workload is embarrassingly parallel — every suite graph is
scheduled independently — so :func:`run_suite_parallel` fans chunks of the
suite out to ``jobs`` worker processes with
:class:`concurrent.futures.ProcessPoolExecutor` and reassembles the results
**in suite order**, regardless of completion order.  Because every graph is
evaluated by the exact same code path as the serial runner
(:func:`repro.experiments.runner._graph_result_safe`) and the heuristics
are deterministic, a parallel run's results are identical to a serial
run's — ``bench_perf_suite.py`` enforces byte-identical serialized output
as its acceptance bound.  That identity extends to fault policies: the
same ``on_error``/``timeout``/``retries`` decisions are made inside the
workers, so the partial results and failure records of a degraded run
match the serial path too.

Fault tolerance on top of the worker-side policy:

* **parent watchdog** — when a per-call ``timeout`` is set and no chunk
  completes within a generous multiple of the worst legitimate chunk time
  (a C-level hang that ``SIGALRM`` cannot interrupt), the pool is torn
  down and the unfinished graphs are re-dispatched in isolation;
* **crash recovery** — a worker death (``BrokenProcessPool``) loses only
  the in-flight chunks: completed results are already merged, the pool is
  respawned, and the unfinished graphs are re-run one per dispatch on a
  single-worker pool so the culprit graph is identified with certainty
  and recorded as a ``crash`` failure while every innocent graph still
  completes.

Observability across the process boundary:

* each worker runs against its **own** fresh
  :class:`~repro.obs.metrics.MetricsRegistry`; its snapshot is returned with
  the chunk's results and merged into the parent registry, so per-heuristic
  timers and algorithm counters aggregate exactly as in a serial run;
* when the parent's tracer is enabled, workers record spans into their own
  tracer sharing the parent's epoch (``perf_counter`` is system-wide
  monotonic on the platforms we support) and the events are folded into the
  parent trace, tagged with the worker's real pid;
* ``progress`` callbacks fire in the parent as chunks complete, once per
  graph, with a monotonically increasing count — completion order may
  differ from suite order, but the final result list never does.

Graceful degradation: ``jobs=1``, a 0/1-graph suite, or schedulers that
cannot be pickled (e.g. closures built in a test) use the serial path —
correctness first, parallelism when possible.  Checkpoint journals
(``checkpoint=path``) are written by the parent as chunks complete, so a
killed parallel campaign resumes exactly like a serial one.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from time import perf_counter

from ..generation.suites import SuiteGraph
from ..obs.log import ProgressStats, get_logger
from ..obs.metrics import MetricsRegistry, get_registry, use_registry
from ..obs.telemetry import current_context, parse_traceparent, use_context
from ..obs.trace import Tracer, get_tracer, use_tracer
from ..schedulers.base import Scheduler, paper_schedulers
from .faults import FailureRecord, FaultPolicy, WorkerCrashError
from .measures import GraphResult, SuiteResult

__all__ = ["run_suite_parallel", "resolve_jobs", "default_chunk_size"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all available CPUs.

    Raises ``ValueError`` for anything below 1.
    """
    if jobs is None:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # platforms without sched_getaffinity
            return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def default_chunk_size(n_graphs: int, jobs: int) -> int:
    """Graphs per dispatched chunk.

    Aim for ~4 chunks per worker (amortizes pickling without starving the
    pool near the end of the suite), capped so progress stays responsive.
    """
    return max(1, min(32, -(-n_graphs // (jobs * 4))))


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        get_logger("parallel").debug(
            "object %r is not picklable: %s: %s", type(obj).__name__, type(exc).__name__, exc
        )
        return False
    return True


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are hung or dead.

    ``shutdown(wait=True)`` would block forever on a wedged worker, so the
    worker processes are terminated directly (via the executor's process
    table) after a non-blocking shutdown.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5.0)


def _run_chunk(
    chunk: list[SuiteGraph],
    schedulers: Sequence[Scheduler],
    validate: bool,
    seed: int | None,
    trace_enabled: bool,
    trace_epoch: float,
    policy: FaultPolicy | None,
    traceparent: str | None = None,
) -> tuple[list, list, dict, list[dict]]:
    """Worker entry: evaluate one chunk against fresh obs sinks.

    Returns ``(results, failures, metrics snapshot, trace events)`` —
    results for graphs where at least one heuristic succeeded, failure
    records for every absorbed ``(graph, heuristic)`` failure.  When the
    parent passes a ``traceparent``, a child context is activated for the
    chunk so every worker span (graph, schedule, compile) carries the
    campaign's trace id.
    """
    from .runner import _graph_result_safe

    registry = MetricsRegistry()
    tracer = Tracer(enabled=trace_enabled)
    tracer._epoch = trace_epoch  # align worker span timestamps with parent
    parent_ctx = parse_traceparent(traceparent)
    ctx = parent_ctx.child() if parent_ctx is not None else None
    results = []
    failures: list[FailureRecord] = []
    with use_registry(registry), use_tracer(tracer), use_context(ctx):
        for sg in chunk:
            gr, frs = _graph_result_safe(
                sg,
                schedulers,
                validate=validate,
                seed=seed,
                tracer=tracer,
                policy=policy,
            )
            if gr is not None:
                results.append(gr)
            failures.extend(frs)
    events = tracer.events
    if events:
        pid = os.getpid()
        for event in events:
            event["pid"] = pid
    return results, failures, registry.snapshot(), events


def run_suite_parallel(
    suite: Iterable[SuiteGraph],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    validate: bool = False,
    progress: Callable | None = None,
    seed: int | None = None,
    jobs: int | None = None,
    chunk_size: int | None = None,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.05,
    checkpoint=None,
) -> SuiteResult:
    """Evaluate the suite on ``jobs`` worker processes.

    Same contract as :func:`repro.experiments.runner.run_suite` (which
    delegates here for ``jobs != 1``), fault-tolerance parameters
    included: returns one
    :class:`~repro.experiments.measures.GraphResult` per surviving suite
    graph, in suite order, identical to what the serial path produces.
    """
    from .runner import _make_policy, _ProgressGuard, run_suite

    suite = list(suite)
    if schedulers is None:
        schedulers = paper_schedulers()
    policy = _make_policy(on_error, timeout, retries, backoff)
    jobs = resolve_jobs(jobs)
    log = get_logger("parallel")

    def _serial() -> SuiteResult:
        return run_suite(
            suite,
            schedulers,
            validate=validate,
            progress=progress,
            seed=seed,
            jobs=1,
            on_error=on_error,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            checkpoint=checkpoint,
        )

    journal = None
    completed: dict[str, GraphResult | None] = {}
    replayed: list[FailureRecord] = []
    if checkpoint is not None:
        from .persistence import CheckpointJournal

        journal = CheckpointJournal(checkpoint)
        completed, replayed = journal.load_completed([s.name for s in schedulers])

    remaining = [sg for sg in suite if sg.graph_id not in completed]
    jobs = min(jobs, max(1, len(remaining)))
    if jobs == 1 or len(remaining) <= 1:
        return _serial()
    if not (_picklable(list(schedulers)) and _picklable(remaining[0])):
        log.warning(
            "schedulers or suite graphs are not picklable; "
            "falling back to serial execution"
        )
        return _serial()

    tracer = get_tracer()
    registry = get_registry()
    total = len(suite)
    size = chunk_size if chunk_size else default_chunk_size(len(remaining), jobs)
    chunks = [remaining[i : i + size] for i in range(0, len(remaining), size)]
    keep_records = policy is not None and policy.keeps_records
    isolating = policy is not None and policy.isolates

    results_by_id: dict[str, GraphResult] = {
        gid: gr for gid, gr in completed.items() if gr is not None
    }
    failures: list[FailureRecord] = list(replayed)
    n_failed = len(replayed)
    guard = _ProgressGuard(progress) if progress is not None else None
    start = perf_counter()
    done_count = 0

    def _fire_progress(gr: GraphResult) -> None:
        nonlocal done_count
        done_count += 1
        if guard is None:
            return
        stats = None
        if guard.wants_stats:
            elapsed = perf_counter() - start
            stats = ProgressStats(
                done=done_count,
                total=total,
                elapsed=elapsed,
                rate=done_count / elapsed if elapsed > 0 else 0.0,
            )
        guard(done_count, gr, stats)

    # Resumed graphs count as completed work of this run: surface them to
    # the progress callback (in suite order) before dispatching the rest.
    for sg in suite:
        if completed.get(sg.graph_id) is not None:
            _fire_progress(completed[sg.graph_id])

    def _handle_payload(
        chunk_results: list, chunk_failures: list, snapshot: dict, events: list
    ) -> None:
        nonlocal n_failed
        registry.merge(snapshot)
        if events:
            tracer.events.extend(events)
        n_failed += len(chunk_failures)
        if keep_records:
            failures.extend(chunk_failures)
        by_graph: dict[str, list[FailureRecord]] = {}
        for fr in chunk_failures:
            by_graph.setdefault(fr.graph_id, []).append(fr)
        journaled = set()
        for gr in chunk_results:
            results_by_id[gr.graph_id] = gr
            if journal is not None:
                journal.append(gr, by_graph.get(gr.graph_id, ()))
            journaled.add(gr.graph_id)
            _fire_progress(gr)
        if journal is not None:
            for gid, frs in by_graph.items():
                if gid not in journaled:  # every heuristic failed
                    journal.append(None, frs)

    def _graph_level_failure(sg: SuiteGraph, kind: str, message: str) -> None:
        """Record a whole-graph failure attributed by the parent (worker
        crash, or a hang that worker-side SIGALRM could not interrupt)."""
        nonlocal n_failed
        n_failed += 1
        registry.inc("suite.failures")
        registry.inc(f"suite.failures.*.{kind}")
        if kind == "timeout":
            registry.inc("suite.quarantined")
        fr = FailureRecord(
            graph_id=sg.graph_id,
            heuristic=None,
            kind=kind,
            exc_type="WorkerCrashError" if kind == "crash" else "GraphTimeoutError",
            message=message,
            seed=seed,
        )
        if keep_records:
            failures.append(fr)
        if journal is not None:
            journal.append(None, [fr])

    ctx = current_context()
    worker_args = (
        schedulers,
        validate,
        seed,
        tracer.enabled,
        tracer._epoch,
        policy,
        ctx.to_traceparent() if ctx is not None else None,
    )

    # Worst legitimate wall time for one chunk: per-call budget × possible
    # retry × heuristics × graphs, padded.  Only armed when a timeout is
    # configured; the watchdog is the backstop for hangs SIGALRM can't
    # interrupt (C extensions, non-main-thread platforms).
    watchdog = None
    if policy is not None and policy.timeout is not None:
        watchdog = policy.timeout * 2 * max(1, len(schedulers)) * size + 10.0

    leftovers: list[SuiteGraph] = []
    pool = ProcessPoolExecutor(max_workers=jobs)
    pending: dict = {}
    try:
        for i, chunk in enumerate(chunks):
            try:
                pending[pool.submit(_run_chunk, chunk, *worker_args)] = chunk
            except BrokenExecutor as exc:
                # A worker can die (os._exit, OOM kill) while the parent is
                # still submitting; submit() then raises directly, outside
                # the future.result() handling below.
                if not isolating:
                    raise WorkerCrashError(
                        "a worker process died while the suite was being "
                        f"dispatched (chunk of {len(chunk)} graph(s) lost)"
                    ) from exc
                log.warning(
                    "worker pool broke during dispatch (%s); isolating "
                    "%d unsubmitted chunk(s)",
                    type(exc).__name__,
                    len(chunks) - i,
                )
                leftovers = [
                    sg
                    for c in [*pending.values(), *chunks[i:]]
                    for sg in c
                ]
                pending.clear()
                break
        while pending:
            done, _ = wait(pending.keys(), timeout=watchdog, return_when=FIRST_COMPLETED)
            if not done:
                # Watchdog expiry with nothing finished: the pool is wedged.
                if not any(f.running() for f in pending):
                    continue  # nothing started yet; keep waiting
                registry.inc("suite.watchdog.trips")
                if not isolating:
                    raise WorkerCrashError(
                        f"no chunk completed within the {watchdog:.0f}s "
                        "watchdog budget; worker pool is wedged"
                    )
                log.warning(
                    "watchdog: no chunk completed in %.0fs; "
                    "tearing the pool down and isolating %d chunk(s)",
                    watchdog,
                    len(pending),
                )
                leftovers = [sg for chunk in pending.values() for sg in chunk]
                pending.clear()
                break
            broken = False
            for future in done:
                chunk = pending.pop(future)
                try:
                    payload = future.result()
                except BrokenExecutor as exc:
                    if not isolating:
                        raise WorkerCrashError(
                            "a worker process died while evaluating the suite "
                            f"(chunk of {len(chunk)} graph(s) lost)"
                        ) from exc
                    log.warning(
                        "worker pool broke (%s); isolating %d unfinished graph(s)",
                        type(exc).__name__,
                        sum(len(c) for c in [chunk, *pending.values()]),
                    )
                    leftovers = [sg for c in [chunk, *pending.values()] for sg in c]
                    pending.clear()
                    broken = True
                    break
                _handle_payload(*payload)
            if broken:
                break
    except BaseException:
        _terminate_pool(pool)
        raise
    if leftovers:
        _terminate_pool(pool)
    else:
        pool.shutdown()

    if leftovers:
        # Isolation mode: one graph per dispatch on a single-worker pool,
        # so a crash or hard hang is attributed to exactly one graph while
        # every innocent graph still completes.
        iso_budget = None
        if policy is not None and policy.timeout is not None:
            iso_budget = policy.timeout * 2 * max(1, len(schedulers)) + 5.0
        iso = ProcessPoolExecutor(max_workers=1)
        registry.inc("suite.pool_respawns")
        try:
            for sg in leftovers:
                future = iso.submit(_run_chunk, [sg], *worker_args)
                try:
                    payload = future.result(timeout=iso_budget)
                except FuturesTimeoutError:
                    _terminate_pool(iso)
                    iso = ProcessPoolExecutor(max_workers=1)
                    registry.inc("suite.pool_respawns")
                    _graph_level_failure(
                        sg,
                        "timeout",
                        f"graph exceeded the isolated-mode budget "
                        f"({iso_budget:.1f}s) after a pool watchdog trip",
                    )
                    continue
                except BrokenExecutor:
                    _terminate_pool(iso)
                    iso = ProcessPoolExecutor(max_workers=1)
                    registry.inc("suite.pool_respawns")
                    _graph_level_failure(
                        sg,
                        "crash",
                        "worker process died while evaluating this graph",
                    )
                    continue
                _handle_payload(*payload)
        finally:
            _terminate_pool(iso)

    ordered = SuiteResult(
        (
            results_by_id[sg.graph_id]
            for sg in suite
            if sg.graph_id in results_by_id
        ),
        n_failed=n_failed,
    )
    if keep_records:
        # Deterministic failure order: suite position, then scheduler
        # position (graph-level records first) — matches the serial path.
        suite_index = {sg.graph_id: i for i, sg in enumerate(suite)}
        sched_index = {s.name: i for i, s in enumerate(schedulers)}
        failures.sort(
            key=lambda fr: (
                suite_index.get(fr.graph_id, len(suite)),
                -1 if fr.heuristic is None else sched_index.get(fr.heuristic, len(sched_index)),
            )
        )
        ordered.failures = failures
    registry.inc("suite.graphs", len(ordered))
    registry.inc("suite.parallel.runs")
    registry.inc("suite.parallel.chunks", len(chunks))
    registry.observe("suite.parallel.jobs", jobs)
    if completed:
        registry.inc("suite.checkpoint.resumed", len(completed))
    return ordered
