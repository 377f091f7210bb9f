"""Run heuristics over graph suites and collect measures.

This is the testbed's execution core: it takes classified graphs (from
:mod:`repro.generation.suites` or anywhere else), runs every scheduler on
every graph, optionally validates each produced schedule against the
execution model, and emits :class:`~repro.experiments.measures.GraphResult`
records for aggregation.

Fault tolerance: :func:`evaluate_graph` and :func:`run_suite` accept an
``on_error`` policy (``"raise"`` — historical fail-fast default — or
``"skip"`` / ``"record"``, which isolate failures as
:class:`~repro.experiments.faults.FailureRecord` objects and keep the
campaign going), a per-schedule-call wall-clock ``timeout`` (one overrun is
retried, a second quarantines the pair), and ``retries`` with exponential
backoff for transient failures.  ``run_suite(..., checkpoint=path)``
journals every completed graph to a JSONL file with fsync'd appends, so an
interrupted 2100-graph campaign resumes where it died and reproduces the
uninterrupted run's results byte-for-byte.

Observability: each graph is traced as a ``graph.<id>`` span on the process
tracer (:mod:`repro.obs.trace`); any library error raised while scheduling
or validating is annotated (:pep:`678` notes) with the graph id, heuristic
name and master seed, so a failure 1800 graphs into a suite run is
diagnosable.  Isolated failures surface as ``suite.failures`` /
``suite.failures.<heuristic>.<kind>`` counters.  Progress callbacks may
accept a third :class:`~repro.obs.log.ProgressStats` argument carrying
elapsed wall time, throughput and ETA — ``progress=repro.obs.log_progress``
is the ready-made logging callback.  A progress callback that raises is
reported once (obs warning) and disabled; it never aborts the suite.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Sequence
from time import perf_counter, sleep

from ..core.exceptions import ReproError
from ..core.metrics import granularity
from ..core.taskgraph import TaskGraph
from ..generation.suites import SuiteGraph
from ..obs.log import ProgressStats, get_logger
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..schedulers.base import Scheduler, paper_schedulers
from .faults import FailureRecord, FaultPolicy, GraphTimeoutError, deadline
from .measures import GraphResult, HeuristicResult, SuiteResult

__all__ = ["evaluate_graph", "run_suite", "PAPER_HEURISTIC_ORDER"]

#: Column order used by every table in the paper.
PAPER_HEURISTIC_ORDER: tuple[str, ...] = ("CLANS", "DSC", "MCP", "MH", "HU")


def _attach_run_context(
    exc: BaseException, *, graph_id: str | None, heuristic: str, seed: int | None
) -> None:
    """Annotate a failure with which run produced it (PEP 678 note)."""
    exc.add_note(
        f"while scheduling graph={graph_id or '<unnamed>'} "
        f"heuristic={heuristic} seed={seed if seed is not None else '<unknown>'}"
    )


def _evaluate_one(
    sched: Scheduler,
    graph: TaskGraph,
    *,
    validate: bool,
    tracer,
    registry,
    policy: FaultPolicy,
    graph_id: str | None,
    seed: int | None,
) -> tuple[HeuristicResult | None, FailureRecord | None]:
    """One heuristic under a fault policy: budget, retries, quarantine.

    Returns ``(result, None)`` on success, ``(None, record)`` when the
    failure was absorbed; re-raises (with run context attached) when the
    policy says ``on_error="raise"`` and retries are exhausted.
    """
    attempts = 0
    timeouts = 0
    start = perf_counter()
    while True:
        attempts += 1
        try:
            with deadline(policy.timeout):
                schedule = sched._schedule_observed(graph, tracer, registry)
                if validate:
                    schedule.validate(graph)
            return (
                HeuristicResult(
                    parallel_time=schedule.makespan,
                    n_processors=schedule.n_processors,
                ),
                None,
            )
        except Exception as exc:
            is_timeout = isinstance(exc, GraphTimeoutError)
            if is_timeout:
                timeouts += 1
                registry.inc("suite.timeouts")
                # A hung call gets exactly one more chance; a second
                # overrun quarantines the (graph, heuristic) pair.
                retry = timeouts < 2
            else:
                retry = attempts <= policy.retries
            if retry:
                registry.inc("suite.retries")
                if policy.backoff:
                    sleep(policy.backoff * 2 ** (attempts - 1))
                continue
            if not policy.isolates:
                if isinstance(exc, ReproError):
                    _attach_run_context(
                        exc, graph_id=graph_id, heuristic=sched.name, seed=seed
                    )
                raise
            kind = "timeout" if is_timeout else "error"
            if is_timeout:
                registry.inc("suite.quarantined")
            registry.inc("suite.failures")
            registry.inc(f"suite.failures.{sched.name}.{kind}")
            return None, FailureRecord.from_exception(
                exc,
                graph_id=graph_id or "<unnamed>",
                heuristic=sched.name,
                kind=kind,
                seed=seed,
                elapsed=perf_counter() - start,
                attempts=attempts,
            )


def evaluate_graph(
    graph: TaskGraph,
    schedulers: Sequence[Scheduler],
    *,
    validate: bool = False,
    graph_id: str | None = None,
    seed: int | None = None,
    on_error: str = "raise",
    policy: FaultPolicy | None = None,
    failures: list[FailureRecord] | None = None,
) -> dict[str, HeuristicResult]:
    """Schedule one graph with every heuristic.

    With ``validate=True`` each schedule is checked against the shared
    execution model — slower, but the property the whole comparison rests
    on; the test suite always validates.  ``graph_id`` and ``seed`` are
    pure metadata: they are attached to any raised library error so the
    failing run can be reproduced.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    re-raises the first failure; ``"skip"`` and ``"record"`` absorb it —
    the failed heuristic is omitted from the returned dict and, when the
    caller supplies a ``failures`` list, a
    :class:`~repro.experiments.faults.FailureRecord` is appended to it.
    Pass a full :class:`~repro.experiments.faults.FaultPolicy` as
    ``policy`` to add per-call timeouts and retries; it overrides
    ``on_error``.
    """
    if policy is None:
        if on_error != "raise":
            policy = FaultPolicy(on_error=on_error)
    out: dict[str, HeuristicResult] = {}
    tracer = get_tracer()
    registry = get_registry()
    if policy is None:
        # Historical fast path: no policy machinery on the hot loop.
        for sched in schedulers:
            try:
                schedule = sched._schedule_observed(graph, tracer, registry)
                if validate:
                    schedule.validate(graph)
            except ReproError as exc:
                _attach_run_context(
                    exc, graph_id=graph_id, heuristic=sched.name, seed=seed
                )
                raise
            out[sched.name] = HeuristicResult(
                parallel_time=schedule.makespan,
                n_processors=schedule.n_processors,
            )
        return out
    for sched in schedulers:
        result, record = _evaluate_one(
            sched,
            graph,
            validate=validate,
            tracer=tracer,
            registry=registry,
            policy=policy,
            graph_id=graph_id,
            seed=seed,
        )
        if result is not None:
            out[sched.name] = result
        elif record is not None and failures is not None:
            failures.append(record)
    return out


def _graph_result(
    sg: SuiteGraph,
    schedulers: Sequence[Scheduler],
    *,
    validate: bool,
    seed: int | None,
    tracer,
) -> GraphResult:
    """Evaluate one suite graph (one ``graph.<id>`` span on ``tracer``).

    Shared by the serial loop below and the process-pool workers in
    :mod:`repro.experiments.parallel` — both paths produce results through
    this single function, which is what makes serial and parallel runs
    bit-identical.
    """
    gr, _ = _graph_result_safe(
        sg, schedulers, validate=validate, seed=seed, tracer=tracer, policy=None
    )
    assert gr is not None  # policy=None re-raises instead of absorbing
    return gr


def _graph_result_safe(
    sg: SuiteGraph,
    schedulers: Sequence[Scheduler],
    *,
    validate: bool,
    seed: int | None,
    tracer,
    policy: FaultPolicy | None,
) -> tuple[GraphResult | None, list[FailureRecord]]:
    """Fault-aware evaluation of one suite graph.

    Returns ``(result, failures)``; ``result`` is ``None`` when every
    heuristic failed (the graph drops out of the suite results entirely)
    and ``failures`` holds the absorbed per-heuristic records.  Serial and
    parallel runs both produce results through this single function, which
    is what makes them bit-identical — policy decisions included.
    """
    failures: list[FailureRecord] = []
    with tracer.span("graph." + sg.graph_id, cat="suite", graph_id=sg.graph_id):
        results = evaluate_graph(
            sg.graph,
            schedulers,
            validate=validate,
            graph_id=sg.graph_id,
            seed=seed,
            policy=policy,
            failures=failures,
        )
    if not results:
        return None, failures
    return (
        GraphResult(
            graph_id=sg.graph_id,
            band=sg.cell.band,
            anchor=sg.cell.anchor,
            weight_range=sg.cell.weight_range,
            granularity=granularity(sg.graph),
            serial_time=sg.graph.serial_time(),
            results=results,
        ),
        failures,
    )


def _accepts_stats(progress: Callable) -> bool:
    """Whether a progress callback takes the third ``ProgressStats`` arg."""
    try:
        params = inspect.signature(progress).parameters.values()
    except (TypeError, ValueError):
        return False
    positional = 0
    for p in params:
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 3


class _ProgressGuard:
    """Wrap a progress callback so its bugs cannot abort a campaign.

    The first ordinary exception is logged (obs warning) and the callback
    is disabled for the rest of the run.  ``KeyboardInterrupt`` and other
    ``BaseException``s propagate — a ^C must still stop the suite (the
    checkpoint journal, if any, stays intact: appends happen before the
    callback fires).
    """

    def __init__(self, progress: Callable) -> None:
        self._progress = progress
        self.wants_stats = _accepts_stats(progress)
        self._disabled = False

    def __call__(self, done: int, gr, stats: ProgressStats | None) -> None:
        if self._disabled:
            return
        try:
            if self.wants_stats:
                self._progress(done, gr, stats)
            else:
                self._progress(done, gr)
        except Exception:
            self._disabled = True
            get_logger("runner").warning(
                "progress callback raised; disabling it for the rest of the run",
                exc_info=True,
            )


def _make_policy(
    on_error: str, timeout: float | None, retries: int, backoff: float
) -> FaultPolicy | None:
    """A policy object, or ``None`` when everything is at the fail-fast
    defaults (keeps the historical zero-overhead path)."""
    if on_error == "raise" and timeout is None and retries == 0:
        return None
    return FaultPolicy(
        on_error=on_error, timeout=timeout, retries=retries, backoff=backoff
    )


#: perfbench's traced pass groups its compile and analysis spans by this many graphs.
PREBATCH_CHUNK = 256


def run_suite(
    suite: Iterable[SuiteGraph],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    validate: bool = False,
    progress: Callable | None = None,
    seed: int | None = None,
    jobs: int | None = 1,
    on_error: str = "raise",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.05,
    checkpoint=None,
) -> SuiteResult:
    """Evaluate every suite graph with every scheduler.

    ``schedulers`` defaults to the paper's five heuristics.  ``progress``
    (if given) is called after each graph with ``(count so far, result)``;
    callbacks declaring a third positional parameter additionally receive a
    :class:`~repro.obs.log.ProgressStats` with elapsed time, graphs/sec and
    the suite total when known.  ``seed`` is metadata only — it is attached
    to error context and is *not* used to generate anything here.

    ``jobs`` selects the execution strategy: 1 (the default) runs in-process
    and serially; ``N > 1`` fans the suite out over ``N`` worker processes
    (:mod:`repro.experiments.parallel`); ``None`` uses every available CPU.
    Results are always returned in suite order and are identical between the
    serial and parallel paths.

    Fault tolerance (see :mod:`repro.experiments.faults`): ``on_error``
    chooses fail-fast (``"raise"``), counted-but-dropped (``"skip"``) or
    carried (``"record"``) failures; ``timeout`` budgets each schedule call
    in wall-clock seconds (one overrun retried, two quarantined);
    ``retries``/``backoff`` re-attempt transient non-timeout failures.
    ``checkpoint`` names a JSONL journal: every completed graph (and
    absorbed failure) is appended with an fsync'd write, and a re-run with
    the same path skips graphs whose journal entries already cover the
    requested heuristics — interrupt-and-resume reproduces the
    uninterrupted run's results byte-for-byte.  The journal guarantees
    at-least-once evaluation: a graph in flight when the process dies is
    re-evaluated on resume.
    """
    policy = _make_policy(on_error, timeout, retries, backoff)
    if jobs is None or jobs != 1:
        from .parallel import run_suite_parallel

        return run_suite_parallel(
            suite,
            schedulers,
            validate=validate,
            progress=progress,
            seed=seed,
            jobs=jobs,
            on_error=on_error,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            checkpoint=checkpoint,
        )
    if schedulers is None:
        schedulers = paper_schedulers()

    journal = None
    completed: dict[str, GraphResult | None] = {}
    replayed: list[FailureRecord] = []
    if checkpoint is not None:
        from .persistence import CheckpointJournal

        journal = CheckpointJournal(checkpoint)
        completed, replayed = journal.load_completed(
            [s.name for s in schedulers]
        )

    total = len(suite) if hasattr(suite, "__len__") else None
    guard = _ProgressGuard(progress) if progress is not None else None
    # Hoisted out of the per-graph loop: the tracer and registry are stable
    # for the duration of a run (tests swap them *around* runs, not inside).
    tracer = get_tracer()
    registry = get_registry()
    start = perf_counter()
    keep_records = policy is not None and policy.keeps_records
    results = SuiteResult(failures=replayed if keep_records else ())
    results.n_failed = len(replayed)
    resumed = 0
    for sg in suite:
        if sg.graph_id in completed:
            gr = completed[sg.graph_id]
            resumed += 1
        else:
            gr, failures = _graph_result_safe(
                sg,
                schedulers,
                validate=validate,
                seed=seed,
                tracer=tracer,
                policy=policy,
            )
            results.n_failed += len(failures)
            if keep_records:
                results.failures.extend(failures)
            if journal is not None:
                journal.append(gr, failures)
        if gr is None:
            continue
        results.append(gr)
        if guard is not None:
            done = len(results)
            stats = None
            if guard.wants_stats:
                elapsed = perf_counter() - start
                stats = ProgressStats(
                    done=done,
                    total=total,
                    elapsed=elapsed,
                    rate=done / elapsed if elapsed > 0 else 0.0,
                )
            guard(done, gr, stats)
    registry.inc("suite.graphs", len(results))
    if resumed:
        registry.inc("suite.checkpoint.resumed", resumed)
    return results
