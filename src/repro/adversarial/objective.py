"""Pluggable objectives: what "scheduler-separating" means, as a number.

An :class:`Objective` maps a :class:`~repro.core.taskgraph.TaskGraph` to a
scalar *gap* between two schedulers, which the search policies in
:mod:`repro.adversarial.search` maximize.  Two shapes ship:

* :class:`MakespanRatio` — ``makespan(B) / makespan(A)``: how badly B
  loses to A on this instance (PISA's objective; scale-free, so weight
  rescaling alone cannot inflate it once both schedulers track the
  rescale).
* :class:`NSLGap` — ``(makespan(B) - makespan(A)) / cp(G)``: the gap in
  normalized-schedule-length units (the paper's section-4 NRPT uses the
  same critical-path normalization).

Both evaluate whole *neighborhoods* in one call: :meth:`Objective.score_many`
passes the candidate graphs through :func:`repro.core.batch.batch_analyze`
first, which primes the level memos both schedulers read and reports any
cyclic candidate.  A refused candidate (cyclic — which a correct
perturbation op can never produce) scores ``None`` instead of raising from
deep inside a scheduler; so does a candidate on which either scheduler
raises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from ..core.analysis import critical_path_length
from ..core.batch import batch_analyze
from ..core.exceptions import ReproError
from ..core.taskgraph import TaskGraph
from ..obs.metrics import get_registry
from ..schedulers.base import Scheduler, get_scheduler

__all__ = [
    "Objective",
    "MakespanRatio",
    "NSLGap",
    "OBJECTIVES",
    "make_objective",
    "baseline_gap",
]


class Objective(ABC):
    """A maximized scalar gap between schedulers ``a`` (winner) and ``b``.

    Subclasses implement :meth:`_gap` from the two makespans and the graph;
    scheduling, error absorption and batch fan-out are shared.  Instances
    hold their own scheduler objects — schedulers in this codebase are
    stateless between ``schedule`` calls, so one pair serves a whole search.
    """

    #: Registry key, e.g. ``"ratio"``; set by subclasses.
    kind: str = "?"

    def __init__(self, a: str, b: str) -> None:
        self.a = a.upper()
        self.b = b.upper()
        self._sched_a: Scheduler = get_scheduler(a)
        self._sched_b: Scheduler = get_scheduler(b)

    @abstractmethod
    def _gap(self, graph: TaskGraph, ms_a: float, ms_b: float) -> float | None:
        """The score from the two makespans (``None`` = undefined here)."""

    def score(self, graph: TaskGraph) -> float | None:
        """The gap on one graph; ``None`` when either scheduler fails."""
        try:
            ms_a = self._sched_a.schedule(graph).makespan
            ms_b = self._sched_b.schedule(graph).makespan
        except ReproError:
            get_registry().inc("adv.score_errors")
            return None
        return self._gap(graph, ms_a, ms_b)

    def score_many(self, graphs: Sequence[TaskGraph]) -> list[float | None]:
        """Score a whole neighborhood: one :func:`batch_analyze` call,
        then the schedulers on primed memos.

        Candidates it refused as cyclic score ``None`` outright — a
        refused candidate means a broken perturbation op, and evaluating
        it anyway would raise from deep inside a scheduler.
        """
        report = batch_analyze(graphs)
        if report.skipped:
            get_registry().inc("adv.bad_candidates", len(report.skipped))
        bad = set(report.skipped)
        return [
            None if i in bad else self.score(g) for i, g in enumerate(graphs)
        ]

    def describe(self) -> dict:
        """JSON-able identity, stored with every discovered instance."""
        return {"kind": self.kind, "a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(a={self.a!r}, b={self.b!r})"


class MakespanRatio(Objective):
    """``makespan(B) / makespan(A)`` — maximized, so the search hunts for
    instances where ``A`` beats ``B`` by the largest factor."""

    kind = "ratio"

    def _gap(self, graph: TaskGraph, ms_a: float, ms_b: float) -> float | None:
        if ms_a <= 0.0:
            return None
        return ms_b / ms_a


class NSLGap(Objective):
    """``(makespan(B) - makespan(A)) / cp(G)`` — the makespan gap in units
    of the graph's communication-inclusive critical path, so growing the
    graph's absolute scale does not inflate the score."""

    kind = "nsl-gap"

    def _gap(self, graph: TaskGraph, ms_a: float, ms_b: float) -> float | None:
        cp = critical_path_length(graph)
        if cp <= 0.0:
            return None
        return (ms_b - ms_a) / cp


OBJECTIVES: dict[str, type[Objective]] = {
    MakespanRatio.kind: MakespanRatio,
    NSLGap.kind: NSLGap,
}


def make_objective(kind: str, a: str, b: str) -> Objective:
    """Instantiate an objective by registry key (``ratio`` / ``nsl-gap``)."""
    try:
        cls = OBJECTIVES[kind]
    except KeyError:
        known = ", ".join(sorted(OBJECTIVES))
        raise ValueError(f"unknown objective {kind!r}; known: {known}") from None
    return cls(a, b)


def baseline_gap(
    objective: Objective, suite: Sequence
) -> tuple[float | None, str | None]:
    """The max gap over an existing testbed: ``(gap, graph_id)``.

    ``suite`` is any sequence of :class:`~repro.generation.suites.SuiteGraph`
    (or anything with ``.graph`` / ``.graph_id``).  This is the yardstick a
    search run must beat for the acceptance claim "adversarial search finds
    larger gaps than random sampling"; graphs scoring ``None`` are ignored.
    """
    best: float | None = None
    best_id: str | None = None
    chunk = 256
    for lo in range(0, len(suite), chunk):
        part = suite[lo : lo + chunk]
        scores = objective.score_many([sg.graph for sg in part])
        for sg, s in zip(part, scores):
            if s is not None and (best is None or s > best):
                best, best_id = s, sg.graph_id
    return best, best_id
