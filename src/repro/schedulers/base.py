"""Scheduler interface and registry.

Every heuristic implements :class:`Scheduler`: it takes a weighted
:class:`~repro.core.taskgraph.TaskGraph` and returns a timed
:class:`~repro.core.schedule.Schedule` that is valid under the paper's
execution model (the test suite validates every schedule produced).

Heuristics register themselves in :data:`SCHEDULER_REGISTRY` so the
experiment harness and CLI can look them up by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter

from ..core.exceptions import GraphError
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = ["Scheduler", "SCHEDULER_REGISTRY", "register", "get_scheduler", "paper_schedulers"]


class Scheduler(ABC):
    """Base class for scheduling heuristics.

    Subclasses set :attr:`name` (the paper's label, e.g. ``"DSC"``) and
    implement :meth:`_schedule`.  :meth:`schedule` performs the shared input
    validation and empty-graph handling.
    """

    #: Registry key and display label.
    name: str = "?"

    def schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule ``graph``; raises :class:`GraphError` on invalid input.

        Every call is timed into the process metrics registry
        (``scheduler.<name>`` timer, ``scheduler.<name>.errors`` counter)
        and — when the process tracer is enabled — recorded as exactly one
        ``schedule.<name>`` span, error paths included.
        """
        return self._schedule_observed(graph, get_tracer(), get_registry())

    def _schedule_observed(self, graph: TaskGraph, tracer, registry) -> Schedule:
        """:meth:`schedule` with the obs sinks supplied by the caller.

        The experiment runner resolves the process tracer/registry once per
        graph and hands them to all five heuristics, instead of each
        ``schedule`` call re-resolving the globals on the hot path.
        """
        start = perf_counter()
        error: BaseException | None = None
        try:
            if graph.n_tasks == 0:
                raise GraphError(f"{self.name}: cannot schedule an empty graph")
            graph.validate()
            return self._schedule(graph)
        except BaseException as exc:
            error = exc
            raise
        finally:
            duration = perf_counter() - start
            registry.add_timing(f"scheduler.{self.name}", duration)
            if error is not None:
                registry.inc(f"scheduler.{self.name}.errors")
            if tracer.enabled:
                tracer.add_span(
                    f"schedule.{self.name}",
                    start,
                    duration,
                    cat="scheduler",
                    error=error,
                    args={"heuristic": self.name, "n_tasks": graph.n_tasks},
                )

    @abstractmethod
    def _schedule(self, graph: TaskGraph) -> Schedule:
        """Produce a schedule for a validated, non-empty DAG."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


SCHEDULER_REGISTRY: dict[str, type[Scheduler]] = {}


def register(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a scheduler to the registry by its name."""
    key = cls.name.upper()
    if key in SCHEDULER_REGISTRY and SCHEDULER_REGISTRY[key] is not cls:
        raise ValueError(f"duplicate scheduler name {cls.name!r}")
    SCHEDULER_REGISTRY[key] = cls
    return cls


def get_scheduler(name: str) -> Scheduler:
    """Instantiate a registered scheduler by (case-insensitive) name."""
    try:
        return SCHEDULER_REGISTRY[name.upper()]()
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_REGISTRY))
        raise KeyError(f"unknown scheduler {name!r}; known: {known}") from None


def paper_schedulers() -> list[Scheduler]:
    """The paper's five heuristics, in its reporting order."""
    return [get_scheduler(n) for n in ("CLANS", "DSC", "MCP", "MH", "HU")]
