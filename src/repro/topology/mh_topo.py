"""Topology-aware MH — the feature the paper's clique testbed left inert.

Appendix A.3: MH "fits the PDG to various network topologies in an attempt
to minimize communication delays … by placing communicating tasks close
together."  This variant implements that behaviour on the
:mod:`repro.topology.networks` models:

* priority = communication-inclusive level, exactly as uniform MH;
* each free task is allocated to the topology processor where it *starts
  earliest*, with message arrivals scaled by hop distance — so consumers
  gravitate toward their producers' neighbourhoods;
* the processor pool is the fixed network (no growth).

On a :class:`~repro.topology.networks.FullyConnected` network of p
processors this reduces to ``MHScheduler(max_processors=p)`` (every
distance is one hop), which the tests assert.
"""

from __future__ import annotations

from ..core.kernels import b_levels_arr, graph_index, wave_order_idx
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from ..schedulers.base import Scheduler
from .networks import Topology

__all__ = ["TopologyMHScheduler"]


class TopologyMHScheduler(Scheduler):
    """MH list scheduling onto a fixed processor network.

    Not registered in the global registry (it is parameterized by the
    network); construct directly::

        TopologyMHScheduler(Ring(8)).schedule(graph)
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.name = f"MH@{type(topology).__name__}{topology.n_processors}"

    def _schedule(self, graph: TaskGraph) -> Schedule:
        topo = self.topology
        gi = graph_index(graph)
        # MH's release waves, exactly as in the uniform MHScheduler
        order = wave_order_idx(gi, b_levels_arr(graph, communication=True))

        schedule = Schedule()
        proc_of: dict[Task, int] = {}
        proc_free = [0.0] * topo.n_processors

        for task in map(gi.tasks.__getitem__, order):
            best_p, best_start = 0, float("inf")
            for p in range(topo.n_processors):
                start = proc_free[p]
                for pred, c in graph.in_edges(task).items():
                    arrival = schedule.finish(pred) + c * topo.distance(
                        proc_of[pred], p
                    )
                    if arrival > start:
                        start = arrival
                if start < best_start - 1e-12:
                    best_p, best_start = p, start
            schedule.place(task, best_p, best_start, graph.weight(task))
            proc_of[task] = best_p
            proc_free[best_p] = schedule.finish(task)
        return schedule
