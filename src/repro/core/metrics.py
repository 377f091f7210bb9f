"""Graph classification metrics from section 3 of the paper.

Three properties classify the 2100 test graphs:

* :func:`granularity` — section 3.1's formula: the mean, over non-sink tasks,
  of ``node weight / heaviest outgoing edge weight``.
* :func:`anchor_out_degree` — section 3.2: the mode of the out-degrees.
* :func:`node_weight_range` — section 3.3: ``(w_min, w_max)`` of node weights.
"""

from __future__ import annotations

import math
from collections import Counter

from .exceptions import GraphError
from .taskgraph import TaskGraph

__all__ = [
    "granularity",
    "anchor_out_degree",
    "node_weight_range",
    "GRANULARITY_BANDS",
    "granularity_band",
]

#: The paper's five granularity classes (section 3.1), as (low, high) bounds.
#: ``low <= G < high``; the outer bands are open-ended.
GRANULARITY_BANDS: tuple[tuple[float, float], ...] = (
    (0.0, 0.08),
    (0.08, 0.2),
    (0.2, 0.8),
    (0.8, 2.0),
    (2.0, math.inf),
)


def granularity(graph: TaskGraph) -> float:
    """Section 3.1 granularity: mean over non-sinks of ``w_i / max_j w_e(i,j)``.

    Sink tasks send no messages and are excluded from the average, as in the
    paper.  A non-sink task whose heaviest outgoing edge has zero weight would
    make the ratio infinite; since the generator never produces zero-weight
    edges we treat it as an error rather than returning ``inf`` silently.

    Memoized per graph version under ``"metrics.granularity"``; an
    undefined value is never memoized, so the errors above raise on every
    call.
    """
    return graph.cached("metrics.granularity", lambda: _granularity(graph))


def _granularity(graph: TaskGraph) -> float:
    terms: list[float] = []
    for t in graph.tasks():
        out = graph.out_edges(t)
        if not out:
            continue
        max_edge = max(out.values())
        if max_edge <= 0.0:
            raise GraphError(
                f"task {t!r} has only zero-weight outgoing edges; "
                "granularity is undefined"
            )
        terms.append(graph.weight(t) / max_edge)
    if not terms:
        raise GraphError("granularity undefined: graph has no edges")
    return sum(terms) / len(terms)


def granularity_band(g: float) -> int:
    """Index into :data:`GRANULARITY_BANDS` for granularity value ``g``."""
    if g < 0:
        raise GraphError(f"granularity cannot be negative: {g}")
    for i, (lo, hi) in enumerate(GRANULARITY_BANDS):
        if lo <= g < hi:
            return i
    return len(GRANULARITY_BANDS) - 1  # pragma: no cover - inf band catches all


def anchor_out_degree(graph: TaskGraph, *, include_sinks: bool = False) -> int:
    """Section 3.2: the mode of the out-degrees (the "anchor").

    Sinks have out-degree zero; since the anchor is meant to measure program
    *branching*, sinks are excluded by default.  Ties between equally common
    degrees are broken toward the smaller degree, deterministically.
    """
    degrees = [
        graph.out_degree(t)
        for t in graph.tasks()
        if include_sinks or graph.out_degree(t) > 0
    ]
    if not degrees:
        raise GraphError("anchor out-degree undefined: no qualifying tasks")
    counts = Counter(degrees)
    best = max(counts.values())
    return min(d for d, c in counts.items() if c == best)


def node_weight_range(graph: TaskGraph) -> tuple[float, float]:
    """Section 3.3: ``(min, max)`` task weight in the graph."""
    if graph.n_tasks == 0:
        raise GraphError("node weight range undefined: empty graph")
    ws = [graph.weight(t) for t in graph.tasks()]
    return (min(ws), max(ws))
