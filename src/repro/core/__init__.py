"""Core substrate: task graphs, analysis, metrics, schedules, simulator."""

from .analysis import (
    GraphAnalysis,
    alap_times,
    alap_times_view,
    asap_times,
    b_levels,
    b_levels_view,
    critical_path,
    critical_path_length,
    dominant_path_length,
    hu_levels,
    hu_levels_view,
    t_levels,
    t_levels_view,
)
from .exceptions import (
    CycleError,
    DecompositionError,
    GenerationError,
    GraphError,
    ReproError,
    ScheduleError,
)
from .kernels import GraphIndex, graph_index
from .lowerbounds import best_bound, cp_bound, density_bound, work_bound
from .metrics import (
    GRANULARITY_BANDS,
    anchor_out_degree,
    granularity,
    granularity_band,
    node_weight_range,
)
from .schedule import Schedule, ScheduledTask
from .stats import GraphStats, ScheduleStats, graph_stats, schedule_stats
from .simulator import serial_schedule, simulate_clustering, simulate_ordered
from .taskgraph import TaskGraph

__all__ = [
    "TaskGraph",
    "Schedule",
    "ScheduledTask",
    "simulate_ordered",
    "simulate_clustering",
    "serial_schedule",
    "GraphAnalysis",
    "t_levels",
    "b_levels",
    "hu_levels",
    "alap_times",
    "asap_times",
    "critical_path",
    "critical_path_length",
    "dominant_path_length",
    "t_levels_view",
    "b_levels_view",
    "hu_levels_view",
    "alap_times_view",
    "GraphIndex",
    "graph_index",
    "granularity",
    "granularity_band",
    "anchor_out_degree",
    "node_weight_range",
    "GRANULARITY_BANDS",
    "cp_bound",
    "work_bound",
    "density_bound",
    "best_bound",
    "graph_stats",
    "schedule_stats",
    "GraphStats",
    "ScheduleStats",
    "ReproError",
    "GraphError",
    "CycleError",
    "ScheduleError",
    "DecompositionError",
    "GenerationError",
]
