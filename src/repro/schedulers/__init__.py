"""The scheduling heuristics compared by the paper, plus baselines.

Paper heuristics: :class:`ClansScheduler` (graph decomposition),
:class:`DSCScheduler` and :class:`MCPScheduler` (critical path),
:class:`MHScheduler` and :class:`HuScheduler` (list scheduling).

Baselines/extensions: :class:`SerialScheduler` (single processor),
:class:`ETFScheduler` (earliest task first), :class:`LCScheduler` (linear
clustering), :class:`EZScheduler` (Sarkar edge zeroing) and
:class:`OptimalScheduler` (exhaustive, tiny graphs only).
"""

from .adaptive import AdaptiveScheduler, DEFAULT_SELECTION_TABLE
from .base import SCHEDULER_REGISTRY, Scheduler, get_scheduler, paper_schedulers, register
from .clans_sched import ClansScheduler, GroupDecision
from .dsc import DSCScheduler
from .ez import EZScheduler
from .lc import LCScheduler
from .linear import SerialScheduler
from .listsched import (
    DLSScheduler,
    ETFScheduler,
    HLFETScheduler,
    HuScheduler,
    MCPScheduler,
    MHScheduler,
)
from .improve import LocalSearchImprover
from .mapping import BoundedScheduler, fold_clusters_guided, fold_clusters_lpt
from .metaheuristics import AnnealingScheduler, GeneticScheduler
from .optimal import OptimalScheduler

__all__ = [
    "Scheduler",
    "SCHEDULER_REGISTRY",
    "register",
    "get_scheduler",
    "paper_schedulers",
    "ClansScheduler",
    "GroupDecision",
    "DSCScheduler",
    "MCPScheduler",
    "MHScheduler",
    "HuScheduler",
    "ETFScheduler",
    "LCScheduler",
    "EZScheduler",
    "DLSScheduler",
    "HLFETScheduler",
    "BoundedScheduler",
    "LocalSearchImprover",
    "GeneticScheduler",
    "AnnealingScheduler",
    "AdaptiveScheduler",
    "DEFAULT_SELECTION_TABLE",
    "fold_clusters_lpt",
    "fold_clusters_guided",
    "SerialScheduler",
    "OptimalScheduler",
]
