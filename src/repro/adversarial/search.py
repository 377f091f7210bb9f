"""Search policies that hunt for scheduler-separating instances.

:func:`hunt` runs a neighborhood search over the perturbation environment
(:mod:`repro.adversarial.env`), maximizing an
:class:`~repro.adversarial.objective.Objective`.  Each step materializes a
whole neighborhood of candidate graphs and scores it through
``Objective.score_many``, which screens out cyclic candidates with one
:func:`repro.core.batch.batch_analyze` call per step.

Two policies ship, behind one deliberately small interface
(:class:`SearchPolicy`): a greedy hill-climber with restarts and simulated
annealing.  The interface is *MCTS-ready* in the sense PISA-style tree
search needs: a policy only ever sees ``(current score, candidate score,
rng)`` plus an outcome callback — it owns acceptance and restart, while
proposal sampling stays in the environment.  A tree policy slots in by
keeping its node statistics inside ``note``/``should_restart`` and
steering restarts toward stored states; nothing in :func:`hunt` assumes
monotone local moves.

Determinism: :func:`hunt` draws every random decision — proposals (via the
environment) and stochastic accepts — from the single ``random.Random(seed)``
it creates, so a ``(seed, base spec, parameters)`` triple always reproduces
the same op log, which is what makes the store's replay-digest check
meaningful.

Observability: the loop counts ``adv.steps`` / ``adv.accepted`` /
``adv.evaluated`` / ``adv.restarts``, records every new incumbent into the
``adv.best_gap`` histogram (its ``max`` is the run's best), and wraps the
whole hunt in one ``adv.hunt`` span when tracing is on.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from ..core.exceptions import AdversarialError
from ..core.taskgraph import TaskGraph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .env import ALL_OPS, Perturbation, PerturbationEnv
from .objective import Objective

__all__ = [
    "SearchPolicy",
    "GreedyPolicy",
    "AnnealingPolicy",
    "POLICIES",
    "make_policy",
    "HuntResult",
    "hunt",
]


class SearchPolicy(ABC):
    """Acceptance + restart strategy for :func:`hunt`.

    One policy instance serves one hunt; implementations may keep state
    (temperature, stall counters, tree statistics) across calls.
    """

    #: Registry key, e.g. ``"greedy"``; set by subclasses.
    name: str = "?"

    @abstractmethod
    def accept(
        self, current: float, candidate: float, rng: random.Random
    ) -> bool:
        """Whether to move from ``current`` to ``candidate``.

        Any randomness must come from ``rng`` — the hunt's single seeded
        stream — or determinism (and with it replay) breaks.
        """

    def note(self, improved_best: bool) -> None:
        """Outcome callback, called once per step after the accept decision
        with whether the step produced a new global incumbent."""

    def should_restart(self) -> bool:
        """Whether the hunt should reset to the base graph before the next
        step.  Called once per step, after :meth:`note`."""
        return False


class GreedyPolicy(SearchPolicy):
    """Strict hill-climbing with restarts: accept only improvements, and
    jump back to the base graph after ``patience`` steps without a new
    incumbent (a fresh region often beats polishing a local optimum)."""

    name = "greedy"

    def __init__(self, patience: int = 30) -> None:
        if patience < 1:
            raise AdversarialError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self._stall = 0

    def accept(
        self, current: float, candidate: float, rng: random.Random
    ) -> bool:
        return candidate > current

    def note(self, improved_best: bool) -> None:
        self._stall = 0 if improved_best else self._stall + 1

    def should_restart(self) -> bool:
        if self._stall >= self.patience:
            self._stall = 0
            return True
        return False


class AnnealingPolicy(SearchPolicy):
    """Simulated annealing with a geometric cooling schedule.

    Improvements are always accepted; a worsening move of ``d`` is accepted
    with probability ``exp(-d / T)``, and ``T`` decays by ``cooling`` per
    step from ``t0`` down to ``t_min``.  The default ``t0`` is sized for
    the ratio objective, whose per-step deltas live around 1e-2.
    """

    name = "anneal"

    def __init__(
        self, t0: float = 0.05, cooling: float = 0.995, t_min: float = 1e-6
    ) -> None:
        if not (t0 > 0 and 0 < cooling < 1 and t_min > 0):
            raise AdversarialError(
                f"bad annealing schedule t0={t0} cooling={cooling} t_min={t_min}"
            )
        self.t = t0
        self.cooling = cooling
        self.t_min = t_min

    def accept(
        self, current: float, candidate: float, rng: random.Random
    ) -> bool:
        try:
            if candidate >= current:
                return True
            return rng.random() < math.exp((candidate - current) / self.t)
        finally:
            self.t = max(self.t * self.cooling, self.t_min)


POLICIES: dict[str, type[SearchPolicy]] = {
    GreedyPolicy.name: GreedyPolicy,
    AnnealingPolicy.name: AnnealingPolicy,
}


def make_policy(name: str) -> SearchPolicy:
    """Instantiate a policy by registry key (``greedy`` / ``anneal``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise AdversarialError(
            f"unknown search policy {name!r}; known: {known}"
        ) from None


@dataclass
class HuntResult:
    """Outcome of one :func:`hunt` run.

    ``best_graph`` is reproducible from the base graph plus
    ``best_op_log`` (see :mod:`repro.adversarial.store`); ``best_score``
    is the objective value it achieves, ``base_score`` the unperturbed
    base graph's.
    """

    best_graph: TaskGraph
    best_score: float
    best_op_log: list[Perturbation]
    base_score: float
    steps: int
    accepted: int
    evaluated: int
    restarts: int
    wall_s: float
    policy: str
    seed: int
    neighborhood: int
    ops: tuple[str, ...] = ALL_OPS
    #: Best score after each step (for gap-vs-budget curves).
    history: list[float] = field(default_factory=list)


def hunt(
    base_graph: TaskGraph,
    objective: Objective,
    *,
    seed: int,
    steps: int = 200,
    neighborhood: int = 8,
    policy: SearchPolicy | str = "anneal",
    ops: tuple[str, ...] = ALL_OPS,
    keep_history: bool = False,
) -> HuntResult:
    """Search outward from ``base_graph`` for the largest objective value.

    Per step: draw up to ``neighborhood`` candidate one-op perturbations of
    the current graph, score them all in one pooled pass, and offer the
    best candidate to the policy; an accepted candidate's op is committed
    to the environment's op log.  The incumbent (best graph ever seen) is
    snapshotted whenever it improves and returned — together with the op
    log that rebuilds it, which is what the store persists.

    ``base_graph`` itself is never mutated.  Raises
    :class:`~repro.core.exceptions.AdversarialError` when the base graph
    cannot be scored (a scheduler fails on it) — an unscorable base gives
    the search no gradient at all.
    """
    if steps < 1 or neighborhood < 1:
        raise AdversarialError(
            f"steps and neighborhood must be >= 1, got {steps}, {neighborhood}"
        )
    if isinstance(policy, str):
        policy = make_policy(policy)
    rng = random.Random(seed)
    env = PerturbationEnv(base_graph.copy(), rng, ops=ops)
    base_score = objective.score(env.graph)
    if base_score is None:
        raise AdversarialError(
            f"base graph is not scorable under {objective!r}"
        )

    registry = get_registry()
    tracer = get_tracer()
    current = base_score
    best_score = base_score
    best_graph = env.graph.copy()
    best_op_log: list[Perturbation] = []
    accepted = evaluated = restarts = 0
    history: list[float] = []
    start = perf_counter()

    span = (
        tracer.span(
            "adv.hunt",
            cat="adversarial",
            objective=objective.describe(),
            policy=policy.name,
            steps=steps,
            neighborhood=neighborhood,
        )
        if tracer.enabled
        else nullcontext()
    )
    with span:
        for _step in range(steps):
            registry.inc("adv.steps")
            cands = env.neighborhood(neighborhood)
            improved = False
            if cands:
                scores = objective.score_many([g for _, g in cands])
                evaluated += len(cands)
                registry.inc("adv.evaluated", len(cands))
                best_i = -1
                for i, s in enumerate(scores):
                    if s is not None and (best_i < 0 or s > scores[best_i]):
                        best_i = i
                if best_i >= 0 and policy.accept(current, scores[best_i], rng):
                    env.apply(cands[best_i][0])
                    current = scores[best_i]
                    accepted += 1
                    registry.inc("adv.accepted")
                    if current > best_score:
                        improved = True
                        best_score = current
                        best_graph = env.graph.copy()
                        best_op_log = list(env.op_log)
                        registry.observe("adv.best_gap", best_score)
            policy.note(improved)
            if not cands or policy.should_restart():
                env.reset(base_graph.copy())
                current = base_score
                restarts += 1
                registry.inc("adv.restarts")
            if keep_history:
                history.append(best_score)

    return HuntResult(
        best_graph=best_graph,
        best_score=best_score,
        best_op_log=best_op_log,
        base_score=base_score,
        steps=steps,
        accepted=accepted,
        evaluated=evaluated,
        restarts=restarts,
        wall_s=perf_counter() - start,
        policy=policy.name,
        seed=seed,
        neighborhood=neighborhood,
        ops=tuple(ops),
        history=history,
    )
