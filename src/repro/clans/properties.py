"""Clan-theoretic utilities: enumeration oracle, verification, statistics.

* :func:`enumerate_clans` — all clans of a (small) graph by direct
  application of the definition; the brute-force oracle the decomposition
  is tested against.
* :func:`verify_parse_tree` — full structural audit of a parse tree
  against its graph (used by property tests and available to users who
  build trees by other means).
* :func:`tree_statistics` — shape summary of a clan parse tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..core.exceptions import DecompositionError
from ..core.taskgraph import Task, TaskGraph
from .parse_tree import ClanKind, ClanNode
from .relations import RelationMatrix, UNRELATED

__all__ = ["enumerate_clans", "verify_parse_tree", "ClanTreeStats", "tree_statistics"]

#: Enumeration is exponential; refuse beyond this size.
MAX_ENUMERATION_TASKS = 12


def enumerate_clans(
    graph: TaskGraph, *, include_trivial: bool = False
) -> list[frozenset[Task]]:
    """All clans of ``graph`` by brute force (test oracle; n <= 12).

    ``include_trivial`` adds the singletons and the full vertex set.
    Results are sorted by (size, repr) for determinism.
    """
    n = graph.n_tasks
    if n > MAX_ENUMERATION_TASKS:
        raise DecompositionError(
            f"enumeration is exponential; refusing {n} tasks "
            f"(max {MAX_ENUMERATION_TASKS})"
        )
    tasks = graph.tasks()
    rm = RelationMatrix(graph)
    found: list[frozenset[Task]] = []
    sizes = range(1 if include_trivial else 2, n + (1 if include_trivial else 0))
    for k in sizes:
        for combo in combinations(tasks, k):
            cand = set(combo)
            if _is_clan_fast(rm, cand, tasks):
                found.append(frozenset(cand))
    if include_trivial and n >= 1:
        found.append(frozenset(tasks))
    return sorted(found, key=lambda c: (len(c), sorted(map(repr, c))))


def _is_clan_fast(rm: RelationMatrix, cand: set[Task], tasks: list[Task]) -> bool:
    members = list(cand)
    x0 = members[0]
    for z in tasks:
        if z in cand:
            continue
        r0 = rm.rel(z, x0)
        for x in members[1:]:
            if rm.rel(z, x) != r0:
                return False
    return True


def verify_parse_tree(graph: TaskGraph, tree: ClanNode) -> None:
    """Audit a clan parse tree against its graph.

    Checks: leaves are exactly the tasks; children partition each node;
    every node is a clan; LINEAR children are totally ordered; INDEPENDENT
    children are pairwise unrelated; PRIMITIVE nodes have >= 3 children and
    a prime quotient (the smallest clan holding any two children is the
    whole node, so no union of children short of the node is a clan).
    Raises :class:`DecompositionError` on the first violation.
    """
    leaves = sorted(map(repr, (leaf.task for leaf in tree.leaves())))
    if leaves != sorted(map(repr, graph.tasks())):
        raise DecompositionError("parse-tree leaves do not match graph tasks")
    rm = RelationMatrix(graph)
    rel = rm.matrix
    for node in tree.walk():
        rows = [rm.index[t] for t in node.members]
        outside = np.setdiff1d(np.arange(rm.n), rows)
        block = rel[np.ix_(outside, rows)]
        if not (block == block[:, :1]).all():
            raise DecompositionError(f"{node!r} is not a clan")
        if node.is_leaf:
            continue
        union: set[Task] = set()
        for child in node.children:
            if union & child.members:
                raise DecompositionError(f"overlapping children in {node!r}")
            union |= child.members
        if union != set(node.members):
            raise DecompositionError(f"children do not cover {node!r}")
        reps = [next(iter(c.members)) for c in node.children]
        if node.kind is ClanKind.LINEAR:
            for a, b in zip(reps, reps[1:]):
                if not rm.is_ancestor(a, b):
                    raise DecompositionError(
                        f"LINEAR children out of order in {node!r}"
                    )
        elif node.kind is ClanKind.INDEPENDENT:
            for a, b in combinations(reps, 2):
                if rm.rel(a, b) != UNRELATED:
                    raise DecompositionError(
                        f"INDEPENDENT children related in {node!r}"
                    )
        else:  # PRIMITIVE
            if len(node.children) < 3:
                raise DecompositionError(
                    f"PRIMITIVE node with {len(node.children)} children"
                )
            idx = [rm.index[t] for t in reps]
            quotient = rel[np.ix_(idx, idx)]
            for a, b in combinations(range(len(idx)), 2):
                if not _smallest_module(quotient, a, b).all():
                    raise DecompositionError(
                        f"children of primitive {node!r} are not maximal: "
                        "some of them form a clan"
                    )


def _smallest_module(rel: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mask of the smallest module of ``rel`` containing ``a`` and ``b``.

    A vertex outside the current set that sees two members in different
    relations splits it and must join; repeat until nothing splits.
    """
    member = np.zeros(rel.shape[0], dtype=bool)
    member[[a, b]] = True
    while True:
        cols = rel[:, member]
        splitters = (cols != cols[:, :1]).any(axis=1) & ~member
        if not splitters.any():
            return member
        member |= splitters


@dataclass(frozen=True)
class ClanTreeStats:
    """Shape summary of a clan parse tree."""

    n_leaves: int
    n_linear: int
    n_independent: int
    n_primitive: int
    depth: int
    max_children: int
    largest_primitive: int  # members of the biggest primitive clan (0 if none)

    @property
    def n_internal(self) -> int:
        return self.n_linear + self.n_independent + self.n_primitive


def tree_statistics(tree: ClanNode) -> ClanTreeStats:
    """Compute :class:`ClanTreeStats` for a parse tree."""
    biggest_prim = 0
    max_children = 0
    for node in tree.walk():
        if node.children:
            max_children = max(max_children, len(node.children))
        if node.kind is ClanKind.PRIMITIVE:
            biggest_prim = max(biggest_prim, node.size)
    return ClanTreeStats(
        n_leaves=tree.count(ClanKind.LEAF),
        n_linear=tree.count(ClanKind.LINEAR),
        n_independent=tree.count(ClanKind.INDEPENDENT),
        n_primitive=tree.count(ClanKind.PRIMITIVE),
        depth=tree.depth(),
        max_children=max_children,
        largest_primitive=biggest_prim,
    )
