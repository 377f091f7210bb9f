"""Clan decomposition of a DAG (the parse used by CLANS).

A set of vertices ``C`` is a **clan** iff every vertex outside ``C`` relates
identically — ancestor, descendant, or unrelated, in the transitive closure —
to all members of ``C`` (appendix A.5).  That makes clans exactly the
*modules* of the 2-structure captured by
:class:`~repro.clans.relations.RelationMatrix`, and the unique clan parse
tree is its modular decomposition:

* If the **comparability graph** of a clan is disconnected, the clan is
  INDEPENDENT and its children are the components (pairwise unrelated sets).
* Else if the **incomparability graph** is disconnected, the clan is LINEAR
  and its children are the co-components; for a partial order these are
  always totally ordered (orientation between two co-components is uniform:
  mixed orientations would contradict transitivity along incomparability
  paths).
* Else the clan is PRIMITIVE; its children are its maximal proper strong
  modules.  With ``v`` the lowest vertex, partition refinement yields
  P(S, v), the maximal modules not containing ``v``.  Each of its parts
  either lies inside M(v), the child containing ``v``, or is itself a
  child; one smallest-module closure per part on the quotient (one
  representative per part, plus ``v``) tells which, since the closure of
  ``v`` and a part is proper exactly when the part lies inside M(v).

Relations are held as integer bitsets (one Python int per vertex row): at
testbed sizes (n of order 100) a row fits in a few machine words, and
big-int and/or/xor is fast.  Vertices are numbered in ascending
topological order, so "lowest set bit" is "minimum topological index":
components are discovered in ascending first-vertex order and primitive
children are sorted by lowest bit, which makes child orderings
deterministic.  A primitive node costs O(n·parts) big-int operations in
practice (each pivot is one pass over the parts; a vertex is a pivot again
only when its own part splits), O(n²·parts) in the worst case; see
``docs/clans.md``.
"""

from __future__ import annotations

from ..core.exceptions import DecompositionError
from ..core.taskgraph import Task, TaskGraph
from .parse_tree import ClanKind, ClanNode
from .relations import RelationMatrix

__all__ = ["decompose", "is_clan", "clan_parse_tree"]


def clan_parse_tree(graph: TaskGraph) -> ClanNode:
    """The unique clan parse tree of ``graph`` (alias of :func:`decompose`)."""
    return decompose(graph)


def decompose(graph: TaskGraph) -> ClanNode:
    """Compute the clan parse tree of a DAG.

    Raises :class:`DecompositionError` for an empty graph (no parse exists).
    """
    if graph.n_tasks == 0:
        raise DecompositionError("cannot decompose an empty graph")
    br = _BitRelations(graph)
    return _decompose_bits(br, br.full)


def _make_internal(kind: ClanKind, children: list[ClanNode]) -> ClanNode:
    members = frozenset().union(*(c.members for c in children))
    return ClanNode(kind, members, children)


# ----------------------------------------------------------------------
# bitset relations
#
# One Python int per vertex row: bit j of ``desc[i]`` marks a strict
# descendant, etc.  Vertex numbering is the same ascending topological order
# as RelationMatrix, so "lowest set bit" == "minimum topological index".
# ----------------------------------------------------------------------


class _BitRelations:
    """Transitive ancestor/descendant relations as per-vertex bitmasks."""

    __slots__ = ("tasks", "n", "full", "desc", "anc", "comp", "unrel")

    def __init__(self, graph: TaskGraph) -> None:
        tasks = graph.topological_order()
        index = {t: i for i, t in enumerate(tasks)}
        n = len(tasks)
        desc = [0] * n
        for i in range(n - 1, -1, -1):
            m = 0
            for s in graph.successors(tasks[i]):
                j = index[s]
                m |= (1 << j) | desc[j]
            desc[i] = m
        anc = [0] * n
        for i in range(n):
            m = 0
            for p in graph.predecessors(tasks[i]):
                j = index[p]
                m |= (1 << j) | anc[j]
            anc[i] = m
        self.tasks = tasks
        self.n = n
        self.full = (1 << n) - 1
        self.desc = desc
        self.anc = anc
        self.comp = [desc[i] | anc[i] for i in range(n)]
        self.unrel = [self.full & ~self.comp[i] & ~(1 << i) for i in range(n)]


def _mask_components(subset: int, adj: list[int]) -> list[int]:
    """Connected components of ``subset`` under symmetric adjacency ``adj``.

    Components come out in ascending order of their smallest vertex.
    """
    comps: list[int] = []
    rest = subset
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                lsb = m & -m
                nxt |= adj[lsb.bit_length() - 1]
                m ^= lsb
            frontier = nxt & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _decompose_bits(br: _BitRelations, subset: int) -> ClanNode:
    """Recursive modular decomposition on the vertex bitmask ``subset``."""
    if subset & (subset - 1) == 0:
        task = br.tasks[subset.bit_length() - 1]
        return ClanNode(ClanKind.LEAF, frozenset([task]), task=task)

    comps = _mask_components(subset, br.comp)
    if len(comps) > 1:
        children = [_decompose_bits(br, c) for c in comps]
        return _make_internal(ClanKind.INDEPENDENT, children)

    cocomps = _mask_components(subset, br.unrel)
    if len(cocomps) > 1:
        children = [_decompose_bits(br, c) for c in cocomps]
        # Total order between co-components: ascending minimum topological
        # index (== ascending lowest bit) orders them; verify consecutive
        # representatives are uniformly oriented.
        for a, b in zip(cocomps, cocomps[1:]):
            ra = (a & -a).bit_length() - 1
            if not br.desc[ra] & (b & -b):
                raise DecompositionError(
                    "linear clan children are not totally ordered (internal error)"
                )
        return _make_internal(ClanKind.LINEAR, children)

    parts = _primitive_children_bits(br, subset)
    children = [_decompose_bits(br, part) for part in parts]
    return _make_internal(ClanKind.PRIMITIVE, children)


def _primitive_children_bits(br: _BitRelations, subset: int) -> list[int]:
    """Maximal proper strong modules of a primitive 2-structure (as masks).

    With ``v`` the lowest vertex of ``subset``, partition refinement yields
    P(S, v), the maximal modules of S that do not contain ``v``: starting
    from the single part ``S - {v}``, each pivot ``p`` splits every part
    not containing ``p`` into its ``anc[p]``, ``desc[p]`` and unrelated
    pieces, and every part that split re-queues its vertices as pivots (a
    vertex must be uniform towards each part it is not in, and a split
    creates new such parts).  At a prime node every part either lies inside
    M(v), the child containing ``v``, or is itself a child; a part lies
    inside M(v) iff the smallest module containing ``v`` and the part is
    proper, which one closure on the quotient (one representative per part,
    plus ``v``) decides.  Children come out in ascending lowest-bit order,
    M(v) first.
    """
    vbit = subset & -subset
    v = vbit.bit_length() - 1
    anc, desc, unrel = br.anc, br.desc, br.unrel
    parts = [subset ^ vbit]
    pending = vbit
    while pending:
        pbit = pending & -pending
        pending ^= pbit
        p = pbit.bit_length() - 1
        above, below = anc[p], desc[p]
        refined: list[int] = []
        for part in parts:
            up = part & above
            down = part & below
            if part & pbit or up == part or down == part or not (up | down):
                refined.append(part)
                continue
            pending |= part
            rest = part ^ up ^ down
            refined.extend(piece for piece in (up, down, rest) if piece)
        parts = refined

    quotient = vbit
    for part in parts:
        quotient |= part & -part
    av, dv, uv = anc[v], desc[v], unrel[v]
    diffs = [0] * br.n
    m = quotient ^ vbit
    while m:
        lsb = m & -m
        z = lsb.bit_length() - 1
        diffs[z] = ~((anc[z] & av) | (desc[z] & dv) | (unrel[z] & uv))
        m ^= lsb
    inside = vbit  # representatives of the parts that lie inside M(v)
    for part in parts:
        rep = part & -part
        if inside & rep:
            continue
        closure = _smallest_module_bits(quotient, vbit, rep, diffs)
        if closure != quotient:
            inside |= closure
    mv = vbit
    children: list[int] = []
    for part in parts:
        if inside & part:
            mv |= part
        else:
            children.append(part)
    if not children:
        raise DecompositionError(
            "primitive clan produced fewer than two children (internal error)"
        )
    children.sort(key=lambda part: part & -part)
    return [mv, *children]


def _smallest_module_bits(subset: int, vbit: int, ubit: int, diffs: list[int]) -> int:
    """Smallest module (within ``subset``) containing ``vbit`` and ``ubit``.

    Wave-batched closure: whenever vertices join, every outside vertex whose
    relation to any of them differs from its (uniform) relation to the seed
    becomes a splitter and joins in the next wave.  ``diffs[z]`` is the set
    of vertices whose relation to ``z`` differs from their relation to the
    seed (see :func:`_primitive_children_bits`).
    """
    member = vbit | ubit
    new = ubit
    while new:
        splitters = 0
        m = new
        while m:
            lsb = m & -m
            splitters |= diffs[lsb.bit_length() - 1]
            m ^= lsb
        add = splitters & subset & ~member
        member |= add
        new = add
        if member == subset:
            break
    return member


def is_clan(graph: TaskGraph, candidate: set[Task] | frozenset[Task]) -> bool:
    """Check the paper's clan condition directly (used as a test oracle).

    ``candidate`` must be a non-empty subset of the graph's tasks.
    """
    cand = set(candidate)
    tasks = set(graph.tasks())
    if not cand or not cand <= tasks:
        raise DecompositionError("candidate must be a non-empty subset of tasks")
    rm = RelationMatrix(graph)
    outside = tasks - cand
    members = list(cand)
    x0 = members[0]
    for z in outside:
        r0 = rm.rel(z, x0)
        for x in members[1:]:
            if rm.rel(z, x) != r0:
                return False
    return True
