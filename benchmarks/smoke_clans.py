#!/usr/bin/env python
"""Differential smoke for CLANS: production against the test oracles.

Run by the CI ``clans-oracle`` job (and by hand after touching
``repro.clans`` or ``repro.schedulers.clans_sched``)::

    PYTHONPATH=src python benchmarks/smoke_clans.py

Sweeps ``generate_suite(graphs_per_cell=3)`` for three seeds (540 graphs).
For every graph it checks that

* the bitset decomposition gives the same parse tree as the numpy oracle
  ``tests/reference.py::decompose``, and that tree passes
  ``verify_parse_tree``;
* CLANS, with the speedup check on and off, gives the same schedule and
  the same macro-fallback flag as ``reference.clans_run`` (production
  CLANS on the reference decomposition, decision step and simulator).

Exits 0 when every graph agrees, 1 with a diagnostic at the first mismatch.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import reference  # noqa: E402

from repro.clans import decompose, tree_statistics, verify_parse_tree  # noqa: E402
from repro.generation.suites import generate_suite  # noqa: E402
from repro.schedulers.clans_sched import ClansScheduler  # noqa: E402

SEEDS = (19940815, 19940816, 19940817)
GRAPHS_PER_CELL = 3


def shape(node):
    if node.is_leaf:
        return node.task
    return (node.kind.name, [shape(c) for c in node.children])


def fail(where: str, message: str) -> None:
    print(f"FAIL: {where}: {message}", file=sys.stderr)
    sys.exit(1)


def check_graph(where: str, graph) -> int:
    """Check one graph; returns the number of PRIMITIVE nodes in its tree."""
    tree = decompose(graph.copy())
    if shape(tree) != shape(reference.decompose(graph)):
        fail(where, "parse tree differs from reference.decompose")
    try:
        verify_parse_tree(graph, tree)
    except Exception as exc:  # DecompositionError, reported with its text
        fail(where, f"verify_parse_tree: {exc}")
    for speedup_check in (True, False):
        ref, ref_fallback = reference.clans_run(graph, speedup_check=speedup_check)
        scheduler = ClansScheduler(speedup_check=speedup_check)
        got = scheduler.schedule(graph.copy())
        if got.to_dict() != ref.to_dict():
            fail(where, f"CLANS schedule differs (speedup_check={speedup_check})")
        if scheduler.last_fallback != ref_fallback:
            fail(where, f"CLANS fallback differs (speedup_check={speedup_check})")
    return tree_statistics(tree).n_primitive


def main() -> int:
    total = primitive = 0
    for seed in SEEDS:
        t0 = time.perf_counter()
        count = 0
        for sg in generate_suite(graphs_per_cell=GRAPHS_PER_CELL, seed=seed):
            where = f"seed {seed} {sg.graph_id}"
            primitive += check_graph(where, sg.graph)
            count += 1
        total += count
        print(f"  ok: seed {seed}: {count} graphs ({time.perf_counter() - t0:.1f} s)")
    print(f"clans oracle smoke: {total} graphs, {primitive} PRIMITIVE nodes, all identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
