"""Tests for the clan enumeration oracle and parse-tree verification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import DecompositionError, TaskGraph
from repro.clans import (
    ClanKind,
    ClanNode,
    decompose,
    enumerate_clans,
    is_clan,
    tree_statistics,
    verify_parse_tree,
)

from conftest import task_graphs


class TestEnumerateClans:
    def test_paper_example(self, paper_example):
        clans = enumerate_clans(paper_example)
        assert frozenset([3, 4]) in clans
        assert frozenset([2, 3, 4]) in clans

    def test_trivial_included_on_request(self, paper_example):
        clans = enumerate_clans(paper_example, include_trivial=True)
        for t in paper_example.tasks():
            assert frozenset([t]) in clans
        assert frozenset(paper_example.tasks()) in clans

    def test_matches_is_clan(self, paper_example):
        for clan in enumerate_clans(paper_example, include_trivial=True):
            assert is_clan(paper_example, clan)

    def test_size_guard(self):
        g = TaskGraph()
        for i in range(13):
            g.add_task(i, 1)
        with pytest.raises(DecompositionError, match="exponential"):
            enumerate_clans(g)

    @given(g=task_graphs(min_tasks=2, max_tasks=8))
    @settings(max_examples=40, deadline=None)
    def test_tree_nodes_are_enumerated(self, g):
        """Every internal parse-tree node must appear in the oracle's list
        (with trivial clans included for leaves/root)."""
        oracle = set(enumerate_clans(g, include_trivial=True))
        for node in decompose(g).walk():
            assert node.members in oracle


class TestVerifyParseTree:
    @given(g=task_graphs(min_tasks=1, max_tasks=12))
    @settings(max_examples=60, deadline=None)
    def test_decompose_output_always_verifies(self, g):
        verify_parse_tree(g, decompose(g))

    def test_detects_wrong_leaves(self, paper_example, diamond):
        with pytest.raises(DecompositionError, match="leaves"):
            verify_parse_tree(paper_example, decompose(diamond))

    def test_detects_wrong_kind(self, paper_example):
        tree = decompose(paper_example)
        # flip the root kind to INDEPENDENT: children are related -> invalid
        bad = ClanNode(ClanKind.INDEPENDENT, tree.members, tree.children)
        with pytest.raises(DecompositionError):
            verify_parse_tree(paper_example, bad)

    def test_detects_non_clan_node(self, paper_example):
        bad_child = ClanNode(
            ClanKind.LINEAR,
            frozenset([2, 3]),
            [
                ClanNode(ClanKind.LEAF, frozenset([2]), task=2),
                ClanNode(ClanKind.LEAF, frozenset([3]), task=3),
            ],
        )
        rest = [
            ClanNode(ClanKind.LEAF, frozenset([t]), task=t) for t in (1, 4, 5)
        ]
        bad = ClanNode(
            ClanKind.PRIMITIVE, frozenset([1, 2, 3, 4, 5]), [bad_child, *rest]
        )
        with pytest.raises(DecompositionError):
            verify_parse_tree(paper_example, bad)


    def test_detects_flattened_primitive_child(self):
        """An N poset substituted for one vertex of another N: the inner N
        is a prime child of the root, so a root listing all seven vertices
        as leaves is not maximal, although no two of them form a clan."""
        g = TaskGraph()
        for t in ("a", "b", "c", "d", "x", "c_out", "d_out"):
            g.add_task(t, 1)
        for u, v in [("a", "c"), ("b", "c"), ("b", "d"), ("c", "c_out"),
                     ("d", "c_out"), ("x", "c_out"), ("x", "d_out")]:
            g.add_edge(u, v, 1)
        good = decompose(g)
        verify_parse_tree(g, good)
        inner = frozenset("abcd")
        assert good.kind is ClanKind.PRIMITIVE
        assert inner in [c.members for c in good.children]
        leaves = [ClanNode(ClanKind.LEAF, frozenset([t]), task=t) for t in g.tasks()]
        flat = ClanNode(ClanKind.PRIMITIVE, good.members, leaves)
        with pytest.raises(DecompositionError, match="not maximal"):
            verify_parse_tree(g, flat)


class TestTreeStatistics:
    def test_paper_example(self, paper_example):
        st = tree_statistics(decompose(paper_example))
        assert st.n_leaves == 5
        assert st.n_linear == 2
        assert st.n_independent == 1
        assert st.n_primitive == 0
        assert st.n_internal == 3
        assert st.depth == 3
        assert st.max_children == 3
        assert st.largest_primitive == 0

    def test_primitive_recorded(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 1)
        g.add_edge(0, 2, 1)
        g.add_edge(1, 2, 1)
        g.add_edge(1, 3, 1)
        st = tree_statistics(decompose(g))
        assert st.n_primitive == 1
        assert st.largest_primitive == 4
