"""Tests for the topology subpackage."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro import MHScheduler, ScheduleError, TaskGraph
from repro.core.wire import dumps
from repro.generation.random_dag import generate_pdg
from repro.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    PortAwareScheduler,
    Ring,
    Star,
    TopologyMHScheduler,
    simulate_on_topology,
    validate_on_topology,
)

from conftest import task_graphs


class TestNetworks:
    def test_fully_connected(self):
        t = FullyConnected(5)
        assert t.distance(0, 0) == 0
        assert t.distance(0, 4) == 1
        assert t.diameter == 1

    def test_ring(self):
        t = Ring(6)
        assert t.distance(0, 1) == 1
        assert t.distance(0, 3) == 3
        assert t.distance(0, 5) == 1  # shorter way around
        assert t.diameter == 3

    def test_mesh(self):
        t = Mesh2D(2, 3)
        assert t.n_processors == 6
        assert t.distance(0, 5) == 3  # (0,0) -> (1,2)
        assert t.distance(1, 4) == 1  # (0,1) -> (1,1)

    def test_hypercube(self):
        t = Hypercube(3)
        assert t.n_processors == 8
        assert t.distance(0, 7) == 3
        assert t.distance(5, 4) == 1
        assert t.diameter == 3

    def test_star(self):
        t = Star(5)
        assert t.distance(0, 3) == 1
        assert t.distance(2, 3) == 2

    def test_symmetry_and_identity(self):
        for t in (Ring(7), Mesh2D(3, 3), Hypercube(2), Star(4), FullyConnected(4)):
            for p in range(t.n_processors):
                assert t.distance(p, p) == 0
                for q in range(t.n_processors):
                    assert t.distance(p, q) == t.distance(q, p)

    def test_out_of_range(self):
        with pytest.raises(ScheduleError):
            Ring(3).distance(0, 5)

    def test_bad_sizes(self):
        with pytest.raises(ScheduleError):
            FullyConnected(0)
        with pytest.raises(ScheduleError):
            Mesh2D(0, 3)
        with pytest.raises(ScheduleError):
            Hypercube(-1)


class TestSimulateOnTopology:
    def test_hop_scaled_arrival(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 5)
        ring = Ring(6)
        s = simulate_on_topology(g, {"a": 0, "b": 3}, ring)
        assert s.start("b") == 10 + 5 * 3
        validate_on_topology(s, g, ring)

    def test_same_processor_free(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 5)
        s = simulate_on_topology(g, {"a": 2, "b": 2}, Ring(6))
        assert s.start("b") == 10.0

    def test_clique_matches_uniform_simulator(self, paper_example):
        from repro.core.simulator import simulate_clustering

        assignment = {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
        uniform = simulate_clustering(paper_example, assignment)
        topo = simulate_on_topology(paper_example, assignment, FullyConnected(2))
        assert uniform.makespan == pytest.approx(topo.makespan)

    def test_bad_assignment(self, diamond):
        with pytest.raises(ScheduleError):
            simulate_on_topology(diamond, {"a": 0}, Ring(3))
        with pytest.raises(ScheduleError):
            simulate_on_topology(
                diamond, {t: 9 for t in diamond.tasks()}, Ring(3)
            )

    def test_validation_catches_violation(self):
        g = TaskGraph()
        g.add_task("a", 10)
        g.add_task("b", 10)
        g.add_edge("a", "b", 5)
        from repro import Schedule

        s = Schedule()
        s.place("a", 0, 0.0, 10.0)
        s.place("b", 3, 16.0, 10.0)  # needs 10 + 15 on a 6-ring
        with pytest.raises(ScheduleError, match="network"):
            validate_on_topology(s, g, Ring(6))


class TestTopologyMH:
    def test_clique_reduces_to_bounded_mh(self, paper_example, diamond, wide_fork):
        for g in (paper_example, diamond, wide_fork):
            for p in (2, 3):
                topo = TopologyMHScheduler(FullyConnected(p)).schedule(g)
                plain = MHScheduler(max_processors=p).schedule(g)
                assert topo.makespan == pytest.approx(plain.makespan)

    def test_valid_on_all_networks(self, paper_example, wide_fork):
        for net in (Ring(4), Mesh2D(2, 2), Hypercube(2), Star(4)):
            for g in (paper_example, wide_fork):
                s = TopologyMHScheduler(net).schedule(g)
                validate_on_topology(s, g, net)

    def test_sparser_networks_never_faster(self, wide_fork):
        """With the same processor count, adding hops cannot help."""
        clique = TopologyMHScheduler(FullyConnected(8)).schedule(wide_fork)
        ring = TopologyMHScheduler(Ring(8)).schedule(wide_fork)
        star = TopologyMHScheduler(Star(8)).schedule(wide_fork)
        assert clique.makespan <= ring.makespan + 1e-9
        assert clique.makespan <= star.makespan + 1e-9

    def test_name(self):
        assert TopologyMHScheduler(Ring(8)).name == "MH@Ring8"

    @given(g=task_graphs(min_tasks=1, max_tasks=10))
    @settings(max_examples=25, deadline=None)
    def test_property_valid_on_ring(self, g):
        net = Ring(3)
        s = TopologyMHScheduler(net).schedule(g)
        validate_on_topology(s, g, net)


def _pinned_corpus() -> list[TaskGraph]:
    """Seeded PDGs over every granularity band, tie-heavy and spread weights,
    plus a unit-weight wide fork where every level ties."""
    graphs = []
    for band in range(5):
        for wr in [(1, 2), (20, 100)]:
            rng = np.random.default_rng(7000 + band * 10 + wr[0])
            graphs.append(
                generate_pdg(rng, n_tasks=24, band=band, anchor=3, weight_range=wr)
            )
    fork = TaskGraph()
    fork.add_task("src", 1)
    for i in range(8):
        fork.add_task(i, 1)
        fork.add_edge("src", i, 1)
    graphs.append(fork)
    return graphs


class TestPinnedSchedules:
    """Exact TopologyMH / MH1P output on a seeded corpus, as SHA-256 digests.

    The other tests here check validity and port feasibility only; these
    digests pin every placement (and MH1P's committed transfers), so a
    rewrite of the release loops must reproduce the schedules bit for bit.
    """

    def test_topology_mh_and_mh1p_digests(self):
        corpus = _pinned_corpus()

        def digest(payloads) -> str:
            return hashlib.sha256(dumps(payloads).encode("utf-8")).hexdigest()[:16]

        def port_aware(max_processors):
            payloads = []
            for g in corpus:
                sched = PortAwareScheduler(max_processors=max_processors)
                s = sched.schedule(g)
                payloads.append([s.to_dict(), sched.last_transfers])
            return digest(payloads)

        got = {
            "MH@Ring6": digest(
                [TopologyMHScheduler(Ring(6)).schedule(g).to_dict() for g in corpus]
            ),
            "MH@Star5": digest(
                [TopologyMHScheduler(Star(5)).schedule(g).to_dict() for g in corpus]
            ),
            "MH1P": port_aware(None),
            "MH1P/2": port_aware(2),
        }
        assert got == {
            "MH@Ring6": "5a83f87d26d5dcd2",
            "MH@Star5": "18aeb40eaf0e24fd",
            "MH1P": "33ebd8eef996c998",
            "MH1P/2": "5fb0e7919e4c232f",
        }
